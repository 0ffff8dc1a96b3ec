//! Shared machinery for the reproduction harness.
//!
//! Every table and figure of the paper's §IV is regenerated by the `repro`
//! binary; this library holds the experiment implementations so they are
//! testable and reusable (the per-experiment index lives in DESIGN.md).

#![forbid(unsafe_code)]

pub mod claims;
pub mod experiments;
pub mod perfdiff;
pub mod runner;
pub mod table;
