//! The repository benchmark as a library: the metric catalog, the span
//! recorder, the outside-in layer instrumentation, the four workloads, the
//! run driver and the result-set comparison. `src/main.rs` is the `bench`
//! command line over it; `README.md` explains what is measured and why.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod record;
pub mod run;
pub mod workloads;
