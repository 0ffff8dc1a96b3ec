//! The memory-safety judge of the simulated kernels: a dynamic sanitizer
//! over the simulator's access-event stream.
//!
//! The [`Sanitizer`] is NVIDIA `compute-sanitizer`'s three tools rebuilt
//! on an attached [`hpsparse_sim::AccessSink`]: **memcheck** (bounds and
//! vector alignment), **racecheck** (conflicting non-atomic stores of two
//! warps in one launch) and **initcheck** (loads of never-stored non-input
//! memory). [`sanitize_run`] runs one walk under a fresh sanitizer.
//!
//! It judges the walks that run, on the shapes they run on, so its reach
//! is the shapes it is given. The `repro -- verify` experiment sweeps every
//! catalogue kernel over the registry graphs, and the root
//! `tests/boundary_shapes.rs` sweeps every configuration a planner may pick
//! over random tile-boundary shapes; both hold each observed walk to an
//! unobserved one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sanitize;

pub use sanitize::{sanitize_run, Conflict, Report, Sanitizer, Violation};
