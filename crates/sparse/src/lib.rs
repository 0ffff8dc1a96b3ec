//! Sparse-matrix substrate for the `hpsparse` workspace.
//!
//! This crate provides the storage formats used throughout the paper
//! *"Fast Sparse GPU Kernels for Accelerated Training of Graph Neural
//! Networks"* (IPDPS 2023):
//!
//! * [`Csr`] — Compressed Sparse Row (`RowOffset` / `ColInd` / `Value`),
//! * [`Hybrid`] — the *hybrid CSR/COO* format the paper's kernels are built
//!   on: coordinate (`RowInd` / `ColInd` / `Value`) entries guaranteed to be
//!   sorted in CSR order, i.e.
//!   the CSR layout with the compressed row-offset array decoded into a
//!   complete per-element row-index array (Fig. 2(d) of the paper),
//! * [`Dense`] — row-major dense `f32` matrices (feature matrices),
//!
//! plus graph utilities ([`graph`]), degree statistics ([`stats`]) and the
//! sequential reference kernels of Algorithms 1 and 2 ([`reference`](mod@reference)),
//! which every parallel kernel in `hpsparse-core` is tested against.

#![forbid(unsafe_code)]

pub mod blocked_ell;
pub mod csr;
pub mod dense;
pub mod error;
pub mod graph;
pub mod hybrid;
pub mod reference;
pub mod stats;

pub use blocked_ell::{BlockedEll, BlockedEllShape};
pub use csr::Csr;
pub use dense::Dense;
pub use error::FormatError;
pub use graph::Graph;
pub use hybrid::Hybrid;
pub use stats::{DegreeStats, MemoryFootprint};
