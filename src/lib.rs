//! # hpsparse
//!
//! A reproduction of *"Fast Sparse GPU Kernels for Accelerated Training of
//! Graph Neural Networks"* (Fan, Wang, Chu — IPDPS 2023) as a pure-Rust
//! library.
//!
//! The paper's contribution — the hybrid-parallel **HP-SpMM** and
//! **HP-SDDMM** kernels with **Dynamic Task Partition**, **Hierarchical
//! Vectorized Memory Access** and **Graph-Clustering-based Reordering** —
//! lives in [`kernels`] and [`reorder`]. Because CUDA hardware is replaced
//! by a deterministic cycle-level GPU execution model ([`sim`]), every
//! kernel both *computes real results* (validated against sequential
//! references) and *reports GPU-shaped costs* (cycles, memory transactions,
//! occupancy, tail utilisation).
//!
//! ## Crate map
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`sparse`] | `hpsparse-sparse` | CSR / hybrid CSR/COO / Blocked-ELL formats, dense matrices, graphs, reference kernels |
//! | [`sim`] | `hpsparse-sim` | GPU execution model: devices, occupancy, waves, sector cache, transactions |
//! | [`kernels`] | `hpsparse-core` | HP-SpMM, HP-SDDMM, DTP, HVMA and all baseline kernels |
//! | [`reorder`] | `hpsparse-reorder` | Louvain-based GCR and baseline reordering schemes |
//! | [`datasets`] | `hpsparse-datasets` | Synthetic versions of the paper's datasets |
//! | [`gnn`] | `hpsparse-gnn` | Tensors, autograd, GCN / GraphSAINT training |
//! | [`autotune`] | `hpsparse-autotune` | Kernel planner: fingerprints, cost model, persistent plan cache |
//!
//! ## Quickstart
//!
//! ```
//! use hpsparse::sparse::{Dense, Hybrid};
//! use hpsparse::kernels::hp::{HpSpmm, SpmmKernel};
//! use hpsparse::sim::DeviceSpec;
//!
//! // A tiny 4x4 graph adjacency in hybrid CSR/COO form.
//! let s = Hybrid::from_triplets(4, 4, &[
//!     (0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0),
//!     (2, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0),
//! ]).unwrap();
//! let a = Dense::from_fn(4, 8, |i, j| (i + j) as f32);
//!
//! // Run HP-SpMM on the simulated V100: real numerics + GPU-shaped cost.
//! let device = DeviceSpec::v100();
//! let kernel = HpSpmm::auto(&device, &s, a.cols());
//! let run = kernel.run(&device, &s, &a).unwrap();
//! assert_eq!(run.output.rows(), 4);
//! assert!(run.report.cycles > 0);
//! ```

#![forbid(unsafe_code)]

pub use hpsparse_autotune as autotune;
pub use hpsparse_core as kernels;
pub use hpsparse_datasets as datasets;
pub use hpsparse_gnn as gnn;
pub use hpsparse_reorder as reorder;
pub use hpsparse_sim as sim;
pub use hpsparse_sparse as sparse;
