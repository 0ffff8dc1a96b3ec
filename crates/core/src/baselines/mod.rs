//! Baseline kernels the paper compares against (§IV-A2).
//!
//! Each baseline reproduces the published *parallelisation strategy* of the
//! original implementation on the simulator, so the comparison measures
//! strategy, not implementation accidents:
//!
//! | Kernel | Strategy | Preprocessing |
//! |---|---|---|
//! | [`CusparseCsrAlg2`] | row-per-warp CSR with long-row splitting | none |
//! | [`CusparseCsrAlg3`] | balanced nnz chunks | partition kernel folded into execution (the paper could not exclude it either) |
//! | [`CusparseCooAlg4`] | element-parallel COO, atomic adds | none |
//! | [`GeSpmm`] | node-parallel row-per-warp with shared-memory sparse-tile reuse | none |
//! | [`RowSplit`] | row-per-warp, scalar, uncoalesced feature access | none |
//! | [`MergePath`] | merge-based balanced chunks | binary-search partition |
//! | [`Aspt`] | adaptive 2-D tiling with dense-panel reuse | tiling + reordering |
//! | [`Sputnik`] | 1-D tiling, rows processed in sorted order | row sort |
//! | [`Huang`] | neighbour grouping (rows split into bounded tiles) | grouping pass |
//! | [`TcGnn`] | TF32 Tensor-Core SpMM over condensed 16×8 tiles | sparse-graph translation |
//! | [`DglSddmm`] | edge-parallel SDDMM | none |
//! | [`CusparseBlockedEll`] | dense-block ELL tiles (extension: not in the paper's Fig. 9 set) | format conversion |
//! | [`CusparseCsrSddmm`] | row-per-warp SDDMM, column-major `A2` access | none |

pub mod aspt;
pub mod blocked_ell_kernel;
pub mod common;
pub mod cusparse;
pub mod dgl;
pub mod gespmm;
pub mod huang;
pub mod mergepath;
pub mod registry;
pub mod rowsplit;
pub mod sputnik;
pub mod tcgnn;

pub use aspt::Aspt;
pub use blocked_ell_kernel::CusparseBlockedEll;
pub use cusparse::{CusparseCooAlg4, CusparseCsrAlg2, CusparseCsrAlg3, CusparseCsrSddmm};
pub use dgl::DglSddmm;
pub use gespmm::GeSpmm;
pub use huang::Huang;
pub use mergepath::MergePath;
pub use registry::{all_sddmm, all_spmm, sddmm_by_id, spmm_by_id, SDDMM_IDS, SPMM_IDS};
pub use rowsplit::RowSplit;
pub use sputnik::Sputnik;
pub use tcgnn::TcGnn;
