//! The paper's hybrid-parallel kernels.
//!
//! * [`config`] — Dynamic Task Partition (Eq. 3–5) and Hierarchical
//!   Vectorized Memory Access: how `NnzPerWarp` and the vector width are
//!   chosen.
//! * [`spmm`] — HP-SpMM (Algorithm 3).
//! * [`sddmm`] — HP-SDDMM (Algorithm 4).
//! * [`fused_mha`] — HP-Fused-MHA: one-kernel SDDMM + softmax + SpMM
//!   multi-head attention with a shared-memory score tile.

pub mod config;
pub mod fused_mha;
pub mod sddmm;
pub mod spmm;

pub use config::HpConfig;
pub use fused_mha::{FusedMhaCost, FusedMhaRun, HpFusedMha};
pub use sddmm::HpSddmm;
pub use spmm::HpSpmm;

// Re-export the kernel traits so `use hpsparse_core::hp::*` is enough to
// run the flagship kernels.
pub use crate::traits::{SddmmKernel, SpmmKernel};
