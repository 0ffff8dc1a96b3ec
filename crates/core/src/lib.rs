//! HP-SpMM and HP-SDDMM — the paper's hybrid-parallel sparse kernels —
//! together with every baseline they are evaluated against.
//!
//! Each kernel exists in one form: a *cost walk* that describes its
//! architectural events (warp assignment, tile loads, vectorized accesses,
//! atomics, row switches) to the [`hpsparse_sim`] execution model — this is
//! what reproduces the paper's performance comparisons — plus an
//! *accumulation order* ([`numerics`]) that computes the real arithmetic in
//! the sequence those warps would ([`traits`]). A caller that wants the
//! floats without the clock calls the accumulation order alone.
//!
//! "Every kernel" means [`catalog::KERNELS`]: the sixteen rows every sweep,
//! gate and witness iterates. The rest of the layout mirrors the paper:
//!
//! | Module | Paper section |
//! |---|---|
//! | [`catalog`] | the kernel list of Fig. 9/10 and Table III |
//! | [`hp`] | §III-A Algorithms 3–4, §III-B DTP + HVMA |
//! | [`baselines`] | §IV-A2 (cuSPARSE, GE-SpMM, Row-split, Merge-path, ASpT, Sputnik, Huang, DGL-SDDMM, TC-GNN) |
//! | [`numerics`] | the three accumulation orders of the simulated kernels |
//! | [`traits`] | the `SpmmKernel` / `SddmmKernel` interfaces |

#![forbid(unsafe_code)]

pub mod baselines;
pub mod catalog;
pub mod hp;
pub mod mutants;
pub mod numerics;
pub mod traits;

pub use traits::{KernelCost, Launches, SddmmKernel, SddmmRun, SpmmKernel, SpmmRun};
