//! Kernel interfaces shared by HP kernels and all baselines. The kernels
//! themselves are listed once, in [`crate::catalog`], whose
//! [`Kernel`](crate::catalog::Kernel) dispatches over these traits.
//!
//! # A kernel is a cost walk plus an accumulation order
//!
//! Every simulated kernel is two independent things, and the traits keep
//! them apart:
//!
//! * a **cost walk** ([`SpmmKernel::cost_on`], [`SddmmKernel::cost_on`],
//!   [`HpFusedMha::cost_on`](crate::hp::HpFusedMha::cost_on)) — the
//!   kernel's allocations and its `launch_named` closures, which make tally
//!   calls and nothing else. It sees the sparse operand and the feature
//!   width `k`, never a feature matrix, so it cannot compute a float by
//!   construction. A cost walk may read `RowInd` / `ColInd` / offsets
//!   (addresses, row switches and row-aligned tilings are data-dependent);
//!   it may not read `Value`s or a `Dense`, write an output, or skip an
//!   allocation the full kernel makes — `O` / `S_O` are still allocated,
//!   because every later buffer's address, and so its alignment class and
//!   L2 set, depends on them.
//! * an **accumulation order** — which floats are added to which, in what
//!   sequence. It is executed once per run, K-wide, outside the launch, by
//!   one of the routines in [`crate::numerics`] (segment sums for the
//!   chunked and row-per-warp SpMMs, element order for the per-element
//!   atomics kernels, one masked dot for every SDDMM, and their composition
//!   through a row softmax for fused attention); blocked-ELL keeps its
//!   format's own SpMM. The order is part of the kernel's contract: outputs
//!   are `to_bits`-stable across builds and thread counts
//!   (`tests/kernel_consistency.rs` records them).
//!
//! `run_on` is the two together. Callers that only read a
//! [`LaunchReport`] — the planner's one measure path, the experiment
//! sweeps — call the cost walk alone; its [`KernelCost`] (the fused
//! kernel's [`Launches`]) equals the launches of a full run on the same
//! simulator state, observed or not (proptested in
//! `crates/core/tests/cost_walk.rs`). A caller that sums launches reads
//! [`Launches`], whose [`price`](Launches::price) is the one rule for
//! what a sparse launch costs end to end.

use crate::numerics;
use hpsparse_sim::{DeviceSpec, GpuSim, LaunchReport, SymbolicPlan};
use hpsparse_sparse::{Dense, FormatError, Hybrid};

/// What a cost walk reports: the launch profiles of a run, without its
/// floats.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCost {
    /// Profile of the execution launch.
    pub report: LaunchReport,
    /// Profile of the preprocessing launch, for kernels that need one.
    pub preprocess: Option<LaunchReport>,
}

/// Fixed per-launch host overhead (CUDA API + runtime) the end-to-end model
/// charges every execution launch, ≈ 3.5 µs at V100 clocks. It keeps tiny
/// sampled-subgraph iterations from showing implausible kernel-swap
/// speedups, and it is what makes the unfused attention pipeline's three
/// launches per head expensive on small graphs. [`Launches::price`] is the
/// one place a sparse launch pays it.
pub const LAUNCH_OVERHEAD_CYCLES: u64 = 5_000;

/// Every launch of one cost walk, whatever the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Launches {
    /// The preprocessing launch, for kernels that need one.
    pub preprocess: Option<LaunchReport>,
    /// The execution launches in launch order: one for SpMM / SDDMM; the
    /// fused kernel's main launch, then its spill score/apply pair when a
    /// row overflowed the shared tile (none at all on an empty matrix).
    pub exec: Vec<LaunchReport>,
}

impl Launches {
    /// Cycles of the execution launches, preprocessing excluded.
    pub fn exec_cycles(&self) -> u64 {
        self.exec.iter().map(|r| r.cycles).sum()
    }

    /// Execution plus preprocessing cycles — what a planner compares.
    pub fn cycles(&self) -> u64 {
        self.exec_cycles() + self.preprocess.as_ref().map_or(0, |p| p.cycles)
    }

    /// What running the launches costs end to end: their
    /// [`cycles`](Self::cycles) plus [`LAUNCH_OVERHEAD_CYCLES`] per
    /// execution launch. Preprocessing pays no overhead of its own.
    pub fn price(&self) -> u64 {
        self.cycles() + self.exec.len() as u64 * LAUNCH_OVERHEAD_CYCLES
    }

    /// Execution time in milliseconds, preprocessing excluded — the
    /// paper's measurement convention for Fig. 9/10.
    pub fn exec_ms(&self) -> f64 {
        self.exec.iter().map(|r| r.time_ms).sum()
    }

    /// DRAM traffic of the execution launches, in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.exec.iter().map(LaunchReport::dram_bytes).sum()
    }
}

impl From<KernelCost> for Launches {
    fn from(cost: KernelCost) -> Self {
        Self {
            preprocess: cost.preprocess,
            exec: vec![cost.report],
        }
    }
}

/// Result of running an SpMM kernel on the simulator.
#[derive(Debug, Clone)]
pub struct SpmmRun {
    /// The computed dense output `O = S · A` (real numerics, validated
    /// against the sequential reference in tests).
    pub output: Dense,
    /// Profile of the execution launch.
    pub report: LaunchReport,
    /// Profile of the preprocessing launch, for kernels that need one
    /// (Merge-path, Sputnik, ASpT, Huang's method). `None` for
    /// preprocessing-free kernels like HP-SpMM — the property §II argues is
    /// essential for dynamic GNN computing.
    pub preprocess: Option<LaunchReport>,
}

impl SpmmRun {
    /// The run without its floats: what the cost walk alone reports.
    pub fn into_cost(self) -> KernelCost {
        KernelCost {
            report: self.report,
            preprocess: self.preprocess,
        }
    }
}

/// Result of running an SDDMM kernel on the simulator.
#[derive(Debug, Clone)]
pub struct SddmmRun {
    /// Output values aligned with the input's element order:
    /// `S_O = (A1 · A2) ⊙ S`.
    pub output_values: Vec<f32>,
    /// Profile of the execution launch.
    pub report: LaunchReport,
    /// Preprocessing profile, when the kernel requires one.
    pub preprocess: Option<LaunchReport>,
}

impl SddmmRun {
    /// The run without its floats: what the cost walk alone reports.
    pub fn into_cost(self) -> KernelCost {
        KernelCost {
            report: self.report,
            preprocess: self.preprocess,
        }
    }
}

/// A simulated SpMM kernel: computes `O = S · A` with `S` in hybrid
/// CSR/COO form (kernels that natively want CSR re-encode internally and
/// account that as preprocessing or as part of execution, matching how the
/// paper treats each baseline).
///
/// Kernels are `Send + Sync` so contender sets (`Vec<Box<dyn SpmmKernel>>`)
/// can be shared across the parallel experiment runners; every
/// implementation is stateless configuration, so this costs nothing.
pub trait SpmmKernel: Send + Sync {
    /// Kernel name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// The cost walk: describes the kernel's traffic for `s` at feature
    /// width `k` to an existing simulator (persistent L2 across launches)
    /// and returns the launch profiles. Computes no float.
    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError>;

    /// The accumulation order: `O = S·A` with the floats added in the
    /// sequence this kernel's warps would add them. Touches no simulator.
    fn accumulate(&self, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError>;

    /// Runs on an existing simulator: cost walk, then accumulation.
    fn run_on(&self, sim: &mut GpuSim, s: &Hybrid, a: &Dense) -> Result<SpmmRun, FormatError> {
        check_spmm_dims(s, a)?;
        let KernelCost { report, preprocess } = self.cost_on(sim, s, a.cols())?;
        Ok(SpmmRun {
            output: self.accumulate(s, a)?,
            report,
            preprocess,
        })
    }

    /// Convenience: runs on a fresh, cold-cache simulator for `device`.
    fn run(&self, device: &DeviceSpec, s: &Hybrid, a: &Dense) -> Result<SpmmRun, FormatError> {
        let mut sim = GpuSim::new(device.clone());
        self.run_on(&mut sim, s, a)
    }

    /// Convenience: the cost walk on a fresh, cold-cache simulator.
    fn cost(&self, device: &DeviceSpec, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        self.cost_on(&mut GpuSim::new(device.clone()), s, k)
    }

    /// Symbolic descriptor plans for `hpsparse-verify`, one per
    /// configuration the kernel may pick at runtime (e.g. a runtime-`K`
    /// vector-width switch emits one plan per width). The kernel's concrete
    /// configuration is baked in; the problem shape stays symbolic. An
    /// empty vector means the kernel has no symbolic model yet and the
    /// verifier reports `Unknown` (the dynamic sanitizer is then the only judge).
    fn symbolic_plans(&self) -> Vec<SymbolicPlan> {
        Vec::new()
    }
}

/// A simulated SDDMM kernel: computes `S_O = (A1 · A2) ⊙ S`. `a1` is
/// `M × K` and `a2t` is the *transposed* second operand (`N × K`
/// row-major), the layout Algorithm 4 reads.
///
/// `Send + Sync` for the same reason as [`SpmmKernel`].
pub trait SddmmKernel: Send + Sync {
    /// Kernel name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// The cost walk: describes the kernel's traffic for `s` at feature
    /// width `k` to an existing simulator and returns the launch profiles.
    /// Computes no float.
    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError>;

    /// Runs on an existing simulator: cost walk, then the masked dot every
    /// SDDMM kernel shares ([`numerics::masked_dots`]).
    fn run_on(
        &self,
        sim: &mut GpuSim,
        s: &Hybrid,
        a1: &Dense,
        a2t: &Dense,
    ) -> Result<SddmmRun, FormatError> {
        check_sddmm_dims(s, a1, a2t)?;
        let KernelCost { report, preprocess } = self.cost_on(sim, s, a1.cols())?;
        Ok(SddmmRun {
            output_values: numerics::masked_dots(s, a1, a2t)?,
            report,
            preprocess,
        })
    }

    /// Convenience: runs on a fresh, cold-cache simulator for `device`.
    fn run(
        &self,
        device: &DeviceSpec,
        s: &Hybrid,
        a1: &Dense,
        a2t: &Dense,
    ) -> Result<SddmmRun, FormatError> {
        let mut sim = GpuSim::new(device.clone());
        self.run_on(&mut sim, s, a1, a2t)
    }

    /// Convenience: the cost walk on a fresh, cold-cache simulator.
    fn cost(&self, device: &DeviceSpec, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        self.cost_on(&mut GpuSim::new(device.clone()), s, k)
    }

    /// Symbolic descriptor plans for `hpsparse-verify`; see
    /// [`SpmmKernel::symbolic_plans`].
    fn symbolic_plans(&self) -> Vec<SymbolicPlan> {
        Vec::new()
    }
}

/// Validates SpMM operand shapes; shared by every kernel implementation.
pub fn check_spmm_dims(s: &Hybrid, a: &Dense) -> Result<(), FormatError> {
    if s.cols() != a.rows() {
        return Err(FormatError::DimensionMismatch {
            context: "spmm: S.cols != A.rows",
        });
    }
    Ok(())
}

/// Validates SDDMM operand shapes (with `a2t` transposed).
pub fn check_sddmm_dims(s: &Hybrid, a1: &Dense, a2t: &Dense) -> Result<(), FormatError> {
    if a1.rows() != s.rows() {
        return Err(FormatError::DimensionMismatch {
            context: "sddmm: A1.rows != S.rows",
        });
    }
    if a2t.rows() != s.cols() {
        return Err(FormatError::DimensionMismatch {
            context: "sddmm: A2T.rows != S.cols",
        });
    }
    if a1.cols() != a2t.cols() {
        return Err(FormatError::DimensionMismatch {
            context: "sddmm: A1.cols != A2T.cols",
        });
    }
    Ok(())
}

/// Validates multi-head attention operand shapes: one or more heads, the
/// same count for `Q`/`K`/`V`, one non-zero head dimension throughout.
pub fn check_mha_dims(
    s: &Hybrid,
    q: &[Dense],
    k: &[Dense],
    v: &[Dense],
) -> Result<(), FormatError> {
    if q.is_empty() || q.len() != k.len() || q.len() != v.len() {
        return Err(FormatError::DimensionMismatch {
            context: "fused-mha: head counts of Q/K/V differ or are zero",
        });
    }
    let d = q[0].cols();
    for h in 0..q.len() {
        if q[h].rows() != s.rows() {
            return Err(FormatError::DimensionMismatch {
                context: "fused-mha: Q.rows != S.rows",
            });
        }
        if k[h].rows() != s.cols() || v[h].rows() != s.cols() {
            return Err(FormatError::DimensionMismatch {
                context: "fused-mha: K.rows/V.rows != S.cols",
            });
        }
        if q[h].cols() != d || k[h].cols() != d || v[h].cols() != d || d == 0 {
            return Err(FormatError::DimensionMismatch {
                context: "fused-mha: head dims differ or are zero",
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_checks_accept_valid_shapes() {
        let s = Hybrid::from_triplets(3, 4, &[(0, 1, 1.0)]).unwrap();
        assert!(check_spmm_dims(&s, &Dense::zeros(4, 8)).is_ok());
        assert!(check_spmm_dims(&s, &Dense::zeros(3, 8)).is_err());
        assert!(check_sddmm_dims(&s, &Dense::zeros(3, 8), &Dense::zeros(4, 8)).is_ok());
        assert!(check_sddmm_dims(&s, &Dense::zeros(4, 8), &Dense::zeros(4, 8)).is_err());
        assert!(check_sddmm_dims(&s, &Dense::zeros(3, 8), &Dense::zeros(3, 8)).is_err());
        assert!(check_sddmm_dims(&s, &Dense::zeros(3, 8), &Dense::zeros(4, 7)).is_err());
    }
}
