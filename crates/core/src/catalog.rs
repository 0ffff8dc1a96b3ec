//! The kernel catalogue: the one list of the sixteen kernels the paper's
//! figures are joins over.
//!
//! Every sweep, gate and witness that says "every kernel" iterates
//! [`KERNELS`]; nothing else assembles the list. A [`Row`] names a kernel
//! and says how to build it — configured for an input ([`Row::auto`]) or at
//! every configuration a planner may pick ([`Row::planner_variants`]) — and
//! a built [`Kernel`] answers the three questions all sixteen share: its
//! paper name, its symbolic plans, and its cost walk. A caller that needs
//! floats matches on the variant and calls that kernel's own `run_on`.

use crate::baselines::{sddmm_by_id, spmm_by_id};
use crate::hp::config::{DEFAULT_ALPHA, NNZ_PER_WARP_CANDIDATES, WARPS_PER_BLOCK};
use crate::hp::{HpConfig, HpFusedMha, HpSddmm, HpSpmm};
use crate::traits::{KernelCost, SddmmKernel, SpmmKernel};
use hpsparse_sim::{DeviceSpec, GpuSim, LaunchReport, SymbolicPlan};
use hpsparse_sparse::{FormatError, Hybrid};

/// Attention heads the fused kernel is walked with when it stands in a
/// sweep beside the single-operand kernels: two, so the multi-head indexing
/// and the shared-tile / spill split are both exercised.
pub const HEADS: usize = 2;

/// The operation a catalogue kernel computes — and a plan is for: the
/// autotuner keys its plans by it, as plans for one matrix differ between
/// operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// `O = S · A`.
    Spmm,
    /// `S_O = (A1 · A2) ⊙ S`.
    Sddmm,
    /// Fused SDDMM → row softmax → SpMM multi-head attention.
    FusedMha,
}

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

impl From<KernelCost> for Launches {
    fn from(cost: KernelCost) -> Self {
        Self {
            preprocess: cost.preprocess,
            exec: vec![cost.report],
        }
    }
}

/// A built catalogue kernel.
pub enum Kernel {
    /// An SpMM kernel.
    Spmm(Box<dyn SpmmKernel>),
    /// An SDDMM kernel.
    Sddmm(Box<dyn SddmmKernel>),
    /// The fused attention kernel.
    FusedMha(HpFusedMha),
}

impl Kernel {
    /// Kernel name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Spmm(kernel) => kernel.name(),
            Kernel::Sddmm(kernel) => kernel.name(),
            Kernel::FusedMha(kernel) => kernel.name(),
        }
    }

    /// Symbolic descriptor plans of this instance, for `hpsparse-verify`.
    pub fn symbolic_plans(&self) -> Vec<SymbolicPlan> {
        match self {
            Kernel::Spmm(kernel) => kernel.symbolic_plans(),
            Kernel::Sddmm(kernel) => kernel.symbolic_plans(),
            Kernel::FusedMha(kernel) => kernel.symbolic_plans(),
        }
    }

    /// The cost walk for `s` at feature width `k` on an existing simulator.
    /// The fused kernel takes `k` as its head dimension, at [`HEADS`] heads.
    pub fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<Launches, FormatError> {
        match self {
            Kernel::Spmm(kernel) => kernel.cost_on(sim, s, k).map(Launches::from),
            Kernel::Sddmm(kernel) => kernel.cost_on(sim, s, k).map(Launches::from),
            Kernel::FusedMha(kernel) => kernel.cost_on(sim, s, k, HEADS).map(|cost| Launches {
                preprocess: None,
                exec: cost.reports,
            }),
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Stable id: `hp-spmm` / `hp-sddmm` / `hp-fused-mha`, or the registry
    /// id of a baseline.
    pub id: &'static str,
    /// What the kernel computes.
    pub op: Op,
    /// Whether the paper's Fig. 9 / Fig. 10 compare HP against it.
    pub contender: bool,
}

const fn row(id: &'static str, op: Op, contender: bool) -> Row {
    Row { id, op, contender }
}

/// The sixteen kernels: ours first within each operation, then that
/// operation's baselines in registry order.
pub const KERNELS: [Row; 16] = [
    row("hp-spmm", Op::Spmm, false),
    row("cusparse-csr-alg2", Op::Spmm, true),
    row("cusparse-csr-alg3", Op::Spmm, true),
    row("cusparse-coo-alg4", Op::Spmm, true),
    row("gespmm", Op::Spmm, true),
    row("row-split", Op::Spmm, true),
    row("merge-path", Op::Spmm, false),
    row("aspt", Op::Spmm, false),
    row("sputnik", Op::Spmm, false),
    row("huang", Op::Spmm, false),
    row("tcgnn", Op::Spmm, false),
    row("cusparse-blocked-ell", Op::Spmm, false),
    row("hp-sddmm", Op::Sddmm, false),
    row("dgl-sddmm", Op::Sddmm, true),
    row("cusparse-csr-sddmm", Op::Sddmm, true),
    row("hp-fused-mha", Op::FusedMha, false),
];

/// The catalogue row with this id.
pub fn by_id(id: &str) -> Option<&'static Row> {
    KERNELS.iter().find(|row| row.id == id)
}

impl Row {
    /// A baseline row's kernel: the registry's default instance.
    fn baseline(&self) -> Kernel {
        spmm_by_id(self.id)
            .map(Kernel::Spmm)
            .or_else(|| sddmm_by_id(self.id).map(Kernel::Sddmm))
            .expect("a catalogue id that is not an HP kernel's is a registry id")
    }

    /// The kernel as the experiments run it on `s` at feature width `k`:
    /// HP rows take the paper's selection rule for the input, a baseline
    /// configures itself and ignores the arguments.
    pub fn auto(&self, device: &DeviceSpec, s: &Hybrid, k: usize) -> Kernel {
        match self.id {
            "hp-spmm" => Kernel::Spmm(Box::new(HpSpmm::auto(device, s, k))),
            "hp-sddmm" => Kernel::Sddmm(Box::new(HpSddmm::auto(device, s, k))),
            "hp-fused-mha" => Kernel::FusedMha(HpFusedMha::auto(device, s, k)),
            _ => self.baseline(),
        }
    }

    /// Every instance a planner may pick — what a static gate must prove.
    /// HP rows: each `NnzPerWarp` candidate at each vector width; a
    /// baseline: its one default instance.
    pub fn planner_variants(&self) -> Vec<Kernel> {
        let at: fn(HpConfig) -> Kernel = match self.id {
            "hp-spmm" => |config| Kernel::Spmm(Box::new(HpSpmm::new(config))),
            "hp-sddmm" => |config| Kernel::Sddmm(Box::new(HpSddmm::new(config))),
            "hp-fused-mha" => |config| Kernel::FusedMha(HpFusedMha::new(config)),
            _ => return vec![self.baseline()],
        };
        let configs = NNZ_PER_WARP_CANDIDATES.iter().flat_map(|&nnz_per_warp| {
            [1, 2, 4].map(|vector_width| HpConfig {
                nnz_per_warp,
                vector_width,
                warps_per_block: WARPS_PER_BLOCK,
                alpha: DEFAULT_ALPHA,
            })
        });
        configs.map(at).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{SDDMM_IDS, SPMM_IDS};

    #[test]
    fn rows_build_the_operation_they_declare() {
        let device = DeviceSpec::v100();
        let s = Hybrid::from_triplets(4, 4, &[(0, 1, 1.0), (3, 2, 2.0)]).unwrap();
        for row in &KERNELS {
            let variants = row.planner_variants();
            let hp = row.id.starts_with("hp-");
            assert_eq!(variants.len(), if hp { 18 } else { 1 }, "{}", row.id);
            for kernel in variants.iter().chain([&row.auto(&device, &s, 32)]) {
                let op = match kernel {
                    Kernel::Spmm(_) => Op::Spmm,
                    Kernel::Sddmm(_) => Op::Sddmm,
                    Kernel::FusedMha(_) => Op::FusedMha,
                };
                assert_eq!(op, row.op, "{}", row.id);
                assert!(!kernel.symbolic_plans().is_empty(), "{}", row.id);
            }
            assert_eq!(by_id(row.id), Some(row));
        }
        assert!(by_id("no-such-kernel").is_none());
    }

    #[test]
    fn contenders_are_the_papers_fig9_set() {
        let ids = |op| {
            let rows = KERNELS.iter().filter(move |r| r.op == op && r.contender);
            rows.map(|r| r.id).collect::<Vec<_>>()
        };
        assert_eq!(ids(Op::Spmm), SPMM_IDS[..5]);
        assert_eq!(ids(Op::Sddmm), SDDMM_IDS);
        assert!(ids(Op::FusedMha).is_empty());
    }
}
