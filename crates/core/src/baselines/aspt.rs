//! ASpT — Adaptive Sparse Tiling (Hong et al., PPoPP'19).
//!
//! ASpT reorders and partitions the sparse matrix into *dense* panels
//! (processed with shared-memory reuse) and *sparse* leftovers (processed
//! CSR-style). The reordering/tiling analysis is a heavyweight
//! preprocessing step over every non-zero; execution gets better locality
//! than plain row-per-warp but keeps node-granular imbalance within each
//! panel.

use crate::baselines::common::{
    emit_row_warp_launch, host_pass_report, merge_reports, row_warp_cost, split_row_tasks,
    RowTaskKind, RowWarpSpec,
};
use crate::numerics::{segment_sums, Cut};
use crate::traits::{KernelCost, SpmmKernel};
use hpsparse_sim::{
    Distinct, GpuSim, KernelResources, LaunchConfig, PlanBuilder, SymBufferRole, SymExpr,
    SymbolicPlan,
};
use hpsparse_sparse::{Dense, FormatError, Hybrid};

/// ASpT: adaptive 2-D tiling with dense/sparse panel split.
#[derive(Debug, Clone, Copy)]
pub struct Aspt {
    /// Row-segment bound inside a panel.
    pub panel_rows: usize,
}

impl Default for Aspt {
    fn default() -> Self {
        Self { panel_rows: 256 }
    }
}

impl Aspt {
    fn spec() -> RowWarpSpec {
        RowWarpSpec {
            vector_width: 2,
            shared_tile: true,
            registers_per_thread: 40,
            shared_mem_per_block: 4 * 32 * 4 * 8,
            ..Default::default()
        }
    }
}

impl SpmmKernel for Aspt {
    fn name(&self) -> &'static str {
        "ASpT"
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        let csr = s.to_csr();
        let nnz = s.nnz();

        // Preprocessing = host tiling analysis over every nnz plus a GPU
        // pass that rewrites the matrix into the DCSR panel layout.
        let host = host_pass_report(sim.device(), nnz as u64, 3.0);
        let src = sim.alloc_input(nnz * 2, "csr_arrays");
        let dst = sim.alloc_scratch(nnz * 2, "panel_arrays");
        let total = nnz as u64 * 2;
        // Scatter stride: large for panel-order spreading, forced coprime
        // with the element count so the permutation is collision-free (two
        // lanes never write the same slot).
        let mut stride = 977u64;
        while total > 0 && gcd(stride, total) != 1 {
            stride -= 1;
        }
        let rewrite = sim.launch_named(
            "ASpT rewrite",
            LaunchConfig {
                num_warps: (nnz as u64).div_ceil(32).max(1),
                resources: KernelResources {
                    warps_per_block: 8,
                    registers_per_thread: 24,
                    shared_mem_per_block: 0,
                },
            },
            |warp_id, tally| {
                let base = warp_id * 32;
                let lanes = total.saturating_sub(base).min(32);
                if lanes == 0 {
                    return;
                }
                tally.global_read(src.elem_addr(base, 4), lanes * 4, 1);
                // Scattered stores into panel order: each lane deposits its
                // element at its permuted position.
                tally.global_scatter(
                    (0..lanes).map(|lane| dst.elem_addr((base + lane) * stride % total, 4)),
                    4,
                );
            },
        );
        let preprocess = merge_reports(&host, &rewrite);

        // Execution: panel-bounded row segments with shared-memory reuse
        // and moderately vectorized loads.
        let tasks = split_row_tasks(&csr, self.panel_rows);
        Ok(KernelCost {
            report: row_warp_cost(self.name(), sim, &csr, k, &tasks, &Self::spec()),
            preprocess: Some(preprocess),
        })
    }

    fn accumulate(&self, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
        segment_sums(s, a, Cut::PerRow(self.panel_rows))
    }

    fn symbolic_plans(&self) -> Vec<SymbolicPlan> {
        let mut b = PlanBuilder::new(self.name(), &format!("panel={}", self.panel_rows));
        let m = b.param("m", 1);
        let n = b.param("n", 1);
        let nnz = b.param("nnz", 1);
        let k = b.param("k", 1);
        let total = nnz.clone() * SymExpr::Const(2);
        let src = b.buffer("csr_arrays", SymBufferRole::Input, total.clone());
        let dst = b.buffer("panel_arrays", SymBufferRole::Scratch, total.clone());

        let mut l = b.launch("rewrite");
        let w = l.axis("w", nnz.clone().ceil_div(32));
        let base = w * SymExpr::Const(32);
        let lanes = SymExpr::Const(32).min(total.clone() - base.clone());
        l.read(src, base, lanes.clone());
        // The scatter stride is coprime with the element count, so the
        // permuted positions are globally collision-free.
        l.begin_for("lane", lanes);
        let p = l.data(
            "p",
            SymExpr::Const(0),
            total - SymExpr::Const(1),
            Distinct::Global,
            0,
        );
        l.write(dst, p, 1);
        l.end_for();
        l.done();

        emit_row_warp_launch(
            &mut b,
            "exec",
            &Self::spec(),
            RowTaskKind::Split,
            &m,
            &n,
            &nnz,
            &k,
        );
        vec![b.build()]
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_sim::DeviceSpec;
    use hpsparse_sparse::reference;

    #[test]
    fn matches_reference() {
        let triplets: Vec<(u32, u32, f32)> = (0..4000u32)
            .map(|i| ((i * 3) % 400, (i * 11) % 400, ((i % 9) as f32) - 4.0))
            .collect();
        let s = Hybrid::from_triplets(400, 400, &triplets).unwrap();
        let a = Dense::from_fn(400, 64, |i, j| ((i * 64 + j) as f32 * 1e-3).sin());
        let expected = reference::spmm(&s, &a).unwrap();
        let run = Aspt::default().run(&DeviceSpec::v100(), &s, &a).unwrap();
        assert!(run.output.approx_eq(&expected, 1e-4, 1e-5));
    }

    #[test]
    fn preprocessing_is_reported_and_heavy() {
        let triplets: Vec<(u32, u32, f32)> = (0..50_000u32)
            .map(|i| (i % 1000, (i * 13) % 1000, 1.0))
            .collect();
        let s = Hybrid::from_triplets(1000, 1000, &triplets).unwrap();
        let a = Dense::from_fn(1000, 64, |i, j| (i + j) as f32);
        let run = Aspt::default().run(&DeviceSpec::a30(), &s, &a).unwrap();
        let pre = run.preprocess.unwrap();
        // Table IV: ASpT preprocessing is a multiple of its execution.
        assert!(
            pre.cycles > run.report.cycles,
            "pre {} vs exec {}",
            pre.cycles,
            run.report.cycles
        );
    }
}
