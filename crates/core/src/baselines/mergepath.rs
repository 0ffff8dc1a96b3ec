//! Merge-path SpMM (Yang, Buluç, Owens — Euro-Par'18; after Merrill &
//! Garland's merge-based SpMV).
//!
//! Load balance is achieved by *preprocessing*: a binary-search pass
//! partitions the (RowOffset ∪ element) merge list into equal segments and
//! materialises each segment's starting row into an auxiliary array. The
//! execution phase is then as balanced as HP-SpMM's — which is exactly the
//! paper's point: the balance is bought with a preprocessing launch that
//! dynamic graph-sampling workloads cannot amortise (Table IV).

use crate::hp::config::HpConfig;
use crate::hp::spmm::{emit_hp_spmm_launch, HpSpmm};
use crate::traits::{KernelCost, SpmmKernel};
use hpsparse_sim::{
    Distinct, GpuSim, KernelResources, LaunchConfig, PlanBuilder, SymBufferRole, SymExpr,
};
use hpsparse_sparse::{Dense, FormatError, Hybrid};

/// Merge-path: balanced chunks via binary-search preprocessing.
#[derive(Debug, Clone, Copy)]
pub struct MergePath {
    /// Elements per balanced segment (the original uses the block size).
    pub items_per_segment: usize,
}

impl Default for MergePath {
    fn default() -> Self {
        Self {
            items_per_segment: 256,
        }
    }
}

impl MergePath {
    /// The execution phase: the HP skeleton at the segment size, scalar
    /// loads.
    fn exec(&self) -> HpSpmm {
        HpSpmm::new(HpConfig {
            nnz_per_warp: self.items_per_segment,
            vector_width: 1,
            warps_per_block: 8,
            alpha: 1.0,
        })
    }
}

impl SpmmKernel for MergePath {
    fn name(&self) -> &'static str {
        "Merge-path"
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        let m = s.rows();
        let nnz = s.nnz();
        let segments = nnz.div_ceil(self.items_per_segment).max(1) as u64;
        let off_buf = sim.alloc_input(m + 1, "row_offsets");
        let seg_buf = sim.alloc_scratch(segments as usize, "segment_rows");
        let log_m = (usize::BITS - m.max(2).leading_zeros()) as u64;

        // Preprocessing: one binary search over RowOffset per segment.
        let preprocess = sim.launch_named(
            "Merge-path partition",
            LaunchConfig {
                num_warps: segments.div_ceil(32).max(1),
                resources: KernelResources {
                    warps_per_block: 8,
                    registers_per_thread: 24,
                    shared_mem_per_block: 0,
                },
            },
            |warp_id, tally| {
                for step in 0..log_m {
                    tally.global_gather(
                        (0..32u64).map(|lane| {
                            let probe =
                                ((warp_id * 32 + lane) * 6151 + step * 3079) % (m as u64 + 1);
                            off_buf.elem_addr(probe, 4)
                        }),
                        4,
                    );
                    tally.compute(2);
                }
                // The last warp's block of 32 segment entries may run past
                // `segments`; clamp the store to the real extent.
                let first = warp_id * 32;
                let lanes = segments.saturating_sub(first).min(32);
                tally.global_write(seg_buf.elem_addr(first, 4), lanes * 4, 1);
            },
        );

        // Execution: balanced element chunks, scalar loads, reading the
        // per-segment row index from the auxiliary array (modelled by the
        // hybrid row-index reads the HP skeleton already performs —
        // identical traffic shape).
        let exec = self.exec().cost_on(sim, s, k)?;

        Ok(KernelCost {
            report: exec.report,
            preprocess: Some(preprocess),
        })
    }

    fn accumulate(&self, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
        self.exec().accumulate(s, a)
    }

    fn symbolic_plans(&self) -> Vec<hpsparse_sim::SymbolicPlan> {
        let seg = self.items_per_segment.max(1) as i64;
        let mut b = PlanBuilder::new(self.name(), &format!("seg={seg}"));
        let m = b.param("m", 1);
        let n = b.param("n", 1);
        let nnz = b.param("nnz", 1);
        let k = b.param("k", 1);
        // Binary-search depth: safety depends only on the probe target.
        let log_m = b.param("log_m", 1);
        let segments = nnz.clone().ceil_div(seg);
        let off_buf = b.buffer(
            "row_offsets",
            SymBufferRole::Input,
            m.clone() + SymExpr::Const(1),
        );
        let seg_buf = b.buffer("segment_rows", SymBufferRole::Scratch, segments.clone());

        let mut l = b.launch("partition");
        let w = l.axis("w", segments.clone().ceil_div(32));
        l.begin_for("step", log_m);
        let probe = l.data("probe", SymExpr::Const(0), m.clone(), Distinct::No, 0);
        l.read(off_buf, probe, 1);
        l.end_for();
        // The last warp's store is clamped to the real extent.
        let first = w * SymExpr::Const(32);
        l.write(
            seg_buf,
            first.clone(),
            SymExpr::Const(32).min(segments - first),
        );
        l.done();

        // The execution phase reuses the HP skeleton at the segment size.
        emit_hp_spmm_launch(&mut b, "exec", self.exec().config, &m, &n, &nnz, &k);
        vec![b.build()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_sim::DeviceSpec;
    use hpsparse_sparse::reference;

    #[test]
    fn matches_reference_and_reports_preprocessing() {
        let triplets: Vec<(u32, u32, f32)> = (0..3000u32)
            .map(|i| ((i / 10) % 300, (i * 13) % 300, (i % 7) as f32 - 3.0))
            .collect();
        let s = Hybrid::from_triplets(300, 300, &triplets).unwrap();
        let a = Dense::from_fn(300, 32, |i, j| ((i + 2 * j) as f32 * 0.01).cos());
        let expected = reference::spmm(&s, &a).unwrap();
        let run = MergePath::default()
            .run(&DeviceSpec::v100(), &s, &a)
            .unwrap();
        assert!(run.output.approx_eq(&expected, 1e-4, 1e-5));
        let pre = run
            .preprocess
            .expect("merge-path must report preprocessing");
        assert!(pre.cycles > 0);
        assert!(run.report.cycles > 0);
    }

    #[test]
    fn preprocessing_scales_with_nnz() {
        let small: Vec<(u32, u32, f32)> = (0..1000u32)
            .map(|i| (i % 100, (i * 3) % 100, 1.0))
            .collect();
        let large: Vec<(u32, u32, f32)> = (0..20_000u32)
            .map(|i| (i % 100, (i * 3 + i / 100) % 100, 1.0))
            .collect();
        let s1 = Hybrid::from_triplets(100, 100, &small).unwrap();
        let s2 = Hybrid::from_triplets(100, 100, &large).unwrap();
        let a = Dense::from_fn(100, 32, |i, j| (i + j) as f32);
        let v100 = DeviceSpec::v100();
        let r1 = MergePath::default().run(&v100, &s1, &a).unwrap();
        let r2 = MergePath::default().run(&v100, &s2, &a).unwrap();
        assert!(
            r2.preprocess.unwrap().cycles >= r1.preprocess.unwrap().cycles,
            "preprocessing should grow with segment count"
        );
    }
}
