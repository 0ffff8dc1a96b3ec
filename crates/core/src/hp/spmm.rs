//! HP-SpMM — Algorithm 3 of the paper.
//!
//! Work assignment: every warp receives exactly `NnzPerWarp` consecutive
//! elements of the hybrid CSR/COO arrays, regardless of row boundaries
//! (the hybrid-parallel strategy of §III-A). Threads cooperatively stage a
//! tile of `RowInd`/`ColInd`/`Value` in shared memory, then walk it
//! element-by-element: each element triggers one coalesced, vectorized read
//! of the corresponding `A` row segment and a fused multiply-add into
//! per-lane accumulator registers. A *row-switch procedure* flushes the
//! accumulators to `O` with an atomic add only when the element's row
//! differs from the current one — so a warp whose chunk sits inside one
//! long row writes global memory exactly once.

use crate::hp::config::HpConfig;
use crate::numerics::{segment_sums, Cut};
use crate::traits::{KernelCost, SpmmKernel};
use hpsparse_sim::{
    DeviceSpec, Distinct, GpuSim, LaunchConfig, LaunchReport, PlanBuilder, SymBufferRole, SymExpr,
    SymbolicPlan,
};
use hpsparse_sparse::{Dense, FormatError, Hybrid};

/// The hybrid-parallel SpMM kernel.
#[derive(Debug, Clone, Copy)]
pub struct HpSpmm {
    /// Launch parameters (usually from [`HpConfig::auto`]).
    pub config: HpConfig,
}

impl HpSpmm {
    /// Builds the kernel with an explicit configuration (ablations).
    pub fn new(config: HpConfig) -> Self {
        Self { config }
    }

    /// Builds the kernel with DTP + HVMA parameter selection for the given
    /// input shape — the paper's full method.
    pub fn auto(device: &DeviceSpec, s: &Hybrid, k: usize) -> Self {
        Self {
            config: HpConfig::auto(device, s.nnz(), s.rows(), k),
        }
    }
}

impl SpmmKernel for HpSpmm {
    fn name(&self) -> &'static str {
        "HP-SpMM"
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        Ok(KernelCost {
            report: hp_spmm_cost(self.name(), self.config, sim, s, k)?,
            preprocess: None,
        })
    }

    fn accumulate(&self, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
        hp_spmm_accumulate(self.config, s, a)
    }

    fn symbolic_plans(&self) -> Vec<SymbolicPlan> {
        vec![hp_spmm_plan(self.name(), self.config)]
    }
}

/// Emits the Algorithm 3 buffer set and launch into `b` with the given
/// shape expressions (`m` rows, `n` columns of `S` = rows of `A`, `nnz`
/// elements, `k` feature columns). Shared by HP-SpMM and the
/// Merge-path baseline, whose execution phase *is* this kernel.
pub(crate) fn emit_hp_spmm_launch(
    b: &mut PlanBuilder,
    launch_name: &str,
    cfg: HpConfig,
    m: &SymExpr,
    n: &SymExpr,
    nnz: &SymExpr,
    k: &SymExpr,
) {
    let npw = cfg.nnz_per_warp.max(1) as i64;
    let vw = cfg.vector_width as i64;
    let kw = 32 * vw; // feature columns covered per warp
    let te = kw.min(npw); // sparse tile length in elements

    let row_buf = b.buffer("row_ind", SymBufferRole::Input, nnz.clone());
    let col_buf = b.buffer("col_ind", SymBufferRole::Input, nnz.clone());
    let val_buf = b.buffer("values", SymBufferRole::Input, nnz.clone());
    let a_buf = b.buffer("A", SymBufferRole::Input, n.clone() * k.clone());
    let o_buf = b.buffer("O", SymBufferRole::Output, m.clone() * k.clone());

    let mut l = b.launch(launch_name);
    // warp = chunk + num_chunks * kslice, chunk fastest (warp % chunks).
    let chunk = l.axis("chunk", nnz.clone().ceil_div(npw));
    let kslice = l.axis("kslice", k.clone().ceil_div(kw));
    let start = chunk * SymExpr::Const(npw);
    // Chunk length: the final chunk may be short, never empty.
    let len = SymExpr::Const(npw).min(nnz.clone() - start.clone());
    let k_base = kslice * SymExpr::Const(kw);
    let k_width = SymExpr::Const(kw).min(k.clone() - k_base.clone());

    let t = l.begin_for("t", len.clone().ceil_div(te));
    let i = start + t.clone() * SymExpr::Const(te);
    let tile_len = SymExpr::Const(te).min(len - t * SymExpr::Const(te));
    // Cooperative tile load of the three sparse arrays.
    l.read(row_buf, i.clone(), tile_len.clone());
    l.read(col_buf, i.clone(), tile_len.clone());
    l.read(val_buf, i, tile_len.clone());
    // Per-element: gather one A row segment; a row switch may flush the
    // accumulators atomically into O.
    l.begin_for("e", tile_len);
    let c = l.data(
        "c",
        SymExpr::Const(0),
        n.clone() - SymExpr::Const(1),
        Distinct::No,
        0,
    );
    l.read(a_buf, c * k.clone() + k_base.clone(), k_width.clone());
    l.begin_cases();
    l.begin_arm(None); // row switch observed
    let r = l.data(
        "r",
        SymExpr::Const(0),
        m.clone() - SymExpr::Const(1),
        Distinct::No,
        0,
    );
    l.atomic(o_buf, r * k.clone() + k_base.clone(), k_width.clone());
    l.end_arm();
    l.begin_arm(None); // same row: accumulate in registers
    l.end_arm();
    l.end_cases();
    l.end_for();
    l.end_for();
    // Final flush (line 22 of Algorithm 3).
    let rf = l.data(
        "r_final",
        SymExpr::Const(0),
        m.clone() - SymExpr::Const(1),
        Distinct::No,
        0,
    );
    l.atomic(o_buf, rf * k.clone() + k_base, k_width);
    l.done();
}

/// Complete symbolic plan for HP-SpMM at one configuration.
pub(crate) fn hp_spmm_plan(name: &str, cfg: HpConfig) -> SymbolicPlan {
    let mut b = PlanBuilder::new(
        name,
        &format!("npw={},vw={}", cfg.nnz_per_warp.max(1), cfg.vector_width),
    );
    let m = b.param("m", 1);
    let n = b.param("n", 1);
    let nnz = b.param("nnz", 1);
    let k = b.param("k", 1);
    emit_hp_spmm_launch(&mut b, name, cfg, &m, &n, &nnz, &k);
    b.build()
}

/// Algorithm 3's accumulation order: each warp's row-switch procedure
/// flushes one partial sum per same-row run of its `NnzPerWarp` chunk, so
/// the segments are the same-row runs that cross no chunk boundary. The
/// vector width only partitions columns and does not enter.
fn hp_spmm_accumulate(cfg: HpConfig, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
    segment_sums(s, a, Cut::Every(cfg.nnz_per_warp.max(1)))
}

/// Cost walk of Algorithm 3 at feature width `k`; a configuration the
/// device cannot launch is a typed error.
fn hp_spmm_cost(
    name: &'static str,
    cfg: HpConfig,
    sim: &mut GpuSim,
    s: &Hybrid,
    k: usize,
) -> Result<LaunchReport, FormatError> {
    let resources = cfg.check_launchable(name, sim.device(), || cfg.resources(k))?;
    let m = s.rows();
    let nnz = s.nnz();
    let vw = cfg.vector_width;
    let npw = cfg.nnz_per_warp.max(1);
    let tile_elems = (32 * vw as usize).min(npw.max(1));
    let chunks = cfg.num_chunks(nnz);
    let k_cols_per_warp = 32 * vw as usize;

    // Logical device allocations (addresses drive alignment/caching).
    let row_buf = sim.alloc_input(nnz, "row_ind");
    let col_buf = sim.alloc_input(nnz, "col_ind");
    let val_buf = sim.alloc_input(nnz, "values");
    let a_buf = sim.alloc_input(s.cols() * k, "A");
    let o_buf = sim.alloc_output(m * k, "O");

    let row_ind = s.row_indices();
    let col_ind = s.col_indices();

    let launch = LaunchConfig {
        num_warps: cfg.spmm_warps(nnz, k),
        resources,
    };
    Ok(sim.launch_named(name, launch, |warp_id, tally| {
        let chunk = warp_id % chunks.max(1);
        let kslice = warp_id / chunks.max(1);
        let start = chunk as usize * npw;
        let end = (start + npw).min(nnz);
        if start >= end {
            return;
        }
        let k_base = kslice as usize * k_cols_per_warp;
        let k_width = k_cols_per_warp.min(k - k_base);
        // Kernel prologue: index math and bounds checks.
        tally.compute(12);

        let mut cur_row = row_ind[start] as usize;

        let mut i = start;
        while i < end {
            let tile_len = tile_elems.min(end - i);
            // Cooperative tile load of the three sparse arrays
            // (coalesced; vectorized when HVMA aligned the tile).
            for buf in [&row_buf, &col_buf, &val_buf] {
                tally.global_read(buf.elem_addr(i as u64, 4), tile_len as u64 * 4, vw);
            }
            // 3 cooperative shared stores + one broadcast read per
            // element consumed.
            tally.shared_op(3 + tile_len as u64);

            for j in i..i + tile_len {
                let r = row_ind[j] as usize;
                let c = col_ind[j] as usize;
                if r != cur_row {
                    // Row-switch procedure: flush accumulators.
                    tally.global_atomic(
                        o_buf.elem_addr((cur_row * k + k_base) as u64, 4),
                        k_width as u64 * 4,
                    );
                    cur_row = r;
                }
                // Coalesced vectorized read of A[c][k_base..k_base+kw].
                tally.global_read(
                    a_buf.elem_addr((c * k + k_base) as u64, 4),
                    k_width as u64 * 4,
                    vw,
                );
                // One FMA per vector lane register plus loop overhead.
                tally.compute(vw as u64 + 1);
            }
            i += tile_len;
        }
        // Final flush (line 22 of Algorithm 3).
        tally.global_atomic(
            o_buf.elem_addr((cur_row * k + k_base) as u64, 4),
            k_width as u64 * 4,
        );
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_sparse::reference;

    fn fig2() -> Hybrid {
        Hybrid::from_sorted_parts(
            4,
            4,
            vec![0, 0, 1, 2, 2, 2, 3],
            vec![0, 2, 1, 0, 2, 3, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
        )
        .unwrap()
    }

    #[test]
    fn matches_reference_on_fig2() {
        let s = fig2();
        let a = Dense::from_fn(4, 8, |i, j| ((i * 8 + j) as f32).sin());
        let expected = reference::spmm(&s, &a).unwrap();
        let v100 = DeviceSpec::v100();
        let kernel = HpSpmm::auto(&v100, &s, a.cols());
        let run = kernel.run(&v100, &s, &a).unwrap();
        assert!(run.output.approx_eq(&expected, 1e-5, 1e-6));
        assert!(run.report.cycles > 0);
        assert!(run.preprocess.is_none());
    }

    #[test]
    fn chunk_boundary_inside_row_accumulates_atomically() {
        // One long row split across many warps: npw = 2, row 0 has 6 nnz.
        let s = Hybrid::from_triplets(
            2,
            6,
            &[
                (0, 0, 1.0),
                (0, 1, 1.0),
                (0, 2, 1.0),
                (0, 3, 1.0),
                (0, 4, 1.0),
                (0, 5, 1.0),
                (1, 0, 2.0),
            ],
        )
        .unwrap();
        let a = Dense::from_fn(6, 4, |i, _| (i + 1) as f32);
        let cfg = HpConfig {
            nnz_per_warp: 2,
            vector_width: 1,
            warps_per_block: 8,
            alpha: 2.0,
        };
        let v100 = DeviceSpec::v100();
        let run = HpSpmm::new(cfg).run(&v100, &s, &a).unwrap();
        let expected = reference::spmm(&s, &a).unwrap();
        assert!(run.output.approx_eq(&expected, 1e-5, 1e-6));
        // Row 0 sum = 1+2+..+6 = 21.
        assert!((run.output.get(0, 0) - 21.0).abs() < 1e-5);
    }

    #[test]
    fn k_slicing_covers_wide_features() {
        let s = fig2();
        let a = Dense::from_fn(4, 128, |i, j| ((i * 131 + j) as f32 * 0.01).cos());
        let cfg = HpConfig {
            nnz_per_warp: 4,
            vector_width: 2, // 64 columns per warp -> 2 K-slices
            warps_per_block: 8,
            alpha: 2.0,
        };
        let v100 = DeviceSpec::v100();
        let run = HpSpmm::new(cfg).run(&v100, &s, &a).unwrap();
        let expected = reference::spmm(&s, &a).unwrap();
        assert!(run.output.approx_eq(&expected, 1e-5, 1e-6));
    }

    #[test]
    fn rejects_bad_dimensions() {
        let s = fig2();
        let a = Dense::zeros(5, 8);
        let v100 = DeviceSpec::v100();
        assert!(HpSpmm::auto(&v100, &s, 8).run(&v100, &s, &a).is_err());
    }

    #[test]
    fn handles_k_smaller_than_warp_width() {
        let s = fig2();
        let a = Dense::from_fn(4, 3, |i, j| (i * 3 + j) as f32);
        let v100 = DeviceSpec::v100();
        let run = HpSpmm::auto(&v100, &s, 3).run(&v100, &s, &a).unwrap();
        let expected = reference::spmm(&s, &a).unwrap();
        assert!(run.output.approx_eq(&expected, 1e-5, 1e-6));
    }

    #[test]
    fn empty_matrix_runs_cleanly() {
        let s = Hybrid::from_triplets(3, 3, &[]).unwrap();
        let a = Dense::from_fn(3, 4, |_, _| 1.0);
        let v100 = DeviceSpec::v100();
        let run = HpSpmm::auto(&v100, &s, 4).run(&v100, &s, &a).unwrap();
        assert!(run.output.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn vectorized_config_issues_fewer_instructions() {
        // Same matrix, scalar vs float4 loads: the vectorized run must
        // issue fewer load instructions for the same traffic.
        let s = Hybrid::from_triplets(
            64,
            64,
            &(0..64)
                .flat_map(|r| (0..16).map(move |c| (r as u32, (r + c) as u32 % 64, 1.0f32)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let a = Dense::from_fn(64, 128, |i, j| (i + j) as f32);
        let v100 = DeviceSpec::v100();
        let scalar = HpSpmm::new(HpConfig {
            nnz_per_warp: 128,
            vector_width: 1,
            warps_per_block: 8,
            alpha: 2.0,
        })
        .run(&v100, &s, &a)
        .unwrap();
        let vector = HpSpmm::new(HpConfig {
            nnz_per_warp: 128,
            vector_width: 4,
            warps_per_block: 8,
            alpha: 2.0,
        })
        .run(&v100, &s, &a)
        .unwrap();
        let expected = reference::spmm(&s, &a).unwrap();
        assert!(scalar.output.approx_eq(&expected, 1e-4, 1e-5));
        assert!(vector.output.approx_eq(&expected, 1e-4, 1e-5));
        assert!(
            vector.report.totals.instructions < scalar.report.totals.instructions,
            "vectorized {} vs scalar {}",
            vector.report.totals.instructions,
            scalar.report.totals.instructions
        );
    }
}
