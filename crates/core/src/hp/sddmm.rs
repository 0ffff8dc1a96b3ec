//! HP-SDDMM — Algorithm 4 of the paper.
//!
//! Same hybrid-parallel work assignment as HP-SpMM: each warp owns
//! `NnzPerWarp` consecutive elements and stages sparse tiles in shared
//! memory. For every element `(r, c)` the warp loads the feature row
//! `A2ᵀ[c]`, multiplies lane-wise against `A1[r]` held in registers, and
//! warp-reduces to a scalar written to `S_O.Value`. The row-switch
//! procedure here saves *reads*: `A1[r]` is loaded only when the element's
//! row differs from the previous one, so consecutive same-row elements
//! reuse registers.

use crate::hp::config::HpConfig;
use crate::traits::{KernelCost, SddmmKernel};
use hpsparse_sim::{
    DeviceSpec, Distinct, GpuSim, KernelResources, LaunchConfig, PlanBuilder, SymBufferRole,
    SymExpr, SymbolicPlan,
};
use hpsparse_sparse::{FormatError, Hybrid};

/// The hybrid-parallel SDDMM kernel.
#[derive(Debug, Clone, Copy)]
pub struct HpSddmm {
    /// Launch parameters (usually from [`HpConfig::auto`]).
    pub config: HpConfig,
}

impl HpSddmm {
    /// Builds the kernel with an explicit configuration.
    pub fn new(config: HpConfig) -> Self {
        Self { config }
    }

    /// Builds the kernel with the edge-parallel selection rule
    /// ([`HpConfig::edge_parallel`]).
    pub fn auto(device: &DeviceSpec, s: &Hybrid, k: usize) -> Self {
        Self::new(HpConfig::edge_parallel(device, s.nnz(), s.rows(), k))
    }

    /// Per-block resources: SDDMM keeps `A1[r]` in registers, so register
    /// pressure grows with `K/32` — the effect behind the shrinking
    /// speedups of Fig. 13 at large K.
    fn resources(&self, k: usize) -> KernelResources {
        let tile_elems = 32 * self.config.vector_width;
        KernelResources {
            warps_per_block: self.config.warps_per_block,
            registers_per_thread: (24 + (k / 32).max(1) as u32 * 4).min(255),
            shared_mem_per_block: 3 * tile_elems * 4 * self.config.warps_per_block,
        }
    }
}

impl SddmmKernel for HpSddmm {
    fn name(&self) -> &'static str {
        "HP-SDDMM"
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        let resources = self
            .config
            .check_launchable(self.name(), sim.device(), || self.resources(k))?;
        let nnz = s.nnz();
        let cfg = self.config;
        let vw = cfg.vector_width;
        let npw = cfg.nnz_per_warp.max(1);
        let tile_elems = (32 * vw as usize).min(npw);

        let row_buf = sim.alloc_input(nnz, "row_ind");
        let col_buf = sim.alloc_input(nnz, "col_ind");
        let val_buf = sim.alloc_input(nnz, "values");
        let a1_buf = sim.alloc_input(s.rows() * k, "A1");
        let a2_buf = sim.alloc_input(s.cols() * k, "A2T");
        let so_buf = sim.alloc_output(nnz, "S_O");

        let row_ind = s.row_indices();
        let col_ind = s.col_indices();

        let launch = LaunchConfig {
            num_warps: cfg.num_chunks(nnz),
            resources,
        };
        let report = sim.launch_named(self.name(), launch, |warp_id, tally| {
            let start = warp_id as usize * npw;
            let end = (start + npw).min(nnz);
            if start >= end {
                return;
            }
            // Kernel prologue: index math and bounds checks.
            tally.compute(12);
            // Sentinel forces an A1 load for the first element.
            let mut cur_row = usize::MAX;
            let mut i = start;
            while i < end {
                let tile_len = tile_elems.min(end - i);
                for buf in [&row_buf, &col_buf, &val_buf] {
                    tally.global_read(buf.elem_addr(i as u64, 4), tile_len as u64 * 4, vw);
                }
                tally.shared_op(3 + tile_len as u64);

                for j in i..i + tile_len {
                    let r = row_ind[j] as usize;
                    let c = col_ind[j] as usize;
                    // Load A2^T[c] every element (line 6 of Algorithm 4).
                    tally.global_read(a2_buf.elem_addr((c * k) as u64, 4), k as u64 * 4, vw);
                    if r != cur_row {
                        // Row switch: refresh the register copy of A1[r].
                        tally.global_read(a1_buf.elem_addr((r * k) as u64, 4), k as u64 * 4, vw);
                        cur_row = r;
                    }
                    // Lane-wise products then a 32-lane shuffle reduction.
                    tally.compute((k as u64).div_ceil(32).max(1));
                    tally.shuffle_reduce(32);
                    // Lane 0 stores the masked product (4-byte store).
                    tally.global_write(so_buf.elem_addr(j as u64, 4), 4, 1);
                }
                i += tile_len;
            }
        });

        Ok(KernelCost {
            report,
            preprocess: None,
        })
    }

    fn symbolic_plans(&self) -> Vec<SymbolicPlan> {
        let cfg = self.config;
        let npw = cfg.nnz_per_warp.max(1) as i64;
        let vw = cfg.vector_width as i64;
        let te = (32 * vw).min(npw);
        let mut b = PlanBuilder::new(self.name(), &format!("npw={npw},vw={vw}"));
        let m = b.param("m", 1);
        let n = b.param("n", 1);
        let nnz = b.param("nnz", 1);
        let k = b.param("k", 1);
        let row_buf = b.buffer("row_ind", SymBufferRole::Input, nnz.clone());
        let col_buf = b.buffer("col_ind", SymBufferRole::Input, nnz.clone());
        let val_buf = b.buffer("values", SymBufferRole::Input, nnz.clone());
        // check_sddmm_dims pins A1.rows == m and A2T.rows == n.
        let a1_buf = b.buffer("A1", SymBufferRole::Input, m.clone() * k.clone());
        let a2_buf = b.buffer("A2T", SymBufferRole::Input, n.clone() * k.clone());
        let so_buf = b.buffer("S_O", SymBufferRole::Output, nnz.clone());

        let mut l = b.launch(self.name());
        let chunk = l.axis("chunk", nnz.clone().ceil_div(npw));
        let start = chunk * SymExpr::Const(npw);
        let len = SymExpr::Const(npw).min(nnz - start.clone());
        let t = l.begin_for("t", len.clone().ceil_div(te));
        let i = start + t.clone() * SymExpr::Const(te);
        let tile_len = SymExpr::Const(te).min(len - t * SymExpr::Const(te));
        l.read(row_buf, i.clone(), tile_len.clone());
        l.read(col_buf, i.clone(), tile_len.clone());
        l.read(val_buf, i.clone(), tile_len.clone());
        let e = l.begin_for("e", tile_len);
        let c = l.data(
            "c",
            SymExpr::Const(0),
            n - SymExpr::Const(1),
            Distinct::No,
            0,
        );
        // Line 6 of Algorithm 4: load A2^T[c] every element.
        l.read(a2_buf, c * k.clone(), k.clone());
        l.begin_cases();
        l.begin_arm(None); // row switch: refresh the register copy of A1[r]
        let r = l.data(
            "r",
            SymExpr::Const(0),
            m - SymExpr::Const(1),
            Distinct::No,
            0,
        );
        l.read(a1_buf, r * k.clone(), k);
        l.end_arm();
        l.begin_arm(None); // same row: registers already hold A1[r]
        l.end_arm();
        l.end_cases();
        // Lane 0 stores the masked product: each element written exactly
        // once, by the warp that owns its chunk.
        l.write(so_buf, i + e, SymExpr::Const(1));
        l.end_for();
        l.end_for();
        l.done();
        vec![b.build()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_sparse::{reference, Dense};

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

    fn assert_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= 1e-4 * x.abs().max(y.abs()).max(1.0),
                "element {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matches_reference_on_fig2() {
        let s = fig2();
        let a1 = Dense::from_fn(4, 16, |i, j| ((i * 16 + j) as f32).sin());
        let a2t = Dense::from_fn(4, 16, |i, j| ((i * 17 + j) as f32).cos());
        let expected = reference::sddmm_transposed(&s, &a1, &a2t).unwrap();
        let v100 = DeviceSpec::v100();
        let run = HpSddmm::auto(&v100, &s, 16)
            .run(&v100, &s, &a1, &a2t)
            .unwrap();
        assert_close(&run.output_values, &expected);
        assert!(run.report.cycles > 0);
    }

    #[test]
    fn row_switch_reduces_a1_reads() {
        // Matrix A: all nnz in one row (one A1 load per warp).
        // Matrix B: every element in its own row (an A1 load per element).
        let k = 64;
        let n = 256;
        let one_row: Vec<(u32, u32, f32)> = (0..n).map(|c| (0u32, c as u32, 1.0)).collect();
        let diag: Vec<(u32, u32, f32)> = (0..n).map(|i| (i as u32, i as u32, 1.0)).collect();
        let sa = Hybrid::from_triplets(n, n, &one_row).unwrap();
        let sb = Hybrid::from_triplets(n, n, &diag).unwrap();
        let a1 = Dense::from_fn(n, k, |i, j| (i + j) as f32);
        let a2t = Dense::from_fn(n, k, |i, j| (i * 2 + j) as f32);
        let cfg = HpConfig {
            nnz_per_warp: 64,
            vector_width: 2,
            warps_per_block: 8,
            alpha: 2.0,
        };
        let v100 = DeviceSpec::v100();
        let ra = HpSddmm::new(cfg).run(&v100, &sa, &a1, &a2t).unwrap();
        let rb = HpSddmm::new(cfg).run(&v100, &sb, &a1, &a2t).unwrap();
        // Same element count; the single-row variant must read fewer bytes.
        assert!(
            ra.report.totals.global_bytes < rb.report.totals.global_bytes,
            "single-row bytes {} vs diagonal bytes {}",
            ra.report.totals.global_bytes,
            rb.report.totals.global_bytes
        );
    }

    #[test]
    fn values_mask_scales_output() {
        let s = fig2();
        let a1 = Dense::from_fn(4, 8, |_, _| 1.0);
        let a2t = Dense::from_fn(4, 8, |_, _| 1.0);
        let v100 = DeviceSpec::v100();
        let run = HpSddmm::auto(&v100, &s, 8)
            .run(&v100, &s, &a1, &a2t)
            .unwrap();
        // dot = 8 for all-ones; output = 8 * value.
        let expected: Vec<f32> = s.values().iter().map(|&v| 8.0 * v).collect();
        assert_close(&run.output_values, &expected);
    }

    #[test]
    fn rejects_bad_dimensions() {
        let s = fig2();
        let v100 = DeviceSpec::v100();
        let k = HpSddmm::auto(&v100, &s, 8);
        assert!(k
            .run(&v100, &s, &Dense::zeros(3, 8), &Dense::zeros(4, 8))
            .is_err());
    }

    #[test]
    fn large_k_shrinks_occupancy() {
        let s = fig2();
        let v100 = DeviceSpec::v100();
        let small = HpSddmm::auto(&v100, &s, 32).resources(32);
        let large = HpSddmm::auto(&v100, &s, 512).resources(512);
        assert!(large.registers_per_thread > small.registers_per_thread);
    }

    #[test]
    fn empty_matrix_runs_cleanly() {
        let s = Hybrid::from_triplets(3, 3, &[]).unwrap();
        let v100 = DeviceSpec::v100();
        let run = HpSddmm::auto(&v100, &s, 8)
            .run(&v100, &s, &Dense::zeros(3, 8), &Dense::zeros(3, 8))
            .unwrap();
        assert!(run.output_values.is_empty());
    }
}
