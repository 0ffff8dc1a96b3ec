//! TC-GNN (Wang, Feng, Ding) — TF32 Tensor-Core SpMM (§IV-C comparison).
//!
//! TC-GNN's *sparse graph translation* groups rows into windows of 16 and
//! condenses each window's distinct neighbour columns into dense 16×8
//! blocks consumed by Tensor-Core MMA instructions. The padding inherent
//! in condensation (a block is processed even when mostly zero) plus the
//! per-block staging traffic is what lets HP-SpMM beat it on sparse graph
//! matrices (8.28 ms vs 17.40 ms on Yelp, RTX 3090), even though the MMA
//! itself is fast.

use crate::numerics::element_order;
use crate::traits::{KernelCost, SpmmKernel};
use hpsparse_sim::{
    Distinct, GpuSim, KernelResources, LaunchConfig, PlanBuilder, SymBufferRole, SymExpr,
    SymbolicPlan,
};
use hpsparse_sparse::{Dense, FormatError, Hybrid};

/// TC-GNN: Tensor-Core SpMM over condensed 16×8 tiles.
#[derive(Debug, Clone, Copy)]
pub struct TcGnn {
    /// Rows per window (16 in the paper, matching the MMA M dimension).
    pub window_rows: usize,
    /// Condensed columns per block (8, the MMA K dimension for TF32).
    pub block_cols: usize,
}

impl Default for TcGnn {
    fn default() -> Self {
        Self {
            window_rows: 16,
            block_cols: 8,
        }
    }
}

impl SpmmKernel for TcGnn {
    fn name(&self) -> &'static str {
        "TC-GNN"
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        let m = s.rows();
        let nnz = s.nnz();
        let csr = s.to_csr();
        let windows = m.div_ceil(self.window_rows);

        // Sparse graph translation: per window, the sorted set of distinct
        // columns. (Preprocessing in TC-GNN, done once per graph; cheap
        // relative to its execution, and the paper's §IV-C comparison is on
        // execution time, so it is not charged here.)
        let mut window_cols: Vec<Vec<u32>> = Vec::with_capacity(windows);
        for w in 0..windows {
            let r0 = w * self.window_rows;
            let r1 = (r0 + self.window_rows).min(m);
            let mut cols: Vec<u32> = (r0..r1)
                .flat_map(|r| csr.row_range(r).map(|e| csr.col_indices()[e]))
                .collect();
            cols.sort_unstable();
            cols.dedup();
            window_cols.push(cols);
        }

        let a_buf = sim.alloc_input(s.cols() * k, "A");
        let o_buf = sim.alloc_output(m * k, "O");
        let meta_buf = sim.alloc_input(nnz * 2, "window_meta");

        let cost = sim.device().cost;
        let k_chunks = k.div_ceil(16).max(1);

        let launch = LaunchConfig {
            num_warps: windows as u64,
            resources: KernelResources {
                warps_per_block: 8,
                registers_per_thread: 64,
                shared_mem_per_block: 16 * 1024,
            },
        };
        let block_cols = self.block_cols;
        let window_rows = self.window_rows;
        let report = sim.launch_named(self.name(), launch, |warp_id, tally| {
            let w = warp_id as usize;
            if w >= windows {
                return;
            }
            let cols = &window_cols[w];
            let r0 = w * window_rows;
            let r1 = (r0 + window_rows).min(m);
            // Load this window's sparse metadata once.
            let meta_elems: usize = (r0..r1).map(|r| csr.row_range(r).len()).sum();
            if meta_elems > 0 {
                let meta_start = csr.row_range(r0).start;
                tally.global_read(
                    meta_buf.elem_addr((meta_start * 2) as u64, 4),
                    meta_elems as u64 * 2 * 4,
                    1,
                );
            }

            let tiles = cols
                .len()
                .div_ceil(block_cols)
                .max(usize::from(meta_elems > 0));
            for t in 0..tiles {
                let c_lo = t * block_cols;
                let c_hi = (c_lo + block_cols).min(cols.len());
                // Decompress the 16 × 8 sparse block into shared memory:
                // full-block staging regardless of its density — the
                // padding cost of condensation.
                let block_elems = (window_rows * block_cols) as u64;
                tally.shared_op(block_elems.div_ceil(32) * 2);
                for chunk in 0..k_chunks {
                    let k_lo = chunk * 16;
                    let k_w = 16.min(k - k_lo);
                    // Fetch the A fragment: one 16-float row segment per
                    // condensed column (scattered rows).
                    tally.global_gather(
                        cols[c_lo..c_hi]
                            .iter()
                            .map(|&c| a_buf.elem_addr((c as usize * k + k_lo) as u64, 4)),
                        k_w as u64 * 4,
                    );
                    // One TF32 MMA per (block, K-chunk).
                    tally.tensor_mma(1, &cost);
                }
            }
            // Write the window's output rows.
            for r in r0..r1 {
                tally.global_write(o_buf.elem_addr((r * k) as u64, 4), k as u64 * 4, 4);
            }
        });

        Ok(KernelCost {
            report,
            preprocess: None,
        })
    }

    /// The MMA fragments accumulate each output row over its window's
    /// non-zeros in stored order.
    fn accumulate(&self, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
        element_order(s, a)
    }

    fn symbolic_plans(&self) -> Vec<SymbolicPlan> {
        let wr = self.window_rows.max(1) as i64;
        let bc = self.block_cols.max(1) as i64;
        let mut b = PlanBuilder::new(self.name(), &format!("wr={wr},bc={bc}"));
        let m = b.param("m", 1);
        let n = b.param("n", 1);
        let nnz = b.param("nnz", 1);
        let k = b.param("k", 1);
        let a_buf = b.buffer("A", SymBufferRole::Input, n.clone() * k.clone());
        let o_buf = b.buffer("O", SymBufferRole::Output, m.clone() * k.clone());
        let meta_buf = b.buffer(
            "window_meta",
            SymBufferRole::Input,
            nnz.clone() * SymExpr::Const(2),
        );

        let mut l = b.launch(self.name());
        let w = l.axis("w", m.clone().ceil_div(wr));
        // The window's slice of the CSR arrays: start element and length.
        let ms = l.data(
            "meta_start",
            SymExpr::Const(0),
            nnz.clone(),
            Distinct::No,
            0,
        );
        let me = l.data(
            "meta_elems",
            SymExpr::Const(0),
            nnz.clone() - ms.clone(),
            Distinct::No,
            0,
        );
        l.read(meta_buf, ms * SymExpr::Const(2), me * SymExpr::Const(2));
        // Condensed-tile count: bounded by the window's distinct columns,
        // themselves at most the whole matrix's nnz.
        let tiles = l.data("tiles", SymExpr::Const(0), nnz, Distinct::No, 0);
        l.begin_for("t", tiles);
        let chunk = l.begin_for("chunk", k.clone().ceil_div(16));
        let k_lo = chunk * SymExpr::Const(16);
        let k_w = SymExpr::Const(16).min(k.clone() - k_lo.clone());
        l.begin_for("cc", SymExpr::Const(bc));
        let c = l.data(
            "c",
            SymExpr::Const(0),
            n - SymExpr::Const(1),
            Distinct::No,
            0,
        );
        l.read(a_buf, c * k.clone() + k_lo, k_w);
        l.end_for();
        l.end_for();
        l.end_for();
        // Output rows of the window, clamped at the matrix edge.
        let u = l.begin_for(
            "u",
            SymExpr::Const(wr).min(m - w.clone() * SymExpr::Const(wr)),
        );
        let r = w * SymExpr::Const(wr) + u;
        l.write(o_buf, r * k.clone(), k);
        l.end_for();
        l.done();
        vec![b.build()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_sim::DeviceSpec;
    use hpsparse_sparse::reference;

    #[test]
    fn matches_reference() {
        let triplets: Vec<(u32, u32, f32)> = (0..3000u32)
            .map(|i| ((i * 7) % 300, (i * 13) % 300, ((i % 4) as f32) + 0.5))
            .collect();
        let s = Hybrid::from_triplets(300, 300, &triplets).unwrap();
        let a = Dense::from_fn(300, 32, |i, j| ((i * 32 + j) as f32 * 1e-2).sin());
        let expected = reference::spmm(&s, &a).unwrap();
        let run = TcGnn::default()
            .run(&DeviceSpec::rtx3090(), &s, &a)
            .unwrap();
        assert!(run.output.approx_eq(&expected, 1e-4, 1e-5));
        assert!(run.report.cycles > 0);
    }

    #[test]
    fn pays_padding_on_very_sparse_windows() {
        // Diagonal matrix: every 16-row window has 16 distinct columns in
        // 2 blocks, each holding at most 8 real values out of 128 slots.
        let n = 512;
        let diag: Vec<(u32, u32, f32)> = (0..n as u32).map(|i| (i, i, 1.0)).collect();
        let s = Hybrid::from_triplets(n, n, &diag).unwrap();
        let a = Dense::from_fn(n, 64, |i, j| (i + j) as f32);
        let dev = DeviceSpec::rtx3090();
        let tc = TcGnn::default().run(&dev, &s, &a).unwrap();
        let hp = crate::hp::spmm::HpSpmm::auto(&dev, &s, 64)
            .run(&dev, &s, &a)
            .unwrap();
        assert!(
            tc.report.cycles > hp.report.cycles,
            "tc {} vs hp {}",
            tc.report.cycles,
            hp.report.cycles
        );
    }

    #[test]
    fn empty_matrix_runs() {
        let s = Hybrid::from_triplets(64, 64, &[]).unwrap();
        let a = Dense::from_fn(64, 16, |_, _| 1.0);
        let run = TcGnn::default()
            .run(&DeviceSpec::rtx3090(), &s, &a)
            .unwrap();
        assert!(run.output.data().iter().all(|&x| x == 0.0));
    }
}
