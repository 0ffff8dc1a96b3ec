//! Sputnik (Gale et al., SC'20) — sparse kernels for deep learning.
//!
//! Sputnik targets pruned-weight matrices (70–95% sparse) rather than
//! graphs (>99.9% sparse). It uses 1-D tiling with wide vector loads and
//! alleviates imbalance by **sorting rows by length** during preprocessing,
//! storing the order in an extra array. On graph matrices the fixed 1-D
//! tile wastes lanes on short rows, and the sort cannot be amortised in
//! graph-sampling training — both effects the paper measures (Table IV:
//! preprocessing up to 26× execution on AM).

use crate::baselines::common::{host_pass_report, row_warp_cost, whole_row_tasks, RowWarpSpec};
use crate::numerics::{segment_sums, Cut};
use crate::traits::{KernelCost, SpmmKernel};
use hpsparse_sim::GpuSim;
use hpsparse_sparse::{Dense, FormatError, Hybrid};

/// Sputnik: 1-D tiled SpMM with row-sorting preprocessing.
#[derive(Debug, Clone, Copy)]
pub struct Sputnik {
    /// Elements per 1-D tile (lanes beyond the row length are padding).
    pub tile: usize,
}

impl Default for Sputnik {
    fn default() -> Self {
        Self { tile: 64 }
    }
}

impl Sputnik {
    fn spec(&self) -> RowWarpSpec {
        RowWarpSpec {
            vector_width: 4,
            shared_tile: false,
            element_tile: self.tile,
            registers_per_thread: 48,
            ..Default::default()
        }
    }
}

impl SpmmKernel for Sputnik {
    fn name(&self) -> &'static str {
        "Sputnik"
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        let csr = s.to_csr();
        let m = csr.rows();

        // Preprocessing: sort rows by length, descending. The actual sort
        // runs on the host in Sputnik; its cost is modelled as a host pass
        // (comparison sort over M keys).
        let mut order: Vec<u32> = (0..m as u32).collect();
        order.sort_by_key(|&r| std::cmp::Reverse(csr.row_len(r as usize)));
        let log_m = (usize::BITS - m.max(2).leading_zeros()) as u64;
        let preprocess = host_pass_report(sim.device(), m as u64 * log_m, 3.0);

        let tasks = whole_row_tasks(&csr, Some(&order));
        Ok(KernelCost {
            report: row_warp_cost(self.name(), sim, &csr, k, &tasks, &self.spec()),
            preprocess: Some(preprocess),
        })
    }

    /// The sort permutes whole rows, and every row is one segment summed
    /// on its own: the processing order never reaches a float.
    fn accumulate(&self, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
        segment_sums(s, a, Cut::PerRow(usize::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_sim::DeviceSpec;
    use hpsparse_sparse::reference;

    #[test]
    fn matches_reference_despite_row_reordering() {
        let triplets: Vec<(u32, u32, f32)> = (0..2500u32)
            .map(|i| ((i * i) % 200, (i * 17) % 200, (i % 5) as f32 + 0.5))
            .collect();
        let s = Hybrid::from_triplets(200, 200, &triplets).unwrap();
        let a = Dense::from_fn(200, 32, |i, j| ((i * 32 + j) as f32 * 1e-2).sin());
        let expected = reference::spmm(&s, &a).unwrap();
        let run = Sputnik::default().run(&DeviceSpec::v100(), &s, &a).unwrap();
        assert!(run.output.approx_eq(&expected, 1e-4, 1e-5));
        assert!(run.preprocess.unwrap().cycles > 0);
    }

    #[test]
    fn preprocessing_grows_with_row_count() {
        let v100 = DeviceSpec::v100();
        let mk = |rows: u32| {
            let triplets: Vec<(u32, u32, f32)> = (0..rows * 4)
                .map(|i| (i % rows, (i * 3) % rows, 1.0))
                .collect();
            Hybrid::from_triplets(rows as usize, rows as usize, &triplets).unwrap()
        };
        let a_small = Dense::from_fn(100, 16, |_, _| 1.0);
        let a_large = Dense::from_fn(10_000, 16, |_, _| 1.0);
        let r_small = Sputnik::default().run(&v100, &mk(100), &a_small).unwrap();
        let r_large = Sputnik::default()
            .run(&v100, &mk(10_000), &a_large)
            .unwrap();
        assert!(r_large.preprocess.unwrap().cycles > 10 * r_small.preprocess.unwrap().cycles);
    }

    #[test]
    fn short_rows_waste_tile_lanes() {
        // All rows length 4 with a 64-wide tile: most of each tile is
        // padding compute, so instructions per nnz are far above a kernel
        // with a 32 tile.
        let triplets: Vec<(u32, u32, f32)> =
            (0..400u32).map(|i| (i % 100, (i * 7) % 100, 1.0)).collect();
        let s = Hybrid::from_triplets(100, 100, &triplets).unwrap();
        let a = Dense::from_fn(100, 32, |i, j| (i + j) as f32);
        let v100 = DeviceSpec::v100();
        let sputnik = Sputnik::default().run(&v100, &s, &a).unwrap();
        let ge = super::super::gespmm::GeSpmm.run(&v100, &s, &a).unwrap();
        assert!(
            sputnik.report.totals.instructions > ge.report.totals.instructions,
            "sputnik {} vs ge {}",
            sputnik.report.totals.instructions,
            ge.report.totals.instructions
        );
    }
}
