//! Degree statistics and format memory footprints.
//!
//! Degree variance is the paper's proxy for load imbalance (Fig. 12:
//! speedup over node-parallel kernels correlates with the standard
//! deviation of node degree, Pearson's r = 0.90), and the CSR-vs-COO
//! storage comparison of §II motivates the hybrid format.

use crate::csr::Csr;
use crate::hybrid::Hybrid;

/// Summary statistics of a row-length (node-degree) distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Number of rows considered.
    pub rows: usize,
    /// Total non-zeros.
    pub nnz: usize,
    /// Mean row length.
    pub mean: f64,
    /// Population standard deviation of row length.
    pub std_dev: f64,
    /// Smallest row length.
    pub min: usize,
    /// Largest row length.
    pub max: usize,
    /// Coefficient of variation (`std_dev / mean`, 0 when mean is 0).
    pub cv: f64,
}

impl DegreeStats {
    /// Computes degree statistics from a CSR matrix.
    pub fn of(m: &Csr) -> Self {
        Self::from_row_lens(m.rows(), m.nnz(), (0..m.rows()).map(|r| m.row_len(r)))
    }

    /// Computes the same statistics from a hybrid matrix's row indices —
    /// equal, field for field and bit for bit, to
    /// `DegreeStats::of(&h.to_csr())` without copying the matrix. One pass
    /// over the row indices, which every `Hybrid` constructor has checked
    /// are sorted, so each row's elements are one run.
    pub fn of_hybrid(h: &Hybrid) -> Self {
        let row_ind = h.row_indices();
        let mut next = 0;
        let lens = (0..h.rows()).map(|r| {
            let start = next;
            while next < row_ind.len() && row_ind[next] as usize == r {
                next += 1;
            }
            next - start
        });
        Self::from_row_lens(h.rows(), h.nnz(), lens)
    }

    /// The statistics of `rows` row lengths summing to `nnz`, in one pass
    /// and without storing them: the mean is known up front, so the
    /// squared deviations are summed as they arrive, in row order.
    fn from_row_lens(rows: usize, nnz: usize, lens: impl Iterator<Item = usize>) -> Self {
        if rows == 0 {
            return Self {
                rows: 0,
                nnz: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0,
                max: 0,
                cv: 0.0,
            };
        }
        let mean = nnz as f64 / rows as f64;
        let (mut squares, mut min, mut max) = (0.0f64, usize::MAX, 0);
        for l in lens {
            let d = l as f64 - mean;
            squares += d * d;
            min = min.min(l);
            max = max.max(l);
        }
        let std_dev = (squares / rows as f64).sqrt();
        Self {
            rows,
            nnz,
            mean,
            std_dev,
            min,
            max,
            cv: if mean > 0.0 { std_dev / mean } else { 0.0 },
        }
    }
}

/// Number of stored scalar elements each format requires for a matrix with
/// `rows` rows and `nnz` non-zeros (§II: CSR needs `M + 1 + 2·NNZ`; COO and
/// hybrid CSR/COO need `3·NNZ`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Elements stored by CSR.
    pub csr: usize,
    /// Elements stored by COO.
    pub coo: usize,
    /// Elements stored by hybrid CSR/COO.
    pub hybrid: usize,
}

impl MemoryFootprint {
    /// Footprints for a matrix of the given shape.
    pub fn of(rows: usize, nnz: usize) -> Self {
        Self {
            csr: rows + 1 + 2 * nnz,
            coo: 3 * nnz,
            hybrid: 3 * nnz,
        }
    }

    /// Ratio of hybrid to CSR storage — the overhead the paper argues is
    /// masked by the `M × K` feature matrices (§II, observation 2).
    pub fn hybrid_overhead(&self) -> f64 {
        self.hybrid as f64 / self.csr as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The two-pass statistics over materialised row lengths that
    /// [`DegreeStats::from_row_lens`] replaced: its bits are the record.
    fn oracle(lens: &[usize]) -> DegreeStats {
        let rows = lens.len();
        if rows == 0 {
            return DegreeStats {
                rows: 0,
                nnz: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0,
                max: 0,
                cv: 0.0,
            };
        }
        let nnz: usize = lens.iter().sum();
        let mean = nnz as f64 / rows as f64;
        let var = lens
            .iter()
            .map(|&l| {
                let d = l as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / rows as f64;
        let std_dev = var.sqrt();
        DegreeStats {
            rows,
            nnz,
            mean,
            std_dev,
            min: *lens.iter().min().unwrap(),
            max: *lens.iter().max().unwrap(),
            cv: if mean > 0.0 { std_dev / mean } else { 0.0 },
        }
    }

    /// Field-for-field equality, floats compared at `to_bits`.
    fn same_bits(got: DegreeStats, want: DegreeStats) -> bool {
        let bits = |s: DegreeStats| {
            (
                s.rows,
                s.nnz,
                s.min,
                s.max,
                [s.mean, s.std_dev, s.cv].map(f64::to_bits),
            )
        };
        bits(got) == bits(want)
    }

    /// Both entries against the oracle on one matrix.
    fn check(m: &Csr) {
        let lens: Vec<usize> = (0..m.rows()).map(|r| m.row_len(r)).collect();
        let want = oracle(&lens);
        let (of, of_hybrid) = (DegreeStats::of(m), DegreeStats::of_hybrid(&m.to_hybrid()));
        assert!(same_bits(of, want), "{lens:?}: {of:?} vs {want:?}");
        assert!(
            same_bits(of_hybrid, want),
            "{lens:?}: {of_hybrid:?} vs {want:?}"
        );
    }

    #[test]
    fn one_pass_keeps_the_oracles_bits_on_edge_shapes() {
        let hub: Vec<(u32, u32, f32)> = (0..50).map(|c| (2, c, 1.0)).collect();
        let cases = [
            skewed(),
            Csr::from_triplets(0, 0, &[]).unwrap(),
            Csr::from_triplets(0, 5, &[]).unwrap(),
            Csr::from_triplets(4, 4, &[]).unwrap(),
            // Leading and trailing empty rows.
            Csr::from_triplets(6, 3, &[(2, 0, 1.0), (2, 1, 1.0), (3, 2, 1.0)]).unwrap(),
            // One hub row among empty ones.
            Csr::from_triplets(5, 50, &hub).unwrap(),
        ];
        for m in &cases {
            check(m);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random shapes, rows drawn skewed so some are hubs and many are
        /// empty: both one-pass entries equal the oracle at `to_bits`.
        #[test]
        fn one_pass_keeps_the_oracles_bits(
            rows in 1usize..60,
            cols in 1usize..60,
            draws in proptest::collection::vec((0u32..1000, 0u32..1000), 0..300),
        ) {
            let triplets: Vec<(u32, u32, f32)> = draws
                .iter()
                .map(|&(r, c)| ((r * r / 1000) % rows as u32, c % cols as u32, 1.0))
                .collect();
            check(&Csr::from_triplets(rows, cols, &triplets).unwrap());
        }
    }

    fn skewed() -> Csr {
        // Row lengths 4, 0, 1, 3.
        Csr::new(
            4,
            8,
            vec![0, 4, 4, 5, 8],
            vec![0, 1, 2, 3, 4, 5, 6, 7],
            vec![1.0; 8],
        )
        .unwrap()
    }

    #[test]
    fn degree_stats_of_skewed_matrix() {
        let s = DegreeStats::of(&skewed());
        assert_eq!(s.rows, 4);
        assert_eq!(s.nnz, 8);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 4);
        // lens 4,0,1,3: var = ((2)^2 + (-2)^2 + (-1)^2 + 1^2)/4 = 10/4
        assert!((s.std_dev - (2.5f64).sqrt()).abs() < 1e-12);
        assert!((s.cv - (2.5f64).sqrt() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn degree_stats_of_uniform_matrix_has_zero_std() {
        let m = Csr::new(3, 3, vec![0, 1, 2, 3], vec![0, 1, 2], vec![1.0; 3]).unwrap();
        let s = DegreeStats::of(&m);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.cv, 0.0);
        assert_eq!(s.mean, 1.0);
    }

    #[test]
    fn degree_stats_of_empty_matrix() {
        let m = Csr::new(0, 0, vec![0], vec![], vec![]).unwrap();
        let s = DegreeStats::of(&m);
        assert_eq!(s.rows, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn footprint_formulas_match_paper() {
        let f = MemoryFootprint::of(100, 1000);
        assert_eq!(f.csr, 100 + 1 + 2000);
        assert_eq!(f.coo, 3000);
        assert_eq!(f.hybrid, 3000);
        assert!(f.hybrid_overhead() > 1.0);
    }

    #[test]
    fn hybrid_overhead_shrinks_with_density() {
        // Denser matrices make the extra NNZ-sized array relatively larger
        // than the saved offsets; for very sparse matrices with many rows
        // the hybrid overhead grows small... verify monotonic behaviour.
        let sparse = MemoryFootprint::of(1_000_000, 1_000_000);
        let dense = MemoryFootprint::of(1_000, 1_000_000);
        assert!(sparse.hybrid_overhead() < dense.hybrid_overhead());
    }
}
