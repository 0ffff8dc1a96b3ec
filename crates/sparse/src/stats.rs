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
        let lens: Vec<usize> = (0..m.rows()).map(|r| m.row_len(r)).collect();
        Self::from_row_lens(&lens)
    }

    /// Computes the same statistics from a hybrid matrix's row indices —
    /// equal, field for field and bit for bit, to
    /// `DegreeStats::of(&h.to_csr())` without copying the matrix.
    pub fn of_hybrid(h: &Hybrid) -> Self {
        let mut lens = vec![0usize; h.rows()];
        for &r in h.row_indices() {
            lens[r as usize] += 1;
        }
        Self::from_row_lens(&lens)
    }

    fn from_row_lens(lens: &[usize]) -> Self {
        let rows = lens.len();
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
        Self {
            rows,
            nnz,
            mean,
            std_dev,
            min: *lens.iter().min().unwrap(),
            max: *lens.iter().max().unwrap(),
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
    fn hybrid_row_indices_give_the_csr_statistics() {
        let empty_rows = Csr::new(3, 2, vec![0, 0, 0, 0], vec![], vec![]).unwrap();
        let no_rows = Csr::new(0, 0, vec![0], vec![], vec![]).unwrap();
        for m in [skewed(), empty_rows, no_rows] {
            assert_eq!(DegreeStats::of_hybrid(&m.to_hybrid()), DegreeStats::of(&m));
        }
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
