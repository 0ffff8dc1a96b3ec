//! Property-based tests (proptest) over the core data structures and
//! kernels: random sparse matrices and feature widths must preserve the
//! library's invariants.

use hpsparse::kernels::hp::HpSpmm;
use hpsparse::kernels::SpmmKernel;
use hpsparse::reorder::gcr_reorder;
use hpsparse::sim::DeviceSpec;
use hpsparse::sparse::{reference, Csr, Dense, Graph, Hybrid};
use proptest::prelude::*;

/// Strategy: a random sparse matrix as (rows, cols, triplets).
fn sparse_matrix() -> impl Strategy<Value = (usize, usize, Vec<(u32, u32, f32)>)> {
    (2usize..40, 2usize..40).prop_flat_map(|(rows, cols)| {
        let triplet = (
            0..rows as u32,
            0..cols as u32,
            proptest::num::i32::ANY.prop_map(|v| (v % 100) as f32 * 0.25),
        );
        proptest::collection::vec(triplet, 0..200).prop_map(move |t| (rows, cols, t))
    })
}

/// Strategy: a random square graph edge list.
fn graph_edges() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (4usize..50).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..300).prop_map(move |e| (n, e))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR -> hybrid -> CSR is the identity.
    #[test]
    fn hybrid_roundtrip((rows, cols, triplets) in sparse_matrix()) {
        let csr = Csr::from_triplets(rows, cols, &triplets).unwrap();
        let hybrid = csr.to_hybrid();
        prop_assert_eq!(hybrid.to_csr(), csr);
        prop_assert_eq!(hybrid.nnz(), triplets.len());
    }

    /// Transpose is an involution that preserves the triplet multiset.
    #[test]
    fn transpose_involution((rows, cols, triplets) in sparse_matrix()) {
        let csr = Csr::from_triplets(rows, cols, &triplets).unwrap();
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    /// Simulated HP-SpMM equals the sequential reference for any matrix
    /// and any K.
    #[test]
    fn hp_spmm_matches_reference(
        (rows, cols, triplets) in sparse_matrix(),
        k in 1usize..40,
    ) {
        let s = Hybrid::from_triplets(rows, cols, &triplets).unwrap();
        let a = Dense::from_fn(cols, k, |i, j| ((i * 7 + j * 3) as f32 * 0.1).sin());
        let expected = reference::spmm(&s, &a).unwrap();
        let v100 = DeviceSpec::v100();
        let run = HpSpmm::auto(&v100, &s, k).run(&v100, &s, &a).unwrap();
        prop_assert!(run.output.approx_eq(&expected, 1e-3, 1e-4));
    }

    /// SDDMM reference identities: scaling the mask scales the output.
    #[test]
    fn sddmm_is_linear_in_the_mask(
        (rows, cols, triplets) in sparse_matrix(),
        scale in 0.25f32..4.0,
    ) {
        let s = Hybrid::from_triplets(rows, cols, &triplets).unwrap();
        let a1 = Dense::from_fn(rows, 8, |i, j| ((i + 2 * j) as f32 * 0.1).sin());
        let a2t = Dense::from_fn(cols, 8, |i, j| ((i * 3 + j) as f32 * 0.1).cos());
        let base = reference::sddmm_transposed(&s, &a1, &a2t).unwrap();
        let mut scaled = s.clone();
        scaled.set_values(s.values().iter().map(|v| v * scale).collect());
        let scaled_out = reference::sddmm_transposed(&scaled, &a1, &a2t).unwrap();
        for (b, sc) in base.iter().zip(&scaled_out) {
            prop_assert!((b * scale - sc).abs() <= 1e-3 * sc.abs().max(1.0));
        }
    }

    /// GCR produces a valid permutation and preserves SpMM results up to
    /// the same permutation.
    #[test]
    fn gcr_permutation_preserves_spmm((n, edges) in graph_edges()) {
        let edges: Vec<(u32, u32)> =
            edges.into_iter().filter(|(a, b)| a != b).collect();
        let mut dedup = edges.clone();
        dedup.sort_unstable();
        dedup.dedup();
        let g = Graph::from_edges(n, &dedup);
        let r = gcr_reorder(&g);
        // perm is a bijection.
        let mut seen = vec![false; n];
        for &p in &r.perm {
            prop_assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        // SpMM on the reordered graph with permuted features equals the
        // permuted SpMM of the original.
        let k = 4;
        let a = Dense::from_fn(n, k, |i, j| (i * k + j) as f32);
        let s0 = g.to_hybrid();
        let out0 = reference::spmm(&s0, &a).unwrap();
        let s1 = r.graph.to_hybrid();
        let a_perm = {
            let mut ap = Dense::zeros(n, k);
            for v in 0..n {
                let nv = r.perm[v] as usize;
                ap.row_mut(nv).copy_from_slice(a.row(v));
            }
            ap
        };
        let out1 = reference::spmm(&s1, &a_perm).unwrap();
        for v in 0..n {
            let nv = r.perm[v] as usize;
            for kk in 0..k {
                prop_assert!(
                    (out0.get(v, kk) - out1.get(nv, kk)).abs() < 1e-3,
                    "row {v} -> {nv} col {kk}"
                );
            }
        }
    }

    /// Degree-stats invariants: mean·rows == nnz; min <= mean <= max.
    #[test]
    fn degree_stats_invariants((rows, cols, triplets) in sparse_matrix()) {
        let csr = Csr::from_triplets(rows, cols, &triplets).unwrap();
        let stats = hpsparse::sparse::DegreeStats::of(&csr);
        prop_assert_eq!(stats.nnz, csr.nnz());
        prop_assert!((stats.mean * stats.rows as f64 - stats.nnz as f64).abs() < 1e-6);
        prop_assert!(stats.min as f64 <= stats.mean + 1e-9);
        prop_assert!(stats.mean <= stats.max as f64 + 1e-9);
    }
}
