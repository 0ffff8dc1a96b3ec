//! Property-based tests: fingerprinting and planning must never panic,
//! whatever degenerate shape the matrix takes — 0 rows, 0 non-zeros, a
//! single hub row soaking up every edge, duplicate entries, or any random
//! sparsity pattern in between.

use hpsparse_autotune::{
    sddmm_candidates, sddmm_cost, spmm_candidates, spmm_cost, GraphFingerprint, PlanStrategy,
    Planner,
};
use hpsparse_sim::DeviceSpec;
use hpsparse_sparse::Hybrid;
use proptest::prelude::*;

/// Strategy: a possibly-degenerate sparse matrix. Dimensions start at 0,
/// and the triplet count is independent of the shape, so empty matrices
/// (0×N, N×0, 0 nnz) are generated routinely rather than as edge cases.
fn any_matrix() -> impl Strategy<Value = (usize, usize, Vec<(u32, u32, f32)>)> {
    (0usize..24, 0usize..24).prop_flat_map(|(rows, cols)| {
        let triplet = (
            0..rows.max(1) as u32,
            0..cols.max(1) as u32,
            proptest::num::i32::ANY.prop_map(|v| (v % 10) as f32),
        );
        proptest::collection::vec(triplet, 0..80).prop_map(move |t| {
            let t = if rows == 0 || cols == 0 {
                Vec::new()
            } else {
                t
            };
            (rows, cols, t)
        })
    })
}

/// Strategy: a single-hub matrix — one row owns every edge (the extreme
/// the paper's Fig. 12 skew axis points toward).
fn hub_matrix() -> impl Strategy<Value = (usize, Vec<(u32, u32, f32)>)> {
    (1usize..40, 0usize..40).prop_map(|(n, degree)| {
        let t: Vec<(u32, u32, f32)> = (0..degree.min(n)).map(|c| (0, c as u32, 1.0)).collect();
        (n, t)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fingerprinting any matrix yields finite statistics and a usable key.
    #[test]
    fn fingerprint_never_panics(
        (rows, cols, triplets) in any_matrix(),
        k in 1usize..130,
    ) {
        let s = Hybrid::from_triplets(rows, cols, &triplets).unwrap();
        let v100 = DeviceSpec::v100();
        let fp = GraphFingerprint::of(&s, k, &v100);
        prop_assert!(fp.mean_degree.is_finite());
        prop_assert!(fp.degree_std.is_finite());
        prop_assert!(fp.degree_cv.is_finite());
        prop_assert!(fp.tail_heaviness.is_finite());
        prop_assert_eq!(fp.key(), GraphFingerprint::of(&s, k, &v100).key());
    }

    /// Every candidate's analytic cost is finite on any matrix.
    #[test]
    fn costs_never_panic_or_overflow(
        (rows, cols, triplets) in any_matrix(),
        k in 1usize..130,
    ) {
        let s = Hybrid::from_triplets(rows, cols, &triplets).unwrap();
        let v100 = DeviceSpec::v100();
        let fp = GraphFingerprint::of(&s, k, &v100);
        for c in spmm_candidates(&v100, &fp) {
            let cost = spmm_cost(&v100, &fp, &c.config.unwrap());
            prop_assert!(cost.is_finite() && cost >= 0.0);
        }
        for c in sddmm_candidates(&v100, &fp) {
            let cost = sddmm_cost(&v100, &fp, &c.config.unwrap());
            prop_assert!(cost.is_finite() && cost >= 0.0);
        }
    }

    /// The heuristic planner produces a plan for any matrix, including a
    /// single hub row holding every non-zero.
    #[test]
    fn planner_handles_hub_rows((n, triplets) in hub_matrix(), k in 1usize..100) {
        let s = Hybrid::from_triplets(n, n, &triplets).unwrap();
        let mut planner = Planner::new(DeviceSpec::v100(), PlanStrategy::Heuristic);
        let plan = planner.plan_spmm(&s, k);
        prop_assert!(!plan.kernel_id.is_empty());
        let plan = planner.plan_sddmm(&s, k);
        prop_assert!(!plan.kernel_id.is_empty());
    }
}
