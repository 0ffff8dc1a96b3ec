//! The allocation-free Heuristic pick and the Heuristic `Plan` are one
//! decision: on random matrices of every shape the planner meets (empty,
//! one row, a hub row, uniform), every K a model trains at, and SpMM,
//! SDDMM and fused attention at 1–4 heads, `Planner::pick` names the
//! kernel, configuration and predicted cycles `plan_for` does.

use hpsparse_autotune::{GraphFingerprint, PlanStrategy, Planner};
use hpsparse_core::catalog::Op;
use hpsparse_sim::DeviceSpec;
use hpsparse_sparse::Hybrid;
use proptest::prelude::*;

const KS: [usize; 5] = [1, 16, 32, 64, 128];
const OPS: [Op; 3] = [Op::Spmm, Op::Sddmm, Op::FusedMha];

/// A `rows × cols` matrix of `shape`: 0 empty, 1 one row, 2 a hub row
/// holding `hub` entries over a sparse rest, 3 uniform — `nnz` entries
/// placed by a multiplicative hash of `seed`.
fn matrix(shape: usize, rows: usize, cols: usize, nnz: usize, hub: usize, seed: u64) -> Hybrid {
    let at = |i: usize, m: usize| ((i as u64 + seed).wrapping_mul(2_654_435_761) % m as u64) as u32;
    let (rows, triplets): (usize, Vec<(u32, u32, f32)>) = match shape {
        0 => (rows, Vec::new()),
        1 => (1, (0..nnz).map(|i| (0, at(i, cols), 1.0)).collect()),
        2 => {
            let hub = (0..hub).map(|i| (0, at(i, cols), 1.0));
            let rest = (0..nnz).map(|i| (at(i * 7, rows), at(i * 3 + 1, cols), 0.5));
            (rows, hub.chain(rest).collect())
        }
        _ => (
            rows,
            (0..nnz)
                .map(|i| ((i % rows) as u32, at(i, cols), 0.5))
                .collect(),
        ),
    };
    Hybrid::from_triplets(rows, cols, &triplets).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_pick_is_the_heuristic_plans_choice(
        (shape, rows, cols) in (0usize..4, 1usize..300, 1usize..1_200),
        (nnz, hub, seed) in (0usize..3_000, 0usize..1_500, 0u64..1_000_000),
        (k, op, heads) in (0usize..KS.len(), 0usize..OPS.len(), 1usize..5),
    ) {
        let s = matrix(shape, rows, cols, nnz, hub, seed);
        let (k, op) = (KS[k], OPS[op]);
        for device in [DeviceSpec::v100(), DeviceSpec::a30()] {
            let fp = GraphFingerprint::of(&s, k, &device);
            let mut planner = Planner::new(device.clone(), PlanStrategy::Heuristic);
            let plan = planner.plan_for(op, &fp, &s, heads);
            let pick = planner.pick(op, &fp, heads);
            prop_assert_eq!(pick.candidate.kernel_id, plan.kernel_id.as_str());
            prop_assert_eq!(pick.candidate.config, plan.config);
            prop_assert_eq!(pick.predicted_cycles(), plan.predicted_cycles);
            prop_assert_eq!(planner.sim_launches(), 0);
            // A `Measured` planner picks what a `Heuristic` one does.
            let measured = Planner::new(device, PlanStrategy::Measured);
            prop_assert_eq!(measured.pick(op, &fp, heads), pick);
        }
    }
}
