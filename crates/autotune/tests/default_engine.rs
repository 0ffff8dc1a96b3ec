//! `repro --engine` reaches planner launches: a [`Planner`] built after
//! [`set_default_engine`] measures on that engine instead of resetting its
//! simulators to the fast one. The only test in this file, so it owns its
//! process and mutating the process-wide default cannot race another test.

use hpsparse_autotune::{PlanStrategy, Planner};
use hpsparse_sim::{set_default_engine, CostEngine, DeviceSpec};
use hpsparse_sparse::Hybrid;

#[test]
fn planner_measures_on_the_process_default_engine() {
    let triplets: Vec<(u32, u32, f32)> = (0..5_000u32)
        .map(|i| {
            (
                i.wrapping_mul(2654435761) % 700,
                i.wrapping_mul(40503).wrapping_add(11) % 700,
                1.0 + (i % 5) as f32,
            )
        })
        .collect();
    let s = Hybrid::from_triplets(700, 700, &triplets).unwrap();
    let strategy = PlanStrategy::Measured { top_n: 4 };

    let mut fast = Planner::new(DeviceSpec::v100(), strategy);
    assert_eq!(fast.engine(), CostEngine::Batched);

    set_default_engine(CostEngine::Reference);
    let mut refr = Planner::new(DeviceSpec::v100(), strategy);
    assert_eq!(refr.engine(), CostEngine::Reference);
    // Planners built earlier keep the engine they started on, and an
    // explicit override still wins over the default.
    assert_eq!(fast.engine(), CostEngine::Batched);
    let mut forced = Planner::new(DeviceSpec::v100(), strategy);
    forced.set_engine(CostEngine::Batched);
    assert_eq!(forced.engine(), CostEngine::Batched);

    // Same plans on either engine, SpMM, SDDMM and the fuse/no-fuse knob.
    assert_eq!(fast.plan_spmm(&s, 32), refr.plan_spmm(&s, 32));
    assert_eq!(fast.plan_sddmm(&s, 32), refr.plan_sddmm(&s, 32));
    assert_eq!(fast.plan_mha(&s, 16, 2), refr.plan_mha(&s, 16, 2));
    assert_eq!(fast.sim_launches(), refr.sim_launches());
}
