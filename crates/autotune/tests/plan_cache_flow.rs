//! End-to-end flow: plan with the `Measured` strategy, persist the cache,
//! reload it in a "new process", and serve the plan without touching the
//! simulator again.

use hpsparse_autotune::{GraphFingerprint, OpKind, PlanCache, PlanStrategy, Planner};
use hpsparse_sim::DeviceSpec;
use hpsparse_sparse::Hybrid;

fn graph() -> Hybrid {
    let triplets: Vec<(u32, u32, f32)> = (0..6000u32)
        .map(|i| {
            (
                i.wrapping_mul(2654435761) % 900,
                (i * 40503 + 11) % 900,
                1.0,
            )
        })
        .collect();
    Hybrid::from_triplets(900, 900, &triplets).unwrap()
}

#[test]
fn measured_plan_survives_disk_and_replays_without_simulation() {
    let s = graph();
    let k = 64;
    let v100 = DeviceSpec::v100();

    // Process 1: plan (costs simulator launches), cache, persist.
    let mut planner = Planner::new(v100.clone(), PlanStrategy::Measured);
    let plan = planner.plan_spmm(&s, k);
    assert!(planner.sim_launches() > 0, "Measured planning simulates");
    let fp = GraphFingerprint::of(&s, k, &v100);
    let mut cache = PlanCache::new();
    cache.insert(
        OpKind::Spmm,
        fp.key(),
        fp.canonical_encoding(),
        plan.clone(),
    );
    let path = std::env::temp_dir().join("hpsparse-autotune-flow-test.json");
    cache.save(&path).unwrap();

    // Process 2: reload; the lookup is a hit and no planner (hence no
    // simulator) is ever consulted.
    let mut reloaded = PlanCache::load(&path).unwrap();
    let fresh_planner = Planner::new(v100.clone(), PlanStrategy::Measured);
    let served = reloaded
        .get(OpKind::Spmm, GraphFingerprint::of(&s, k, &v100).key())
        .expect("persisted plan must hit");
    assert_eq!(served, &plan);
    assert_eq!(reloaded.hits(), 1);
    assert_eq!(reloaded.misses(), 0);
    assert_eq!(fresh_planner.sim_launches(), 0, "hit path never simulates");
    std::fs::remove_file(&path).ok();
}
