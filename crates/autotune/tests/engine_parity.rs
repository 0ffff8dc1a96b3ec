//! Differential test for the planning path: `Measured` plans built on the
//! reference cost engine must be byte-identical — kernel choice, measured
//! cycles, and rationale text — to plans built on the default fast engine.
//! The parity is checked both on the in-memory [`Plan`]s and through a
//! persisted [`PlanCache`], so a plan cache seeded before the fast engine
//! existed keeps serving exactly the plans the fast engine would produce.

use hpsparse_autotune::{GraphFingerprint, OpKind, PlanCache, PlanStrategy, Planner};
use hpsparse_sim::{CostEngine, DeviceSpec};
use hpsparse_sparse::Hybrid;

fn graph(seed: u32, rows: u32, nnz: u32) -> Hybrid {
    let triplets: Vec<(u32, u32, f32)> = (0..nnz)
        .map(|i| {
            (
                i.wrapping_mul(2654435761).wrapping_add(seed) % rows,
                i.wrapping_mul(40503).wrapping_add(11) % rows,
                1.0 + (i % 5) as f32,
            )
        })
        .collect();
    Hybrid::from_triplets(rows as usize, rows as usize, &triplets).unwrap()
}

#[test]
fn measured_plans_identical_across_cost_engines() {
    let v100 = DeviceSpec::v100();
    for (seed, rows, nnz, k) in [
        (1, 900, 6_000, 64),
        (7, 400, 9_000, 32),
        (21, 1500, 4_000, 33),
    ] {
        let s = graph(seed, rows, nnz);
        let mut fast = Planner::new(v100.clone(), PlanStrategy::Measured { top_n: 8 });
        let mut refr = Planner::new(v100.clone(), PlanStrategy::Measured { top_n: 8 });
        refr.set_engine(CostEngine::Reference);
        assert_eq!(fast.engine(), CostEngine::Batched);

        let pf = fast.plan_spmm(&s, k);
        let pr = refr.plan_spmm(&s, k);
        assert_eq!(pf, pr, "SpMM plan diverged (seed {seed})");
        assert_eq!(pf.rationale, pr.rationale);

        let sf = fast.plan_sddmm(&s, k);
        let sr = refr.plan_sddmm(&s, k);
        assert_eq!(sf, sr, "SDDMM plan diverged (seed {seed})");

        // Both planners paid the same number of measurement launches and
        // observed the same cycle totals — the engines differ only in host
        // time, never in the model.
        assert_eq!(fast.sim_launches(), refr.sim_launches());
        assert_eq!(fast.planning_cycles(), refr.planning_cycles());
    }
}

#[test]
fn reference_seeded_cache_serves_fast_engine_plans_verbatim() {
    let s = graph(3, 1000, 8_000);
    let k = 64;
    let v100 = DeviceSpec::v100();
    let fp = GraphFingerprint::of(&s, k, &v100);

    // Seed a cache with reference-engine plans and persist it, standing in
    // for a plan cache built by an older binary.
    let mut seeder = Planner::new(v100.clone(), PlanStrategy::Measured { top_n: 6 });
    seeder.set_engine(CostEngine::Reference);
    let mut seed_cache = PlanCache::new();
    seed_cache.insert(
        OpKind::Spmm,
        fp.key(),
        fp.canonical_encoding(),
        seeder.plan_spmm(&s, k),
    );
    seed_cache.insert(
        OpKind::Sddmm,
        fp.key(),
        fp.canonical_encoding(),
        seeder.plan_sddmm(&s, k),
    );
    let seed_path = std::env::temp_dir().join("hpsparse-engine-parity-seed.json");
    seed_cache.save(&seed_path).unwrap();

    // Build the same cache with the fast engine; the serialised bytes must
    // agree, rationales included.
    let mut fast = Planner::new(v100.clone(), PlanStrategy::Measured { top_n: 6 });
    let mut fast_cache = PlanCache::new();
    fast_cache.insert(
        OpKind::Spmm,
        fp.key(),
        fp.canonical_encoding(),
        fast.plan_spmm(&s, k),
    );
    fast_cache.insert(
        OpKind::Sddmm,
        fp.key(),
        fp.canonical_encoding(),
        fast.plan_sddmm(&s, k),
    );
    let fast_path = std::env::temp_dir().join("hpsparse-engine-parity-fast.json");
    fast_cache.save(&fast_path).unwrap();

    let seed_bytes = std::fs::read(&seed_path).unwrap();
    let fast_bytes = std::fs::read(&fast_path).unwrap();
    assert_eq!(
        seed_bytes, fast_bytes,
        "persisted plan caches must be byte-identical across engines"
    );

    // And the reloaded seed cache hits with exactly the fast planner's plan.
    let mut reloaded = PlanCache::load(&seed_path).unwrap();
    let served = reloaded
        .get(OpKind::Spmm, fp.key())
        .expect("seeded plan must hit");
    assert_eq!(
        served.rationale,
        fast_cache.get(OpKind::Spmm, fp.key()).unwrap().rationale
    );
    std::fs::remove_file(&seed_path).ok();
    std::fs::remove_file(&fast_path).ok();
}
