//! An autotuning backend's plan-cache trace counters with a session
//! installed (its own test binary: the session is process-global). A
//! Heuristic backend with an empty cache — every serving cluster's — skips
//! the cache key but still bumps `autotune.plan_cache.miss` once per SpMM,
//! SDDMM and attention lookup, as `PlanCache::misses` counts, and
//! `autotune.plans` once per pick; a seeded entry bumps
//! `autotune.plan_cache.hit`. Observing changes no output bit.

use hpsparse::autotune::{GraphFingerprint, PlanCache, PlanStrategy, Planner};
use hpsparse::gnn::{AutoBackend, SparseBackend};
use hpsparse::kernels::catalog::Op;
use hpsparse::sim::DeviceSpec;
use hpsparse::sparse::{Dense, Hybrid};
use hpsparse_trace::{Metric, TraceSession};

/// One SpMM, one SDDMM and one two-head attention call on `backend`: every
/// output's bits.
fn run(backend: &mut AutoBackend, s: &Hybrid) -> Vec<u32> {
    let head = |salt: usize| Dense::from_fn(40, 16, |i, j| ((i * 7 + j * 3 + salt) % 11) as f32);
    let (q, k, v) = ([head(0), head(1)], [head(2), head(3)], [head(4), head(5)]);
    let mut bits = backend.spmm(s, &q[0]).into_vec();
    bits.extend(backend.sddmm(s, &q[0], &k[0]));
    let (out, attn) = backend.mha(s, &q, &k, &v);
    bits.extend(
        out.into_iter()
            .flat_map(Dense::into_vec)
            .chain(attn.concat()),
    );
    bits.into_iter().map(f32::to_bits).collect()
}

#[test]
fn heuristic_lookups_bump_the_miss_counter_without_a_key() {
    let triplets: Vec<(u32, u32, f32)> = (0..300u32)
        .map(|i| (i % 40, i.wrapping_mul(2_654_435_761) % 40, 0.5))
        .collect();
    let s = Hybrid::from_triplets(40, 40, &triplets).unwrap();
    let (device, heuristic) = (DeviceSpec::v100(), PlanStrategy::Heuristic);
    let unobserved = run(
        &mut AutoBackend::with_strategy(device.clone(), heuristic),
        &s,
    );
    // Seeded with the SpMM shape's plan, before the session goes in.
    let fp = GraphFingerprint::of(&s, 16, &device);
    let plan = Planner::new(device.clone(), heuristic).plan_for(Op::Spmm, &fp, &s, 1);
    let (key, encoding) = fp.cache_entry(Op::Spmm, 1);
    let mut cache = PlanCache::new();
    cache.insert(Op::Spmm, key, encoding, plan);
    let mut warm = AutoBackend::with_cache(device.clone(), heuristic, cache);

    let session = TraceSession::new();
    hpsparse_trace::install(session.clone());
    let mut empty = AutoBackend::with_strategy(device.clone(), heuristic);
    let observed = run(&mut empty, &s);
    let counter = |name: &str| match session.metrics().get(name) {
        Some(Metric::Counter(n)) => n,
        other => panic!("{name}: {other:?}"),
    };
    let after_empty = (
        counter("autotune.plan_cache.miss"),
        counter("autotune.plans"),
        counter("autotune.plan_sim_launches"),
    );
    let replayed = run(&mut warm, &s);
    hpsparse_trace::uninstall();

    assert_eq!(observed, unobserved);
    assert_eq!(replayed, unobserved);
    assert_eq!(empty.cache().misses(), 3);
    assert_eq!(after_empty, (3, 3, 0), "(misses, plans, sim launches)");
    assert_eq!((warm.cache().hits(), warm.cache().misses()), (1, 2));
    assert_eq!(counter("autotune.plan_cache.hit"), 1);
    assert_eq!(counter("autotune.plan_cache.miss"), 5);
    assert_eq!(counter("autotune.plans"), 5);
}
