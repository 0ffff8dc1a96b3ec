//! End-to-end training integration: both sparse backends drive identical
//! learning, the simulated costs differ in the paper's direction, and the
//! full pipeline (datasets → reorder → kernels → GNN) composes.

use hpsparse::autotune::{GraphFingerprint, Plan, PlanCache, PlanStrategy, Planner};
use hpsparse::datasets::features::{planted_labels, random_features};
use hpsparse::datasets::generators::{GeneratorConfig, Topology};
use hpsparse::gnn::{
    linalg, train_full_graph, train_graph_sampling, AutoBackend, BaselineBackend, CpuBackend,
    GcnConfig, GraphTransformer, HpBackend, SparseBackend, SparseMha, TrainConfig, TransformerAdam,
    TransformerConfig,
};
use hpsparse::kernels::catalog::Op;
use hpsparse::reorder::gcr_reorder;
use hpsparse::sim::DeviceSpec;
use hpsparse::sparse::{Dense, Graph};

fn problem(seed: u64) -> (Graph, hpsparse::sparse::Dense, Vec<u32>) {
    let g = GeneratorConfig {
        nodes: 400,
        edges: 3_000,
        topology: Topology::Community {
            communities: 8,
            p_in: 0.85,
            alpha: 2.4,
        },
        seed,
    }
    .generate();
    let x = random_features(400, 16, seed);
    let y = planted_labels(&x, 4, seed);
    (g, x, y)
}

fn model() -> GcnConfig {
    GcnConfig {
        in_dim: 16,
        hidden: 24,
        layers: 2,
        classes: 4,
        seed: 3,
    }
}

/// `CpuBackend` is `BaselineBackend` without the clock: the same losses and
/// the same trained state at `to_bits`. HP adds in its own order, so its
/// losses agree only to rounding. Covers GCN on the community problems, a
/// power-law graph whose hub rows are longer than ALG2's 256-element split,
/// and attention at a head width (24) where a lane-striped dot would round
/// differently from the sequential one.
#[test]
fn backends_produce_identical_training_trajectories() {
    type Run<'a> = &'a dyn Fn(&mut dyn SparseBackend) -> (Vec<f32>, Vec<f32>);
    let check = |what: &str, run: Run| {
        let (cpu, cpu_state) = run(&mut CpuBackend::new());
        let (base, base_state) = run(&mut BaselineBackend::new(DeviceSpec::v100()));
        assert_eq!(loss_bits(&cpu), loss_bits(&base), "{what}: cpu vs baseline");
        assert!(
            loss_bits(&cpu_state) == loss_bits(&base_state),
            "{what}: trained state, cpu vs baseline"
        );
        let (hp, _) = run(&mut HpBackend::new(DeviceSpec::v100()));
        for (a, b) in cpu.iter().zip(&hp) {
            assert!((a - b).abs() < 1e-3, "{what}: cpu {a} vs hp {b}");
        }
    };
    let cfg = TrainConfig {
        epochs: 4,
        lr: 0.02,
        ..Default::default()
    };
    let gcn = |(g, x, y): &(Graph, Dense, Vec<u32>), b: &mut dyn SparseBackend| {
        let (model, stats) = train_full_graph(b, g, x, y, model(), cfg);
        let weights = model.weights.iter().flat_map(|w| w.data().iter());
        let state = weights.chain(model.biases.iter().flatten()).copied();
        (stats.losses, state.collect())
    };
    for seed in 1..=4 {
        let p = problem(seed);
        check(&format!("problem({seed})"), &|b| gcn(&p, b));
    }
    let hubs = GeneratorConfig {
        nodes: 2_000,
        edges: 40_000,
        topology: Topology::PowerLaw { alpha: 1.8 },
        seed: 9,
    }
    .generate();
    let longest = (0..hubs.num_nodes()).map(|v| hubs.degree(v)).max();
    assert!(longest > Some(256), "longest row {longest:?}");
    let x = random_features(2_000, 16, 9);
    let y = planted_labels(&x, 4, 9);
    let p = (hubs, x, y);
    check("power law", &|b| gcn(&p, b));

    let (g, x, y) = problem(1);
    let s = g.with_self_loops().to_hybrid();
    check("transformer", &|backend| {
        let mut model = GraphTransformer::new(TransformerConfig {
            in_dim: 16,
            head_dim: 24,
            heads: 3,
            ffn_dim: 24,
            classes: 4,
            seed: 3,
        });
        let mut opt = TransformerAdam::new(&model, 0.02);
        let mut last_logits = Vec::new();
        let losses = (0..3)
            .map(|_| {
                let (logits, cache) = model.forward(backend, &s, &x);
                let (loss, grad) = linalg::softmax_cross_entropy(&logits, &y);
                let grads = model.backward(backend, &s, &cache, &grad);
                opt.step(&mut model, &grads);
                last_logits = logits.into_vec();
                loss
            })
            .collect();
        (losses, last_logits)
    });
}

#[test]
fn simulated_costs_account_every_epoch() {
    let (g, x, y) = problem(2);
    let mut hp = HpBackend::new(DeviceSpec::v100());
    let cfg_short = TrainConfig {
        epochs: 2,
        lr: 0.02,
        ..Default::default()
    };
    let (_, short) = train_full_graph(&mut hp, &g, &x, &y, model(), cfg_short);
    let cfg_long = TrainConfig {
        epochs: 6,
        lr: 0.02,
        ..Default::default()
    };
    let (_, long) = train_full_graph(&mut hp, &g, &x, &y, model(), cfg_long);
    assert!(long.sparse_ms > 2.5 * short.sparse_ms);
    assert!(long.dense_ms > 2.5 * short.dense_ms);
    assert!((long.total_ms - long.sparse_ms - long.dense_ms).abs() < 1e-9);
}

#[test]
fn sampling_mode_trains_on_fresh_subgraphs() {
    let (g, x, y) = problem(3);
    let mut hp = HpBackend::new(DeviceSpec::v100());
    let cfg = TrainConfig {
        epochs: 6,
        lr: 0.03,
        sample_nodes: 150,
        seed: 8,
    };
    let (_, stats) = train_graph_sampling(&mut hp, &g, &x, &y, model(), cfg);
    assert_eq!(stats.losses.len(), 6);
    assert!(stats.sparse_ms > 0.0);
    // Losses vary across iterations because every batch is a different
    // subgraph.
    let all_same = stats.losses.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9);
    assert!(!all_same);
}

#[test]
fn gcr_composes_with_training() {
    // Reordering the graph must not change what the model learns, only
    // the (simulated) time it takes.
    let (g, x, y) = problem(4);
    let r = gcr_reorder(&g);
    // Permute features/labels to match the relabelled graph.
    let mut xp = hpsparse::sparse::Dense::zeros(x.rows(), x.cols());
    let mut yp = vec![0u32; y.len()];
    for (v, &label) in y.iter().enumerate() {
        let nv = r.perm[v] as usize;
        xp.row_mut(nv).copy_from_slice(x.row(v));
        yp[nv] = label;
    }
    let cfg = TrainConfig {
        epochs: 3,
        lr: 0.02,
        ..Default::default()
    };
    let mut b1 = HpBackend::new(DeviceSpec::v100());
    let (_, orig) = train_full_graph(&mut b1, &g, &x, &y, model(), cfg);
    let mut b2 = HpBackend::new(DeviceSpec::v100());
    let (_, reord) = train_full_graph(&mut b2, &r.graph, &xp, &yp, model(), cfg);
    for (a, b) in orig.losses.iter().zip(&reord.losses) {
        assert!((a - b).abs() < 1e-3, "{a} vs {b}");
    }
}

#[test]
fn gat_layer_runs_on_all_backends() {
    let (g, x, _) = problem(5);
    let s = g.with_self_loops().to_hybrid();
    // One-head attention: the single-head GAT layer.
    let layer = SparseMha::new(16, 8, 1, 7);
    let mut cpu = CpuBackend::new();
    let (out_cpu, cache_cpu) = layer.forward_cached(&mut cpu, &s, &x);
    let mut hp = HpBackend::new(DeviceSpec::v100());
    let (out_hp, cache_hp) = layer.forward_cached(&mut hp, &s, &x);
    assert!(out_cpu.approx_eq(&out_hp, 1e-3, 1e-4));
    let (w_cpu, w_hp) = (cache_cpu[0].weights(), cache_hp[0].weights());
    assert_eq!(w_cpu.len(), s.nnz());
    for (a, b) in w_cpu.iter().zip(w_hp) {
        assert!((a - b).abs() < 1e-4);
    }
    assert!(hp.sparse_cycles() > 0);
}

/// The dense path's bit contract, witnessed end to end: the `CpuBackend`
/// losses of the trajectory test's model, recorded at commit e0af99e (the
/// row-axpy GEMMs the register-tiled core replaced). `gnn::linalg` promises
/// the same bits for finite operands at any thread count, so these move
/// only if its accumulation order does.
#[test]
fn cpu_backend_losses_keep_their_recorded_bits() {
    let (g, x, y) = problem(1);
    let cfg = TrainConfig {
        epochs: 4,
        lr: 0.02,
        ..Default::default()
    };
    let (_, stats) = train_full_graph(&mut CpuBackend::new(), &g, &x, &y, model(), cfg);
    let bits: Vec<u32> = stats.losses.iter().map(|l| l.to_bits()).collect();
    assert_eq!(
        bits,
        [0x3fb363cd, 0x3fb0f864, 0x3fafb291, 0x3faed843],
        "losses {:?}",
        stats.losses
    );
}

/// `(nodes, dim, seed, FNV-1a of the feature bits, FNV-1a of
/// planted_labels(.., 4, seed))`, recorded at commit 24d5df3, where every
/// feature was the libm Box–Muller expression drawn one element at a time.
/// Lengths cover 0 and 1 element, one short of and one past a 256-draw
/// block, and `problem(1)`.
const FEATURE_DIGESTS: [(usize, usize, u64, u64, u64); 9] = [
    (0, 64, 1, 0xcbf29ce484222325, 0xcbf29ce484222325),
    (5, 0, 2, 0xcbf29ce484222325, 0xe4bc4fd9252be94f),
    (1, 1, 3, 0xc4d39aa6b96ecc66, 0xaf63bc4c8601b62c),
    (1, 255, 4, 0xfa1dca3fa00a8023, 0xaf63bd4c8601b7df),
    (3, 257, 5, 0x6db26846cbd941cf, 0xe1f68d1870f72e62),
    (17, 33, 6, 0xca07b42bbed5f69c, 0xde8ba036fa388e16),
    (2708, 64, 7, 0x3f77e22df8f1ee4e, 0x0e6c655747d1eef6),
    (1000, 300, 8, 0xf91ae38b6d5058e7, 0x012d7db2e47a59d1),
    (400, 16, 1, 0x500e67e3e96aae53, 0xe71c98a19d4e571e),
];

/// Every training input — each feature and label bit — stays what the
/// libm Box–Muller gave, whatever evaluates it.
#[test]
fn features_and_labels_keep_their_recorded_bits() {
    let fnv = |words: &mut dyn Iterator<Item = u32>| {
        words.fold(0xcbf2_9ce4_8422_2325_u64, |h, w| {
            (h ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    for (nodes, dim, seed, features, labels) in FEATURE_DIGESTS {
        let x = random_features(nodes, dim, seed);
        let y = planted_labels(&x, 4, seed);
        assert_eq!(
            (
                fnv(&mut x.data().iter().map(|v| v.to_bits())),
                fnv(&mut y.iter().copied())
            ),
            (features, labels),
            "random_features({nodes}, {dim}, {seed})"
        );
    }
}

fn loss_bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

/// Three epochs of the graph transformer: initialiser, batched attention
/// (fused on `HpBackend`, three launches per head on `CpuBackend`), its
/// backward and the optimiser, at `to_bits`. Recorded at commit 22872ca,
/// before the optimisers and initialisers were merged; identical in debug
/// and `--release` at any `RAYON_NUM_THREADS`.
#[test]
fn transformer_losses_keep_their_recorded_bits() {
    let (g, x, y) = problem(1);
    let s = g.with_self_loops().to_hybrid();
    let run = |backend: &mut dyn SparseBackend| {
        let mut model = GraphTransformer::new(TransformerConfig {
            in_dim: 16,
            head_dim: 8,
            heads: 2,
            ffn_dim: 24,
            classes: 4,
            seed: 3,
        });
        let mut opt = TransformerAdam::new(&model, 0.02);
        let losses: Vec<f32> = (0..3)
            .map(|_| {
                let (logits, cache) = model.forward(backend, &s, &x);
                let (loss, grad) = linalg::softmax_cross_entropy(&logits, &y);
                let grads = model.backward(backend, &s, &cache, &grad);
                opt.step(&mut model, &grads);
                loss
            })
            .collect();
        loss_bits(&losses)
    };
    // The fused kernel and the three-launch pipeline add the same floats
    // in the same order, so one record serves both.
    const RECORDED: [u32; 3] = [0x3fb1a349, 0x3fac15b1, 0x3fa6d792];
    let cpu = run(&mut CpuBackend::new());
    assert_eq!(cpu, RECORDED, "cpu {cpu:#x?}");
    let mut hp = HpBackend::new(DeviceSpec::v100());
    let fused = run(&mut hp);
    assert_eq!(fused, RECORDED, "hp (fused) {fused:#x?}");
    assert_eq!((hp.sparse_cycles(), hp.dense_cycles()), (189_000, 32_673));
}

/// What the three simulator backends charge for two GCN epochs, full-graph
/// and sampled: `(sparse_cycles, dense_cycles)` per backend, and for the
/// planning backend its cache `(hits, misses, len)` and planning launches.
/// Cycles recorded at commit 22872ca, when each backend carried its own
/// copy of the accounting rule. A Heuristic backend stores no plan, so
/// every lookup misses and the cache stays empty.
#[test]
fn simulated_training_costs_keep_their_recorded_cycles() {
    // Large enough that kernels clear the simulator's launch floor, so the
    // three backends charge three different totals.
    let g = GeneratorConfig {
        nodes: 4_000,
        edges: 60_000,
        topology: Topology::PowerLaw { alpha: 2.0 },
        seed: 6,
    }
    .generate();
    let x = random_features(4_000, 16, 6);
    let y = planted_labels(&x, 4, 6);
    let cfg = TrainConfig {
        epochs: 2,
        lr: 0.02,
        sample_nodes: 1_500,
        seed: 8,
    };
    let device = DeviceSpec::v100();
    let mut got = Vec::new();
    let mut planning = Vec::new();
    for sampling in [false, true] {
        let mut train = |b: &mut dyn SparseBackend| {
            if sampling {
                train_graph_sampling(b, &g, &x, &y, model(), cfg);
            } else {
                train_full_graph(b, &g, &x, &y, model(), cfg);
            }
            got.push((b.sparse_cycles(), b.dense_cycles()));
        };
        train(&mut HpBackend::new(device.clone()));
        train(&mut BaselineBackend::new(device.clone()));
        let mut auto = AutoBackend::with_strategy(device.clone(), PlanStrategy::Heuristic);
        train(&mut auto);
        let cache = auto.cache();
        planning.push((
            cache.hits(),
            cache.misses(),
            cache.len(),
            auto.planning_sim_launches(),
        ));
    }
    assert_eq!(
        got,
        [
            (59_142, 82_776),
            (118_504, 82_776),
            (61_008, 82_776),
            (45_494, 74_806),
            (102_501, 74_806),
            (45_494, 74_806),
        ]
    );
    assert_eq!(planning, [(0, 6, 0, 0), (0, 6, 0, 0)]);
}

/// A Heuristic `AutoBackend` stores no plan: each call recomputes what
/// `Planner::plan_spmm` picks. An entry seeded through `with_cache` still
/// replays, even one the planner would not pick.
#[test]
fn heuristic_plans_are_recomputed_and_seeded_plans_replay() {
    let (g, x, _) = problem(5);
    let s = g.to_hybrid();
    let device = DeviceSpec::v100();
    let heuristic = PlanStrategy::Heuristic;
    let bits = |d: Dense| loss_bits(&d.into_vec());
    // `calls` SpMMs on one backend: the last output's bits, the cycles
    // charged, and the cache's (hits, misses, len).
    let run = |backend: &mut AutoBackend, calls: usize| {
        let out = (0..calls).map(|_| bits(backend.spmm(&s, &x))).last();
        let cache = backend.cache();
        let counters = (cache.hits(), cache.misses(), cache.len());
        (out, backend.sparse_cycles(), counters)
    };
    let seeded = |plan: &Plan| {
        let (key, encoding) = GraphFingerprint::of(&s, x.cols(), &device).cache_entry(Op::Spmm, 1);
        let mut cache = PlanCache::new();
        cache.insert(Op::Spmm, key, encoding, plan.clone());
        AutoBackend::with_cache(device.clone(), heuristic, cache)
    };

    let pick = Planner::new(device.clone(), heuristic).plan_spmm(&s, x.cols());
    let mut recomputing = AutoBackend::with_strategy(device.clone(), heuristic);
    let (out, cycles, counters) = run(&mut recomputing, 2);
    assert_eq!(counters, (0, 2, 0), "nothing stored, both calls plan");
    assert_eq!(recomputing.planning_sim_launches(), 0);
    let (replayed, replayed_cycles, _) = run(&mut seeded(&pick), 2);
    assert_eq!(
        (out, cycles),
        (replayed, replayed_cycles),
        "the planner's pick"
    );

    let alg2 = "cusparse-csr-alg2";
    assert_ne!(
        pick.kernel_id, alg2,
        "the seeded entry must differ from the pick"
    );
    let seed = Plan {
        kernel_id: alg2.into(),
        config: None,
        predicted_cycles: 0,
        rationale: String::new(),
    };
    let (out, cycles, counters) = run(&mut seeded(&seed), 1);
    assert_eq!(counters, (1, 0, 1), "the seeded entry replays");
    let mut baseline = BaselineBackend::new(device.clone());
    let want = bits(baseline.spmm(&s, &x));
    assert_eq!((out, cycles), (Some(want), baseline.sparse_cycles()));
}
