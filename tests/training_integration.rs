//! End-to-end training integration: both sparse backends drive identical
//! learning, the simulated costs differ in the paper's direction, and the
//! full pipeline (datasets → reorder → kernels → GNN) composes.

use hpsparse::datasets::features::{planted_labels, random_features};
use hpsparse::datasets::generators::{GeneratorConfig, Topology};
use hpsparse::gnn::gat::GatLayer;
use hpsparse::gnn::{
    train_full_graph, train_graph_sampling, BaselineBackend, CpuBackend, GcnConfig, HpBackend,
    SparseBackend, TrainConfig,
};
use hpsparse::reorder::gcr_reorder;
use hpsparse::sim::DeviceSpec;
use hpsparse::sparse::Graph;

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

#[test]
fn backends_produce_identical_training_trajectories() {
    let (g, x, y) = problem(1);
    let cfg = TrainConfig {
        epochs: 4,
        lr: 0.02,
        ..Default::default()
    };
    let mut cpu = CpuBackend::new();
    let (_, s_cpu) = train_full_graph(&mut cpu, &g, &x, &y, model(), cfg);
    let mut hp = HpBackend::new(DeviceSpec::v100());
    let (_, s_hp) = train_full_graph(&mut hp, &g, &x, &y, model(), cfg);
    let mut base = BaselineBackend::new(DeviceSpec::v100());
    let (_, s_base) = train_full_graph(&mut base, &g, &x, &y, model(), cfg);
    for ((a, b), c) in s_cpu.losses.iter().zip(&s_hp.losses).zip(&s_base.losses) {
        assert!((a - b).abs() < 1e-3, "cpu {a} vs hp {b}");
        assert!((a - c).abs() < 1e-3, "cpu {a} vs baseline {c}");
    }
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
    let layer = GatLayer::new(16, 8, 7);
    let mut cpu = CpuBackend::new();
    let (out_cpu, w_cpu) = layer.forward(&mut cpu, &s, &x);
    let mut hp = HpBackend::new(DeviceSpec::v100());
    let (out_hp, w_hp) = layer.forward(&mut hp, &s, &x);
    assert!(out_cpu.approx_eq(&out_hp, 1e-3, 1e-4));
    for (a, b) in w_cpu.iter().zip(&w_hp) {
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
