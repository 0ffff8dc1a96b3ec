//! Tier-1 witness for the serving subsystem: sharded execution is lossless
//! against one device over the same plan, agrees with the full-graph
//! reference product, and reproduces the numbers recorded from the commit
//! before the batch path was rewritten to copy rows (PR 15) — so a change
//! to batch assembly that moves one output bit or one simulated cycle
//! fails `cargo test -q` at the root.

use hpsparse::datasets::generators::{GeneratorConfig, Topology};
use hpsparse::sim::{DeviceSpec, LinkSpec};
use hpsparse::sparse::{reference, Dense, Graph};
use hpsparse_serve::{
    serve, synthetic_workload, try_serve, BatchError, BatcherConfig, Cluster, Request, ShardPlan,
    WorkloadConfig,
};

const K: usize = 16;

/// Recorded from commit e1ef598 (the parent of the rewrite). The output
/// hash was re-recorded once, when the planner's candidate space became
/// the paper's kernel alone: 19 of the 121 batches, which the Heuristic
/// had sent to GE-SpMM or cuSPARSE COO ALG4 on both clusters, now run
/// HP-SpMM, which adds each row's products in a different order. The other
/// three numbers did not move.
const OUTPUT_BITS_FNV: u64 = 1_499_378_601_948_404_184;
const P99_CYCLES: u64 = 134_128;
const NUM_BATCHES: usize = 121;
const HALO_BYTES: u64 = 54_016;

fn graph() -> Graph {
    GeneratorConfig {
        nodes: 500,
        edges: 5_000,
        topology: Topology::Community {
            communities: 10,
            p_in: 0.85,
            alpha: 2.1,
        },
        seed: 41,
    }
    .generate()
    .with_self_loops()
    .gcn_normalized()
}

fn fnv1a(words: impl Iterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[test]
fn sharded_serving_is_lossless_correct_and_pinned() {
    let g = graph();
    let f = Dense::from_fn(g.num_nodes(), K, |i, j| {
        ((i * 17 + j * 5) as f32 * 0.013).sin()
    });
    let requests = synthetic_workload(
        &g,
        &WorkloadConfig {
            num_requests: 256,
            mean_interarrival_cycles: 20_000,
            subgraph_fraction: 0.4,
            walk_depth: 3,
            seed: 15,
        },
    );
    let cfg = BatcherConfig {
        max_batch_rows: 16,
        max_wait_cycles: 100_000,
    };
    let plan = ShardPlan::new(&g, 4);
    let mut sharded =
        Cluster::from_plan(plan.clone(), &f, 2, DeviceSpec::v100(), LinkSpec::nvlink());
    let mut single = Cluster::from_plan(plan, &f, 1, DeviceSpec::v100(), LinkSpec::nvlink());
    let two = serve(&mut sharded, &requests, &cfg, None);
    let one = serve(&mut single, &requests, &cfg, None);

    assert_eq!(two.outputs, one.outputs, "2 devices vs 1 over one plan");
    assert_eq!(one.report.halo_bytes, 0, "one device gathers locally");

    let full = reference::spmm(&g.to_hybrid(), &f).unwrap();
    for (req, bits) in requests.iter().zip(&two.outputs) {
        for (p, &t) in req.targets.iter().enumerate() {
            for c in 0..K {
                let got = f32::from_bits(bits[p * K + c]);
                let want = full.get(t as usize, c);
                assert!(
                    (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                    "request {} target {t} col {c}: {got} vs {want}",
                    req.id
                );
            }
        }
    }

    let rep = &two.report;
    let pinned = (
        fnv1a(two.outputs.iter().flatten().copied()),
        rep.p99_cycles,
        rep.num_batches,
        rep.halo_bytes,
    );
    assert_eq!(
        pinned,
        (OUTPUT_BITS_FNV, P99_CYCLES, NUM_BATCHES, HALO_BYTES),
        "(output FNV, p99 cycles, batches, halo bytes) moved from the recorded parent values"
    );
}

/// Bad input at the serving boundary is refused, not a panic: a request
/// for a node the plan does not contain is a typed error on the caller's
/// thread — not an index panic on a pool thread inside the batcher's
/// `rayon::scope` — and nothing launches.
#[test]
fn an_unknown_target_is_refused_before_anything_launches() {
    let g = graph();
    let f = Dense::from_fn(g.num_nodes(), K, |i, j| (i + j) as f32);
    let cfg = BatcherConfig {
        max_batch_rows: 16,
        max_wait_cycles: 100_000,
    };
    let mut cluster = Cluster::new(&g, &f, 4, 2, DeviceSpec::v100(), LinkSpec::nvlink());
    let beyond = g.num_nodes() as u32;
    let requests = [
        Request {
            id: 0,
            arrival_cycle: 0,
            targets: vec![3, 7],
        },
        Request {
            id: 1,
            arrival_cycle: 10,
            targets: vec![5, beyond],
        },
    ];
    match try_serve(&mut cluster, &requests, &cfg, None) {
        Err(e) => assert_eq!(e, BatchError::UnknownNode { node: beyond }),
        Ok(_) => panic!("a target past the plan was served"),
    }
    for d in 0..cluster.num_devices() {
        assert_eq!(cluster.device_kernel_cycles(d), 0, "device {d} launched");
    }
    // The valid prefix alone is served.
    let served = try_serve(&mut cluster, &requests[..1], &cfg, None).unwrap();
    assert_eq!(served.outputs[0].len(), 2 * K);
}
