//! Sanitizer sweep over a sharded 2-device launch: memcheck, racecheck,
//! and initcheck must all come back clean for every device's kernels.
//!
//! The sharded path builds batch matrices with mixed local/halo columns —
//! exactly the kind of index remapping where an off-by-one would read
//! outside the gathered feature buffer. Attaching a sanitizer sink to each
//! device's simulator checks every access of every launched kernel.

use hpsparse_datasets::generators::{GeneratorConfig, Topology};
use hpsparse_serve::{serve, synthetic_workload, BatcherConfig, Cluster, WorkloadConfig};
use hpsparse_sim::{DeviceSpec, LinkSpec};
use hpsparse_sparse::Dense;
use hpsparse_verify::Sanitizer;

#[test]
fn sharded_two_device_serving_passes_all_checkers() {
    let g = GeneratorConfig {
        nodes: 400,
        edges: 4000,
        topology: Topology::Community {
            communities: 8,
            p_in: 0.85,
            alpha: 2.1,
        },
        seed: 41,
    }
    .generate()
    .with_self_loops()
    .gcn_normalized();
    let f = Dense::from_fn(g.num_nodes(), 8, |i, j| ((i * 7 + j) as f32 * 0.03).sin());

    let mut cluster = Cluster::new(&g, &f, 2, 2, DeviceSpec::v100(), LinkSpec::nvlink());
    let sanitizers: Vec<Sanitizer> = (0..cluster.num_devices())
        .map(|d| {
            let s = Sanitizer::new();
            cluster.device_sim_mut(d).attach_sink(s.sink());
            s
        })
        .collect();

    let reqs = synthetic_workload(
        &g,
        &WorkloadConfig {
            num_requests: 24,
            mean_interarrival_cycles: 120_000,
            subgraph_fraction: 0.5,
            walk_depth: 3,
            seed: 4242,
        },
    );
    let outcome = serve(&mut cluster, &reqs, &BatcherConfig::default(), None);
    assert!(outcome.report.num_batches > 0, "nothing launched");
    assert!(
        outcome.report.per_device.iter().all(|d| d.batches > 0),
        "a device sat idle; the sweep did not cover both"
    );

    for (d, s) in sanitizers.iter().enumerate() {
        let report = s.report();
        assert!(
            report.passed(),
            "device {d} sanitizer violations:\n{report}"
        );
    }
}
