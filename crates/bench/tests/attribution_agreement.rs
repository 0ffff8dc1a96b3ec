//! Pins the planner ↔ profiler attribution contract on the full kernel
//! catalogue: for every one of its kernels on quick graphs,
//!
//! * the cold-run attribution verdict is well-formed — a bound class from
//!   the five-way taxonomy plus a quantified headroom percentage,
//! * `profile::render`'s `bound by` line is that verdict, byte for byte,
//! * verdicts are deterministic across cold re-runs, and
//! * a `Measured` autotune plan's rationale embeds exactly the verdict of
//!   its winner's cold measurement run,
//!
//! so the profiler and the planner can never silently disagree about why
//! a launch is slow.

use hpsparse_autotune::{
    instantiate_sddmm, instantiate_spmm, measurement_features, PlanStrategy, Planner,
};
use hpsparse_core::catalog::KERNELS;
use hpsparse_datasets::registry::by_name;
use hpsparse_datasets::store;
use hpsparse_sim::{attribute, profile, DeviceSpec, GpuSim, LaunchReport};
use hpsparse_sparse::Hybrid;

/// Registry graphs capped at 10 000 edges.
const EDGE_CAP: usize = 10_000;
const K: usize = 64;

const BOUND_LABELS: [&str; 5] = [
    "DRAM bandwidth",
    "L2 latency",
    "compute",
    "imbalance",
    "tail",
];

fn quick_graphs() -> Vec<(&'static str, Hybrid)> {
    ["Flickr", "Reddit"]
        .into_iter()
        .map(|name| {
            let spec = by_name(name).expect("registry graph");
            (name, store::graph(&spec, EDGE_CAP).to_hybrid())
        })
        .collect()
}

/// A verdict must read `<bound label> (<pct>% headroom)` with the label in
/// the taxonomy and the percentage quantified and sane.
fn assert_well_formed(kernel: &str, graph: &str, verdict: &str) {
    let label = BOUND_LABELS
        .iter()
        .find(|l| verdict.starts_with(**l))
        .unwrap_or_else(|| panic!("{kernel} on {graph}: unknown bound in {verdict:?}"));
    let rest = verdict[label.len()..].trim();
    let pct: f64 = rest
        .strip_prefix('(')
        .and_then(|r| r.strip_suffix("% headroom)"))
        .and_then(|r| r.parse().ok())
        .unwrap_or_else(|| panic!("{kernel} on {graph}: unquantified headroom in {verdict:?}"));
    assert!(
        (0.0..100.0).contains(&pct),
        "{kernel} on {graph}: headroom {pct} out of range"
    );
}

fn check(kernel: &str, graph: &str, device: &DeviceSpec, run: impl Fn() -> LaunchReport) {
    let report = run();
    let verdict = attribute(&report, device).verdict();
    assert_well_formed(kernel, graph, &verdict);
    // The profile block's "bound by" line IS the attribution verdict.
    let rendered = profile::render(kernel, &report, device);
    assert!(
        rendered.contains(&format!("bound by     : {verdict}\n")),
        "{kernel} on {graph}: profile disagrees with attribution:\n{rendered}"
    );
    // Cold re-run: the verdict is a pure function of the launch.
    let again = attribute(&run(), device).verdict();
    assert_eq!(
        verdict, again,
        "{kernel} on {graph}: verdict not deterministic"
    );
}

#[test]
fn every_catalogue_kernel_attributes_cleanly_on_quick_graphs() {
    let device = DeviceSpec::v100();
    for (graph, s) in &quick_graphs() {
        for row in &KERNELS {
            let kernel = row.auto(&device, s, K);
            // Attribution reads a launch report, so the cost walk is enough;
            // the verdict checked is the main execution launch's.
            check(row.id, graph, &device, || {
                let launches = kernel.cost_on(&mut GpuSim::new(device.clone()), s, K);
                launches.unwrap().exec.swap_remove(0)
            });
        }
    }
}

#[test]
fn measured_plans_embed_their_winners_cold_run_verdict() {
    let device = DeviceSpec::v100();
    for (graph, s) in &quick_graphs() {
        let mut planner = Planner::new(device.clone(), PlanStrategy::default());

        let plan = planner.plan_spmm(s, K);
        let a = measurement_features(s.cols(), K);
        let kernel = instantiate_spmm(&plan.candidate()).unwrap();
        let mut sim = GpuSim::new(device.clone());
        let run = kernel.run_on(&mut sim, s, &a).unwrap();
        let verdict = attribute(&run.report, &device).verdict();
        assert!(
            plan.rationale.ends_with(&format!("; bound by {verdict}")),
            "{graph} spmm: rationale {:?} vs verdict {verdict:?}",
            plan.rationale
        );

        let plan = planner.plan_sddmm(s, K);
        let a1 = measurement_features(s.rows(), K);
        let a2t = measurement_features(s.cols(), K);
        let kernel = instantiate_sddmm(&plan.candidate()).unwrap();
        let mut sim = GpuSim::new(device.clone());
        let run = kernel.run_on(&mut sim, s, &a1, &a2t).unwrap();
        let verdict = attribute(&run.report, &device).verdict();
        assert!(
            plan.rationale.ends_with(&format!("; bound by {verdict}")),
            "{graph} sddmm: rationale {:?} vs verdict {verdict:?}",
            plan.rationale
        );
    }
}
