//! End to end through the `bench` binary at toy size: every workload prints
//! exactly the declared metrics, verifies its outputs, repeats its exact
//! metrics at a fixed seed, and answers to the seed.

use hpsparse_benchmark::metrics::{end_to_end, per_layer, MetricDef, WORKLOADS};
use serde_json::Value;
use std::process::Command;

struct Run {
    result: Value,
    digest: String,
}

fn bench(workload: &str, seed: u64, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["run", "--workload", workload, "--smoke", "--seconds", "0"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .output()
        .expect("bench starts");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines().rev();
    let result = serde_json::from_str(lines.next().unwrap()).expect("last line is the result");
    let meta = serde_json::from_str(lines.next().unwrap().strip_prefix("#meta ").unwrap()).unwrap();
    Run {
        result,
        digest: meta["sim_digest"].as_str().unwrap().to_string(),
    }
}

fn assert_declared(run: &Run, catalog: &[MetricDef], what: &str) {
    let keys: Vec<&str> = run
        .result
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(run.result["correct"].as_bool(), Some(true), "{what}");
    assert_eq!(run.result["failed"].as_u64(), Some(0), "{what}");
    assert!(run.result["attempted"].as_u64().unwrap() >= 1, "{what}");
    let printed: Vec<(&str, &str)> = run.result["metrics"]
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, m)| {
            assert!(
                m["value"].as_f64().is_some_and(f64::is_finite),
                "{what}: {k}"
            );
            (k.as_str(), m["unit"].as_str().unwrap())
        })
        .collect();
    let declared: Vec<(&str, &str)> = catalog.iter().map(|d| (d.name.as_str(), d.unit)).collect();
    assert_eq!(
        printed, declared,
        "{what}: printed metrics differ from the declared ones"
    );
}

fn exact_values(run: &Run, catalog: &[MetricDef]) -> Vec<(String, f64)> {
    catalog
        .iter()
        .filter(|d| d.exact)
        .map(|d| {
            (
                d.name.clone(),
                run.result["metrics"][d.name.as_str()]["value"]
                    .as_f64()
                    .unwrap(),
            )
        })
        .collect()
}

#[test]
fn every_workload_prints_the_declared_metrics_and_repeats_them() {
    let (e2e, layers) = (end_to_end(), per_layer());
    let mut digests = std::collections::BTreeMap::new();
    for (w, _) in WORKLOADS {
        let plain = bench(w, 1, 0);
        assert_declared(&plain, &e2e, &format!("{w} --trace 0"));
        // End-to-end metrics are never 0: the driver scales by them.
        for d in &e2e {
            assert!(
                plain.result["metrics"][d.name.as_str()]["value"]
                    .as_f64()
                    .unwrap()
                    > 0.0,
                "{w} {}",
                d.name
            );
        }
        let traced = bench(w, 1, 1);
        assert_declared(&traced, &layers, &format!("{w} --trace 1"));
        let again = bench(w, 1, 1);
        assert_eq!(
            exact_values(&traced, &layers),
            exact_values(&again, &layers),
            "{w}"
        );
        assert_eq!(
            plain.digest, traced.digest,
            "{w}: traced and untraced runs differ"
        );
        assert_eq!(traced.digest, again.digest, "{w}");

        let other = bench(w, 2, 0);
        assert_declared(&other, &e2e, &format!("{w} --seed 2"));
        assert_ne!(
            other.digest, plain.digest,
            "{w}: the seed must reach the inputs"
        );
        digests.insert(w, plain.digest);
    }
    assert_eq!(
        digests["sweep"], digests["sweep-mt"],
        "1 thread and N threads must agree"
    );
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run"],
        &["run", "sweep"],
        &["frobnicate"],
        &["run", "--workload", "sweep", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
