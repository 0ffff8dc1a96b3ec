//! The benchmark's promises to the driver and to `repro`:
//! `BENCHMARK.json` declares exactly the catalog, and the release profile
//! measured here is the one the root workspace ships.

use hpsparse_benchmark::metrics::{end_to_end, per_layer, WORKLOADS};
use serde_json::Value;
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_declares_exactly_the_catalog() {
    let text = read("../BENCHMARK.json");
    assert!(text.len() <= 64 * 1024);
    let spec = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = spec
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads: Vec<(&str, &str)> = spec["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| (w["name"].as_str().unwrap(), w["why"].as_str().unwrap()))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert!(workloads
        .iter()
        .all(|(n, why)| is_name(n) && why.len() <= 200 && !why.contains('\n')));

    let declared = |section: &str| -> Vec<(String, String, String, Option<f64>)> {
        spec[section]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let fields = m.as_object().unwrap().len();
                let bound = m.get("bound").and_then(Value::as_f64);
                assert_eq!(fields, if bound.is_some() { 4 } else { 3 }, "{m:?}");
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                    m["better"].as_str().unwrap().to_string(),
                    bound,
                )
            })
            .collect()
    };
    let catalog = |defs: Vec<hpsparse_benchmark::metrics::MetricDef>| -> Vec<_> {
        defs.into_iter()
            .map(|d| {
                (
                    d.name,
                    d.unit.to_string(),
                    d.better.label().to_string(),
                    d.bound,
                )
            })
            .collect()
    };
    assert_eq!(declared("end_to_end"), catalog(end_to_end()));
    assert_eq!(declared("per_layer"), catalog(per_layer()));

    for (name, unit, _, bound) in declared("end_to_end").iter().chain(&declared("per_layer")) {
        assert!(is_name(name), "{name}");
        assert!(is_unit(unit), "{name}: {unit}");
        assert!(bound.is_none_or(|b| (0.0..=0.25).contains(&b)), "{name}");
    }
    let setup = declared("end_to_end")
        .into_iter()
        .find(|m| m.0 == "setup_s")
        .unwrap();
    assert_eq!((setup.1.as_str(), setup.2.as_str()), ("s", "lower"));

    let seconds = spec["run_seconds"].as_u64().unwrap();
    assert!((1..=60).contains(&seconds));
    let paths: Vec<&str> = spec["paths"]
        .as_array()
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["benchmark"]);
    // The command names nothing of the repository outside `paths`.
    for arg in spec["command"].as_array().unwrap() {
        let arg = arg.as_str().unwrap();
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        assert!(!arg.contains('/') || arg.starts_with("benchmark/"), "{arg}");
    }
}

/// The `key = value` lines of one TOML table, comments and blanks dropped.
fn table(manifest: &str, header: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

#[test]
fn release_profile_mirrors_the_root_workspace() {
    let root = table(&read("../Cargo.toml"), "[profile.release]");
    let mine = table(&read("Cargo.toml"), "[profile.release]");
    assert!(
        root.iter().any(|l| l.starts_with("lto")),
        "root profile not found: {root:?}"
    );
    assert_eq!(
        mine, root,
        "benchmark/Cargo.toml [profile.release] drifted from the root manifest: \
         the numbers would no longer measure what `repro` ships"
    );
}
