//! `results/quick/counters.json` puts every simulated counter of `repro
//! all` under the byte gate: one row per launch of every kernel walk, keyed
//! by its scope. These tests hold the committed view to its contract
//! (unique scopes, every walking experiment present, one row per line),
//! show that the join turns a one-sector change in one record into a
//! change of exactly that row, and that `repro perfdiff --tolerance 0`
//! names that row when the committed view and a fresh one disagree.

use hpsparse_bench::experiments::{counters, Effort, EXPERIMENTS};
use hpsparse_bench::runner::{measure_id, Record, Records};
use hpsparse_datasets::generators::{GeneratorConfig, Topology};
use hpsparse_sim::DeviceSpec;
use serde_json::Value;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

const COMMITTED: &str = include_str!("../../../results/quick/counters.json");

/// The experiments of `all` that keep no kernel walk: `formats` sizes
/// storage formats, `table5` charges training through the GNN backends,
/// and `scorecard` and `counters` are joins.
const NO_WALK: [&str; 4] = ["formats", "table5", "scorecard", "counters"];

fn rows(view: &Value) -> Vec<&Value> {
    view["rows"]
        .as_array()
        .expect("a rows array")
        .iter()
        .collect()
}

fn id(row: &Value) -> &str {
    row["id"].as_str().expect("every row names its scope")
}

#[test]
fn committed_rows_are_unique_by_scope_one_per_line_and_cover_every_walking_experiment() {
    let view: Value = serde_json::from_str(COMMITTED).expect("the view parses");
    let rows = rows(&view);
    assert_eq!(view["launches"].as_u64(), Some(rows.len() as u64));
    let ids: Vec<&str> = rows.iter().map(|r| id(r)).collect();
    let unique: BTreeSet<&str> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "two rows share a scope");

    let row_lines = COMMITTED.lines().filter(|l| l.starts_with("    {\"id\":"));
    assert_eq!(row_lines.count(), rows.len(), "one row per line");

    let experiment = |id: &str| id.split(" / ").next().unwrap_or_default().to_string();
    let listed: BTreeSet<String> = ids.iter().map(|id| experiment(id)).collect();
    let walking: BTreeSet<String> = EXPERIMENTS
        .iter()
        .filter(|e| e.in_all && !NO_WALK.contains(&e.name))
        .map(|e| e.name.to_string())
        .collect();
    assert_eq!(
        listed, walking,
        "experiments with rows vs experiments of `all` that walk"
    );
}

fn walks(graph: &str, seed: u64) -> Vec<Record> {
    let s = GeneratorConfig {
        nodes: 300,
        edges: 2_000,
        topology: Topology::PowerLaw { alpha: 2.2 },
        seed,
    }
    .generate()
    .to_hybrid();
    let v100 = DeviceSpec::v100();
    ["hp-spmm", "merge-path", "hp-sddmm"]
        .map(|id| measure_id(graph, id, &v100, &s, 32))
        .into()
}

fn view_of(sources: &[(&str, Vec<Records>)]) -> String {
    let sources = sources.iter().map(|(name, sets)| (*name, &sets[..]));
    counters::render(Effort::Quick, sources).file_text()
}

#[test]
fn a_one_sector_change_in_one_record_changes_exactly_its_row() {
    let shared: Records = Arc::new(walks("g", 1));
    let own = walks("h", 2);
    let view = |own: &[Record]| {
        // `shared` is listed by both experiments and kept once, under the
        // first.
        view_of(&[
            ("first", vec![shared.clone()]),
            ("second", vec![shared.clone(), Arc::new(own.to_vec())]),
        ])
    };
    let before = view(&own);
    let parsed: Value = serde_json::from_str(&before).unwrap();
    let ids: Vec<&str> = rows(&parsed).into_iter().map(id).collect();
    // Merge-path has a preprocessing launch: 2 × (1 + 2 + 1) rows.
    assert_eq!(ids.len(), 8, "{before}");
    assert!(ids[..4]
        .iter()
        .all(|id| id.starts_with("first / Tesla V100 / K=32 / g / ")));
    assert!(ids[4..]
        .iter()
        .all(|id| id.starts_with("second / Tesla V100 / K=32 / h / ")));
    assert_eq!(
        ids[1],
        "first / Tesla V100 / K=32 / g / Merge-path / preprocess"
    );
    assert_eq!(ids[2], "first / Tesla V100 / K=32 / g / Merge-path / exec0");

    let mut moved = own.clone();
    moved[1].launches.exec[0].totals.dram_sectors += 1;
    let after = view(&moved);
    let changed: Vec<(&str, &str)> = before
        .lines()
        .zip(after.lines())
        .filter(|(a, b)| a != b)
        .collect();
    assert_eq!(before.lines().count(), after.lines().count());
    assert_eq!(changed.len(), 1, "{changed:#?}");
    let want = "\"id\":\"second / Tesla V100 / K=32 / h / Merge-path / exec0\"";
    assert!(changed[0].1.contains(want), "{changed:#?}");
}

/// A host pass runs no warps, so its row gives no GPU verdict, while the
/// kernel's own launch and a preprocessing kernel that runs on the device
/// (Merge-path's partition search) keep theirs.
#[test]
fn a_host_pass_has_no_bound_and_a_device_launch_has_one() {
    let s = GeneratorConfig {
        nodes: 300,
        edges: 2_000,
        topology: Topology::PowerLaw { alpha: 2.2 },
        seed: 3,
    }
    .generate()
    .to_hybrid();
    let v100 = DeviceSpec::v100();
    let records = ["sputnik", "merge-path"].map(|id| measure_id("g", id, &v100, &s, 32));
    let view = view_of(&[("x", vec![Arc::new(records.into())])]);
    let parsed: Value = serde_json::from_str(&view).unwrap();
    let bounds: Vec<(&str, &Value)> = rows(&parsed)
        .into_iter()
        .map(|row| (id(row), &row["bound"]))
        .collect();
    let verdict = |b: &Value| b.as_str().is_some_and(|v| v.contains("% headroom"));
    assert_eq!(bounds.len(), 4, "{view}");
    assert_eq!(
        bounds[0].0,
        "x / Tesla V100 / K=32 / g / Sputnik / preprocess"
    );
    assert_eq!(*bounds[0].1, Value::Null, "{view}");
    for (id, bound) in &bounds[1..] {
        assert!(verdict(bound), "{id}: {bound}");
    }
}

#[test]
fn perfdiff_at_tolerance_zero_names_the_row_whose_dram_sectors_moved() {
    let line = COMMITTED
        .lines()
        .find(|l| l.starts_with("    {\"id\":"))
        .expect("a row line");
    let row: Value = serde_json::from_str(line.trim_end_matches(',')).unwrap();
    let bytes = row["dram_bytes"].as_u64().expect("DRAM bytes");
    let field = |b: u64| format!("\"dram_bytes\":{b},");
    assert!(line.contains(&field(bytes)), "{line}");
    // One more 32-byte sector.
    let moved = line.replacen(&field(bytes), &field(bytes + 32), 1);
    let copy = COMMITTED.replacen(line, &moved, 1);

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("counters_view");
    std::fs::create_dir_all(&dir).unwrap();
    let (old, new) = (dir.join("committed.json"), dir.join("moved.json"));
    std::fs::write(&old, COMMITTED).unwrap();
    std::fs::write(&new, copy).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["perfdiff", old.to_str().unwrap(), new.to_str().unwrap()])
        .args(["--tolerance", "0"])
        .output()
        .expect("run repro perfdiff");
    let report = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{report}");
    let named: Vec<&str> = report.lines().filter(|l| l.starts_with("  [")).collect();
    let want = format!("  [regressed] rows.{}.dram_bytes: ", id(&row));
    assert_eq!(named.len(), 1, "{report}");
    assert!(named[0].starts_with(&want), "{report}");
}
