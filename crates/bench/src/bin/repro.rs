//! `repro` — regenerates every table and figure of the paper's §IV.
//!
//! ```text
//! repro [--quick|--full] [--json DIR] [--trace FILE] [--metrics FILE]
//!       <experiment>...
//! repro perfdiff OLD.json NEW.json [--tolerance F] [--report FILE]
//! repro list
//! ```
//!
//! `repro list` prints every experiment with a one-line summary (the table
//! is `experiments::EXPERIMENTS`), then the meta-modes: `all` runs every
//! row not tagged `[not in all]`, `selftime` times that same set and
//! writes `BENCH_repro.json`, `perfdiff` compares two snapshots.
//!
//! Experiment output on stdout is byte-identical at any `RAYON_NUM_THREADS`
//! (timing chatter goes to stderr); `selftime` output is inherently
//! timing-dependent.
//!
//! `--trace FILE` installs a process-global `hpsparse-trace` session for
//! the whole run and writes a Chrome trace-event / Perfetto JSON timeline
//! (timestamps in simulated cycles — load it at <https://ui.perfetto.dev>).
//! `--metrics FILE` exports the session's metrics registry (`.csv` for
//! CSV, anything else for JSON). Both artefacts are deterministic:
//! identical invocations produce byte-identical files.
//!
//! `perfdiff OLD.json NEW.json` compares two snapshots (`BENCH_*.json`
//! or `--metrics` exports) metric by metric: regressions beyond
//! `--tolerance` (fractional, finite and ≥ 0, default 0.25) and vanished
//! metrics fail with exit 1, unreadable inputs and a bad tolerance with
//! exit 2; `--report FILE` writes the machine-readable diff. Every
//! `BENCH_*.json` carries a `host` section (core count, rayon threads) for
//! provenance; `perfdiff` excludes it from comparison.
//!
//! `selftime` folds its run into `BENCH_repro.json` under a `runs` object
//! keyed by thread count, so records at `RAYON_NUM_THREADS=1` and `=4`
//! coexist. The regression gate is `perfdiff` of a fresh record against
//! the committed one. With `--json DIR` it also writes every timed
//! experiment's JSON view into `DIR`, as `all` would; CI compares the quick
//! `fig9`, `fig9a30`, `fig10` and `table3` views with `results/quick/`.

use hpsparse_bench::experiments::{find, selftime, Effort, ExperimentOutput, EXPERIMENTS};
use hpsparse_bench::perfdiff;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut effort = Effort::Full;
    let mut json_dir: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut diff_tolerance = perfdiff::DEFAULT_TOLERANCE;
    let mut diff_report: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => effort = Effort::Quick,
            "--full" => effort = Effort::Full,
            "--json" => {
                json_dir = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--json needs a directory")),
                )
            }
            "--trace" => {
                trace_path = Some(it.next().unwrap_or_else(|| usage("--trace needs a file")))
            }
            "--metrics" => {
                metrics_path = Some(it.next().unwrap_or_else(|| usage("--metrics needs a file")))
            }
            "--tolerance" => {
                diff_tolerance = it
                    .next()
                    .and_then(|v| perfdiff::parse_tolerance(&v))
                    .unwrap_or_else(|| usage("--tolerance needs a finite number ≥ 0"))
            }
            "--report" => {
                diff_report = Some(it.next().unwrap_or_else(|| usage("--report needs a file")))
            }
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        usage("no experiment given");
    }
    if wanted.first().map(String::as_str) == Some("perfdiff") {
        run_perfdiff(&wanted[1..], diff_tolerance, diff_report.as_deref());
    }
    if wanted.iter().any(|w| w == "list") {
        print!("{}", render_catalog());
        std::process::exit(0);
    }
    if wanted.iter().any(|w| w == "all") {
        wanted = EXPERIMENTS
            .iter()
            .filter(|e| e.in_all)
            .map(|e| e.name.to_string())
            .collect();
    }

    // One session for the whole invocation: experiment spans, graph-build
    // spans, autotune counters, and every traced launch land in one
    // timeline / one registry.
    if trace_path.is_some() || metrics_path.is_some() {
        hpsparse_trace::install(hpsparse_trace::TraceSession::new());
    }

    for name in &wanted {
        let started = std::time::Instant::now();
        let out = if name == "selftime" {
            let out = selftime::run(effort, |exp| {
                if let Some(dir) = &json_dir {
                    write_json(dir, exp);
                }
            });
            let merged = merge_selftime_record(&out.json, SELFTIME_ARTIFACT);
            write_artifact(SELFTIME_ARTIFACT, &merged);
            out
        } else {
            let exp = find(name).unwrap_or_else(|| unknown_experiment(name));
            let out = exp.execute(effort);
            if let Some(file) = exp.artifact {
                write_artifact(file, &with_host(&out.json));
            }
            out
        };
        println!("{}", out.text);
        eprintln!(
            "[{name} finished in {:.1}s]\n",
            started.elapsed().as_secs_f64()
        );
        if let Some(dir) = &json_dir {
            write_json(dir, &out);
        }
    }

    if let Some(session) = hpsparse_trace::uninstall() {
        if let Some(path) = &trace_path {
            session
                .write_chrome_trace(path)
                .unwrap_or_else(|e| panic!("write trace {path}: {e}"));
            eprintln!("[wrote {path}]");
        }
        if let Some(path) = &metrics_path {
            session
                .write_metrics(path)
                .unwrap_or_else(|e| panic!("write metrics {path}: {e}"));
            eprintln!("[wrote {path}]");
        }
    }
}

/// The record `selftime` folds its runs into.
const SELFTIME_ARTIFACT: &str = "BENCH_repro.json";

/// The words `repro` expands itself instead of looking up in `EXPERIMENTS`.
const META_MODES: &[(&str, &str)] = &[
    ("all", "every experiment above not tagged [not in all]"),
    (
        "selftime",
        "wall-clock self-benchmark of `all`  [writes BENCH_repro.json]",
    ),
    (
        "perfdiff",
        "compare two benchmark/metrics snapshots metric by metric",
    ),
    ("list", "print this catalog and exit"),
];

/// Every word `repro` accepts in experiment position: table rows, then
/// meta-modes.
fn words() -> impl Iterator<Item = &'static str> {
    let names = EXPERIMENTS.iter().map(|e| e.name);
    names.chain(META_MODES.iter().map(|(n, _)| *n))
}

/// Writes an experiment's JSON view to `DIR/<id>.json` (`--json DIR`).
fn write_json(dir: &str, out: &ExperimentOutput) {
    std::fs::create_dir_all(dir).expect("create json dir");
    let path = format!("{dir}/{}.json", out.id);
    std::fs::write(&path, serde_json::to_string_pretty(&out.json).unwrap()).expect("write json");
    eprintln!("[wrote {path}]");
}

/// Writes a benchmark artefact into the working directory.
fn write_artifact(file: &str, doc: &serde_json::Value) {
    std::fs::write(file, serde_json::to_string_pretty(doc).unwrap())
        .unwrap_or_else(|e| panic!("write {file}: {e}"));
    eprintln!("[wrote {file}]");
}

/// Host provenance stamped into every `BENCH_*.json`: enough to explain
/// why two wall-clock snapshots differ without making them incomparable —
/// `perfdiff` excludes the section from comparison.
fn host_metadata() -> serde_json::Value {
    serde_json::json!({
        "cores": std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        "rayon_threads": rayon::current_num_threads() as u64,
    })
}

/// A copy of `doc` with the `host` section added (replacing any present).
fn with_host(doc: &serde_json::Value) -> serde_json::Value {
    let mut map = serde_json::Map::new();
    if let Some(obj) = doc.as_object() {
        for (k, v) in obj.iter() {
            map.insert(k.clone(), v.clone());
        }
    }
    map.insert("host".to_string(), host_metadata());
    serde_json::Value::Object(map)
}

/// The `perfdiff` subcommand: diff two snapshots and exit — 0 on pass,
/// 1 on regressed/vanished metrics, 2 on unusable inputs.
fn run_perfdiff(paths: &[String], tolerance: f64, report_path: Option<&str>) -> ! {
    let [old_path, new_path] = paths else {
        usage("perfdiff needs exactly two files: OLD.json NEW.json");
    };
    let load = |path: &str| -> serde_json::Value {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("perfdiff: {path}: {e}");
            std::process::exit(2);
        });
        serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("perfdiff: {path}: {e}");
            std::process::exit(2);
        })
    };
    let report = perfdiff::diff(&load(old_path), &load(new_path), tolerance);
    print!("{}", report.render());
    if let Some(path) = report_path {
        std::fs::write(
            path,
            serde_json::to_string_pretty(&report.to_json()).unwrap(),
        )
        .unwrap_or_else(|e| {
            eprintln!("perfdiff: write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("[wrote {path}]");
    }
    std::process::exit(if report.passed() { 0 } else { 1 });
}

/// Folds one fresh `selftime` run into the committed multi-thread record:
/// `BENCH_repro.json` keeps a `runs` object keyed by thread count, so runs
/// at `RAYON_NUM_THREADS=1` and `=4` coexist instead of overwriting each
/// other. Sections from a previous record survive when the effort matches;
/// an effort change (or an unreadable/legacy flat record) starts fresh.
fn merge_selftime_record(fresh: &serde_json::Value, path: &str) -> serde_json::Value {
    let threads = fresh["threads"].as_u64().expect("selftime threads");
    let mut runs = serde_json::Map::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Ok(prev) = serde_json::from_str(&text) {
            if prev["effort"] == fresh["effort"] {
                if let Some(prev_runs) = prev["runs"].as_object() {
                    runs = prev_runs.clone();
                }
            }
        }
    }
    let mut section = serde_json::Map::new();
    if let Some(obj) = fresh.as_object() {
        for (k, v) in obj.iter() {
            if k != "mode" && k != "effort" {
                section.insert(k.clone(), v.clone());
            }
        }
    }
    runs.insert(threads.to_string(), serde_json::Value::Object(section));
    let mut record = serde_json::Map::new();
    record.insert("mode".into(), fresh["mode"].clone());
    record.insert("effort".into(), fresh["effort"].clone());
    record.insert("host".into(), host_metadata());
    record.insert("runs".into(), serde_json::Value::Object(runs));
    serde_json::Value::Object(record)
}

/// The `repro list` output: every experiment with its one-line summary,
/// then the meta-modes. Rows are tagged `[trace]` when they attach
/// per-launch tracers, `[writes …]` when they write a benchmark artefact,
/// and `[not in all]` when `all`/`selftime` skip them.
fn render_catalog() -> String {
    let width = words().map(str::len).max().unwrap_or(0);
    let mut out = String::from("experiments:\n");
    for e in EXPERIMENTS {
        out.push_str(&format!("  {:width$}  {}", e.name, e.summary));
        if e.deep_trace {
            out.push_str("  [trace]");
        }
        if let Some(file) = e.artifact {
            out.push_str(&format!("  [writes {file}]"));
        }
        if !e.in_all {
            out.push_str("  [not in all]");
        }
        out.push('\n');
    }
    for (name, summary) in META_MODES {
        out.push_str(&format!("  {name:width$}  {summary}\n"));
    }
    out
}

/// Edit distance for the did-you-mean suggestion on unknown experiment
/// names (classic dynamic program; inputs are short command words).
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// Rejects an unknown experiment name with the full catalog and, when one
/// is close enough to be a likely typo, a "did you mean" suggestion.
fn unknown_experiment(name: &str) -> ! {
    eprintln!("error: unknown experiment `{name}`\n");
    if let Some((best, dist)) = words()
        .map(|n| (n, levenshtein(name, n)))
        .min_by_key(|&(n, d)| (d, n))
    {
        // A close miss is a typo; a far one is a wrong guess — either way
        // show the nearest name, but only when it is plausibly intended.
        if dist <= 1 + name.len() / 3 {
            eprintln!("did you mean `{best}`?\n");
        }
    }
    eprint!("{}", render_catalog());
    std::process::exit(2);
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro [--quick|--full] [--json DIR] [--trace FILE] [--metrics FILE]\n\
         \x20            <experiment>...\n\
         \x20      repro perfdiff OLD.json NEW.json [--tolerance F] [--report FILE]\n\
         experiments: {}\n\
         run `repro list` for one-line summaries",
        words().collect::<Vec<_>>().join(" ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
