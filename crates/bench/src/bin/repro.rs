//! `repro` — regenerates every table and figure of the paper's §IV.
//!
//! ```text
//! repro [--quick|--full] [--json DIR] [--trace FILE] [--metrics FILE]
//!       [--engine batched|reference] [--selftime-baseline FILE]
//!       [--selftime-tolerance F]
//!       <experiment>...
//! repro perfdiff OLD.json NEW.json [--tolerance F] [--report FILE]
//!
//! experiments:
//!   fig9     kernel benchmarks, full-graph dataset (V100)
//!   fig9a30  kernel benchmarks, full-graph dataset (A30)
//!   fig10    kernel benchmarks, graph-sampling dataset (V100)
//!   fig10a30 kernel benchmarks, graph-sampling dataset (A30)
//!   table3   average-speedup summary across devices and datasets
//!   table4   preprocessing vs execution comparison (A30)
//!   tcgnn    TC-GNN Tensor-Core comparison (RTX 3090)
//!   reorder  §IV-D reordering-runtime comparison
//!   fig11    DTP / HVMA / GCR ablation
//!   fig12    degree-variance sensitivity (Pearson's r)
//!   fig13    feature-dimension (K) sensitivity
//!   alpha    DTP wave-factor design ablation
//!   futurework  register-lean HP-SpMM at large K (paper's future work)
//!   bell     Blocked-ELL vs hybrid CSR/COO across structures (extension)
//!   fused    FusedMM vs unfused pipeline (extension)
//!   table5   end-to-end GNN training
//!   autotune kernel-planner evaluation: oracle match + plan cache (extension)
//!   sanitize memcheck/racecheck/initcheck sweep over every registry kernel
//!   verify   static bounds/race/init verification; non-proved kernels escalate
//!   fastcheck differential test: fast vs reference cost engine
//!   formats  §II storage-format comparison
//!   profile  Nsight-style kernel profiles on Flickr
//!   datasets Table II stand-in verification
//!   serve    multi-GPU sharded inference serving; writes BENCH_serve.json
//!   fused-mha fused one-launch multi-head attention vs three-launch pipeline;
//!            writes BENCH_fused_mha.json
//!   all      everything above except fig10a30, verify, fastcheck, datasets,
//!            serve and fused-mha
//!   selftime wall-clock self-benchmark of the harness; writes BENCH_repro.json
//!   perfdiff compare two benchmark/metrics snapshots metric by metric
//!   list     print the experiment catalog and exit
//! ```
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
//! `--engine batched|reference` sets the process-wide default cost engine
//! every simulator in the run — planner measurements included — starts on
//! (`batched` unless given). Both engines produce bit-identical reports,
//! traces and metrics — the flag exists so the byte-identity can be
//! *demonstrated* (and is pinned by the `engine_bytes` integration test).
//!
//! `perfdiff OLD.json NEW.json` compares two snapshots (`BENCH_*.json`
//! or `--metrics` exports) metric by metric: regressions beyond
//! `--tolerance` (fractional, default 0.25) and vanished metrics fail
//! with exit 1, unreadable inputs with exit 2; `--report FILE` writes the
//! machine-readable diff. Every `BENCH_*.json` carries a `host` section
//! (core count, rayon threads) for provenance; `perfdiff` excludes it
//! from comparison.
//!
//! `selftime` folds its run into `BENCH_repro.json` under a `runs` object
//! keyed by thread count, so records at `RAYON_NUM_THREADS=1` and `=4`
//! coexist. `--selftime-baseline FILE` makes `selftime` compare its fresh
//! total against the committed section matching its own thread count and
//! exit non-zero if the run regressed beyond `--selftime-tolerance`
//! (fractional, default 0.25 to absorb machine noise; the tracing-overhead
//! budget of DESIGN.md is validated with a strict 0.01 at baseline-refresh
//! time).

use hpsparse_bench::experiments::{
    bench_artifact, dispatch, selftime, supports_trace, Effort, ALL_EXPERIMENTS, CATALOG,
};
use hpsparse_bench::perfdiff;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut effort = Effort::Full;
    let mut json_dir: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut selftime_baseline: Option<String> = None;
    let mut selftime_tolerance = 0.25_f64;
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
            "--engine" => {
                let name = it.next().unwrap_or_else(|| usage("--engine needs a name"));
                let engine = hpsparse_sim::CostEngine::parse(&name).unwrap_or_else(|| {
                    usage(&format!("--engine {name}: expected batched or reference"))
                });
                hpsparse_sim::set_default_engine(engine);
            }
            "--selftime-baseline" => {
                selftime_baseline = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--selftime-baseline needs a file")),
                )
            }
            "--selftime-tolerance" => {
                selftime_tolerance = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--selftime-tolerance needs a number"))
            }
            "--tolerance" => {
                diff_tolerance = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--tolerance needs a number"))
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
        wanted = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
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
            let out = selftime::run(effort);
            let merged = merge_selftime_record(&out.json, "BENCH_repro.json");
            std::fs::write(
                "BENCH_repro.json",
                serde_json::to_string_pretty(&merged).unwrap(),
            )
            .expect("write BENCH_repro.json");
            eprintln!("[wrote BENCH_repro.json]");
            if let Some(baseline) = &selftime_baseline {
                check_selftime_baseline(&out.json, baseline, selftime_tolerance);
            }
            out
        } else {
            dispatch(name, effort).unwrap_or_else(|| unknown_experiment(name))
        };
        if out.id == "serve" {
            std::fs::write(
                "BENCH_serve.json",
                serde_json::to_string_pretty(&with_host(&out.json)).unwrap(),
            )
            .expect("write BENCH_serve.json");
            eprintln!("[wrote BENCH_serve.json]");
        }
        if out.id == "fused-mha" {
            std::fs::write(
                "BENCH_fused_mha.json",
                serde_json::to_string_pretty(&with_host(&out.json)).unwrap(),
            )
            .expect("write BENCH_fused_mha.json");
            eprintln!("[wrote BENCH_fused_mha.json]");
        }
        println!("{}", out.text);
        eprintln!(
            "[{name} finished in {:.1}s]\n",
            started.elapsed().as_secs_f64()
        );
        if let Some(dir) = &json_dir {
            std::fs::create_dir_all(dir).expect("create json dir");
            let path = format!("{dir}/{}.json", out.id);
            std::fs::write(&path, serde_json::to_string_pretty(&out.json).unwrap())
                .expect("write json");
            eprintln!("[wrote {path}]");
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

/// Compares a fresh `selftime` total against a committed baseline, failing
/// the process when the harness got more than `tolerance` slower. Only
/// totals are compared — per-experiment noise is too high on shared CI
/// machines. The baseline section is selected by the fresh run's thread
/// count (`runs.<threads>`); a baseline recorded at a different effort, or
/// with no section for this thread count, is rejected rather than silently
/// compared.
fn check_selftime_baseline(fresh: &serde_json::Value, baseline_path: &str, tolerance: f64) {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| usage(&format!("--selftime-baseline {baseline_path}: {e}")));
    let baseline: serde_json::Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| usage(&format!("--selftime-baseline {baseline_path}: {e}")));
    let (b, f) = (&baseline["effort"], &fresh["effort"]);
    if b != f {
        eprintln!("[selftime-baseline] effort mismatch (baseline {b}, fresh {f}) — not comparable");
        std::process::exit(2);
    }
    let threads = fresh["threads"].as_u64().expect("selftime threads");
    let section = &baseline["runs"][threads.to_string().as_str()];
    if section.as_object().is_none() {
        eprintln!(
            "[selftime-baseline] no baseline section for {threads} thread(s) — not comparable"
        );
        std::process::exit(2);
    }
    let base = section["total_seconds"].as_f64().unwrap_or_else(|| {
        usage(&format!(
            "--selftime-baseline {baseline_path}: no total_seconds"
        ))
    });
    let now = fresh["total_seconds"].as_f64().expect("selftime totals");
    let ratio = now / base;
    eprintln!(
        "[selftime-baseline] total {now:.2}s vs baseline {base:.2}s \
         (ratio {ratio:.3}, tolerance +{tolerance:.3})"
    );
    if ratio > 1.0 + tolerance {
        eprintln!("[selftime-baseline] REGRESSION beyond tolerance");
        std::process::exit(1);
    }
}

/// The `repro list` output: every dispatchable experiment with its
/// one-line summary, plus the meta-modes. Names that attach per-launch
/// tracers are marked `[trace]`; names that write a benchmark artefact
/// are marked `[writes …]`.
fn render_catalog() -> String {
    let width = CATALOG
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(0)
        .max("selftime".len());
    let annotate = |name: &str| {
        let mut tags = String::new();
        if supports_trace(name) {
            tags.push_str("  [trace]");
        }
        if let Some(file) = bench_artifact(name) {
            tags.push_str(&format!("  [writes {file}]"));
        }
        tags
    };
    let mut out = String::from("experiments:\n");
    for (name, summary) in CATALOG {
        out.push_str(&format!("  {name:width$}  {summary}{}\n", annotate(name)));
    }
    out.push_str(&format!(
        "  {:width$}  every experiment in ALL_EXPERIMENTS order\n",
        "all"
    ));
    out.push_str(&format!(
        "  {:width$}  wall-clock self-benchmark{}\n",
        "selftime",
        annotate("selftime")
    ));
    out.push_str(&format!(
        "  {:width$}  compare two benchmark/metrics snapshots metric by metric\n",
        "perfdiff"
    ));
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
    let candidates = CATALOG
        .iter()
        .map(|(n, _)| *n)
        .chain(["all", "selftime", "perfdiff", "list"]);
    if let Some((best, dist)) = candidates
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
         \x20            [--engine batched|reference] [--selftime-baseline FILE]\n\
         \x20            [--selftime-tolerance F]\n\
         \x20            <experiment>...\n\
         \x20      repro perfdiff OLD.json NEW.json [--tolerance F] [--report FILE]\n\
         experiments: fig9 fig9a30 fig10 fig10a30 table3 table4 tcgnn reorder fig11 \
         fig12 fig13 alpha futurework bell fused table5 autotune sanitize verify fastcheck \
         formats profile datasets serve fused-mha all selftime\n\
         run `repro list` for one-line summaries"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
