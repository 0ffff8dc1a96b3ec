//! End-to-end byte-identity of observability artefacts across cost
//! engines and thread counts: `repro --quick --engine E --trace --metrics
//! profile serve` must export byte-identical trace and metrics files for
//! both engines (reference, batched) at RAYON_NUM_THREADS 1 and 4 — four
//! whole-process runs, one pair of artefact files each.
//!
//! This is the artefact-level form of the engine contract: the engines
//! are host-speed choices, and neither the engine nor the pool size may
//! reach the timeline or the metrics registry. `profile` exercises
//! per-launch SM timelines; `serve` exercises device batch and halo lanes
//! plus the per-request span trees.

use std::path::PathBuf;
use std::process::Command;

fn run(engine: &str, threads: &str) -> (String, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("engine_bytes");
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let tag = format!("{engine}-{threads}");
    let trace = dir.join(format!("trace-{tag}.json"));
    let metrics = dir.join(format!("metrics-{tag}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--quick",
            "--engine",
            engine,
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
            "profile",
            "serve",
        ])
        // BENCH_serve.json lands in the cwd; keep it out of the repo.
        .current_dir(&dir)
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro --engine {engine} at {threads} thread(s) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        std::fs::read_to_string(&trace).expect("trace file written"),
        std::fs::read_to_string(&metrics).expect("metrics file written"),
    )
}

#[test]
fn traced_exports_are_byte_identical_across_engines_and_threads() {
    let (trace_ref, metrics_ref) = run("reference", "1");
    assert!(
        trace_ref.contains("\"requests\""),
        "serve request lanes present in the trace"
    );
    assert!(
        metrics_ref.contains("serve.request.latency_cycles"),
        "serve stage histograms present in the metrics"
    );
    for engine in ["reference", "batched"] {
        for threads in ["1", "4"] {
            if engine == "reference" && threads == "1" {
                continue;
            }
            let (trace, metrics) = run(engine, threads);
            assert_eq!(
                trace, trace_ref,
                "trace bytes diverged: {engine} at {threads} thread(s)"
            );
            assert_eq!(
                metrics, metrics_ref,
                "metrics bytes diverged: {engine} at {threads} thread(s)"
            );
        }
    }
}
