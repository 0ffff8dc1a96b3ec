//! End-to-end byte-identity of observability artefacts across thread
//! counts: `repro --quick --trace --metrics profile serve` must export
//! byte-identical trace and metrics files at RAYON_NUM_THREADS 1 and 4 —
//! two whole-process runs, one pair of artefact files each.
//!
//! The pool size is a host-speed choice and may not reach the timeline or
//! the metrics registry. `profile` exercises per-launch SM timelines;
//! `serve` exercises device batch and halo lanes plus the per-request span
//! trees.

use std::path::PathBuf;
use std::process::Command;

fn run(threads: &str) -> (String, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("engine_bytes");
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let trace = dir.join(format!("trace-{threads}.json"));
    let metrics = dir.join(format!("metrics-{threads}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--quick",
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
        "repro at {threads} thread(s) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        std::fs::read_to_string(&trace).expect("trace file written"),
        std::fs::read_to_string(&metrics).expect("metrics file written"),
    )
}

#[test]
fn traced_exports_are_byte_identical_across_threads() {
    let (trace_one, metrics_one) = run("1");
    assert!(
        trace_one.contains("\"requests\""),
        "serve request lanes present in the trace"
    );
    assert!(
        metrics_one.contains("serve.request.latency_cycles"),
        "serve stage histograms present in the metrics"
    );
    let (trace, metrics) = run("4");
    assert_eq!(trace, trace_one, "trace bytes diverged at 4 threads");
    assert_eq!(metrics, metrics_one, "metrics bytes diverged at 4 threads");
}
