//! `repro selftime` — wall-clock self-benchmark of the repro harness.
//!
//! Runs every experiment of `repro all` at the requested effort, measuring
//! each one's wall time (output text is produced and discarded). The JSON
//! side is one run record — per-experiment seconds plus the thread count —
//! which the `repro` binary folds into `BENCH_repro.json` under
//! `runs.<threads>`, so the harness fan-out's speedup can be tracked across
//! commits *and* across core counts in one committed file.

use crate::experiments::{Effort, ExperimentOutput, EXPERIMENTS};
use serde_json::json;
use std::time::Instant;

/// Times every `repro all` experiment and reports the breakdown. Each
/// experiment's output goes to `each` once its clock has stopped.
pub fn run(effort: Effort, mut each: impl FnMut(&ExperimentOutput)) -> ExperimentOutput {
    let started = Instant::now();
    let mut entries = Vec::new();
    for exp in EXPERIMENTS.iter().filter(|e| e.in_all) {
        let t0 = Instant::now();
        let out = exp.execute(effort);
        let seconds = t0.elapsed().as_secs_f64();
        // The record keeps only the output's size, a sanity witness that
        // the experiment ran.
        entries.push((exp.name, seconds, out.text.len()));
        each(&out);
    }
    let total = started.elapsed().as_secs_f64();

    let mut text = format!(
        "repro selftime — effort {}, {} threads\n\n",
        effort.label(),
        rayon::current_num_threads()
    );
    for (name, seconds, _) in &entries {
        text.push_str(&format!("  {name:<12} {seconds:8.2}s\n"));
    }
    text.push_str(&format!("  {:<12} {total:8.2}s\n", "total"));

    let json_entries: Vec<serde_json::Value> = entries
        .iter()
        .map(|(name, seconds, text_len)| {
            json!({ "experiment": name, "seconds": seconds, "output_bytes": text_len })
        })
        .collect();
    let mut out = ExperimentOutput::new(
        text,
        json!({
            "mode": "selftime",
            "effort": effort.label(),
            "threads": rayon::current_num_threads(),
            "experiments": json_entries,
            "total_seconds": total,
        }),
    );
    out.id = "selftime";
    out
}
