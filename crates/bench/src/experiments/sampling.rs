//! Fig. 10 — kernel performance on the graph-sampling dataset
//! (838 sampled subgraphs, K = 64, Tesla V100).
//!
//! The paper plots per-subgraph times; with 838 inputs this harness
//! reports the distribution: per-baseline average speedup, the share of
//! subgraphs on which HP wins (the "Percentage" column of Table III), and
//! a size-bucketed breakdown.

use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::{contenders, geomean, sweep_key, time, time_id, BaselineStats, SweepKey};
use crate::table;
use hpsparse_core::catalog::Op;
use hpsparse_datasets::store::{self, Memo};
use hpsparse_sim::DeviceSpec;
use rayon::prelude::*;
use serde_json::json;
use std::sync::{Arc, OnceLock};

/// Per-baseline speedup distributions over the corpus, plus each
/// subgraph's edge count (aligned with the speedup vectors).
pub type CorpusStats = (Vec<BaselineStats>, Vec<usize>);

/// The corpus sweep, run once per (device, effort, K) per process:
/// `fig10`/`fig10a30` and `table3` share the stats, and a repeated call
/// returns the same `Arc`.
pub fn collect(device: &DeviceSpec, effort: Effort, k: usize) -> Arc<CorpusStats> {
    static SWEEPS: OnceLock<Memo<SweepKey, CorpusStats>> = OnceLock::new();
    SWEEPS
        .get_or_init(Memo::default)
        .get_or_build(sweep_key(device, effort, k), || sweep(device, effort, k))
}

/// Subgraphs run in parallel (each launch builds its own simulator); the
/// per-graph results are then folded into the per-baseline vectors
/// **in corpus order**, so every speedup vector — and everything derived
/// from it, percentiles included — matches the sequential run exactly.
fn sweep(device: &DeviceSpec, effort: Effort, k: usize) -> CorpusStats {
    let corpus = store::corpus(effort.corpus_size(), 0xc0ffee);
    let sides = [(Op::Spmm, "hp-spmm"), (Op::Sddmm, "hp-sddmm")];
    // Per subgraph: its nnz and HP's speedup over each SpMM, then each
    // SDDMM, baseline.
    let per_graph: Vec<(usize, Vec<f64>)> = corpus
        .par_iter()
        .map(|g| {
            let s = g.to_hybrid();
            let mut speedups = Vec::new();
            for (op, ours) in sides {
                let hp = time_id(ours, device, &s, k);
                let baselines =
                    contenders(op).map(|row| time(&row.auto(device, &s, k), device, &s, k));
                speedups.extend(baselines.map(|t| t.exec_ms / hp.exec_ms));
            }
            (s.nnz(), speedups)
        })
        .collect();

    let rows = sides.iter().flat_map(|&(op, _)| contenders(op));
    let stats = rows
        .enumerate()
        .map(|(i, row)| BaselineStats {
            // A baseline has one planner variant: its default instance.
            kernel: row.planner_variants()[0].name().to_string(),
            is_spmm: row.op == Op::Spmm,
            speedups: per_graph.iter().map(|(_, sp)| sp[i]).collect(),
        })
        .collect();
    let sizes = per_graph.iter().map(|(nnz, _)| *nnz).collect();
    (stats, sizes)
}

/// Renders the Fig. 10 summary.
pub fn run(device: &DeviceSpec, effort: Effort, k: usize) -> ExperimentOutput {
    let stats = collect(device, effort, k);
    render(device, k, &stats.0, &stats.1)
}

/// Formats collected stats.
pub fn render(
    device: &DeviceSpec,
    k: usize,
    stats: &[BaselineStats],
    sizes: &[usize],
) -> ExperimentOutput {
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for st in stats {
        rows.push(vec![
            st.op().to_string(),
            st.kernel.clone(),
            table::speedup(st.average()),
            format!("{:.1}%", st.win_rate() * 100.0),
            table::speedup(percentile(&st.speedups, 0.1)),
            table::speedup(percentile(&st.speedups, 0.9)),
        ]);
        json_rows.push(json!({
            "op": st.op(),
            "kernel": st.kernel,
            "avg_speedup": st.average(),
            "win_rate": st.win_rate(),
        }));
    }

    // Size-bucketed HP-vs-GE-SpMM view (the imbalance story is size- and
    // skew-dependent).
    let mut bucket_text = String::new();
    if let Some(ge) = stats.iter().find(|s| s.kernel == "GE-SpMM") {
        let mut buckets: Vec<(usize, Vec<f64>)> = Vec::new();
        for (&nnz, &sp) in sizes.iter().zip(&ge.speedups) {
            let b = nnz.next_power_of_two().trailing_zeros() as usize;
            match buckets.iter_mut().find(|(key, _)| *key == b) {
                Some((_, v)) => v.push(sp),
                None => buckets.push((b, vec![sp])),
            }
        }
        buckets.sort_by_key(|(b, _)| *b);
        bucket_text.push_str("\nHP-SpMM speedup over GE-SpMM by subgraph size:\n");
        for (b, v) in buckets {
            bucket_text.push_str(&format!(
                "  ~2^{b:<2} edges: {:>4} subgraphs, geomean {:.2}x\n",
                v.len(),
                geomean(&v)
            ));
        }
    }

    let text = format!(
        "Fig. 10 — graph-sampling dataset ({} subgraphs), K = {k}, {}\n\n{}{}",
        sizes.len(),
        device.name,
        table::render(
            &["Op", "Baseline", "Avg speedup", "HP wins", "p10", "p90"],
            &rows
        ),
        bucket_text
    );
    ExperimentOutput::new(
        text,
        json!({
            "device": device.name,
            "k": k,
            "subgraphs": sizes.len(),
            "baselines": json_rows,
        }),
    )
}

fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_bounds() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 3.0);
        assert_eq!(percentile(&xs, 0.5), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn render_summarises_all_baselines() {
        let stats = vec![
            BaselineStats {
                kernel: "GE-SpMM".into(),
                is_spmm: true,
                speedups: vec![1.5, 2.0, 0.9],
            },
            BaselineStats {
                kernel: "DGL-SDDMM".into(),
                is_spmm: false,
                speedups: vec![1.2, 1.4, 1.6],
            },
        ];
        let out = render(&DeviceSpec::v100(), 64, &stats, &[1000, 4000, 16_000]);
        assert!(out.text.contains("GE-SpMM"));
        assert!(out.text.contains("HP wins"));
        assert!(out.text.contains("by subgraph size"));
        let rows = out.json["baselines"].as_array().unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn win_rate_counts_correctly() {
        let st = BaselineStats {
            kernel: "x".into(),
            is_spmm: true,
            speedups: vec![0.5, 1.0, 2.0, 3.0],
        };
        assert!((st.win_rate() - 0.75).abs() < 1e-12);
    }
}
