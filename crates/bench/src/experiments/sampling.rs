//! Fig. 10 — kernel performance on the graph-sampling dataset
//! (838 sampled subgraphs, K = 64, Tesla V100).
//!
//! The paper plots per-subgraph times; with 838 inputs this harness
//! reports the distribution: per-baseline average speedup, the share of
//! subgraphs on which HP wins (the "Percentage" column of Table III), and
//! a size-bucketed breakdown.

use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::{by_input, geomean, speedups, sweep, Inputs, Record};
use crate::table;
use hpsparse_sim::DeviceSpec;
use serde_json::json;

/// Renders the Fig. 10 summary from the corpus sweep.
pub fn run(device: &DeviceSpec, effort: Effort, k: usize) -> ExperimentOutput {
    let records = sweep(Inputs::Corpus, device, effort, k);
    render(device, k, &records).with_shared_records(vec![records])
}

/// Formats a corpus sweep's records.
pub fn render(device: &DeviceSpec, k: usize, records: &[Record]) -> ExperimentOutput {
    let stats = speedups(records);
    let sizes: Vec<usize> = by_input(records).map(|input| input[0].nnz).collect();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for st in &stats {
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
    use crate::runner::record;
    use hpsparse_core::catalog::Op;

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
        let sizes = [1000, 4000, 16_000];
        let records: Vec<Record> = sizes
            .iter()
            .zip([1.5, 2.0, 0.9])
            .enumerate()
            .flat_map(|(i, (&nnz, ge_ms))| {
                let g = format!("s{i}");
                [
                    record(&g, nnz, Op::Spmm, "HP-SpMM", 1.0),
                    record(&g, nnz, Op::Spmm, "GE-SpMM", ge_ms),
                    record(&g, nnz, Op::Sddmm, "HP-SDDMM", 0.5),
                    record(&g, nnz, Op::Sddmm, "DGL-SDDMM", 0.7),
                ]
            })
            .collect();
        let out = render(&DeviceSpec::v100(), 64, &records);
        assert!(out.text.contains("(3 subgraphs)"), "{}", out.text);
        assert!(out.text.contains("GE-SpMM"));
        assert!(out.text.contains("HP wins"));
        assert!(out.text.contains("by subgraph size"));
        let rows = out.json["baselines"].as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(out.json["subgraphs"].as_u64(), Some(3));
    }
}
