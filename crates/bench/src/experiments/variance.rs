//! Fig. 12 — sensitivity to node-degree variance: HP-SpMM's speedup over
//! GE-SpMM on ten graphs with average degree ≈ 23 and growing degree
//! standard deviation, with Pearson's correlation (the paper reports
//! r = 0.90).

use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::time_id;
use crate::table;
use hpsparse_datasets::variance_family;
use hpsparse_sim::DeviceSpec;
use hpsparse_sparse::DegreeStats;
use serde_json::json;

/// Pearson correlation coefficient of two equal-length samples.
pub fn pearson_r(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    let n = x.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
        vy += (b - my) * (b - my);
    }
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx * vy).sqrt()
    }
}

/// Runs the ten-graph family and correlates speedup with degree std-dev.
pub fn run(effort: Effort, k: usize) -> ExperimentOutput {
    let device = DeviceSpec::v100();
    let nodes = match effort {
        Effort::Quick => 4_000,
        Effort::Full => 20_000,
    };
    let family = variance_family(nodes, 23.0, 10, 0x000f_1612);
    let mut stds = Vec::new();
    let mut speedups = Vec::new();
    let mut rows = Vec::new();
    for (i, g) in family.iter().enumerate() {
        let stats = DegreeStats::of(g.adjacency());
        let s = g.to_hybrid();
        let hp = time_id("hp-spmm", &device, &s, k);
        let ge = time_id("gespmm", &device, &s, k);
        let speedup = ge.exec_ms / hp.exec_ms;
        stds.push(stats.std_dev);
        speedups.push(speedup);
        rows.push(vec![
            format!("G{i}"),
            format!("{:.1}", stats.mean),
            format!("{:.1}", stats.std_dev),
            table::ms(hp.exec_ms),
            table::ms(ge.exec_ms),
            table::speedup(speedup),
        ]);
    }
    let r = pearson_r(&stds, &speedups);
    let text = format!(
        "Fig. 12 — speedup over GE-SpMM vs degree standard deviation \
         ({nodes} nodes, avg degree ≈ 23, K = {k}, {})\n\n{}\nPearson's r = {:.2} \
         (paper: 0.90)\n",
        device.name,
        table::render(
            &[
                "Graph",
                "Avg deg",
                "Std dev",
                "HP ms",
                "GE-SpMM ms",
                "Speedup"
            ],
            &rows
        ),
        r
    );
    ExperimentOutput::new(
        text,
        json!({
            "device": device.name,
            "k": k,
            "std_devs": stds,
            "speedups": speedups,
            "pearson_r": r,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_of_perfect_line_is_one() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson_r(&x, &y) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson_r(&x, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_constant_is_zero() {
        assert_eq!(pearson_r(&[1.0, 2.0], &[5.0, 5.0]), 0.0);
        assert_eq!(pearson_r(&[1.0], &[5.0]), 0.0);
    }
}
