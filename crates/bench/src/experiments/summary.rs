//! Table III — summary of kernel benchmark results across both datasets
//! and both devices (Tesla V100 and Tesla A30): a join over the records
//! Fig. 9 and Fig. 10 collect, launching nothing itself.

use crate::experiments::fullgraph::{self, GraphRecord};
use crate::experiments::{sampling, Effort, ExperimentOutput};
use crate::runner::BaselineStats;
use crate::table;
use hpsparse_sim::DeviceSpec;
use serde_json::json;

/// Table III from the four memoised sweeps: 2 devices × (full-graph +
/// graph-sampling). Only sweeps no earlier experiment of this process ran
/// are run here.
pub fn run(effort: Effort, k: usize) -> ExperimentOutput {
    let sweeps = [DeviceSpec::v100(), DeviceSpec::a30()].map(|device| {
        let fg = fullgraph::collect(&device, effort, k);
        let gs = sampling::collect(&device, effort, k);
        (device, fg, gs)
    });
    let per_device: Vec<_> = sweeps
        .iter()
        .map(|(device, fg, gs)| (device, &fg[..], &gs.0[..]))
        .collect();
    render(k, &per_device)
}

/// One device's side of the join: its Fig. 9 records and Fig. 10 stats.
pub type DeviceSweeps<'a> = (&'a DeviceSpec, &'a [GraphRecord], &'a [BaselineStats]);

/// The (device, baseline) cell of one dataset. A hole in the grid is a
/// harness bug, not a ×0.00.
fn cell<'a>(stats: &'a [BaselineStats], kernel: &str, device: &DeviceSpec) -> &'a BaselineStats {
    stats
        .iter()
        .find(|s| s.kernel == kernel)
        .unwrap_or_else(|| panic!("table3: a sweep on {} has no {kernel}", device.name))
}

/// Joins the sweeps into the paper's layout: one row per baseline (in the
/// first device's Fig. 9 order), columns for (device × dataset) averages
/// plus the sampling win percentage.
///
/// # Panics
/// If a baseline is missing from any device's full-graph or sampling side.
pub fn render(k: usize, per_device: &[DeviceSweeps]) -> ExperimentOutput {
    let per_device: Vec<_> = per_device
        .iter()
        .map(|&(device, fg, gs)| (device, fullgraph::speedups(fg), gs))
        .collect();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_rows = Vec::new();
    for baseline in per_device.first().map_or(&[][..], |(_, fg, _)| &fg[..]) {
        let mut row = vec![baseline.op().to_string(), baseline.kernel.clone()];
        for (device, fg, gs) in &per_device {
            let fg_avg = cell(fg, &baseline.kernel, device).average();
            let gs = cell(gs, &baseline.kernel, device);
            let (gs_avg, win) = (gs.average(), gs.win_rate());
            row.push(table::speedup(fg_avg));
            row.push(table::speedup(gs_avg));
            row.push(format!("{:.0}%", win * 100.0));
            json_rows.push(json!({
                "device": device.name,
                "kernel": baseline.kernel,
                "op": baseline.op(),
                "fullgraph_avg": fg_avg,
                "sampling_avg": gs_avg,
                "sampling_win_rate": win,
            }));
        }
        rows.push(row);
    }

    let mut header = vec!["Op".to_string(), "Baseline".to_string()];
    for (device, _, _) in &per_device {
        let short = device.name.trim_start_matches("Tesla ");
        header.extend(["full-graph", "sampling", "wins"].map(|col| format!("{short} {col}")));
    }
    let text = format!(
        "Table III — average HP speedups (K = {k})\n\n{}",
        table::render(
            &header.iter().map(String::as_str).collect::<Vec<_>>(),
            &rows
        )
    );
    ExperimentOutput::new(text, json!({ "k": k, "rows": json_rows }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(graph: &str, hp: f64, spmm: &[(&str, f64)], sddmm: &[(&str, f64)]) -> GraphRecord {
        let named = |xs: &[(&str, f64)]| xs.iter().map(|&(n, ms)| (n.to_string(), ms)).collect();
        GraphRecord {
            graph: graph.into(),
            nnz: 1000,
            scale_factor: 1.0,
            hp_spmm_ms: hp,
            spmm_baselines: named(spmm),
            hp_sddmm_ms: hp * 0.5,
            sddmm_baselines: named(sddmm),
        }
    }

    fn stats(kernel: &str, is_spmm: bool, speedups: &[f64]) -> BaselineStats {
        BaselineStats {
            kernel: kernel.into(),
            is_spmm,
            speedups: speedups.to_vec(),
        }
    }

    /// Two devices × two baselines, sampling stats deliberately in the
    /// opposite order from the full-graph records.
    fn grid(scale: f64) -> (Vec<GraphRecord>, Vec<BaselineStats>) {
        let fg = vec![
            record("a", 0.3, &[("GE-SpMM", 0.7 * scale)], &[("DGL-SDDMM", 0.2)]),
            record("b", 1.1, &[("GE-SpMM", 1.9 * scale)], &[("DGL-SDDMM", 0.9)]),
            record("c", 0.9, &[("GE-SpMM", 0.8 * scale)], &[("DGL-SDDMM", 0.4)]),
        ];
        let gs = vec![
            stats("DGL-SDDMM", false, &[1.3 * scale, 0.8, 2.1]),
            stats("GE-SpMM", true, &[0.9, 1.7 * scale, 1.0, 3.3]),
        ];
        (fg, gs)
    }

    #[test]
    fn table3_cells_are_the_bits_fig9_and_fig10_report_for_the_same_records() {
        let (v100, a30) = (DeviceSpec::v100(), DeviceSpec::a30());
        let (fg_v, gs_v) = grid(1.0);
        let (fg_a, gs_a) = grid(1.37);
        let sweeps = [(&v100, &fg_v[..], &gs_v[..]), (&a30, &fg_a[..], &gs_a[..])];
        let out = render(64, &sweeps);

        let rows = out.json["rows"].as_array().unwrap();
        let got: Vec<(&str, &str)> = rows
            .iter()
            .map(|r| (r["kernel"].as_str().unwrap(), r["device"].as_str().unwrap()))
            .collect();
        // Row order = Fig. 9's baseline order, devices in the given order.
        assert_eq!(
            got,
            [
                ("GE-SpMM", "Tesla V100"),
                ("GE-SpMM", "Tesla A30"),
                ("DGL-SDDMM", "Tesla V100"),
                ("DGL-SDDMM", "Tesla A30"),
            ]
        );
        for row in rows {
            let (_, fg, gs) = sweeps
                .iter()
                .find(|(d, _, _)| row["device"].as_str() == Some(d.name))
                .unwrap();
            let kernel = row["kernel"].as_str().unwrap();
            let fg = fullgraph::speedups(fg);
            let fg = fg.iter().find(|s| s.kernel == kernel).unwrap();
            let gs = gs.iter().find(|s| s.kernel == kernel).unwrap();
            assert_eq!(row["op"].as_str(), Some(fg.op()));
            for (field, want) in [
                ("fullgraph_avg", fg.average()),
                ("sampling_avg", gs.average()),
                ("sampling_win_rate", gs.win_rate()),
            ] {
                let got = row[field].as_f64().unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "{kernel} {field}");
            }
        }
        // The text is the same join: Fig. 9's own summary line and the
        // table print one geomean.
        let fig9 = fullgraph::render(&a30, 64, &fg_a).text;
        let avg = fullgraph::speedups(&fg_a)[0].average();
        assert!(fig9.contains(&format!("vs GE-SpMM: {avg:.2}x")), "{fig9}");
        assert!(out.text.contains(&table::speedup(avg)), "{}", out.text);
        assert!(out.text.contains("A30 full-graph"), "{}", out.text);
    }

    #[test]
    #[should_panic(expected = "a sweep on Tesla A30 has no GE-SpMM")]
    fn a_missing_cell_is_a_panic_not_a_zero() {
        let (v100, a30) = (DeviceSpec::v100(), DeviceSpec::a30());
        let (fg, gs) = grid(1.0);
        render(64, &[(&v100, &fg, &gs), (&a30, &fg, &gs[..1])]);
    }
}
