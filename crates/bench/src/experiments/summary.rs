//! Table III — summary of kernel benchmark results across both datasets
//! and both devices (Tesla V100 and Tesla A30): a join over the records
//! Fig. 9 and Fig. 10 collect, launching nothing itself.

use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::{speedups, sweep, BaselineStats, Inputs, Record};
use crate::table;
use hpsparse_sim::DeviceSpec;
use serde_json::json;

/// Table III from the four memoised sweeps: 2 devices × (full-graph +
/// graph-sampling). Only sweeps no earlier experiment of this process ran
/// are run here.
pub fn run(effort: Effort, k: usize) -> ExperimentOutput {
    let sweeps = [DeviceSpec::v100(), DeviceSpec::a30()].map(|device| {
        let fg = sweep(Inputs::FullGraph, &device, effort, k);
        let gs = sweep(Inputs::Corpus, &device, effort, k);
        (device, fg, gs)
    });
    let per_device: Vec<_> = sweeps
        .iter()
        .map(|(device, fg, gs)| (device, &fg[..], &gs[..]))
        .collect();
    let records = sweeps
        .iter()
        .flat_map(|(_, fg, gs)| [fg.clone(), gs.clone()]);
    render(k, &per_device).with_shared_records(records.collect())
}

/// The (device, baseline) cell of one dataset. A hole in the grid is a
/// harness bug, not a ×0.00.
fn cell<'a>(stats: &'a [BaselineStats], kernel: &str, device: &DeviceSpec) -> &'a BaselineStats {
    stats
        .iter()
        .find(|s| s.kernel == kernel)
        .unwrap_or_else(|| panic!("table3: a sweep on {} has no {kernel}", device.name))
}

/// Joins each device's full-graph and sampling records into the paper's
/// layout: one row per baseline (in the first device's Fig. 9 order),
/// columns for (device × dataset) averages plus the sampling win
/// percentage.
///
/// # Panics
/// If a baseline is missing from any device's full-graph or sampling side.
pub fn render(k: usize, per_device: &[(&DeviceSpec, &[Record], &[Record])]) -> ExperimentOutput {
    let per_device: Vec<_> = per_device
        .iter()
        .map(|&(device, fg, gs)| (device, speedups(fg), speedups(gs)))
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
    use crate::experiments::{fullgraph, sampling};
    use crate::runner::record;
    use hpsparse_core::catalog::Op;

    /// One input's records: HP and one contender per operation. HP-SDDMM
    /// takes half HP-SpMM's time, so a contender paired with the other
    /// operation's HP record gets other bits.
    fn input(graph: &str, hp: f64, ge: f64, dgl: f64, sddmm_first: bool) -> Vec<Record> {
        let spmm = [
            record(graph, 1000, Op::Spmm, "HP-SpMM", hp),
            record(graph, 1000, Op::Spmm, "GE-SpMM", ge),
        ];
        let sddmm = [
            record(graph, 1000, Op::Sddmm, "HP-SDDMM", hp * 0.5),
            record(graph, 1000, Op::Sddmm, "DGL-SDDMM", dgl),
        ];
        if sddmm_first {
            [sddmm, spmm].concat()
        } else {
            [spmm, sddmm].concat()
        }
    }

    /// One device's full-graph and sampling records; each sampling input
    /// lists its SDDMM side first, the opposite order from the full-graph
    /// inputs.
    fn grid(scale: f64) -> (Vec<Record>, Vec<Record>) {
        let fg = [
            input("Flickr", 0.3, 0.7 * scale, 0.2, false),
            input("AM", 1.1, 1.9 * scale, 0.9, false),
            input("ddi", 0.9, 0.8 * scale, 0.4, false),
        ];
        let gs = [
            input("s0", 0.5, 0.45, 0.65 * scale, true),
            input("s1", 0.4, 0.68 * scale, 0.2, true),
            input("s2", 1.0, 1.0, 0.5, true),
            input("s3", 0.3, 0.99, 2.1, true),
        ];
        (fg.concat(), gs.concat())
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn table3_cells_are_the_bits_fig9_and_fig10_report_for_the_same_records() {
        let (v100, a30) = (DeviceSpec::v100(), DeviceSpec::a30());
        let (fg_v, gs_v) = grid(1.0);
        let (fg_a, gs_a) = grid(1.37);
        let sweeps = [(&v100, &fg_v[..], &gs_v[..]), (&a30, &fg_a[..], &gs_a[..])];
        let out = render(64, &sweeps);

        // The join pairs each contender with its own operation's HP.
        let fg = speedups(&fg_v);
        assert_eq!(
            bits(&fg[0].speedups),
            bits(&[0.7 / 0.3, 1.9 / 1.1, 0.8 / 0.9])
        );
        let dgl = [0.2 / (0.3 * 0.5), 0.9 / (1.1 * 0.5), 0.4 / (0.9 * 0.5)];
        assert_eq!(bits(&fg[1].speedups), bits(&dgl));
        let gs = speedups(&gs_v);
        assert_eq!(
            bits(&gs[1].speedups),
            bits(&[0.45 / 0.5, 0.68 / 0.4, 1.0, 0.99 / 0.3])
        );

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
            let (device, fg, gs) = sweeps
                .iter()
                .find(|(d, _, _)| row["device"].as_str() == Some(d.name))
                .unwrap();
            let kernel = row["kernel"].as_str().unwrap();
            let fg = speedups(fg);
            let fg = fg.iter().find(|s| s.kernel == kernel).unwrap();
            let fig10 = sampling::render(device, 64, gs).json;
            let fig10 = fig10["baselines"].as_array().unwrap();
            let gs = fig10
                .iter()
                .find(|b| b["kernel"].as_str() == Some(kernel))
                .unwrap();
            assert_eq!(row["op"].as_str(), Some(fg.op()));
            for (field, want) in [
                ("fullgraph_avg", fg.average()),
                ("sampling_avg", gs["avg_speedup"].as_f64().unwrap()),
                ("sampling_win_rate", gs["win_rate"].as_f64().unwrap()),
            ] {
                let got = row[field].as_f64().unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "{kernel} {field}");
            }
        }
        // The text is the same join: Fig. 9's own summary line and the
        // table print one geomean.
        let fig9 = fullgraph::render(&a30, Effort::Quick, 64, &fg_a).text;
        let avg = speedups(&fg_a)[0].average();
        assert!(fig9.contains(&format!("vs GE-SpMM: {avg:.2}x")), "{fig9}");
        assert!(out.text.contains(&table::speedup(avg)), "{}", out.text);
        assert!(out.text.contains("A30 full-graph"), "{}", out.text);
    }

    #[test]
    #[should_panic(expected = "a sweep on Tesla A30 has no GE-SpMM")]
    fn a_missing_cell_is_a_panic_not_a_zero() {
        let (v100, a30) = (DeviceSpec::v100(), DeviceSpec::a30());
        let (fg, gs) = grid(1.0);
        let holed: Vec<Record> = gs
            .iter()
            .filter(|r| r.kernel != "GE-SpMM")
            .cloned()
            .collect();
        render(64, &[(&v100, &fg, &gs), (&a30, &fg, &holed)]);
    }
}
