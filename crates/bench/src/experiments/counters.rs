//! `repro counters` — every simulated counter under the byte gate: one row
//! per launch of every [`Record`] the experiments of `repro all` measured,
//! in table order, each measurement once (a sweep several experiments read
//! is listed under the first). A row holds the launch's scope —
//! experiment / device / K / graph / kernel [/ variant] / launch — as its
//! `id`, then cycles, DRAM bytes, L2 hit rate, tail utilisation, imbalance
//! and [`attribute`]'s verdict — `null` for a report in which no warp
//! issued an instruction (a host pass, such as Sputnik's row sort, or an
//! empty launch), which has no GPU resource to be bound by. It launches
//! nothing itself: it reads its
//! sources' records, and [`Experiment::execute`](super::Experiment::execute)
//! runs each source once per process, so inside `all` the join costs no
//! simulation.

use crate::experiments::{Effort, ExperimentOutput, EXPERIMENTS};
use crate::runner::{Record, Records};
use crate::table;
use hpsparse_sim::{attribute, LaunchReport};
use serde_json::json;
use std::sync::Arc;

/// Runs (or reuses) every experiment of `all` before this row and joins
/// their records.
pub fn run(effort: Effort) -> ExperimentOutput {
    let sources: Vec<_> = EXPERIMENTS
        .iter()
        .take_while(|e| e.name != "counters")
        .filter(|e| e.in_all)
        .map(|e| e.execute(effort))
        .collect();
    render(effort, sources.iter().map(|out| (out.id, &out.records[..])))
}

/// A record's launches with their roles: the preprocessing launch, then
/// each execution launch by its index.
fn roles(r: &Record) -> impl Iterator<Item = (String, &LaunchReport)> {
    let pre = r
        .launches
        .preprocess
        .iter()
        .map(|p| ("preprocess".to_string(), p));
    let exec = r.launches.exec.iter().enumerate();
    pre.chain(exec.map(|(i, report)| (format!("exec{i}"), report)))
}

/// One launch's row.
fn row(experiment: &str, r: &Record, role: &str, report: &LaunchReport) -> serde_json::Value {
    let variant = match r.variant.as_str() {
        "" => String::new(),
        v => format!(" / {v}"),
    };
    json!({
        "id": format!(
            "{experiment} / {} / K={} / {} / {}{variant} / {role}",
            r.device.name, r.k, r.graph, r.kernel
        ),
        "cycles": report.cycles,
        "dram_bytes": report.dram_bytes(),
        "l2_hit_rate": report.l2_hit_rate,
        "tail_utilization": report.tail_utilization,
        "imbalance": report.imbalance(),
        "bound": (report.totals.instructions > 0).then(|| attribute(report, &r.device).verdict()),
    })
}

/// The view over `sources`, each an experiment's name and record sets in
/// table order; a record set already listed (by pointer) is skipped.
pub fn render<'a>(
    effort: Effort,
    sources: impl IntoIterator<Item = (&'a str, &'a [Records])>,
) -> ExperimentOutput {
    let mut seen: Vec<&Records> = Vec::new();
    let mut rows = Vec::new();
    let mut table_rows = Vec::new();
    let mut total_records = 0;
    for (experiment, sets) in sources {
        let (mut records, first_row) = (0, rows.len());
        let (mut cycles, mut dram, mut hits, mut traffic) = (0u64, 0u64, 0u64, 0u64);
        for set in sets {
            if seen.iter().any(|s| Arc::ptr_eq(s, set)) {
                continue;
            }
            seen.push(set);
            for r in set.iter() {
                records += 1;
                for (role, report) in roles(r) {
                    rows.push(row(experiment, r, &role, report));
                    cycles += report.cycles;
                    dram += report.dram_bytes();
                    hits += report.totals.l2_hit_sectors;
                    traffic += report.traffic();
                }
            }
        }
        if records == 0 {
            continue;
        }
        total_records += records;
        table_rows.push(vec![
            experiment.to_string(),
            records.to_string(),
            (rows.len() - first_row).to_string(),
            cycles.to_string(),
            format!("{:.1}", dram as f64 / 1e6),
            format!("{:.1}%", hits as f64 / traffic.max(1) as f64 * 100.0),
        ]);
    }
    let text = format!(
        "counters — {} launches of {total_records} records at {} effort, one row each in \
         counters.json (id = experiment / device / K / graph / kernel [/ variant] / launch)\n\n{}",
        rows.len(),
        effort.label(),
        table::render(
            &[
                "Experiment",
                "Records",
                "Launches",
                "Cycles",
                "DRAM MB",
                "L2 hits"
            ],
            &table_rows
        )
    );
    let mut out = ExperimentOutput::new(
        text,
        json!({
            "effort": effort.label(),
            "records": total_records,
            "launches": rows.len(),
            "rows": rows,
        }),
    );
    out.rows_per_line = true;
    out
}
