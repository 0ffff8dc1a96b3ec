//! One module per paper artefact; the experiment index lives in DESIGN.md.

pub mod ablation;
pub mod autotune;
pub mod counters;
pub mod datasets_table;
pub mod endtoend;
pub mod extensions;
pub mod formats;
pub mod fullgraph;
pub mod fused_mha;
pub mod kernel_profile;
pub mod ksweep;
pub mod preprocessing;
pub mod reordering;
pub mod sampling;
pub mod scorecard;
pub mod selftime;
pub mod serve;
pub mod summary;
pub mod variance;
pub mod verify;

use crate::runner::{Record, Records};
use hpsparse_datasets::store::Memo;
use hpsparse_sim::DeviceSpec;
use std::sync::{Arc, OnceLock};

/// A rendered experiment: human-readable text plus machine-readable JSON,
/// and the kernel walks both were made from.
pub struct ExperimentOutput {
    /// The experiment's name in [`EXPERIMENTS`], e.g. "fig9" — stamped by
    /// [`Experiment::execute`], empty on an output that did not go through
    /// it, so no module restates its own name.
    pub id: &'static str,
    /// Rendered tables/notes.
    pub text: String,
    /// Serialised results for EXPERIMENTS.md regeneration.
    pub json: serde_json::Value,
    /// Every kernel walk the experiment measured, in the order it made
    /// them; [`counters`] joins them. Empty for an experiment that walks no
    /// kernel.
    pub records: Vec<Records>,
    /// Whether the `--json` file writes each element of a top-level array
    /// on one line ([`Self::file_text`]).
    rows_per_line: bool,
}

impl ExperimentOutput {
    /// An output not yet attributed to a table row.
    pub(crate) fn new(text: String, json: serde_json::Value) -> Self {
        Self {
            id: "",
            text,
            json,
            records: Vec::new(),
            rows_per_line: false,
        }
    }

    /// The output carrying `records`, its experiment's own walks.
    pub(crate) fn with_records(mut self, records: Vec<Record>) -> Self {
        self.records = vec![Arc::new(records)];
        self
    }

    /// The output carrying record sets shared with other experiments (a
    /// memoised sweep's).
    pub(crate) fn with_shared_records(mut self, records: Vec<Records>) -> Self {
        self.records = records;
        self
    }

    /// The `--json` file's text: [`Self::json`] pretty-printed, or, for a
    /// view of many rows, each element of a top-level array on one line.
    pub fn file_text(&self) -> String {
        let pretty =
            |v: &serde_json::Value| serde_json::to_string_pretty(v).expect("a view serialises");
        let Some(fields) = self.json.as_object().filter(|_| self.rows_per_line) else {
            return pretty(&self.json);
        };
        let compact = |v: &serde_json::Value| serde_json::to_string(v).expect("a view serialises");
        let fields: Vec<String> = fields
            .iter()
            .map(|(key, value)| {
                let value = match value.as_array() {
                    Some(rows) if !rows.is_empty() => {
                        let rows: Vec<String> =
                            rows.iter().map(|r| format!("    {}", compact(r))).collect();
                        format!("[\n{}\n  ]", rows.join(",\n"))
                    }
                    _ => compact(value),
                };
                format!("  {}: {value}", compact(&serde_json::json!(key)))
            })
            .collect();
        format!("{{\n{}\n}}", fields.join(",\n"))
    }
}

/// Effort level: `quick` caps input sizes for CI-speed runs; `full` uses
/// the DESIGN.md scale (the numbers recorded in EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Effort {
    /// Small caps, sub-minute total runtime.
    Quick,
    /// The scale EXPERIMENTS.md reports.
    Full,
}

impl Effort {
    /// Edge cap for full-graph datasets.
    pub fn max_edges(self) -> usize {
        match self {
            Effort::Quick => 200_000,
            Effort::Full => hpsparse_datasets::DEFAULT_MAX_EDGES,
        }
    }

    /// Number of sampled subgraphs for graph-sampling experiments.
    pub fn corpus_size(self) -> usize {
        match self {
            Effort::Quick => 60,
            Effort::Full => 838,
        }
    }

    /// The `--quick`/`--full` flag spelling (for logs and JSON).
    pub fn label(self) -> &'static str {
        match self {
            Effort::Quick => "quick",
            Effort::Full => "full",
        }
    }
}

/// Feature dimension used by the kernel benchmarks (the paper's K = 64).
pub const DEFAULT_K: usize = 64;

/// One row of the experiment table: everything `repro` knows about an
/// experiment besides its implementation.
pub struct Experiment {
    /// The `repro <name>` word; also the output's [`ExperimentOutput::id`].
    pub name: &'static str,
    /// One-line summary for `repro list`.
    pub summary: &'static str,
    /// The implementation; [`Experiment::execute`] calls it under the trace
    /// span and stamps the id.
    run: fn(Effort) -> ExperimentOutput,
    /// Whether `repro all` (and thus `selftime`'s committed record) runs it.
    pub in_all: bool,
    /// Whether it attaches per-launch tracers, so `repro --trace` captures
    /// deep timelines from it — SM lanes and wave slices for `profile`,
    /// device batch/halo lanes plus per-request span trees for `serve` —
    /// rather than only the structural `experiment:` span every run gets.
    pub deep_trace: bool,
}

impl Experiment {
    const fn new(
        name: &'static str,
        summary: &'static str,
        run: fn(Effort) -> ExperimentOutput,
    ) -> Self {
        Self {
            name,
            summary,
            run,
            in_all: true,
            deep_trace: false,
        }
    }

    const fn not_in_all(mut self) -> Self {
        self.in_all = false;
        self
    }

    const fn deep_trace(mut self) -> Self {
        self.deep_trace = true;
        self
    }

    /// Runs the experiment under its `experiment:<name>` span and stamps
    /// the output with the row's name, once per (name, effort) per process:
    /// a repeated call (`scorecard` reading its sources inside `all`)
    /// returns the first run's `Arc`, as `runner::sweep` does for sweeps.
    pub fn execute(&self, effort: Effort) -> Arc<ExperimentOutput> {
        static RUNS: OnceLock<Memo<(&'static str, Effort), ExperimentOutput>> = OnceLock::new();
        RUNS.get_or_init(Memo::default)
            .get_or_build((self.name, effort), || {
                let _span = hpsparse_trace::span_with(
                    &format!("experiment:{}", self.name),
                    &[("effort", serde_json::json!(effort.label()))],
                );
                let mut out = (self.run)(effort);
                out.id = self.name;
                out
            })
    }
}

/// The experiment table, in `repro list` and `repro all` order — the one
/// list of experiments in this crate. `repro`'s `list`, `all`, usage line
/// and did-you-mean candidates, `selftime` and [`find`] all read it;
/// `tests/catalog_docs.rs` holds DESIGN.md's experiment tables to the same
/// set of names.
#[rustfmt::skip]
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment::new("formats", "§II storage-format comparison", |e| formats::run(e, DEFAULT_K)),
    Experiment::new("fig9", "kernel benchmarks, full-graph dataset (V100)",
        |e| fullgraph::run(&DeviceSpec::v100(), e, DEFAULT_K)),
    Experiment::new("fig9a30", "kernel benchmarks, full-graph dataset (A30)",
        |e| fullgraph::run(&DeviceSpec::a30(), e, DEFAULT_K)),
    Experiment::new("fig10", "kernel benchmarks, graph-sampling dataset (V100)",
        |e| sampling::run(&DeviceSpec::v100(), e, DEFAULT_K)),
    Experiment::new("fig10a30", "kernel benchmarks, graph-sampling dataset (A30)",
        |e| sampling::run(&DeviceSpec::a30(), e, DEFAULT_K)).not_in_all(),
    Experiment::new("table3", "average-speedup summary across devices and datasets",
        |e| summary::run(e, DEFAULT_K)),
    Experiment::new("table4", "preprocessing vs execution comparison (A30)",
        |e| preprocessing::run_table4(e, DEFAULT_K)),
    Experiment::new("tcgnn", "TC-GNN Tensor-Core comparison (RTX 3090)",
        |e| preprocessing::run_tcgnn(e, DEFAULT_K)),
    Experiment::new("reorder", "§IV-D reordering-runtime comparison",
        |e| reordering::run(e, DEFAULT_K)),
    Experiment::new("fig11", "DTP / HVMA / GCR ablation", |e| ablation::run(e, DEFAULT_K)),
    Experiment::new("fig12", "degree-variance sensitivity (Pearson's r)",
        |e| variance::run(e, DEFAULT_K)),
    Experiment::new("fig13", "feature-dimension (K) sensitivity", ksweep::run),
    Experiment::new("alpha", "DTP wave-factor design ablation",
        |e| ablation::alpha_sweep(e, DEFAULT_K)),
    Experiment::new("bell", "Blocked-ELL vs hybrid CSR/COO across structures",
        extensions::run_bell),
    Experiment::new("table5", "end-to-end GNN training", endtoend::run),
    Experiment::new("autotune", "kernel-planner evaluation: oracle match + plan cache",
        |e| autotune::run(&DeviceSpec::v100(), e, DEFAULT_K)),
    Experiment::new("verify", "memory safety: a sanitizer sweep over every kernel",
        |e| verify::run(&DeviceSpec::v100(), e)),
    Experiment::new("profile", "Nsight-style kernel profiles on Flickr",
        |e| kernel_profile::run(e, DEFAULT_K)).deep_trace(),
    Experiment::new("scorecard", "every paper claim against the gated view that measures it",
        scorecard::run),
    Experiment::new("counters", "every launch's simulated counters, one row per launch",
        counters::run),
    Experiment::new("datasets", "Table II stand-in verification", datasets_table::run).not_in_all(),
    Experiment::new("serve", "multi-GPU sharded inference serving under synthetic load",
        serve::run).not_in_all().deep_trace(),
    Experiment::new("fused-mha", "fused one-launch multi-head attention vs three-launch pipeline",
        |e| fused_mha::run(&DeviceSpec::v100(), e)).not_in_all(),
];

/// The table row for a `repro` name, if it is an experiment (the
/// meta-modes `all`, `selftime`, `perfdiff` and `list` are not).
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_is_reachable_by_its_name() {
        for exp in EXPERIMENTS {
            // `find` returns the first match, so this is also uniqueness.
            let found = find(exp.name).expect("row is dispatchable");
            assert!(std::ptr::eq(found, exp), "duplicate name `{}`", exp.name);
        }
        assert!(EXPERIMENTS.iter().any(|e| e.in_all));
        for meta in ["all", "selftime", "perfdiff", "list", ""] {
            assert!(find(meta).is_none(), "{meta:?} is a meta-mode, not a row");
        }
    }

    #[test]
    fn execute_stamps_the_rows_name_and_runs_once_per_effort() {
        let row = find("datasets").expect("a row");
        let out = row.execute(Effort::Quick);
        assert_eq!(out.id, "datasets");
        assert!(Arc::ptr_eq(&out, &row.execute(Effort::Quick)));
    }
}
