//! One module per paper artefact; the experiment index lives in DESIGN.md.

pub mod ablation;
pub mod autotune;
pub mod datasets_table;
pub mod endtoend;
pub mod extensions;
pub mod fastcheck;
pub mod formats;
pub mod fullgraph;
pub mod fused_mha;
pub mod kernel_profile;
pub mod ksweep;
pub mod preprocessing;
pub mod reordering;
pub mod sampling;
pub mod selftime;
pub mod serve;
pub mod summary;
pub mod variance;
pub mod verify;

use hpsparse_sim::DeviceSpec;

/// A rendered experiment: human-readable text plus machine-readable JSON.
pub struct ExperimentOutput {
    /// The experiment's name in [`EXPERIMENTS`], e.g. "fig9" — stamped by
    /// [`Experiment::execute`], empty on an output that did not go through
    /// it, so no module restates its own name.
    pub id: &'static str,
    /// Rendered tables/notes.
    pub text: String,
    /// Serialised results for EXPERIMENTS.md regeneration.
    pub json: serde_json::Value,
}

impl ExperimentOutput {
    /// An output not yet attributed to a table row.
    pub(crate) fn new(text: String, json: serde_json::Value) -> Self {
        Self { id: "", text, json }
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
    /// The benchmark artefact `repro` writes into the working directory
    /// from this experiment's JSON — what `repro perfdiff` compares.
    pub artifact: Option<&'static str>,
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
            artifact: None,
            deep_trace: false,
        }
    }

    const fn not_in_all(mut self) -> Self {
        self.in_all = false;
        self
    }

    const fn writes(mut self, file: &'static str) -> Self {
        self.artifact = Some(file);
        self
    }

    const fn deep_trace(mut self) -> Self {
        self.deep_trace = true;
        self
    }

    /// Runs the experiment under its `experiment:<name>` span and stamps
    /// the output with the row's name.
    pub fn execute(&self, effort: Effort) -> ExperimentOutput {
        let _span = hpsparse_trace::span_with(
            &format!("experiment:{}", self.name),
            &[("effort", serde_json::json!(effort.label()))],
        );
        let mut out = (self.run)(effort);
        out.id = self.name;
        out
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
    Experiment::new("verify", "memory safety: static proofs plus a sanitizer sweep over every kernel",
        |e| verify::run(&DeviceSpec::v100(), e)),
    Experiment::new("fastcheck", "differential test: observed vs unobserved walk vs cost-only entry",
        |e| fastcheck::run(&DeviceSpec::v100(), e)).not_in_all(),
    Experiment::new("profile", "Nsight-style kernel profiles on Flickr",
        |e| kernel_profile::run(e, DEFAULT_K)).deep_trace(),
    Experiment::new("datasets", "Table II stand-in verification", datasets_table::run).not_in_all(),
    Experiment::new("serve", "multi-GPU sharded inference serving under synthetic load",
        serve::run).not_in_all().writes("BENCH_serve.json").deep_trace(),
    Experiment::new("fused-mha", "fused one-launch multi-head attention vs three-launch pipeline",
        |e| fused_mha::run(&DeviceSpec::v100(), e)).not_in_all().writes("BENCH_fused_mha.json"),
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
    fn every_row_is_reachable_by_its_name_and_owns_its_artifact() {
        for (i, exp) in EXPERIMENTS.iter().enumerate() {
            // `find` returns the first match, so this is also uniqueness.
            let found = find(exp.name).expect("row is dispatchable");
            assert!(std::ptr::eq(found, exp), "duplicate name `{}`", exp.name);
            for other in &EXPERIMENTS[..i] {
                assert!(
                    exp.artifact.is_none() || exp.artifact != other.artifact,
                    "`{}` and `{}` write the same artefact",
                    exp.name,
                    other.name
                );
            }
        }
        assert!(EXPERIMENTS.iter().any(|e| e.in_all));
        for meta in ["all", "selftime", "perfdiff", "list", ""] {
            assert!(find(meta).is_none(), "{meta:?} is a meta-mode, not a row");
        }
    }

    #[test]
    fn execute_stamps_the_rows_name_on_the_output() {
        let out = find("datasets").expect("a row").execute(Effort::Quick);
        assert_eq!(out.id, "datasets");
    }
}
