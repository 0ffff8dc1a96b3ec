//! `autotune` — evaluates the `hpsparse-autotune` planning subsystem.
//!
//! Part 1, full-graph registry (19 graphs, K = 64): every SpMM/SDDMM
//! candidate is measured cold to establish the per-graph *oracle* (best
//! possible kernel), then the `Measured` planner's pick is compared to it
//! (oracle-match rate) and `AutoBackend` is raced end-to-end against
//! `HpBackend` (always-HP, the paper's selector) and against the best
//! *fixed* baseline kernel pair chosen in hindsight across the whole
//! registry.
//!
//! Part 2, sampling corpus: a slice of the Fig. 10 subgraph corpus is
//! pushed through one `AutoBackend` twice. The first pass plans every
//! distinct shape (cache misses, simulator launches); the second pass
//! must be served entirely from the plan cache — zero planning launches.

use crate::experiments::{Effort, ExperimentOutput};
use crate::table;
use hpsparse_autotune::{
    instantiate_sddmm, instantiate_spmm, sddmm_candidates, spmm_candidates, Candidate,
    GraphFingerprint, PlanStrategy, Planner,
};
use hpsparse_datasets::{full_graph_dataset, store};
use hpsparse_gnn::{AutoBackend, HpBackend, SparseBackend};
use hpsparse_sim::DeviceSpec;
use hpsparse_sparse::{Dense, Hybrid};
use serde_json::json;

/// Edge cap for the registry graphs: the oracle measures every candidate
/// on every graph, so quick runs use a tighter cap than the shared
/// [`Effort::max_edges`] to stay test-suite fast.
fn edge_cap(effort: Effort) -> usize {
    match effort {
        Effort::Quick => 25_000,
        Effort::Full => effort.max_edges(),
    }
}

/// Subgraphs taken from the Fig. 10 corpus for the cache demonstration.
fn corpus_slice(effort: Effort) -> usize {
    match effort {
        Effort::Quick => 8,
        Effort::Full => 60,
    }
}

/// Cold measured cycles (exec + preprocessing) of one SpMM candidate — a
/// cost walk, as the planner's own measurements are.
fn measure_spmm(device: &DeviceSpec, c: &Candidate, s: &Hybrid, k: usize) -> Option<u64> {
    let cost = instantiate_spmm(c)?.cost(device, s, k).ok()?;
    Some(cost.total_cycles())
}

/// Cold measured cycles of one SDDMM candidate.
fn measure_sddmm(device: &DeviceSpec, c: &Candidate, s: &Hybrid, k: usize) -> Option<u64> {
    let cost = instantiate_sddmm(c)?.cost(device, s, k).ok()?;
    Some(cost.total_cycles())
}

/// Everything measured for one registry graph.
pub struct GraphResult {
    /// Dataset name.
    pub graph: String,
    /// Non-zeros benchmarked.
    pub nnz: usize,
    /// Planner's SpMM pick.
    pub spmm_pick: String,
    /// Oracle's SpMM winner (exhaustive search).
    pub spmm_oracle: String,
    /// Did the planner match the oracle on SpMM (by cycles, so exact ties
    /// between equivalent configurations count as matches)?
    pub spmm_match: bool,
    /// Planner's SDDMM pick.
    pub sddmm_pick: String,
    /// Oracle's SDDMM winner.
    pub sddmm_oracle: String,
    /// SDDMM oracle match.
    pub sddmm_match: bool,
    /// AutoBackend end-to-end sparse cycles (SpMM + SDDMM, cold per op).
    pub auto_cycles: u64,
    /// HpBackend cycles under identical conditions.
    pub hp_cycles: u64,
    /// Best *fixed* registry-baseline pair's cycles (chosen in hindsight
    /// across the whole registry, so per graph it may lose badly).
    pub fixed_cycles: u64,
    /// Simulated cycles AutoBackend spent planning (metered separately).
    pub planning_cycles: u64,
}

/// Per-candidate cycle tables for one graph, used to build the oracle and
/// the best-fixed-kernel totals.
struct CandidateCycles {
    spmm: Vec<(String, u64)>,
    sddmm: Vec<(String, u64)>,
}

fn candidate_cycles(device: &DeviceSpec, s: &Hybrid, k: usize) -> CandidateCycles {
    let fp = GraphFingerprint::of(s, k, device);
    let spmm = spmm_candidates(device, &fp)
        .into_iter()
        .filter_map(|c| measure_spmm(device, &c, s, k).map(|cy| (c.kernel_id, cy)))
        .collect();
    let sddmm = sddmm_candidates(device, &fp)
        .into_iter()
        .filter_map(|c| measure_sddmm(device, &c, s, k).map(|cy| (c.kernel_id, cy)))
        .collect();
    CandidateCycles { spmm, sddmm }
}

/// The backend race's dense operands for `s`: `(A, A1)`; `A` doubles as
/// the SDDMM's transposed second operand.
fn race_operands(s: &Hybrid, k: usize) -> (Dense, Dense) {
    (
        crate::runner::bench_features(s.cols(), k),
        crate::runner::bench_features(s.rows(), k),
    )
}

fn oracle_of(cycles: &[(String, u64)]) -> (String, u64) {
    cycles
        .iter()
        .min_by_key(|(_, cy)| *cy)
        .map(|(id, cy)| (id.clone(), *cy))
        .unwrap_or_else(|| ("none".into(), 0))
}

/// Runs the full-graph registry part: oracle search, planner evaluation,
/// and the three-way backend race.
pub fn collect(device: &DeviceSpec, effort: Effort, k: usize) -> Vec<GraphResult> {
    let cap = edge_cap(effort);
    let graphs: Vec<(String, Hybrid)> = full_graph_dataset()
        .into_iter()
        .map(|spec| (spec.name.to_string(), store::graph(&spec, cap).to_hybrid()))
        .collect();

    // Exhaustive candidate measurement per graph (the oracle), reused to
    // pick the best fixed baseline in hindsight.
    let tables: Vec<CandidateCycles> = graphs
        .iter()
        .map(|(_, s)| candidate_cycles(device, s, k))
        .collect();
    let fixed_spmm = best_fixed(&tables, |t| &t.spmm);
    let fixed_sddmm = best_fixed(&tables, |t| &t.sddmm);

    graphs
        .iter()
        .zip(&tables)
        .map(|((name, s), table)| {
            let (a, a1) = race_operands(s, k);
            let (spmm_oracle, spmm_best) = oracle_of(&table.spmm);
            let (sddmm_oracle, sddmm_best) = oracle_of(&table.sddmm);

            // The planner under test (fresh per graph: cold-cache planning).
            let mut planner = Planner::new(device.clone(), PlanStrategy::default());
            let spmm_plan = planner.plan_spmm(s, k);
            let sddmm_plan = planner.plan_sddmm(s, k);

            // End-to-end race, one fresh backend per op so every kernel
            // runs under identical cold-cache conditions.
            let run_auto = |op: usize| {
                let mut b = AutoBackend::new(device.clone());
                if op == 0 {
                    b.spmm(s, &a);
                } else {
                    b.sddmm(s, &a1, &a);
                }
                (b.sparse_cycles(), b.planning_cycles())
            };
            let (auto_spmm, plan_spmm_cost) = run_auto(0);
            let (auto_sddmm, plan_sddmm_cost) = run_auto(1);
            let run_hp = |op: usize| {
                let mut b = HpBackend::new(device.clone());
                if op == 0 {
                    b.spmm(s, &a);
                } else {
                    b.sddmm(s, &a1, &a);
                }
                b.sparse_cycles()
            };
            let hp_cycles = run_hp(0) + run_hp(1);

            let overhead = 2 * hpsparse_gnn::backend::LAUNCH_OVERHEAD_CYCLES;
            let fixed_cycles = cycles_for(&table.spmm, &fixed_spmm)
                + cycles_for(&table.sddmm, &fixed_sddmm)
                + overhead;

            GraphResult {
                graph: name.clone(),
                nnz: s.nnz(),
                spmm_pick: spmm_plan.kernel_id.clone(),
                spmm_oracle,
                spmm_match: spmm_plan.predicted_cycles == spmm_best,
                sddmm_pick: sddmm_plan.kernel_id.clone(),
                sddmm_oracle,
                sddmm_match: sddmm_plan.predicted_cycles == sddmm_best,
                auto_cycles: auto_spmm + auto_sddmm,
                hp_cycles,
                fixed_cycles,
                planning_cycles: plan_spmm_cost + plan_sddmm_cost,
            }
        })
        .collect()
}

/// The registry baseline (no HP candidates) with the lowest total cycles
/// across all graphs — the strongest *single* kernel one could have
/// hard-coded.
fn best_fixed<'a>(
    tables: &'a [CandidateCycles],
    get: impl Fn(&'a CandidateCycles) -> &'a Vec<(String, u64)>,
) -> String {
    let Some(first) = tables.first() else {
        return "none".into();
    };
    let mut best = ("none".to_string(), u64::MAX);
    for (id, _) in get(first) {
        if id.starts_with("hp:") || id.starts_with("hp-sddmm:") {
            continue;
        }
        let total: u64 = tables.iter().map(|t| cycles_for(get(t), id)).sum();
        if total < best.1 {
            best = (id.clone(), total);
        }
    }
    best.0
}

fn cycles_for(cycles: &[(String, u64)], id: &str) -> u64 {
    cycles
        .iter()
        .find(|(cid, _)| cid == id)
        .map_or(u64::MAX / 4, |(_, cy)| *cy)
}

/// Cache-behaviour numbers from the sampling-corpus part.
pub struct CorpusResult {
    /// Subgraphs in the slice.
    pub slice: usize,
    /// Distinct fingerprints seen (SpMM keys).
    pub distinct: usize,
    /// Cache misses after pass 1 (shapes that needed planning).
    pub pass1_misses: u64,
    /// Planning simulator launches during pass 1.
    pub pass1_launches: u64,
    /// Cache hits during pass 2.
    pub pass2_hits: u64,
    /// Planning simulator launches during pass 2 (must be 0).
    pub pass2_launches: u64,
    /// Execution cycles of pass 2 (steady state, planning already paid).
    pub pass2_cycles: u64,
    /// Total cycles spent planning in pass 1.
    pub planning_cycles: u64,
}

/// Runs the corpus slice twice through one backend to exercise the cache.
pub fn collect_corpus(device: &DeviceSpec, effort: Effort, k: usize) -> CorpusResult {
    let corpus = store::corpus(corpus_slice(effort), 0xc0ffee);
    let inputs: Vec<(Hybrid, Dense)> = corpus
        .iter()
        .map(|g| {
            let s = g.to_hybrid();
            let a = crate::runner::bench_features(s.cols(), k);
            (s, a)
        })
        .collect();
    let mut distinct: Vec<u64> = inputs
        .iter()
        .map(|(s, _)| GraphFingerprint::of(s, k, device).key())
        .collect();
    distinct.sort_unstable();
    distinct.dedup();

    let mut backend = AutoBackend::new(device.clone());
    for (s, a) in &inputs {
        backend.spmm(s, a);
    }
    let pass1_misses = backend.cache().misses();
    let pass1_launches = backend.planning_sim_launches();
    let planning_cycles = backend.planning_cycles();
    let hits_before = backend.cache().hits();

    backend.reset_counters();
    for (s, a) in &inputs {
        backend.spmm(s, a);
    }
    CorpusResult {
        slice: inputs.len(),
        distinct: distinct.len(),
        pass1_misses,
        pass1_launches,
        pass2_hits: backend.cache().hits() - hits_before,
        pass2_launches: backend.planning_sim_launches() - pass1_launches,
        pass2_cycles: backend.sparse_cycles(),
        planning_cycles,
    }
}

/// Runs both parts and renders the report.
pub fn run(device: &DeviceSpec, effort: Effort, k: usize) -> ExperimentOutput {
    let records = collect(device, effort, k);
    let corpus = collect_corpus(device, effort, k);
    render(device, k, &records, &corpus)
}

/// Formats the autotune report.
pub fn render(
    device: &DeviceSpec,
    k: usize,
    records: &[GraphResult],
    corpus: &CorpusResult,
) -> ExperimentOutput {
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.graph.clone(),
                format!("{}", r.nnz),
                format!("{}{}", r.spmm_pick, if r.spmm_match { "" } else { " *" }),
                format!("{}{}", r.sddmm_pick, if r.sddmm_match { "" } else { " *" }),
                table::ms(device.cycles_to_ms(r.auto_cycles)),
                table::ms(device.cycles_to_ms(r.hp_cycles)),
                table::ms(device.cycles_to_ms(r.fixed_cycles)),
                table::ms(device.cycles_to_ms(r.planning_cycles)),
            ]
        })
        .collect();
    let header = [
        "Graph",
        "NNZ",
        "SpMM plan",
        "SDDMM plan",
        "Auto ms",
        "HP ms",
        "Fixed ms",
        "Plan ms",
    ];

    let n = records.len().max(1) as f64;
    let spmm_rate = records.iter().filter(|r| r.spmm_match).count() as f64 / n;
    let sddmm_rate = records.iter().filter(|r| r.sddmm_match).count() as f64 / n;
    let both = records
        .iter()
        .map(|r| r.spmm_match as usize + r.sddmm_match as usize)
        .sum::<usize>() as f64
        / (2.0 * n);
    let auto_total: u64 = records.iter().map(|r| r.auto_cycles).sum();
    let hp_total: u64 = records.iter().map(|r| r.hp_cycles).sum();
    let fixed_total: u64 = records.iter().map(|r| r.fixed_cycles).sum();
    let never_worse = records.iter().all(|r| r.auto_cycles <= r.hp_cycles);

    let summary = format!(
        "  oracle-match rate: SpMM {:.0}%, SDDMM {:.0}%, combined {:.0}%\n  \
         end-to-end sparse cycles: auto {auto_total} vs hp {hp_total} vs best-fixed {fixed_total}\n  \
         auto never worse than hp on any graph: {never_worse}\n  \
         corpus slice ({} subgraphs, {} distinct shapes): pass 1 planned {} shapes \
         with {} sim launches; pass 2 served {} hits with {} launches\n",
        spmm_rate * 100.0,
        sddmm_rate * 100.0,
        both * 100.0,
        corpus.slice,
        corpus.distinct,
        corpus.pass1_misses,
        corpus.pass1_launches,
        corpus.pass2_hits,
        corpus.pass2_launches,
    );

    let json_graphs: Vec<serde_json::Value> = records
        .iter()
        .map(|r| {
            json!({
                "graph": r.graph.as_str(),
                "nnz": r.nnz,
                "spmm_pick": r.spmm_pick.as_str(),
                "spmm_oracle": r.spmm_oracle.as_str(),
                "spmm_match": r.spmm_match,
                "sddmm_pick": r.sddmm_pick.as_str(),
                "sddmm_oracle": r.sddmm_oracle.as_str(),
                "sddmm_match": r.sddmm_match,
                "auto_cycles": r.auto_cycles,
                "hp_cycles": r.hp_cycles,
                "fixed_cycles": r.fixed_cycles,
                "planning_cycles": r.planning_cycles
            })
        })
        .collect();

    let text = format!(
        "autotune — planner evaluation, K = {k}, {} (plans marked * missed the oracle)\n\n{}\n{}",
        device.name,
        table::render(&header, &rows),
        summary
    );
    ExperimentOutput::new(
        text,
        json!({
            "device": device.name,
            "k": k,
            "oracle_match_rate_spmm": spmm_rate,
            "oracle_match_rate_sddmm": sddmm_rate,
            "oracle_match_rate": both,
            "auto_total_cycles": auto_total,
            "hp_total_cycles": hp_total,
            "fixed_total_cycles": fixed_total,
            "auto_never_worse_than_hp": never_worse,
            "graphs": json_graphs,
            "corpus": json!({
                "slice": corpus.slice,
                "distinct": corpus.distinct,
                "pass1_misses": corpus.pass1_misses,
                "pass1_launches": corpus.pass1_launches,
                "pass2_hits": corpus.pass2_hits,
                "pass2_launches": corpus.pass2_launches,
                "pass2_cycles": corpus.pass2_cycles,
                "planning_cycles": corpus.planning_cycles
            })
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_oracle_match_and_never_worse() {
        let out = run(&DeviceSpec::v100(), Effort::Quick, 64);
        // ≥ 90% oracle match for the Measured planner on the registry.
        assert!(
            out.json["oracle_match_rate_spmm"].as_f64().unwrap() >= 0.9,
            "SpMM oracle-match rate too low:\n{}",
            out.text
        );
        assert!(
            out.json["oracle_match_rate"].as_f64().unwrap() >= 0.9,
            "combined oracle-match rate too low:\n{}",
            out.text
        );
        // AutoBackend never loses to the always-HP backend on any graph.
        assert_eq!(
            out.json["auto_never_worse_than_hp"].as_bool(),
            Some(true),
            "{}",
            out.text
        );
        // Cache hit path performs zero planning simulations.
        assert_eq!(out.json["corpus"]["pass2_launches"].as_u64(), Some(0));
        assert!(out.json["corpus"]["pass2_hits"].as_u64().unwrap() > 0);
        assert_eq!(out.json["graphs"].as_array().unwrap().len(), 19);
    }

    #[test]
    fn report_is_deterministic() {
        let a = run(&DeviceSpec::v100(), Effort::Quick, 64);
        let b = run(&DeviceSpec::v100(), Effort::Quick, 64);
        assert_eq!(a.text, b.text);
    }
}
