//! `autotune` — evaluates the `hpsparse-autotune` planning subsystem.
//!
//! Part 1, full-graph registry (19 graphs, K = 64): every SpMM/SDDMM
//! candidate of the planner and every catalogue baseline is walked cold
//! once, and those records are the ground truth every score folds: the
//! per-graph *oracle* (best possible kernel, baselines included, so a
//! baseline that beats the planner shows as a miss), the `Measured`
//! planner's oracle match, the `Heuristic` pick's walked cycles, regret
//! and prediction error, and the best *fixed* baseline kernel pair chosen
//! in hindsight across the whole registry. `AutoBackend` is raced
//! end-to-end against `HpBackend` (always-HP, the paper's selector) and
//! that fixed pair.
//!
//! Part 2, sampling corpus: a slice of the Fig. 10 subgraph corpus is
//! pushed through one `AutoBackend` twice. The first pass plans every
//! distinct shape (cache misses, simulator launches); the second pass
//! must be served entirely from the plan cache — zero planning launches.

use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::{geomean, measure_on, registry_graphs, Record};
use crate::table;
use hpsparse_autotune::{
    instantiate_sddmm, instantiate_spmm, measurement_features, sddmm_candidates, spmm_candidates,
    GraphFingerprint, PlanStrategy, Planner,
};
use hpsparse_core::catalog::{Kernel, Op, KERNELS};
use hpsparse_datasets::store;
use hpsparse_gnn::{AutoBackend, HpBackend, SparseBackend};
use hpsparse_sim::{DeviceSpec, GpuSim};
use hpsparse_sparse::{Dense, Hybrid};
use serde_json::json;

/// Edge cap for the registry graphs: the oracle measures every candidate
/// on every graph (and `fused-mha` both attention paths on every graph ×
/// cell), so quick runs use a tighter cap than the shared
/// [`Effort::max_edges`] to stay test-suite fast.
pub(crate) fn edge_cap(effort: Effort) -> usize {
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

/// The `PlanStrategy::Heuristic` pick for one graph and op, scored against
/// the candidate walks.
pub struct HeuristicScore {
    /// The picked candidate's id.
    pub pick: String,
    /// The analytic estimate the pick was made on.
    pub predicted_cycles: u64,
    /// The pick's walked cycles (exec + preprocessing).
    pub walked_cycles: u64,
    /// The oracle's cycles on the same graph and op.
    pub oracle_cycles: u64,
}

impl HeuristicScore {
    /// Did the pick cost what the oracle costs?
    pub fn matches(&self) -> bool {
        self.walked_cycles == self.oracle_cycles
    }

    /// The pick's walked cycles over the oracle's (1.0 = a match).
    pub fn regret(&self) -> f64 {
        self.walked_cycles as f64 / self.oracle_cycles as f64
    }

    /// `|predicted − walked| / walked`.
    pub fn error(&self) -> f64 {
        self.predicted_cycles.abs_diff(self.walked_cycles) as f64 / self.walked_cycles as f64
    }
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
    /// The Heuristic's SpMM pick, scored.
    pub spmm_heuristic: HeuristicScore,
    /// The Heuristic's SDDMM pick, scored.
    pub sddmm_heuristic: HeuristicScore,
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

/// Every SpMM then SDDMM candidate's cold walk on one graph: per
/// operation the planner's space in enumeration order, scoped by candidate
/// id, then the operation's catalogue baselines, which the planner does
/// not consider, scoped by catalogue id. A kernel that refuses the shape
/// has no walk. A walk is a cost walk, as the planner's own measurements
/// are.
fn candidate_walks(device: &DeviceSpec, graph: &str, s: &Hybrid, k: usize) -> Vec<Record> {
    let fp = GraphFingerprint::of(s, k, device);
    let baselines = |op| {
        let rows = KERNELS.iter().filter(move |row| row.op == op);
        let rows = rows.filter(|row| !row.id.starts_with("hp-"));
        rows.map(|row| (row.auto(device, s, k), row.id.to_string()))
    };
    let spmm = spmm_candidates(device, &fp)
        .into_iter()
        .filter_map(|c| Some((Kernel::Spmm(instantiate_spmm(&c)?), c.kernel_id)));
    let sddmm = sddmm_candidates(device, &fp)
        .into_iter()
        .filter_map(|c| Some((Kernel::Sddmm(instantiate_sddmm(&c)?), c.kernel_id)));
    spmm.chain(baselines(Op::Spmm))
        .chain(sddmm)
        .chain(baselines(Op::Sddmm))
        .filter_map(|(kernel, id)| {
            let sim = &mut GpuSim::new(device.clone());
            Some(measure_on(sim, graph, &kernel, s, k).ok()?.with_variant(id))
        })
        .collect()
}

/// The walk of candidate `id` among one graph's walks.
fn walk_of<'a>(walks: &'a [Record], id: &str) -> Option<&'a Record> {
    walks.iter().find(|r| r.variant == id)
}

/// The first candidate of `op` with the fewest cycles (exec +
/// preprocessing) — what the planner compares — and those cycles.
fn oracle_of(walks: &[Record], op: Op) -> (&str, u64) {
    walks
        .iter()
        .filter(|r| r.op == op)
        .map(|r| (r.variant.as_str(), r.launches.cycles()))
        .min_by_key(|(_, cycles)| *cycles)
        .unwrap_or(("none", 0))
}

/// The catalogue baseline of `op` (no HP candidate) that walked on every
/// graph with the lowest total cycles — the strongest *single* kernel one
/// could have hard-coded; the first in enumeration order on a tie.
fn best_fixed(per_graph: &[Vec<Record>], op: Op) -> Option<&str> {
    let first = per_graph.first()?;
    let total = |id: &str| -> Option<u64> {
        per_graph
            .iter()
            .map(|walks| Some(walk_of(walks, id)?.launches.cycles()))
            .sum()
    };
    let mut best: Option<(&str, u64)> = None;
    let baseline =
        |r: &&Record| !r.variant.starts_with("hp:") && !r.variant.starts_with("hp-sddmm:");
    for r in first.iter().filter(|r| r.op == op).filter(baseline) {
        let Some(cycles) = total(&r.variant) else {
            continue;
        };
        if best.is_none_or(|(_, b)| cycles < b) {
            best = Some((&r.variant, cycles));
        }
    }
    best.map(|(id, _)| id)
}

/// The backend race's dense operands for `s`: `(A, A1)`; `A` doubles as
/// the SDDMM's transposed second operand.
fn race_operands(s: &Hybrid, k: usize) -> (Dense, Dense) {
    (
        measurement_features(s.cols(), k),
        measurement_features(s.rows(), k),
    )
}

/// Runs the full-graph registry part — candidate walks, planner
/// evaluation, the Heuristic's score and the three-way backend race — and
/// returns each graph's result with every candidate walk.
pub fn collect(device: &DeviceSpec, effort: Effort, k: usize) -> (Vec<GraphResult>, Vec<Record>) {
    let graphs = registry_graphs(edge_cap(effort));
    let per_graph: Vec<Vec<Record>> = graphs
        .iter()
        .map(|(name, s)| candidate_walks(device, name, s, k))
        .collect();
    let fixed = [Op::Spmm, Op::Sddmm].map(|op| best_fixed(&per_graph, op));
    let heuristic = Planner::new(device.clone(), PlanStrategy::Heuristic);

    let results = graphs
        .iter()
        .zip(&per_graph)
        .map(|((name, s), walks)| {
            let (a, a1) = race_operands(s, k);
            let (spmm_oracle, spmm_best) = oracle_of(walks, Op::Spmm);
            let (sddmm_oracle, sddmm_best) = oracle_of(walks, Op::Sddmm);

            // The planner under test (fresh per graph: cold-cache planning).
            let mut planner = Planner::new(device.clone(), PlanStrategy::default());
            let spmm_plan = planner.plan_spmm(s, k);
            let sddmm_plan = planner.plan_sddmm(s, k);

            // The Heuristic's pick, priced by the walks, not by a walk.
            let fp = GraphFingerprint::of(s, k, device);
            let score = |op, oracle_cycles| {
                let pick = heuristic.pick(op, &fp, 1);
                let id = pick.candidate.kernel_id;
                let walk = walk_of(walks, id).expect("the Heuristic picks a walked candidate");
                HeuristicScore {
                    pick: id.to_string(),
                    predicted_cycles: pick.predicted_cycles(),
                    walked_cycles: walk.launches.cycles(),
                    oracle_cycles,
                }
            };

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

            // What a backend running the fixed pair would be charged.
            let fixed_cycles = fixed
                .iter()
                .map(|id| {
                    let walk = id.and_then(|id| walk_of(walks, id));
                    walk.expect("the fixed pair walked on every graph")
                        .launches
                        .price()
                })
                .sum();

            GraphResult {
                graph: name.to_string(),
                nnz: s.nnz(),
                spmm_pick: spmm_plan.kernel_id.clone(),
                spmm_oracle: spmm_oracle.to_string(),
                spmm_match: spmm_plan.predicted_cycles == spmm_best,
                sddmm_pick: sddmm_plan.kernel_id.clone(),
                sddmm_oracle: sddmm_oracle.to_string(),
                sddmm_match: sddmm_plan.predicted_cycles == sddmm_best,
                spmm_heuristic: score(Op::Spmm, spmm_best),
                sddmm_heuristic: score(Op::Sddmm, sddmm_best),
                auto_cycles: auto_spmm + auto_sddmm,
                hp_cycles,
                fixed_cycles,
                planning_cycles: plan_spmm_cost + plan_sddmm_cost,
            }
        })
        .collect();
    (results, per_graph.concat())
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
            let a = measurement_features(s.cols(), k);
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
    let (results, walks) = collect(device, effort, k);
    let corpus = collect_corpus(device, effort, k);
    render(device, k, &results, &corpus).with_records(walks)
}

/// The median of `xs` (0 for none).
fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// One scored Heuristic pick as JSON.
fn score_json(h: &HeuristicScore) -> serde_json::Value {
    json!({
        "pick": h.pick.as_str(),
        "predicted_cycles": h.predicted_cycles,
        "walked_cycles": h.walked_cycles,
        "match": h.matches(),
        "regret": h.regret(),
        "error": h.error(),
    })
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

    let scores: Vec<&HeuristicScore> = records
        .iter()
        .flat_map(|r| [&r.spmm_heuristic, &r.sddmm_heuristic])
        .collect();
    let spmm_matches = records
        .iter()
        .filter(|r| r.spmm_heuristic.matches())
        .count();
    let sddmm_matches = records
        .iter()
        .filter(|r| r.sddmm_heuristic.matches())
        .count();
    let regrets: Vec<f64> = scores.iter().map(|h| h.regret()).collect();
    let errors: Vec<f64> = scores.iter().map(|h| h.error()).collect();
    let worst = |xs: &[f64]| xs.iter().copied().fold(0.0, f64::max);
    let (regret_geomean, regret_worst) = (geomean(&regrets), worst(&regrets));
    let (error_median, error_worst) = (median(&errors), worst(&errors));

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
    let heuristic_summary = format!(
        "  heuristic pick (analytic, unwalked) priced by the candidate walks: matches the \
         oracle on {} of {} plans (SpMM {spmm_matches}, SDDMM {sddmm_matches}); regret \
         (walked / oracle cycles) geomean {regret_geomean:.2}x, worst {regret_worst:.2}x; \
         |predicted - walked| / walked median {:.0}%, worst {:.0}%\n",
        spmm_matches + sddmm_matches,
        scores.len(),
        error_median * 100.0,
        error_worst * 100.0,
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
                "spmm_heuristic": score_json(&r.spmm_heuristic),
                "sddmm_heuristic": score_json(&r.sddmm_heuristic),
                "auto_cycles": r.auto_cycles,
                "hp_cycles": r.hp_cycles,
                "fixed_cycles": r.fixed_cycles,
                "planning_cycles": r.planning_cycles
            })
        })
        .collect();

    let text = format!(
        "autotune — planner evaluation, K = {k}, {} (plans marked * missed the oracle)\n\n{}\n{}{}",
        device.name,
        table::render(&header, &rows),
        summary,
        heuristic_summary,
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
            "heuristic": json!({
                "plans": scores.len(),
                "matches": spmm_matches + sddmm_matches,
                "spmm_matches": spmm_matches,
                "sddmm_matches": sddmm_matches,
                "regret_geomean": regret_geomean,
                "regret_worst": regret_worst,
                "error_median": error_median,
                "error_worst": error_worst,
            }),
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
        // The scope tripwire: every Measured plan matches the oracle. The
        // planner's space is the paper's kernel alone, which is right only
        // while no catalogue baseline walks faster than its plan; the
        // oracle covers every baseline's walk, so a miss names the baseline
        // that wins. When one does (Blocked-ELL's walk reading the right
        // feature rows, a model change), revisit the scope.
        for g in out.json["graphs"].as_array().unwrap() {
            for (matched, oracle) in [
                ("spmm_match", "spmm_oracle"),
                ("sddmm_match", "sddmm_oracle"),
            ] {
                assert_eq!(
                    g[matched].as_bool(),
                    Some(true),
                    "{}: {} beats the plan",
                    g["graph"],
                    g[oracle]
                );
            }
        }
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
