//! The planner: turns a fingerprinted input into an explainable [`Plan`].
//!
//! Two strategies, per the subsystem design:
//!
//! * [`PlanStrategy::Heuristic`] — rank every candidate with the analytic
//!   cost model ([`crate::cost`]) and take the top. Zero simulator time.
//! * [`PlanStrategy::Measured`] — rank heuristically, then walk the cost
//!   of the top [`MEASURED_TOP_N`] candidates on a cold [`GpuSim`]
//!   against the *actual* matrix and pick by measured cycles. A measurement is a cost
//!   walk (`cost_on`): it reports exactly what a full run would and
//!   computes no float, so planning builds no feature matrix.
//!   The heuristic's top pick is always in the measured set, so `Measured`
//!   never chooses a kernel worse than `Heuristic`'s (a property the test
//!   suite pins down). The search is branch and bound: each candidate after
//!   the first walks under a cycle budget of the best so far and stops as
//!   soon as it provably cannot beat it; the pick is the exhaustive one.
//!
//! All three operations go through one path, [`Planner::plan_for`]; an
//! [`Op`] contributes only its candidates, its analytic cost, its bound
//! hint and how one candidate is measured.
//!
//! Planning is deterministic: candidate enumeration order is fixed, every
//! simulator run starts cold, and ties break toward the better heuristic
//! rank.

use hpsparse_core::catalog::Op;
use hpsparse_core::hp::{HpConfig, HpFusedMha, HpSddmm, HpSpmm};
use hpsparse_core::traits::{KernelCost, SddmmKernel, SpmmKernel};
use hpsparse_sim::{DeviceSpec, GpuSim};
use hpsparse_sparse::{Dense, Hybrid};
use serde_json::json;

use crate::candidates::{
    instantiate_fused_mha, instantiate_sddmm, instantiate_spmm, mha_candidates, sddmm_candidates,
    spmm_candidates, Candidate,
};
use crate::cost::{
    edge_softmax_cycles, mha_cost, sddmm_bound_hint, sddmm_cost, spmm_bound_hint, spmm_cost,
    LAUNCH_OVERHEAD_CYCLES,
};
use crate::fingerprint::GraphFingerprint;

/// How many heuristic front-runners [`PlanStrategy::Measured`] walks: 12
/// of the 18 SpMM candidates, wide enough that the analytic model only has
/// to keep the true winner out of the bottom third. Fused attention has two
/// candidates, so it measures both.
pub const MEASURED_TOP_N: usize = 12;

/// How the planner searches the candidate space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanStrategy {
    /// Analytic cost model only — instant, no simulation.
    Heuristic,
    /// Measure the [`MEASURED_TOP_N`] heuristic candidates — plus the
    /// paper-auto incumbent, wherever it ranked — on the simulator with the
    /// actual matrix; pick by measured cycles (exec + preprocessing). The
    /// default.
    #[default]
    Measured,
}

/// The planner's decision for one `(graph, K, device)` input: which kernel
/// to run, with what configuration, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Candidate id (`"hp:npw=256"`, `"hp:auto"`, `"gespmm"`, …).
    pub kernel_id: String,
    /// Resolved HP launch parameters; `None` for baseline kernels.
    pub config: Option<HpConfig>,
    /// Cycles the planner expects: measured cycles under
    /// [`PlanStrategy::Measured`], the analytic estimate under
    /// [`PlanStrategy::Heuristic`].
    pub predicted_cycles: u64,
    /// Human-readable explanation of the choice.
    pub rationale: String,
}

impl Plan {
    /// The plan as a [`Candidate`], e.g. to re-instantiate the kernel.
    pub fn candidate(&self) -> Candidate {
        Candidate {
            kernel_id: self.kernel_id.clone(),
            config: self.config,
        }
    }
}

/// What `op` contributes to [`Planner::plan_for`] besides its measurement.
fn model(op: Op) -> OpModel {
    match op {
        Op::Spmm => OpModel {
            span: "autotune:plan-spmm",
            candidates: spmm_candidates,
            cost: |device, fp, _, c| spmm_cost(device, fp, c),
            bound_hint: Some(spmm_bound_hint),
        },
        Op::Sddmm => OpModel {
            span: "autotune:plan-sddmm",
            candidates: sddmm_candidates,
            cost: |device, fp, _, c| sddmm_cost(device, fp, c),
            bound_hint: Some(sddmm_bound_hint),
        },
        Op::FusedMha => OpModel {
            span: "autotune:plan-mha",
            candidates: mha_candidates,
            cost: mha_cost,
            bound_hint: None,
        },
    }
}

/// One measurement of `c` for `op` on `s` on `sim`, which starts cold:
/// cycles (execution plus preprocessing) and, where one launch report
/// exists to attribute, the bottleneck verdict [`hpsparse_sim::attribute`]
/// gives it. `None` when the candidate does not instantiate or refuses the
/// shape.
///
/// Under a `budget` the walk stops once its cycles provably reach it
/// ([`GpuSim::set_cycle_budget`]); a stopped walk reports the budget
/// itself, which loses the planner's strict `<` against the incumbent that
/// set it and is what a timing tuner would have waited.
fn measure(
    op: Op,
    sim: &mut GpuSim,
    c: &Candidate,
    s: &Hybrid,
    k: usize,
    heads: usize,
    budget: Option<u64>,
) -> Option<(u64, Option<String>)> {
    if let Some(limit) = budget {
        sim.set_cycle_budget(limit);
    }
    let whole = |cost: KernelCost| (cost.total_cycles(), Some(cost.report));
    let (cycles, report) = match op {
        Op::Spmm => whole(instantiate_spmm(c)?.cost_on(sim, s, k).ok()?),
        Op::Sddmm => whole(instantiate_sddmm(c)?.cost_on(sim, s, k).ok()?),
        Op::FusedMha => match instantiate_fused_mha(c) {
            Some(kernel) => (fused_mha_on(sim, &kernel, s, k, heads)?, None),
            None => (unfused_mha_on(sim, s, k, heads, budget)?.0, None),
        },
    };
    if sim.budget_stop().is_some() {
        hpsparse_trace::counter_add("autotune.plan_sim_launches_stopped", 1);
        return budget.map(|limit| (limit, None));
    }
    let verdict = report.map(|r| hpsparse_sim::attribute(&r, sim.device()).verdict());
    Some((cycles, verdict))
}

/// The analytic side of one [`Op`].
struct OpModel {
    /// Trace-span name of a planning call.
    span: &'static str,
    /// The search space, in its fixed enumeration order.
    candidates: fn(&DeviceSpec, &GraphFingerprint) -> Vec<Candidate>,
    /// The estimate candidates are ranked by, at a given head count.
    cost: fn(&DeviceSpec, &GraphFingerprint, usize, &Candidate) -> f64,
    /// Which roofline side the model says binds a candidate; `None` for
    /// attention, whose model sums launches and has no one side to name.
    bound_hint: Option<fn(&DeviceSpec, &GraphFingerprint, &Candidate) -> &'static str>,
}

/// Plans kernels for sparse inputs on a fixed device.
#[derive(Debug, Clone)]
pub struct Planner {
    device: DeviceSpec,
    strategy: PlanStrategy,
    sim_launches: u64,
    planning_cycles: u64,
}

impl Planner {
    /// A planner for `device` using `strategy`.
    pub fn new(device: DeviceSpec, strategy: PlanStrategy) -> Self {
        Self {
            device,
            strategy,
            sim_launches: 0,
            planning_cycles: 0,
        }
    }

    /// The device plans are made for.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The active strategy.
    pub fn strategy(&self) -> PlanStrategy {
        self.strategy
    }

    /// Simulator kernel runs performed so far — the planning-cost meter.
    /// Stays at zero for [`PlanStrategy::Heuristic`]; a cache hit must not
    /// move it (asserted in tests).
    pub fn sim_launches(&self) -> u64 {
        self.sim_launches
    }

    /// Total simulated cycles burned measuring candidates — the price of
    /// planning, kept separate from execution accounting.
    pub fn planning_cycles(&self) -> u64 {
        self.planning_cycles
    }

    /// Plans SpMM for `s` at feature dimension `k`.
    pub fn plan_spmm(&mut self, s: &Hybrid, k: usize) -> Plan {
        let fp = GraphFingerprint::of(s, k, &self.device);
        self.plan_for(Op::Spmm, &fp, s, 1)
    }

    /// Plans SDDMM for `s` at feature dimension `k`.
    pub fn plan_sddmm(&mut self, s: &Hybrid, k: usize) -> Plan {
        let fp = GraphFingerprint::of(s, k, &self.device);
        self.plan_for(Op::Sddmm, &fp, s, 1)
    }

    /// Plans multi-head attention for `s` — the fuse/no-fuse knob — at
    /// per-head feature dimension `head_dim`. Under `Measured` both
    /// candidates are always measured (the space has exactly two points),
    /// so the pick is the true cold-run winner by construction.
    pub fn plan_mha(&mut self, s: &Hybrid, head_dim: usize, heads: usize) -> Plan {
        let fp = GraphFingerprint::of(s, head_dim, &self.device);
        self.plan_for(Op::FusedMha, &fp, s, heads)
    }

    /// Plans `op` for a caller that already fingerprinted `s` (a plan-cache
    /// miss): `fp` must be `GraphFingerprint::of(s, k, self.device())`, and
    /// the feature dimension is `fp.k`. `heads` is read for
    /// [`Op::FusedMha`] only: it multiplies every traffic term and is
    /// part of that op's cache key ([`GraphFingerprint::cache_entry`]).
    pub fn plan_for(&mut self, op: Op, fp: &GraphFingerprint, s: &Hybrid, heads: usize) -> Plan {
        let model = model(op);
        let _span = hpsparse_trace::span_with(
            model.span,
            &[
                ("rows", json!(s.rows())),
                ("nnz", json!(s.nnz())),
                ("k", json!(fp.k)),
                ("heads", json!(heads)),
            ],
        );
        let launches_before = self.sim_launches;
        let ranked = rank((model.candidates)(&self.device, fp), |c| {
            (model.cost)(&self.device, fp, heads, c)
        });
        let plan = match self.strategy {
            PlanStrategy::Heuristic => {
                let mut plan = heuristic_plan(fp, ranked);
                if let Some(bound_hint) = model.bound_hint {
                    let hint = bound_hint(&self.device, fp, &plan.candidate());
                    plan.rationale
                        .push_str(&format!("; model-side bound: {hint}"));
                }
                plan
            }
            PlanStrategy::Measured => self.measured_plan(fp, ranked, |device, c, budget| {
                let mut sim = GpuSim::new(device.clone());
                measure(op, &mut sim, c, s, fp.k, heads, budget)
            }),
        };
        // One finished plan and the simulator launches it spent, into the
        // installed trace session's registry; a no-op when detached.
        hpsparse_trace::counter_add("autotune.plans", 1);
        let launches = self.sim_launches - launches_before;
        hpsparse_trace::counter_add("autotune.plan_sim_launches", launches);
        plan
    }

    /// Measures the top [`MEASURED_TOP_N`] ranked candidates with `measure`
    /// (one cold simulator run each, returning cycles plus an optional
    /// bottleneck verdict from [`hpsparse_sim::attribute`] on the run's
    /// report) and picks the cheapest; falls back to the heuristic winner
    /// if nothing is measurable (degenerate inputs). The winner's verdict
    /// is appended to the rationale, so a measured plan explains its choice
    /// with exactly the words `repro -- profile` would use for the same
    /// launch.
    ///
    /// Branch and bound: the first measurable candidate is walked in full,
    /// every later one under a budget of the best cycles so far. A walk
    /// that reaches its budget could only tie or lose, and a tie keeps the
    /// better rank, so it stops there; the winner is always walked to
    /// completion and the plan is the exhaustive search's.
    fn measured_plan(
        &mut self,
        fp: &GraphFingerprint,
        ranked: Vec<(f64, Candidate)>,
        mut measure: impl FnMut(&DeviceSpec, &Candidate, Option<u64>) -> Option<(u64, Option<String>)>,
    ) -> Plan {
        let mut best: Option<(u64, usize, Option<String>)> = None;
        let mut measured = 0usize;
        for (rank_idx, (_, cand)) in ranked.iter().enumerate() {
            // The paper-auto incumbent is always measured, wherever the
            // heuristic ranked it: the tuned choice can then never be
            // slower than `HpConfig::auto`'s.
            let incumbent = matches!(cand.kernel_id.as_str(), "hp:auto" | "hp-sddmm:auto");
            if rank_idx >= MEASURED_TOP_N && !incumbent {
                continue;
            }
            let budget = best.as_ref().map(|(b, _, _)| *b);
            let Some((cycles, verdict)) = measure(&self.device, cand, budget) else {
                continue;
            };
            self.sim_launches += 1;
            self.planning_cycles += cycles;
            measured += 1;
            // Strict `<` keeps ties on the better heuristic rank, which
            // makes the choice deterministic and explainable.
            if best.as_ref().is_none_or(|(b, _, _)| cycles < *b) {
                best = Some((cycles, rank_idx, verdict));
            }
        }
        match best {
            Some((cycles, idx, verdict)) => {
                let (est, cand) = &ranked[idx];
                let mut rationale = format!(
                    "measured {measured}/{} candidates on cold {} sim (rows={} nnz={} k={} cv={:.2}): \
                     {} won at {cycles} cycles (analytic estimate {est:.0}, heuristic rank {})",
                    ranked.len(),
                    fp.device,
                    fp.rows,
                    fp.nnz,
                    fp.k,
                    fp.degree_cv,
                    cand.kernel_id,
                    idx + 1,
                );
                if let Some(v) = verdict {
                    rationale.push_str(&format!("; bound by {v}"));
                }
                Plan {
                    kernel_id: cand.kernel_id.clone(),
                    config: cand.config,
                    predicted_cycles: cycles,
                    rationale,
                }
            }
            None => {
                let mut plan = heuristic_plan(fp, ranked);
                plan.rationale = format!(
                    "no candidate was measurable; fell back to analytic model: {}",
                    plan.rationale
                );
                plan
            }
        }
    }
}

/// Ranks candidates by analytic cost, ascending; stable on ties, so equal
/// scores keep enumeration order and the ranking is deterministic.
fn rank(cands: Vec<Candidate>, cost: impl Fn(&Candidate) -> f64) -> Vec<(f64, Candidate)> {
    let mut scored: Vec<(f64, Candidate)> = cands.into_iter().map(|c| (cost(&c), c)).collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));
    scored
}

fn heuristic_plan(fp: &GraphFingerprint, ranked: Vec<(f64, Candidate)>) -> Plan {
    let (est, cand) = ranked
        .first()
        .expect("candidate enumeration is never empty");
    let runner_up = ranked
        .get(1)
        .map(|(e, c)| format!("; runner-up {} at {e:.0}", c.kernel_id))
        .unwrap_or_default();
    Plan {
        kernel_id: cand.kernel_id.clone(),
        config: cand.config,
        predicted_cycles: est.min(u64::MAX as f64 / 2.0) as u64,
        rationale: format!(
            "analytic model over {} candidates (rows={} nnz={} k={} cv={:.2} tail={:.1}): \
             {} estimated at {est:.0} cycles{runner_up}",
            ranked.len(),
            fp.rows,
            fp.nnz,
            fp.k,
            fp.degree_cv,
            fp.tail_heaviness,
            cand.kernel_id,
        ),
    }
}

/// Deterministic feature matrix for re-running a planned kernel in full
/// next to its measurement (tests, the benchmark's oracle): a fixed
/// function of shape. The planner itself measures by cost walk and builds
/// none.
pub fn measurement_features(rows: usize, k: usize) -> Dense {
    Dense::from_fn(rows, k, |i, j| (((i * 131 + j * 17) % 1000) as f32) * 1e-3)
}

/// Measured cycles of the fused attention kernel's cost walk on a cold
/// simulator the caller made, launch overheads included (one per launch —
/// the spill pair, when present, pays too).
fn fused_mha_on(
    sim: &mut GpuSim,
    kernel: &HpFusedMha,
    s: &Hybrid,
    head_dim: usize,
    heads: usize,
) -> Option<u64> {
    let cost = kernel.cost_on(sim, s, head_dim, heads).ok()?;
    Some(
        cost.reports
            .iter()
            .map(|r| r.cycles + LAUNCH_OVERHEAD_CYCLES)
            .sum(),
    )
}

/// Cold measurement of the unfused three-launch pipeline, as `(cycles,
/// DRAM bytes)`: per head an HP-SDDMM launch, a rooflined edge-softmax pass
/// that round-trips scores and weights through DRAM (8 B per edge), and an
/// HP-SpMM launch, each with its launch overhead — exactly how the
/// accounting backends charge the no-fuse path, so the knob's comparison is
/// apples-to-apples. Both launches are cost walks: the pipeline's profile
/// depends on the head shape, not on any operand value.
pub fn measure_unfused_mha(
    device: &DeviceSpec,
    s: &Hybrid,
    head_dim: usize,
    heads: usize,
) -> Option<(u64, u64)> {
    unfused_mha_on(&mut GpuSim::new(device.clone()), s, head_dim, heads, None)
}

/// [`measure_unfused_mha`] on a cold simulator the caller made. Every head
/// walks the same two launches from a cold L2, so one head is walked and
/// counted `heads` times. Under `budget` the head's launches get the share
/// that keeps `heads` copies of the pipeline below it.
fn unfused_mha_on(
    sim: &mut GpuSim,
    s: &Hybrid,
    head_dim: usize,
    heads: usize,
    budget: Option<u64>,
) -> Option<(u64, u64)> {
    if heads == 0 {
        return None; // nothing to measure, as the fused kernel refuses too
    }
    let heads = heads as u64;
    let device = sim.device().clone();
    let fixed = edge_softmax_cycles(&device, s.nnz()) + 3 * LAUNCH_OVERHEAD_CYCLES;
    if let Some(limit) = budget {
        sim.set_cycle_budget(limit.div_ceil(heads).saturating_sub(fixed));
    }
    let sddmm = HpSddmm::auto(&device, s, head_dim);
    let spmm = HpSpmm::auto(&device, s, head_dim);
    let sd = sddmm.cost_on(sim, s, head_dim).ok()?.report;
    let sp = spmm.cost_on(sim, s, head_dim).ok()?.report;
    let cycles = sd.cycles + sp.cycles + fixed;
    let dram = sd.dram_bytes() + 8 * s.nnz() as u64 + sp.dram_bytes();
    Some((heads * cycles, heads * dram))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(seed: u64, rows: u32, nnz: u32) -> Hybrid {
        let mut t = Vec::new();
        for i in 0..nnz {
            let r = (i.wrapping_mul(2654435761).wrapping_add(seed as u32)) % rows;
            let c = (i.wrapping_mul(40503).wrapping_add(7)) % rows;
            t.push((r, c, 1.0 + (i % 3) as f32));
        }
        Hybrid::from_triplets(rows as usize, rows as usize, &t).unwrap()
    }

    #[test]
    fn heuristic_planner_runs_zero_simulations() {
        let s = graph(1, 2000, 12_000);
        let mut p = Planner::new(DeviceSpec::v100(), PlanStrategy::Heuristic);
        let plan = p.plan_spmm(&s, 64);
        assert_eq!(p.sim_launches(), 0);
        assert_eq!(p.planning_cycles(), 0);
        assert!(!plan.kernel_id.is_empty());
        assert!(plan.rationale.contains("analytic model"));
    }

    #[test]
    fn measured_planner_counts_its_simulations() {
        let s = graph(2, 500, 3_000);
        let mut p = Planner::new(DeviceSpec::v100(), PlanStrategy::Measured);
        let plan = p.plan_spmm(&s, 32);
        // The shortlist by heuristic, plus the hp:auto incumbent if it
        // ranked below it.
        let (n, launches) = (MEASURED_TOP_N as u64, p.sim_launches());
        assert!((n..=n + 1).contains(&launches), "{launches}");
        assert!(p.planning_cycles() > 0);
        assert!(plan.predicted_cycles > 0);
        assert!(plan.rationale.contains("/18 candidates on cold"));
    }

    /// Branch and bound on a closed form: a shortlisted candidate that
    /// cannot beat the best so far stops there and is charged exactly that
    /// best; any other is walked in full and charged its cycles. The plan
    /// is the exhaustive search's, and at least one walk was cut short.
    #[test]
    fn a_losing_candidate_is_charged_the_budget_it_was_stopped_at() {
        let (s, k) = (graph(8, 2000, 16_000), 64);
        let v100 = DeviceSpec::v100();
        let mut p = Planner::new(v100.clone(), PlanStrategy::Measured);
        let plan = p.plan_spmm(&s, k);

        let fp = GraphFingerprint::of(&s, k, &v100);
        let ranked = rank(spmm_candidates(&v100, &fp), |c| spmm_cost(&v100, &fp, c));
        let (mut best, mut charged, mut exhaustive, mut walks) = (None, 0, 0, 0);
        for (i, (_, c)) in ranked.iter().enumerate() {
            if i >= MEASURED_TOP_N && c.kernel_id != "hp:auto" {
                continue;
            }
            let Some(Ok(cost)) = instantiate_spmm(c).map(|kernel| kernel.cost(&v100, &s, k)) else {
                continue;
            };
            let cycles = cost.total_cycles();
            walks += 1;
            exhaustive += cycles;
            match best {
                Some((b, _)) if cycles >= b => charged += b,
                _ => {
                    charged += cycles;
                    best = Some((cycles, c.kernel_id.as_str()));
                }
            }
        }
        assert_eq!(best, Some((plan.predicted_cycles, plan.kernel_id.as_str())));
        assert_eq!(p.sim_launches(), walks);
        assert_eq!(p.planning_cycles(), charged);
        assert!(charged < exhaustive, "{charged} vs {exhaustive}");
    }

    #[test]
    fn plans_are_byte_identical_across_runs() {
        let s = graph(3, 1000, 8_000);
        let v100 = DeviceSpec::v100();
        for strategy in [PlanStrategy::Heuristic, PlanStrategy::Measured] {
            let a = Planner::new(v100.clone(), strategy).plan_spmm(&s, 64);
            let b = Planner::new(v100.clone(), strategy).plan_spmm(&s, 64);
            assert_eq!(a, b);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            let sa = Planner::new(v100.clone(), strategy).plan_sddmm(&s, 64);
            let sb = Planner::new(v100.clone(), strategy).plan_sddmm(&s, 64);
            assert_eq!(format!("{sa:?}"), format!("{sb:?}"));
        }
    }

    #[test]
    fn measured_never_worse_than_heuristic_top_pick() {
        let v100 = DeviceSpec::v100();
        for seed in [1u64, 9, 42] {
            let s = graph(seed, 1500, 10_000);
            let h = Planner::new(v100.clone(), PlanStrategy::Heuristic).plan_spmm(&s, 64);
            let mut mp = Planner::new(v100.clone(), PlanStrategy::Measured);
            let m = mp.plan_spmm(&s, 64);
            // Re-measure both plans under identical cold conditions.
            let a = measurement_features(s.cols(), 64);
            let run_of = |plan: &Plan| {
                let kernel = instantiate_spmm(&plan.candidate()).unwrap();
                let mut sim = GpuSim::new(v100.clone());
                let run = kernel.run_on(&mut sim, &s, &a).unwrap();
                run.report.cycles + run.preprocess.as_ref().map_or(0, |p| p.cycles)
            };
            assert!(
                run_of(&m) <= run_of(&h),
                "seed {seed}: measured plan {} must not lose to heuristic plan {}",
                m.kernel_id,
                h.kernel_id
            );
        }
    }

    #[test]
    fn degenerate_inputs_still_yield_plans() {
        let v100 = DeviceSpec::v100();
        for s in [
            Hybrid::from_triplets(0, 0, &[]).unwrap(),
            Hybrid::from_triplets(4, 4, &[]).unwrap(),
        ] {
            let mut p = Planner::new(v100.clone(), PlanStrategy::default());
            let plan = p.plan_spmm(&s, 64);
            assert!(!plan.kernel_id.is_empty());
            let plan = p.plan_sddmm(&s, 64);
            assert!(!plan.kernel_id.is_empty());
        }
    }

    #[test]
    fn measured_rationale_embeds_the_winners_attribution_verdict() {
        let s = graph(6, 1200, 9_000);
        let v100 = DeviceSpec::v100();
        let mut p = Planner::new(v100.clone(), PlanStrategy::default());
        let plan = p.plan_spmm(&s, 64);
        // Recompute the verdict exactly as the planner did: cold run of
        // the winning candidate on the measurement features, attributed by
        // the same function `repro -- profile` uses.
        let a = measurement_features(s.cols(), 64);
        let kernel = instantiate_spmm(&plan.candidate()).unwrap();
        let mut sim = GpuSim::new(v100.clone());
        let run = kernel.run_on(&mut sim, &s, &a).unwrap();
        let verdict = hpsparse_sim::attribute(&run.report, &v100).verdict();
        assert!(
            plan.rationale.ends_with(&format!("; bound by {verdict}")),
            "{} vs {verdict}",
            plan.rationale
        );
        assert!(verdict.contains("% headroom"), "{verdict}");
    }

    #[test]
    fn heuristic_rationale_names_the_model_side_bound() {
        let s = graph(7, 1500, 9_000);
        let mut p = Planner::new(DeviceSpec::v100(), PlanStrategy::Heuristic);
        let plan = p.plan_spmm(&s, 64);
        assert!(
            plan.rationale.contains("; model-side bound: "),
            "{}",
            plan.rationale
        );
        let sd = p.plan_sddmm(&s, 64);
        assert!(
            sd.rationale.contains("; model-side bound: "),
            "{}",
            sd.rationale
        );
    }

    /// The fuse/no-fuse pair over head counts and widths: the pick is the
    /// cheaper of two full measurements. Whichever side ranks second walks
    /// under the first's cycles, so the pair is charged the first plus the
    /// cheaper of the two — when the unfused pipeline ranks second and
    /// loses, its heads' shared budget stops it.
    #[test]
    fn mha_plan_measures_both_candidates_and_picks_the_winner() {
        let v100 = DeviceSpec::v100();
        let mut unfused_cut_short = false;
        for (s, head_dim, heads) in [
            (graph(4, 800, 6_000), 32, 4),
            (graph(4, 800, 6_000), 8, 1),
            (graph(9, 300, 12_000), 64, 3),
            (graph(1, 40, 20_000), 64, 4),
        ] {
            let mut p = Planner::new(v100.clone(), PlanStrategy::default());
            let plan = p.plan_mha(&s, head_dim, heads);
            assert_eq!(p.sim_launches(), 2, "exactly the fuse/no-fuse pair");
            let kernel = HpFusedMha::auto(&v100, &s, head_dim);
            let fused =
                fused_mha_on(&mut GpuSim::new(v100.clone()), &kernel, &s, head_dim, heads).unwrap();
            let (unfused, _) = measure_unfused_mha(&v100, &s, head_dim, heads).unwrap();
            let oracle = if fused <= unfused {
                crate::candidates::MHA_FUSED_ID
            } else {
                crate::candidates::MHA_UNFUSED_ID
            };
            assert_eq!(plan.kernel_id, oracle, "{}", plan.rationale);
            assert_eq!(plan.predicted_cycles, fused.min(unfused));

            let fp = GraphFingerprint::of(&s, head_dim, &v100);
            let ranked = rank(mha_candidates(&v100, &fp), |c| {
                mha_cost(&v100, &fp, heads, c)
            });
            let fused_first = ranked[0].1.kernel_id == crate::candidates::MHA_FUSED_ID;
            let first = if fused_first { fused } else { unfused };
            assert_eq!(p.planning_cycles(), first + fused.min(unfused));
            unfused_cut_short |= fused_first && fused < unfused;
        }
        assert!(unfused_cut_short);
    }

    #[test]
    fn mha_plans_are_deterministic_and_work_on_degenerate_inputs() {
        let v100 = DeviceSpec::v100();
        let s = graph(5, 600, 4_000);
        for strategy in [PlanStrategy::Heuristic, PlanStrategy::default()] {
            let a = Planner::new(v100.clone(), strategy).plan_mha(&s, 64, 2);
            let b = Planner::new(v100.clone(), strategy).plan_mha(&s, 64, 2);
            assert_eq!(a, b);
        }
        for s in [
            Hybrid::from_triplets(0, 0, &[]).unwrap(),
            Hybrid::from_triplets(4, 4, &[]).unwrap(),
        ] {
            let plan = Planner::new(v100.clone(), PlanStrategy::default()).plan_mha(&s, 32, 2);
            assert!(!plan.kernel_id.is_empty());
        }
    }

    /// `(head_dim, heads)` ∈ {0, 1}², Heuristic then Measured: kernel id,
    /// predicted cycles and FNV-1a of the rationale, recorded before the
    /// fused measurement became a cost walk (PR 20). A zero head count or
    /// width is refused by the fused kernel with a typed error, so the
    /// planner measures what remains or falls back to the model — it never
    /// panics.
    #[test]
    fn degenerate_head_shapes_keep_their_recorded_plans() {
        const FUSED: &str = crate::candidates::MHA_FUSED_ID;
        const UNFUSED: &str = crate::candidates::MHA_UNFUSED_ID;
        let recorded = [
            (FUSED, 5147, 0xabb51da6e3d9ea61),
            (FUSED, 5147, 0xabb51da6e3d9ea61),
            (FUSED, 5161, 0xf64836d10016995e),
            (FUSED, 5161, 0xf64836d10016995e),
            (FUSED, 5147, 0x401e0d4c7bb837db),
            (UNFUSED, 17074, 0x89c45fabdd8184d9),
            (FUSED, 5161, 0x6bcf7be170e481e0),
            (FUSED, 7000, 0x621bd845e2b67dd9),
        ];
        let s = graph(4, 800, 6_000);
        let mut got = Vec::new();
        for strategy in [PlanStrategy::Heuristic, PlanStrategy::default()] {
            for head_dim in [0usize, 1] {
                for heads in [0usize, 1] {
                    let plan =
                        Planner::new(DeviceSpec::v100(), strategy).plan_mha(&s, head_dim, heads);
                    let rationale = crate::fingerprint::fnv1a(&plan.rationale);
                    got.push((plan.kernel_id, plan.predicted_cycles, rationale));
                }
            }
        }
        let got: Vec<_> = got.iter().map(|(id, c, r)| (id.as_str(), *c, *r)).collect();
        assert_eq!(got, recorded, "{got:#x?}");
    }
}
