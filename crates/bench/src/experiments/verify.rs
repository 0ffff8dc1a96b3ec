//! `verify` — prove-or-escalate static verification gate.
//!
//! Part 1: every registry kernel's symbolic plans (for HP kernels, every
//! configuration the autotuner can pick) run through the
//! `hpsparse-verify` abstract interpreter, which returns a three-valued
//! verdict per checker — `Proved`, `Refuted(counterexample)`, or
//! `Unknown`. Verdicts aggregate worst-over-variant per kernel. Any
//! kernel that is not fully `Proved` *escalates*: it runs dynamically on
//! a witness graph under the `hpsparse-sanitize` sink, which remains the
//! authority for whatever the prover could not discharge.
//!
//! Part 2: the seeded mutants of `hpsparse_core::mutants` must be
//! statically `Refuted` by exactly the checker their defect targets, and
//! the refutation is cross-confirmed by the dynamic sanitizer on the
//! mutant test graph.
//!
//! At `--full` effort the gate additionally cross-validates soundness:
//! every statically `Proved` kernel must come back clean from the full
//! dynamic sanitizer sweep (every kernel × every registry graph).

use crate::experiments::{sanitize, Effort, ExperimentOutput};
use crate::table;
use hpsparse_core::baselines::registry;
use hpsparse_core::hp::{HpConfig, HpFusedMha, HpSddmm, HpSpmm};
use hpsparse_core::mutants;
use hpsparse_sanitize::sanitize_run;
use hpsparse_sim::{DeviceSpec, SymbolicPlan};
use hpsparse_sparse::Hybrid;
use hpsparse_verify::{verify_plan, CheckKind, CheckVerdict};
use serde_json::{json, ToJson};

/// Feature dimension for the dynamic escalation runs; matches the
/// sanitizer sweep's choice (large enough for vectorized paths, small
/// enough to bound event volume).
const VERIFY_K: usize = 32;

/// Every HP configuration the autotuner enumerates; the static gate must
/// prove all of them, not just the one `auto` picks for some graph.
fn hp_configs() -> Vec<HpConfig> {
    let mut out = Vec::new();
    for npw in [512usize, 256, 128, 64, 32, 8] {
        for vw in [1u32, 2, 4] {
            out.push(HpConfig {
                nnz_per_warp: npw,
                vector_width: vw,
                warps_per_block: 8,
                alpha: 1.0,
            });
        }
    }
    out
}

/// Worst-over-variant aggregate for one checker on one kernel.
pub struct CheckAgg {
    /// The worst verdict across every plan variant.
    pub verdict: CheckVerdict,
    /// The variant that produced it.
    pub variant: String,
}

/// Dynamic escalation outcome for a kernel the prover could not fully
/// discharge.
pub struct Escalation {
    /// Violations per dynamic checker on the witness graph.
    pub memcheck: u64,
    /// Racecheck violations.
    pub racecheck: u64,
    /// Initcheck violations.
    pub initcheck: u64,
}

impl Escalation {
    /// Clean under all three dynamic checkers?
    pub fn passed(&self) -> bool {
        self.memcheck + self.racecheck + self.initcheck == 0
    }
}

/// Static verdicts for one kernel, aggregated over its plan variants.
pub struct KernelStaticVerdict {
    /// Kernel registry id (or `hp-spmm` / `hp-sddmm`).
    pub id: String,
    /// Symbolic plans examined.
    pub plans: usize,
    /// Worst bounds verdict.
    pub bounds: CheckAgg,
    /// Worst race verdict.
    pub race: CheckAgg,
    /// Worst init verdict.
    pub init: CheckAgg,
    /// Dynamic run on the witness graph; `None` when fully proved (the
    /// whole point of the gate: proved kernels skip the dynamic pass).
    pub escalation: Option<Escalation>,
}

impl KernelStaticVerdict {
    /// All three checkers statically proved on every variant?
    pub fn fully_proved(&self) -> bool {
        self.bounds.verdict.is_proved()
            && self.race.verdict.is_proved()
            && self.init.verdict.is_proved()
    }

    /// Any variant statically refuted on any checker?
    pub fn any_refuted(&self) -> bool {
        self.bounds.verdict.is_refuted()
            || self.race.verdict.is_refuted()
            || self.init.verdict.is_refuted()
    }
}

/// `Refuted` dominates `Unknown` dominates `Proved`.
fn severity(v: &CheckVerdict) -> u8 {
    match v {
        CheckVerdict::Proved => 0,
        CheckVerdict::Unknown { .. } => 1,
        CheckVerdict::Refuted(_) => 2,
    }
}

fn aggregate(id: &str, plans: &[SymbolicPlan]) -> KernelStaticVerdict {
    assert!(!plans.is_empty(), "{id}: no symbolic plans emitted");
    let mut worst: [Option<CheckAgg>; 3] = [None, None, None];
    for plan in plans {
        let v = verify_plan(plan);
        for (slot, kind) in worst.iter_mut().zip(CheckKind::ALL) {
            let verdict = v.check(kind);
            let replace = slot
                .as_ref()
                .map(|agg| severity(verdict) > severity(&agg.verdict))
                .unwrap_or(true);
            if replace {
                *slot = Some(CheckAgg {
                    verdict: verdict.clone(),
                    variant: plan.variant.clone(),
                });
            }
        }
        hpsparse_trace::counter_add("verify.plans", 1);
    }
    let [bounds, race, init] = worst.map(|slot| slot.expect("plans is non-empty"));
    KernelStaticVerdict {
        id: id.to_string(),
        plans: plans.len(),
        bounds,
        race,
        init,
        escalation: None,
    }
}

/// The escalation witness graph: same triplet family as the mutant test
/// graph — rows split across warps, scattered columns — so a dynamic run
/// exercises chunk boundaries and gather paths.
fn witness_graph() -> Hybrid {
    mutants::mutant_test_graph()
}

/// Dynamic sanitizer run for one non-proved kernel on the witness graph.
fn escalate(device: &DeviceSpec, id: &str) -> Escalation {
    let _span = hpsparse_trace::span("verify:escalate");
    hpsparse_trace::counter_add("verify.escalations", 1);
    let s = witness_graph();
    let report = sanitize_run(device.clone(), |sim| {
        if id == "hp-fused-mha" {
            HpFusedMha::auto(device, &s, VERIFY_K)
                .cost_on(sim, &s, VERIFY_K, 2)
                .unwrap_or_else(|e| panic!("escalation {id}: {e:?}"));
        } else if id == "hp-spmm" || registry::spmm_by_id(id).is_some() {
            let kernel: Box<dyn hpsparse_core::SpmmKernel> = if id == "hp-spmm" {
                Box::new(HpSpmm::auto(device, &s, VERIFY_K))
            } else {
                registry::spmm_by_id(id).expect("checked above")
            };
            let a = crate::runner::bench_features(s.cols(), VERIFY_K);
            kernel
                .run_on(sim, &s, &a)
                .unwrap_or_else(|e| panic!("escalation {id}: {e:?}"));
        } else {
            let kernel: Box<dyn hpsparse_core::SddmmKernel> = if id == "hp-sddmm" {
                Box::new(HpSddmm::auto(device, &s, VERIFY_K))
            } else {
                registry::sddmm_by_id(id).expect("registry id resolves")
            };
            let a1 = crate::runner::bench_features(s.rows(), VERIFY_K);
            let a2t = crate::runner::bench_features(s.cols(), VERIFY_K);
            kernel
                .run_on(sim, &s, &a1, &a2t)
                .unwrap_or_else(|e| panic!("escalation {id}: {e:?}"));
        }
    });
    Escalation {
        memcheck: report.memcheck,
        racecheck: report.racecheck,
        initcheck: report.initcheck,
    }
}

/// Static verdicts for every registry kernel, escalating non-proved ones
/// to the dynamic sanitizer. Hard-asserts the gate's invariants: all 16
/// kernels get a verdict and no unmutated kernel is statically refuted.
pub fn collect(device: &DeviceSpec) -> Vec<KernelStaticVerdict> {
    let mut verdicts: Vec<KernelStaticVerdict> = Vec::new();

    {
        let _span = hpsparse_trace::span("verify:hp-spmm");
        let plans: Vec<SymbolicPlan> = hp_configs()
            .into_iter()
            .flat_map(|config| hpsparse_core::SpmmKernel::symbolic_plans(&HpSpmm { config }))
            .collect();
        verdicts.push(aggregate("hp-spmm", &plans));
    }
    for id in registry::SPMM_IDS {
        let _span = hpsparse_trace::span(&format!("verify:{id}"));
        let kernel = registry::spmm_by_id(id).expect("registry id resolves");
        verdicts.push(aggregate(id, &kernel.symbolic_plans()));
    }
    {
        let _span = hpsparse_trace::span("verify:hp-sddmm");
        let plans: Vec<SymbolicPlan> = hp_configs()
            .into_iter()
            .flat_map(|config| hpsparse_core::SddmmKernel::symbolic_plans(&HpSddmm { config }))
            .collect();
        verdicts.push(aggregate("hp-sddmm", &plans));
    }
    for id in registry::SDDMM_IDS {
        let _span = hpsparse_trace::span(&format!("verify:{id}"));
        let kernel = registry::sddmm_by_id(id).expect("registry id resolves");
        verdicts.push(aggregate(id, &kernel.symbolic_plans()));
    }
    {
        let _span = hpsparse_trace::span("verify:hp-fused-mha");
        let plans: Vec<SymbolicPlan> = hp_configs()
            .into_iter()
            .flat_map(|config| HpFusedMha { config }.symbolic_plans())
            .collect();
        verdicts.push(aggregate("hp-fused-mha", &plans));
    }

    for v in &mut verdicts {
        if v.fully_proved() {
            hpsparse_trace::counter_add("verify.proved", 1);
        } else {
            v.escalation = Some(escalate(device, &v.id));
        }
        assert!(
            !v.any_refuted(),
            "{}: statically refuted — bounds={} race={} init={}",
            v.id,
            v.bounds.verdict.status(),
            v.race.verdict.status(),
            v.init.verdict.status()
        );
    }
    assert_eq!(
        verdicts.len(),
        1 + registry::SPMM_IDS.len() + 1 + registry::SDDMM_IDS.len() + 1,
        "every registry kernel must get a verdict"
    );
    verdicts
}

/// One mutant's gate verdict: statically refuted by exactly the intended
/// checker, with the refutation confirmed dynamically.
pub struct MutantStaticVerdict {
    /// Mutant kernel name.
    pub name: String,
    /// The checker the seeded defect must trip.
    pub expected: CheckKind,
    /// The static verdict on the targeted checker.
    pub verdict: CheckVerdict,
    /// No *other* checker refuted (defects must not bleed).
    pub others_clean: bool,
    /// The dynamic sanitizer flagged exactly the same checker.
    pub dynamically_confirmed: bool,
}

impl MutantStaticVerdict {
    /// Statically refuted on the intended checker, nowhere else, and
    /// dynamically confirmed?
    pub fn caught(&self) -> bool {
        self.verdict.is_refuted() && self.others_clean && self.dynamically_confirmed
    }
}

/// Verifies every seeded mutant statically and cross-confirms each
/// refutation with the dynamic sanitizer. Hard-asserts all are caught.
pub fn collect_mutants(device: &DeviceSpec) -> Vec<MutantStaticVerdict> {
    let _span = hpsparse_trace::span("verify:mutants");
    let dynamic = sanitize::collect_mutants(device);
    let verdicts: Vec<MutantStaticVerdict> = mutants::all_mutants()
        .into_iter()
        .map(|m| {
            let expected = match m.name() {
                "mutant:oob-tail" => CheckKind::Bounds,
                "mutant:racy-tail" => CheckKind::Race,
                "mutant:uninit-acc" => CheckKind::Init,
                "mutant:eager-norm" => CheckKind::Init,
                other => panic!("unknown mutant {other}"),
            };
            let plans = m.symbolic_plans();
            assert_eq!(plans.len(), 1, "{}: one plan expected", m.name());
            let v = verify_plan(&plans[0]);
            let others_clean = CheckKind::ALL
                .into_iter()
                .filter(|k| *k != expected)
                .all(|k| !v.check(k).is_refuted());
            let dynamically_confirmed = dynamic
                .iter()
                .any(|d| d.name == m.name() && d.exactly_intended());
            MutantStaticVerdict {
                name: m.name().to_string(),
                expected,
                verdict: v.check(expected).clone(),
                others_clean,
                dynamically_confirmed,
            }
        })
        .collect();
    for m in &verdicts {
        assert!(
            m.caught(),
            "{}: expected a statically refuted, dynamically confirmed {} defect (got {})",
            m.name,
            m.expected,
            m.verdict.status()
        );
    }
    verdicts
}

/// Full-effort soundness cross-check: every statically proved kernel must
/// come back clean from the dynamic sweep over every registry graph.
/// Returns (kernels cross-checked, graphs per kernel).
fn cross_validate(
    device: &DeviceSpec,
    effort: Effort,
    verdicts: &[KernelStaticVerdict],
) -> (usize, usize) {
    let _span = hpsparse_trace::span("verify:cross-validate");
    let dynamic = sanitize::collect(device, effort, VERIFY_K);
    let mut checked = 0;
    let mut graphs = 0;
    for v in verdicts.iter().filter(|v| v.fully_proved()) {
        let d = dynamic
            .iter()
            .find(|d| d.id == v.id)
            .unwrap_or_else(|| panic!("{}: missing from dynamic sweep", v.id));
        assert!(
            d.passed(),
            "{}: statically proved but the dynamic sanitizer found {} violations on {:?}",
            v.id,
            d.memcheck + d.racecheck + d.initcheck,
            d.failing_graphs
        );
        checked += 1;
        graphs = graphs.max(d.graphs);
    }
    (checked, graphs)
}

/// Runs the gate and renders the verdict tables.
pub fn run(device: &DeviceSpec, effort: Effort) -> ExperimentOutput {
    let verdicts = collect(device);
    let mutant_verdicts = collect_mutants(device);
    let cross = match effort {
        Effort::Quick => None,
        Effort::Full => Some(cross_validate(device, effort, &verdicts)),
    };
    render(device, effort, &verdicts, &mutant_verdicts, cross)
}

fn gate_cell(v: &KernelStaticVerdict) -> String {
    match &v.escalation {
        None => "proved".to_string(),
        Some(e) if e.passed() => "escalated: dynamic PASS".to_string(),
        Some(e) => format!(
            "escalated: dynamic FAIL (mem={} race={} init={})",
            e.memcheck, e.racecheck, e.initcheck
        ),
    }
}

fn check_cell(agg: &CheckAgg) -> String {
    match &agg.verdict {
        CheckVerdict::Proved => "proved".to_string(),
        CheckVerdict::Unknown { .. } => format!("UNKNOWN [{}]", agg.variant),
        CheckVerdict::Refuted(_) => format!("REFUTED [{}]", agg.variant),
    }
}

/// Formats the verification report.
pub fn render(
    device: &DeviceSpec,
    effort: Effort,
    verdicts: &[KernelStaticVerdict],
    mutant_verdicts: &[MutantStaticVerdict],
    cross: Option<(usize, usize)>,
) -> ExperimentOutput {
    let rows: Vec<Vec<String>> = verdicts
        .iter()
        .map(|v| {
            vec![
                v.id.clone(),
                format!("{}", v.plans),
                check_cell(&v.bounds),
                check_cell(&v.race),
                check_cell(&v.init),
                gate_cell(v),
            ]
        })
        .collect();
    let header = ["Kernel", "Plans", "Bounds", "Race", "Init", "Gate"];

    let mutant_rows: Vec<Vec<String>> = mutant_verdicts
        .iter()
        .map(|m| {
            let cex = match &m.verdict {
                CheckVerdict::Refuted(cex) => format!("{cex}"),
                other => other.status().to_string(),
            };
            vec![
                m.name.clone(),
                m.expected.to_string(),
                m.verdict.status().to_string(),
                if m.dynamically_confirmed { "yes" } else { "NO" }.to_string(),
                cex,
            ]
        })
        .collect();
    let mutant_header = [
        "Mutant",
        "Expected",
        "Static",
        "Dyn-confirmed",
        "Counterexample",
    ];

    let proved = verdicts.iter().filter(|v| v.fully_proved()).count();
    let escalated = verdicts.len() - proved;
    let cross_note = match cross {
        Some((kernels, graphs)) => format!(
            "  soundness cross-check: {kernels} statically proved kernels × {graphs} registry \
             graphs re-ran under the dynamic sanitizer — all clean\n"
        ),
        None => String::from(
            "  (soundness cross-check against the full dynamic sweep runs at --full effort)\n",
        ),
    };

    let text = format!(
        "verify — static bounds/race/init verification over symbolic plans, {} ({})\n\n{}\n  \
         gate: {proved}/{} kernels statically proved on every variant; {escalated} escalated \
         to the dynamic sanitizer\n{cross_note}\n\
         seeded-mutant refutation (each defect statically refuted on exactly its checker,\n\
         confirmed by the dynamic sanitizer on the mutant test graph):\n\n{}",
        device.name,
        effort.label(),
        table::render(&header, &rows),
        verdicts.len(),
        table::render(&mutant_header, &mutant_rows),
    );

    let json_kernels: Vec<serde_json::Value> = verdicts
        .iter()
        .map(|v| {
            let agg_json = |agg: &CheckAgg| {
                json!({
                    "status": agg.verdict.status(),
                    "variant": agg.variant.as_str(),
                })
            };
            json!({
                "id": v.id.as_str(),
                "plans": v.plans,
                "fully_proved": v.fully_proved(),
                "bounds": agg_json(&v.bounds),
                "race": agg_json(&v.race),
                "init": agg_json(&v.init),
                "escalation": match &v.escalation {
                    Some(e) => json!({
                        "memcheck": e.memcheck,
                        "racecheck": e.racecheck,
                        "initcheck": e.initcheck,
                        "pass": e.passed(),
                    }),
                    None => serde_json::Value::Null,
                },
            })
        })
        .collect();
    let json_mutants: Vec<serde_json::Value> = mutant_verdicts
        .iter()
        .map(|m| {
            json!({
                "name": m.name.as_str(),
                "expected": m.expected.label(),
                "static": m.verdict.status(),
                "counterexample": match &m.verdict {
                    CheckVerdict::Refuted(cex) => cex.to_json(),
                    _ => serde_json::Value::Null,
                },
                "dynamically_confirmed": m.dynamically_confirmed,
                "caught": m.caught(),
            })
        })
        .collect();

    ExperimentOutput::new(
        text,
        json!({
            "device": device.name,
            "effort": effort.label(),
            "kernels_proved": proved,
            "kernels_escalated": escalated,
            "cross_checked_kernels": cross.map(|(k, _)| k),
            "cross_checked_graphs": cross.map(|(_, g)| g),
            "kernels": json_kernels,
            "mutants": json_mutants,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_all_kernels_proved_and_mutants_refuted() {
        let out = run(&DeviceSpec::v100(), Effort::Quick);
        let kernels = out.json["kernels"].as_array().unwrap();
        assert_eq!(kernels.len(), 16);
        assert_eq!(
            out.json["kernels_proved"].as_u64(),
            Some(16),
            "{}",
            out.text
        );
        assert_eq!(out.json["kernels_escalated"].as_u64(), Some(0));
        for k in kernels {
            assert_eq!(k["fully_proved"].as_bool(), Some(true), "{}", k["id"]);
            assert!(k["plans"].as_u64().unwrap() > 0, "{}", k["id"]);
        }
        // The HP kernels aggregate over the full autotuner enumeration.
        assert!(kernels[0]["plans"].as_u64().unwrap() >= 18);
        let mutants = out.json["mutants"].as_array().unwrap();
        assert_eq!(mutants.len(), 4);
        for m in mutants {
            assert_eq!(m["static"].as_str(), Some("refuted"), "{}", m["name"]);
            assert_eq!(m["caught"].as_bool(), Some(true), "{}", m["name"]);
            assert!(!m["counterexample"]["buffer"].as_str().unwrap().is_empty());
        }
    }

    #[test]
    fn report_is_deterministic() {
        let a = run(&DeviceSpec::v100(), Effort::Quick);
        let b = run(&DeviceSpec::v100(), Effort::Quick);
        assert_eq!(a.text, b.text);
    }
}
