//! `verify` — prove-or-escalate static verification gate.
//!
//! Part 1: every catalogue kernel's symbolic plans (for HP kernels, every
//! configuration a planner can pick) run through the
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

use crate::experiments::sanitize::{self, SANITIZE_K};
use crate::experiments::{Effort, ExperimentOutput};
use crate::table;
use hpsparse_core::catalog::{Row, KERNELS};
use hpsparse_core::mutants::{self, Defect};
use hpsparse_sanitize::{sanitize_run, Report};
use hpsparse_sim::{DeviceSpec, SymbolicPlan};
use hpsparse_verify::{verify_plan, CheckKind, CheckVerdict};
use serde_json::{json, ToJson};

/// Worst-over-variant aggregate for one checker on one kernel.
pub struct CheckAgg {
    /// The worst verdict across every plan variant.
    pub verdict: CheckVerdict,
    /// The variant that produced it.
    pub variant: String,
}

/// Static verdicts for one kernel, aggregated over its plan variants.
pub struct KernelStaticVerdict {
    /// Catalogue id.
    pub id: String,
    /// Symbolic plans examined.
    pub plans: usize,
    /// Worst bounds verdict.
    pub bounds: CheckAgg,
    /// Worst race verdict.
    pub race: CheckAgg,
    /// Worst init verdict.
    pub init: CheckAgg,
    /// The dynamic sanitizer's report on the witness graph; `None` when
    /// fully proved (the whole point of the gate: proved kernels skip the
    /// dynamic pass).
    pub escalation: Option<Report>,
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

/// Dynamic sanitizer run for one non-proved kernel on the witness graph:
/// the mutant test graph — rows split across warps, scattered columns — so
/// the run exercises chunk boundaries and gather paths.
fn escalate(device: &DeviceSpec, row: &Row) -> Report {
    let _span = hpsparse_trace::span("verify:escalate");
    hpsparse_trace::counter_add("verify.escalations", 1);
    let s = mutants::mutant_test_graph();
    sanitize_run(device.clone(), |sim| {
        row.auto(device, &s, SANITIZE_K)
            .cost_on(sim, &s, SANITIZE_K)
            .unwrap_or_else(|e| panic!("escalation {}: {e:?}", row.id));
    })
}

/// Static verdicts for every catalogue kernel over all its planner
/// variants, escalating non-proved ones to the dynamic sanitizer.
/// Hard-asserts the gate's invariant: no unmutated kernel is statically
/// refuted.
pub fn collect(device: &DeviceSpec) -> Vec<KernelStaticVerdict> {
    let verdict_of = |row: &Row| {
        let _span = hpsparse_trace::span(&format!("verify:{}", row.id));
        let variants = row.planner_variants();
        let plans: Vec<SymbolicPlan> = variants.iter().flat_map(|v| v.symbolic_plans()).collect();
        let mut v = aggregate(row.id, &plans);
        if v.fully_proved() {
            hpsparse_trace::counter_add("verify.proved", 1);
        } else {
            v.escalation = Some(escalate(device, row));
        }
        assert!(
            !v.any_refuted(),
            "{}: statically refuted — bounds={} race={} init={}",
            v.id,
            v.bounds.verdict.status(),
            v.race.verdict.status(),
            v.init.verdict.status()
        );
        v
    };
    KERNELS.iter().map(verdict_of).collect()
}

/// The static check a seeded defect must be refuted on.
pub fn check_kind_of(defect: Defect) -> CheckKind {
    match defect {
        Defect::Bounds => CheckKind::Bounds,
        Defect::Race => CheckKind::Race,
        Defect::Init => CheckKind::Init,
    }
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
        .zip(&dynamic)
        .map(|((defect, m), dynamic)| {
            assert_eq!(dynamic.name, m.name(), "one mutant list, one order");
            let expected = check_kind_of(defect);
            let plans = m.symbolic_plans();
            assert_eq!(plans.len(), 1, "{}: one plan expected", m.name());
            let v = verify_plan(&plans[0]);
            let others_clean = CheckKind::ALL
                .into_iter()
                .filter(|k| *k != expected)
                .all(|k| !v.check(k).is_refuted());
            MutantStaticVerdict {
                name: m.name().to_string(),
                expected,
                verdict: v.check(expected).clone(),
                others_clean,
                dynamically_confirmed: dynamic.exactly_intended(),
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
    let dynamic = sanitize::collect(device, effort, SANITIZE_K);
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
        assert_eq!(kernels.len(), KERNELS.len());
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
        // The HP kernels aggregate over every planner variant.
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
