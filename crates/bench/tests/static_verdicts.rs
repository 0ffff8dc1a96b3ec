//! Static verifier verdicts over the kernel catalogue.
//!
//! Every catalogue kernel's symbolic plans must come back fully `Proved` on
//! all three checkers — for every HP configuration a planner can pick —
//! and each seeded mutant must be statically `Refuted` by exactly the
//! checker its defect targets, with a concrete counterexample attached.

use hpsparse_bench::experiments::verify::check_kind_of;
use hpsparse_core::catalog::KERNELS;
use hpsparse_core::mutants;
use hpsparse_verify::{verify_plan, CheckKind, CheckVerdict};

fn expect_all_proved(
    label: &str,
    plans: &[hpsparse_sim::SymbolicPlan],
    failures: &mut Vec<String>,
) {
    if plans.is_empty() {
        failures.push(format!("{label}: no symbolic plans emitted"));
        return;
    }
    for plan in plans {
        let v = verify_plan(plan);
        for kind in CheckKind::ALL {
            match v.check(kind) {
                CheckVerdict::Proved => {}
                CheckVerdict::Refuted(cex) => {
                    failures.push(format!("{label} [{}] {kind}: REFUTED {cex}", plan.variant));
                }
                CheckVerdict::Unknown { reason } => {
                    failures.push(format!(
                        "{label} [{}] {kind}: UNKNOWN ({reason})",
                        plan.variant
                    ));
                }
            }
        }
    }
}

#[test]
fn every_catalogue_kernel_fully_proved_on_every_planner_variant() {
    let mut failures = Vec::new();
    for row in &KERNELS {
        // HP rows: every configuration a planner can pick. The fused
        // attention plan covers all three launches, including the
        // shared-memory score tile and the L2 spill path.
        for kernel in row.planner_variants() {
            expect_all_proved(row.id, &kernel.symbolic_plans(), &mut failures);
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn mutants_statically_refuted_by_their_target_checker() {
    for (defect, m) in mutants::all_mutants() {
        let expected = check_kind_of(defect);
        let plans = m.symbolic_plans();
        assert_eq!(plans.len(), 1, "{}: one plan expected", m.name());
        let v = verify_plan(&plans[0]);
        match v.check(expected) {
            CheckVerdict::Refuted(cex) => {
                // The counterexample must name a real buffer and carry the
                // overrun-vs-wild attribution for bounds defects.
                assert!(!cex.buffer.is_empty());
                if expected == CheckKind::Bounds {
                    assert!(
                        cex.oob.is_some(),
                        "{}: bounds refutation lacks attribution",
                        m.name()
                    );
                }
            }
            other => panic!(
                "{} should be statically refuted on {expected}, got {other:?}",
                m.name()
            ),
        }
        // The seeded defect is the *only* refuted property.
        for kind in CheckKind::ALL {
            if kind != expected {
                assert!(
                    !v.check(kind).is_refuted(),
                    "{}: unexpected refutation on {kind}",
                    m.name()
                );
            }
        }
    }
}
