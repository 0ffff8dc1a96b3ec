//! Tier-1 witness per kernel-catalogue row: the list is the sixteen kernels
//! in the order `repro verify` prints them, and every row — on the mutant
//! test graph, in well under a second — is sanitizer-clean, reports the
//! same launches observed by the sanitizer as unobserved, and is statically
//! proved at every planner variant; every seeded mutant is refuted on
//! exactly its defect and flagged by exactly that dynamic checker.
//! Unlaunchable HP configurations answer with a typed error.

use hpsparse::kernels::baselines::{SDDMM_IDS, SPMM_IDS};
use hpsparse::kernels::catalog::{Kernel, KERNELS};
use hpsparse::kernels::hp::{HpConfig, HpFusedMha, HpSddmm, HpSpmm};
use hpsparse::kernels::mutants::{all_mutants, mutant_test_graph};
use hpsparse::sim::{DeviceSpec, GpuSim, Property};
use hpsparse::sparse::FormatError;
use hpsparse_sanitize::sanitize_run;
use hpsparse_verify::{verify_plan, CheckVerdict};

const K: usize = 32;

/// Each mutant's static counterexample, in `all_mutants` order, after the
/// witness shape `at (m=10, n=50, nnz=1000, k=32): `.
const COUNTEREXAMPLES: [&str; 4] = [
    "launch 'mutant:oob-tail' warp 15 buffer 'col_ind' [960, +41): \
     overruns the 1000-element allocation",
    "launch 'mutant:racy-tail' warp 1 buffer 'O' [0, +32): \
     element 0 also stored by warp 0 (plain-vs-plain)",
    "launch 'mutant:uninit-acc' warp 0 buffer 'O' [0, +32): \
     read of uninitialized element 0",
    "launch 'mutant:eager-norm' warp 0 buffer 'scores' [0, +64): \
     read of uninitialized element 0",
];

#[test]
fn the_catalogue_is_ours_then_the_registry_per_operation() {
    let mut want = vec!["hp-spmm"];
    want.extend(SPMM_IDS);
    want.push("hp-sddmm");
    want.extend(SDDMM_IDS);
    want.push("hp-fused-mha");
    let ids: Vec<&str> = KERNELS.iter().map(|row| row.id).collect();
    assert_eq!(ids, want);
}

#[test]
fn every_row_is_clean_observer_independent_and_proved() {
    let device = DeviceSpec::v100();
    let s = mutant_test_graph();
    for row in &KERNELS {
        let kernel = row.auto(&device, &s, K);
        // The sanitizer's walk is the observed walk: its sink expands every
        // descriptor, so its launches are the oracle the unobserved walk is
        // held to.
        let mut observed = None;
        let report = sanitize_run(device.clone(), |sim| {
            observed = Some(kernel.cost_on(sim, &s, K).unwrap());
        });
        assert!(report.passed() && report.events > 0, "{}: {report}", row.id);

        let mut sim = GpuSim::new(device.clone());
        let launches = kernel.cost_on(&mut sim, &s, K).unwrap();
        assert_eq!(Some(&launches), observed.as_ref(), "{}", row.id);
        assert!(launches.exec.iter().all(|r| r.cycles > 0), "{}", row.id);

        for variant in row.planner_variants() {
            let plans = variant.symbolic_plans();
            assert!(!plans.is_empty(), "{}", row.id);
            for plan in &plans {
                let verdict = verify_plan(plan);
                for property in Property::ALL {
                    let check = verdict.check(property);
                    assert!(
                        check.is_proved(),
                        "{} [{}] {}: {check:?}",
                        row.id,
                        plan.variant,
                        property.label()
                    );
                }
            }
        }
    }
}

#[test]
fn every_mutant_is_caught_statically_and_dynamically_on_its_defect_alone() {
    let s = mutant_test_graph();
    for (i, (defect, mutant)) in all_mutants().into_iter().enumerate() {
        let plans = mutant.symbolic_plans();
        assert_eq!(plans.len(), 1, "{}", mutant.name());
        let verdict = verify_plan(&plans[0]);
        for p in Property::ALL {
            let refuted = verdict.check(p).is_refuted();
            assert_eq!(refuted, p == defect, "{} on {}", mutant.name(), p.label());
        }
        let CheckVerdict::Refuted(cex) = verdict.check(defect) else {
            unreachable!("refuted above")
        };
        let want = format!("at (m=10, n=50, nnz=1000, k=32): {}", COUNTEREXAMPLES[i]);
        assert_eq!(cex.to_string(), want);
        let report = sanitize_run(DeviceSpec::v100(), |sim| {
            mutant.cost_on(sim, &s, K).unwrap();
        });
        for p in Property::ALL {
            let flagged = report.count(p) > 0;
            assert_eq!(
                flagged,
                p == defect,
                "{} under {}",
                mutant.name(),
                p.checker()
            );
        }
    }
}

/// Bad input at the kernel boundary is refused, not a panic: a hand-built
/// `HpConfig` the kernels cannot launch with — a zero or unsupported vector
/// width (division by zero, a tile loop that never advances), an empty
/// block, a NaN `alpha` — is refused by all three HP cost walks before any
/// launch.
#[test]
fn unlaunchable_hp_configs_are_typed_errors() {
    let device = DeviceSpec::v100();
    let s = mutant_test_graph();
    let ok = HpConfig::hvma_at(64, K);
    let bad = [
        HpConfig {
            vector_width: 0,
            ..ok
        },
        HpConfig {
            vector_width: 3,
            ..ok
        },
        HpConfig {
            warps_per_block: 0,
            ..ok
        },
        HpConfig {
            alpha: f64::NAN,
            ..ok
        },
    ];
    let kernels_at = |config| {
        [
            Kernel::Spmm(Box::new(HpSpmm::new(config))),
            Kernel::Sddmm(Box::new(HpSddmm::new(config))),
            Kernel::FusedMha(HpFusedMha::new(config)),
        ]
    };
    // Every field in range, but at K = 400 a block of 32 warps needs 118
    // registers a thread (SpMM) and fits no V100 SM.
    let unresidentable = HpConfig {
        nnz_per_warp: 32,
        vector_width: 4,
        warps_per_block: 32,
        alpha: 2.0,
    };
    assert!(unresidentable.is_launchable());
    let cases = bad.map(|config| (config, K)).into_iter();
    for (config, k) in cases.chain([(unresidentable, 400)]) {
        for kernel in kernels_at(config) {
            let mut sim = GpuSim::new(device.clone());
            let got = kernel.cost_on(&mut sim, &s, k);
            assert!(
                matches!(got, Err(FormatError::InvalidConfig { .. })),
                "{} at {config:?}, k {k}: {got:?}",
                kernel.name()
            );
            // Refused before anything was allocated or launched.
            let untouched = GpuSim::new(device.clone()).alloc_elems(1).base();
            assert_eq!(sim.alloc_elems(1).base(), untouched);
        }
    }
    for kernel in kernels_at(ok) {
        assert!(kernel
            .cost_on(&mut GpuSim::new(device.clone()), &s, K)
            .is_ok());
    }
}
