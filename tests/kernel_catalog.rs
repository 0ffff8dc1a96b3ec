//! Tier-1 witness per kernel-catalogue row: the list is the sixteen kernels
//! in the order `repro verify` prints them, and every row — on the mutant
//! test graph, a power-law graph at K = 64 and a ragged 300-node graph — is
//! sanitizer-clean and reports the same launches observed by the sanitizer
//! as unobserved; every seeded mutant is flagged by exactly the checker its
//! defect targets. Unlaunchable HP configurations answer with a typed
//! error. Every planner variant on tile-boundary shapes is
//! `boundary_shapes.rs`'s sweep.

use hpsparse::datasets::generators::{GeneratorConfig, Topology};
use hpsparse::kernels::baselines::{SDDMM_IDS, SPMM_IDS};
use hpsparse::kernels::catalog::{Kernel, KERNELS};
use hpsparse::kernels::hp::{HpConfig, HpFusedMha, HpSddmm, HpSpmm};
use hpsparse::kernels::mutants::{all_mutants, mutant_test_graph};
use hpsparse::sim::{DeviceSpec, GpuSim, Property};
use hpsparse::sparse::{FormatError, Hybrid};
use hpsparse_verify::sanitize_run;

const K: usize = 32;

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

/// A 300-node graph of about 3 000 edges with ragged rows.
fn quick_graph() -> Hybrid {
    let triplets: Vec<(u32, u32, f32)> = (0..3000u32)
        .map(|i| {
            (
                i.wrapping_mul(2654435761) % 300,
                (i * 13) % 300,
                1.0 + (i % 5) as f32,
            )
        })
        .collect();
    Hybrid::from_triplets(300, 300, &triplets).unwrap()
}

#[test]
fn every_row_is_clean_and_observer_independent() {
    let device = DeviceSpec::v100();
    let power_law = GeneratorConfig {
        nodes: 800,
        edges: 8_000,
        topology: Topology::PowerLaw { alpha: 2.1 },
        seed: 8,
    };
    let inputs = [
        ("mutant test graph", mutant_test_graph(), K),
        ("power-law graph", power_law.generate().to_hybrid(), 64),
        ("quick graph", quick_graph(), K),
    ];
    for row in &KERNELS {
        for (graph, s, k) in &inputs {
            let kernel = row.auto(&device, s, *k);
            // The sanitizer's walk is the observed walk: its sink expands
            // every descriptor, so its launches are the oracle the
            // unobserved walk is held to.
            let mut observed = None;
            let report = sanitize_run(device.clone(), |sim| {
                observed = Some(kernel.cost_on(sim, s, *k).unwrap());
            });
            let what = format!("{} on the {graph} at K = {k}", row.id);
            assert!(report.passed() && report.events > 0, "{what}: {report}");

            let mut sim = GpuSim::new(device.clone());
            let launches = kernel.cost_on(&mut sim, s, *k).unwrap();
            assert_eq!(Some(&launches), observed.as_ref(), "{what}");
            assert!(launches.exec.iter().all(|r| r.cycles > 0), "{what}");
        }
    }
}

#[test]
fn every_mutant_is_flagged_on_its_defect_alone() {
    let s = mutant_test_graph();
    for (defect, mutant) in all_mutants() {
        let report = sanitize_run(DeviceSpec::v100(), |sim| {
            mutant.cost_on(sim, &s, K).unwrap();
        });
        let named = report.examples.iter().all(|v| v.kernel == mutant.name());
        assert!(named && !report.examples.is_empty(), "{report}");
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
