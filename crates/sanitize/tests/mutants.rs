//! End-to-end sanitizer coverage: every real kernel passes all three
//! checkers, and each seeded mutant trips exactly the checker its defect
//! targets — named by kernel, with the offending address attributed to the
//! right buffer.

use hpsparse_core::catalog::KERNELS;
use hpsparse_core::hp::HpSpmm;
use hpsparse_core::mutants::{all_mutants, mutant_test_graph, MutantOobTail};
use hpsparse_core::traits::SpmmKernel;
use hpsparse_datasets::{full_graph_dataset, store};
use hpsparse_sanitize::{sanitize_run, Report, Sanitizer};
use hpsparse_sim::{DeviceSpec, GpuSim, Property};
use hpsparse_sparse::{Dense, Hybrid};

/// Runs one SpMM kernel under a fresh sanitizer and returns the verdict.
fn sanitized_spmm(kernel: &dyn SpmmKernel, s: &Hybrid, a: &Dense) -> Report {
    let sanitizer = Sanitizer::new();
    let mut sim = GpuSim::new(DeviceSpec::v100());
    sim.attach_sink(sanitizer.sink());
    kernel.run_on(&mut sim, s, a).expect("kernel runs");
    sanitizer.report()
}

/// A quick power-law-ish graph: 300 nodes, ~3000 edges, ragged rows.
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
fn full_catalogue_passes_all_checkers_on_quick_graph() {
    let s = quick_graph();
    let k = 32;
    let v100 = DeviceSpec::v100();
    for row in &KERNELS {
        let kernel = row.auto(&v100, &s, k);
        let report = sanitize_run(v100.clone(), |sim| {
            kernel.cost_on(sim, &s, k).expect("kernel runs");
        });
        assert!(report.passed(), "{}: {report}", row.id);
        assert!(report.events > 0, "{} produced no events", row.id);
    }
}

#[test]
fn hp_spmm_passes_on_a_registry_dataset() {
    // One real (scaled) registry graph, per the repro sweep's sourcing.
    let spec = &full_graph_dataset()[0];
    let s = store::graph(spec, 8_000).to_hybrid();
    let k = 32;
    let a = Dense::from_fn(s.cols(), k, |i, j| ((i + j) as f32 * 1e-3).sin());
    let v100 = DeviceSpec::v100();
    let report = sanitized_spmm(&HpSpmm::auto(&v100, &s, k), &s, &a);
    assert!(report.passed(), "{}: {report}", spec.name);
}

#[test]
fn oob_mutant_trips_memcheck_with_kernel_and_address() {
    let s = mutant_test_graph();
    let a = Dense::from_fn(s.cols(), 16, |i, j| (i + j) as f32);
    let report = sanitized_spmm(&MutantOobTail, &s, &a);
    assert_eq!(report.memcheck, 1, "{report}");
    assert_eq!(report.racecheck + report.initcheck, 0, "{report}");

    let v = &report.examples[0];
    assert_eq!(v.property, Property::Bounds);
    assert_eq!(v.kernel, "mutant:oob-tail");
    assert_eq!(v.buffer, Some("col_ind"));
    // The defect: the last chunk (start 960 of nnz 1000) reads 41 elements
    // where 40 remain, overrunning the 4000-byte col_ind allocation by 4.
    assert_eq!(v.len_bytes, 41 * 4);
    assert!(
        v.detail.contains("offset 3840") && v.detail.contains("4000-byte"),
        "unexpected detail: {}",
        v.detail
    );
    assert_eq!(v.warp, (1000 / 64) as u64);
}

#[test]
fn each_mutant_trips_exactly_its_intended_checker() {
    let s = mutant_test_graph();
    let a = Dense::from_fn(s.cols(), 16, |i, j| (i * 3 + j) as f32);
    for (expected, mutant) in all_mutants() {
        let report = sanitized_spmm(mutant.as_ref(), &s, &a);
        assert!(
            report.count(expected) > 0,
            "{} did not trip {}: {report}",
            mutant.name(),
            expected.checker()
        );
        for property in Property::ALL {
            if property != expected {
                assert_eq!(
                    report.count(property),
                    0,
                    "{} tripped {} too: {report}",
                    mutant.name(),
                    property.checker()
                );
            }
        }
        // Every example is attributed to the mutant's launch name.
        assert!(!report.examples.is_empty());
        for v in &report.examples {
            assert_eq!(v.kernel, mutant.name());
        }
    }
}

#[test]
fn racy_mutant_names_output_buffer_and_conflicting_warps() {
    let s = mutant_test_graph();
    let a = Dense::from_fn(s.cols(), 16, |i, j| (i + 2 * j) as f32);
    let report = sanitized_spmm(&hpsparse_core::mutants::MutantRacyTail, &s, &a);
    assert!(report.racecheck > 0, "{report}");
    let v = &report.examples[0];
    assert_eq!(v.buffer, Some("O"));
    assert!(v.detail.contains("warp"), "detail: {}", v.detail);
}

#[test]
fn uninit_mutant_flags_first_touch_of_output() {
    let s = mutant_test_graph();
    let a = Dense::from_fn(s.cols(), 16, |i, j| (i + j) as f32);
    let report = sanitized_spmm(&hpsparse_core::mutants::MutantUninitAcc, &s, &a);
    assert!(report.initcheck > 0, "{report}");
    let v = &report.examples[0];
    assert_eq!(v.buffer, Some("O"));
    assert!(v.detail.contains("uninitialised"), "detail: {}", v.detail);
}

#[test]
fn detaching_the_sink_returns_the_recorder() {
    let s = quick_graph();
    let a = Dense::from_fn(s.cols(), 16, |i, j| (i + j) as f32);
    let sanitizer = Sanitizer::new();
    let mut sim = GpuSim::new(DeviceSpec::v100());
    sim.attach_sink(sanitizer.sink());
    assert!(sim.sink_attached());
    let v100 = DeviceSpec::v100();
    HpSpmm::auto(&v100, &s, 16)
        .run_on(&mut sim, &s, &a)
        .unwrap();
    let events_before = sanitizer.report().events;
    assert!(events_before > 0);
    // Detach: further launches stop streaming events.
    let _sink = sim.detach_sink().expect("a sink was attached");
    assert!(!sim.sink_attached());
    HpSpmm::auto(&v100, &s, 16)
        .run_on(&mut sim, &s, &a)
        .unwrap();
    assert_eq!(sanitizer.report().events, events_before);
}
