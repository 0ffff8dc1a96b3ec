//! Sanitizer attribution on real kernel streams: a seeded mutant's
//! violation names its kernel, the issuing warp, the offending address and
//! the declared buffer it lands in; and a detached sink stops observing.
//! That every catalogue kernel is clean and every mutant trips exactly its
//! checker is held by the root `tests/kernel_catalog.rs` and by
//! `repro -- verify`.

use hpsparse_core::hp::HpSpmm;
use hpsparse_core::mutants::{mutant_test_graph, MutantOobTail};
use hpsparse_core::traits::SpmmKernel;
use hpsparse_sim::{DeviceSpec, GpuSim, Property};
use hpsparse_sparse::{Dense, Hybrid};
use hpsparse_verify::{Report, Sanitizer};

/// Runs one SpMM kernel under a fresh sanitizer and returns the verdict.
fn sanitized_spmm(kernel: &dyn SpmmKernel, s: &Hybrid, a: &Dense) -> Report {
    let sanitizer = Sanitizer::new();
    let mut sim = GpuSim::new(DeviceSpec::v100());
    sim.attach_sink(sanitizer.sink());
    kernel.run_on(&mut sim, s, a).expect("kernel runs");
    sanitizer.report()
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
    let s = mutant_test_graph();
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
