//! Cross-crate consistency: every kernel implementation — HP, all
//! baselines, simulated and CPU — must compute the same SpMM / SDDMM as
//! the sequential reference, across formats and feature widths.

use hpsparse::datasets::generators::{GeneratorConfig, Topology};
use hpsparse::kernels::baselines::{
    Aspt, CusparseCooAlg4, CusparseCsrAlg2, CusparseCsrAlg3, CusparseCsrSddmm, DglSddmm, GeSpmm,
    Huang, MergePath, RowSplit, Sputnik, TcGnn,
};
use hpsparse::kernels::cpu;
use hpsparse::kernels::hp::{HpSddmm, HpSpmm};
use hpsparse::kernels::{SddmmKernel, SpmmKernel};
use hpsparse::sim::{CostEngine, DeviceSpec, GpuSim};
use hpsparse::sparse::{reference, Dense, Graph, Hybrid};

fn test_graph(seed: u64, topology: Topology) -> Graph {
    GeneratorConfig {
        nodes: 800,
        edges: 8_000,
        topology,
        seed,
    }
    .generate()
}

fn features(rows: usize, k: usize, phase: f32) -> Dense {
    Dense::from_fn(rows, k, |i, j| ((i * k + j) as f32 * 1e-2 + phase).sin())
}

fn all_spmm_kernels() -> Vec<Box<dyn SpmmKernel>> {
    vec![
        Box::new(CusparseCsrAlg2),
        Box::new(CusparseCsrAlg3),
        Box::new(CusparseCooAlg4),
        Box::new(GeSpmm),
        Box::new(RowSplit),
        Box::new(MergePath::default()),
        Box::new(Aspt::default()),
        Box::new(Sputnik::default()),
        Box::new(Huang::default()),
        Box::new(TcGnn::default()),
    ]
}

#[test]
fn every_spmm_kernel_matches_the_reference_on_every_topology() {
    let v100 = DeviceSpec::v100();
    for (seed, topology) in [
        (1, Topology::PowerLaw { alpha: 2.1 }),
        (2, Topology::Uniform),
        (
            3,
            Topology::Community {
                communities: 16,
                p_in: 0.8,
                alpha: 2.4,
            },
        ),
    ] {
        let g = test_graph(seed, topology);
        let s = g.to_hybrid();
        let a = features(s.cols(), 64, seed as f32);
        let expected = reference::spmm(&s, &a).unwrap();

        let hp = HpSpmm::auto(&v100, &s, 64).run(&v100, &s, &a).unwrap();
        assert!(
            hp.output.approx_eq(&expected, 1e-4, 1e-4),
            "HP-SpMM mismatch on {topology:?}"
        );
        for kernel in all_spmm_kernels() {
            let run = kernel.run(&v100, &s, &a).unwrap();
            assert!(
                run.output.approx_eq(&expected, 1e-4, 1e-4),
                "{} mismatch on {topology:?}",
                kernel.name()
            );
            assert!(run.report.cycles > 0, "{} reported no work", kernel.name());
        }
    }
}

#[test]
fn spmm_agrees_across_feature_widths() {
    let v100 = DeviceSpec::v100();
    let g = test_graph(5, Topology::PowerLaw { alpha: 2.3 });
    let s = g.to_hybrid();
    for k in [1usize, 7, 16, 32, 33, 64, 100, 128, 256] {
        let a = features(s.cols(), k, 0.5);
        let expected = reference::spmm(&s, &a).unwrap();
        let hp = HpSpmm::auto(&v100, &s, k).run(&v100, &s, &a).unwrap();
        assert!(hp.output.approx_eq(&expected, 1e-4, 1e-4), "HP K={k}");
        let cpu_row = cpu::par_spmm_row(&s.to_csr(), &a).unwrap();
        assert!(cpu_row.approx_eq(&expected, 1e-4, 1e-4), "cpu row K={k}");
        let cpu_hyb = cpu::par_spmm_hybrid(&s, &a, 0).unwrap();
        assert!(cpu_hyb.approx_eq(&expected, 1e-4, 1e-4), "cpu hybrid K={k}");
    }
}

#[test]
fn every_sddmm_kernel_matches_the_reference() {
    let v100 = DeviceSpec::v100();
    let g = test_graph(9, Topology::PowerLaw { alpha: 2.2 });
    let s = g.to_hybrid();
    for k in [16usize, 64, 96] {
        let a1 = features(s.rows(), k, 0.1);
        let a2t = features(s.cols(), k, 0.7);
        let expected = reference::sddmm_transposed(&s, &a1, &a2t).unwrap();
        let kernels: Vec<Box<dyn SddmmKernel>> = vec![
            Box::new(HpSddmm::auto(&v100, &s, k)),
            Box::new(DglSddmm),
            Box::new(CusparseCsrSddmm),
        ];
        for kernel in kernels {
            let run = kernel.run(&v100, &s, &a1, &a2t).unwrap();
            assert_eq!(run.output_values.len(), expected.len());
            for (i, (x, y)) in run.output_values.iter().zip(&expected).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-3 * x.abs().max(y.abs()).max(1.0),
                    "{} K={k} element {i}: {x} vs {y}",
                    kernel.name()
                );
            }
        }
        let cpu_out = cpu::par_sddmm(&s, &a1, &a2t).unwrap();
        for (x, y) in cpu_out.iter().zip(&expected) {
            assert!((x - y).abs() <= 1e-3 * x.abs().max(1.0));
        }
    }
}

#[test]
fn devices_agree_numerically_but_not_on_time() {
    // The same kernel on V100 vs A30 must produce identical numerics and
    // (in general) different timing.
    let g = test_graph(13, Topology::PowerLaw { alpha: 2.2 });
    let s = g.to_hybrid();
    let a = features(s.cols(), 64, 0.0);
    let v100 = DeviceSpec::v100();
    let a30 = DeviceSpec::a30();
    let r1 = HpSpmm::auto(&v100, &s, 64).run(&v100, &s, &a).unwrap();
    let r2 = HpSpmm::auto(&a30, &s, 64).run(&a30, &s, &a).unwrap();
    assert_eq!(r1.output, r2.output);
    // A30 has 4x the L2: on this cache-sensitive workload its report
    // should differ somewhere.
    assert!(
        r1.report.time_ms != r2.report.time_ms || r1.report.l2_hit_rate != r2.report.l2_hit_rate
    );
}

#[test]
fn hybrid_format_roundtrips_through_every_path() {
    let g = test_graph(21, Topology::Uniform);
    let csr = g.adjacency().clone();
    let hybrid = csr.to_hybrid();
    let coo = csr.to_coo();
    assert_eq!(hybrid.to_csr(), csr);
    assert_eq!(Hybrid::from_coo(&coo), hybrid);
    assert_eq!(coo.to_csr(), csr);
}

#[test]
fn simulated_kernels_are_deterministic() {
    let v100 = DeviceSpec::v100();
    let g = test_graph(33, Topology::PowerLaw { alpha: 2.0 });
    let s = g.to_hybrid();
    let a = features(s.cols(), 32, 0.2);
    let r1 = HpSpmm::auto(&v100, &s, 32).run(&v100, &s, &a).unwrap();
    let r2 = HpSpmm::auto(&v100, &s, 32).run(&v100, &s, &a).unwrap();
    assert_eq!(r1.report.cycles, r2.report.cycles);
    assert_eq!(r1.report.totals, r2.report.totals);
    assert_eq!(r1.output, r2.output);
}

#[test]
fn cost_engines_report_identical_launches() {
    // The Tier-1 witness of `repro fastcheck`'s 570-cell differential: the
    // batched engine and the reference oracle agree field for field on
    // the paper's two kernels and a row-per-warp baseline.
    let v100 = DeviceSpec::v100();
    let s = test_graph(8, Topology::PowerLaw { alpha: 2.1 }).to_hybrid();
    let (a, a1) = (features(s.cols(), 64, 0.2), features(s.rows(), 64, 0.4));
    let on = |engine: CostEngine| {
        let sim = || {
            let mut sim = GpuSim::new(v100.clone());
            sim.set_engine(engine);
            sim
        };
        let hp_spmm = HpSpmm::auto(&v100, &s, 64).run_on(&mut sim(), &s, &a);
        let ge_spmm = GeSpmm.run_on(&mut sim(), &s, &a);
        let hp_sddmm = HpSddmm::auto(&v100, &s, 64).run_on(&mut sim(), &s, &a1, &a);
        [
            hp_spmm.unwrap().report,
            ge_spmm.unwrap().report,
            hp_sddmm.unwrap().report,
        ]
    };
    let batched = on(CostEngine::Batched);
    assert!(batched.iter().all(|r| r.cycles > 0));
    assert_eq!(batched, on(CostEngine::Reference));
}
