//! Criterion benchmarks of the simulator itself: how fast each kernel
//! model executes per sparse element. This bounds how large a graph the
//! `repro` harness can afford and catches performance regressions in the
//! cache/tally hot paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpsparse_core::baselines::{CusparseCooAlg4, CusparseCsrAlg2, GeSpmm};
use hpsparse_core::hp::{HpFusedMha, HpSpmm};
use hpsparse_core::traits::SpmmKernel;
use hpsparse_datasets::generators::{GeneratorConfig, Topology};
use hpsparse_sim::{DeviceSpec, GpuSim};
use hpsparse_sparse::Dense;

fn bench_sim_throughput(c: &mut Criterion) {
    let g = GeneratorConfig {
        nodes: 10_000,
        edges: 150_000,
        topology: Topology::PowerLaw { alpha: 2.2 },
        seed: 5,
    }
    .generate();
    let s = g.to_hybrid();
    let a = Dense::from_fn(s.cols(), 64, |i, j| ((i + j) as f32 * 1e-3).sin());
    let v100 = DeviceSpec::v100();

    let mut group = c.benchmark_group("sim_spmm");
    group.sample_size(10);
    group.throughput(Throughput::Elements(s.nnz() as u64));
    let hp = HpSpmm::auto(&v100, &s, 64);
    group.bench_with_input(BenchmarkId::new("kernel", "HP-SpMM"), &(), |b, ()| {
        b.iter(|| hp.run(&v100, &s, &a).unwrap())
    });
    // The same launch without its floats: what a planner measurement or a
    // `repro` sweep cell pays.
    group.bench_with_input(BenchmarkId::new("cost_only", "HP-SpMM"), &(), |b, ()| {
        b.iter(|| hp.cost(&v100, &s, 64).unwrap())
    });
    for (label, kernel) in [
        ("ALG2", Box::new(CusparseCsrAlg2) as Box<dyn SpmmKernel>),
        ("ALG4", Box::new(CusparseCooAlg4)),
        ("GE-SpMM", Box::new(GeSpmm)),
    ] {
        group.bench_with_input(BenchmarkId::new("kernel", label), &(), |b, ()| {
            b.iter(|| kernel.run(&v100, &s, &a).unwrap())
        });
    }
    group.finish();

    // Fused attention, four heads of 32: the full run and its cost walk.
    let heads = |rows: usize| -> Vec<Dense> {
        (0..4)
            .map(|h| Dense::from_fn(rows, 32, |i, j| ((i + j + h) as f32 * 1e-3).sin()))
            .collect()
    };
    let (q, kv) = (heads(s.rows()), heads(s.cols()));
    let fused = HpFusedMha::auto(&v100, &s, 32);
    let mut group = c.benchmark_group("fused_mha");
    group.sample_size(10);
    group.throughput(Throughput::Elements(4 * s.nnz() as u64));
    group.bench_function("full", |b| {
        b.iter(|| fused.run(&v100, &s, &q, &kv, &kv).unwrap())
    });
    group.bench_function("cost", |b| {
        b.iter(|| {
            fused
                .cost_on(&mut GpuSim::new(v100.clone()), &s, 32, 4)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sim_throughput);
criterion_main!(benches);
