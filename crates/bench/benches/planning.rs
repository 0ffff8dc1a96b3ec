//! Criterion microbenchmarks of what choosing a kernel costs a serving
//! batch on the host: `GraphFingerprint::of` plus the Heuristic pick an
//! `AutoBackend` with an empty plan cache makes (`heuristic_lookup`), next
//! to the Heuristic `Plan` with its rendered rationale (`plan_for`), on
//! two batch shapes the benchmark `serve` workload produces at K = 32.
//! Each sample is `REPS` lookups; the median sample over `REPS` is one
//! lookup's time.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpsparse_autotune::{GraphFingerprint, PlanStrategy, Planner};
use hpsparse_core::catalog::Op;
use hpsparse_sim::DeviceSpec;
use hpsparse_sparse::Hybrid;

const K: usize = 32;
const REPS: u64 = 1_000;

/// A compact serving batch: row `i` holds `degree(i)` entries, every entry
/// its own column, as a batch whose targets share few neighbours.
fn batch(rows: usize, degree: impl Fn(usize) -> usize) -> Hybrid {
    let mut triplets = Vec::new();
    for i in 0..rows {
        for _ in 0..degree(i) {
            triplets.push((i as u32, triplets.len() as u32, 1.0));
        }
    }
    Hybrid::from_triplets(rows, triplets.len().max(1), &triplets).unwrap()
}

fn bench_planning(c: &mut Criterion) {
    let device = DeviceSpec::v100();
    let planner = Planner::new(device.clone(), PlanStrategy::Heuristic);
    // 6 rows / 60 nnz and 64 rows / 1 232 nnz.
    let small = batch(6, |i| [4, 18, 7, 12, 9, 10][i]);
    let large = batch(64, |i| 5 + (i * 37) % 30);

    let mut group = c.benchmark_group("planning");
    group.sample_size(30);
    group.throughput(Throughput::Elements(REPS));
    for (label, s) in [("batch6", &small), ("batch64", &large)] {
        let id = format!("{label}-nnz{}", s.nnz());
        group.bench_with_input(BenchmarkId::new("heuristic_lookup", &id), s, |b, s| {
            b.iter(|| {
                for _ in 0..REPS {
                    let fp = GraphFingerprint::of(black_box(s), K, &device);
                    black_box(planner.pick(Op::Spmm, &fp, 1));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("plan_for", &id), s, |b, s| {
            let mut planner = planner.clone();
            b.iter(|| {
                for _ in 0..REPS {
                    let fp = GraphFingerprint::of(black_box(s), K, &device);
                    black_box(planner.plan_for(Op::Spmm, &fp, s, 1));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_planning);
criterion_main!(benches);
