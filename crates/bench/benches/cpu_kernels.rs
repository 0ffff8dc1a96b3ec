//! Wall-clock Criterion benchmarks of the host code a training step and a
//! served request run: the kernels' accumulation orders (`core::numerics`,
//! which the simulated kernels and `CpuBackend` both compute their floats
//! with), the dense GEMMs and the serving hot path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpsparse_core::numerics::{self, Cut};
use hpsparse_datasets::registry::by_name;
use hpsparse_datasets::store;
use hpsparse_gnn::linalg;
use hpsparse_serve::{serve, synthetic_workload, BatcherConfig, Cluster, WorkloadConfig};
use hpsparse_sim::{DeviceSpec, LinkSpec};
use hpsparse_sparse::{reference, Dense};

fn features(rows: usize, k: usize) -> Dense {
    Dense::from_fn(rows, k, |i, j| (((i * 131 + j * 17) % 997) as f32) * 1e-3)
}

/// The three accumulation orders the simulated kernels compute their
/// floats in (`core::numerics`), beside the sequential references, on the
/// repository benchmark's `train` graph (arxiv at 50 k edges) at the
/// widths the trainers run. Segment sums at HP-SpMM's usual cut and at
/// whole rows; an element is one multiply-add.
fn bench_kernel_numerics(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_numerics");
    group.sample_size(20);
    let spec = by_name("arxiv").expect("arxiv is in the registry");
    let s = store::graph(&spec, 50_000).to_hybrid();
    for k in [32usize, 64, 128] {
        let (a, a1) = (features(s.cols(), k), features(s.rows(), k));
        group.throughput(Throughput::Elements((s.nnz() * k) as u64));
        group.bench_with_input(BenchmarkId::new("reference_spmm", k), &(), |b, ()| {
            b.iter(|| reference::spmm(&s, &a).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("segment_sums/every16", k), &(), |b, ()| {
            b.iter(|| numerics::segment_sums(&s, &a, Cut::Every(16)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("segment_sums/rows", k), &(), |b, ()| {
            b.iter(|| numerics::segment_sums(&s, &a, Cut::PerRow(usize::MAX)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("element_order", k), &(), |b, ()| {
            b.iter(|| numerics::element_order(&s, &a).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("reference_sddmm", k), &(), |b, ()| {
            b.iter(|| reference::sddmm_transposed(&s, &a1, &a).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("masked_dots", k), &(), |b, ()| {
            b.iter(|| numerics::masked_dots(&s, &a1, &a).unwrap())
        });
    }
    group.finish();
}

/// The trainer's dense path (`gnn::linalg`) at the shapes the `table5`
/// trainers and the repository benchmark's `train` workload run: hidden
/// layer, classifier layer, per-head attention projection, sampled
/// subgraph. An element is one flop (`2·m·k·n` per call), so Melem/s
/// ÷ 1000 is GFLOP/s, on the record next to the accumulation orders.
fn bench_dense_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_gemm");
    group.sample_size(10);
    for (m, k, n) in [
        (11_000, 128, 128),
        (11_000, 128, 16),
        (6_800, 64, 32),
        (2_048, 128, 128),
    ] {
        let shape = format!("{m}x{k}x{n}");
        let (z, w, d_y) = (features(m, k), features(k, n), features(m, n));
        group.throughput(Throughput::Elements(2 * (m * k * n) as u64));
        group.bench_with_input(BenchmarkId::new("matmul", &shape), &(), |b, ()| {
            b.iter(|| linalg::matmul(&z, &w))
        });
        group.bench_with_input(BenchmarkId::new("transpose_a", &shape), &(), |b, ()| {
            b.iter(|| linalg::matmul_transpose_a(&z, &d_y))
        });
        group.bench_with_input(BenchmarkId::new("transpose_b", &shape), &(), |b, ()| {
            b.iter(|| linalg::matmul_transpose_b(&d_y, &w))
        });
    }
    group.finish();
}

/// The serving hot path on quick Flickr (8 shards on 4 simulated V100s,
/// K = 32): one `Cluster::run_batch` — batch assembly, Heuristic planning
/// and one simulated launch — at 1, 16 and 64 target rows, an element
/// being one compact-matrix entry; and `serve()` over an open-loop stream
/// of 2 048 requests at a mean gap of 1 000 cycles, an element being one
/// request. µs per batch and per request.
fn bench_serve_hotpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_hotpath");
    group.sample_size(10);
    let spec = by_name("Flickr").expect("Flickr is in the registry");
    let g = store::graph(&spec, 200_000)
        .with_self_loops()
        .gcn_normalized();
    let x = features(g.num_nodes(), 32);
    let mut cluster = Cluster::new(&g, &x, 8, 4, DeviceSpec::v100(), LinkSpec::nvlink());

    for rows in [1usize, 16, 64] {
        // Spread the targets over the shard so a batch is not one clique.
        let shard = &cluster.plan().shards[0];
        let picks = (0..rows).map(|i| i * shard.num_owned() / rows);
        let targets: Vec<u32> = picks.clone().map(|r| shard.owned[r]).collect();
        let entries: usize = picks.map(|r| shard.row_range(r).len()).sum();
        group.throughput(Throughput::Elements(entries as u64));
        group.bench_with_input(BenchmarkId::new("run_batch", rows), &(), |b, ()| {
            b.iter(|| cluster.run_batch(0, &targets).expect("owned targets"))
        });
    }

    let requests = synthetic_workload(
        &g,
        &WorkloadConfig {
            num_requests: 2_048,
            mean_interarrival_cycles: 1_000,
            subgraph_fraction: 0.3,
            walk_depth: 4,
            seed: 15,
        },
    );
    group.throughput(Throughput::Elements(requests.len() as u64));
    group.bench_function("serve/2048@gap1000", |b| {
        b.iter(|| serve(&mut cluster, &requests, &BatcherConfig::default(), None))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_kernel_numerics,
    bench_dense_gemm,
    bench_serve_hotpath
);
criterion_main!(benches);
