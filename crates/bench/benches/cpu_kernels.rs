//! Wall-clock Criterion benchmarks of the real CPU kernel paths:
//! sequential reference vs node-parallel (rayon row tasks) vs
//! hybrid-parallel (rayon element chunks), on balanced and skewed inputs.
//!
//! The hybrid CPU path mirrors the paper's GPU insight at thread
//! granularity: under degree skew, row-parallel scheduling leaves threads
//! idle while hybrid chunking stays balanced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpsparse_core::cpu;
use hpsparse_core::numerics::{self, Cut};
use hpsparse_datasets::generators::{GeneratorConfig, Topology};
use hpsparse_datasets::registry::by_name;
use hpsparse_datasets::store;
use hpsparse_gnn::linalg;
use hpsparse_serve::{serve, synthetic_workload, BatcherConfig, Cluster, WorkloadConfig};
use hpsparse_sim::{DeviceSpec, LinkSpec};
use hpsparse_sparse::{reference, Dense};

fn features(rows: usize, k: usize) -> Dense {
    Dense::from_fn(rows, k, |i, j| (((i * 131 + j * 17) % 997) as f32) * 1e-3)
}

fn bench_spmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_spmm");
    group.sample_size(10);
    for (name, topology) in [
        ("uniform", Topology::Uniform),
        ("powerlaw", Topology::PowerLaw { alpha: 1.9 }),
    ] {
        let g = GeneratorConfig {
            nodes: 20_000,
            edges: 400_000,
            topology,
            seed: 1,
        }
        .generate();
        let s = g.to_hybrid();
        let csr = s.to_csr();
        let a = features(s.cols(), 64);
        group.throughput(Throughput::Elements(s.nnz() as u64 * 64));
        group.bench_with_input(BenchmarkId::new("sequential", name), &(), |b, ()| {
            b.iter(|| reference::spmm(&s, &a).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("row_parallel", name), &(), |b, ()| {
            b.iter(|| cpu::par_spmm_row(&csr, &a).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("hybrid_parallel", name), &(), |b, ()| {
            b.iter(|| cpu::par_spmm_hybrid(&s, &a, 0).unwrap())
        });
    }
    group.finish();
}

fn bench_sddmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_sddmm");
    group.sample_size(10);
    let g = GeneratorConfig {
        nodes: 20_000,
        edges: 400_000,
        topology: Topology::PowerLaw { alpha: 2.1 },
        seed: 2,
    }
    .generate();
    let s = g.to_hybrid();
    let a1 = features(s.rows(), 64);
    let a2t = features(s.cols(), 64);
    group.throughput(Throughput::Elements(s.nnz() as u64 * 64));
    group.bench_function("sequential", |b| {
        b.iter(|| reference::sddmm_transposed(&s, &a1, &a2t).unwrap())
    });
    group.bench_function("element_parallel", |b| {
        b.iter(|| cpu::par_sddmm(&s, &a1, &a2t).unwrap())
    });
    group.finish();
}

/// Sequential reference vs the two parallel CPU paths on a Table II
/// registry graph (Flickr, capped like `repro --quick`): the shim pool's
/// speedup on a real benchmark input rather than a synthetic topology.
fn bench_registry_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_spmm_registry");
    group.sample_size(10);
    let spec = by_name("Flickr").expect("Flickr is in the registry");
    let g = store::graph(&spec, 200_000);
    let s = g.to_hybrid();
    let csr = s.to_csr();
    let a = features(s.cols(), 64);
    group.throughput(Throughput::Elements(s.nnz() as u64 * 64));
    group.bench_function("sequential", |b| {
        b.iter(|| reference::spmm(&s, &a).unwrap())
    });
    group.bench_function("row_parallel", |b| {
        b.iter(|| cpu::par_spmm_row(&csr, &a).unwrap())
    });
    group.bench_function("hybrid_parallel", |b| {
        b.iter(|| cpu::par_spmm_hybrid(&s, &a, 0).unwrap())
    });
    group.finish();
}

/// The tiled inner-loop primitives against their scalar equivalents: the
/// before/after of the fixed-width `chunks_exact` vectorization. The
/// scalar bodies here are the loops the kernels shipped with previously.
fn bench_inner_loops(c: &mut Criterion) {
    const K: usize = 64;
    const ROWS: usize = 4096;
    let x: Vec<f32> = (0..K * ROWS)
        .map(|i| ((i * 37) % 911) as f32 * 1e-3)
        .collect();
    let y: Vec<f32> = (0..K * ROWS)
        .map(|i| ((i * 53) % 773) as f32 * 1e-3)
        .collect();

    let mut group = c.benchmark_group("cpu_inner");
    group.sample_size(30);
    group.throughput(Throughput::Elements((K * ROWS) as u64));
    group.bench_function("axpy_scalar", |b| {
        let mut acc = vec![0f32; K * ROWS];
        b.iter(|| {
            for (row_a, row_x) in acc.chunks_exact_mut(K).zip(x.chunks_exact(K)) {
                for kk in 0..K {
                    row_a[kk] += 0.5 * row_x[kk];
                }
            }
            criterion::black_box(&mut acc);
        })
    });
    group.bench_function("axpy_tiled", |b| {
        let mut acc = vec![0f32; K * ROWS];
        b.iter(|| {
            for (row_a, row_x) in acc.chunks_exact_mut(K).zip(x.chunks_exact(K)) {
                cpu::axpy(row_a, 0.5, row_x);
            }
            criterion::black_box(&mut acc);
        })
    });
    group.bench_function("dot_scalar", |b| {
        b.iter(|| {
            let mut sum = 0f32;
            for (row_x, row_y) in x.chunks_exact(K).zip(y.chunks_exact(K)) {
                sum += row_x.iter().zip(row_y).map(|(a, b)| a * b).sum::<f32>();
            }
            criterion::black_box(sum)
        })
    });
    group.bench_function("dot_tiled", |b| {
        b.iter(|| {
            let mut sum = 0f32;
            for (row_x, row_y) in x.chunks_exact(K).zip(y.chunks_exact(K)) {
                sum += cpu::dot(row_x, row_y);
            }
            criterion::black_box(sum)
        })
    });
    group.finish();
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
/// ÷ 1000 is GFLOP/s, on the record next to the sparse CPU kernels.
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
/// request. µs per batch and per request, on the record next to the CPU
/// kernels.
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
    bench_spmm,
    bench_sddmm,
    bench_registry_graph,
    bench_inner_loops,
    bench_kernel_numerics,
    bench_dense_gemm,
    bench_serve_hotpath
);
criterion_main!(benches);
