//! Criterion microbenchmarks of the simulator's hot loop: single
//! sector probes vs batched runs on [`SectorCache`] — one mixed stream plus
//! one row per probe shape the kernels actually produce (MRU re-runs,
//! streamed misses, hashed and pre-sorted lane gathers) — and whole warp
//! tallies on [`WarpTally`], unobserved and observed. These pin the
//! primitives the descriptor API is built from, so a regression shows up
//! here before it shows up as minutes in `repro -- selftime`. Compare a
//! change against its parent built from the same bench file, taking the
//! minimum over several alternating runs.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use hpsparse_sim::{AccessEvent, AccessSink, BufferDecl, SectorCache, WarpTally};

/// A sink that keeps nothing: attaching it makes a tally observed.
struct Ignore;

impl AccessSink for Ignore {
    fn begin_launch(&mut self, _: &str, _: u64) {}
    fn register_buffer(&mut self, _: &BufferDecl) {}
    fn record(&mut self, _: &AccessEvent) {}
    fn end_launch(&mut self) {}
}

/// V100-shaped L2: 6 MiB, 16-way — the geometry whose slow path searches
/// a set with one 16-lane compare mask.
fn l2() -> SectorCache {
    SectorCache::new(6 * 1024 * 1024, 16)
}

/// Mixed probe stream: mostly-sequential stretches with periodic jumps, the
/// shape GNN kernels produce (streaming feature rows + scattered gathers).
fn probe_stream(n: u64) -> Vec<u64> {
    (0..n)
        .map(|i| {
            if i % 7 == 0 {
                (i.wrapping_mul(2654435761)) % 1_000_000
            } else {
                i % 300_000
            }
        })
        .collect()
}

fn bench_cache_probes(c: &mut Criterion) {
    const PROBES: u64 = 200_000;
    const WARPS: u64 = 4_000;
    let stream = probe_stream(PROBES);

    let mut group = c.benchmark_group("cache_probe");
    group.sample_size(20);
    group.throughput(Throughput::Elements(PROBES));
    group.bench_function("access_single", |b| {
        let mut cache = l2();
        b.iter(|| {
            let mut hits = 0u64;
            for &s in &stream {
                hits += u64::from(cache.access_sector(s));
            }
            black_box(hits)
        })
    });
    // The same sector volume expressed as coalesced 8-sector runs — the
    // form every coalesced read and write probes in.
    group.bench_function("access_run_x8", |b| {
        let mut cache = l2();
        b.iter(|| {
            let mut hits = 0u64;
            for &s in stream.iter().step_by(8) {
                hits += cache.access_run(s, 8);
            }
            black_box(hits)
        })
    });
    // Blocked-ELL's warp: a 32-sector payload nobody has touched (all
    // misses), then the same 16 feature rows of 8 sectors every warp
    // re-reads — hits on the way that is already MRU, except in the sets
    // the payload just passed through.
    group.throughput(Throughput::Elements(WARPS * 160));
    group.bench_function("mru_rerun_x128", |b| {
        let mut cache = l2();
        let mut payload = 1u64 << 20;
        b.iter(|| {
            let mut hits = 0u64;
            for _ in 0..WARPS {
                hits += cache.access_run(payload, 32);
                payload += 32;
                for row in 0..16u64 {
                    hits += cache.access_run(row * 8, 8);
                }
            }
            black_box(hits)
        })
    });
    // A stream larger than the cache, read once in 32-sector rows: every
    // probe takes the rotate-and-install path.
    group.throughput(Throughput::Elements(WARPS * 32));
    group.bench_function("stream_miss_x32", |b| {
        let mut cache = l2();
        let mut next = 0u64;
        b.iter(|| {
            let mut hits = 0u64;
            for _ in 0..WARPS {
                hits += cache.access_run(next, 32);
                next += 32;
            }
            black_box(hits)
        })
    });
    group.finish();

    // 32-lane gathers through the tally: hashed lanes in lane order (the
    // sort runs) vs the same lanes handed over ascending, the order CSR
    // column indices usually arrive in (the sort is skipped).
    let hashed: Vec<[u64; 32]> = (0..WARPS)
        .map(|w| {
            std::array::from_fn(|l| {
                let h = (w * 32 + l as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                (h.rotate_left(23) % (1 << 22)) * 4
            })
        })
        .collect();
    let sorted: Vec<[u64; 32]> = hashed
        .iter()
        .map(|lanes| {
            let mut lanes = *lanes;
            lanes.sort_unstable();
            lanes
        })
        .collect();
    let mut group = c.benchmark_group("lane_gather");
    group.sample_size(20);
    group.throughput(Throughput::Elements(WARPS * 32));
    for (name, warps) in [
        ("gather_hashed_x32", &hashed),
        ("gather_sorted_x32", &sorted),
    ] {
        group.bench_function(name, |b| {
            let mut cache = l2();
            b.iter(|| {
                let mut tally = WarpTally::new(&mut cache, 32);
                for lanes in warps {
                    tally.global_gather(lanes.iter().copied(), 4);
                }
                black_box(tally.finish().l2_hit_sectors)
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("cache_reset");
    group.sample_size(50);
    group.bench_function("epoch_reset", |b| {
        let mut cache = l2();
        for s in 0..10_000u64 {
            cache.access_sector(s);
        }
        b.iter(|| {
            cache.reset();
            black_box(cache.access_sector(1))
        })
    });
    group.finish();
}

/// One warp's worth of traffic: sixteen feature-row reads, a lane gather,
/// and the surrounding arithmetic — the body every registry kernel's
/// launch closure reduces to.
fn warp_body(tally: &mut WarpTally<'_>, indices: &[u32]) {
    tally.compute(12);
    for row in 0..16 {
        tally.global_read(4_096 + row * 256, 256, 4);
    }
    tally.global_gather(indices.iter().map(|&c| 1 << 20 | (c as u64 * 4)), 4);
    tally.shared_op(35);
    tally.shuffle_reduce(32);
    tally.global_write(1 << 22, 128, 4);
}

fn bench_tally_warps(c: &mut Criterion) {
    const WARPS: u64 = 20_000;
    let indices: Vec<u32> = (0..32u32).map(|i| i.wrapping_mul(97) % 4_096).collect();

    let mut group = c.benchmark_group("tally_warps");
    group.sample_size(15);
    group.throughput(Throughput::Elements(WARPS));
    group.bench_function("raw", |b| {
        b.iter(|| {
            let mut cache = l2();
            let mut tally = WarpTally::new(&mut cache, 32);
            let mut total = 0u64;
            for _ in 0..WARPS {
                warp_body(&mut tally, &indices);
                total += tally.take_counters().instructions;
            }
            black_box(total)
        })
    });
    // The observed walk on the same traffic: a no-op sink expands every
    // descriptor element-wise.
    group.bench_function("observed", |b| {
        b.iter(|| {
            let mut cache = l2();
            let mut sink = Ignore;
            let mut tally = WarpTally::with_sink(&mut cache, 32, Some(&mut sink));
            let mut total = 0u64;
            for _ in 0..WARPS {
                warp_body(&mut tally, &indices);
                total += tally.take_counters().instructions;
            }
            black_box(total)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cache_probes, bench_tally_warps);
criterion_main!(benches);
