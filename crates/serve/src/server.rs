//! The async inference server: open-loop request stream, per-shard
//! arrival-driven batching, and a deterministic schedule that overlaps
//! halo transfers with compute.
//!
//! # Batcher state machine
//!
//! Per shard, sub-requests (the targets of a request owned by that shard)
//! are folded in arrival order:
//!
//! 1. **Open** — the first sub-request opens a batch and starts its wait
//!    timer (`first_arrival + max_wait_cycles`).
//! 2. **Fill** — later sub-requests join while they arrive within the
//!    window; a batch reaching `max_batch_rows` closes immediately with
//!    `ready = triggering arrival`. The cap is hard: a sub-request larger
//!    than the remaining space splits across consecutive batches.
//! 3. **Timeout** — a sub-request arriving past the window closes the
//!    open batch with `ready = first_arrival + max_wait_cycles` and opens
//!    the next; the final batch closes the same way.
//!
//! Batch composition depends only on arrival times — never on device
//! state — so a single-device reference run forms *identical batches*,
//! the keystone of the byte-identity guarantee.
//!
//! # Schedule
//!
//! Batches execute on their shard's device in `(ready, shard, seq)`
//! order. Halo transfers are issued at `ready` (features are static, so
//! they don't wait for the previous batch to finish) and overlap the
//! device's previous compute; the batch starts at
//! `max(ready, device_free, halo_done)`. Time the device sits idle only
//! because its inputs are in flight is reported as **halo stall**.

use crate::cluster::{BatchError, Cluster};
use hpsparse_datasets::sampling::{RandomWalkSampler, Sampler};
use hpsparse_sim::LinkTimeline;
use hpsparse_sparse::Graph;
use hpsparse_trace::{names, TraceSession, DEVICE_COMPUTE_TID, DEVICE_LINK_TID};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};

/// One inference request: a user asking for the embeddings of one or more
/// nodes (single-node lookup or a sampled neighbourhood).
#[derive(Debug, Clone)]
pub struct Request {
    /// Request id (position in the stream).
    pub id: u64,
    /// Arrival time in device cycles since stream start.
    pub arrival_cycle: u64,
    /// Target nodes, global ids, deduplicated, in query order.
    pub targets: Vec<u32>,
}

/// Knobs for [`synthetic_workload`].
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Number of requests to generate.
    pub num_requests: usize,
    /// Mean inter-arrival gap in device cycles (exponential distribution —
    /// an open-loop Poisson stream; the load does not slow down when the
    /// server falls behind).
    pub mean_interarrival_cycles: u64,
    /// Fraction of requests that ask for a sampled neighbourhood
    /// (GraphSAINT random walk) instead of a single node.
    pub subgraph_fraction: f64,
    /// Walk depth for neighbourhood requests.
    pub walk_depth: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            num_requests: 512,
            mean_interarrival_cycles: 200_000,
            subgraph_fraction: 0.3,
            walk_depth: 4,
            seed: 0x5e12_e5e1,
        }
    }
}

/// Draws an open-loop request stream against `g`: exponential
/// inter-arrivals, a mix of single-node and random-walk neighbourhood
/// queries. Deterministic in `cfg.seed`.
pub fn synthetic_workload(g: &Graph, cfg: &WorkloadConfig) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let walker = RandomWalkSampler {
        roots: 1,
        depth: cfg.walk_depth,
    };
    let mut clock = 0u64;
    let mut out = Vec::with_capacity(cfg.num_requests);
    for id in 0..cfg.num_requests as u64 {
        let u: f64 = rng.random();
        // Inverse-CDF exponential draw; `1 - u` is in (0, 1].
        let gap = (-(1.0 - u).ln() * cfg.mean_interarrival_cycles as f64).round() as u64;
        clock += gap;
        let raw = if rng.random::<f64>() < cfg.subgraph_fraction {
            walker.sample_nodes(g, &mut rng)
        } else {
            vec![rng.random_range(0..g.num_nodes()) as u32]
        };
        // Dedup preserving first appearance: one output row per node.
        let mut targets = Vec::with_capacity(raw.len());
        for v in raw {
            if !targets.contains(&v) {
                targets.push(v);
            }
        }
        out.push(Request {
            id,
            arrival_cycle: clock,
            targets,
        });
    }
    out
}

/// Batching policy.
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Close a batch as soon as it holds this many target rows. A hard
    /// cap: request slices that would overflow it split across
    /// consecutive batches.
    pub max_batch_rows: usize,
    /// Close a batch this many cycles after its first arrival regardless
    /// of fill.
    pub max_wait_cycles: u64,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch_rows: 64,
            max_wait_cycles: 400_000,
        }
    }
}

/// The latest batch deadline (`arrival + max_wait_cycles`) a run accepts:
/// half the cycle clock, leaving the other half for the halo transfers and
/// kernels scheduled after it (2⁶³ cycles is centuries at any device
/// clock). A wait meant as "never time out" is any value that keeps the
/// stream's deadlines below it.
pub const DEADLINE_HORIZON: u64 = u64::MAX / 2;

/// A request's slice of a batch: which output rows belong to it.
///
/// A shard's targets are *not* contiguous inside the request in general
/// (a random walk interleaves shards: `[a:s0, b:s1, c:s0]`), so each
/// batch row carries its exact position in the request's target list.
#[derive(Debug, Clone)]
struct Member {
    req: usize,
    /// Position in the request's target list, one entry per batch row:
    /// batch row `row_start + i` is the request's `positions[i]`-th
    /// target.
    positions: Vec<usize>,
    /// First row of this slice inside the batch.
    row_start: usize,
}

/// One planned batch, before execution.
#[derive(Debug, Clone)]
struct PlannedBatch {
    shard: usize,
    seq: usize,
    ready: u64,
    rows: Vec<u32>,
    members: Vec<Member>,
}

/// Critical-path stage facts for one request: the membership with the
/// latest completion defines how the request's latency splits into
/// queue → halo → stall → compute. The four stages tile
/// `[arrival, completion]` exactly: `ready ≥ arrival` (a batch never
/// closes before a member joined), `halo_done ≥ ready` (transfers leave
/// at `ready`) and `start ≥ halo_done` by the schedule rule.
struct Stages {
    ready: u64,
    halo_done: u64,
    start: u64,
    end: u64,
    shard: usize,
    seq: usize,
    rows: usize,
    /// Halo bytes the critical batch moved (batch total, not per-member).
    halo_bytes: u64,
}

/// Per-device execution statistics.
#[derive(Debug, Clone, Default)]
pub struct DeviceStats {
    /// Batches the device executed.
    pub batches: u64,
    /// Kernel cycles spent on those batches.
    pub kernel_cycles: u64,
    /// Halo bytes received over the interconnect.
    pub halo_bytes: u64,
    /// Cycles the device idled waiting for halo transfers.
    pub halo_stall_cycles: u64,
}

/// The serve run's scoreboard.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests served.
    pub num_requests: usize,
    /// Total target rows across requests.
    pub num_rows: usize,
    /// Batches executed across all shards.
    pub num_batches: usize,
    /// Last completion cycle (stream starts at cycle 0).
    pub makespan_cycles: u64,
    /// Requests per second at the device clock.
    pub throughput_rps: f64,
    /// Latency percentiles in cycles (arrival → last sub-batch done).
    pub p50_cycles: u64,
    /// 95th percentile latency in cycles.
    pub p95_cycles: u64,
    /// 99th percentile latency in cycles.
    pub p99_cycles: u64,
    /// Mean latency in cycles.
    pub mean_cycles: f64,
    /// Worst latency in cycles.
    pub max_cycles: u64,
    /// Milliseconds per cycle at the device clock (for converting the
    /// figures above).
    pub ms_per_cycle: f64,
    /// Total interconnect traffic.
    pub halo_bytes: u64,
    /// Non-empty interconnect transfers.
    pub halo_transfers: u64,
    /// Per-device breakdown.
    pub per_device: Vec<DeviceStats>,
}

impl ServeReport {
    /// Latency percentile in milliseconds.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 * self.ms_per_cycle
    }

    /// JSON encoding for `BENCH_serve.json`.
    pub fn to_json(&self) -> Value {
        json!({
            "requests": self.num_requests as u64,
            "rows": self.num_rows as u64,
            "batches": self.num_batches as u64,
            "makespan_cycles": self.makespan_cycles,
            "throughput_rps": self.throughput_rps,
            "latency_ms": json!({
                "p50": self.cycles_to_ms(self.p50_cycles),
                "p95": self.cycles_to_ms(self.p95_cycles),
                "p99": self.cycles_to_ms(self.p99_cycles),
                "mean": self.mean_cycles * self.ms_per_cycle,
                "max": self.cycles_to_ms(self.max_cycles),
            }),
            "latency_cycles": json!({
                "p50": self.p50_cycles,
                "p95": self.p95_cycles,
                "p99": self.p99_cycles,
                "max": self.max_cycles,
            }),
            "halo": json!({
                "bytes": self.halo_bytes,
                "transfers": self.halo_transfers,
                "stall_cycles": self.per_device.iter().map(|d| d.halo_stall_cycles).sum::<u64>(),
            }),
            "devices": Value::Array(
                self.per_device
                    .iter()
                    .map(|d| json!({
                        "batches": d.batches,
                        "kernel_cycles": d.kernel_cycles,
                        "halo_bytes": d.halo_bytes,
                        "halo_stall_cycles": d.halo_stall_cycles,
                    }))
                    .collect()
            ),
        })
    }
}

/// Everything a serve run produces: the scoreboard plus per-request
/// outputs (`f32` bit patterns, rows in each request's target order) for
/// the lossless check.
pub struct ServeOutcome {
    /// The scoreboard.
    pub report: ServeReport,
    /// Per request: `targets.len() × K` output bits.
    pub outputs: Vec<Vec<u32>>,
    /// Per request: completion cycle.
    pub completions: Vec<u64>,
}

/// Splits `requests` into per-shard sub-request streams and folds each
/// into batches. The per-shard work is independent, so it fans out on the
/// rayon pool — the fold itself depends only on arrival order, keeping the
/// result thread-count independent. Every deadline is at most
/// [`DEADLINE_HORIZON`] ([`try_serve`] refused the stream otherwise).
fn plan_batches(cluster: &Cluster, requests: &[Request], cfg: &BatcherConfig) -> Vec<PlannedBatch> {
    let num_shards = cluster.plan().num_shards;
    let mut per_shard: Vec<Vec<PlannedBatch>> = Vec::with_capacity(num_shards);
    per_shard.resize_with(num_shards, Vec::new);

    {
        let plan = cluster.plan();
        let slots: Vec<_> = per_shard.iter_mut().collect();
        rayon::scope(|scope| {
            for (shard, slot) in slots.into_iter().enumerate() {
                let plan = &*plan;
                scope.spawn(move |_| {
                    let mut batches: Vec<PlannedBatch> = Vec::new();
                    let mut open: Option<PlannedBatch> = None;
                    let mut first_arrival = 0u64;
                    for (req_idx, req) in requests.iter().enumerate() {
                        // This request's targets owned by `shard`, with
                        // their positions in the request's target list.
                        let mine: Vec<(usize, u32)> = req
                            .targets
                            .iter()
                            .enumerate()
                            .filter(|&(_, &t)| plan.shard_of(t) == shard as u32)
                            .map(|(p, &t)| (p, t))
                            .collect();
                        if mine.is_empty() {
                            continue;
                        }
                        // Timeout cut: the open batch closes at its
                        // deadline before this arrival joins.
                        if let Some(b) = open.take() {
                            if req.arrival_cycle > first_arrival + cfg.max_wait_cycles {
                                batches.push(b);
                            } else {
                                open = Some(b);
                            }
                        }
                        // Fill batches with this request's slice,
                        // splitting across consecutive batches when it
                        // would overflow `max_batch_rows` — the cap is a
                        // hard ceiling, not a soft threshold.
                        let mut offset = 0usize;
                        while offset < mine.len() {
                            let batch = open.get_or_insert_with(|| {
                                first_arrival = req.arrival_cycle;
                                PlannedBatch {
                                    shard,
                                    seq: batches.len(),
                                    ready: first_arrival + cfg.max_wait_cycles,
                                    rows: Vec::new(),
                                    members: Vec::new(),
                                }
                            });
                            let space = cfg.max_batch_rows.saturating_sub(batch.rows.len()).max(1);
                            let chunk = &mine[offset..mine.len().min(offset + space)];
                            let row_start = batch.rows.len();
                            batch.rows.extend(chunk.iter().map(|&(_, t)| t));
                            batch.members.push(Member {
                                req: req_idx,
                                positions: chunk.iter().map(|&(p, _)| p).collect(),
                                row_start,
                            });
                            offset += chunk.len();
                            // Size cut: full enough to launch right now.
                            if batch.rows.len() >= cfg.max_batch_rows {
                                let mut b = open.take().unwrap();
                                b.ready = req.arrival_cycle;
                                batches.push(b);
                            }
                        }
                    }
                    if let Some(b) = open.take() {
                        batches.push(b);
                    }
                    *slot = batches;
                });
            }
        });
    }

    // Deterministic global order: (ready, shard, seq).
    let mut all: Vec<PlannedBatch> = per_shard.into_iter().flatten().collect();
    all.sort_by_key(|b| (b.ready, b.shard, b.seq));
    all
}

/// Runs `requests` through `cluster`. With `trace` attached it also emits
/// the request-level observability artefacts:
///
/// * batch-compute and halo-transfer slices on the device lanes, plus the
///   `interconnect.bytes` counter (as before);
/// * one Perfetto lane per request in the `requests` group, carrying the
///   request's span tree — a top-level `request N` slice over
///   `[arrival, completion]` tiled by `queue` / `halo` / `stall` /
///   `compute` stage slices from its critical-path batch;
/// * per-stage latency histograms ([`names::SERVE_REQUEST_LATENCY`],
///   [`names::SERVE_STAGE_QUEUE`], …) and per-batch halo-byte histograms
///   in the session's metrics registry.
///
/// A target that names no node of the shard plan is refused here, on the
/// caller's thread and before anything launches, with the error
/// [`Cluster::run_batch`] has for it; so is a wait that would put a batch
/// deadline past [`DEADLINE_HORIZON`].
pub fn try_serve(
    cluster: &mut Cluster,
    requests: &[Request],
    cfg: &BatcherConfig,
    trace: Option<&TraceSession>,
) -> Result<ServeOutcome, BatchError> {
    let num_nodes = cluster.plan().assignment.len();
    let mut targets = requests.iter().flat_map(|r| &r.targets);
    if let Some(&node) = targets.find(|&&t| t as usize >= num_nodes) {
        return Err(BatchError::UnknownNode { node });
    }
    let last_arrival = requests.iter().map(|r| r.arrival_cycle).max();
    if let Some(arrival_cycle) = last_arrival {
        let deadline = arrival_cycle.checked_add(cfg.max_wait_cycles);
        if deadline.is_none_or(|d| d > DEADLINE_HORIZON) {
            return Err(BatchError::DeadlineBeyondClock {
                arrival_cycle,
                max_wait_cycles: cfg.max_wait_cycles,
            });
        }
    }
    let k = cluster.feature_dim();
    let num_devices = cluster.num_devices();
    let batches = plan_batches(cluster, requests, cfg);

    let mut links = LinkTimeline::new(*cluster.link(), num_devices);
    let mut device_free = vec![0u64; num_devices];
    let mut device_bytes = vec![0u64; num_devices];
    let mut per_device = vec![DeviceStats::default(); num_devices];
    let mut outputs: Vec<Vec<u32>> = requests
        .iter()
        .map(|r| vec![0u32; r.targets.len() * k])
        .collect();
    let mut completions = vec![0u64; requests.len()];
    let mut stages: Vec<Option<Stages>> = (0..requests.len()).map(|_| None).collect();
    let mut memberships = vec![0u64; requests.len()];
    let mut makespan = 0u64;
    let mut halo_transfers = 0u64;

    for batch in &batches {
        let device = cluster.device_of(batch.shard as u32) as usize;
        // `plan_batches` routes every target to the shard that owns it, so
        // a refusal here is a bug in the batcher, not bad input.
        let result = cluster
            .run_batch(batch.shard, &batch.rows)
            .unwrap_or_else(|e| {
                let ids: Vec<u64> = batch.members.iter().map(|m| requests[m.req].id).collect();
                panic!(
                    "batch {} of shard {} (requests {ids:?}) was refused: {e}",
                    batch.seq, batch.shard
                )
            });

        // Halo transfers leave at `ready` and overlap earlier compute.
        let mut halo_done = batch.ready;
        let mut batch_halo_bytes = 0u64;
        for t in &result.transfers {
            let (start, end) = links.schedule(t, batch.ready);
            halo_done = halo_done.max(end);
            halo_transfers += 1;
            per_device[device].halo_bytes += t.bytes;
            device_bytes[device] += t.bytes;
            batch_halo_bytes += t.bytes;
            if let Some(session) = trace {
                session.device_slice(
                    t.dst_device,
                    DEVICE_LINK_TID,
                    &format!("halo d{}\u{2192}d{}", t.src_device, t.dst_device),
                    start as f64,
                    (end - start) as f64,
                    &[("bytes", json!(t.bytes))],
                );
                session.counter(
                    t.dst_device,
                    names::INTERCONNECT_BYTES,
                    "bytes",
                    end as f64,
                    device_bytes[device] as f64,
                );
            }
        }

        let start_wo_halo = batch.ready.max(device_free[device]);
        let start = start_wo_halo.max(halo_done);
        let end = start + result.kernel_cycles;
        per_device[device].halo_stall_cycles += start - start_wo_halo;
        per_device[device].batches += 1;
        per_device[device].kernel_cycles += result.kernel_cycles;
        device_free[device] = end;
        makespan = makespan.max(end);

        if let Some(session) = trace {
            session
                .metrics()
                .observe(names::SERVE_BATCH_HALO_BYTES, batch_halo_bytes as f64);
            session.device_slice(
                device as u32,
                DEVICE_COMPUTE_TID,
                &format!("shard {} batch {}", batch.shard, batch.seq),
                start as f64,
                (end - start) as f64,
                &[
                    ("rows", json!(batch.rows.len() as u64)),
                    ("gathered", json!(result.gathered_rows as u64)),
                    ("remote", json!(result.remote_rows as u64)),
                ],
            );
        }

        for m in &batch.members {
            let out = &mut outputs[m.req];
            for (r, &pos) in m.positions.iter().enumerate() {
                let src = result.outputs.row(m.row_start + r);
                let dst_base = pos * k;
                for (c, v) in src.iter().enumerate() {
                    out[dst_base + c] = v.to_bits();
                }
            }
            completions[m.req] = completions[m.req].max(end);
            memberships[m.req] += 1;
            if stages[m.req].as_ref().is_none_or(|s| end > s.end) {
                stages[m.req] = Some(Stages {
                    ready: batch.ready,
                    halo_done,
                    start,
                    end,
                    shard: batch.shard,
                    seq: batch.seq,
                    rows: m.positions.len(),
                    halo_bytes: batch_halo_bytes,
                });
            }
        }
    }

    if let Some(session) = trace {
        // Request span trees: one lane per request, the top-level slice
        // tiled by its critical-path stage slices, plus the stage
        // histograms. Requests are visited in stream order, so the export
        // is deterministic.
        let metrics = session.metrics();
        for (i, req) in requests.iter().enumerate() {
            let Some(st) = &stages[i] else { continue };
            let arrival = req.arrival_cycle;
            let total = st.end - arrival;
            session.request_slice(
                req.id,
                &format!("request {}", req.id),
                arrival as f64,
                total as f64,
                &[
                    ("rows", json!(req.targets.len() as u64)),
                    ("batches", json!(memberships[i])),
                ],
            );
            for (stage, s0, s1) in [
                ("queue", arrival, st.ready),
                ("halo", st.ready, st.halo_done),
                ("stall", st.halo_done, st.start),
                ("compute", st.start, st.end),
            ] {
                if s1 > s0 {
                    let args: Vec<(&str, Value)> = match stage {
                        "halo" => vec![("bytes", json!(st.halo_bytes))],
                        "compute" => vec![
                            ("shard", json!(st.shard as u64)),
                            ("batch", json!(st.seq as u64)),
                            ("rows", json!(st.rows as u64)),
                        ],
                        _ => Vec::new(),
                    };
                    session.request_slice(req.id, stage, s0 as f64, (s1 - s0) as f64, &args);
                }
            }
            metrics.observe(names::SERVE_REQUEST_LATENCY, total as f64);
            metrics.observe(names::SERVE_STAGE_QUEUE, (st.ready - arrival) as f64);
            metrics.observe(names::SERVE_STAGE_HALO, (st.halo_done - st.ready) as f64);
            metrics.observe(names::SERVE_STAGE_STALL, (st.start - st.halo_done) as f64);
            metrics.observe(names::SERVE_STAGE_COMPUTE, (st.end - st.start) as f64);
        }
        session.advance_to(makespan as f64);
    }

    // Latency distribution.
    let mut latencies: Vec<u64> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| completions[i].saturating_sub(r.arrival_cycle))
        .collect();
    latencies.sort_unstable();
    let pct = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 * q).ceil() as usize).clamp(1, latencies.len());
        latencies[idx - 1]
    };
    let ms_per_cycle = cluster.device_sim_mut(0).device().cycles_to_ms(1);
    let makespan_ms = makespan as f64 * ms_per_cycle;
    let throughput_rps = if makespan_ms > 0.0 {
        requests.len() as f64 / (makespan_ms / 1000.0)
    } else {
        0.0
    };
    let report = ServeReport {
        num_requests: requests.len(),
        num_rows: requests.iter().map(|r| r.targets.len()).sum(),
        num_batches: batches.len(),
        makespan_cycles: makespan,
        throughput_rps,
        p50_cycles: pct(0.50),
        p95_cycles: pct(0.95),
        p99_cycles: pct(0.99),
        mean_cycles: if latencies.is_empty() {
            0.0
        } else {
            // Summed in f64: exact below 2⁵³ cycles, and no overflow when
            // deadlines sit near the horizon.
            latencies.iter().map(|&l| l as f64).sum::<f64>() / latencies.len() as f64
        },
        max_cycles: latencies.last().copied().unwrap_or(0),
        ms_per_cycle,
        halo_bytes: links.total_bytes(),
        halo_transfers,
        per_device,
    };
    Ok(ServeOutcome {
        report,
        outputs,
        completions,
    })
}

/// [`try_serve`] for requests known to name nodes of the plan.
///
/// # Panics
/// When a target is not a node of the shard plan, or a batch deadline
/// falls past [`DEADLINE_HORIZON`].
pub fn serve(
    cluster: &mut Cluster,
    requests: &[Request],
    cfg: &BatcherConfig,
    trace: Option<&TraceSession>,
) -> ServeOutcome {
    try_serve(cluster, requests, cfg, trace).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs the same requests on `cluster` and on a single-device cluster
/// built from the *same shard plan*, and checks every request's output
/// bits match. Returns `(sharded outcome, identical?)`.
///
/// `trace` is attached to the **sharded** run only (the reference runs
/// untraced), so the check also witnesses that tracing is observation,
/// not perturbation: output bits with a session attached must equal the
/// reference's detached ones.
pub fn verify_lossless(
    cluster: &mut Cluster,
    reference: &mut Cluster,
    requests: &[Request],
    cfg: &BatcherConfig,
    trace: Option<&TraceSession>,
) -> (ServeOutcome, bool) {
    let sharded = serve(cluster, requests, cfg, trace);
    let single = serve(reference, requests, cfg, None);
    let identical = sharded.outputs == single.outputs;
    (sharded, identical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_datasets::generators::{GeneratorConfig, Topology};
    use hpsparse_sim::{DeviceSpec, LinkSpec};
    use hpsparse_sparse::Dense;

    fn graph() -> Graph {
        GeneratorConfig {
            nodes: 500,
            edges: 5000,
            topology: Topology::Community {
                communities: 10,
                p_in: 0.85,
                alpha: 2.1,
            },
            seed: 9,
        }
        .generate()
        .with_self_loops()
        .gcn_normalized()
    }

    fn features(g: &Graph, k: usize) -> Dense {
        Dense::from_fn(g.num_nodes(), k, |i, j| {
            ((i * 13 + j * 3) as f32 * 0.02).cos()
        })
    }

    fn workload(g: &Graph, n: usize) -> Vec<Request> {
        synthetic_workload(
            g,
            &WorkloadConfig {
                num_requests: n,
                mean_interarrival_cycles: 150_000,
                subgraph_fraction: 0.4,
                walk_depth: 3,
                seed: 77,
            },
        )
    }

    #[test]
    fn workload_is_open_loop_and_deterministic() {
        let g = graph();
        let a = workload(&g, 50);
        let b = workload(&g, 50);
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_cycle, y.arrival_cycle);
            assert_eq!(x.targets, y.targets);
        }
        // Arrivals are non-decreasing and targets deduplicated.
        for w in a.windows(2) {
            assert!(w[0].arrival_cycle <= w[1].arrival_cycle);
        }
        for r in &a {
            let mut t = r.targets.clone();
            t.sort_unstable();
            t.dedup();
            assert_eq!(t.len(), r.targets.len(), "request {} has dup targets", r.id);
        }
        assert!(
            a.iter().any(|r| r.targets.len() > 1),
            "no subgraph requests"
        );
    }

    #[test]
    fn serve_completes_every_request_and_reports_sane_numbers() {
        let g = graph();
        let f = features(&g, 8);
        let mut cluster = Cluster::new(&g, &f, 2, 2, DeviceSpec::v100(), LinkSpec::nvlink());
        let reqs = workload(&g, 40);
        let outcome = serve(&mut cluster, &reqs, &BatcherConfig::default(), None);
        let rep = &outcome.report;
        assert_eq!(rep.num_requests, 40);
        assert!(rep.num_batches > 0);
        assert!(rep.throughput_rps > 0.0);
        assert!(rep.p50_cycles <= rep.p95_cycles);
        assert!(rep.p95_cycles <= rep.p99_cycles);
        assert!(rep.p99_cycles <= rep.max_cycles);
        assert!(rep.makespan_cycles > 0);
        // Every request completed after it arrived.
        for (i, r) in reqs.iter().enumerate() {
            assert!(outcome.completions[i] >= r.arrival_cycle, "request {i}");
            assert!(outcome.outputs[i].len() == r.targets.len() * 8);
        }
        // The JSON encoding parses back.
        let text = serde_json::to_string(&rep.to_json()).unwrap();
        let doc: Value = serde_json::from_str(&text).unwrap();
        assert!(doc["throughput_rps"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn serve_outputs_match_full_graph_reference_rows() {
        // Against the CPU full-graph SpMM, not another cluster built from
        // the same plan — catches row misattribution that a plan-sharing
        // reference would reproduce (e.g. a request whose targets
        // interleave across shards: [a:s0, b:s1, c:s0]).
        let g = graph();
        let k = 8;
        let f = features(&g, k);
        let mut cluster = Cluster::new(&g, &f, 4, 2, DeviceSpec::v100(), LinkSpec::nvlink());
        let mut reqs = workload(&g, 40);
        // Force a request whose targets interleave across shards —
        // shard 0's positions {0, 2} are non-contiguous.
        let s0 = &cluster.plan().shards[0].owned;
        let s1 = &cluster.plan().shards[1].owned;
        reqs.push(Request {
            id: reqs.len() as u64,
            arrival_cycle: reqs.last().map_or(0, |r| r.arrival_cycle) + 100_000,
            targets: vec![s0[0], s1[0], s0[1], s1[1]],
        });
        // Small cap so oversized request slices split across batches too.
        let cfg = BatcherConfig {
            max_batch_rows: 3,
            max_wait_cycles: 250_000,
        };
        let outcome = serve(&mut cluster, &reqs, &cfg, None);
        let full = hpsparse_sparse::reference::spmm(&g.to_hybrid(), &f).unwrap();
        for (i, r) in reqs.iter().enumerate() {
            for (p, &t) in r.targets.iter().enumerate() {
                for c in 0..k {
                    let got = f32::from_bits(outcome.outputs[i][p * k + c]);
                    let want = full.get(t as usize, c);
                    assert!(
                        (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                        "request {i} target {t} (position {p}) col {c}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn max_batch_rows_is_a_hard_cap_and_rows_are_covered_once() {
        let g = graph();
        let f = features(&g, 8);
        let cluster = Cluster::new(&g, &f, 2, 2, DeviceSpec::v100(), LinkSpec::nvlink());
        let reqs = workload(&g, 40);
        let cfg = BatcherConfig {
            max_batch_rows: 2,
            max_wait_cycles: 250_000,
        };
        let batches = plan_batches(&cluster, &reqs, &cfg);
        let mut seen = std::collections::HashSet::new();
        for b in &batches {
            assert!(b.rows.len() <= cfg.max_batch_rows, "batch exceeds cap");
            let member_rows: usize = b.members.iter().map(|m| m.positions.len()).sum();
            assert_eq!(member_rows, b.rows.len(), "members must tile the batch");
            for m in &b.members {
                for (r, &pos) in m.positions.iter().enumerate() {
                    // The batch row really is that position's target.
                    assert_eq!(b.rows[m.row_start + r], reqs[m.req].targets[pos]);
                    assert!(seen.insert((m.req, pos)), "position written twice");
                }
            }
        }
        let total: usize = reqs.iter().map(|r| r.targets.len()).sum();
        assert_eq!(seen.len(), total, "every target position covered");
    }

    #[test]
    fn sharded_serving_is_lossless_vs_single_device() {
        let g = graph();
        let f = features(&g, 16);
        let plan = crate::shard::ShardPlan::new(&g, 4);
        let mut many =
            Cluster::from_plan(plan.clone(), &f, 4, DeviceSpec::v100(), LinkSpec::nvlink());
        let mut one = Cluster::from_plan(plan, &f, 1, DeviceSpec::v100(), LinkSpec::nvlink());
        let reqs = workload(&g, 30);
        // Tracing attached to the sharded side: observation must not
        // perturb the bits.
        let session = TraceSession::new();
        let (outcome, identical) = verify_lossless(
            &mut many,
            &mut one,
            &reqs,
            &BatcherConfig::default(),
            Some(&session),
        );
        assert!(identical, "sharded outputs diverged from single-device");
        assert!(outcome.report.halo_bytes > 0, "no halo traffic exercised");
        assert!(
            session.to_chrome_json().contains("\"requests\""),
            "traced lossless run must carry the request lane group"
        );
    }

    #[test]
    fn trace_carries_batch_and_halo_slices() {
        let g = graph();
        let f = features(&g, 8);
        let mut cluster = Cluster::new(&g, &f, 2, 2, DeviceSpec::v100(), LinkSpec::nvlink());
        let reqs = workload(&g, 25);
        let session = TraceSession::new();
        serve(
            &mut cluster,
            &reqs,
            &BatcherConfig::default(),
            Some(&session),
        );
        let doc = serde_json::from_str(&session.to_chrome_json()).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        assert!(events.iter().any(|e| {
            e["name"].as_str().is_some_and(|n| n.starts_with("shard "))
                && e["tid"].as_u64() == Some(DEVICE_COMPUTE_TID)
        }));
        assert!(events.iter().any(|e| {
            e["name"].as_str().is_some_and(|n| n.starts_with("halo "))
                && e["tid"].as_u64() == Some(DEVICE_LINK_TID)
        }));
        assert!(events
            .iter()
            .any(|e| e["name"].as_str() == Some("interconnect.bytes")));
    }

    #[test]
    fn every_request_gets_a_span_tree_that_tiles_its_latency() {
        let g = graph();
        let f = features(&g, 8);
        let mut cluster = Cluster::new(&g, &f, 2, 2, DeviceSpec::v100(), LinkSpec::nvlink());
        let reqs = workload(&g, 25);
        let session = TraceSession::new();
        let outcome = serve(
            &mut cluster,
            &reqs,
            &BatcherConfig::default(),
            Some(&session),
        );
        let doc: Value = serde_json::from_str(&session.to_chrome_json()).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();

        for r in &reqs {
            let tid = hpsparse_trace::request_tid(r.id);
            let lane: Vec<_> = events
                .iter()
                .filter(|e| {
                    e["pid"].as_u64() == Some(hpsparse_trace::REQUESTS_PID)
                        && e["tid"].as_u64() == Some(tid)
                        && e["ph"].as_str() == Some("X")
                })
                .collect();
            let top = lane
                .iter()
                .find(|e| e["name"].as_str() == Some(&format!("request {}", r.id)))
                .unwrap_or_else(|| panic!("request {} has no top-level slice", r.id));
            assert_eq!(top["ts"].as_u64(), Some(r.arrival_cycle));
            assert_eq!(
                top["ts"].as_u64().unwrap() + top["dur"].as_u64().unwrap(),
                outcome.completions[r.id as usize],
                "request {} slice must span arrival → completion",
                r.id
            );
            // Stage slices tile the top slice exactly (zero-length stages
            // are elided, so gaps would break the chain).
            let mut stages: Vec<(u64, u64, &str)> = lane
                .iter()
                .filter(|e| e["name"].as_str() != Some(&format!("request {}", r.id)))
                .map(|e| {
                    (
                        e["ts"].as_u64().unwrap(),
                        e["dur"].as_u64().unwrap(),
                        e["name"].as_str().unwrap(),
                    )
                })
                .collect();
            stages.sort_unstable();
            assert!(!stages.is_empty(), "request {} has no stage slices", r.id);
            let mut cursor = r.arrival_cycle;
            for (ts, dur, name) in &stages {
                assert_eq!(*ts, cursor, "request {}: stage {name} leaves a gap", r.id);
                assert!(
                    ["queue", "halo", "stall", "compute"].contains(name),
                    "unknown stage {name}"
                );
                cursor += dur;
            }
            assert_eq!(
                cursor, outcome.completions[r.id as usize],
                "request {}: stages must end at completion",
                r.id
            );
            // The critical path always ends in compute.
            assert_eq!(stages.last().unwrap().2, "compute");
        }

        // Histograms: one observation per request, and the stage sums
        // reconstruct the latency sum (the tiling identity in aggregate).
        let metrics = session.metrics();
        let hist = |name: &str| match metrics.get(name) {
            Some(hpsparse_trace::Metric::Histogram(h)) => h,
            other => panic!("{name}: expected histogram, got {other:?}"),
        };
        let latency = hist(names::SERVE_REQUEST_LATENCY);
        assert_eq!(latency.count(), reqs.len() as u64);
        let stage_sum: f64 = [
            names::SERVE_STAGE_QUEUE,
            names::SERVE_STAGE_HALO,
            names::SERVE_STAGE_STALL,
            names::SERVE_STAGE_COMPUTE,
        ]
        .iter()
        .map(|n| {
            let h = hist(n);
            assert_eq!(h.count(), reqs.len() as u64);
            h.sum()
        })
        .sum();
        assert_eq!(stage_sum, latency.sum());
        let halo_bytes = hist(names::SERVE_BATCH_HALO_BYTES);
        assert_eq!(halo_bytes.count(), outcome.report.num_batches as u64);
    }

    #[test]
    fn batching_is_arrival_driven_not_device_driven() {
        // Identical requests through clusters with different device counts
        // must produce identical batch structure — verified indirectly:
        // identical per-request outputs (tested above) and identical batch
        // counts.
        let g = graph();
        let f = features(&g, 8);
        let plan = crate::shard::ShardPlan::new(&g, 3);
        let mut a = Cluster::from_plan(plan.clone(), &f, 3, DeviceSpec::v100(), LinkSpec::pcie());
        let mut b = Cluster::from_plan(plan, &f, 1, DeviceSpec::v100(), LinkSpec::nvlink());
        let reqs = workload(&g, 35);
        let cfg = BatcherConfig {
            max_batch_rows: 16,
            max_wait_cycles: 250_000,
        };
        let oa = serve(&mut a, &reqs, &cfg, None);
        let ob = serve(&mut b, &reqs, &cfg, None);
        assert_eq!(oa.report.num_batches, ob.report.num_batches);
        assert_eq!(oa.outputs, ob.outputs);
    }

    /// A wait that would put a batch deadline past the clock's horizon is
    /// refused on the caller's thread before anything launches — in release
    /// too, where the deadline used to wrap and time every batch out on the
    /// next arrival — and the longest wait the horizon allows closes batches
    /// by size, not by time.
    #[test]
    fn a_deadline_past_the_clock_horizon_is_refused() {
        let g = graph();
        let f = features(&g, 8);
        let mut cluster = Cluster::new(&g, &f, 2, 2, DeviceSpec::v100(), LinkSpec::nvlink());
        let reqs = workload(&g, 60);
        let last = reqs.iter().map(|r| r.arrival_cycle).max().unwrap();
        for max_wait_cycles in [u64::MAX, u64::MAX - last, DEADLINE_HORIZON - last + 1] {
            let cfg = BatcherConfig {
                max_wait_cycles,
                ..BatcherConfig::default()
            };
            let refused = try_serve(&mut cluster, &reqs, &cfg, None).map(|o| o.report.num_batches);
            let want = BatchError::DeadlineBeyondClock {
                arrival_cycle: last,
                max_wait_cycles,
            };
            assert_eq!(refused, Err(want));
        }
        for d in 0..cluster.num_devices() {
            assert_eq!(cluster.device_kernel_cycles(d), 0, "device {d} launched");
        }
        let patient = BatcherConfig {
            max_wait_cycles: DEADLINE_HORIZON - last,
            ..BatcherConfig::default()
        };
        let patient = serve(&mut cluster, &reqs, &patient, None).report;
        let default = serve(&mut cluster, &reqs, &BatcherConfig::default(), None).report;
        assert!(patient.num_batches < default.num_batches);
        assert!(patient.p50_cycles > default.p50_cycles);
    }
}
