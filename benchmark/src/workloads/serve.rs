//! `serve`: sharded inference under open-loop load.
//!
//! One registry graph is partitioned into 8 shards on 4 simulated V100s
//! over NVLink. Eight Poisson request streams — single-node lookups and
//! random-walk neighbourhoods, independent users, so an open loop — arrive
//! at mean gaps from 60 000 down to 250 cycles and go through the default
//! batcher. The top rung is past saturation: its backlog grows for as long
//! as requests keep arriving. Host time here is `serve` batching and
//! scheduling, Heuristic planning per batch shape and thousands of tiny
//! launches; big-launch optimisations in `sim` should not move it.

use super::{put, put_sim, put_span_times, Mode, Pass, Workload};
use crate::host::Fnv;
use crate::layers::{close, harvest, SimTotals};
use crate::metrics::{REPORTED_RUNGS, RUNGS, TAIL_RUNG};
use crate::record;
use hpsparse_datasets::features::random_features;
use hpsparse_datasets::registry::by_name;
use hpsparse_reorder::partition::{partition, PartitionConfig};
use hpsparse_serve::{
    serve, synthetic_workload, BatcherConfig, Cluster, Request, ServeOutcome, ShardPlan,
    WorkloadConfig,
};
use hpsparse_sim::{DeviceSpec, LinkSpec};
use hpsparse_sparse::reference;
use hpsparse_trace::TraceSession;
use std::time::Instant;

/// A rung meets the latency limit when its p99 stays within this …
const P99_LIMIT_MS: f64 = 0.5;
/// … and the queue drains within this after the last arrival.
const DRAIN_LIMIT_MS: f64 = 1.0;

#[derive(Debug, Clone, Copy)]
struct Sizes {
    edges: usize,
    shards: usize,
    devices: usize,
    k: usize,
    requests: usize,
}

/// The serving workload.
pub struct Serve {
    sizes: Sizes,
}

impl Serve {
    /// Builds the workload at benchmark or toy size.
    pub fn new(smoke: bool) -> Self {
        let sizes = if smoke {
            Sizes {
                edges: 20_000,
                shards: 8,
                devices: 4,
                k: 32,
                requests: 512,
            }
        } else {
            Sizes {
                edges: 400_000,
                shards: 8,
                devices: 4,
                k: 32,
                requests: 16_384,
            }
        };
        Self { sizes }
    }
}

/// One rung's simulated results, as far as `serve()` reports them.
struct Rung {
    gap: u64,
    outcome: ServeOutcome,
    last_arrival: u64,
}

impl Rung {
    fn p99_ms(&self) -> f64 {
        let r = &self.outcome.report;
        r.cycles_to_ms(r.p99_cycles)
    }

    fn drain_ms(&self) -> f64 {
        let r = &self.outcome.report;
        r.cycles_to_ms(r.makespan_cycles.saturating_sub(self.last_arrival))
    }

    fn refused(&self, sent: usize) -> u64 {
        sent.saturating_sub(self.outcome.report.num_requests) as u64
    }
}

impl Workload for Serve {
    fn threads(&self) -> usize {
        1
    }

    fn pass(&self, seed: u64, mode: Mode) -> Pass {
        let z = self.sizes;
        let device = DeviceSpec::v100();
        let mut pass = Pass::default();

        // ---- set-up -------------------------------------------------------
        let t_setup = Instant::now();
        let raw = {
            let _g = record::span("datasets.generate", 0, z.edges as u64);
            by_name("Flickr")
                .expect("a registry graph")
                .generate(z.edges)
        };
        let g = {
            let _g = record::span("sparse.normalize", 0, raw.num_edges() as u64);
            raw.with_self_loops().gcn_normalized()
        };
        let x = {
            let _g = record::span("datasets.features", 0, (g.num_nodes() * z.k) as u64);
            random_features(g.num_nodes(), z.k, seed)
        };
        let plan = {
            let _g = record::span("serve.shardplan", 0, g.num_edges() as u64);
            ShardPlan::new(&g, z.shards)
        };
        let mut cluster = {
            let _g = record::span("serve.cluster_build", 0, z.devices as u64);
            Cluster::from_plan(
                plan.clone(),
                &x,
                z.devices,
                device.clone(),
                LinkSpec::nvlink(),
            )
        };
        let streams: Vec<Vec<Request>> = RUNGS
            .iter()
            .map(|&gap| {
                let _g = record::span("serve.workload", gap, z.requests as u64);
                synthetic_workload(
                    &g,
                    &WorkloadConfig {
                        num_requests: z.requests,
                        mean_interarrival_cycles: gap,
                        subgraph_fraction: 0.3,
                        walk_depth: 4,
                        seed: seed ^ gap.rotate_left(32),
                    },
                )
            })
            .collect();
        pass.setup_s = t_setup.elapsed().as_secs_f64();

        // ---- timed section ------------------------------------------------
        let batcher = BatcherConfig::default();
        let mut sim = SimTotals::default();
        let mut digest = Fnv::default();
        let rungs: Vec<Rung> = RUNGS
            .iter()
            .zip(&streams)
            .map(|(&gap, requests)| {
                let probe = (mode == Mode::Verify).then(TraceSession::new);
                if let Some(session) = &probe {
                    for d in 0..cluster.num_devices() {
                        cluster.device_sim_mut(d).attach_tracer(session.clone());
                    }
                }
                let t_rung = Instant::now();
                let outcome = {
                    let _g = record::span(&format!("serve.g{gap}"), gap, requests.len() as u64);
                    serve(&mut cluster, requests, &batcher, None)
                };
                pass.wall_s += t_rung.elapsed().as_secs_f64();
                if let Some(session) = &probe {
                    for d in 0..cluster.num_devices() {
                        cluster.device_sim_mut(d).detach_tracer();
                    }
                    sim.add(&harvest(session, &mut digest));
                }
                Rung {
                    gap,
                    outcome,
                    last_arrival: requests.last().map_or(0, |r| r.arrival_cycle),
                }
            })
            .collect();

        // ---- fold ---------------------------------------------------------
        let mut check = Fnv::default();
        for r in &rungs {
            let rep = &r.outcome.report;
            for x in [
                rep.p50_cycles,
                rep.p99_cycles,
                rep.max_cycles,
                rep.makespan_cycles,
                rep.num_batches as u64,
                rep.halo_bytes,
            ] {
                check.write_u64(x);
            }
            for d in &rep.per_device {
                check.write_u64(d.kernel_cycles);
                check.write_u64(d.halo_stall_cycles);
            }
        }
        pass.check = check.finish();

        pass.spans = record::drain();
        if !pass.spans.is_empty() {
            let f = record::fold(&pass.spans);
            let h = &mut pass.host;
            for g in REPORTED_RUNGS {
                let us = f.total_of(&format!("serve.g{g}")) * 1e6 / z.requests as f64;
                put(h, &format!("serve.g{g}.host_us_per_req"), us);
            }
            pass.kernel_host_s = f.total_with_prefix("serve.g");
            put_span_times(h, &f);
        }

        if mode == Mode::Verify {
            pass.sim_digest = digest.finish();
            // Every request of every rung must be served.
            for (r, sent) in rungs.iter().zip(&streams) {
                pass.attempted += sent.len() as u64;
                let refused = r.refused(sent.len());
                pass.failed += refused;
                if refused > 0 {
                    pass.notes
                        .push(format!("rung {}: {refused} requests refused", r.gap));
                }
            }
            // The slowest rung again on one device over the same plan: halo
            // exchange is lossless, so every output bit must match; and
            // every output row must match the full-graph reference product.
            let t_ref = Instant::now();
            let mut single =
                Cluster::from_plan(plan.clone(), &x, 1, device.clone(), LinkSpec::nvlink());
            let lone = serve(&mut single, &streams[0], &batcher, None);
            let expected = reference::spmm(&g.to_hybrid(), &x).expect("valid dims");
            for ((req, got), one) in streams[0]
                .iter()
                .zip(&rungs[0].outcome.outputs)
                .zip(&lone.outputs)
            {
                let want: Vec<f32> = req
                    .targets
                    .iter()
                    .flat_map(|&t| expected.row(t as usize).iter().copied())
                    .collect();
                let have: Vec<f32> = got.iter().map(|&b| f32::from_bits(b)).collect();
                pass.attempted += 1;
                if got != one || !close(&have, &want) {
                    pass.failed += 1;
                    pass.notes.push(format!(
                        "request {}: sharded == 1-device: {}, == reference: {}",
                        req.id,
                        got == one,
                        close(&have, &want)
                    ));
                }
            }
            put(
                &mut pass.host,
                "sparse.reference_s",
                t_ref.elapsed().as_secs_f64(),
            );

            // `ShardPlan::new` partitions internally, inside set-up; the
            // partitioner's own time and balance are read here, from a second
            // call that no timed pass pays for.
            let t_part = Instant::now();
            let parts = partition(&g, &PartitionConfig::for_parts(z.shards));
            put(
                &mut pass.host,
                "reorder.partition_s",
                t_part.elapsed().as_secs_f64(),
            );

            let e = &mut pass.exact;
            put_sim(e, &sim);
            let kernel_cycles: u64 = rungs
                .iter()
                .flat_map(|r| &r.outcome.report.per_device)
                .map(|d| d.kernel_cycles)
                .sum();
            put(e, "sim_cycles", kernel_cycles as f64);
            let tail = rungs.iter().find(|r| r.gap == TAIL_RUNG).expect("a rung");
            put(e, "sim_tail_cycles", tail.outcome.report.p99_cycles as f64);
            let best = rungs
                .iter()
                .filter(|r| r.p99_ms() <= P99_LIMIT_MS && r.drain_ms() <= DRAIN_LIMIT_MS)
                .map(|r| r.outcome.report.throughput_rps)
                .fold(0.0, f64::max);
            put(e, "sim_rate_per_s", best);
            put(e, "datasets.edges_generated", raw.num_edges() as f64);
            put(e, "reorder.partition_imbalance", parts.imbalance());
            let edges = g.num_edges().max(1) as f64;
            put(e, "serve.cut_edge_ratio", plan.cut_edges() as f64 / edges);
            put(
                e,
                "serve.halo_ratio",
                plan.total_halo() as f64 / g.num_nodes().max(1) as f64,
            );
            let heaviest = plan.shards.iter().map(|s| s.num_edges()).max().unwrap_or(0);
            put(
                e,
                "serve.shard_imbalance",
                heaviest as f64 * plan.num_shards as f64 / edges,
            );
            let reports = || rungs.iter().map(|r| &r.outcome.report);
            put(
                e,
                "serve.halo_bytes",
                reports().map(|r| r.halo_bytes).sum::<u64>() as f64,
            );
            put(
                e,
                "serve.halo_stall_cycles",
                reports()
                    .flat_map(|r| &r.per_device)
                    .map(|d| d.halo_stall_cycles)
                    .sum::<u64>() as f64,
            );
            put(
                e,
                "serve.batches",
                reports().map(|r| r.num_batches).sum::<usize>() as f64,
            );
            for r in rungs.iter().filter(|r| REPORTED_RUNGS.contains(&r.gap)) {
                let (rep, g) = (&r.outcome.report, r.gap);
                put(
                    e,
                    &format!("serve.g{g}.p50_ms"),
                    rep.cycles_to_ms(rep.p50_cycles),
                );
                put(e, &format!("serve.g{g}.p99_ms"), r.p99_ms());
                put(e, &format!("serve.g{g}.rps"), rep.throughput_rps);
                put(
                    e,
                    &format!("serve.g{g}.refused"),
                    r.refused(z.requests) as f64,
                );
            }
        }
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_pass_serves_verifies_and_repeats() {
        let w = Serve::new(true);
        let v = w.pass(1, Mode::Verify);
        assert_eq!(v.failed, 0);
        assert_eq!(v.attempted, 512 * 8 + 512);
        let t = w.pass(1, Mode::Timed);
        assert_eq!(t.check, v.check, "probes must not perturb serving");
        assert!(v.exact["sim_tail_cycles"] > 0.0);
        assert!(v.exact["sim_rate_per_s"] > 0.0);
        assert!(v.exact["sim.launches"] >= v.exact["serve.batches"]);
        assert_ne!(w.pass(2, Mode::Timed).check, v.check);
    }
}
