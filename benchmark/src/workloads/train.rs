//! `train`: the framework layer. Five phases per pass —
//!
//! * `plan` — `autotune` called directly: fingerprint, Heuristic and
//!   Measured plans for SpMM and SDDMM on two graphs;
//! * `full` — 4×128 GCN, full-graph, `HpBackend` (persistent, warm L2);
//! * `sampled` — GraphSAINT node-sampled GCN on `AutoBackend` (Heuristic),
//!   a new subgraph and so a new plan-cache lookup every iteration;
//! * `attn` — `GraphTransformer`, 4 heads × 32, `AutoBackend` choosing
//!   between the fused attention kernel and the three-launch pipeline;
//! * `cpu` — the `full` run again and one `attn` epoch on `CpuBackend`.
//!
//! `gnn` dense linalg/autograd and `core::cpu` dominate host time; `sim` is
//! a minority, so a simulator speed-up moves this workload little and a
//! `gnn::linalg` or `core::cpu` speed-up moves only this one.

use super::{put, put_sim, put_span_times, Mode, Pass, Workload};
use crate::host::{median, Fnv};
use crate::layers::{close, SimTotals, Verified, Watched, Work};
use crate::record;
use hpsparse_autotune::{
    instantiate_sddmm, instantiate_spmm, measurement_features, GraphFingerprint, Plan,
    PlanStrategy, Planner,
};
use hpsparse_datasets::features::{planted_labels, random_features};
use hpsparse_datasets::registry::by_name;
use hpsparse_gnn::{
    linalg, train_full_graph, train_graph_sampling, AutoBackend, CpuBackend, GcnConfig,
    GraphTransformer, HpBackend, SparseBackend, TrainConfig, TransformerAdam, TransformerConfig,
};
use hpsparse_sim::DeviceSpec;
use hpsparse_sparse::{Dense, Graph, Hybrid};
use std::time::Instant;

const IN_DIM: usize = 64;
const CLASSES: usize = 16;
const HIDDEN: usize = 128;

#[derive(Debug, Clone, Copy)]
struct Sizes {
    full_edges: usize,
    full_epochs: usize,
    sampled_edges: usize,
    sampled_iters: usize,
    sample_nodes: usize,
    attn_edges: usize,
    attn_epochs: usize,
}

/// The training workload.
pub struct Train {
    sizes: Sizes,
}

impl Train {
    /// Builds the workload at benchmark or toy size.
    pub fn new(smoke: bool) -> Self {
        let sizes = if smoke {
            Sizes {
                full_edges: 4_000,
                full_epochs: 2,
                sampled_edges: 8_000,
                sampled_iters: 3,
                sample_nodes: 256,
                attn_edges: 3_000,
                attn_epochs: 1,
            }
        } else {
            Sizes {
                full_edges: 50_000,
                full_epochs: 1,
                sampled_edges: 100_000,
                sampled_iters: 6,
                sample_nodes: 2_048,
                attn_edges: 25_000,
                attn_epochs: 1,
            }
        };
        Self { sizes }
    }
}

/// A graph with features and planted labels.
struct Problem {
    g: Graph,
    x: Dense,
    y: Vec<u32>,
}

fn problem(name: &str, op: u64, edges: usize, seed: u64) -> Problem {
    let g = {
        let _g = record::span("datasets.generate", op, edges as u64);
        by_name(name).expect("a registry graph").generate(edges)
    };
    let _g = record::span("datasets.features", op, (g.num_nodes() * IN_DIM) as u64);
    let x = random_features(g.num_nodes(), IN_DIM, seed);
    let y = planted_labels(&x, CLASSES, seed);
    Problem { g, x, y }
}

/// What one phase leaves behind.
#[derive(Default)]
struct Phase {
    steps: u64,
    losses: Vec<f32>,
    sparse_cycles: u64,
    dense_cycles: u64,
    calls: u64,
    work: Work,
    verified: Option<Verified>,
    cache_hits: u64,
    cache_misses: u64,
    plans: u64,
    planning_launches: u64,
}

impl Phase {
    fn take<B: SparseBackend>(&mut self, mut b: Watched<B>, losses: Vec<f32>) -> B {
        self.steps += losses.len() as u64;
        self.losses.extend(losses);
        self.sparse_cycles += b.sparse_cycles();
        self.dense_cycles += b.dense_cycles();
        self.calls += b.calls;
        self.work.add(&b.work);
        if let Some(v) = b.verified.take() {
            let mine = self.verified.get_or_insert_with(Verified::default);
            mine.sim.add(&v.sim);
            mine.digest.write_u64(v.digest.finish());
            mine.checked += v.checked;
            mine.failed += v.failed;
            mine.reference_s += v.reference_s;
            mine.notes.extend(v.notes);
        }
        b.inner
    }

    fn take_auto(&mut self, b: Watched<AutoBackend>, losses: Vec<f32>) {
        let inner = self.take(b, losses);
        self.cache_hits += inner.cache().hits();
        self.cache_misses += inner.cache().misses();
        self.plans += inner.cache().len() as u64;
        self.planning_launches += inner.planning_sim_launches();
    }

    fn cycles(&self) -> u64 {
        self.sparse_cycles + self.dense_cycles
    }
}

fn watch<B: SparseBackend>(inner: B, phase: &str, op: u64, mode: Mode) -> Watched<B> {
    let stem = format!("gnn.{phase}");
    match mode {
        Mode::Verify => Watched::verifying(inner, &stem, op),
        Mode::Timed => Watched::timed(inner, &stem, op),
    }
}

fn attention_epochs(
    backend: &mut dyn SparseBackend,
    s: &Hybrid,
    p: &Problem,
    epochs: usize,
    seed: u64,
) -> Vec<f32> {
    let mut model = GraphTransformer::new(TransformerConfig {
        in_dim: IN_DIM,
        head_dim: 32,
        heads: 4,
        ffn_dim: HIDDEN,
        classes: CLASSES,
        seed,
    });
    let mut opt = TransformerAdam::new(&model, 0.01);
    (0..epochs)
        .map(|_| {
            let (logits, cache) = model.forward(backend, s, &p.x);
            let (loss, grad) = linalg::softmax_cross_entropy(&logits, &p.y);
            let grads = model.backward(backend, s, &cache, &grad);
            opt.step(&mut model, &grads);
            loss
        })
        .collect()
}

/// The `plan` phase's outcome on one `(graph, op)` input.
struct Planned {
    heuristic: Plan,
    measured: Plan,
    /// Cold measured cycles of the Heuristic plan's kernel (verify only).
    heuristic_cycles: Option<u64>,
}

impl Workload for Train {
    /// One thread: at two, on a two-core shared host, every neighbour's
    /// burst lands on a thread the other one then waits for, and the driver
    /// measured ten-seed `wall_s` spreads of 0.16 and 0.29. The pool is
    /// `sweep-mt`'s subject, not this workload's.
    fn threads(&self) -> usize {
        1
    }

    fn pass(&self, seed: u64, mode: Mode) -> Pass {
        let z = self.sizes;
        let device = DeviceSpec::v100();
        let mut pass = Pass::default();

        // ---- set-up -------------------------------------------------------
        let t_setup = Instant::now();
        let full = problem("arxiv", 0, z.full_edges, seed);
        let sampled = problem("Yelp", 1, z.sampled_edges, seed.wrapping_add(1));
        let attn = problem("Flickr", 2, z.attn_edges, seed.wrapping_add(2));
        let attn_s = {
            let norm = {
                let _g = record::span("sparse.normalize", 2, attn.g.num_edges() as u64);
                attn.g.with_self_loops().gcn_normalized()
            };
            let _g = record::span("sparse.to_hybrid", 2, norm.num_edges() as u64);
            norm.to_hybrid()
        };
        let full_s = {
            let _g = record::span("sparse.to_hybrid", 0, full.g.num_edges() as u64);
            full.g.to_hybrid()
        };
        let edges_generated =
            (full.g.num_edges() + sampled.g.num_edges() + attn.g.num_edges()) as u64;
        pass.setup_s = t_setup.elapsed().as_secs_f64();

        let gcn = GcnConfig {
            in_dim: IN_DIM,
            hidden: HIDDEN,
            layers: 4,
            classes: CLASSES,
            seed,
        };
        let full_cfg = TrainConfig {
            epochs: z.full_epochs,
            ..TrainConfig::default()
        };
        let mut phases: [Phase; 4] = Default::default();

        // ---- timed section ------------------------------------------------
        let t_wall = Instant::now();
        // plan: autotune called directly.
        let mut heuristic = Planner::new(device.clone(), PlanStrategy::Heuristic);
        let mut measured = Planner::new(device.clone(), PlanStrategy::default());
        let mut planned = Vec::new();
        for (n, s) in [&full_s, &attn_s].into_iter().enumerate() {
            let nnz = s.nnz() as u64;
            {
                let _g = record::span("autotune.fingerprint", n as u64, nnz);
                std::hint::black_box(GraphFingerprint::of(s, IN_DIM, &device));
            }
            for sddmm in [false, true] {
                let plan_with = |p: &mut Planner| {
                    if sddmm {
                        p.plan_sddmm(s, IN_DIM)
                    } else {
                        p.plan_spmm(s, IN_DIM)
                    }
                };
                let h = {
                    let _g = record::span("autotune.plan_heuristic", n as u64, nnz);
                    plan_with(&mut heuristic)
                };
                let m = {
                    let _g = record::span("autotune.plan_measured", n as u64, nnz);
                    plan_with(&mut measured)
                };
                let heuristic_cycles = (mode == Mode::Verify)
                    .then(|| measure_plan(&h, s, sddmm, &device))
                    .flatten();
                planned.push(Planned {
                    heuristic: h,
                    measured: m,
                    heuristic_cycles,
                });
            }
        }

        // full: GCN on the HP kernels.
        {
            let _g = record::span("gnn.full.phase", 0, z.full_epochs as u64);
            let mut b = watch(HpBackend::new(device.clone()), "full", 0, mode);
            let (_, stats) = train_full_graph(&mut b, &full.g, &full.x, &full.y, gcn, full_cfg);
            phases[0].take(b, stats.losses);
        }
        // sampled: GraphSAINT on the autotuned backend.
        {
            let _g = record::span("gnn.sampled.phase", 1, z.sampled_iters as u64);
            let auto = AutoBackend::with_strategy(device.clone(), PlanStrategy::Heuristic);
            let mut b = watch(auto, "sampled", 1, mode);
            let cfg = TrainConfig {
                epochs: z.sampled_iters,
                sample_nodes: z.sample_nodes,
                seed,
                ..TrainConfig::default()
            };
            let sampled_gcn = GcnConfig { layers: 3, ..gcn };
            let (_, stats) =
                train_graph_sampling(&mut b, &sampled.g, &sampled.x, &sampled.y, sampled_gcn, cfg);
            phases[1].take_auto(b, stats.losses);
        }
        // attn: graph transformer on the autotuned backend.
        {
            let _g = record::span("gnn.attn.phase", 2, z.attn_epochs as u64);
            let auto = AutoBackend::with_strategy(device.clone(), PlanStrategy::Heuristic);
            let mut b = watch(auto, "attn", 2, mode);
            let losses = attention_epochs(&mut b, &attn_s, &attn, z.attn_epochs, seed);
            phases[2].take_auto(b, losses);
        }
        // cpu: the same two models on the rayon kernels.
        {
            let _g = record::span("gnn.cpu.phase", 3, z.full_epochs as u64);
            let mut b = watch(CpuBackend::new(), "cpu", 3, mode);
            let (_, stats) = train_full_graph(&mut b, &full.g, &full.x, &full.y, gcn, full_cfg);
            phases[3].take(b, stats.losses);
        }
        {
            let _g = record::span("gnn.cpu.phase", 3, 1);
            let mut b = watch(CpuBackend::new(), "cpu", 3, mode);
            let losses = attention_epochs(&mut b, &attn_s, &attn, 1, seed);
            phases[3].take(b, losses);
        }
        pass.wall_s = t_wall.elapsed().as_secs_f64();

        // ---- fold ---------------------------------------------------------
        let mut check = Fnv::default();
        for p in &phases {
            check.write_u64(p.sparse_cycles);
            check.write_u64(p.dense_cycles);
            check.write_u64(p.calls);
            check.write_u64(p.cache_hits);
            check.write_u64(p.cache_misses);
            for l in &p.losses {
                check.write_u64(l.to_bits() as u64);
            }
        }
        for p in &planned {
            for plan in [&p.heuristic, &p.measured] {
                check.write(plan.kernel_id.as_bytes());
                check.write_u64(plan.predicted_cycles);
            }
        }
        pass.check = check.finish();

        pass.spans = record::drain();
        if !pass.spans.is_empty() {
            let f = record::fold(&pass.spans);
            let h = &mut pass.host;
            let mut sim_host_s = f.total_of("autotune.plan_measured");
            for (p, phase) in crate::metrics::PHASES.iter().zip(&phases) {
                let sparse: f64 = ["spmm", "sddmm", "mha"]
                    .iter()
                    .map(|m| f.total_of(&format!("gnn.{p}.{m}")))
                    .sum();
                let whole = f.total_of(&format!("gnn.{p}.phase"));
                put(
                    h,
                    &format!("gnn.{p}.epoch_s"),
                    whole / phase.steps.max(1) as f64,
                );
                put(h, &format!("gnn.{p}.sparse_s"), sparse);
                put(
                    h,
                    &format!("gnn.{p}.dense_s"),
                    f.self_of(&format!("gnn.{p}.phase")),
                );
                if *p != "cpu" {
                    sim_host_s += sparse;
                }
            }
            pass.kernel_host_s = sim_host_s;
            let cpu = &phases[3].work;
            let rate = |work: u64, span: &str| {
                let s = f.total_of(span);
                if s > 0.0 {
                    work as f64 / s * 1e-9
                } else {
                    0.0
                }
            };
            put(
                h,
                "core.cpu.spmm_gflops",
                rate(cpu.spmm_flops, "gnn.cpu.spmm"),
            );
            put(
                h,
                "core.cpu.sddmm_gflops",
                rate(cpu.sddmm_flops, "gnn.cpu.sddmm"),
            );
            put(
                h,
                "core.cpu.spmm_gbps",
                rate(cpu.spmm_bytes, "gnn.cpu.spmm"),
            );
            put_span_times(h, &f);
        }

        if mode == Mode::Verify {
            let mut sim = SimTotals::default();
            let mut digest = Fnv::default();
            let mut reference_s = 0.0;
            for p in &phases {
                if let Some(v) = &p.verified {
                    sim.add(&v.sim);
                    digest.write_u64(v.digest.finish());
                    pass.attempted += v.checked;
                    pass.failed += v.failed;
                    pass.notes.extend(v.notes.iter().cloned());
                    reference_s += v.reference_s;
                }
                // Every training step must produce a finite loss.
                pass.attempted += p.steps;
                let bad = p.losses.iter().filter(|l| !l.is_finite()).count();
                pass.failed += bad as u64;
                if bad > 0 {
                    pass.notes
                        .push(format!("{bad} training steps with a non-finite loss"));
                }
            }
            // Same model, same data: the HP kernels and the CPU kernels must
            // train to the same loss. They sum in different orders, so the
            // last bit may differ; anything beyond the output tolerance is a
            // wrong kernel.
            pass.attempted += 1;
            let hp_final = phases[0].losses.last().copied();
            let cpu_final = phases[3].losses.get(z.full_epochs - 1).copied();
            let same = matches!((hp_final, cpu_final), (Some(a), Some(b)) if close(&[a], &[b]));
            if !same {
                pass.failed += 1;
                pass.notes.push(format!(
                    "final `full` loss differs between HpBackend and CpuBackend: {hp_final:?} vs {cpu_final:?}"
                ));
            }
            pass.sim_digest = digest.finish();

            let e = &mut pass.exact;
            put_sim(e, &sim);
            let steps: u64 = phases[..3].iter().map(|p| p.steps).sum();
            let cycles: u64 = phases.iter().map(Phase::cycles).sum();
            let slowest = phases[..3]
                .iter()
                .map(|p| p.cycles() / p.steps.max(1))
                .max()
                .unwrap_or(0);
            put(e, "sim_cycles", cycles as f64);
            put(e, "sim_tail_cycles", slowest as f64);
            put(
                e,
                "sim_rate_per_s",
                steps as f64 / (device.cycles_to_ms(cycles) * 1e-3),
            );
            put(e, "datasets.edges_generated", edges_generated as f64);
            for (p, phase) in crate::metrics::PHASES.iter().zip(&phases) {
                put(e, &format!("gnn.{p}.sparse_calls"), phase.calls as f64);
                if *p != "cpu" {
                    put(
                        e,
                        &format!("gnn.{p}.sim_sparse_cycles"),
                        phase.sparse_cycles as f64,
                    );
                    put(
                        e,
                        &format!("gnn.{p}.sim_dense_cycles"),
                        phase.dense_cycles as f64,
                    );
                }
            }
            let sum = |f: fn(&Phase) -> u64| phases.iter().map(f).sum::<u64>() as f64;
            put(
                e,
                "autotune.plans",
                sum(|p| p.plans) + 2.0 * planned.len() as f64,
            );
            put(
                e,
                "autotune.planning_sim_launches",
                sum(|p| p.planning_launches) + measured.sim_launches() as f64,
            );
            put(e, "autotune.cache_hits", sum(|p| p.cache_hits));
            put(e, "autotune.cache_misses", sum(|p| p.cache_misses));
            // Prediction error of the analytic model: the Heuristic plan's
            // estimate against that kernel's cold measured cycles.
            let errs: Vec<f64> = planned
                .iter()
                .filter_map(|p| {
                    let measured = p.heuristic_cycles? as f64;
                    Some((p.heuristic.predicted_cycles as f64 - measured).abs() / measured.max(1.0))
                })
                .collect();
            put(e, "autotune.predict_rel_err_p50", median(&errs));
            put(
                e,
                "autotune.predict_rel_err_max",
                errs.iter().copied().fold(0.0, f64::max),
            );
            // The Measured planner stands in for the oracle: a Heuristic
            // plan matches when its kernel costs what the Measured pick
            // costs (by cycles, so exact ties count).
            let matches = planned
                .iter()
                .filter(|p| p.heuristic_cycles == Some(p.measured.predicted_cycles))
                .count();
            put(
                e,
                "autotune.oracle_match",
                matches as f64 / planned.len().max(1) as f64,
            );
            put(&mut pass.host, "sparse.reference_s", reference_s);
        }
        pass
    }
}

/// Cold cycles (exec + preprocessing) of a plan's kernel on the planner's
/// own measurement operands.
fn measure_plan(plan: &Plan, s: &Hybrid, sddmm: bool, device: &DeviceSpec) -> Option<u64> {
    let c = plan.candidate();
    if sddmm {
        let (a1, a2t) = (
            measurement_features(s.rows(), IN_DIM),
            measurement_features(s.cols(), IN_DIM),
        );
        let run = instantiate_sddmm(&c)?.run(device, s, &a1, &a2t).ok()?;
        Some(run.report.cycles + run.preprocess.map_or(0, |p| p.cycles))
    } else {
        let a = measurement_features(s.cols(), IN_DIM);
        let run = instantiate_spmm(&c)?.run(device, s, &a).ok()?;
        Some(run.report.cycles + run.preprocess.map_or(0, |p| p.cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_pass_trains_verifies_and_repeats() {
        let w = Train::new(true);
        let v = w.pass(1, Mode::Verify);
        assert_eq!(v.failed, 0, "exact: {:?}", v.exact);
        assert!(v.attempted > 10);
        let t = w.pass(1, Mode::Timed);
        assert_eq!(t.check, v.check, "observers must not perturb training");
        for name in [
            "sim_cycles",
            "sim_dram_bytes",
            "sim_tail_cycles",
            "sim_rate_per_s",
        ] {
            assert!(v.exact[name] > 0.0, "{name}");
        }
        assert!(v.exact["gnn.sampled.sparse_calls"] > 0.0);
        assert!(v.exact["autotune.cache_misses"] > 0.0);
        assert_ne!(w.pass(2, Mode::Timed).check, v.check);
    }
}
