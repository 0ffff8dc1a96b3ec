//! `sweep` and `sweep-mt`: every registry kernel, cold L2 per launch.
//!
//! The inputs are the ten even-indexed Table II graphs at a fixed edge cap,
//! two of them again at a larger cap in original and GCR order (HP-SpMM
//! only), and a seeded slice of sampled subgraphs with the Fig. 10 contender
//! set. `sim` (tally,
//! L2 probes, wave schedule) and the `core` kernel bodies do nearly all the
//! work. `sweep` runs the launches one after another on one thread, where
//! `CostEngine::Auto` resolves to the sequential Batched engine; `sweep-mt`
//! fans the same launches out over the pool, where it resolves to the
//! Parallel capture/replay engine — the way `repro` runs them. Both must
//! produce the same reports, so their `sim_digest`s are equal.

use super::{put, put_sim, Mode, Pass, Workload};
use crate::host::{percentile_u64, Fnv};
use crate::layers::{close, SimTotals, TOL};
use crate::record;
use hpsparse_core::baselines::{all_sddmm, all_spmm, SDDMM_IDS, SPMM_IDS};
use hpsparse_core::hp::{HpSddmm, HpSpmm};
use hpsparse_core::traits::{SddmmKernel, SpmmKernel};
use hpsparse_datasets::features::random_features;
use hpsparse_datasets::registry::by_name;
use hpsparse_datasets::{full_graph_dataset, EdgeSampler, NodeSampler, RandomWalkSampler, Sampler};
use hpsparse_reorder::gcr_reorder;
use hpsparse_sim::{DeviceSpec, GpuSim, KernelResources, LaunchConfig, LaunchReport};
use hpsparse_sparse::{reference, Dense, Graph, Hybrid};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde_json::ToJson;
use std::time::Instant;

/// The SpMM baselines of Fig. 9/10 (positions in `SPMM_IDS`).
const FIG10_SPMM: [&str; 5] = [
    "cusparse-csr-alg2",
    "cusparse-csr-alg3",
    "cusparse-coo-alg4",
    "gespmm",
    "row-split",
];

/// Input sizes.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Edge cap of the registry graphs.
    edges: usize,
    /// Registry graphs that are also run, at `gcr_edges`, in original and
    /// GCR order (HP-SpMM only).
    gcr_graphs: usize,
    /// Edge cap of the GCR pair: large enough that the operand outgrows the
    /// modelled L2, or reordering has nothing to win.
    gcr_edges: usize,
    /// Edge cap of the registry graph the sampled slice is drawn from.
    parent_edges: usize,
    /// Subgraphs in the sampled slice.
    corpus: usize,
    /// Scales the three samplers' budgets.
    budget: usize,
    /// Feature width.
    k: usize,
    /// Warps of each synthetic launch.
    synth_warps: u64,
}

/// The sweep workload, sequential or fanned out.
pub struct Sweep {
    parallel: bool,
    sizes: Sizes,
}

impl Sweep {
    /// `parallel` selects `sweep-mt`.
    pub fn new(parallel: bool, smoke: bool) -> Self {
        let sizes = if smoke {
            Sizes {
                edges: 2_000,
                gcr_graphs: 1,
                gcr_edges: 4_000,
                parent_edges: 20_000,
                corpus: 3,
                budget: 128,
                k: 64,
                synth_warps: 2_000,
            }
        } else {
            Sizes {
                edges: 16_000,
                gcr_graphs: 2,
                gcr_edges: 200_000,
                parent_edges: 200_000,
                corpus: 12,
                budget: 1_024,
                k: 64,
                synth_warps: 60_000,
            }
        };
        Self { parallel, sizes }
    }
}

/// One sparse operand set.
struct Input {
    s: Hybrid,
    /// `cols × K`: the SpMM operand and SDDMM's transposed second operand.
    a: Dense,
    /// `rows × K`: SDDMM's first operand.
    a1: Dense,
}

/// Reference outputs of one input (verify pass).
struct Refs {
    spmm: Dense,
    sddmm: Vec<f32>,
}

#[derive(Clone, Copy)]
enum Body {
    /// Registry SpMM baseline by position in `SPMM_IDS`.
    Spmm(usize),
    /// Registry SDDMM baseline by position in `SDDMM_IDS`.
    Sddmm(usize),
    HpSpmm,
    HpSddmm,
    /// Benchmark-owned, numerics-free launch: coalesced streaming reads.
    SynthStream,
    /// Benchmark-owned, numerics-free launch: 32-lane gathers.
    SynthGather,
}

struct Op {
    input: usize,
    /// `core.<id>.host` for a kernel id, or a `sim.synth_*` name.
    span: String,
    body: Body,
    /// HP on the original ordering of a graph that is also run reordered,
    /// and the index of that reordered twin's op.
    gcr_twin: Option<usize>,
}

/// One pass's inputs and launches.
struct Plan {
    inputs: Vec<Input>,
    ops: Vec<Op>,
    /// Ops before this index run on the registry graphs …
    gcr_from: usize,
    /// … ops from here on run on the sampled slice; between the two are the
    /// GCR pairs and the synthetic launches.
    sampled_from: usize,
    edges_generated: u64,
}

struct Done {
    exec: LaunchReport,
    pre: Option<LaunchReport>,
    ok: bool,
}

struct Kernels {
    spmm: Vec<(&'static str, Box<dyn SpmmKernel>)>,
    sddmm: Vec<(&'static str, Box<dyn SddmmKernel>)>,
}

/// Builds the operands of one graph; `sddmm` is false for inputs that only
/// ever see SpMM, which then need no `rows × K` operand.
fn operand_set(g: &Graph, k: usize, seed: u64, sddmm: bool) -> Input {
    let s = {
        let _g = record::span("sparse.to_hybrid", 0, g.num_edges() as u64);
        g.to_hybrid()
    };
    let _g = record::span("datasets.features", 0, ((s.rows() + s.cols()) * k) as u64);
    Input {
        a: random_features(s.cols(), k, seed),
        a1: random_features(if sddmm { s.rows() } else { 0 }, k, seed ^ 0x5dd),
        s,
    }
}

/// `count` subgraphs of `parent`, drawn like `datasets::sampling_corpus`
/// draws its own: node, edge and random-walk samplers in rotation.
fn sampled_slice(parent: &Graph, count: usize, budget: usize, seed: u64) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5a1e);
    (0..count)
        .map(|i| match i % 3 {
            0 => NodeSampler { budget: 4 * budget }.sample(parent, &mut rng),
            1 => EdgeSampler { budget: 2 * budget }.sample(parent, &mut rng),
            _ => RandomWalkSampler {
                roots: budget / 2,
                depth: 3,
            }
            .sample(parent, &mut rng),
        })
        .collect()
}

/// A synthetic launch through `GpuSim::launch`: no arithmetic, no output —
/// what is left is the simulator's own cost per transaction.
fn synth(device: &DeviceSpec, warps: u64, gather: bool) -> LaunchReport {
    const ELEMS: u64 = 1 << 22; // 16 MiB of f32: larger than any modelled L2
    let mut sim = GpuSim::new(device.clone());
    let buf = sim.alloc_input(ELEMS as usize, "synth");
    let config = LaunchConfig {
        num_warps: warps,
        resources: KernelResources {
            warps_per_block: 4,
            registers_per_thread: 32,
            shared_mem_per_block: 0,
        },
    };
    sim.launch(config, |w, t| {
        if gather {
            // Each lane reads one f32 at a hashed index: 32 sectors a warp.
            for round in 0..8u64 {
                let lanes = (0..32u64).map(|l| {
                    let h = (w * 32 + l + round * 0x9e37)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .rotate_left(23);
                    buf.elem_addr(h % ELEMS, 4)
                });
                t.global_gather(lanes, 4);
            }
        } else {
            // 8 coalesced 512-byte rows per warp, striding through the buffer.
            for round in 0..8u64 {
                let row = (w * 8 + round) % (ELEMS / 128);
                t.global_read(buf.elem_addr(row * 128, 4), 512, 4);
            }
        }
    })
}

impl Sweep {
    /// Builds every input from the seed and lists the launches over them,
    /// in the order both workloads run them.
    fn plan(&self, seed: u64) -> Plan {
        let z = self.sizes;
        let mut inputs = Vec::new();
        let mut ops = Vec::new();
        let mut edges_generated = 0u64;
        let push_registry_ops = |ops: &mut Vec<Op>, input: usize| {
            for (i, id) in SPMM_IDS.iter().enumerate() {
                ops.push(op(input, id, Body::Spmm(i)));
            }
            for (i, id) in SDDMM_IDS.iter().enumerate() {
                ops.push(op(input, id, Body::Sddmm(i)));
            }
            ops.push(op(input, "hp-spmm", Body::HpSpmm));
            ops.push(op(input, "hp-sddmm", Body::HpSddmm));
        };
        // Registry graphs keep their registry seeds; the workload seed feeds
        // their feature matrices and the sampled corpus.
        for (n, spec) in full_graph_dataset().iter().step_by(2).enumerate() {
            let g = {
                let _g = record::span("datasets.generate", n as u64, z.edges as u64);
                spec.generate(z.edges)
            };
            edges_generated += g.num_edges() as u64;
            inputs.push(operand_set(&g, z.k, seed.wrapping_add(n as u64), true));
            push_registry_ops(&mut ops, inputs.len() - 1);
        }
        let gcr_from = ops.len();
        for (n, spec) in full_graph_dataset()
            .iter()
            .step_by(2)
            .take(z.gcr_graphs)
            .enumerate()
        {
            let g = {
                let _g = record::span("datasets.generate", n as u64, z.gcr_edges as u64);
                spec.generate(z.gcr_edges)
            };
            edges_generated += g.num_edges() as u64;
            let reordered = {
                let _g = record::span("reorder.gcr", n as u64, g.num_edges() as u64);
                gcr_reorder(&g)
            };
            for (graph, id) in [(&g, "hp-spmm"), (&reordered.graph, "hp-spmm-gcr")] {
                inputs.push(operand_set(
                    graph,
                    z.k,
                    seed.wrapping_add(50 + n as u64),
                    false,
                ));
                ops.push(op(inputs.len() - 1, id, Body::HpSpmm));
            }
            let original = ops.len() - 2;
            ops[original].gcr_twin = Some(original + 1);
        }
        for (span, body) in [
            ("sim.synth_stream", Body::SynthStream),
            ("sim.synth_gather", Body::SynthGather),
        ] {
            ops.push(Op {
                input: 0, // unused: the synthetic launches own their buffers
                span: span.into(),
                body,
                gcr_twin: None,
            });
        }
        let sampled_from = ops.len();
        // The sampled slice: GraphSAINT's three samplers in rotation over
        // one registry parent. Only the draws are seeded, so seeds change
        // which subgraphs are cut, not how much work a pass is.
        let parent = {
            let _g = record::span("datasets.generate", 100, z.parent_edges as u64);
            by_name("Yelp")
                .expect("a registry graph")
                .generate(z.parent_edges)
        };
        let corpus = {
            let _g = record::span("datasets.corpus", 0, z.corpus as u64);
            sampled_slice(&parent, z.corpus, z.budget, seed)
        };
        for (n, g) in corpus.iter().enumerate() {
            edges_generated += g.num_edges() as u64;
            inputs.push(operand_set(g, z.k, seed.wrapping_add(100 + n as u64), true));
            let input = inputs.len() - 1;
            for id in FIG10_SPMM {
                let i = SPMM_IDS
                    .iter()
                    .position(|x| *x == id)
                    .expect("a registry id");
                ops.push(op(input, SPMM_IDS[i], Body::Spmm(i)));
            }
            for (i, id) in SDDMM_IDS.iter().enumerate() {
                ops.push(op(input, id, Body::Sddmm(i)));
            }
            ops.push(op(input, "hp-spmm", Body::HpSpmm));
            ops.push(op(input, "hp-sddmm", Body::HpSddmm));
        }
        Plan {
            inputs,
            ops,
            gcr_from,
            sampled_from,
            edges_generated,
        }
    }

    fn run_op(
        &self,
        index: usize,
        op: &Op,
        inputs: &[Input],
        kernels: &Kernels,
        device: &DeviceSpec,
        refs: Option<&[Refs]>,
    ) -> Done {
        let _g = record::span(&op.span, index as u64, 0);
        let inp = &inputs[op.input];
        let check_spmm =
            |out: &Dense| refs.is_none_or(|r| out.approx_eq(&r[op.input].spmm, TOL, TOL));
        let check_sddmm = |out: &[f32]| refs.is_none_or(|r| close(out, &r[op.input].sddmm));
        let valid = "benchmark operand shapes are valid";
        match op.body {
            Body::Spmm(i) => {
                let run = kernels.spmm[i].1.run(device, &inp.s, &inp.a).expect(valid);
                Done {
                    ok: check_spmm(&run.output),
                    exec: run.report,
                    pre: run.preprocess,
                }
            }
            Body::HpSpmm => {
                let run = HpSpmm::auto(device, &inp.s, inp.a.cols())
                    .run(device, &inp.s, &inp.a)
                    .expect(valid);
                Done {
                    ok: check_spmm(&run.output),
                    exec: run.report,
                    pre: run.preprocess,
                }
            }
            Body::Sddmm(i) => {
                let run = kernels.sddmm[i]
                    .1
                    .run(device, &inp.s, &inp.a1, &inp.a)
                    .expect(valid);
                Done {
                    ok: check_sddmm(&run.output_values),
                    exec: run.report,
                    pre: run.preprocess,
                }
            }
            Body::HpSddmm => {
                let run = HpSddmm::auto(device, &inp.s, inp.a1.cols())
                    .run(device, &inp.s, &inp.a1, &inp.a)
                    .expect(valid);
                Done {
                    ok: check_sddmm(&run.output_values),
                    exec: run.report,
                    pre: run.preprocess,
                }
            }
            Body::SynthStream | Body::SynthGather => Done {
                exec: synth(
                    device,
                    self.sizes.synth_warps,
                    matches!(op.body, Body::SynthGather),
                ),
                pre: None,
                ok: true,
            },
        }
    }
}

impl Workload for Sweep {
    fn threads(&self) -> usize {
        if self.parallel {
            2
        } else {
            1
        }
    }

    fn pass(&self, seed: u64, mode: Mode) -> Pass {
        let device = DeviceSpec::v100();
        let mut pass = Pass::default();

        // ---- set-up -------------------------------------------------------
        let t_setup = Instant::now();
        let Plan {
            inputs,
            ops,
            gcr_from,
            sampled_from,
            edges_generated,
        } = self.plan(seed);
        let kernels = Kernels {
            spmm: all_spmm(),
            sddmm: all_sddmm(),
        };
        pass.setup_s = t_setup.elapsed().as_secs_f64();

        // ---- references (verify pass only, never timed) -------------------
        let t_ref = Instant::now();
        let refs: Option<Vec<Refs>> = (mode == Mode::Verify).then(|| {
            inputs
                .iter()
                .map(|i| Refs {
                    spmm: reference::spmm(&i.s, &i.a).expect("valid dims"),
                    // SpMM-only inputs have no first SDDMM operand.
                    sddmm: reference::sddmm_transposed(&i.s, &i.a1, &i.a).unwrap_or_default(),
                })
                .collect()
        });
        let reference_s = t_ref.elapsed().as_secs_f64();

        // ---- timed section ------------------------------------------------
        // `sweep-mt` fans out three times, as `repro` does per experiment
        // (registry graphs; the GCR pairs and synthetic launches; the sampled
        // slice); `sweep` runs the same ops in the same order.
        let run = |i: usize| self.run_op(i, &ops[i], &inputs, &kernels, &device, refs.as_deref());
        let t_wall = Instant::now();
        let done: Vec<Done> = if self.parallel {
            [0..gcr_from, gcr_from..sampled_from, sampled_from..ops.len()]
                .into_iter()
                .flat_map(|fan_out| fan_out.into_par_iter().map(run).collect::<Vec<_>>())
                .collect()
        } else {
            (0..ops.len()).map(run).collect()
        };
        pass.wall_s = t_wall.elapsed().as_secs_f64();

        // ---- fold the reports ---------------------------------------------
        let mut digest = Fnv::default();
        let mut sim = SimTotals::default();
        let (mut hp_cycles, mut base_cycles, mut pre_cycles) = (0u64, 0u64, 0u64);
        let mut exec_cycles = Vec::with_capacity(done.len());
        let mut synth_txn = [0u64; 2];
        for (o, d) in ops.iter().zip(&done) {
            for r in std::iter::once(&d.exec).chain(&d.pre) {
                let text = serde_json::to_string(&r.to_json()).expect("a report serialises");
                digest.write(text.as_bytes());
                sim.add_report(r, &device);
            }
            exec_cycles.push(d.exec.cycles);
            pre_cycles += d.pre.as_ref().map_or(0, |p| p.cycles);
            match o.body {
                Body::HpSpmm | Body::HpSddmm => hp_cycles += d.exec.cycles,
                Body::Spmm(_) | Body::Sddmm(_) => base_cycles += d.exec.cycles,
                Body::SynthStream => synth_txn[0] = d.exec.totals.transactions,
                Body::SynthGather => synth_txn[1] = d.exec.totals.transactions,
            }
        }
        pass.check = digest.finish();

        pass.spans = record::drain();
        if !pass.spans.is_empty() {
            let f = record::fold(&pass.spans);
            let h = &mut pass.host;
            let (stream_s, gather_s) = (
                f.total_of("sim.synth_stream"),
                f.total_of("sim.synth_gather"),
            );
            pass.kernel_host_s = f.total_with_prefix("core.") + stream_s + gather_s;
            put(
                h,
                "sim.synth_stream_ns_per_txn",
                ns_per(stream_s, synth_txn[0]),
            );
            put(
                h,
                "sim.synth_gather_ns_per_txn",
                ns_per(gather_s, synth_txn[1]),
            );
            super::put_span_times(h, &f);
        }

        if mode == Mode::Verify {
            pass.sim_digest = digest.finish();
            pass.attempted = done.len() as u64;
            for (o, d) in ops.iter().zip(&done) {
                if !d.ok {
                    pass.failed += 1;
                    pass.notes.push(format!(
                        "{} on input {}: output differs from the reference beyond {TOL}",
                        o.span, o.input
                    ));
                }
            }
            let e = &mut pass.exact;
            put_sim(e, &sim);
            let total = sim.cycles;
            put(e, "sim_cycles", total as f64);
            put(
                e,
                "sim_tail_cycles",
                percentile_u64(&exec_cycles, 0.99) as f64,
            );
            put(
                e,
                "sim_rate_per_s",
                done.len() as f64 / (device.cycles_to_ms(total) * 1e-3),
            );
            put(e, "datasets.edges_generated", edges_generated as f64);
            put(e, "core.hp.sim_cycles", hp_cycles as f64);
            put(e, "core.baseline.sim_cycles", base_cycles as f64);
            put(e, "core.preprocess_cycles", pre_cycles as f64);
            let gains: Vec<f64> = ops
                .iter()
                .enumerate()
                .filter_map(|(i, o)| {
                    o.gcr_twin
                        .map(|t| done[t].exec.l2_hit_rate - done[i].exec.l2_hit_rate)
                })
                .collect();
            put(
                e,
                "reorder.gcr_l2_hit_gain",
                gains.iter().sum::<f64>() / gains.len().max(1) as f64,
            );
            put(&mut pass.host, "sparse.reference_s", reference_s);
        }
        pass
    }
}

fn op(input: usize, id: &str, body: Body) -> Op {
    Op {
        input,
        span: format!("core.{id}.host"),
        body,
        gcr_twin: None,
    }
}

fn ns_per(seconds: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        seconds * 1e9 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_launches_have_the_shape_they_claim() {
        let v100 = DeviceSpec::v100();
        let stream = synth(&v100, 500, false);
        // 8 rows × 512 B = 16 sectors each, perfectly coalesced.
        assert_eq!(stream.totals.transactions, 500 * 8 * 16);
        let gather = synth(&v100, 500, true);
        // Hashed lanes rarely share a sector.
        assert!(gather.totals.transactions > 500 * 8 * 30);
        assert!(gather.totals.transactions <= 500 * 8 * 32);
        assert_eq!(stream.totals.descriptor_fallbacks, 0);
    }

    #[test]
    fn smoke_pass_verifies_and_both_modes_agree() {
        let w = Sweep::new(false, true);
        let v = w.pass(1, Mode::Verify);
        assert_eq!(v.failed, 0);
        assert!(v.attempted > 100);
        let t = w.pass(1, Mode::Timed);
        assert_eq!(t.check, v.check);
        assert_eq!(v.sim_digest, v.check);
        assert!(v.exact["sim_cycles"] > 0.0);
        assert!(v.exact["datasets.edges_generated"] > 0.0);
        let other = w.pass(2, Mode::Timed);
        assert_ne!(other.check, v.check, "the seed reaches the sampled slice");
    }
}
