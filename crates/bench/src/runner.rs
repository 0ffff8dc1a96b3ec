//! The one measurement every kernel figure reads — a kernel's cold launch
//! on one input ([`Record`], made by [`measure`]) — and the Fig. 9 / Fig. 10
//! sweep and join over such records.

use crate::experiments::Effort;
use hpsparse_core::catalog::{self, Kernel, Op};
use hpsparse_core::traits::Launches;
use hpsparse_datasets::store::{self, Memo};
use hpsparse_datasets::{full_graph_dataset, registry};
use hpsparse_sim::{DeviceSpec, GpuSim};
use hpsparse_sparse::{Graph, Hybrid};
use rayon::prelude::*;
use std::sync::{Arc, OnceLock};

/// One kernel's cold launch on one input. The device and K belong to the
/// caller that measured it (a sweep's memo key holds them).
#[derive(Debug, Clone)]
pub struct Record {
    /// The input's name.
    pub graph: String,
    /// Non-zeros of the input.
    pub nnz: usize,
    /// Kernel name (paper's labels).
    pub kernel: &'static str,
    /// What the kernel computes.
    pub op: Op,
    /// Every launch of the kernel's cost walk.
    pub launches: Launches,
}

impl Record {
    /// Execution time, milliseconds (simulated device time).
    pub fn exec_ms(&self) -> f64 {
        self.launches.exec_ms()
    }

    /// Preprocessing time, milliseconds (0 for preprocessing-free).
    pub fn preprocess_ms(&self) -> f64 {
        self.launches.preprocess.as_ref().map_or(0.0, |p| p.time_ms)
    }

    /// Throughput in GFLOP/s at feature width `k` (2·NNZ·K flops over the
    /// execution time).
    pub fn gflops(&self, k: usize) -> f64 {
        2.0 * self.nnz as f64 * k as f64 / (self.exec_ms() * 1e6)
    }

    /// L2 hit rate of the first execution launch.
    pub fn l2_hit_rate(&self) -> f64 {
        self.launches.exec.first().map_or(0.0, |r| r.l2_hit_rate)
    }
}

/// The baselines of `op` that Fig. 9/10 compare HP against.
pub fn contenders(op: Op) -> impl Iterator<Item = &'static catalog::Row> {
    let rows = catalog::KERNELS.iter();
    rows.filter(move |row| row.op == op && row.contender)
}

/// Measures `kernel` on input `graph` (`s`) at feature width `k`, cold. A
/// measurement reads launch profiles only, so this is the bare cost walk:
/// no feature matrix is built and no float computed.
pub fn measure(graph: &str, kernel: &Kernel, device: &DeviceSpec, s: &Hybrid, k: usize) -> Record {
    let launches = kernel
        .cost_on(&mut GpuSim::new(device.clone()), s, k)
        .expect("benchmark shapes are valid");
    Record {
        graph: graph.to_string(),
        nnz: s.nnz(),
        kernel: kernel.name(),
        op: kernel.op(),
        launches,
    }
}

/// [`measure`] of catalogue kernel `id`, configured for this input.
pub fn measure_id(graph: &str, id: &str, device: &DeviceSpec, s: &Hybrid, k: usize) -> Record {
    let row = catalog::by_id(id).unwrap_or_else(|| panic!("{id} is not in the kernel catalogue"));
    measure(graph, &row.auto(device, s, k), device, s, k)
}

/// A registry graph at `effort`'s edge budget (memoised by the dataset
/// store) and its hybrid CSR/COO form.
pub fn registry_graph(name: &str, effort: Effort) -> (Arc<Graph>, Hybrid) {
    let spec = registry::by_name(name).unwrap_or_else(|| panic!("{name} is not in the registry"));
    let g = store::graph(&spec, effort.max_edges());
    let s = g.to_hybrid();
    (g, s)
}

/// Every Table II graph, named, at `cap` edges (memoised by the dataset
/// store), in hybrid form.
pub fn registry_graphs(cap: usize) -> Vec<(&'static str, Hybrid)> {
    full_graph_dataset()
        .into_iter()
        .map(|spec| (spec.name, store::graph(&spec, cap).to_hybrid()))
        .collect()
}

/// The inputs of a Fig. 9 / Fig. 10 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inputs {
    /// The 19 Table II graphs at the effort's edge cap (Fig. 9).
    FullGraph,
    /// The graph-sampling corpus at the effort's size (Fig. 10).
    Corpus,
}

/// Key of one memoised sweep: the inputs, the whole device description (a
/// spec edited under a preset's name is a different device), effort and K.
type SweepKey = (Inputs, String, Effort, usize);

fn sweep_key(inputs: Inputs, device: &DeviceSpec, effort: Effort, k: usize) -> SweepKey {
    (inputs, format!("{device:?}"), effort, k)
}

/// HP and every contender of both operations on every input, swept once
/// per (inputs, device, effort, K) per process: `fig9`/`fig9a30`,
/// `fig10`/`fig10a30` and `table3` share the records, and a repeated call
/// returns the same `Arc`. Inputs run in parallel; the records come in
/// input order, each input's per operation HP first, then that
/// operation's contenders, so every view matches a sequential run's.
pub fn sweep(inputs: Inputs, device: &DeviceSpec, effort: Effort, k: usize) -> Arc<Vec<Record>> {
    static SWEEPS: OnceLock<Memo<SweepKey, Vec<Record>>> = OnceLock::new();
    let build = || {
        let per_input: Vec<Vec<Record>> = match inputs {
            Inputs::FullGraph => full_graph_dataset()
                .into_par_iter()
                .map(|spec| {
                    let s = store::graph(&spec, effort.max_edges()).to_hybrid();
                    measure_input(spec.name, &s, device, k)
                })
                .collect(),
            Inputs::Corpus => store::corpus(effort.corpus_size(), 0xc0ffee)
                .par_iter()
                .enumerate()
                .map(|(i, g)| measure_input(&format!("subgraph {i}"), &g.to_hybrid(), device, k))
                .collect(),
        };
        per_input.concat()
    };
    SWEEPS
        .get_or_init(Memo::default)
        .get_or_build(sweep_key(inputs, device, effort, k), build)
}

/// One input's records: per operation, HP first, then that operation's
/// contenders. Every launch builds its own cold simulator, so the kernels
/// run in parallel and still come back in this order.
fn measure_input(graph: &str, s: &Hybrid, device: &DeviceSpec, k: usize) -> Vec<Record> {
    let rows: Vec<_> = [(Op::Spmm, "hp-spmm"), (Op::Sddmm, "hp-sddmm")]
        .into_iter()
        .flat_map(|(op, ours)| catalog::by_id(ours).into_iter().chain(contenders(op)))
        .collect();
    rows.par_iter()
        .map(|row| measure(graph, &row.auto(device, s, k), device, s, k))
        .collect()
}

/// A sweep's records split by input (each input's records are adjacent).
pub fn by_input(records: &[Record]) -> impl Iterator<Item = &[Record]> {
    records.chunk_by(|a, b| a.graph == b.graph)
}

/// HP's speedups over one baseline across a dataset — the unit Fig. 9,
/// Fig. 10 and Table III all aggregate.
pub struct BaselineStats {
    /// Kernel name.
    pub kernel: String,
    /// Whether it is an SpMM (vs SDDMM) baseline.
    pub is_spmm: bool,
    /// Per-input speedups of HP over this baseline, in input order.
    pub speedups: Vec<f64>,
}

impl BaselineStats {
    /// "SpMM" or "SDDMM".
    pub fn op(&self) -> &'static str {
        if self.is_spmm {
            "SpMM"
        } else {
            "SDDMM"
        }
    }

    /// Geometric-mean speedup.
    pub fn average(&self) -> f64 {
        geomean(&self.speedups)
    }

    /// Fraction of inputs where HP is strictly faster; a tie is no win.
    pub fn win_rate(&self) -> f64 {
        if self.speedups.is_empty() {
            return 0.0;
        }
        self.speedups.iter().filter(|&&s| s > 1.0).count() as f64 / self.speedups.len() as f64
    }
}

/// The join of a sweep's records: HP's per-input speedup over every
/// contender, each paired with its own operation's HP record on the same
/// input (the first record of that operation there, as [`sweep`] lays
/// them out). Baselines come in the first input's order, SpMM first.
pub fn speedups(records: &[Record]) -> Vec<BaselineStats> {
    let mut stats: Vec<BaselineStats> = Vec::new();
    for input in by_input(records) {
        for r in input {
            let hp = input.iter().find(|h| h.op == r.op);
            let Some(hp) = hp.filter(|hp| !std::ptr::eq(*hp, r)) else {
                continue; // r is HP's record
            };
            let speedup = r.exec_ms() / hp.exec_ms();
            match stats.iter_mut().find(|st| st.kernel == r.kernel) {
                Some(st) => st.speedups.push(speedup),
                None => stats.push(BaselineStats {
                    kernel: r.kernel.to_string(),
                    is_spmm: r.op == Op::Spmm,
                    speedups: vec![speedup],
                }),
            }
        }
    }
    stats
}

/// Geometric mean (the right average for speedup ratios).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A record of `kernel` (computing `op`) that took `ms` on an input named
/// `graph` with `nnz` non-zeros — what tests build joins from.
#[cfg(test)]
pub(crate) fn record(graph: &str, nnz: usize, op: Op, kernel: &'static str, ms: f64) -> Record {
    let s = Hybrid::from_triplets(1, 1, &[(0, 0, 1.0)]).unwrap();
    let mut r = measure_id(graph, "hp-spmm", &DeviceSpec::v100(), &s, 1);
    r.launches.exec[0].time_ms = ms;
    Record {
        nnz,
        kernel,
        op,
        ..r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_datasets::generators::{GeneratorConfig, Topology};

    #[test]
    fn contender_sets_match_the_paper() {
        let ids = |op| contenders(op).map(|row| row.id).collect::<Vec<_>>();
        assert_eq!(ids(Op::Spmm).len(), 5);
        assert!(ids(Op::Spmm).contains(&"cusparse-csr-alg2"));
        assert!(ids(Op::Spmm).contains(&"gespmm"));
        assert!(ids(Op::Spmm).contains(&"row-split"));
        assert_eq!(ids(Op::Sddmm), ["dgl-sddmm", "cusparse-csr-sddmm"]);
    }

    #[test]
    fn measuring_a_small_graph() {
        let g = GeneratorConfig {
            nodes: 500,
            edges: 4000,
            topology: Topology::PowerLaw { alpha: 2.2 },
            seed: 1,
        }
        .generate();
        let s = g.to_hybrid();
        let v100 = DeviceSpec::v100();
        let hp = measure_id("g", "hp-spmm", &v100, &s, 32);
        assert_eq!((hp.kernel, hp.op, hp.nnz), ("HP-SpMM", Op::Spmm, 4000));
        assert!(hp.exec_ms() > 0.0);
        assert!(hp.gflops(32) > 0.0);
        let pre = measure_id("g", "merge-path", &v100, &s, 32);
        assert!(pre.preprocess_ms() > 0.0);
        // The fused kernel's launches are all execution.
        let fused = measure_id("g", "hp-fused-mha", &v100, &s, 32);
        assert!(fused.exec_ms() > 0.0 && fused.preprocess_ms() == 0.0);
        assert_eq!(fused.op, Op::FusedMha);
    }

    #[test]
    fn one_input_measures_hp_then_the_contenders_per_operation() {
        let s = Hybrid::from_triplets(64, 64, &[(0, 1, 1.0), (5, 2, 2.0), (63, 0, 3.0)]).unwrap();
        let records = measure_input("g", &s, &DeviceSpec::v100(), 16);
        let got: Vec<_> = records.iter().map(|r| (r.op, r.kernel)).collect();
        let name = |row: &catalog::Row| row.planner_variants()[0].name();
        let want: Vec<_> = [(Op::Spmm, "HP-SpMM"), (Op::Sddmm, "HP-SDDMM")]
            .into_iter()
            .flat_map(|(op, hp)| {
                std::iter::once((op, hp)).chain(contenders(op).map(move |r| (op, name(r))))
            })
            .collect();
        assert_eq!(got, want);
        assert_eq!(by_input(&records).count(), 1);
    }

    #[test]
    fn sweep_keys_separate_inputs_devices_efforts_and_widths() {
        let v100 = DeviceSpec::v100();
        let key = sweep_key(Inputs::FullGraph, &v100, Effort::Quick, 64);
        assert_eq!(
            key,
            sweep_key(Inputs::FullGraph, &DeviceSpec::v100(), Effort::Quick, 64)
        );
        assert_ne!(key, sweep_key(Inputs::Corpus, &v100, Effort::Quick, 64));
        assert_ne!(
            key,
            sweep_key(Inputs::FullGraph, &DeviceSpec::a30(), Effort::Quick, 64)
        );
        assert_ne!(key, sweep_key(Inputs::FullGraph, &v100, Effort::Full, 64));
        assert_ne!(key, sweep_key(Inputs::FullGraph, &v100, Effort::Quick, 32));
        // A spec edited under a preset's name is a different device.
        let mut tweaked = DeviceSpec::v100();
        tweaked.cost.dram += 1.0;
        assert_ne!(
            key,
            sweep_key(Inputs::FullGraph, &tweaked, Effort::Quick, 64)
        );
    }

    #[test]
    fn win_rate_counts_correctly() {
        let st = BaselineStats {
            kernel: "x".into(),
            is_spmm: true,
            // Two wins, a loss and a tie at the launch floor.
            speedups: vec![0.5, 1.0, 2.0, 3.0],
        };
        assert!((st.win_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-9);
    }
}
