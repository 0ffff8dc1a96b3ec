//! Kernel execution helpers shared by the experiments.

use crate::experiments::Effort;
use hpsparse_core::catalog::{self, Kernel, Op};
use hpsparse_datasets::{registry, store};
use hpsparse_sim::{DeviceSpec, GpuSim};
use hpsparse_sparse::{Dense, Graph, Hybrid};
use std::sync::Arc;

/// One kernel's timing on one input.
#[derive(Debug, Clone)]
pub struct KernelTiming {
    /// Kernel name (paper's labels).
    pub kernel: String,
    /// Execution time, milliseconds (simulated device time).
    pub exec_ms: f64,
    /// Preprocessing time, milliseconds (0 for preprocessing-free).
    pub preprocess_ms: f64,
    /// Throughput in GFLOP/s (2·NNZ·K flops over exec time).
    pub gflops: f64,
    /// L2 hit rate of the execution launch.
    pub l2_hit_rate: f64,
}

/// The baselines of `op` that Fig. 9/10 compare HP against (ours is timed
/// separately so callers can position it first).
pub fn contenders(op: Op) -> impl Iterator<Item = &'static catalog::Row> {
    let rows = catalog::KERNELS.iter();
    rows.filter(move |row| row.op == op && row.contender)
}

/// Deterministic feature matrix for kernel benchmarks.
pub fn bench_features(rows: usize, k: usize) -> Dense {
    Dense::from_fn(rows, k, |i, j| (((i * 131 + j * 17) % 1000) as f32) * 1e-3)
}

/// Times one kernel cold at feature dimension `k`. A timing reads launch
/// profiles only, so this is the bare cost walk: no feature matrix is
/// built and no float computed.
pub fn time(kernel: &Kernel, device: &DeviceSpec, s: &Hybrid, k: usize) -> KernelTiming {
    let launches = kernel
        .cost_on(&mut GpuSim::new(device.clone()), s, k)
        .expect("benchmark shapes are valid");
    let flops = 2.0 * s.nnz() as f64 * k as f64;
    let exec_ms: f64 = launches.exec.iter().map(|r| r.time_ms).sum();
    KernelTiming {
        kernel: kernel.name().to_string(),
        exec_ms,
        preprocess_ms: launches.preprocess.as_ref().map_or(0.0, |p| p.time_ms),
        gflops: flops / (exec_ms * 1e6),
        l2_hit_rate: launches.exec.first().map_or(0.0, |r| r.l2_hit_rate),
    }
}

/// [`time`] of catalogue kernel `id`, configured for this input.
pub fn time_id(id: &str, device: &DeviceSpec, s: &Hybrid, k: usize) -> KernelTiming {
    let row = catalog::by_id(id).unwrap_or_else(|| panic!("{id} is not in the kernel catalogue"));
    time(&row.auto(device, s, k), device, s, k)
}

/// A registry graph at `effort`'s edge budget (memoised by the dataset
/// store) and its hybrid CSR/COO form.
pub fn registry_graph(name: &str, effort: Effort) -> (Arc<Graph>, Hybrid) {
    let spec = registry::by_name(name).unwrap_or_else(|| panic!("{name} is not in the registry"));
    let g = store::graph(&spec, effort.max_edges());
    let s = g.to_hybrid();
    (g, s)
}

/// HP's speedups over one baseline across a dataset — the unit Fig. 9,
/// Fig. 10 and Table III all aggregate.
pub struct BaselineStats {
    /// Kernel name.
    pub kernel: String,
    /// Whether it is an SpMM (vs SDDMM) baseline.
    pub is_spmm: bool,
    /// Per-graph speedups of HP over this baseline, in dataset order.
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

    /// Fraction of graphs where HP is at least as fast.
    pub fn win_rate(&self) -> f64 {
        if self.speedups.is_empty() {
            return 0.0;
        }
        self.speedups.iter().filter(|&&s| s >= 1.0).count() as f64 / self.speedups.len() as f64
    }
}

/// Key of one memoised kernel sweep: the whole device description (a spec
/// edited under a preset's name is a different device), effort and K.
pub(crate) type SweepKey = (String, Effort, usize);

pub(crate) fn sweep_key(device: &DeviceSpec, effort: Effort, k: usize) -> SweepKey {
    (format!("{device:?}"), effort, k)
}

/// Geometric mean (the right average for speedup ratios).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
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
    fn timing_roundtrip_on_small_graph() {
        let g = GeneratorConfig {
            nodes: 500,
            edges: 4000,
            topology: Topology::PowerLaw { alpha: 2.2 },
            seed: 1,
        }
        .generate();
        let s = g.to_hybrid();
        let v100 = DeviceSpec::v100();
        let hp = time_id("hp-spmm", &v100, &s, 32);
        assert_eq!(hp.kernel, "HP-SpMM");
        assert!(hp.exec_ms > 0.0);
        assert!(hp.gflops > 0.0);
        let pre = time_id("merge-path", &v100, &s, 32);
        assert!(pre.preprocess_ms > 0.0);
        // The fused kernel's launches are all execution.
        let fused = time_id("hp-fused-mha", &v100, &s, 32);
        assert!(fused.exec_ms > 0.0 && fused.preprocess_ms == 0.0);
    }

    #[test]
    fn sweep_keys_separate_devices_efforts_and_widths() {
        let v100 = DeviceSpec::v100();
        let key = sweep_key(&v100, Effort::Quick, 64);
        assert_eq!(key, sweep_key(&DeviceSpec::v100(), Effort::Quick, 64));
        assert_ne!(key, sweep_key(&DeviceSpec::a30(), Effort::Quick, 64));
        assert_ne!(key, sweep_key(&v100, Effort::Full, 64));
        assert_ne!(key, sweep_key(&v100, Effort::Quick, 32));
        // A spec edited under a preset's name is a different device.
        let mut tweaked = DeviceSpec::v100();
        tweaked.cost.dram += 1.0;
        assert_ne!(key, sweep_key(&tweaked, Effort::Quick, 64));
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-9);
    }
}
