//! Pluggable sparse backends with GPU-time accounting.
//!
//! A backend executes SpMM / SDDMM numerically (the training loop really
//! trains) while accumulating the *simulated* GPU cycles those kernels
//! would take — the quantity Table V compares "w/o HP-SpMM" vs
//! "w/ HP-SpMM". Dense operations (GEMMs, activations) cost the same under
//! either backend, so they are accounted with a roofline estimate shared by
//! both; the speedup ratio then behaves like the paper's NSys-measured
//! total CUDA computation time.

use hpsparse_autotune::{
    edge_softmax_cycles, instantiate_fused_mha, instantiate_sddmm, instantiate_spmm,
    GraphFingerprint, OpKind, Plan, PlanCache, PlanStrategy, Planner,
};
use hpsparse_core::baselines::{CusparseCsrAlg2, DglSddmm};
use hpsparse_core::cpu;
use hpsparse_core::hp::{HpFusedMha, HpSddmm, HpSpmm};

use crate::gat::edge_softmax;
use hpsparse_core::traits::{SddmmKernel, SpmmKernel};
use hpsparse_sim::{DeviceSpec, GpuSim};
use hpsparse_sparse::{Dense, Hybrid};

/// FP32 FMA throughput used for the dense-GEMM roofline, in FLOPs per SM
/// clock (V100: 80 SM × 64 FP32 lanes × 2 ≈ 10240).
fn flops_per_cycle(device: &DeviceSpec) -> f64 {
    device.num_sms as f64 * 64.0 * 2.0
}

/// Roofline cycle estimate of a dense `m×k · k×n` GEMM.
pub fn dense_gemm_cycles(device: &DeviceSpec, m: usize, k: usize, n: usize) -> u64 {
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    let bytes = 4.0 * (m * k + k * n + m * n) as f64;
    (flops / flops_per_cycle(device))
        .max(bytes / device.dram_bytes_per_cycle)
        .ceil() as u64
}

/// Roofline cycle estimate of an elementwise pass over `elems` floats
/// (read + write).
pub fn elementwise_cycles(device: &DeviceSpec, elems: usize) -> u64 {
    (8.0 * elems as f64 / device.dram_bytes_per_cycle).ceil() as u64
}

/// Fixed per-kernel-launch overhead (driver + runtime), charged once per
/// sparse or dense operation by the accounting backends. Real frameworks
/// issue hundreds of small launches per training iteration; this is what
/// keeps tiny sampled-subgraph iterations from showing implausible
/// kernel-swap speedups (≈ 3.5 µs at V100 clocks). Shared with the
/// autotuner so planned cycle estimates and backend accounting agree.
pub const LAUNCH_OVERHEAD_CYCLES: u64 = hpsparse_autotune::LAUNCH_OVERHEAD_CYCLES;

/// A sparse execution engine with time accounting.
pub trait SparseBackend {
    /// Backend name for reports.
    fn name(&self) -> &'static str;
    /// Computes `O = S·A`, accounting its cost.
    fn spmm(&mut self, s: &Hybrid, a: &Dense) -> Dense;
    /// Computes `S_O = (A1·A2ᵀᵀ) ⊙ S` (with `a2t` transposed), accounting
    /// its cost.
    fn sddmm(&mut self, s: &Hybrid, a1: &Dense, a2t: &Dense) -> Vec<f32>;
    /// Multi-head masked attention: per head `h`,
    /// `O_h = softmax_row((Q_h·K_hᵀ)⊙S / √d) · V_h`, returning the per-head
    /// outputs and softmaxed attention weights (element-aligned with `s`).
    /// Backends either fuse the whole batch into one simulated launch
    /// (HP) or run the three-launch SDDMM → softmax → SpMM pipeline per
    /// head ([`unfused_mha`]); both produce identical numerics.
    fn mha(
        &mut self,
        s: &Hybrid,
        q: &[Dense],
        k: &[Dense],
        v: &[Dense],
    ) -> (Vec<Dense>, Vec<Vec<f32>>);
    /// Adds externally-estimated dense-op cycles to the tally.
    fn account_dense(&mut self, cycles: u64);
    /// Accumulated sparse-kernel cycles.
    fn sparse_cycles(&self) -> u64;
    /// Accumulated dense-op cycles.
    fn dense_cycles(&self) -> u64;
    /// The simulated device.
    fn device(&self) -> &DeviceSpec;
    /// Mutable access to the backing simulator, for attaching observers
    /// (sanitizer sinks, trace sessions, a cluster device index). `None`
    /// for backends with no simulator (CPU).
    fn sim_mut(&mut self) -> Option<&mut GpuSim> {
        None
    }
    /// Total modelled time in milliseconds.
    fn total_ms(&self) -> f64 {
        self.device()
            .cycles_to_ms(self.sparse_cycles() + self.dense_cycles())
    }
    /// Clears the accumulated counters.
    fn reset_counters(&mut self);
}

/// The unfused attention pipeline any backend can fall back to: per head
/// an SDDMM (scores = scaled masked dot products), a host edge softmax
/// (accounted as a rooflined elementwise pass plus a launch), and an SpMM
/// over the attention-weighted adjacency. Numerics match the fused kernel
/// bit for bit — same score formula, same per-row softmax order, same
/// element-order accumulation.
pub fn unfused_mha(
    backend: &mut dyn SparseBackend,
    s: &Hybrid,
    q: &[Dense],
    k: &[Dense],
    v: &[Dense],
) -> (Vec<Dense>, Vec<Vec<f32>>) {
    let device = backend.device().clone();
    let d = q.first().map_or(1, Dense::cols);
    let scale = 1.0 / (d as f32).sqrt();
    let mut outputs = Vec::with_capacity(q.len());
    let mut attn = Vec::with_capacity(q.len());
    // One copy of the structure per call; each head overwrites its values.
    let mut weighted = s.clone();
    for h in 0..q.len() {
        let scores: Vec<f32> = backend
            .sddmm(s, &q[h], &k[h])
            .into_iter()
            .map(|e| e * scale)
            .collect();
        backend.account_dense(edge_softmax_cycles(&device, s.nnz()) + LAUNCH_OVERHEAD_CYCLES);
        let weights = edge_softmax(s.row_indices(), &scores);
        weighted.values_mut().copy_from_slice(&weights);
        outputs.push(backend.spmm(&weighted, &v[h]));
        attn.push(weights);
    }
    (outputs, attn)
}

/// Backend running the paper's HP kernels (auto DTP + HVMA per call).
pub struct HpBackend {
    sim: GpuSim,
    sparse_cycles: u64,
    dense_cycles: u64,
}

impl HpBackend {
    /// Builds an HP backend for `device`.
    pub fn new(device: DeviceSpec) -> Self {
        Self {
            sim: GpuSim::new(device),
            sparse_cycles: 0,
            dense_cycles: 0,
        }
    }
}

impl SparseBackend for HpBackend {
    fn name(&self) -> &'static str {
        "hp"
    }

    fn spmm(&mut self, s: &Hybrid, a: &Dense) -> Dense {
        let device = self.sim.device().clone();
        let kernel = HpSpmm::auto(&device, s, a.cols());
        let run = kernel.run_on(&mut self.sim, s, a).expect("valid dims");
        self.sparse_cycles += run.report.cycles + LAUNCH_OVERHEAD_CYCLES;
        run.output
    }

    fn sddmm(&mut self, s: &Hybrid, a1: &Dense, a2t: &Dense) -> Vec<f32> {
        let device = self.sim.device().clone();
        let kernel = HpSddmm::auto(&device, s, a1.cols());
        let run = kernel
            .run_on(&mut self.sim, s, a1, a2t)
            .expect("valid dims");
        self.sparse_cycles += run.report.cycles + LAUNCH_OVERHEAD_CYCLES;
        run.output_values
    }

    fn mha(
        &mut self,
        s: &Hybrid,
        q: &[Dense],
        k: &[Dense],
        v: &[Dense],
    ) -> (Vec<Dense>, Vec<Vec<f32>>) {
        let device = self.sim.device().clone();
        let kernel = HpFusedMha::auto(&device, s, q.first().map_or(1, Dense::cols));
        let run = kernel
            .run_on(&mut self.sim, s, q, k, v)
            .expect("valid dims");
        self.sparse_cycles +=
            run.total_cycles() + run.reports.len() as u64 * LAUNCH_OVERHEAD_CYCLES;
        (run.outputs, run.attn)
    }

    fn account_dense(&mut self, cycles: u64) {
        self.dense_cycles += cycles;
    }

    fn sparse_cycles(&self) -> u64 {
        self.sparse_cycles
    }

    fn dense_cycles(&self) -> u64 {
        self.dense_cycles
    }

    fn device(&self) -> &DeviceSpec {
        self.sim.device()
    }

    fn sim_mut(&mut self) -> Option<&mut GpuSim> {
        Some(&mut self.sim)
    }

    fn reset_counters(&mut self) {
        self.sparse_cycles = 0;
        self.dense_cycles = 0;
    }
}

/// Backend running the framework-default kernels the paper replaces:
/// cuSPARSE CSR SpMM (DGL's default) and DGL's edge-parallel SDDMM.
pub struct BaselineBackend {
    sim: GpuSim,
    sparse_cycles: u64,
    dense_cycles: u64,
}

impl BaselineBackend {
    /// Builds a baseline backend for `device`.
    pub fn new(device: DeviceSpec) -> Self {
        Self {
            sim: GpuSim::new(device),
            sparse_cycles: 0,
            dense_cycles: 0,
        }
    }
}

impl SparseBackend for BaselineBackend {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn spmm(&mut self, s: &Hybrid, a: &Dense) -> Dense {
        let run = CusparseCsrAlg2
            .run_on(&mut self.sim, s, a)
            .expect("valid dims");
        self.sparse_cycles += run.report.cycles + LAUNCH_OVERHEAD_CYCLES;
        run.output
    }

    fn sddmm(&mut self, s: &Hybrid, a1: &Dense, a2t: &Dense) -> Vec<f32> {
        let run = DglSddmm
            .run_on(&mut self.sim, s, a1, a2t)
            .expect("valid dims");
        self.sparse_cycles += run.report.cycles + LAUNCH_OVERHEAD_CYCLES;
        run.output_values
    }

    fn mha(
        &mut self,
        s: &Hybrid,
        q: &[Dense],
        k: &[Dense],
        v: &[Dense],
    ) -> (Vec<Dense>, Vec<Vec<f32>>) {
        unfused_mha(self, s, q, k, v)
    }

    fn account_dense(&mut self, cycles: u64) {
        self.dense_cycles += cycles;
    }

    fn sparse_cycles(&self) -> u64 {
        self.sparse_cycles
    }

    fn dense_cycles(&self) -> u64 {
        self.dense_cycles
    }

    fn device(&self) -> &DeviceSpec {
        self.sim.device()
    }

    fn sim_mut(&mut self) -> Option<&mut GpuSim> {
        Some(&mut self.sim)
    }

    fn reset_counters(&mut self) {
        self.sparse_cycles = 0;
        self.dense_cycles = 0;
    }
}

/// Autotuning backend: plans the kernel on first sight of each sparse
/// shape (via `hpsparse-autotune`), replays cached plans thereafter.
///
/// Execution cycles land in `sparse_cycles` exactly like the other
/// accounting backends (exec + preprocessing + launch overhead); the cost
/// of *planning* — the simulator runs the `Measured` strategy performs —
/// is metered separately in [`AutoBackend::planning_cycles`], so reports
/// can show both "steady-state speed" and "price paid to find the plan".
pub struct AutoBackend {
    sim: GpuSim,
    planner: Planner,
    cache: PlanCache,
    sparse_cycles: u64,
    dense_cycles: u64,
}

impl AutoBackend {
    /// Auto backend with the default (`Measured`) planning strategy and an
    /// empty plan cache.
    pub fn new(device: DeviceSpec) -> Self {
        Self::with_strategy(device, PlanStrategy::default())
    }

    /// Auto backend with an explicit planning strategy.
    pub fn with_strategy(device: DeviceSpec, strategy: PlanStrategy) -> Self {
        Self::with_cache(device, strategy, PlanCache::new())
    }

    /// Auto backend seeded with a pre-populated plan cache (e.g. from
    /// [`PlanCache::load`]); shapes already in the cache replay without a
    /// single planning simulation.
    pub fn with_cache(device: DeviceSpec, strategy: PlanStrategy, cache: PlanCache) -> Self {
        Self {
            sim: GpuSim::new(device.clone()),
            planner: Planner::new(device, strategy),
            cache,
            sparse_cycles: 0,
            dense_cycles: 0,
        }
    }

    /// The plan cache (hit/miss counters included).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Consumes the backend and returns its cache, e.g. to persist it.
    pub fn into_cache(self) -> PlanCache {
        self.cache
    }

    /// Simulator kernel runs spent planning so far (0 under `Heuristic`
    /// or when every shape hits the cache).
    pub fn planning_sim_launches(&self) -> u64 {
        self.planner.sim_launches()
    }

    /// Simulated cycles spent planning — kept out of `sparse_cycles`.
    pub fn planning_cycles(&self) -> u64 {
        self.planner.planning_cycles()
    }

    fn plan_for(&mut self, op: OpKind, s: &Hybrid, k: usize) -> Plan {
        let fp = GraphFingerprint::of(s, k, self.sim.device());
        if let Some(plan) = self.cache.get(op, fp.key()) {
            return plan.clone();
        }
        let plan = match op {
            OpKind::Spmm => self.planner.plan_spmm_for(&fp, s),
            OpKind::Sddmm => self.planner.plan_sddmm_for(&fp, s),
            // Attention plans carry a head count in their key, so they go
            // through `plan_mha_for` instead.
            OpKind::FusedMha => unreachable!("fused-mha plans go through plan_mha_for"),
        };
        self.cache
            .insert(op, fp.key(), fp.canonical_encoding(), plan.clone());
        plan
    }

    fn plan_mha_for(&mut self, s: &Hybrid, head_dim: usize, heads: usize) -> Plan {
        let fp = GraphFingerprint::of(s, head_dim, self.sim.device());
        let key = fp.mha_key(heads);
        if let Some(plan) = self.cache.get(OpKind::FusedMha, key) {
            return plan.clone();
        }
        let plan = self.planner.plan_mha_for(&fp, s, heads);
        self.cache
            .insert(OpKind::FusedMha, key, fp.mha_encoding(heads), plan.clone());
        plan
    }
}

impl SparseBackend for AutoBackend {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn spmm(&mut self, s: &Hybrid, a: &Dense) -> Dense {
        let plan = self.plan_for(OpKind::Spmm, s, a.cols());
        // A stale persisted cache may name a kernel this build doesn't
        // know; fall back to the paper's selector rather than failing.
        let kernel = instantiate_spmm(&plan.candidate())
            .unwrap_or_else(|| Box::new(HpSpmm::auto(self.sim.device(), s, a.cols())));
        let run = kernel.run_on(&mut self.sim, s, a).expect("valid dims");
        self.sparse_cycles += run.report.cycles
            + run.preprocess.as_ref().map_or(0, |p| p.cycles)
            + LAUNCH_OVERHEAD_CYCLES;
        run.output
    }

    fn sddmm(&mut self, s: &Hybrid, a1: &Dense, a2t: &Dense) -> Vec<f32> {
        let plan = self.plan_for(OpKind::Sddmm, s, a1.cols());
        let kernel = instantiate_sddmm(&plan.candidate())
            .unwrap_or_else(|| Box::new(HpSddmm::auto(self.sim.device(), s, a1.cols())));
        let run = kernel
            .run_on(&mut self.sim, s, a1, a2t)
            .expect("valid dims");
        self.sparse_cycles += run.report.cycles
            + run.preprocess.as_ref().map_or(0, |p| p.cycles)
            + LAUNCH_OVERHEAD_CYCLES;
        run.output_values
    }

    fn mha(
        &mut self,
        s: &Hybrid,
        q: &[Dense],
        k: &[Dense],
        v: &[Dense],
    ) -> (Vec<Dense>, Vec<Vec<f32>>) {
        let head_dim = q.first().map_or(1, Dense::cols);
        let plan = self.plan_mha_for(s, head_dim, q.len());
        if plan.kernel_id.starts_with("hp-fused-mha") {
            let kernel = instantiate_fused_mha(&plan.candidate())
                .unwrap_or_else(|| HpFusedMha::auto(self.sim.device(), s, head_dim));
            let run = kernel
                .run_on(&mut self.sim, s, q, k, v)
                .expect("valid dims");
            self.sparse_cycles +=
                run.total_cycles() + run.reports.len() as u64 * LAUNCH_OVERHEAD_CYCLES;
            (run.outputs, run.attn)
        } else {
            unfused_mha(self, s, q, k, v)
        }
    }

    fn account_dense(&mut self, cycles: u64) {
        self.dense_cycles += cycles;
    }

    fn sparse_cycles(&self) -> u64 {
        self.sparse_cycles
    }

    fn dense_cycles(&self) -> u64 {
        self.dense_cycles
    }

    fn device(&self) -> &DeviceSpec {
        self.sim.device()
    }

    fn sim_mut(&mut self) -> Option<&mut GpuSim> {
        Some(&mut self.sim)
    }

    fn reset_counters(&mut self) {
        self.sparse_cycles = 0;
        self.dense_cycles = 0;
    }
}

/// Pure-CPU backend (rayon kernels, no GPU accounting): the fastest way to
/// actually train on this machine. `total_ms` reports 0.
pub struct CpuBackend {
    device: DeviceSpec,
}

impl CpuBackend {
    /// Builds the CPU backend (the device spec is kept only so generic
    /// code can query it).
    pub fn new() -> Self {
        Self {
            device: DeviceSpec::v100(),
        }
    }
}

impl Default for CpuBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl SparseBackend for CpuBackend {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn spmm(&mut self, s: &Hybrid, a: &Dense) -> Dense {
        cpu::par_spmm_hybrid(s, a, 0).expect("valid dims")
    }

    fn sddmm(&mut self, s: &Hybrid, a1: &Dense, a2t: &Dense) -> Vec<f32> {
        cpu::par_sddmm(s, a1, a2t).expect("valid dims")
    }

    fn mha(
        &mut self,
        s: &Hybrid,
        q: &[Dense],
        k: &[Dense],
        v: &[Dense],
    ) -> (Vec<Dense>, Vec<Vec<f32>>) {
        unfused_mha(self, s, q, k, v)
    }

    fn account_dense(&mut self, _cycles: u64) {}

    fn sparse_cycles(&self) -> u64 {
        0
    }

    fn dense_cycles(&self) -> u64 {
        0
    }

    fn device(&self) -> &DeviceSpec {
        &self.device
    }

    fn reset_counters(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_sparse::reference;

    fn small_graph() -> Hybrid {
        Hybrid::from_triplets(
            6,
            6,
            &[
                (0, 1, 0.5),
                (1, 0, 0.5),
                (2, 3, 1.0),
                (3, 2, 1.0),
                (4, 5, 2.0),
                (5, 4, 2.0),
                (0, 5, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn all_backends_compute_the_same_spmm() {
        let s = small_graph();
        let a = Dense::from_fn(6, 16, |i, j| ((i * 16 + j) as f32 * 0.05).sin());
        let expected = reference::spmm(&s, &a).unwrap();
        let mut hp = HpBackend::new(DeviceSpec::v100());
        let mut base = BaselineBackend::new(DeviceSpec::v100());
        let mut auto = AutoBackend::new(DeviceSpec::v100());
        let mut cpu = CpuBackend::new();
        for b in [
            &mut hp as &mut dyn SparseBackend,
            &mut base,
            &mut auto,
            &mut cpu,
        ] {
            let got = b.spmm(&s, &a);
            assert!(got.approx_eq(&expected, 1e-4, 1e-5), "{}", b.name());
        }
        assert!(hp.sparse_cycles() > 0);
        assert!(base.sparse_cycles() > 0);
        assert!(auto.sparse_cycles() > 0);
        assert_eq!(cpu.sparse_cycles(), 0);
    }

    #[test]
    fn auto_backend_plans_once_and_replays_from_cache() {
        let s = small_graph();
        let a = Dense::from_fn(6, 16, |i, j| (i + j) as f32);
        let mut auto = AutoBackend::new(DeviceSpec::v100());
        auto.spmm(&s, &a);
        let launches_after_first = auto.planning_sim_launches();
        assert!(launches_after_first > 0, "first sight must plan");
        assert_eq!(auto.cache().misses(), 1);
        // Second call on the same shape: a cache hit must perform zero
        // planning simulations.
        auto.spmm(&s, &a);
        assert_eq!(auto.planning_sim_launches(), launches_after_first);
        assert_eq!(auto.cache().hits(), 1);
        // Planning cost is metered separately from execution.
        assert!(auto.planning_cycles() > 0);
        auto.reset_counters();
        assert_eq!(auto.sparse_cycles(), 0);
        assert!(auto.planning_cycles() > 0, "reset keeps the planning meter");
    }

    #[test]
    fn auto_backend_accepts_a_preloaded_cache() {
        let s = small_graph();
        let a1 = Dense::from_fn(6, 16, |i, j| ((i + j) as f32 * 0.1).cos());
        let a2t = Dense::from_fn(6, 16, |i, j| ((i * 2 + j) as f32 * 0.1).sin());
        let mut cold = AutoBackend::new(DeviceSpec::v100());
        cold.sddmm(&s, &a1, &a2t);
        let cache = cold.into_cache();
        let mut warm = AutoBackend::with_cache(DeviceSpec::v100(), PlanStrategy::default(), cache);
        let expected = reference::sddmm_transposed(&s, &a1, &a2t).unwrap();
        let got = warm.sddmm(&s, &a1, &a2t);
        for (x, y) in got.iter().zip(&expected) {
            assert!((x - y).abs() < 1e-4);
        }
        assert_eq!(warm.planning_sim_launches(), 0, "preloaded plan replays");
        assert_eq!(warm.cache().hits(), 1);
    }

    #[test]
    fn backends_accumulate_and_reset() {
        let s = small_graph();
        let a = Dense::from_fn(6, 8, |i, j| (i + j) as f32);
        let mut hp = HpBackend::new(DeviceSpec::v100());
        hp.spmm(&s, &a);
        let after_one = hp.sparse_cycles();
        hp.spmm(&s, &a);
        assert!(hp.sparse_cycles() > after_one);
        hp.account_dense(1000);
        assert_eq!(hp.dense_cycles(), 1000);
        assert!(hp.total_ms() > 0.0);
        hp.reset_counters();
        assert_eq!(hp.sparse_cycles(), 0);
        assert_eq!(hp.dense_cycles(), 0);
    }

    #[test]
    fn sim_mut_exposes_the_simulator_where_one_exists() {
        let mut auto = AutoBackend::new(DeviceSpec::v100());
        auto.sim_mut().expect("auto has a sim").set_device_index(2);
        assert_eq!(auto.sim_mut().unwrap().device_index(), Some(2));
        assert!(HpBackend::new(DeviceSpec::v100()).sim_mut().is_some());
        assert!(BaselineBackend::new(DeviceSpec::v100()).sim_mut().is_some());
        assert!(CpuBackend::new().sim_mut().is_none());
    }

    #[test]
    fn dense_roofline_scales() {
        let v100 = DeviceSpec::v100();
        let small = dense_gemm_cycles(&v100, 100, 32, 32);
        let big = dense_gemm_cycles(&v100, 100_000, 32, 32);
        assert!(big > 100 * small);
        // Compute-bound for large square matrices; memory-bound for skinny.
        let skinny = dense_gemm_cycles(&v100, 1_000_000, 2, 2);
        let bytes_bound =
            (4.0 * (1_000_000.0 * 2.0 + 4.0 + 2_000_000.0) / v100.dram_bytes_per_cycle) as u64;
        assert!(skinny >= bytes_bound);
        assert!(elementwise_cycles(&v100, 1000) > 0);
    }

    #[test]
    fn sddmm_backends_agree() {
        let s = small_graph();
        let a1 = Dense::from_fn(6, 16, |i, j| ((i + j) as f32 * 0.1).cos());
        let a2t = Dense::from_fn(6, 16, |i, j| ((i * 2 + j) as f32 * 0.1).sin());
        let expected = reference::sddmm_transposed(&s, &a1, &a2t).unwrap();
        let mut hp = HpBackend::new(DeviceSpec::v100());
        let mut base = BaselineBackend::new(DeviceSpec::v100());
        for b in [&mut hp as &mut dyn SparseBackend, &mut base] {
            let got = b.sddmm(&s, &a1, &a2t);
            for (x, y) in got.iter().zip(&expected) {
                assert!((x - y).abs() < 1e-4, "{}", b.name());
            }
        }
    }

    fn heads_for(rows: usize, d: usize, heads: usize, salt: usize) -> Vec<Dense> {
        (0..heads)
            .map(|h| {
                Dense::from_fn(rows, d, |i, j| {
                    (((i * 31 + j * 7 + h * 13 + salt * 3) % 17) as f32 - 8.0) * 0.1
                })
            })
            .collect()
    }

    #[test]
    fn mha_backends_agree() {
        let s = small_graph();
        let q = heads_for(6, 16, 2, 0);
        let k = heads_for(6, 16, 2, 1);
        let v = heads_for(6, 16, 2, 2);
        let mut cpu = CpuBackend::new();
        let (expected_out, expected_attn) = cpu.mha(&s, &q, &k, &v);
        let mut hp = HpBackend::new(DeviceSpec::v100());
        let mut base = BaselineBackend::new(DeviceSpec::v100());
        let mut auto = AutoBackend::new(DeviceSpec::v100());
        for b in [&mut hp as &mut dyn SparseBackend, &mut base, &mut auto] {
            let (out, attn) = b.mha(&s, &q, &k, &v);
            assert_eq!(out.len(), 2, "{}", b.name());
            for (h, o) in out.iter().enumerate() {
                assert!(
                    o.approx_eq(&expected_out[h], 1e-4, 1e-5),
                    "{} head {h}",
                    b.name()
                );
            }
            for (h, w) in attn.iter().enumerate() {
                for (x, y) in w.iter().zip(&expected_attn[h]) {
                    assert!((x - y).abs() < 1e-4, "{} head {h}", b.name());
                }
            }
        }
        assert!(hp.sparse_cycles() > 0);
        assert!(base.sparse_cycles() > 0);
    }

    #[test]
    fn fused_mha_undercuts_the_three_launch_pipeline() {
        let s = small_graph();
        let q = heads_for(6, 16, 2, 0);
        let k = heads_for(6, 16, 2, 1);
        let v = heads_for(6, 16, 2, 2);
        let mut fused = HpBackend::new(DeviceSpec::v100());
        fused.mha(&s, &q, &k, &v);
        let mut unfused = HpBackend::new(DeviceSpec::v100());
        unfused_mha(&mut unfused, &s, &q, &k, &v);
        assert!(
            fused.sparse_cycles() < unfused.sparse_cycles(),
            "fused {} must beat unfused {} at two heads",
            fused.sparse_cycles(),
            unfused.sparse_cycles()
        );
    }

    #[test]
    fn auto_backend_caches_mha_plans_per_head_count() {
        let s = small_graph();
        let q = heads_for(6, 16, 2, 0);
        let k = heads_for(6, 16, 2, 1);
        let v = heads_for(6, 16, 2, 2);
        let mut auto = AutoBackend::new(DeviceSpec::v100());
        auto.mha(&s, &q, &k, &v);
        assert_eq!(auto.cache().misses(), 1);
        let launches = auto.planning_sim_launches();
        assert!(launches > 0, "measured strategy must simulate candidates");
        auto.mha(&s, &q, &k, &v);
        assert_eq!(auto.cache().hits(), 1);
        assert_eq!(
            auto.planning_sim_launches(),
            launches,
            "cache hit replans nothing"
        );
        // A different head count is a different knob setting: it replans.
        let q4 = heads_for(6, 16, 4, 0);
        let k4 = heads_for(6, 16, 4, 1);
        let v4 = heads_for(6, 16, 4, 2);
        auto.mha(&s, &q4, &k4, &v4);
        assert_eq!(auto.cache().misses(), 2);
    }
}
