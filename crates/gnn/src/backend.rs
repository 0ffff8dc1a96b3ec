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
    edge_softmax_cycles, instantiate_fused_mha, instantiate_sddmm, instantiate_spmm, CandidateRef,
    GraphFingerprint, PlanCache, PlanStrategy, Planner,
};
use hpsparse_core::baselines::{CusparseCsrAlg2, DglSddmm};
use hpsparse_core::catalog::Op;
use hpsparse_core::hp::{HpFusedMha, HpSddmm, HpSpmm};
use hpsparse_core::numerics::{edge_softmax, masked_dots};
use hpsparse_core::traits::{KernelCost, Launches, SddmmKernel, SpmmKernel};
use hpsparse_sim::{DeviceSpec, GpuSim, LaunchReport};
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
fn elementwise_cycles(device: &DeviceSpec, elems: usize) -> u64 {
    (8.0 * elems as f64 / device.dram_bytes_per_cycle).ceil() as u64
}

/// Fixed per-launch host overhead (CUDA API + runtime), charged once per dense
/// operation here and once per sparse execution launch by
/// [`Launches::price`]. Real frameworks make hundreds of small launches
/// per training iteration; the autotuner's estimates pay the same.
pub use hpsparse_core::traits::LAUNCH_OVERHEAD_CYCLES;

/// Accounts one dense `m×k · k×n` GEMM launch: its roofline estimate plus
/// the launch overhead.
pub(crate) fn account_gemm(backend: &mut dyn SparseBackend, m: usize, k: usize, n: usize) {
    let cycles = dense_gemm_cycles(backend.device(), m, k, n);
    backend.account_dense(cycles + LAUNCH_OVERHEAD_CYCLES);
}

/// Accounts one elementwise launch over `elems` floats.
pub(crate) fn account_elementwise(backend: &mut dyn SparseBackend, elems: usize) {
    let cycles = elementwise_cycles(backend.device(), elems);
    backend.account_dense(cycles + LAUNCH_OVERHEAD_CYCLES);
}

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
        let softmax = edge_softmax_cycles(backend.device(), s.nnz());
        backend.account_dense(softmax + LAUNCH_OVERHEAD_CYCLES);
        let weights = edge_softmax(s.row_indices(), &scores);
        weighted.values_mut().copy_from_slice(&weights);
        outputs.push(backend.spmm(&weighted, &v[h]));
        attn.push(weights);
    }
    (outputs, attn)
}

/// What tells one simulator backend from another: which kernel runs each
/// sparse call. Everything else — the simulator, the counters, the charge
/// — is [`SimBackend`]'s and therefore the same by construction.
pub trait KernelSelector {
    /// Backend name for reports.
    const NAME: &'static str;
    /// The SpMM kernel for `s` at feature width `k`.
    fn spmm(&mut self, device: &DeviceSpec, s: &Hybrid, k: usize) -> Box<dyn SpmmKernel>;
    /// The SDDMM kernel for `s` at feature width `k`.
    fn sddmm(&mut self, device: &DeviceSpec, s: &Hybrid, k: usize) -> Box<dyn SddmmKernel>;
    /// The fused attention kernel for `heads` heads of width `head_dim`,
    /// or `None` (the default) to run [`unfused_mha`] on this selector's
    /// SDDMM and SpMM.
    fn fused_mha(
        &mut self,
        _device: &DeviceSpec,
        _s: &Hybrid,
        _head_dim: usize,
        _heads: usize,
    ) -> Option<HpFusedMha> {
        None
    }
}

/// A backend that runs its selector's kernels on one persistent simulator
/// and accounts what they cost. Every sparse call is charged the
/// [`Launches::price`] of its launches.
pub struct SimBackend<K> {
    sim: GpuSim,
    kernels: K,
    sparse_cycles: u64,
    dense_cycles: u64,
}

impl<K: KernelSelector + Default> SimBackend<K> {
    /// Builds the backend for `device`.
    pub fn new(device: DeviceSpec) -> Self {
        Self::with_kernels(device, K::default())
    }
}

impl<K> SimBackend<K> {
    fn with_kernels(device: DeviceSpec, kernels: K) -> Self {
        Self {
            sim: GpuSim::new(device),
            kernels,
            sparse_cycles: 0,
            dense_cycles: 0,
        }
    }

    /// Charges an SpMM or SDDMM call: one execution launch, perhaps
    /// preprocessed.
    fn charge(&mut self, report: LaunchReport, preprocess: Option<LaunchReport>) {
        self.sparse_cycles += Launches::from(KernelCost { report, preprocess }).price();
    }
}

impl<K: KernelSelector> SparseBackend for SimBackend<K> {
    fn name(&self) -> &'static str {
        K::NAME
    }

    fn spmm(&mut self, s: &Hybrid, a: &Dense) -> Dense {
        let kernel = self.kernels.spmm(self.sim.device(), s, a.cols());
        let run = kernel.run_on(&mut self.sim, s, a).expect("valid dims");
        self.charge(run.report, run.preprocess);
        run.output
    }

    fn sddmm(&mut self, s: &Hybrid, a1: &Dense, a2t: &Dense) -> Vec<f32> {
        let kernel = self.kernels.sddmm(self.sim.device(), s, a1.cols());
        let run = kernel
            .run_on(&mut self.sim, s, a1, a2t)
            .expect("valid dims");
        self.charge(run.report, run.preprocess);
        run.output_values
    }

    fn mha(
        &mut self,
        s: &Hybrid,
        q: &[Dense],
        k: &[Dense],
        v: &[Dense],
    ) -> (Vec<Dense>, Vec<Vec<f32>>) {
        // Zero heads go unfused, which launches nothing: the fused kernel
        // refuses an empty batch, and planning one would cache a dead plan.
        let fused = q.first().and_then(|q0| {
            self.kernels
                .fused_mha(self.sim.device(), s, q0.cols(), q.len())
        });
        let Some(kernel) = fused else {
            return unfused_mha(self, s, q, k, v);
        };
        let run = kernel
            .run_on(&mut self.sim, s, q, k, v)
            .expect("valid dims");
        self.sparse_cycles += run.launches.price();
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

/// Selects the paper's HP kernels (auto DTP + HVMA per call) and the fused
/// attention kernel.
#[derive(Default)]
pub struct HpKernels;

impl KernelSelector for HpKernels {
    const NAME: &'static str = "hp";

    fn spmm(&mut self, device: &DeviceSpec, s: &Hybrid, k: usize) -> Box<dyn SpmmKernel> {
        Box::new(HpSpmm::auto(device, s, k))
    }

    fn sddmm(&mut self, device: &DeviceSpec, s: &Hybrid, k: usize) -> Box<dyn SddmmKernel> {
        Box::new(HpSddmm::auto(device, s, k))
    }

    fn fused_mha(
        &mut self,
        device: &DeviceSpec,
        s: &Hybrid,
        head_dim: usize,
        _heads: usize,
    ) -> Option<HpFusedMha> {
        Some(HpFusedMha::auto(device, s, head_dim))
    }
}

/// Backend running the paper's HP kernels.
pub type HpBackend = SimBackend<HpKernels>;

/// Selects the framework-default kernels the paper replaces: cuSPARSE CSR
/// SpMM (DGL's default), DGL's edge-parallel SDDMM, and no fusion.
#[derive(Default)]
pub struct FrameworkKernels;

impl KernelSelector for FrameworkKernels {
    const NAME: &'static str = "baseline";

    fn spmm(&mut self, _: &DeviceSpec, _: &Hybrid, _: usize) -> Box<dyn SpmmKernel> {
        Box::new(CusparseCsrAlg2)
    }

    fn sddmm(&mut self, _: &DeviceSpec, _: &Hybrid, _: usize) -> Box<dyn SddmmKernel> {
        Box::new(DglSddmm)
    }
}

/// Backend running the framework-default kernels.
pub type BaselineBackend = SimBackend<FrameworkKernels>;

/// Selects what the autotuner plans (via `hpsparse-autotune`). Every
/// shape is looked up in the plan cache first, so seeded or loaded entries
/// replay. A miss plans the shape; only a `Measured` plan is stored, since
/// only it cost simulator walks. A Heuristic miss takes the planner's
/// [`Planner::pick`], a pure function of the fingerprint that renders no
/// text and is recomputed every time, so a long-lived Heuristic backend
/// keeps no per-shape state.
pub struct PlannedKernels {
    planner: Planner,
    cache: PlanCache,
}

impl PlannedKernels {
    /// `make` of the candidate planned for `op` on `s` at width `k`: the
    /// cached plan's, else a fresh one's, stored when the strategy is
    /// `Measured`. `heads` is read for [`Op::FusedMha`] only, whose plans
    /// carry the head count in their key.
    fn plan<T>(
        &mut self,
        op: Op,
        device: &DeviceSpec,
        s: &Hybrid,
        k: usize,
        heads: usize,
        make: impl FnOnce(CandidateRef<'_>) -> T,
    ) -> T {
        let fp = GraphFingerprint::of(s, k, device);
        if let Some(plan) = self.cache.get_for(op, &fp, heads) {
            return make(plan.into());
        }
        match self.planner.strategy() {
            PlanStrategy::Heuristic => make(self.planner.pick(op, &fp, heads).candidate),
            PlanStrategy::Measured => {
                let plan = self.planner.plan_for(op, &fp, s, heads);
                let made = make((&plan).into());
                let (key, encoding) = fp.cache_entry(op, heads);
                self.cache.insert(op, key, encoding, plan);
                made
            }
        }
    }
}

// A stale persisted cache may name a kernel this build doesn't know; each
// method falls back to the paper's selector rather than failing.
impl KernelSelector for PlannedKernels {
    const NAME: &'static str = "auto";

    fn spmm(&mut self, device: &DeviceSpec, s: &Hybrid, k: usize) -> Box<dyn SpmmKernel> {
        self.plan(Op::Spmm, device, s, k, 1, |c| instantiate_spmm(c))
            .unwrap_or_else(|| HpKernels.spmm(device, s, k))
    }

    fn sddmm(&mut self, device: &DeviceSpec, s: &Hybrid, k: usize) -> Box<dyn SddmmKernel> {
        self.plan(Op::Sddmm, device, s, k, 1, |c| instantiate_sddmm(c))
            .unwrap_or_else(|| HpKernels.sddmm(device, s, k))
    }

    fn fused_mha(
        &mut self,
        device: &DeviceSpec,
        s: &Hybrid,
        head_dim: usize,
        heads: usize,
    ) -> Option<HpFusedMha> {
        // A plan naming the unfused pipeline yields `None`: it runs unfused.
        let fused = |c: CandidateRef<'_>| {
            let is_fused = c.kernel_id.starts_with("hp-fused-mha");
            is_fused.then(|| instantiate_fused_mha(c))
        };
        self.plan(Op::FusedMha, device, s, head_dim, heads, fused)?
            .or_else(|| HpKernels.fused_mha(device, s, head_dim, heads))
    }
}

/// Autotuning backend.
///
/// Execution cycles land in `sparse_cycles` exactly like the other
/// accounting backends; the cost of *planning* — the simulator runs the
/// `Measured` strategy performs — is metered separately in
/// [`AutoBackend::planning_cycles`], so reports can show both
/// "steady-state speed" and "price paid to find the plan".
///
/// The plan cache stores measured plans; Heuristic plans are recomputed
/// on each miss ([`PlannedKernels`]). A Heuristic backend's cache
/// therefore holds only what it was seeded with, and every unseeded
/// lookup counts a miss.
pub type AutoBackend = SimBackend<PlannedKernels>;

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
    /// single planning simulation, under either strategy.
    pub fn with_cache(device: DeviceSpec, strategy: PlanStrategy, cache: PlanCache) -> Self {
        let planner = Planner::new(device.clone(), strategy);
        Self::with_kernels(device, PlannedKernels { planner, cache })
    }

    /// The plan cache (hit/miss counters included): seeded entries plus
    /// the plans this backend measured.
    pub fn cache(&self) -> &PlanCache {
        &self.kernels.cache
    }

    /// Consumes the backend and returns its cache, e.g. to persist it.
    pub fn into_cache(self) -> PlanCache {
        self.kernels.cache
    }

    /// Simulator kernel runs spent planning so far (0 under `Heuristic`
    /// or when every shape hits the cache).
    pub fn planning_sim_launches(&self) -> u64 {
        self.kernels.planner.sim_launches()
    }

    /// Simulated cycles spent planning — kept out of `sparse_cycles`.
    pub fn planning_cycles(&self) -> u64 {
        self.kernels.planner.planning_cycles()
    }
}

/// [`BaselineBackend`] without the clock: the same floats, call for call —
/// [`FrameworkKernels`]' SpMM accumulation order and the [`masked_dots`]
/// every SDDMM kernel runs — with no cost walk and no simulator, on one
/// thread. `total_ms` reports 0.
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
        let kernel = FrameworkKernels.spmm(&self.device, s, a.cols());
        kernel.accumulate(s, a).expect("valid dims")
    }

    fn sddmm(&mut self, s: &Hybrid, a1: &Dense, a2t: &Dense) -> Vec<f32> {
        masked_dots(s, a1, a2t).expect("valid dims")
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
    use hpsparse_core::baselines::Sputnik;
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

    /// A selector no shipped backend uses: its SpMM (Sputnik) sorts rows
    /// in a preprocessing launch of its own.
    struct PreprocessingKernels;

    impl KernelSelector for PreprocessingKernels {
        const NAME: &'static str = "preprocessing";

        fn spmm(&mut self, _: &DeviceSpec, _: &Hybrid, _: usize) -> Box<dyn SpmmKernel> {
            Box::new(Sputnik::default())
        }

        fn sddmm(&mut self, _: &DeviceSpec, _: &Hybrid, _: usize) -> Box<dyn SddmmKernel> {
            Box::new(DglSddmm)
        }
    }

    #[test]
    fn a_sparse_launch_is_charged_exec_plus_preprocess_plus_overhead() {
        let s = small_graph();
        let a = Dense::from_fn(6, 8, |i, j| (i + j) as f32);
        let device = DeviceSpec::v100();
        // The backend's first call meets a cold simulator, as `cost` does.
        let cost = Sputnik::default().cost(&device, &s, a.cols()).unwrap();
        let preprocess = cost
            .preprocess
            .as_ref()
            .expect("Sputnik preprocesses")
            .cycles;
        assert!(preprocess > 0);
        let mut backend = SimBackend::with_kernels(device, PreprocessingKernels);
        assert_eq!(backend.name(), "preprocessing");
        backend.spmm(&s, &a);
        assert_eq!(
            backend.sparse_cycles(),
            cost.report.cycles + preprocess + LAUNCH_OVERHEAD_CYCLES
        );
        assert_eq!(backend.sparse_cycles(), Launches::from(cost).price());
        assert_eq!(backend.dense_cycles(), 0);
    }

    /// One price, three callers: what `HpBackend` charges for attention,
    /// what the `Measured` planner measures for the fused candidate, and
    /// the price of the kernel's cold cost walk — on a matrix whose
    /// 600-element row spills (main launch plus the spill pair), and on an
    /// empty one (no launch, no charge).
    #[test]
    fn attention_is_charged_what_the_planner_measures() {
        let device = DeviceSpec::v100();
        let (heads, d) = (4, 16);
        let mut triplets: Vec<_> = (0..600u32).map(|c| (0, c, 1.0)).collect();
        triplets.extend((0..900u32).map(|i| (1 + i % 29, (i * 7) % 600, 0.5)));
        let hub = Hybrid::from_triplets(30, 600, &triplets).unwrap();
        let empty = Hybrid::from_triplets(30, 600, &[]).unwrap();
        let [q, k, v] = [(30, 0), (600, 1), (600, 2)].map(|(n, salt)| heads_for(n, d, heads, salt));
        for (s, launches) in [(&hub, 3), (&empty, 0)] {
            let cost = HpFusedMha::auto(&device, s, d)
                .cost_on(&mut GpuSim::new(device.clone()), s, d, heads)
                .unwrap();
            assert_eq!(cost.exec.len(), launches);
            let mut backend = HpBackend::new(device.clone());
            backend.mha(s, &q, &k, &v);
            assert_eq!(backend.sparse_cycles(), cost.price());
            if launches == 0 {
                assert_eq!(cost.price(), 0);
                continue;
            }
            let plan = Planner::new(device.clone(), PlanStrategy::Measured).plan_mha(s, d, heads);
            assert!(
                plan.kernel_id.starts_with("hp-fused-mha"),
                "{}",
                plan.rationale
            );
            assert_eq!(plan.predicted_cycles, cost.price());
        }
    }

    #[test]
    fn every_sim_backend_accumulates_and_resets_alike() {
        let s = small_graph();
        let a = Dense::from_fn(6, 8, |i, j| (i + j) as f32);
        let device = DeviceSpec::v100();
        let mut hp = HpBackend::new(device.clone());
        let mut base = BaselineBackend::new(device.clone());
        let mut auto = AutoBackend::new(device.clone());
        for b in [&mut hp as &mut dyn SparseBackend, &mut base, &mut auto] {
            b.spmm(&s, &a);
            let after_one = b.sparse_cycles();
            assert!(after_one > LAUNCH_OVERHEAD_CYCLES, "{}", b.name());
            b.spmm(&s, &a);
            let after_two = b.sparse_cycles();
            assert!(after_two > after_one, "{}", b.name());
            b.account_dense(1000);
            b.account_dense(24);
            assert_eq!(b.dense_cycles(), 1024, "{}", b.name());
            assert_eq!(b.sparse_cycles(), after_two, "{}", b.name());
            assert_eq!(b.total_ms(), device.cycles_to_ms(after_two + 1024));
            b.reset_counters();
            assert_eq!(
                (b.sparse_cycles(), b.dense_cycles()),
                (0, 0),
                "{}",
                b.name()
            );
        }
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

    /// Zero heads is no work on every backend: the simulated ones must not
    /// ask for (or plan) a fused kernel that refuses an empty batch.
    #[test]
    fn zero_head_attention_launches_nothing_on_every_backend() {
        let s = small_graph();
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
            let (out, attn) = b.mha(&s, &[], &[], &[]);
            assert!(out.is_empty() && attn.is_empty(), "{}", b.name());
            assert_eq!(b.sparse_cycles(), 0, "{}", b.name());
        }
        assert_eq!(auto.cache().misses(), 0);
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

    /// A Heuristic backend with an empty cache counts one miss per SpMM,
    /// SDDMM and attention lookup — without building the cache key — and
    /// stores nothing; a cache seeded with one shape's plan still hits it
    /// and computes the same bits.
    #[test]
    fn heuristic_lookups_count_their_misses_and_seeded_plans_hit() {
        let (s, device, heuristic) = (small_graph(), DeviceSpec::v100(), PlanStrategy::Heuristic);
        let [q, k, v] = [0, 1, 2].map(|salt| heads_for(6, 16, 2, salt));
        let run = |backend: &mut AutoBackend| {
            let spmm = backend.spmm(&s, &q[0]).into_vec();
            let sddmm = backend.sddmm(&s, &q[0], &k[0]);
            let (out, attn) = backend.mha(&s, &q, &k, &v);
            let bits = spmm.into_iter().chain(sddmm).chain(attn.concat());
            let bits = bits.chain(out.into_iter().flat_map(Dense::into_vec));
            let bits: Vec<u32> = bits.map(f32::to_bits).collect();
            let cache = backend.cache();
            (
                bits,
                backend.sparse_cycles(),
                (cache.hits(), cache.misses()),
            )
        };
        let mut empty = AutoBackend::with_strategy(device.clone(), heuristic);
        let (bits, cycles, counters) = run(&mut empty);
        assert_eq!(counters, (0, 3), "one miss per lookup");
        assert!(empty.cache().is_empty());
        assert_eq!(empty.planning_sim_launches(), 0);

        let fp = GraphFingerprint::of(&s, 16, &device);
        let plan = Planner::new(device.clone(), heuristic).plan_for(Op::Spmm, &fp, &s, 1);
        let (key, encoding) = fp.cache_entry(Op::Spmm, 1);
        let mut cache = PlanCache::new();
        cache.insert(Op::Spmm, key, encoding, plan);
        let mut seeded = AutoBackend::with_cache(device, heuristic, cache);
        assert_eq!(run(&mut seeded), (bits, cycles, (1, 2)));
    }

    /// A corrupt or hand-edited cache file: every entry below used to reach
    /// a kernel and divide by zero, never return, or panic in the occupancy
    /// model. Each is now skipped at load, so its shape misses once, is
    /// re-planned, and computes what an empty cache computes.
    #[test]
    fn unlaunchable_cached_configs_are_replanned_not_run() {
        let s = small_graph();
        let device = DeviceSpec::v100();
        let (q, k, v) = (
            heads_for(6, 16, 2, 0),
            heads_for(6, 16, 2, 1),
            heads_for(6, 16, 2, 2),
        );
        let run = |op: Op, backend: &mut AutoBackend| -> Vec<f32> {
            match op {
                Op::Spmm => backend.spmm(&s, &q[0]).into_vec(),
                Op::Sddmm => backend.sddmm(&s, &q[0], &k[0]),
                Op::FusedMha => {
                    let (out, attn) = backend.mha(&s, &q, &k, &v);
                    out.into_iter()
                        .flat_map(Dense::into_vec)
                        .chain(attn.concat())
                        .collect()
                }
            }
        };
        let good = r#""nnz_per_warp": 8, "vector_width": 1, "warps_per_block": 8"#;
        for (op, tag, kernel_id) in [
            (Op::Spmm, "spmm", "hp:npw=8"),
            (Op::Sddmm, "sddmm", "hp-sddmm:npw=8"),
            (Op::FusedMha, "fused-mha", "hp-fused-mha:auto"),
        ] {
            let heuristic = PlanStrategy::Heuristic;
            let expected = run(
                op,
                &mut AutoBackend::with_strategy(device.clone(), heuristic),
            );
            let (key, _) = GraphFingerprint::of(&s, 16, &device).cache_entry(op, 2);
            // Runs `op` on a backend seeded with one entry for its shape;
            // returns the output and the cache's (hits, misses).
            let run_seeded = |config: String| {
                let text = format!(
                    r#"{{"version": 1, "entries": [{{"op": "{tag}", "key": "{key:016x}",
                    "fingerprint": "f", "kernel_id": "{kernel_id}", "predicted_cycles": 1,
                    "rationale": "r", "config": {{{config}, "alpha": 4.0}}}}]}}"#,
                );
                let cache = PlanCache::from_json_str(&text).unwrap();
                let mut auto = AutoBackend::with_cache(device.clone(), heuristic, cache);
                let got = run(op, &mut auto);
                (got, (auto.cache().hits(), auto.cache().misses()))
            };
            for (field, bad) in [
                (r#""vector_width": 1"#, r#""vector_width": 0"#),
                (r#""warps_per_block": 8"#, r#""warps_per_block": 0"#),
                (r#""vector_width": 1"#, r#""vector_width": 4294967297"#),
                (r#""nnz_per_warp": 8"#, r#""nnz_per_warp": 0"#),
            ] {
                let (got, counters) = run_seeded(good.replace(field, bad));
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&expected), "{kernel_id} with {bad}");
                assert_eq!(counters, (0, 1), "{kernel_id} with {bad}");
            }
            // The uncorrupted entry is a hit: the key above is the one
            // looked up.
            assert_eq!(run_seeded(good.into()).1, (1, 0), "{kernel_id}");
        }
    }
}
