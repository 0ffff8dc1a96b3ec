//! Device specifications for the GPUs used in the paper's evaluation, and
//! [`CostEngine`], which names the two cost engines.

/// Cycle costs charged by the model for each architectural event.
///
/// The constants are throughput-style costs (pipeline occupancy per event),
/// not raw latencies: a real GPU hides latency by switching warps, so what
/// limits a memory-bound kernel is how many cycles of *pipeline* each event
/// occupies. Absolute numbers therefore matter less than their ratios;
/// the defaults keep DRAM ≈ 4× an L2 hit and an atomic ≈ global store + a
/// serialisation penalty, which is the regime the paper's analysis assumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cycles to issue one warp instruction (compute / control).
    pub issue: f64,
    /// Cycles per 32-byte sector served from L2.
    pub l2_hit: f64,
    /// Cycles per 32-byte sector fetched from DRAM.
    pub dram: f64,
    /// Cycles per warp-level shared-memory load/store (conflict-free).
    pub shared: f64,
    /// Cycles per warp-level global atomic operation.
    pub atomic: f64,
    /// Cycles per warp-shuffle step (a full 32-lane reduction is 5 steps).
    pub shuffle: f64,
    /// Warp-cycles each SM can retire per clock (latency-hiding capacity):
    /// throughput bound on an SM is `total_warp_cycles / smt_width`.
    pub smt_width: f64,
    /// Cycles per Tensor-Core MMA instruction (TF32 16×16×8 tile); used only
    /// by the TC-GNN baseline model.
    pub tensor_mma: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            issue: 1.0,
            l2_hit: 4.0,
            dram: 16.0,
            shared: 2.0,
            atomic: 24.0,
            shuffle: 1.0,
            smt_width: 8.0,
            tensor_mma: 4.0,
        }
    }
}

/// Which cost-engine implementation executes a launch. Both produce
/// bit-identical [`LaunchReport`]s — `repro -- fastcheck` asserts it for
/// every registry kernel — so the selection is purely a host-speed choice.
/// [`GpuSim::set_engine`] is the one selector; a new simulator starts on
/// [`CostEngine::Batched`].
///
/// With an [`AccessSink`] attached the tally expands descriptors
/// element-wise under either engine, so the observer sees the exact
/// per-event stream. A tracer constrains nothing: it consumes the per-warp,
/// per-block and per-wave aggregates the launch loop produces anyway, so
/// trace and metrics exports are byte-identical across engines and thread
/// counts (pinned by tests in `launch.rs` and `hpsparse-bench`).
///
/// [`LaunchReport`]: crate::LaunchReport
/// [`GpuSim::set_engine`]: crate::GpuSim::set_engine
/// [`AccessSink`]: crate::sink::AccessSink
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostEngine {
    /// Every access element-wise, descriptors expanded: the slow
    /// differential-testing oracle.
    Reference,
    /// The fast engine and the default: the element-wise accesses plus the
    /// sort-once stepped-gather descriptor.
    #[default]
    Batched,
}

impl CostEngine {
    /// Stable lowercase name, for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            CostEngine::Reference => "reference",
            CostEngine::Batched => "batched",
        }
    }
}

/// Static description of a GPU: everything Eq. 3–5 of the paper and the
/// memory system model need.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, used in reports.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Maximum resident warps per SM (`MaxWarpsPerSM` in Eq. 3).
    pub max_warps_per_sm: u32,
    /// Maximum resident blocks per SM (hardware scheduler limit).
    pub max_blocks_per_sm: u32,
    /// 32-bit registers per SM (`RegistersPerSM` in Eq. 3).
    pub registers_per_sm: u32,
    /// Shared memory per SM in bytes (`SharedMemPerSM` in Eq. 3).
    pub shared_mem_per_sm: u32,
    /// Threads per warp (32 on every NVIDIA architecture).
    pub warp_size: u32,
    /// L2 cache capacity in bytes.
    pub l2_bytes: u64,
    /// L2 associativity used by the model.
    pub l2_assoc: u32,
    /// SM clock in MHz (converts cycles to milliseconds in reports).
    pub clock_mhz: f64,
    /// DRAM bandwidth in bytes per SM-clock cycle (device-wide roofline).
    pub dram_bytes_per_cycle: f64,
    /// Cycle costs for architectural events.
    pub cost: CostModel,
}

impl DeviceSpec {
    /// Tesla V100-SXM2 16 GB (compute capability 7.0): 80 SMs, 64 warps/SM,
    /// 6 MB L2, ~900 GB/s HBM2.
    pub fn v100() -> Self {
        Self {
            name: "Tesla V100",
            num_sms: 80,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            registers_per_sm: 65_536,
            shared_mem_per_sm: 96 * 1024,
            warp_size: 32,
            l2_bytes: 6 * 1024 * 1024,
            l2_assoc: 16,
            clock_mhz: 1380.0,
            dram_bytes_per_cycle: 900.0e9 / 1.38e9,
            cost: CostModel::default(),
        }
    }

    /// Tesla A30 24 GB (compute capability 8.0): 56 SMs, 64 warps/SM,
    /// 24 MB L2, ~933 GB/s HBM2.
    pub fn a30() -> Self {
        Self {
            name: "Tesla A30",
            num_sms: 56,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            registers_per_sm: 65_536,
            shared_mem_per_sm: 100 * 1024,
            warp_size: 32,
            l2_bytes: 24 * 1024 * 1024,
            l2_assoc: 16,
            clock_mhz: 1440.0,
            dram_bytes_per_cycle: 933.0e9 / 1.44e9,
            cost: CostModel::default(),
        }
    }

    /// GeForce RTX 3090 (compute capability 8.6): 82 SMs, 48 warps/SM,
    /// 6 MB L2, ~936 GB/s GDDR6X. Used only for the TC-GNN comparison.
    pub fn rtx3090() -> Self {
        Self {
            name: "RTX 3090",
            num_sms: 82,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 16,
            registers_per_sm: 65_536,
            shared_mem_per_sm: 100 * 1024,
            warp_size: 32,
            l2_bytes: 6 * 1024 * 1024,
            l2_assoc: 16,
            clock_mhz: 1695.0,
            dram_bytes_per_cycle: 936.0e9 / 1.695e9,
            cost: CostModel::default(),
        }
    }

    /// Converts a cycle count into milliseconds at this device's clock.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_mhz * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_shapes() {
        for d in [DeviceSpec::v100(), DeviceSpec::a30(), DeviceSpec::rtx3090()] {
            assert!(d.num_sms >= 56);
            assert_eq!(d.warp_size, 32);
            assert!(d.l2_bytes >= 6 * 1024 * 1024);
            assert!(d.dram_bytes_per_cycle > 100.0);
            assert!(d.max_warps_per_sm >= 48);
        }
    }

    #[test]
    fn a30_has_bigger_l2_than_v100() {
        assert!(DeviceSpec::a30().l2_bytes > DeviceSpec::v100().l2_bytes);
    }

    #[test]
    fn cycles_to_ms_matches_clock() {
        let v100 = DeviceSpec::v100();
        // 1.38M cycles at 1380 MHz = 1 ms.
        let ms = v100.cycles_to_ms(1_380_000);
        assert!((ms - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cost_model_ratios() {
        let c = CostModel::default();
        assert!(c.dram > c.l2_hit);
        assert!(c.atomic > c.shared);
        assert!(c.smt_width >= 1.0);
    }
}
