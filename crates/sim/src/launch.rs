//! Kernel launches: `launch = price ∘ walk`.
//!
//! The **walk** ([`GpuSim::launch_named`]) runs the kernel body once per
//! warp, in block-scheduling order, on one [`WarpTally`]; it drives the L2
//! model and any attached sink, and prices nothing. Each warp's
//! [`WarpCounters`] go to the **price**, the [`crate::price`] fold of
//! §III-B1's schedule (Eq. 3–5), which the cycle budget, the trace timeline
//! and [`crate::attribution`] read.
//!
//! # One walk, observed or not
//!
//! There is one walk. Its one descriptor, the stepped gather, sorts its
//! lanes once; an attached [`AccessSink`] expands it element-wise, and that
//! observed walk is the oracle of the unobserved one (`repro verify`'s
//! sweep, `crates/core/tests/cost_walk.rs`, the root `kernel_catalog`
//! test).
//! Bodies run in global warp order, since the one LRU L2's hit/miss split
//! depends on that order; they are cost walks, tally calls only.
//! Parallelism lives above the launch, in the harness's graph × kernel
//! fan-out.
//!
//! # Cycle budgets
//!
//! A measurement that only needs to know whether it beats an incumbent can
//! set a [cycle budget](GpuSim::set_cycle_budget). After every block the
//! walk reads the fold's running cycles, a lower bound on the final count
//! since every term only grows. Once that bound plus the measurement's
//! earlier launches reaches the budget, the walk stops, and every later
//! launch of the measurement is skipped.

use crate::cache::SectorCache;
use crate::device::DeviceSpec;
use crate::memory::{MemorySpace, SECTOR_BYTES};
use crate::occupancy::KernelResources;
use crate::price::Schedule;
use crate::sink::{AccessSink, BufferDecl, BufferRole};
use crate::tally::{WarpCounters, WarpTally};
use hpsparse_trace::{names, LaunchTimeline, MetricsRegistry, TraceSession};

/// Launch geometry: total warps and the per-block resources that determine
/// occupancy via Eq. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Total warps of work (the scheduler packs them into blocks).
    pub num_warps: u64,
    /// Per-block resource usage.
    pub resources: KernelResources,
}

/// Everything a launch reports — the simulator's analogue of an Nsight
/// Compute profile.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchReport {
    /// Modelled execution time in SM cycles.
    pub cycles: u64,
    /// Modelled execution time in milliseconds at the device clock.
    pub time_ms: f64,
    /// Thread blocks launched.
    pub blocks: u64,
    /// Warps launched.
    pub warps: u64,
    /// Waves needed (Eq. 4).
    pub num_waves: u64,
    /// `FullWaveSize` (Eq. 4).
    pub full_wave_size: u64,
    /// `ActiveblocksPerSM` (Eq. 3).
    pub active_blocks_per_sm: u32,
    /// Resident-warp occupancy at full residency.
    pub warp_occupancy: f64,
    /// Utilisation of the final wave (1.0 = no tail effect).
    pub tail_utilization: f64,
    /// Aggregate event counters over all warps.
    pub totals: WarpCounters,
    /// L2 hit rate over this launch's global traffic.
    pub l2_hit_rate: f64,
    /// Cycles of the slowest warp (load-imbalance witness).
    pub max_warp_cycles: f64,
    /// Mean warp cycles.
    pub mean_warp_cycles: f64,
    /// Cycles if the kernel were purely DRAM-bandwidth-bound.
    pub dram_bound_cycles: u64,
    /// Cycles from the SM/wave schedule alone.
    pub schedule_cycles: u64,
}

impl LaunchReport {
    /// Load imbalance factor: slowest warp over mean warp (1.0 = balanced).
    pub fn imbalance(&self) -> f64 {
        if self.mean_warp_cycles > 0.0 {
            self.max_warp_cycles / self.mean_warp_cycles
        } else {
            1.0
        }
    }

    /// Achieved bandwidth in bytes per cycle.
    pub fn achieved_bytes_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.totals.global_bytes as f64 / self.cycles as f64
        }
    }

    /// Total sectors served by L2 (see [`WarpCounters::traffic`]).
    pub fn traffic(&self) -> u64 {
        self.totals.traffic()
    }

    /// Bytes fetched from DRAM (only L2 misses reach HBM).
    pub fn dram_bytes(&self) -> u64 {
        self.totals.dram_sectors * SECTOR_BYTES as u64
    }

    /// The launch's scalar metrics under the stable NCU-style names of
    /// [`hpsparse_trace::names`], in fixed order: `(name, value,
    /// is_counter)`. Counters accumulate across launches in a metrics
    /// registry; the rest are gauges (last launch wins). This is the one
    /// list behind [`Self::record_metrics`] and
    /// [`crate::profile::render_metrics`].
    pub fn metric_values(&self) -> Vec<(&'static str, f64, bool)> {
        use names::*;
        let (t, active_blocks) = (&self.totals, self.active_blocks_per_sm.into());
        vec![
            (GPU_CYCLES, self.cycles as f64, true),
            (GPU_TIME_MS, self.time_ms, false),
            (LAUNCH_BLOCKS, self.blocks as f64, true),
            (LAUNCH_WARPS, self.warps as f64, true),
            (LAUNCH_WAVES, self.num_waves as f64, true),
            (LAUNCH_FULL_WAVE, self.full_wave_size as f64, false),
            (LAUNCH_ACTIVE_BLOCKS, active_blocks, false),
            (WARP_OCCUPANCY_PCT, self.warp_occupancy * 100.0, false),
            (TAIL_UTILIZATION_PCT, self.tail_utilization * 100.0, false),
            (INST_EXECUTED, t.instructions as f64, true),
            (SHARED_OPS, t.shared_ops as f64, true),
            (ATOMICS, t.atomics as f64, true),
            (SHUFFLES, t.shuffles as f64, true),
            (GLOBAL_BYTES, t.global_bytes as f64, true),
            (TRANSACTIONS, t.transactions as f64, true),
            (DESCRIPTOR_FALLBACKS, t.descriptor_fallbacks as f64, true),
            (L2_SECTORS, self.traffic() as f64, true),
            (L2_HIT_SECTORS, t.l2_hit_sectors as f64, true),
            (L2_HIT_RATE_PCT, self.l2_hit_rate * 100.0, false),
            (DRAM_SECTORS, t.dram_sectors as f64, true),
            (DRAM_BYTES, self.dram_bytes() as f64, true),
            (BYTES_PER_CYCLE, self.achieved_bytes_per_cycle(), false),
            (WARP_CYCLES_MAX, self.max_warp_cycles, false),
            (WARP_CYCLES_AVG, self.mean_warp_cycles, false),
            (WARP_IMBALANCE, self.imbalance(), false),
            (DRAM_BOUND_CYCLES, self.dram_bound_cycles as f64, true),
            (SCHEDULE_CYCLES, self.schedule_cycles as f64, true),
        ]
    }

    /// Records this launch into `metrics` under
    /// `launch.<kernel>.<metric>` names (counters accumulate, gauges
    /// overwrite), plus a `launch__count.sum` counter.
    pub fn record_metrics(&self, metrics: &MetricsRegistry, kernel: &str) {
        metrics.add(&names::launch_metric(kernel, names::LAUNCH_COUNT), 1);
        for (name, value, is_counter) in self.metric_values() {
            let key = names::launch_metric(kernel, name);
            if is_counter {
                metrics.add(&key, value as u64);
            } else {
                metrics.set(&key, value);
            }
        }
    }
}

impl serde_json::ToJson for LaunchReport {
    /// Field-order-stable JSON: every struct field in declaration order
    /// (with `totals` nested), then the derived metrics. The exact shape
    /// is pinned by a golden test in `tests/report_json.rs` so a silent
    /// field addition cannot slip past the observed-vs-unobserved
    /// field-for-field equality unnoticed.
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "cycles": self.cycles,
            "time_ms": self.time_ms,
            "blocks": self.blocks,
            "warps": self.warps,
            "num_waves": self.num_waves,
            "full_wave_size": self.full_wave_size,
            "active_blocks_per_sm": self.active_blocks_per_sm,
            "warp_occupancy": self.warp_occupancy,
            "tail_utilization": self.tail_utilization,
            "totals": self.totals,
            "l2_hit_rate": self.l2_hit_rate,
            "max_warp_cycles": self.max_warp_cycles,
            "mean_warp_cycles": self.mean_warp_cycles,
            "dram_bound_cycles": self.dram_bound_cycles,
            "schedule_cycles": self.schedule_cycles,
            "derived": serde_json::json!({
                "imbalance": self.imbalance(),
                "achieved_bytes_per_cycle": self.achieved_bytes_per_cycle(),
                "traffic_sectors": self.traffic(),
                "dram_bytes": self.dram_bytes(),
            }),
        })
    }
}

/// Where a budgeted measurement stopped walking ([`GpuSim::budget_stop`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetStop {
    /// Launches the measurement completed before the one that stopped.
    pub launch: u64,
    /// Blocks the stopping launch walked, the stopping block included.
    pub blocks: u64,
    /// The lower bound on the measurement's total cycles that reached the
    /// budget: the earlier launches' cycles plus the stopping launch's
    /// running bound.
    pub cycles_at_least: u64,
}

/// A measurement's cycle budget and how much of it its launches used.
#[derive(Debug, Clone)]
struct CycleBudget {
    limit: u64,
    /// Cycles of the measurement's completed launches.
    spent: u64,
    /// Launches completed since the budget was set.
    launches: u64,
    stop: Option<BudgetStop>,
}

/// The simulated GPU: a device spec plus mutable L2 state that persists
/// across launches (a new simulator starts cold).
///
/// Device memory is a bump allocator that never reuses an address, so a
/// long-lived simulator eventually allocates past
/// [`SectorCache::addressable_bytes`] and panics (4 TiB on the V100
/// geometry). A benchmark `serve` batch (Flickr at 400 k edges, K = 32, on
/// a 4-V100 cluster) allocates ≈ 43 KB on its device, so each simulator
/// lasts ≈ 10⁸ batches: about 26 000 passes of that workload.
pub struct GpuSim {
    device: DeviceSpec,
    l2: SectorCache,
    memory: MemorySpace,
    /// Optional access-event observer; every launch and allocation is
    /// forwarded while attached (see [`crate::sink`]).
    sink: Option<Box<dyn AccessSink>>,
    /// Optional trace subscriber; while attached, every launch emits its
    /// wave-by-wave timeline and NCU-style metrics into the session. Same
    /// `Option`-test discipline as `sink`: detached costs one branch per
    /// launch plus one per warp/block, and never changes a reported number.
    tracer: Option<TraceSession>,
    /// Position in a multi-device cluster. `Some(d)` routes traced
    /// launches into device `d`'s Perfetto lane group; `None` (the
    /// default) keeps the single-device layout. Never affects costs.
    device_index: Option<u32>,
    /// Cycle budget of the current measurement, once one is set.
    budget: Option<CycleBudget>,
}

impl GpuSim {
    /// Builds a simulator for `device` with a cold L2.
    pub fn new(device: DeviceSpec) -> Self {
        let l2 = SectorCache::new(device.l2_bytes, device.l2_assoc);
        Self {
            device,
            l2,
            memory: MemorySpace::new(),
            sink: None,
            tracer: None,
            device_index: None,
            budget: None,
        }
    }

    /// The device being simulated.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Attaches an access-event observer. The sink judges the allocations
    /// made after it attaches: buffers allocated earlier were never
    /// declared to it, so attach before allocating anything it should
    /// check. While attached, descriptors expand element-wise and no
    /// budget stops a launch.
    pub fn attach_sink(&mut self, sink: Box<dyn AccessSink>) {
        self.sink = Some(sink);
    }

    /// Detaches and returns the current observer, if any.
    pub fn detach_sink(&mut self) -> Option<Box<dyn AccessSink>> {
        self.sink.take()
    }

    /// Is an access-event observer currently attached?
    pub fn sink_attached(&self) -> bool {
        self.sink.is_some()
    }

    /// Attaches a trace session: subsequent launches emit their timeline
    /// (blocks on SM lanes, counter tracks) and record NCU-style metrics
    /// into the session's registry. Unlike a sink, a tracer expands no
    /// descriptor — it only consumes the per-warp/per-wave aggregates the
    /// unobserved walk already produces.
    pub fn attach_tracer(&mut self, tracer: TraceSession) {
        self.tracer = Some(tracer);
    }

    /// Detaches and returns the current trace session, if any.
    pub fn detach_tracer(&mut self) -> Option<TraceSession> {
        self.tracer.take()
    }

    /// Is a trace session currently attached?
    pub fn tracer_attached(&self) -> bool {
        self.tracer.is_some()
    }

    /// Declares this simulator to be device `device` of a multi-device
    /// cluster: traced launches render inside that device's lane group
    /// (`GPU d` in Perfetto) instead of the host group. Purely a tracing
    /// concern — reported cycles and numerics are unchanged.
    pub fn set_device_index(&mut self, device: u32) {
        self.device_index = Some(device);
    }

    /// The cluster position set by [`Self::set_device_index`], if any.
    pub fn device_index(&self) -> Option<u32> {
        self.device_index
    }

    /// Starts a measurement bounded at `limit` cycles: from now on, once
    /// the launches' cycles provably reach `limit`, the launch in progress
    /// stops walking its warps and every later launch is skipped (module
    /// docs, "Cycle budgets"). [`Self::budget_stop`] then says where; the
    /// reports of a stopped measurement describe only what was walked and
    /// mean nothing else. A measurement that finishes below `limit` is
    /// untouched: same reports, same L2 state. A simulator with a sink or
    /// tracer attached never stops, since those observe every event.
    pub fn set_cycle_budget(&mut self, limit: u64) {
        self.budget = Some(CycleBudget {
            limit,
            spent: 0,
            launches: 0,
            stop: None,
        });
    }

    /// Where the budgeted measurement stopped, if it did.
    pub fn budget_stop(&self) -> Option<BudgetStop> {
        self.budget.as_ref().and_then(|b| b.stop)
    }

    /// Allocates logical device memory (256-byte aligned).
    ///
    /// Panics — here and in the three named variants — when the allocation
    /// ends beyond [`SectorCache::addressable_bytes`]: the L2 model could
    /// not tell its sectors from lower ones (4 TiB on the V100 geometry).
    ///
    /// The allocation is declared to any attached sink as an anonymous
    /// [`BufferRole::Input`] extent — in bounds for memcheck, exempt from
    /// initcheck. Kernels that want precise roles use [`Self::alloc_input`]
    /// / [`Self::alloc_output`] / [`Self::alloc_scratch`].
    pub fn alloc_elems(&mut self, n: usize) -> crate::memory::Buffer {
        self.alloc_named(n, "<unnamed>", BufferRole::Input)
    }

    /// Allocates a named host-initialised buffer the kernel reads.
    pub fn alloc_input(&mut self, n: usize, name: &'static str) -> crate::memory::Buffer {
        self.alloc_named(n, name, BufferRole::Input)
    }

    /// Allocates a named kernel-output buffer (conceptually
    /// zero-initialised; loads before any store are initcheck violations).
    pub fn alloc_output(&mut self, n: usize, name: &'static str) -> crate::memory::Buffer {
        self.alloc_named(n, name, BufferRole::Output)
    }

    /// Allocates a named device-side temporary with no host initialisation.
    pub fn alloc_scratch(&mut self, n: usize, name: &'static str) -> crate::memory::Buffer {
        self.alloc_named(n, name, BufferRole::Scratch)
    }

    fn alloc_named(
        &mut self,
        n: usize,
        name: &'static str,
        role: BufferRole,
    ) -> crate::memory::Buffer {
        let buf = self.memory.alloc_elems(n);
        // Checked here, once per allocation, because the per-probe guard in
        // `SectorCache` is a `debug_assert!`: past this bound a release
        // build would alias tags and report hits on lines never loaded.
        let (top, limit) = (buf.base() + buf.len_bytes(), self.l2.addressable_bytes());
        assert!(
            top <= limit,
            "allocation `{name}` ends at byte {top}, beyond the {limit} bytes \
             the L2 model's sector tags can address"
        );
        if let Some(sink) = self.sink.as_mut() {
            sink.register_buffer(&BufferDecl {
                name,
                role,
                base: buf.base(),
                len_bytes: buf.len_bytes(),
            });
        }
        buf
    }

    /// L2 hit rate over every launch so far.
    pub fn l2_hit_rate(&self) -> f64 {
        self.l2.hit_rate()
    }

    /// Runs a kernel: `body(warp_id, tally)` is invoked once per warp, in
    /// block-scheduling order, and must record the warp's events on the
    /// tally. Returns the profile of the launch.
    ///
    /// The launch is reported to any attached sink under the name
    /// `"<anonymous>"`; kernels that want their diagnostics attributed use
    /// [`Self::launch_named`].
    pub fn launch<F>(&mut self, config: LaunchConfig, body: F) -> LaunchReport
    where
        F: FnMut(u64, &mut WarpTally),
    {
        self.launch_named("<anonymous>", config, body)
    }

    /// [`Self::launch`] with a kernel name attached, so sink diagnostics
    /// (e.g. sanitizer violations) can say *which* kernel misbehaved.
    pub fn launch_named<F>(&mut self, name: &str, config: LaunchConfig, mut body: F) -> LaunchReport
    where
        F: FnMut(u64, &mut WarpTally),
    {
        if let Some(sink) = self.sink.as_mut() {
            sink.begin_launch(name, config.num_warps);
        }
        let mut schedule = Schedule::new(&self.device, config);
        // What this launch may reach before its measurement is over budget
        // (`None`: no limit); once a measurement stopped, nothing is walked.
        let observed = self.sink.is_some() || self.tracer.is_some();
        let budget = self.budget.as_ref().filter(|_| !observed);
        let skipped = budget.is_some_and(|b| b.stop.is_some());
        let budget_left = budget.map(|b| b.limit.saturating_sub(b.spent));
        let mut stopped: Option<(u64, u64)> = None;
        // Buffers locally and takes the session lock only at begin/finish.
        let mut timeline = self.tracer.as_ref().map(|t| {
            LaunchTimeline::begin_on(t, name, self.device.num_sms as usize, self.device_index)
        });

        // One tally serves the whole launch: the warp loop allocates nothing.
        let mut tally = WarpTally::with_sink(
            &mut self.l2,
            self.device.warp_size,
            self.sink.as_deref_mut(),
        );
        let (mut totals, mut wave_start) = (WarpCounters::default(), WarpCounters::default());
        for id in 0..if skipped { 0 } else { schedule.blocks } {
            let block = schedule.block(id);
            for warp_id in block.warps.clone() {
                tally.set_warp(warp_id);
                body(warp_id, &mut tally);
                let counters = tally.take_counters();
                totals.add(&counters);
                let cycles = schedule.warp(&counters);
                if let Some(tl) = timeline.as_mut() {
                    tl.record_warp(cycles);
                }
            }
            let cycles = schedule.end_block(&block);
            if let Some(left) = budget_left {
                let bound = schedule.cycles(totals.dram_sectors);
                if bound >= left {
                    stopped = Some((id + 1, bound));
                    break;
                }
            }
            let wave_time = block.ends_wave.then(|| schedule.end_wave());
            if let Some(tl) = timeline.as_mut() {
                tl.record_block(block.sm, cycles, block.warps.end - block.warps.start);
                if let Some(wave_time) = wave_time {
                    let hits = totals.l2_hit_sectors - wave_start.l2_hit_sectors;
                    let dram = totals.dram_sectors - wave_start.dram_sectors;
                    tl.end_wave(wave_time, hits, dram, dram * SECTOR_BYTES as u64);
                    wave_start = totals;
                }
            }
        }
        drop(tally);
        if let Some(sink) = self.sink.as_mut() {
            sink.end_launch();
        }

        let report = schedule.report(totals);
        if let Some(b) = self.budget.as_mut() {
            if let Some((blocks, bound)) = stopped {
                let (launch, cycles_at_least) = (b.launches, b.spent.saturating_add(bound));
                b.stop = Some(BudgetStop {
                    launch,
                    blocks,
                    cycles_at_least,
                });
            } else if !skipped {
                b.spent = b.spent.saturating_add(report.cycles);
                b.launches += 1;
            }
        }
        if let Some(tl) = timeline {
            tl.finish(report.cycles as f64);
            if let Some(t) = self.tracer.as_ref() {
                report.record_metrics(&t.metrics(), name);
                crate::attribution::attribute(&report, &self.device)
                    .record_metrics(&t.metrics(), name);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::occupancy_of;

    /// A sink that observes and keeps nothing: attaching it makes a walk
    /// observed, so every descriptor expands element-wise.
    struct Ignore;
    impl AccessSink for Ignore {
        fn begin_launch(&mut self, _: &str, _: u64) {}
        fn register_buffer(&mut self, _: &BufferDecl) {}
        fn record(&mut self, _: &crate::sink::AccessEvent) {}
        fn end_launch(&mut self) {}
    }

    fn small_res() -> KernelResources {
        KernelResources {
            warps_per_block: 8,
            registers_per_thread: 32,
            shared_mem_per_block: 4096,
        }
    }

    #[test]
    fn empty_launch_is_free() {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let report = sim.launch(
            LaunchConfig {
                num_warps: 0,
                resources: small_res(),
            },
            |_, _| {},
        );
        assert_eq!(report.cycles, 0);
        assert_eq!(report.blocks, 0);
        assert_eq!(report.num_waves, 0);
    }

    #[test]
    fn uniform_work_scales_with_waves() {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let res = small_res();
        let run = |sim: &mut GpuSim, warps: u64| {
            sim.launch(
                LaunchConfig {
                    num_warps: warps,
                    resources: res,
                },
                |_, t| t.compute(20_000),
            )
        };
        let occ = occupancy_of(sim.device(), &res);
        let warps_per_wave = occ.full_wave_size * 8;
        let one = run(&mut sim, warps_per_wave);
        let two = run(&mut sim, warps_per_wave * 2);
        assert_eq!(one.num_waves, 1);
        assert_eq!(two.num_waves, 2);
        assert_eq!(two.cycles, one.cycles * 2);
    }

    #[test]
    fn tail_effect_costs_a_full_wave() {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let res = small_res();
        let occ = occupancy_of(sim.device(), &res);
        let warps_per_wave = occ.full_wave_size * 8;
        let full = sim.launch(
            LaunchConfig {
                num_warps: warps_per_wave,
                resources: res,
            },
            |_, t| t.compute(20_000),
        );
        // One extra block spills into a second, nearly-empty wave: the
        // launch pays extra cycles while adding only 1/640th more work.
        let spill = sim.launch(
            LaunchConfig {
                num_warps: warps_per_wave + 8,
                resources: res,
            },
            |_, t| t.compute(20_000),
        );
        assert_eq!(spill.num_waves, 2);
        assert!(spill.cycles > full.cycles);
        // The marginal cost of the spilled block far exceeds its share of
        // the work (tail effect): one block is 1/640 of a wave but costs a
        // full block-latency wave.
        let marginal = spill.cycles - full.cycles;
        assert!(marginal as f64 > full.cycles as f64 / 640.0 * 10.0);
        assert!(spill.tail_utilization < 0.01);
    }

    #[test]
    fn imbalanced_warp_dominates_block() {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let res = small_res();
        let balanced = sim.launch(
            LaunchConfig {
                num_warps: 64,
                resources: res,
            },
            |_, t| t.compute(20_000),
        );
        let imbalanced = sim.launch(
            LaunchConfig {
                num_warps: 64,
                resources: res,
            },
            |w, t| t.compute(if w == 0 { 1_280_000 } else { 0 }),
        );
        // Same total work, radically different times.
        assert!(imbalanced.cycles > balanced.cycles * 4);
        assert!(imbalanced.imbalance() > 10.0);
        assert!(balanced.imbalance() < 1.5);
    }

    #[test]
    fn dram_roofline_kicks_in_for_streaming_kernels() {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let res = small_res();
        let mut next = 0u64;
        let report = sim.launch(
            LaunchConfig {
                num_warps: 10_000,
                resources: res,
            },
            |_, t| {
                // Each warp streams 4 KiB of never-reused data.
                t.global_read(next, 4096, 4);
                next += 4096;
            },
        );
        assert!(report.totals.dram_sectors > 0);
        assert!(report.dram_bound_cycles > 0);
        assert!(report.cycles >= report.dram_bound_cycles);
    }

    #[test]
    fn cache_reuse_between_warps_is_visible() {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let res = small_res();
        let report = sim.launch(
            LaunchConfig {
                num_warps: 1000,
                resources: res,
            },
            |_, t| t.global_read(0, 4096, 4), // all warps read the same 4 KiB
        );
        assert!(report.l2_hit_rate > 0.99);
        let cold = report.totals.dram_sectors;
        assert_eq!(cold, 128); // 4096 / 32 fetched exactly once
    }

    /// A block of 32 warps × 118 registers a thread needs 120 832
    /// registers; a V100 SM has 65 536, so the launch has no schedule.
    #[test]
    #[should_panic(expected = "fits no SM of the Tesla V100")]
    fn a_launch_no_sm_can_hold_panics() {
        let resources = KernelResources {
            warps_per_block: 32,
            registers_per_thread: 118,
            shared_mem_per_block: 0,
        };
        GpuSim::new(DeviceSpec::v100()).launch(
            LaunchConfig {
                num_warps: 4096,
                resources,
            },
            |_, t| t.compute(1),
        );
    }

    /// One set, two ways: tags run out at 2^24 sectors = 512 MiB. The guard
    /// is an `assert!`, so this must hold in `--release` too — there the
    /// per-probe `debug_assert!` is gone and the tags would alias silently.
    #[test]
    #[should_panic(expected = "beyond the 536870912 bytes")]
    fn allocating_past_the_tag_space_panics_in_every_build() {
        let mut sim = GpuSim::new(DeviceSpec {
            l2_bytes: 64,
            l2_assoc: 2,
            ..DeviceSpec::v100()
        });
        let _ = sim.alloc_input(100 << 20, "fits"); // 400 MiB
        let _ = sim.alloc_output(100 << 20, "overflows");
    }

    #[test]
    fn report_time_matches_clock() {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let report = sim.launch(
            LaunchConfig {
                num_warps: 8,
                resources: small_res(),
            },
            |_, t| t.compute(1380),
        );
        assert!((report.time_ms - sim.device().cycles_to_ms(report.cycles)).abs() < 1e-12);
    }

    #[test]
    fn sink_sees_post_attach_decls_launch_protocol_and_events() {
        use crate::sink::{AccessEvent, AccessSink, BufferDecl};
        use std::sync::{Arc, Mutex};
        struct Rec(Arc<Mutex<Vec<String>>>);
        impl AccessSink for Rec {
            fn begin_launch(&mut self, kernel: &str, num_warps: u64) {
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("begin {kernel} warps={num_warps}"));
            }
            fn register_buffer(&mut self, d: &BufferDecl) {
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("decl {} {:?}", d.name, d.role));
            }
            fn record(&mut self, e: &AccessEvent) {
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("{:?} w{}", e.kind, e.warp));
            }
            fn end_launch(&mut self) {
                self.0.lock().unwrap().push("end".into());
            }
        }

        let mut sim = GpuSim::new(DeviceSpec::v100());
        // Allocated before the sink attaches: never declared to it.
        let early = sim.alloc_input(8, "early");
        let log = Arc::new(Mutex::new(Vec::new()));
        sim.attach_sink(Box::new(Rec(Arc::clone(&log))));
        assert!(sim.sink_attached());
        let out = sim.alloc_output(8, "out");
        sim.launch_named(
            "demo-kernel",
            LaunchConfig {
                num_warps: 2,
                resources: small_res(),
            },
            |_, t| {
                t.global_read(early.addr(0), 32, 1);
                t.global_write(out.addr(0), 32, 1);
            },
        );
        assert!(sim.detach_sink().is_some());
        assert!(!sim.sink_attached());

        let log = log.lock().unwrap();
        assert_eq!(
            *log,
            vec![
                "decl out Output".to_string(),
                "begin demo-kernel warps=2".to_string(),
                "Read w0".to_string(),
                "Write w0".to_string(),
                "Read w1".to_string(),
                "Write w1".to_string(),
                "end".to_string(),
            ]
        );
    }

    #[test]
    fn anonymous_launch_and_alloc_still_reach_the_sink() {
        use crate::sink::{AccessEvent, AccessSink, BufferDecl};
        use std::sync::{Arc, Mutex};
        struct Names(Arc<Mutex<Vec<String>>>);
        impl AccessSink for Names {
            fn begin_launch(&mut self, kernel: &str, _: u64) {
                self.0.lock().unwrap().push(kernel.to_string());
            }
            fn register_buffer(&mut self, d: &BufferDecl) {
                self.0.lock().unwrap().push(d.name.to_string());
            }
            fn record(&mut self, _: &AccessEvent) {}
            fn end_launch(&mut self) {}
        }
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let log = Arc::new(Mutex::new(Vec::new()));
        sim.attach_sink(Box::new(Names(Arc::clone(&log))));
        let _ = sim.alloc_elems(4);
        sim.launch(
            LaunchConfig {
                num_warps: 1,
                resources: small_res(),
            },
            |_, _| {},
        );
        assert_eq!(*log.lock().unwrap(), vec!["<unnamed>", "<anonymous>"]);
    }

    /// A messy two-launch workload touching every probe path: runs (with
    /// cross-warp reuse), a stepped gather, a scatter-shaped gather list,
    /// atomics, shared/shuffle/compute — plus cross-launch cache state
    /// (launch 2 re-reads launch 1's data).
    fn run_mixed_workload(observed: bool) -> (Vec<LaunchReport>, f64) {
        let mut sim = GpuSim::new(DeviceSpec::v100());
        if observed {
            sim.attach_sink(Box::new(Ignore));
        }
        let cfg = LaunchConfig {
            num_warps: 600,
            resources: small_res(),
        };
        let a = sim.launch(cfg, |w, t| {
            t.compute(40 + (w % 7) * 3);
            // Strided base keeps neighbouring warps in different sets;
            // every 5th warp re-reads warp 0's block for L2 reuse.
            let base = if w % 5 == 0 { 0 } else { w * 8192 };
            t.global_read(base, 4096, 4);
            let idx = [3u32, 17, 4, 99, 4, 250];
            t.global_gather_stepped(w * 512, &idx, 64, w % 4, 512, 3, 4);
            t.global_atomic(64 * (w % 13), 4);
            t.shared_op(6);
            t.shuffle_reduce(32);
        });
        let b = sim.launch(cfg, |w, t| {
            // Gather hits a pseudo-random sector list so single-sector
            // probes spread over many sets.
            let addrs = (0..24).map(|i| ((w * 31 + i * 97) % 4096) * 32);
            t.global_gather(addrs, 4);
            t.global_read(w * 8192, 2048, 4);
            t.global_write((1 << 24) | (w * 256), 256, 4);
        });
        (vec![a, b], sim.l2_hit_rate())
    }

    #[test]
    fn observed_and_unobserved_walks_agree_on_mixed_workload() {
        let (obs_reports, obs_hr) = run_mixed_workload(true);
        let (fast_reports, fast_hr) = run_mixed_workload(false);
        assert_eq!(obs_reports, fast_reports);
        // Cross-launch cache state must agree too.
        assert_eq!(obs_hr.to_bits(), fast_hr.to_bits());
    }

    /// A tracer constrains nothing: with one attached, an observed and an
    /// unobserved walk export byte-identical timelines + metrics — over a
    /// launch of many waves with cross-warp L2 reuse, then a small one
    /// sharing the session.
    #[test]
    fn traced_exports_are_byte_identical_observed_or_not() {
        use hpsparse_trace::TraceSession;
        let run = |observed: bool| -> (String, String, LaunchReport) {
            let mut sim = GpuSim::new(DeviceSpec::v100());
            if observed {
                sim.attach_sink(Box::new(Ignore));
            }
            let session = TraceSession::new();
            sim.attach_tracer(session.clone());
            let cfg = LaunchConfig {
                num_warps: 20_705,
                resources: small_res(),
            };
            let big = sim.launch_named("big", cfg, |w, t| {
                t.compute(10 + w % 11);
                let base = if w % 5 == 0 { 0 } else { w * 8192 };
                t.global_read(base, 1024, 4);
            });
            // A second, small launch shares the session: the clock must
            // advance identically observed or not.
            sim.launch_named(
                "small",
                LaunchConfig {
                    num_warps: 64,
                    resources: small_res(),
                },
                |w, t| t.global_read(w * 4096, 256, 4),
            );
            let metrics = serde_json::to_string(&session.metrics().to_json()).unwrap();
            (session.to_chrome_json(), metrics, big)
        };
        let (trace_obs, metrics_obs, report_obs) = run(true);
        let (trace_fast, metrics_fast, report_fast) = run(false);
        assert_eq!(report_obs, report_fast);
        assert_eq!(metrics_obs, metrics_fast);
        assert_eq!(trace_obs, trace_fast);
    }

    type Body = fn(u64, &mut WarpTally);

    /// Launch shapes for the budget tests: many waves with cross-warp L2
    /// reuse, a DRAM-bound stream, one slow warp, exactly
    /// one block, and a floor-bound partial block.
    fn budget_workloads() -> [(u64, Body); 5] {
        [
            (20_705, |w, t| {
                t.compute(10 + w % 11);
                let base = if w % 5 == 0 { 0 } else { w * 8192 };
                t.global_read(base, 1024, 4);
            }),
            (10_000, |w, t| t.global_read(w * 4096, 4096, 4)),
            (64, |w, t| t.compute(if w == 0 { 1_280_000 } else { 0 })),
            (8, |_, t| t.compute(20_000)),
            (3, |_, t| t.compute(10)),
        ]
    }

    /// The running bound after every block of a launch of `cfg`: the
    /// pricing rule over a walk of the same warps, outside any simulator.
    fn block_bounds(cfg: LaunchConfig, body: Body) -> Vec<u64> {
        let device = DeviceSpec::v100();
        let mut l2 = SectorCache::new(device.l2_bytes, device.l2_assoc);
        let mut tally = WarpTally::new(&mut l2, device.warp_size);
        let mut schedule = Schedule::new(&device, cfg);
        let mut dram_sectors = 0;
        let mut bounds = Vec::new();
        for id in 0..schedule.blocks {
            let block = schedule.block(id);
            for w in block.warps.clone() {
                body(w, &mut tally);
                let counters = tally.take_counters();
                dram_sectors += counters.dram_sectors;
                schedule.warp(&counters);
            }
            schedule.end_block(&block);
            bounds.push(schedule.cycles(dram_sectors));
            if block.ends_wave {
                schedule.end_wave();
            }
        }
        bounds
    }

    /// Under any budget the walk stops at the first block whose running
    /// bound reaches it, and one that
    /// never reaches it reports what an unbudgeted launch does. The bound
    /// never decreases and ends at the launch's `cycles`.
    #[test]
    fn a_budget_stops_at_the_first_block_whose_bound_reaches_it() {
        for (warps, body) in budget_workloads() {
            let cfg = LaunchConfig {
                num_warps: warps,
                resources: small_res(),
            };
            let free = GpuSim::new(DeviceSpec::v100()).launch(cfg, body);
            let mut sim = GpuSim::new(DeviceSpec::v100());
            sim.set_cycle_budget(u64::MAX);
            assert_eq!(sim.launch(cfg, body), free, "{warps} warps");
            assert_eq!(sim.budget_stop(), None);
            let bounds = block_bounds(cfg, body);
            assert_eq!(bounds.len() as u64, free.blocks);
            assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "{warps} warps");
            assert_eq!(bounds.last(), Some(&free.cycles));

            let c = free.cycles;
            for budget in [0, 1, c / 3, c / 2, c - 1, c, c + 1] {
                let first_reaching = bounds.iter().position(|&b| b >= budget);
                let want = first_reaching.map(|i| BudgetStop {
                    launch: 0,
                    blocks: i as u64 + 1,
                    cycles_at_least: bounds[i],
                });
                let mut sim = GpuSim::new(DeviceSpec::v100());
                sim.set_cycle_budget(budget);
                let report = sim.launch(cfg, body);
                assert_eq!(sim.budget_stop(), want, "{warps} warps, budget {budget}");
                if want.is_none() {
                    assert_eq!(report, free);
                }
            }
        }
    }

    /// A budget bounds the measurement, not one launch: earlier launches'
    /// cycles count against it, a launch of no warps checks nothing, and a
    /// measurement that stopped walks none of its later launches.
    #[test]
    fn a_budget_spans_the_measurements_launches() {
        let cfg = |num_warps| LaunchConfig {
            num_warps,
            resources: small_res(),
        };
        let body = |w: u64, t: &mut WarpTally| t.global_read(w * 4096, 2048, 4);
        let mut free = GpuSim::new(DeviceSpec::v100());
        let first = free.launch(cfg(2_000), body).cycles;
        assert_eq!(free.launch(cfg(0), body).cycles, 0);
        let total = first + free.launch(cfg(3_000), body).cycles;
        for (budget, stopped_in) in [
            (0, Some(0)),
            (first, Some(0)),
            (first + 1, Some(2)),
            (total, Some(2)),
            (total + 1, None),
            (u64::MAX, None),
        ] {
            let mut sim = GpuSim::new(DeviceSpec::v100());
            sim.set_cycle_budget(budget);
            sim.launch(cfg(2_000), body);
            sim.launch(cfg(0), body);
            let mut last_walked = 0;
            sim.launch(cfg(3_000), |w, t| {
                last_walked += 1;
                body(w, t)
            });
            let stop = sim.budget_stop();
            assert_eq!(stop.map(|s| s.launch), stopped_in, "budget {budget}");
            if let Some(stop) = stop {
                assert!((budget..=total).contains(&stop.cycles_at_least), "{stop:?}");
            }
            assert_eq!(last_walked == 0, stopped_in == Some(0), "budget {budget}");
        }
    }

    /// A sink or tracer observes every event, so it overrides any budget.
    #[test]
    fn an_observed_launch_never_stops() {
        let (warps, body) = budget_workloads()[0];
        let cfg = LaunchConfig {
            num_warps: warps,
            resources: small_res(),
        };
        let free = GpuSim::new(DeviceSpec::v100()).launch(cfg, body);
        for sink in [true, false] {
            let mut sim = GpuSim::new(DeviceSpec::v100());
            if sink {
                sim.attach_sink(Box::new(Ignore));
            } else {
                sim.attach_tracer(TraceSession::new());
            }
            sim.set_cycle_budget(0);
            assert_eq!(sim.launch(cfg, body), free);
            assert_eq!(sim.budget_stop(), None);
        }
    }

    /// Every traced launch records an attribution verdict with headroom in
    /// `[0, 1)` next to its NCU-style metrics.
    #[test]
    fn traced_launches_carry_attribution_metrics() {
        use hpsparse_trace::{Metric, TraceSession};
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let session = TraceSession::new();
        sim.attach_tracer(session.clone());
        sim.launch_named(
            "attr",
            LaunchConfig {
                num_warps: 512,
                resources: small_res(),
            },
            |w, t| {
                t.compute(1_000);
                t.global_read(w * 8192, 2048, 4);
            },
        );
        let m = session.metrics();
        let bound = m.get("launch.attr.attribution__bound.id");
        assert!(
            matches!(bound, Some(Metric::Gauge(v)) if (0.0..=4.0).contains(&v)),
            "{bound:?}"
        );
        let head = m.get("launch.attr.attribution__headroom.pct");
        assert!(
            matches!(head, Some(Metric::Gauge(v)) if (0.0..100.0).contains(&v)),
            "{head:?}"
        );
    }
}
