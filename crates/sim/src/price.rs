//! Pricing a launch: the one place its cycles are computed from counts.
//!
//! A `Schedule` prices each warp the walk hands it, folds warps into
//! blocks, blocks onto SMs and SMs into waves (Eq. 3–5), and prices the
//! launch as the largest of three [`Limits`] — the running bound of a
//! cycle budget mid-walk, the reported `cycles` at the end.

use crate::device::DeviceSpec;
use crate::launch::{LaunchConfig, LaunchReport};
use crate::memory::SECTOR_BYTES;
use crate::occupancy::{occupancy_of, tail_utilization, waves, Occupancy};
use crate::tally::WarpCounters;
use std::ops::Range;

/// No kernel completes faster than the pipeline fill/drain floor
/// (~1.5 µs): microscopic launches — tiny sampled subgraphs — are
/// floor-bound on every kernel alike.
const KERNEL_FLOOR_CYCLES: f64 = 2_000.0;

/// The three limits a launch's cycles are the largest of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Limits {
    /// Cycles of the SM/wave schedule.
    pub schedule: f64,
    /// Cycles if the launch were purely DRAM-bandwidth-bound.
    pub dram: f64,
    /// The fill/drain floor (`KERNEL_FLOOR_CYCLES`; none without warps).
    pub floor: f64,
}

impl Limits {
    /// The limits a report records.
    pub fn of(report: &LaunchReport) -> Self {
        Self {
            schedule: report.schedule_cycles as f64,
            dram: report.dram_bound_cycles as f64,
            floor: floor(report.warps),
        }
    }

    /// The pricing rule: a launch lasts as long as its slowest limit.
    pub fn cycles(&self) -> f64 {
        self.schedule.max(self.dram).max(self.floor)
    }
}

fn floor(warps: u64) -> f64 {
    if warps > 0 {
        KERNEL_FLOOR_CYCLES
    } else {
        0.0
    }
}

/// One block of a launch, in scheduling order.
pub(crate) struct Block {
    /// The SM it runs on.
    pub sm: usize,
    /// Its launch-global warp ids.
    pub warps: Range<u64>,
    /// Whether it is the last block of its wave.
    pub ends_wave: bool,
}

/// The pricing fold of one launch: fed every warp's counters in block
/// order, it keeps only per-SM accumulators for the wave in progress.
pub(crate) struct Schedule<'d> {
    device: &'d DeviceSpec,
    config: LaunchConfig,
    occupancy: Occupancy,
    pub blocks: u64,
    /// Resident warps hide latency: below 50 % occupancy both the SMT
    /// pipeline's effective width and the achievable HBM bandwidth degrade
    /// proportionally (the register-scarcity effect of §IV-F); above it
    /// they saturate.
    effective_width: f64,
    dram_bytes_per_cycle: f64,
    sm_sum: Vec<f64>,
    sm_max_block: Vec<f64>,
    block_max: f64,
    wave_time: f64,
    /// Cycles of the completed waves.
    schedule: f64,
    max_warp: f64,
    sum_warp: f64,
}

impl<'d> Schedule<'d> {
    /// Panics when no block of `config` fits on an SM of `device`.
    pub(crate) fn new(device: &'d DeviceSpec, config: LaunchConfig) -> Self {
        let res = config.resources;
        let occupancy = occupancy_of(device, &res);
        let fits = occupancy.active_blocks_per_sm > 0;
        assert!(fits, "{res:?} fits no SM of the {}", device.name);
        let occ_factor = (occupancy.warp_occupancy * 2.0).clamp(0.05, 1.0);
        Self {
            device,
            config,
            occupancy,
            blocks: config.num_warps.div_ceil(res.warps_per_block as u64),
            effective_width: device.cost.smt_width * occ_factor,
            dram_bytes_per_cycle: device.dram_bytes_per_cycle * occ_factor,
            sm_sum: vec![0.0; device.num_sms as usize],
            sm_max_block: vec![0.0; device.num_sms as usize],
            block_max: 0.0,
            wave_time: 0.0,
            schedule: 0.0,
            max_warp: 0.0,
            sum_warp: 0.0,
        }
    }

    /// Block `id` of the launch: waves of `FullWaveSize` blocks, each
    /// wave's blocks dealt round-robin over the SMs.
    pub(crate) fn block(&self, id: u64) -> Block {
        let wave_size = self.occupancy.full_wave_size;
        let wpb = self.config.resources.warps_per_block as u64;
        let slot = id % wave_size;
        Block {
            sm: (slot % self.device.num_sms as u64) as usize,
            warps: id * wpb..((id + 1) * wpb).min(self.config.num_warps),
            ends_wave: slot + 1 == wave_size || id + 1 == self.blocks,
        }
    }

    /// Prices one warp of the block in progress; returns its cycles.
    pub(crate) fn warp(&mut self, counters: &WarpCounters) -> f64 {
        let cycles = counters.cycles(&self.device.cost);
        self.sum_warp += cycles;
        self.max_warp = self.max_warp.max(cycles);
        self.block_max = self.block_max.max(cycles);
        cycles
    }

    /// Closes `block`, whose warps were the last priced; returns its cycles
    /// (its slowest warp's). An SM finishes when its slowest block does, or
    /// when its warp-cycles drain through the SMT pipeline, whichever is
    /// later; a wave, when its slowest SM does. Every term only grows, so
    /// the running maximum is the wave's time once its last block landed.
    pub(crate) fn end_block(&mut self, block: &Block) -> f64 {
        let (sm, cycles) = (block.sm, std::mem::take(&mut self.block_max));
        self.sm_sum[sm] += cycles * (block.warps.end - block.warps.start) as f64;
        self.sm_max_block[sm] = self.sm_max_block[sm].max(cycles);
        let sm_time = self.sm_max_block[sm].max(self.sm_sum[sm] / self.effective_width);
        self.wave_time = self.wave_time.max(sm_time);
        cycles
    }

    /// Closes the wave in progress; returns its cycles.
    pub(crate) fn end_wave(&mut self) -> f64 {
        self.sm_sum.fill(0.0);
        self.sm_max_block.fill(0.0);
        let wave = std::mem::take(&mut self.wave_time);
        self.schedule += wave;
        wave
    }

    /// The limits so far, given the DRAM sectors fetched so far. Only L2
    /// misses consume HBM bandwidth; hits are served on chip.
    fn limits(&self, dram_sectors: u64) -> Limits {
        Limits {
            schedule: self.schedule + self.wave_time,
            dram: (dram_sectors * SECTOR_BYTES as u64) as f64 / self.dram_bytes_per_cycle,
            floor: floor(self.config.num_warps),
        }
    }

    /// The launch's cycles so far: mid-walk a lower bound on the final
    /// count (every term only grows), once every wave has closed the
    /// launch's `cycles`.
    pub(crate) fn cycles(&self, dram_sectors: u64) -> u64 {
        self.limits(dram_sectors).cycles().ceil() as u64
    }

    /// The launch's report, given the sum of its warps' counters.
    pub(crate) fn report(&self, totals: WarpCounters) -> LaunchReport {
        let (limits, warps) = (self.limits(totals.dram_sectors), self.config.num_warps);
        let cycles = self.cycles(totals.dram_sectors);
        let wave_size = self.occupancy.full_wave_size;
        LaunchReport {
            cycles,
            time_ms: self.device.cycles_to_ms(cycles),
            blocks: self.blocks,
            warps,
            num_waves: waves(self.blocks, wave_size),
            full_wave_size: wave_size,
            active_blocks_per_sm: self.occupancy.active_blocks_per_sm,
            warp_occupancy: self.occupancy.warp_occupancy,
            tail_utilization: tail_utilization(self.blocks, wave_size),
            totals,
            l2_hit_rate: totals.l2_hit_rate(),
            max_warp_cycles: self.max_warp,
            mean_warp_cycles: self.sum_warp / warps.max(1) as f64,
            dram_bound_cycles: limits.dram.ceil() as u64,
            schedule_cycles: limits.schedule.ceil() as u64,
        }
    }
}
