//! Bottleneck attribution: *why* a launch took the cycles it took.
//!
//! A launch's cycles are the largest of three [`Limits`] — the wave
//! schedule, the DRAM roofline and the fill/drain floor. [`attribute`]
//! reads them back from a [`LaunchReport`] and folds them into a single
//! verdict with quantified headroom:
//!
//! * the **binding limit** is whichever of the three produced `cycles`;
//! * a schedule-bound launch is split further: a dominant
//!   [`LaunchReport::imbalance`] means straggler warps, a dominant
//!   [`tail_stretch`] a mostly-idle final wave, and otherwise the
//!   [per-pipeline cycles](crate::WarpCounters::pipeline_cycles) name the
//!   pipeline the warps waited on;
//! * **headroom** is `1 − alternative/cycles`, where `alternative` is the
//!   same [pricing rule](Limits::cycles) with the diagnosed bottleneck
//!   removed and every *other* limit in place: 0% means marginally
//!   binding, 60% that fixing it could shed 60% of the time.
//!
//! The `repro -- profile` report, the `attribution__*` trace metrics and
//! the autotune planner's rationale all call [`attribute`], so they cannot
//! disagree (pinned by `hpsparse-bench`'s attribution-agreement test).

use crate::device::DeviceSpec;
use crate::launch::LaunchReport;
use crate::occupancy::tail_stretch;
use crate::price::Limits;
use hpsparse_trace::{names, MetricsRegistry};

/// Threshold on the imbalance / tail-stretch factors above which the
/// schedule split blames warp skew or the final wave rather than the
/// instruction mix: a 25% stretch is the point where rebalancing beats
/// micro-optimising the pipeline.
const SKEW_THRESHOLD: f64 = 1.25;

/// The five-way verdict taxonomy (DESIGN.md "Attribution"); the
/// discriminant is the stable [`Bound::id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// The DRAM roofline, or a schedule dominated by DRAM-sector latency.
    DramBandwidth = 0,
    /// Schedule dominated by L2-hit latency: traffic that stays on chip
    /// but still stalls warps.
    L2Latency = 1,
    /// Schedule dominated by issued instructions (plus shared memory,
    /// atomics and shuffles).
    Compute = 2,
    /// Straggler warps: the slowest warp far above the mean.
    Imbalance = 3,
    /// A mostly-idle final wave, or the pipeline fill/drain floor of a
    /// microscopic launch.
    Tail = 4,
}

impl Bound {
    /// Human-readable label used by the profile report and the planner
    /// rationale.
    pub fn label(&self) -> &'static str {
        match self {
            Bound::DramBandwidth => "DRAM bandwidth",
            Bound::L2Latency => "L2 latency",
            Bound::Compute => "compute",
            Bound::Imbalance => "imbalance",
            Bound::Tail => "tail",
        }
    }

    /// Stable numeric id for the `attribution__bound.id` gauge.
    pub fn id(&self) -> u32 {
        *self as u32
    }
}

/// The full attribution of one launch: the verdict plus the quantities it
/// was derived from, so reports can show their work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attribution {
    /// What the launch is bound by.
    pub bound: Bound,
    /// Fraction of the launch time attributable to the verdict beyond the
    /// next-binding limit, in `[0, 1)`.
    pub headroom: f64,
    /// Slowest warp over mean warp ([`LaunchReport::imbalance`]).
    pub imbalance: f64,
    /// Final-wave stretch factor ([`tail_stretch`]).
    pub tail_stretch: f64,
    /// Compute share of the aggregate warp-cycle decomposition.
    pub compute_share: f64,
    /// L2-hit-latency share of the decomposition.
    pub l2_share: f64,
    /// DRAM-sector-latency share of the decomposition.
    pub dram_share: f64,
}

impl Attribution {
    /// One-line verdict, e.g. `DRAM bandwidth (42% headroom)`.
    pub fn verdict(&self) -> String {
        let (label, pct) = (self.bound.label(), self.headroom * 100.0);
        format!("{label} ({pct:.0}% headroom)")
    }

    /// Records the verdict and decomposition as `launch.<kernel>.*` gauges
    /// next to [`LaunchReport::record_metrics`]'s counters.
    pub fn record_metrics(&self, metrics: &MetricsRegistry, kernel: &str) {
        use names::*;
        let set = |name: &str, v: f64| metrics.set(&launch_metric(kernel, name), v);
        set(ATTRIBUTION_BOUND_ID, self.bound.id() as f64);
        set(ATTRIBUTION_HEADROOM_PCT, self.headroom * 100.0);
        set(ATTRIBUTION_COMPUTE_SHARE_PCT, self.compute_share * 100.0);
        set(ATTRIBUTION_L2_SHARE_PCT, self.l2_share * 100.0);
        set(ATTRIBUTION_DRAM_SHARE_PCT, self.dram_share * 100.0);
    }
}

/// Classifies one launch (see the module docs for the decomposition). The
/// verdict depends only on the report and the device spec, so any
/// consumer holding a report reproduces it exactly.
pub fn attribute(report: &LaunchReport, device: &DeviceSpec) -> Attribution {
    // Where the warps' cycles went, by pipeline.
    let p = report.totals.pipeline_cycles(&device.cost);
    let warp_total = p.total();
    // A launch that spent no cycles has shares 0/0 = NaN, which `max` drops.
    let share = |c: f64| (c / warp_total).max(0.0);
    let (compute_share, l2_share, dram_share) = (share(p.compute), share(p.l2), share(p.dram));
    let imbalance = report.imbalance();
    let tail = tail_stretch(report.blocks, report.full_wave_size);

    let base = Attribution {
        bound: Bound::Tail,
        headroom: 0.0,
        imbalance,
        tail_stretch: tail,
        compute_share,
        l2_share,
        dram_share,
    };
    let cycles = report.cycles as f64;
    if cycles <= 0.0 {
        return base; // empty launch: nothing to attribute
    }
    let limits = Limits::of(report);
    let schedule = limits.schedule;
    // Headroom against the launch priced with the diagnosed bottleneck
    // removed but every other limit still binding.
    let headroom = |without: Limits| {
        (1.0 - without.cycles() / cycles)
            .clamp(0.0, 1.0)
            .min(0.9999)
    };
    let (bound, without) = if limits.floor >= schedule.max(limits.dram) {
        let floor = 0.0; // The fill/drain floor binds: a microscopic launch.
        (Bound::Tail, Limits { floor, ..limits })
    } else if limits.dram >= schedule {
        let dram = 0.0; // The whole-launch DRAM roofline binds.
        (Bound::DramBandwidth, Limits { dram, ..limits })
    } else if imbalance > SKEW_THRESHOLD && imbalance >= tail {
        // Schedule-bound from here on: split by what stretched it.
        let schedule = schedule / imbalance;
        (Bound::Imbalance, Limits { schedule, ..limits })
    } else if tail > SKEW_THRESHOLD {
        let schedule = schedule / tail;
        (Bound::Tail, Limits { schedule, ..limits })
    } else {
        let (bound, dominant) = if dram_share >= l2_share && dram_share >= compute_share {
            (Bound::DramBandwidth, dram_share)
        } else if l2_share >= compute_share {
            (Bound::L2Latency, l2_share)
        } else {
            (Bound::Compute, compute_share)
        };
        let schedule = schedule * (1.0 - dominant);
        (bound, Limits { schedule, ..limits })
    };
    Attribution {
        bound,
        headroom: headroom(without),
        ..base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tally::WarpCounters;

    #[allow(clippy::too_many_arguments)]
    fn report(
        cycles: u64,
        schedule: u64,
        dram_bound: u64,
        totals: WarpCounters,
        max_wc: f64,
        mean_wc: f64,
        blocks: u64,
        full_wave: u64,
    ) -> LaunchReport {
        LaunchReport {
            cycles,
            time_ms: 0.0,
            blocks,
            warps: blocks.max(1) * 4,
            num_waves: blocks.div_ceil(full_wave.max(1)),
            full_wave_size: full_wave,
            active_blocks_per_sm: 4,
            warp_occupancy: 0.5,
            tail_utilization: 1.0,
            totals,
            l2_hit_rate: totals.l2_hit_rate(),
            max_warp_cycles: max_wc,
            mean_warp_cycles: mean_wc,
            dram_bound_cycles: dram_bound,
            schedule_cycles: schedule,
        }
    }

    fn streaming_totals() -> WarpCounters {
        WarpCounters {
            instructions: 1_000,
            dram_sectors: 1_000_000,
            l2_hit_sectors: 10_000,
            transactions: 1_010_000,
            global_bytes: 32_320_000,
            ..Default::default()
        }
    }

    #[test]
    fn dram_roofline_wins_when_it_binds() {
        let r = report(
            100_000,
            40_000,
            100_000,
            streaming_totals(),
            100.0,
            95.0,
            640,
            320,
        );
        let a = attribute(&r, &DeviceSpec::v100());
        assert_eq!(a.bound, Bound::DramBandwidth);
        // Headroom vs the schedule (the next-binding limit): 60%.
        assert!((a.headroom - 0.6).abs() < 1e-9, "{}", a.headroom);
    }

    #[test]
    fn floor_bound_microscopic_launch_reads_as_tail() {
        let r = report(
            2_000,
            150,
            90,
            WarpCounters {
                instructions: 500,
                ..Default::default()
            },
            10.0,
            9.0,
            1,
            320,
        );
        let a = attribute(&r, &DeviceSpec::v100());
        assert_eq!(a.bound, Bound::Tail);
        assert!(a.headroom > 0.9 && a.headroom < 1.0, "{}", a.headroom);
    }

    #[test]
    fn straggler_warps_read_as_imbalance() {
        let r = report(
            80_000,
            80_000,
            5_000,
            streaming_totals(),
            4_000.0,
            100.0,
            640,
            320,
        );
        let a = attribute(&r, &DeviceSpec::v100());
        assert_eq!(a.bound, Bound::Imbalance);
        assert!(a.headroom > 0.9, "{}", a.headroom);
    }

    #[test]
    fn single_block_schedule_reads_as_tail() {
        // One block on an 80-SM device: tail_stretch = full_wave_size.
        let r = report(
            50_000,
            50_000,
            1_000,
            WarpCounters {
                instructions: 40_000,
                ..Default::default()
            },
            110.0,
            100.0,
            1,
            320,
        );
        let a = attribute(&r, &DeviceSpec::v100());
        assert_eq!(a.bound, Bound::Tail);
    }

    #[test]
    fn balanced_schedule_splits_by_pipeline_share() {
        let compute_heavy = WarpCounters {
            instructions: 10_000_000,
            l2_hit_sectors: 1_000,
            dram_sectors: 100,
            transactions: 1_100,
            ..Default::default()
        };
        let r = report(90_000, 90_000, 2_000, compute_heavy, 110.0, 100.0, 640, 320);
        let a = attribute(&r, &DeviceSpec::v100());
        assert_eq!(a.bound, Bound::Compute);
        assert!(a.compute_share > 0.9);

        let l2_heavy = WarpCounters {
            instructions: 1_000,
            l2_hit_sectors: 5_000_000,
            dram_sectors: 1_000,
            transactions: 5_001_000,
            ..Default::default()
        };
        let r = report(90_000, 90_000, 2_000, l2_heavy, 110.0, 100.0, 640, 320);
        let a = attribute(&r, &DeviceSpec::v100());
        assert_eq!(a.bound, Bound::L2Latency);
    }

    #[test]
    fn empty_launch_attributes_to_nothing() {
        let mut r = report(0, 0, 0, WarpCounters::default(), 0.0, 0.0, 0, 320);
        r.warps = 0;
        let a = attribute(&r, &DeviceSpec::v100());
        assert_eq!(a.bound, Bound::Tail);
        assert_eq!(a.headroom, 0.0);
    }

    #[test]
    fn headroom_stays_in_unit_interval_and_metrics_record() {
        let r = report(
            100_000,
            40_000,
            100_000,
            streaming_totals(),
            100.0,
            95.0,
            640,
            320,
        );
        let a = attribute(&r, &DeviceSpec::v100());
        assert!((0.0..1.0).contains(&a.headroom));
        let m = MetricsRegistry::new();
        a.record_metrics(&m, "K");
        assert_eq!(
            m.get("launch.K.attribution__bound.id"),
            Some(hpsparse_trace::Metric::Gauge(a.bound.id() as f64))
        );
        assert_eq!(
            m.get("launch.K.attribution__headroom.pct"),
            Some(hpsparse_trace::Metric::Gauge(a.headroom * 100.0))
        );
    }
}
