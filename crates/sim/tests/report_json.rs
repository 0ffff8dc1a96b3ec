//! Golden snapshot of the `LaunchReport` / `WarpCounters` JSON shape.
//!
//! `repro -- verify`'s sweep and the cost-walk tests rely on field-for-field
//! `LaunchReport` equality between the observed and unobserved walks. A field added to the
//! struct but forgotten in that comparison would silently weaken the
//! differential test; pinning the serialised shape here turns any field
//! addition into a visible test failure that forces both this snapshot
//! and the equality check to be revisited.

use hpsparse_sim::{LaunchReport, WarpCounters};
use serde_json::ToJson;

fn sample_counters() -> WarpCounters {
    WarpCounters {
        instructions: 100,
        shared_ops: 20,
        l2_hit_sectors: 30,
        dram_sectors: 10,
        atomics: 5,
        shuffles: 6,
        global_bytes: 1280,
        transactions: 40,
        descriptor_fallbacks: 3,
    }
}

fn sample_report() -> LaunchReport {
    LaunchReport {
        cycles: 2000,
        time_ms: 0.5,
        blocks: 10,
        warps: 80,
        num_waves: 2,
        full_wave_size: 8,
        active_blocks_per_sm: 4,
        warp_occupancy: 0.5,
        tail_utilization: 0.25,
        totals: sample_counters(),
        l2_hit_rate: 0.75,
        max_warp_cycles: 50.0,
        mean_warp_cycles: 25.0,
        dram_bound_cycles: 100,
        schedule_cycles: 2000,
    }
}

#[test]
fn warp_counters_json_shape_is_pinned() {
    let text = serde_json::to_string(&sample_counters().to_json()).unwrap();
    assert_eq!(
        text,
        "{\"instructions\":100,\"shared_ops\":20,\"l2_hit_sectors\":30,\
         \"dram_sectors\":10,\"atomics\":5,\"shuffles\":6,\
         \"global_bytes\":1280,\"transactions\":40,\
         \"descriptor_fallbacks\":3}"
    );
}

#[test]
fn launch_report_json_shape_is_pinned() {
    let text = serde_json::to_string(&sample_report().to_json()).unwrap();
    assert_eq!(
        text,
        "{\"cycles\":2000,\"time_ms\":0.5,\"blocks\":10,\"warps\":80,\
         \"num_waves\":2,\"full_wave_size\":8,\"active_blocks_per_sm\":4,\
         \"warp_occupancy\":0.5,\"tail_utilization\":0.25,\
         \"totals\":{\"instructions\":100,\"shared_ops\":20,\
         \"l2_hit_sectors\":30,\"dram_sectors\":10,\"atomics\":5,\
         \"shuffles\":6,\"global_bytes\":1280,\"transactions\":40,\
         \"descriptor_fallbacks\":3},\
         \"l2_hit_rate\":0.75,\"max_warp_cycles\":50.0,\
         \"mean_warp_cycles\":25.0,\"dram_bound_cycles\":100,\
         \"schedule_cycles\":2000,\"derived\":{\"imbalance\":2.0,\
         \"achieved_bytes_per_cycle\":0.64,\"traffic_sectors\":40,\
         \"dram_bytes\":320}}"
    );
}

#[test]
fn derived_methods_agree_with_the_direct_arithmetic() {
    let r = sample_report();
    assert_eq!(r.traffic(), 40);
    assert_eq!(r.dram_bytes(), 320);
    assert_eq!(r.totals.traffic(), 40);
    assert!((r.totals.l2_hit_rate() - 0.75).abs() < 1e-12);
    assert!((r.imbalance() - 2.0).abs() < 1e-12);
    assert!((r.achieved_bytes_per_cycle() - 0.64).abs() < 1e-12);
}

#[test]
fn metric_values_cover_every_report_field() {
    // 27 scalar metrics: one per struct field (totals expands to its 9
    // counters plus the traffic/DRAM-bytes aggregates) plus the derived
    // occupancy/imbalance/bandwidth figures. If a field is added to
    // LaunchReport, this count — and the metric list — must move with it.
    let metrics = sample_report().metric_values();
    assert_eq!(metrics.len(), 27);
    let mut seen = std::collections::BTreeSet::new();
    for (name, value, _) in &metrics {
        assert!(seen.insert(*name), "duplicate metric name {name}");
        assert!(value.is_finite());
    }
}
