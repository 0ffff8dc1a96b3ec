//! The stable metric naming scheme, styled after Nsight Compute.
//!
//! NCU names counters `unit__counter.rollup` (`sm__cycles_elapsed.sum`,
//! `lts__t_sectors_hit.sum`, …). The simulator adopts the same shape so a
//! reader fluent in NCU output can parse a metrics export at sight, and so
//! names are greppable constants rather than ad-hoc strings scattered over
//! `profile.rs` and the experiments:
//!
//! * `gpu__*` — whole-launch durations and rooflines,
//! * `launch__*` — grid/wave geometry (Eq. 3–4),
//! * `sm__*` / `smsp__*` — SM-side instruction and warp statistics,
//! * `lts__*` — L2 ("level-two sector") traffic,
//! * `dram__*` — HBM traffic.
//!
//! Per-launch metrics are namespaced `launch.<kernel>.<metric>` via
//! [`launch_metric`]; subsystem counters use plain dotted names
//! (`autotune.plan_cache.hit`, `sanitize.events`).

/// Modelled execution time in SM cycles (counter).
pub const GPU_CYCLES: &str = "gpu__cycles_elapsed.sum";
/// Modelled execution time in milliseconds at the device clock (counter).
pub const GPU_TIME_MS: &str = "gpu__time_duration.ms";
/// Lower bound from DRAM bandwidth alone (counter, cycles).
pub const DRAM_BOUND_CYCLES: &str = "gpu__dram_bound_cycles.sum";
/// Cycles from the SM/wave schedule alone (counter).
pub const SCHEDULE_CYCLES: &str = "gpu__schedule_cycles.sum";
/// Achieved global-memory bandwidth in bytes per cycle (gauge).
pub const BYTES_PER_CYCLE: &str = "gpu__bytes_per_cycle.ratio";

/// Launches recorded under this kernel name (counter).
pub const LAUNCH_COUNT: &str = "launch__count.sum";
/// Thread blocks launched (counter).
pub const LAUNCH_BLOCKS: &str = "launch__block_count.sum";
/// Warps launched (counter).
pub const LAUNCH_WARPS: &str = "launch__warp_count.sum";
/// Waves needed, Eq. 4 (counter).
pub const LAUNCH_WAVES: &str = "launch__waves.sum";
/// `FullWaveSize`, Eq. 4 (gauge).
pub const LAUNCH_FULL_WAVE: &str = "launch__full_wave_size.ratio";
/// `ActiveblocksPerSM`, Eq. 3 (gauge).
pub const LAUNCH_ACTIVE_BLOCKS: &str = "launch__active_blocks_per_sm.ratio";
/// Resident-warp occupancy at full residency, percent (gauge).
pub const WARP_OCCUPANCY_PCT: &str = "sm__warp_occupancy.pct";
/// Utilisation of the final wave, percent (gauge).
pub const TAIL_UTILIZATION_PCT: &str = "launch__tail_utilization.pct";

/// Instructions issued over all warps (counter).
pub const INST_EXECUTED: &str = "smsp__inst_executed.sum";
/// Shared-memory operations (counter).
pub const SHARED_OPS: &str = "smsp__shared_ops.sum";
/// Global atomics (counter).
pub const ATOMICS: &str = "smsp__atomics.sum";
/// Warp shuffles (counter).
pub const SHUFFLES: &str = "smsp__shuffles.sum";
/// Bytes moved through global load/store instructions (counter).
pub const GLOBAL_BYTES: &str = "sm__global_bytes.sum";
/// Global memory transactions (counter).
pub const TRANSACTIONS: &str = "sm__global_transactions.sum";
/// Descriptor calls that failed their fast-path precondition and expanded
/// element-wise (counter).
pub const DESCRIPTOR_FALLBACKS: &str = "descriptor_fallbacks";

/// Sectors served by L2 (hits + misses, counter).
pub const L2_SECTORS: &str = "lts__t_sectors.sum";
/// Sectors that hit in L2 (counter).
pub const L2_HIT_SECTORS: &str = "lts__t_sectors_hit.sum";
/// L2 sector hit rate, percent (gauge).
pub const L2_HIT_RATE_PCT: &str = "lts__t_sector_hit_rate.pct";
/// Sectors fetched from DRAM (counter).
pub const DRAM_SECTORS: &str = "dram__sectors.sum";
/// Bytes fetched from DRAM (counter).
pub const DRAM_BYTES: &str = "dram__bytes.sum";

/// Bytes moved over the device-to-device interconnect (counter track in
/// the Perfetto export; counter in the registry).
pub const INTERCONNECT_BYTES: &str = "interconnect.bytes";

/// Attention rows whose score tile overflowed shared memory and spilled
/// through L2 in the fused multi-head attention kernel (counter).
pub const FUSED_MHA_ROWS_SPILLED: &str = "fused_mha__rows_spilled.sum";
/// DRAM bytes the fused attention kernel avoided versus the three-launch
/// SDDMM → softmax → SpMM pipeline (counter).
pub const FUSED_MHA_DRAM_SAVED_BYTES: &str = "fused_mha__dram_saved_bytes.sum";

/// Bottleneck-attribution verdict id (gauge): 0 = DRAM bandwidth,
/// 1 = L2 latency, 2 = compute, 3 = imbalance, 4 = tail/floor. See
/// `hpsparse-sim`'s attribution module for the decomposition.
pub const ATTRIBUTION_BOUND_ID: &str = "attribution__bound.id";
/// Quantified headroom of the attribution verdict, percent (gauge): how
/// much of the launch time the binding bottleneck accounts for beyond the
/// next-best limiter.
pub const ATTRIBUTION_HEADROOM_PCT: &str = "attribution__headroom.pct";
/// Compute share of the aggregate warp-cycle decomposition, percent
/// (gauge).
pub const ATTRIBUTION_COMPUTE_SHARE_PCT: &str = "attribution__compute_share.pct";
/// L2-latency share of the aggregate warp-cycle decomposition, percent
/// (gauge).
pub const ATTRIBUTION_L2_SHARE_PCT: &str = "attribution__l2_share.pct";
/// DRAM-latency share of the aggregate warp-cycle decomposition, percent
/// (gauge).
pub const ATTRIBUTION_DRAM_SHARE_PCT: &str = "attribution__dram_share.pct";

/// Per-request end-to-end serve latency in interconnect-clock cycles
/// (histogram).
pub const SERVE_REQUEST_LATENCY: &str = "serve.request.latency_cycles";
/// Per-request batcher-queue wait in cycles (histogram).
pub const SERVE_STAGE_QUEUE: &str = "serve.request.queue_cycles";
/// Per-request halo-transfer duration in cycles (histogram).
pub const SERVE_STAGE_HALO: &str = "serve.request.halo_cycles";
/// Per-request device/halo stall (ready but waiting) in cycles
/// (histogram).
pub const SERVE_STAGE_STALL: &str = "serve.request.stall_cycles";
/// Per-request shard-compute duration in cycles (histogram).
pub const SERVE_STAGE_COMPUTE: &str = "serve.request.compute_cycles";
/// Per-batch halo bytes moved over the interconnect (histogram).
pub const SERVE_BATCH_HALO_BYTES: &str = "serve.batch.halo_bytes";

/// Cycles of the slowest warp (gauge).
pub const WARP_CYCLES_MAX: &str = "smsp__warp_cycles.max";
/// Mean warp cycles (gauge).
pub const WARP_CYCLES_AVG: &str = "smsp__warp_cycles.avg";
/// Slowest warp over mean warp — load imbalance (gauge).
pub const WARP_IMBALANCE: &str = "smsp__warp_imbalance.ratio";
/// Per-warp cycle distribution (histogram).
pub const WARP_CYCLES_HIST: &str = "smsp__warp_cycles";

/// Namespaces a per-launch metric under its kernel:
/// `launch.<kernel>.<metric>`.
pub fn launch_metric(kernel: &str, metric: &str) -> String {
    format!("launch.{kernel}.{metric}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_metric_namespacing() {
        assert_eq!(
            launch_metric("HP-SpMM", GPU_CYCLES),
            "launch.HP-SpMM.gpu__cycles_elapsed.sum"
        );
    }
}
