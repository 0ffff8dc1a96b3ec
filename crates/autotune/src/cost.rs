//! Analytic cost model for the `Heuristic` planning strategy.
//!
//! Estimates the execution cycles of the paper's kernel at one launch
//! configuration from the fingerprint alone — no simulation. The candidate
//! space is HP-SpMM/HP-SDDMM at every `NnzPerWarp` DTP considers, and the
//! fused or unfused attention path, so the model only compares
//! configurations of one kernel. Two effects drive the estimate, mirroring
//! the paper's performance analysis (§III-B):
//!
//! * a **bandwidth term** from the sparse-array and `nnz·K` feature
//!   traffic (rooflined against `DeviceSpec::dram_bytes_per_cycle`, the
//!   feature reads filtered by an L2 reuse estimate),
//! * a **tail penalty** from Eq. 3–4 wave arithmetic: launches whose final
//!   wave is mostly idle get stretched by `waves · FullWaveSize / blocks`.
//!
//! The `Heuristic` takes the least estimate. The `Measured` strategy walks
//! every candidate on the simulator and uses this model only to order the
//! walks (a good first incumbent stops the rest early) and to break ties;
//! the experiment's oracle match and Heuristic regret keep it honest.

use hpsparse_core::hp::HpConfig;
use hpsparse_core::traits::LAUNCH_OVERHEAD_CYCLES;
use hpsparse_sim::occupancy::tail_stretch;
use hpsparse_sim::{occupancy_of, DeviceSpec, Occupancy};

use crate::candidates::CandidateRef;
use crate::fingerprint::GraphFingerprint;

/// The two roofline terms behind an analytic estimate, kept separate so
/// the planner can say *which* side binds rather than only their max.
#[derive(Debug, Clone, Copy)]
struct CostTerms {
    /// Instruction-throughput side (tail stretch folded in).
    compute: f64,
    /// DRAM-traffic side.
    bandwidth: f64,
}

impl CostTerms {
    /// The estimate itself: the binding roofline term.
    fn cycles(self) -> f64 {
        self.compute.max(self.bandwidth)
    }

    /// Which side binds, phrased with the attribution taxonomy's labels
    /// (`hpsparse_sim::Bound::label`) so heuristic rationales and profiler
    /// verdicts share one vocabulary.
    fn bound_label(self) -> &'static str {
        if self.bandwidth > self.compute {
            "DRAM bandwidth"
        } else {
            "compute"
        }
    }
}

/// The roofline every estimate ends in: `insts` over the issue throughput
/// the device sustains at occupancy `occ` (floored at 5 %), stretched by
/// `tail` (the launch's [`tail_stretch`], or `1.0`), against `bytes` over
/// the DRAM bandwidth.
fn roofline(device: &DeviceSpec, occ: &Occupancy, insts: f64, tail: f64, bytes: f64) -> CostTerms {
    let throughput = device.num_sms as f64 * device.cost.smt_width * occ.warp_occupancy.max(0.05);
    CostTerms {
        compute: insts / throughput * tail,
        bandwidth: bytes / device.dram_bytes_per_cycle,
    }
}

/// Fraction of `nnz·K` feature reads expected to miss L2: reuse of a
/// feature row is its column's in-degree, and rows can only be reused if
/// the working set fits the cache.
fn l2_miss_factor(device: &DeviceSpec, fp: &GraphFingerprint) -> f64 {
    let feature_bytes = (fp.cols * fp.k * 4) as f64;
    if feature_bytes <= device.l2_bytes as f64 {
        // Compulsory misses only: each of the `cols` feature rows is
        // fetched once, everything after that hits.
        (fp.cols as f64 / fp.nnz.max(1) as f64).clamp(0.02, 1.0)
    } else {
        // Thrashing regime: partial reuse from temporal locality of the
        // CSR-ordered column stream.
        0.6
    }
}

/// Estimated execution cycles of an HP-SpMM configuration.
fn hp_spmm_cycles(device: &DeviceSpec, fp: &GraphFingerprint, cfg: &HpConfig) -> CostTerms {
    let nnz = fp.nnz as f64;
    let k = fp.k as f64;
    let occ = occupancy_of(device, &cfg.resources(fp.k));
    let blocks = cfg.spmm_blocks(fp.nnz, fp.k);
    let warps = cfg.spmm_warps(fp.nnz, fp.k) as f64;
    let k_slices = cfg.k_slices(fp.k) as f64;
    let vw = cfg.vector_width as f64;

    // Instruction stream: sparse-tile loads amortised by the vector width
    // (HVMA), lane-parallel FMAs over K, per-row flushes, warp prologues.
    let tile_loads = nnz * k_slices * 3.0 / vw;
    let fmas = nnz * k / 32.0;
    let flushes = (fp.rows as f64).min(nnz) * k_slices * (2.0 + device.cost.atomic / 4.0);
    let insts = (tile_loads + fmas + flushes) * device.cost.issue + warps * 30.0;

    // Bandwidth roofline: 12 B/nnz of sparse arrays per K-slice pass,
    // `nnz·K` feature reads filtered by L2, plus the output write.
    let bytes = 12.0 * nnz * k_slices
        + 4.0 * nnz * k * l2_miss_factor(device, fp)
        + 4.0 * fp.rows as f64 * k;
    let tail = tail_stretch(blocks, occ.full_wave_size);
    roofline(device, &occ, insts, tail, bytes)
}

/// Estimated execution cycles of an HP-SDDMM configuration.
fn hp_sddmm_cycles(device: &DeviceSpec, fp: &GraphFingerprint, cfg: &HpConfig) -> CostTerms {
    let nnz = fp.nnz as f64;
    let k = fp.k as f64;
    let occ = occupancy_of(device, &cfg.resources(fp.k));
    let chunks = cfg.num_chunks(fp.nnz);
    let warps = chunks as f64;
    // One warp per chunk, rounded up to whole blocks as the launch is.
    let blocks = chunks.div_ceil(cfg.warps_per_block.max(1) as u64).max(1);
    let vw = cfg.vector_width as f64;

    // Per element: tile loads, a K-wide dot product, a warp reduction; A1
    // reloads only on row switches (the row-switch saving of Algorithm 4).
    let row_switches = (fp.rows as f64).min(nnz);
    let insts =
        (nnz * 3.0 / vw + nnz * (k / 32.0 + device.cost.shuffle * 5.0) + row_switches * k / 32.0)
            * device.cost.issue
            + warps * 30.0;
    let bytes = 12.0 * nnz
        + 4.0 * nnz * k * l2_miss_factor(device, fp)
        + 4.0 * row_switches * k
        + 4.0 * nnz;
    let tail = tail_stretch(blocks, occ.full_wave_size);
    roofline(device, &occ, insts, tail, bytes)
}

/// Roofline cycles of the standalone edge-softmax pass the *unfused*
/// attention pipeline needs between SDDMM and SpMM: one read of the raw
/// scores and one write of the normalised weights (8 B per edge).
pub fn edge_softmax_cycles(device: &DeviceSpec, nnz: usize) -> u64 {
    (8.0 * nnz as f64 / device.dram_bytes_per_cycle).ceil() as u64
}

/// Estimated cycles of the three-launch unfused attention pipeline for
/// `heads` heads at head dimension `fp.k`: per head an HP-SDDMM, a
/// standalone edge softmax, and an HP-SpMM, each paying a launch overhead
/// and round-tripping the per-edge intermediate through DRAM.
fn mha_unfused_cycles(device: &DeviceSpec, fp: &GraphFingerprint, heads: usize) -> f64 {
    let cfg = HpConfig::auto(device, fp.nnz, fp.rows, fp.k.max(1));
    let per_head = hp_sddmm_cycles(device, fp, &cfg).cycles()
        + edge_softmax_cycles(device, fp.nnz) as f64
        + hp_spmm_cycles(device, fp, &cfg).cycles()
        + 3.0 * LAUNCH_OVERHEAD_CYCLES as f64;
    per_head * heads.max(1) as f64
}

/// Estimated cycles of the fused one-launch kernel: the SDDMM dot products
/// and the SpMM accumulation share one instruction stream, the score tile
/// lives in shared memory (no per-edge round trip), the sparse arrays are
/// staged once per (tile, head) instead of once per kernel, and the whole
/// batch pays a single launch overhead. Rows longer than the shared tile
/// spill through L2 in two more launches; the model charges neither their
/// overhead nor their volume (the `Measured` strategy walks them).
fn mha_fused_cycles(
    device: &DeviceSpec,
    fp: &GraphFingerprint,
    heads: usize,
    cfg: &HpConfig,
) -> f64 {
    let h = heads.max(1) as f64;
    let nnz = fp.nnz as f64;
    let k = fp.k as f64;
    let occ = occupancy_of(device, &cfg.resources(fp.k));

    // Per edge and head: triplet staging, a K-wide dot + reduction, three
    // shared-memory softmax passes, and the V-row FMA accumulation.
    let insts = h
        * (nnz * 3.0 / cfg.vector_width as f64
            + nnz * (2.0 * k / 32.0 + device.cost.shuffle * 5.0 + 3.0))
        * device.cost.issue;

    // Sparse arrays + Q/K/V feature streams + the two outputs; no score
    // round trip and no second pass over the sparse arrays.
    let bytes = h
        * (12.0 * nnz
            + 4.0 * nnz * k * l2_miss_factor(device, fp)
            + 8.0 * fp.rows as f64 * k
            + 4.0 * nnz);

    roofline(device, &occ, insts, 1.0, bytes).cycles() + LAUNCH_OVERHEAD_CYCLES as f64
}

/// Estimated execution cycles for a multi-head-attention candidate (the
/// fuse/no-fuse knob): `fp.k` is the head dimension. Always finite and
/// non-negative.
pub fn mha_cost<'a>(
    device: &DeviceSpec,
    fp: &GraphFingerprint,
    heads: usize,
    c: impl Into<CandidateRef<'a>>,
) -> f64 {
    let cycles = match &c.into().config {
        Some(cfg) => mha_fused_cycles(device, fp, heads, cfg),
        None => mha_unfused_cycles(device, fp, heads),
    };
    sanitize(cycles)
}

fn sanitize(cycles: f64) -> f64 {
    if cycles.is_finite() {
        cycles.max(0.0)
    } else {
        f64::MAX / 4.0
    }
}

/// Estimated execution cycles of an HP-SpMM launch at `cfg`. Always
/// finite and non-negative, including for degenerate (empty) inputs.
pub fn spmm_cost(device: &DeviceSpec, fp: &GraphFingerprint, cfg: &HpConfig) -> f64 {
    sanitize(hp_spmm_cycles(device, fp, cfg).cycles())
}

/// The analytic model's own verdict on which roofline side limits an
/// HP-SpMM launch at `cfg` — `"compute"` or `"DRAM bandwidth"`, the same
/// labels the profiler's attribution uses ([`hpsparse_sim::Bound::label`]).
/// The heuristic planner embeds this in its rationale; the measured planner
/// embeds the simulator-attributed verdict instead, so explanations and
/// profiles never drift apart silently.
///
/// [`hpsparse_sim::Bound::label`]: hpsparse_sim::Bound::label
pub fn spmm_bound_hint(device: &DeviceSpec, fp: &GraphFingerprint, cfg: &HpConfig) -> &'static str {
    hp_spmm_cycles(device, fp, cfg).bound_label()
}

/// Estimated execution cycles of an HP-SDDMM launch at `cfg`.
pub fn sddmm_cost(device: &DeviceSpec, fp: &GraphFingerprint, cfg: &HpConfig) -> f64 {
    sanitize(hp_sddmm_cycles(device, fp, cfg).cycles())
}

/// SDDMM twin of [`spmm_bound_hint`].
pub fn sddmm_bound_hint(
    device: &DeviceSpec,
    fp: &GraphFingerprint,
    cfg: &HpConfig,
) -> &'static str {
    hp_sddmm_cycles(device, fp, cfg).bound_label()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{sddmm_candidates, spmm_candidates, Candidate};

    fn fp(rows: usize, nnz: usize, cv: f64, max_degree: usize, k: usize) -> GraphFingerprint {
        let mean = nnz as f64 / rows.max(1) as f64;
        GraphFingerprint {
            rows,
            cols: rows,
            nnz,
            mean_degree: mean,
            max_degree,
            degree_std: cv * mean,
            degree_cv: cv,
            tail_heaviness: max_degree as f64 / mean.max(1e-9),
            k,
            device: "Tesla V100",
            num_sms: 80,
        }
    }

    #[test]
    fn costs_are_finite_for_all_candidates_even_degenerate() {
        let v100 = DeviceSpec::v100();
        for fp in [
            fp(100_000, 1_000_000, 2.5, 5_000, 64),
            fp(0, 0, 0.0, 0, 64),
            fp(5, 0, 0.0, 0, 64),
            fp(1, 1, 0.0, 1, 64),
        ] {
            for c in spmm_candidates(&v100, &fp) {
                let cost = spmm_cost(&v100, &fp, &c.config.unwrap());
                assert!(cost.is_finite() && cost >= 0.0, "{}: {cost}", c.kernel_id);
            }
            for c in sddmm_candidates(&v100, &fp) {
                let cost = sddmm_cost(&v100, &fp, &c.config.unwrap());
                assert!(cost.is_finite() && cost >= 0.0, "{}: {cost}", c.kernel_id);
            }
        }
    }

    /// An HP-SDDMM launch runs one warp per chunk in whole blocks, so a
    /// ninth chunk at eight warps per block opens a second block: the
    /// one-block launch's tail stretch halves and the estimate falls,
    /// although there is one more non-zero to process.
    #[test]
    fn sddmm_tail_counts_a_partial_last_block() {
        let v100 = DeviceSpec::v100();
        let cfg = HpConfig {
            nnz_per_warp: 1,
            ..HpConfig::hvma_at(8, 32)
        };
        assert_eq!(cfg.warps_per_block, 8);
        let (eight, nine) = (fp(8, 8, 0.0, 1, 32), fp(9, 9, 0.0, 1, 32));
        assert_eq!(sddmm_bound_hint(&v100, &nine, &cfg), "compute");
        assert!(
            sddmm_cost(&v100, &nine, &cfg) < sddmm_cost(&v100, &eight, &cfg),
            "{} vs {}",
            sddmm_cost(&v100, &nine, &cfg),
            sddmm_cost(&v100, &eight, &cfg)
        );
    }

    #[test]
    fn mha_costs_are_finite_and_favour_fusion_at_many_heads() {
        let v100 = DeviceSpec::v100();
        let fused = Candidate {
            kernel_id: "hp-fused-mha:auto".into(),
            config: Some(HpConfig::auto(&v100, 500_000, 50_000, 32)),
        };
        let unfused = Candidate {
            kernel_id: "mha-unfused:3-launch".into(),
            config: None,
        };
        for fp in [
            fp(50_000, 500_000, 1.5, 400, 64),
            fp(0, 0, 0.0, 0, 64),
            fp(1, 1, 0.0, 1, 32),
        ] {
            for heads in [1usize, 4, 8] {
                for c in [&fused, &unfused] {
                    let cost = mha_cost(&v100, &fp, heads, c);
                    assert!(cost.is_finite() && cost >= 0.0, "{}: {cost}", c.kernel_id);
                }
            }
        }
        // At several heads the saved score round trips, the single staging
        // pass over the sparse arrays, and the single launch overhead must
        // dominate: fusion wins on a regular mid-size graph.
        let regular = fp(50_000, 500_000, 1.5, 400, 64);
        assert!(
            mha_cost(&v100, &regular, 4, &fused) < mha_cost(&v100, &regular, 4, &unfused),
            "fused must be cheaper at 4 heads"
        );
    }

    #[test]
    fn tail_stretch_matches_wave_arithmetic() {
        assert_eq!(tail_stretch(320, 320), 1.0);
        assert!((tail_stretch(321, 320) - 2.0 * 320.0 / 321.0).abs() < 1e-12);
        assert_eq!(tail_stretch(0, 320), 1.0);
        assert!(tail_stretch(1, 320) >= 320.0);
    }
}
