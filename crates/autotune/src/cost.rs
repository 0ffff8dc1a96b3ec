//! Analytic cost model for the `Heuristic` planning strategy.
//!
//! Estimates execution cycles for every candidate from the fingerprint
//! alone — no simulation. Three effects drive the estimate, mirroring the
//! paper's performance analysis:
//!
//! * a **bandwidth term** from the sparse-array and `nnz·K` feature
//!   traffic (rooflined against `DeviceSpec::dram_bytes_per_cycle`),
//! * a **tail penalty** from Eq. 3–4 wave arithmetic: launches whose final
//!   wave is mostly idle get stretched by `waves · FullWaveSize / blocks`,
//! * an **imbalance penalty** from the degree coefficient of variation for
//!   row-parallel baselines, plus a `max_degree` critical-path floor —
//!   the skew effects of Fig. 12 that the hybrid-parallel kernels dodge.
//!
//! The model only has to *rank* well: the `Measured` strategy re-measures
//! the top of this ranking on the real simulator, so accuracy matters most
//! near the top, and the experiment's oracle-match rate keeps it honest.

use hpsparse_core::hp::HpConfig;
use hpsparse_core::traits::LAUNCH_OVERHEAD_CYCLES;
use hpsparse_sim::occupancy::tail_stretch;
use hpsparse_sim::{occupancy_of, DeviceSpec, KernelResources, Occupancy};

use crate::candidates::CandidateRef;
use crate::fingerprint::GraphFingerprint;

/// The two roofline terms behind an analytic estimate, kept separate so
/// the planner can say *which* side binds rather than only their max.
#[derive(Debug, Clone, Copy)]
struct CostTerms {
    /// Instruction-throughput side (tail / imbalance multipliers folded in).
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
    let warps = cfg.num_chunks(fp.nnz) as f64;
    let blocks = warps.div_euclid(cfg.warps_per_block as f64).max(1.0) as u64;
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

/// Per-baseline modelling knobs, relative to an ideal balanced kernel.
struct BaselineProfile {
    /// Instruction-efficiency multiplier (scalar access, index decoding…).
    inst: f64,
    /// Feature-traffic multiplier (uncoalesced or padded access patterns).
    traffic: f64,
    /// Weight of the `degree_cv` imbalance penalty (row-parallel kernels
    /// inherit the skew; balanced-partition kernels are immune).
    imbalance: f64,
    /// Whether a straggler warp processes the heaviest row alone, making
    /// `max_degree` a critical-path floor.
    row_critical_path: bool,
    /// Preprocessing cost as a fraction of the base execution estimate.
    preprocess: f64,
}

fn spmm_profile(id: &str, fp: &GraphFingerprint) -> BaselineProfile {
    // Tensor-core / blocked formats pay for padding: the sparser the mean
    // row relative to the tile edge, the more zeros stream from DRAM.
    let tile_waste = |edge: f64| (edge / fp.mean_degree.max(0.25)).max(1.0);
    match id {
        "cusparse-csr-alg2" => BaselineProfile {
            inst: 1.2,
            traffic: 1.0,
            imbalance: 0.3,
            row_critical_path: false,
            preprocess: 0.0,
        },
        "cusparse-csr-alg3" => BaselineProfile {
            inst: 1.35,
            traffic: 1.0,
            imbalance: 0.05,
            row_critical_path: false,
            preprocess: 0.25,
        },
        "cusparse-coo-alg4" => BaselineProfile {
            inst: 1.3,
            traffic: 1.2,
            imbalance: 0.05,
            row_critical_path: false,
            preprocess: 0.0,
        },
        "gespmm" => BaselineProfile {
            inst: 1.0,
            traffic: 0.9,
            imbalance: 0.5,
            row_critical_path: true,
            preprocess: 0.0,
        },
        "row-split" => BaselineProfile {
            inst: 1.9,
            traffic: 1.8,
            imbalance: 0.5,
            row_critical_path: true,
            preprocess: 0.0,
        },
        "merge-path" => BaselineProfile {
            inst: 1.25,
            traffic: 1.0,
            imbalance: 0.02,
            row_critical_path: false,
            preprocess: 0.2,
        },
        "aspt" => BaselineProfile {
            inst: 1.1,
            traffic: 0.85,
            imbalance: 0.1,
            row_critical_path: false,
            preprocess: 0.5,
        },
        "sputnik" => BaselineProfile {
            inst: 1.05,
            traffic: 0.95,
            imbalance: 0.2,
            row_critical_path: false,
            preprocess: 0.2,
        },
        "huang" => BaselineProfile {
            inst: 1.15,
            traffic: 1.0,
            imbalance: 0.08,
            row_critical_path: false,
            preprocess: 0.3,
        },
        "tcgnn" => BaselineProfile {
            inst: 0.8,
            traffic: tile_waste(8.0),
            imbalance: 0.1,
            row_critical_path: false,
            preprocess: 0.4,
        },
        "cusparse-blocked-ell" => BaselineProfile {
            inst: 0.9,
            traffic: tile_waste(16.0),
            imbalance: 0.1,
            row_critical_path: false,
            preprocess: 0.3,
        },
        // Unknown id: assume mediocre on everything so it never wins on
        // paper but still gets measured if the list is short.
        _ => BaselineProfile {
            inst: 1.5,
            traffic: 1.5,
            imbalance: 0.3,
            row_critical_path: false,
            preprocess: 0.0,
        },
    }
}

fn sddmm_profile(id: &str) -> BaselineProfile {
    match id {
        // Edge-parallel like HP but without shared-memory tiling or the
        // row-switch register reuse.
        "dgl-sddmm" => BaselineProfile {
            inst: 1.2,
            traffic: 1.15,
            imbalance: 0.05,
            row_critical_path: false,
            preprocess: 0.0,
        },
        // Row-per-warp with column-major A2 access.
        "cusparse-csr-sddmm" => BaselineProfile {
            inst: 1.4,
            traffic: 1.5,
            imbalance: 0.4,
            row_critical_path: true,
            preprocess: 0.0,
        },
        _ => BaselineProfile {
            inst: 1.5,
            traffic: 1.5,
            imbalance: 0.3,
            row_critical_path: false,
            preprocess: 0.0,
        },
    }
}

/// Generic estimate for a non-HP kernel from its profile. Baselines are
/// modelled as 8-warp blocks at moderate occupancy; their differentiation
/// comes from the profile knobs, not the launch geometry.
fn baseline_cycles(
    device: &DeviceSpec,
    fp: &GraphFingerprint,
    profile: &BaselineProfile,
) -> CostTerms {
    let warps = fp.rows.max(1) as u64; // one warp per row
    let nnz = fp.nnz as f64;
    let k = fp.k as f64;
    let res = KernelResources {
        warps_per_block: 8,
        registers_per_thread: 40,
        shared_mem_per_block: 8 * 1024,
    };
    let occ = occupancy_of(device, &res);
    let blocks = warps.div_ceil(8).max(1);

    let insts =
        (nnz * k / 32.0 + nnz * 2.0) * profile.inst * device.cost.issue + warps as f64 * 30.0;
    let bytes = 12.0 * nnz
        + 4.0 * nnz * k * l2_miss_factor(device, fp) * profile.traffic
        + 4.0 * fp.rows as f64 * k;
    let tail = tail_stretch(blocks, occ.full_wave_size);
    let CostTerms {
        mut compute,
        bandwidth,
    } = roofline(device, &occ, insts, tail, bytes);
    if profile.row_critical_path {
        // One warp walks the heaviest row alone: a hard floor on any
        // row-parallel kernel, however many rows run beside it.
        let critical = fp.max_degree as f64 * (k / 32.0 + 2.0) * device.cost.issue;
        compute = compute.max(critical);
    }
    // The imbalance penalty applies after the roofline: straggler warps on
    // skewed degree distributions idle compute *and* memory pipelines.
    // Scaling both terms by it keeps `cycles()` identical to the old
    // `max(...) * balance` formulation while preserving which side binds.
    let scale = (1.0 + profile.imbalance * fp.degree_cv) * (1.0 + profile.preprocess);
    CostTerms {
        compute: compute * scale,
        bandwidth: bandwidth * scale,
    }
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
/// spill through L2; the model charges the spill launches' overhead but
/// not their volume (the `Measured` strategy sees the real spill traffic).
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

    let spill_launches = if fp.max_degree > hpsparse_core::hp::fused_mha::SMEM_SCORE_CAP {
        2.0
    } else {
        0.0
    };
    roofline(device, &occ, insts, 1.0, bytes).cycles()
        + (1.0 + spill_launches) * LAUNCH_OVERHEAD_CYCLES as f64
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

fn spmm_terms(device: &DeviceSpec, fp: &GraphFingerprint, c: CandidateRef<'_>) -> CostTerms {
    match &c.config {
        Some(cfg) => hp_spmm_cycles(device, fp, cfg),
        None => baseline_cycles(device, fp, &spmm_profile(c.kernel_id, fp)),
    }
}

fn sddmm_terms(device: &DeviceSpec, fp: &GraphFingerprint, c: CandidateRef<'_>) -> CostTerms {
    match &c.config {
        Some(cfg) => hp_sddmm_cycles(device, fp, cfg),
        None => baseline_cycles(device, fp, &sddmm_profile(c.kernel_id)),
    }
}

fn sanitize(cycles: f64) -> f64 {
    if cycles.is_finite() {
        cycles.max(0.0)
    } else {
        f64::MAX / 4.0
    }
}

/// Estimated execution cycles for an SpMM candidate. Always finite and
/// non-negative, including for degenerate (empty) inputs.
pub fn spmm_cost<'a>(
    device: &DeviceSpec,
    fp: &GraphFingerprint,
    c: impl Into<CandidateRef<'a>>,
) -> f64 {
    sanitize(spmm_terms(device, fp, c.into()).cycles())
}

/// The analytic model's own verdict on which roofline side limits an SpMM
/// candidate — `"compute"` or `"DRAM bandwidth"`, the same labels the
/// profiler's attribution uses ([`hpsparse_sim::Bound::label`]). The
/// heuristic planner embeds this in its rationale; the measured planner
/// embeds the simulator-attributed verdict instead, so explanations and
/// profiles never drift apart silently.
///
/// [`hpsparse_sim::Bound::label`]: hpsparse_sim::Bound::label
pub fn spmm_bound_hint<'a>(
    device: &DeviceSpec,
    fp: &GraphFingerprint,
    c: impl Into<CandidateRef<'a>>,
) -> &'static str {
    spmm_terms(device, fp, c.into()).bound_label()
}

/// Estimated execution cycles for an SDDMM candidate.
pub fn sddmm_cost<'a>(
    device: &DeviceSpec,
    fp: &GraphFingerprint,
    c: impl Into<CandidateRef<'a>>,
) -> f64 {
    sanitize(sddmm_terms(device, fp, c.into()).cycles())
}

/// SDDMM twin of [`spmm_bound_hint`].
pub fn sddmm_bound_hint<'a>(
    device: &DeviceSpec,
    fp: &GraphFingerprint,
    c: impl Into<CandidateRef<'a>>,
) -> &'static str {
    sddmm_terms(device, fp, c.into()).bound_label()
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
                let cost = spmm_cost(&v100, &fp, &c);
                assert!(cost.is_finite() && cost >= 0.0, "{}: {cost}", c.kernel_id);
            }
            for c in sddmm_candidates(&v100, &fp) {
                let cost = sddmm_cost(&v100, &fp, &c);
                assert!(cost.is_finite() && cost >= 0.0, "{}: {cost}", c.kernel_id);
            }
        }
    }

    #[test]
    fn skew_penalises_row_parallel_kernels() {
        let v100 = DeviceSpec::v100();
        let uniform = fp(50_000, 500_000, 0.1, 15, 64);
        let skewed = fp(50_000, 500_000, 8.0, 40_000, 64);
        let row_split = Candidate {
            kernel_id: "row-split".into(),
            config: None,
        };
        let ratio_uniform = spmm_cost(&v100, &uniform, &row_split) / uniform.nnz as f64;
        let ratio_skewed = spmm_cost(&v100, &skewed, &row_split) / skewed.nnz as f64;
        assert!(
            ratio_skewed > 2.0 * ratio_uniform,
            "skew must hurt row-split: {ratio_skewed} vs {ratio_uniform}"
        );
    }

    #[test]
    fn hp_ranks_ahead_of_scalar_row_split_on_power_law() {
        let v100 = DeviceSpec::v100();
        let skewed = fp(50_000, 500_000, 4.0, 20_000, 64);
        let cands = spmm_candidates(&v100, &skewed);
        let auto = cands.iter().find(|c| c.kernel_id == "hp:auto").unwrap();
        let row_split = cands.iter().find(|c| c.kernel_id == "row-split").unwrap();
        assert!(
            spmm_cost(&v100, &skewed, auto) < spmm_cost(&v100, &skewed, row_split),
            "HP should beat scalar row-split on skewed graphs"
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
