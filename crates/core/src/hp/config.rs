//! Task-granularity selection: Dynamic Task Partition and Hierarchical
//! Vectorized Memory Access (§III-B of the paper).
//!
//! The single tunable of the hybrid-parallel strategy is `NnzPerWarp`.
//! DTP bounds it from above so the launch produces at least
//! `alpha × FullWaveSize` thread blocks (Ineq. 5) — enough waves to bury
//! the tail effect. HVMA then snaps it to the candidate set
//! `{8, 32, 64, 128, 256, 512}` so each warp's sparse-tile loads start at
//! vector-aligned addresses, enabling `int2/float2` (64 ≤ npw < 128) or
//! `int4/float4` (npw ≥ 128) instructions.

use hpsparse_sim::{occupancy_of, DeviceSpec, KernelResources};
use hpsparse_sparse::FormatError;

/// The paper's candidate set for `NnzPerWarp` (§III-B2).
pub const NNZ_PER_WARP_CANDIDATES: [usize; 6] = [512, 256, 128, 64, 32, 8];

/// Default wave-count scale factor `alpha` in Ineq. 5: at least four full
/// waves of blocks, enough that the partial last wave is noise.
pub const DEFAULT_ALPHA: f64 = 4.0;

/// Warps per thread block used by both HP kernels.
pub const WARPS_PER_BLOCK: u32 = 8;

/// Resolved launch parameters for an HP kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HpConfig {
    /// Non-zero elements assigned to each warp (`NnzPerWarp`).
    pub nnz_per_warp: usize,
    /// Vector width for global loads (1 = scalar, 2 = `float2`,
    /// 4 = `float4`).
    pub vector_width: u32,
    /// Warps per thread block.
    pub warps_per_block: u32,
    /// The `alpha` used when the config was derived (recorded for
    /// reports).
    pub alpha: f64,
}

/// Widest vector load `x` consecutive 4-byte elements support:
/// `int4/float4` from 128 up, `int2/float2` from 64, scalar below
/// (§III-B2).
fn width_at(x: usize) -> u32 {
    if x >= 128 {
        4
    } else if x >= 64 {
        2
    } else {
        1
    }
}

/// Vector width HVMA associates with an `NnzPerWarp` value at feature
/// width `k`: the width the sparse tile supports, capped by what `k` does —
/// a warp covers `32 × vw` columns, so a width beyond `K/32` would leave
/// lanes idle.
fn hvma_vector_width(nnz_per_warp: usize, k: usize) -> u32 {
    width_at(nnz_per_warp).min(width_at(k))
}

impl HpConfig {
    /// Per-block resources of the HP kernels at this configuration: the
    /// sparse tile (3 arrays × `32·vw` elements × 4 B per warp) lives in
    /// shared memory, and register pressure grows with the vector width
    /// and the feature dimension (each lane keeps `vw` accumulators plus
    /// per-K bookkeeping — §IV-F: "the threads in our kernel consume more
    /// registers than GE-SpMM", and register scarcity is what erodes the
    /// speedup at large K).
    pub fn resources(&self, k: usize) -> KernelResources {
        let tile_elems = 32 * self.vector_width;
        KernelResources {
            warps_per_block: self.warps_per_block,
            registers_per_thread: (28 + 6 * self.vector_width + k as u32 / 6).min(255),
            shared_mem_per_block: 3 * tile_elems * 4 * self.warps_per_block,
        }
    }

    /// Number of element chunks (`ceil(NNZ / NnzPerWarp)`).
    pub fn num_chunks(&self, nnz: usize) -> u64 {
        (nnz as u64).div_ceil(self.nnz_per_warp.max(1) as u64)
    }

    /// Number of K-slices a warp of this width covers.
    pub fn k_slices(&self, k: usize) -> u64 {
        (k as u64).div_ceil(32 * self.vector_width as u64)
    }

    /// Total warps of an HP-SpMM launch (chunks × K-slices).
    pub fn spmm_warps(&self, nnz: usize, k: usize) -> u64 {
        self.num_chunks(nnz) * self.k_slices(k)
    }

    /// Blocks of an HP-SpMM launch.
    pub fn spmm_blocks(&self, nnz: usize, k: usize) -> u64 {
        self.spmm_warps(nnz, k)
            .div_ceil(self.warps_per_block as u64)
    }

    /// The *naive* configuration the paper calls the common pitfall
    /// (§III-B1): `NnzPerWarp = NNZ / M`, scalar loads. This is the
    /// ablation baseline "hybrid-parallel only".
    pub fn base(nnz: usize, rows: usize) -> Self {
        Self {
            nnz_per_warp: (nnz / rows.max(1)).max(1),
            vector_width: 1,
            warps_per_block: WARPS_PER_BLOCK,
            alpha: DEFAULT_ALPHA,
        }
    }

    /// DTP only: shrink `NnzPerWarp` (starting from `NNZ / M`) until the
    /// launch satisfies Ineq. 5, keeping scalar loads.
    pub fn with_dtp(device: &DeviceSpec, nnz: usize, rows: usize, k: usize) -> Self {
        let mut cfg = Self::base(nnz, rows);
        let needed = Self::alpha_wave_blocks(device, &cfg, k);
        // blocks = ceil(chunks·k_slices / wpb) ≥ needed
        // ⇒ npw ≤ nnz·k_slices / (needed·wpb)
        let k_slices = cfg.k_slices(k);
        let bound = (nnz as u64 * k_slices) / (needed.max(1) * cfg.warps_per_block as u64).max(1);
        cfg.nnz_per_warp = cfg.nnz_per_warp.min((bound as usize).max(1));
        cfg
    }

    /// HVMA only: snap `NNZ / M` to the candidate set (aligned tiles,
    /// vectorized loads) without the wave constraint.
    pub fn with_hvma(nnz: usize, rows: usize, k: usize) -> Self {
        let base = (nnz / rows.max(1)).max(1);
        let npw = NNZ_PER_WARP_CANDIDATES
            .iter()
            .copied()
            .find(|&c| c <= base)
            .unwrap_or(8);
        Self::hvma_at(npw, k)
    }

    /// The HVMA configuration at one `NnzPerWarp`: its vector width at
    /// feature width `k`, the default block shape and `alpha`.
    pub fn hvma_at(nnz_per_warp: usize, k: usize) -> Self {
        Self {
            nnz_per_warp,
            vector_width: hvma_vector_width(nnz_per_warp, k),
            warps_per_block: WARPS_PER_BLOCK,
            alpha: DEFAULT_ALPHA,
        }
    }

    /// DTP + HVMA, the paper's full selection rule: take the **largest**
    /// candidate whose launch still satisfies Ineq. 5 at that candidate's
    /// vector width; fall back to the smallest candidate when the graph is
    /// too small for any to produce `alpha` full waves.
    pub fn auto(device: &DeviceSpec, nnz: usize, rows: usize, k: usize) -> Self {
        Self::auto_with_alpha(device, nnz, rows, k, DEFAULT_ALPHA)
    }

    /// [`HpConfig::auto`] with an explicit `alpha`.
    pub fn auto_with_alpha(
        device: &DeviceSpec,
        nnz: usize,
        rows: usize,
        k: usize,
        alpha: f64,
    ) -> Self {
        let _ = rows;
        let at = |npw| Self {
            alpha,
            ..Self::hvma_at(npw, k)
        };
        NNZ_PER_WARP_CANDIDATES
            .iter()
            .map(|&candidate| at(candidate))
            .find(|cfg| cfg.spmm_blocks(nnz, k) >= Self::alpha_wave_blocks(device, cfg, k))
            .unwrap_or_else(|| at(*NNZ_PER_WARP_CANDIDATES.last().unwrap()))
    }

    /// The selection rule of the edge-parallel kernels (HP-SDDMM, fused
    /// attention). A warp reduces across all of K, so there is no
    /// K-slicing: DTP is evaluated with `k_slices = 1`, which `k = 32`
    /// achieves. The vector width is set by K alone: feature-row reads are
    /// contiguous K-float spans from 256-byte-aligned bases, so they
    /// vectorise however the sparse tile is aligned.
    pub fn edge_parallel(device: &DeviceSpec, nnz: usize, rows: usize, k: usize) -> Self {
        Self {
            vector_width: width_at(k),
            ..Self::auto(device, nnz, rows, 32)
        }
    }

    /// Whether a kernel can launch with this configuration. Every
    /// constructor here satisfies it; a hand-built one or one from outside
    /// the program (a plan-cache file) may not, and a kernel's tile and
    /// block arithmetic divides and steps by these fields.
    pub fn is_launchable(&self) -> bool {
        matches!(self.vector_width, 1 | 2 | 4)
            && self.nnz_per_warp >= 1
            && (1..=32).contains(&self.warps_per_block)
            && self.alpha.is_finite()
            && self.alpha > 0.0
    }

    /// What every HP cost walk checks first: the per-block `resources` it
    /// launches with, or a typed error for `kernel` instead of a division
    /// by zero, a loop that never advances, an occupancy panic further in,
    /// or a launch whose blocks fit no SM of `device`.
    pub fn check_launchable(
        &self,
        kernel: &'static str,
        device: &DeviceSpec,
        resources: impl FnOnce() -> KernelResources,
    ) -> Result<KernelResources, FormatError> {
        if self.is_launchable() {
            let res = resources();
            if occupancy_of(device, &res).active_blocks_per_sm > 0 {
                return Ok(res);
            }
        }
        Err(FormatError::InvalidConfig { context: kernel })
    }

    /// `alpha × FullWaveSize` — the block count Ineq. 5 demands.
    fn alpha_wave_blocks(device: &DeviceSpec, cfg: &Self, k: usize) -> u64 {
        let occ = occupancy_of(device, &cfg.resources(k));
        (cfg.alpha * occ.full_wave_size as f64).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hvma_widths_follow_the_paper() {
        assert_eq!(hvma_vector_width(8, 512), 1);
        assert_eq!(hvma_vector_width(32, 512), 1);
        assert_eq!(hvma_vector_width(64, 512), 2);
        assert_eq!(hvma_vector_width(128, 512), 4);
        assert_eq!(hvma_vector_width(512, 512), 4);
    }

    #[test]
    fn hvma_width_is_the_k_over_32_cap_snapped_to_a_supported_width() {
        for npw in [1, 8, 63, 64, 127, 128, 512] {
            let uncapped = hvma_vector_width(npw, usize::MAX);
            for k in 0..300 {
                let mut want = uncapped.min((k / 32).max(1) as u32);
                while !matches!(want, 1 | 2 | 4) {
                    want -= 1;
                }
                assert_eq!(hvma_vector_width(npw, k), want, "npw={npw} k={k}");
            }
        }
    }

    #[test]
    fn edge_parallel_is_dtp_at_one_k_slice_with_the_width_from_k() {
        let v100 = DeviceSpec::v100();
        for (nnz, rows) in [(0, 0), (20_000, 3_000), (50_000_000, 1_000_000)] {
            for (k, vw) in [(0, 1), (33, 1), (64, 2), (127, 2), (128, 4), (512, 4)] {
                let cfg = HpConfig::edge_parallel(&v100, nnz, rows, k);
                let dtp = HpConfig::auto(&v100, nnz, rows, 32);
                assert_eq!(cfg.vector_width, vw, "k={k}");
                assert_eq!(cfg.nnz_per_warp, dtp.nnz_per_warp);
                assert!(cfg.is_launchable() && dtp.is_launchable());
            }
        }
    }

    #[test]
    fn unlaunchable_configs_are_recognised() {
        let ok = HpConfig::base(1000, 100);
        assert!(ok.is_launchable());
        for bad in [
            HpConfig {
                vector_width: 0,
                ..ok
            },
            HpConfig {
                vector_width: 3,
                ..ok
            },
            HpConfig {
                nnz_per_warp: 0,
                ..ok
            },
            HpConfig {
                warps_per_block: 0,
                ..ok
            },
            HpConfig {
                warps_per_block: 33,
                ..ok
            },
            HpConfig { alpha: 0.0, ..ok },
            HpConfig {
                alpha: f64::NAN,
                ..ok
            },
            HpConfig {
                alpha: f64::INFINITY,
                ..ok
            },
        ] {
            assert!(!bad.is_launchable(), "{bad:?}");
        }
    }

    #[test]
    fn base_config_is_nnz_over_m() {
        let cfg = HpConfig::base(1000, 100);
        assert_eq!(cfg.nnz_per_warp, 10);
        assert_eq!(cfg.vector_width, 1);
        let cfg = HpConfig::base(10, 100);
        assert_eq!(cfg.nnz_per_warp, 1); // clamped up
    }

    #[test]
    fn auto_picks_large_candidate_for_big_graphs() {
        let v100 = DeviceSpec::v100();
        // 50M nnz: plenty of blocks even at npw = 512.
        let cfg = HpConfig::auto(&v100, 50_000_000, 1_000_000, 64);
        assert_eq!(cfg.nnz_per_warp, 512);
        assert_eq!(cfg.vector_width, 2); // capped by K=64
    }

    #[test]
    fn auto_vector_width_uses_k128() {
        let v100 = DeviceSpec::v100();
        let cfg = HpConfig::auto(&v100, 50_000_000, 1_000_000, 128);
        assert_eq!(cfg.vector_width, 4);
    }

    #[test]
    fn auto_shrinks_for_small_graphs() {
        let v100 = DeviceSpec::v100();
        // A sampled subgraph: 20k edges.
        let cfg = HpConfig::auto(&v100, 20_000, 3_000, 64);
        assert!(
            cfg.nnz_per_warp <= 32,
            "expected small npw, got {}",
            cfg.nnz_per_warp
        );
    }

    #[test]
    fn auto_satisfies_wave_constraint_when_picked() {
        let v100 = DeviceSpec::v100();
        let nnz = 5_000_000;
        let cfg = HpConfig::auto(&v100, nnz, 100_000, 64);
        let occ = occupancy_of(&v100, &cfg.resources(64));
        let blocks = cfg.spmm_blocks(nnz, 64);
        assert!(
            blocks as f64 >= cfg.alpha * occ.full_wave_size as f64,
            "blocks {blocks} vs needed {}",
            cfg.alpha * occ.full_wave_size as f64
        );
    }

    #[test]
    fn dtp_reduces_npw_when_parallelism_is_scarce() {
        let v100 = DeviceSpec::v100();
        // DDI-like: few nodes, many edges — NNZ/M is huge.
        let base = HpConfig::base(2_140_089, 4_267);
        assert!(base.nnz_per_warp > 400);
        let dtp = HpConfig::with_dtp(&v100, 2_140_089, 4_267, 64);
        assert!(
            dtp.nnz_per_warp < base.nnz_per_warp,
            "DTP should shrink npw: {} -> {}",
            base.nnz_per_warp,
            dtp.nnz_per_warp
        );
        assert_eq!(dtp.vector_width, 1); // DTP alone keeps scalar loads
    }

    #[test]
    fn hvma_snaps_to_candidates() {
        let cfg = HpConfig::with_hvma(1_000_000, 10_000, 64); // base = 100
        assert_eq!(cfg.nnz_per_warp, 64);
        assert_eq!(cfg.vector_width, 2);
        let cfg = HpConfig::with_hvma(1_000_000, 2_000, 64); // base = 500
        assert_eq!(cfg.nnz_per_warp, 256);
    }

    #[test]
    fn warp_and_block_arithmetic() {
        let cfg = HpConfig {
            nnz_per_warp: 64,
            vector_width: 2,
            warps_per_block: 8,
            alpha: 2.0,
        };
        assert_eq!(cfg.num_chunks(1000), 16);
        assert_eq!(cfg.k_slices(64), 1);
        assert_eq!(cfg.k_slices(128), 2);
        assert_eq!(cfg.spmm_warps(1000, 128), 32);
        assert_eq!(cfg.spmm_blocks(1000, 128), 4);
    }

    #[test]
    fn small_k_caps_vector_width() {
        let v100 = DeviceSpec::v100();
        let cfg = HpConfig::auto(&v100, 50_000_000, 1_000_000, 32);
        assert_eq!(cfg.vector_width, 1);
    }

    #[test]
    fn resources_scale_with_vector_width() {
        let narrow = HpConfig {
            nnz_per_warp: 32,
            vector_width: 1,
            warps_per_block: 8,
            alpha: 2.0,
        }
        .resources(64);
        let wide = HpConfig {
            nnz_per_warp: 128,
            vector_width: 4,
            warps_per_block: 8,
            alpha: 2.0,
        }
        .resources(64);
        assert!(wide.registers_per_thread > narrow.registers_per_thread);
        assert!(wide.shared_mem_per_block > narrow.shared_mem_per_block);
    }
}
