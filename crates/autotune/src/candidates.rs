//! Candidate enumeration: the kernel space the planner searches.
//!
//! For SpMM the space is every HP-SpMM configuration the paper's DTP would
//! consider (one candidate per [`NNZ_PER_WARP_CANDIDATES`] entry, HVMA
//! vector width attached), the paper-auto configuration itself, and every
//! baseline in the `hpsparse-core` registry. HP candidates carry their
//! resolved [`HpConfig`] so a cached plan replays the exact launch
//! parameters that were chosen, not a re-derivation that could drift.

use hpsparse_core::baselines::{sddmm_by_id, spmm_by_id, SDDMM_IDS, SPMM_IDS};
use hpsparse_core::hp::config::{HpConfig, NNZ_PER_WARP_CANDIDATES};
use hpsparse_core::hp::{HpFusedMha, HpSddmm, HpSpmm};
use hpsparse_core::traits::{SddmmKernel, SpmmKernel};
use hpsparse_sim::DeviceSpec;

use crate::fingerprint::GraphFingerprint;

/// One point in the planner's search space: a kernel id plus, for HP
/// kernels, the fully resolved launch configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Registry id (`"gespmm"`, …) or an HP id (`"hp:npw=256"`,
    /// `"hp:auto"`, `"hp-sddmm:npw=64"`, `"hp-sddmm:auto"`).
    pub kernel_id: String,
    /// Resolved launch parameters for HP candidates; `None` for baselines
    /// (they configure themselves).
    pub config: Option<HpConfig>,
}

/// `prefix`-named HP candidates — one per [`NNZ_PER_WARP_CANDIDATES`] entry,
/// configured by `at`, then the paper-auto configuration — followed by the
/// registry baselines `ids`. Order is deterministic and id-stable.
fn hp_then_registry(
    prefix: &str,
    at: impl Fn(usize) -> HpConfig,
    auto: HpConfig,
    ids: &[&str],
) -> Vec<Candidate> {
    let hp = NNZ_PER_WARP_CANDIDATES.iter().map(|&npw| Candidate {
        kernel_id: format!("{prefix}:npw={npw}"),
        config: Some(at(npw)),
    });
    let auto = Candidate {
        kernel_id: format!("{prefix}:auto"),
        config: Some(auto),
    };
    let registry = ids.iter().map(|&id| Candidate {
        kernel_id: id.into(),
        config: None,
    });
    hp.chain([auto]).chain(registry).collect()
}

/// Enumerates the SpMM candidate space for a fingerprinted input: every
/// HP-SpMM configuration DTP would consider, HVMA vector width attached,
/// then the registry.
pub fn spmm_candidates(device: &DeviceSpec, fp: &GraphFingerprint) -> Vec<Candidate> {
    let auto = HpConfig::auto(device, fp.nnz, fp.rows, fp.k);
    hp_then_registry("hp", |npw| HpConfig::hvma_at(npw, fp.k), auto, &SPMM_IDS)
}

/// Enumerates the SDDMM candidate space: HP-SDDMM at every `NnzPerWarp`
/// plus the auto configuration ([`HpConfig::edge_parallel`], whose vector
/// width every candidate shares — it is set by K alone), then the registry.
pub fn sddmm_candidates(device: &DeviceSpec, fp: &GraphFingerprint) -> Vec<Candidate> {
    let auto = HpConfig::edge_parallel(device, fp.nnz, fp.rows, fp.k);
    let at = |npw| HpConfig {
        nnz_per_warp: npw,
        ..auto
    };
    hp_then_registry("hp-sddmm", at, auto, &SDDMM_IDS)
}

/// Candidate id of the fused one-launch attention kernel.
pub const MHA_FUSED_ID: &str = "hp-fused-mha:auto";
/// Candidate id of the unfused SDDMM → softmax → SpMM pipeline.
pub const MHA_UNFUSED_ID: &str = "mha-unfused:3-launch";

/// Enumerates the multi-head-attention candidate space — the fuse/no-fuse
/// knob. Exactly two points: the fused kernel (carrying the launch
/// configuration `HpFusedMha::auto` would derive, so a cached plan replays
/// it exactly) and the three-launch unfused pipeline. `fp.k` is the head
/// dimension.
pub fn mha_candidates(device: &DeviceSpec, fp: &GraphFingerprint) -> Vec<Candidate> {
    vec![
        Candidate {
            kernel_id: MHA_FUSED_ID.into(),
            config: Some(HpConfig::edge_parallel(device, fp.nnz, fp.rows, fp.k)),
        },
        Candidate {
            kernel_id: MHA_UNFUSED_ID.into(),
            config: None,
        },
    ]
}

/// Instantiates a fused-attention candidate. Returns `None` for the
/// unfused pipeline (the caller runs its SDDMM/SpMM plans instead) and for
/// unknown ids from stale caches.
pub fn instantiate_fused_mha(c: &Candidate) -> Option<HpFusedMha> {
    if c.kernel_id.starts_with("hp-fused-mha") {
        return c.config.map(HpFusedMha::new);
    }
    None
}

/// Instantiates an SpMM candidate as a runnable kernel. Returns `None` for
/// ids this build does not know (e.g. a plan cache written by a newer
/// version) — callers fall back to re-planning.
pub fn instantiate_spmm(c: &Candidate) -> Option<Box<dyn SpmmKernel>> {
    if c.kernel_id.starts_with("hp:") {
        return c
            .config
            .map(|cfg| Box::new(HpSpmm::new(cfg)) as Box<dyn SpmmKernel>);
    }
    spmm_by_id(&c.kernel_id)
}

/// Instantiates an SDDMM candidate as a runnable kernel.
pub fn instantiate_sddmm(c: &Candidate) -> Option<Box<dyn SddmmKernel>> {
    if c.kernel_id.starts_with("hp-sddmm:") {
        return c
            .config
            .map(|cfg| Box::new(HpSddmm::new(cfg)) as Box<dyn SddmmKernel>);
    }
    sddmm_by_id(&c.kernel_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp_for(rows: usize, cols: usize, nnz: usize, k: usize) -> GraphFingerprint {
        GraphFingerprint {
            rows,
            cols,
            nnz,
            mean_degree: nnz as f64 / rows.max(1) as f64,
            max_degree: (nnz as f64 / rows.max(1) as f64).ceil() as usize,
            degree_std: 0.0,
            degree_cv: 0.0,
            tail_heaviness: 1.0,
            k,
            device: "Tesla V100",
            num_sms: 80,
        }
    }

    #[test]
    fn spmm_space_covers_dtp_and_registry() {
        let v100 = DeviceSpec::v100();
        let cands = spmm_candidates(&v100, &fp_for(10_000, 10_000, 100_000, 64));
        assert_eq!(
            cands.len(),
            NNZ_PER_WARP_CANDIDATES.len() + 1 + SPMM_IDS.len()
        );
        assert!(cands.iter().any(|c| c.kernel_id == "hp:auto"));
        assert!(cands.iter().any(|c| c.kernel_id == "hp:npw=512"));
        assert!(cands.iter().any(|c| c.kernel_id == "gespmm"));
        // Every candidate instantiates.
        for c in &cands {
            assert!(
                instantiate_spmm(c).is_some(),
                "{} must instantiate",
                c.kernel_id
            );
        }
        // HVMA widths attached per the paper's table, capped by K=64.
        let npw512 = cands.iter().find(|c| c.kernel_id == "hp:npw=512").unwrap();
        assert_eq!(
            npw512.config.unwrap().vector_width,
            2,
            "K/32 caps float4 to float2"
        );
        let npw8 = cands.iter().find(|c| c.kernel_id == "hp:npw=8").unwrap();
        assert_eq!(npw8.config.unwrap().vector_width, 1);
    }

    #[test]
    fn sddmm_space_covers_hp_and_registry() {
        let v100 = DeviceSpec::v100();
        let cands = sddmm_candidates(&v100, &fp_for(10_000, 10_000, 100_000, 64));
        assert_eq!(
            cands.len(),
            NNZ_PER_WARP_CANDIDATES.len() + 1 + SDDMM_IDS.len()
        );
        for c in &cands {
            assert!(
                instantiate_sddmm(c).is_some(),
                "{} must instantiate",
                c.kernel_id
            );
        }
        let auto = cands
            .iter()
            .find(|c| c.kernel_id == "hp-sddmm:auto")
            .unwrap();
        assert_eq!(
            auto.config.unwrap().vector_width,
            2,
            "K=64 → float2 per Algorithm 4"
        );
    }

    #[test]
    fn hp_auto_candidate_matches_paper_selector() {
        let v100 = DeviceSpec::v100();
        let fp = fp_for(5_000, 5_000, 60_000, 128);
        let cands = spmm_candidates(&v100, &fp);
        let auto = cands.iter().find(|c| c.kernel_id == "hp:auto").unwrap();
        assert_eq!(
            auto.config.unwrap(),
            HpConfig::auto(&v100, fp.nnz, fp.rows, fp.k),
        );
    }

    #[test]
    fn unknown_candidate_ids_do_not_instantiate() {
        let c = Candidate {
            kernel_id: "from-the-future".into(),
            config: None,
        };
        assert!(instantiate_spmm(&c).is_none());
        assert!(instantiate_sddmm(&c).is_none());
        assert!(instantiate_fused_mha(&c).is_none());
    }

    #[test]
    fn mha_space_is_the_fuse_no_fuse_pair() {
        let v100 = DeviceSpec::v100();
        let fp = fp_for(10_000, 10_000, 100_000, 64);
        let cands = mha_candidates(&v100, &fp);
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].kernel_id, MHA_FUSED_ID);
        assert_eq!(cands[1].kernel_id, MHA_UNFUSED_ID);
        // The fused candidate carries the exact configuration
        // `HpFusedMha::auto` derives (vector width from the head dim).
        let cfg = cands[0].config.expect("fused candidate is configured");
        assert_eq!(cfg.vector_width, 2, "head dim 64 → float2");
        assert!(instantiate_fused_mha(&cands[0]).is_some());
        assert!(instantiate_fused_mha(&cands[1]).is_none());
    }
}
