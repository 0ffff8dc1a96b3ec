//! Candidate enumeration: the kernel space the planner searches.
//!
//! The space is the paper's kernel and its own tuning knob (§III-B): for
//! SpMM every HP-SpMM configuration DTP would consider (one candidate per
//! [`NNZ_PER_WARP_CANDIDATES`] entry, HVMA vector width attached) plus the
//! paper-auto configuration itself, for SDDMM the same over HP-SDDMM, and
//! for attention the fused kernel or the unfused pipeline. The registry
//! baselines are not candidates; `instantiate_*` still resolves their ids,
//! so a persisted plan that names one replays. HP candidates carry their
//! resolved [`HpConfig`] so a cached plan replays the exact launch
//! parameters that were chosen, not a re-derivation that could drift.

use hpsparse_core::baselines::{sddmm_by_id, spmm_by_id};
use hpsparse_core::catalog::Op;
use hpsparse_core::hp::config::{HpConfig, NNZ_PER_WARP_CANDIDATES};
use hpsparse_core::hp::{HpFusedMha, HpSddmm, HpSpmm};
use hpsparse_core::traits::{SddmmKernel, SpmmKernel};
use hpsparse_sim::DeviceSpec;

use crate::fingerprint::GraphFingerprint;
use crate::planner::Plan;

/// One point in the planner's search space: a kernel id plus, for HP
/// kernels, the fully resolved launch configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// An HP id (`"hp:npw=256"`, `"hp:auto"`, `"hp-sddmm:npw=64"`,
    /// `"hp-sddmm:auto"`), an attention id ([`MHA_FUSED_ID`],
    /// [`MHA_UNFUSED_ID`]), or — in a persisted plan — a registry id
    /// (`"gespmm"`, …).
    pub kernel_id: String,
    /// Resolved launch parameters for HP candidates; `None` for the
    /// unfused pipeline and registry baselines (they configure themselves).
    pub config: Option<HpConfig>,
}

/// A [`Candidate`] borrowed: what the cost model ranks and the
/// `instantiate_*` functions read. Enumeration yields
/// `CandidateRef<'static>` — every id is a fixed string — so scanning a
/// candidate space allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateRef<'a> {
    /// The candidate's id, as in [`Candidate::kernel_id`].
    pub kernel_id: &'a str,
    /// The candidate's configuration, as in [`Candidate::config`].
    pub config: Option<HpConfig>,
}

impl<'a> From<&'a Candidate> for CandidateRef<'a> {
    fn from(c: &'a Candidate) -> Self {
        Self {
            kernel_id: &c.kernel_id,
            config: c.config,
        }
    }
}

impl<'a> From<&'a Plan> for CandidateRef<'a> {
    fn from(plan: &'a Plan) -> Self {
        Self {
            kernel_id: &plan.kernel_id,
            config: plan.config,
        }
    }
}

impl From<CandidateRef<'_>> for Candidate {
    fn from(c: CandidateRef<'_>) -> Self {
        Self {
            kernel_id: c.kernel_id.into(),
            config: c.config,
        }
    }
}

/// HP-SpMM candidate ids, one per [`NNZ_PER_WARP_CANDIDATES`] entry, in
/// its order (`hp:npw={npw}`).
const HP_SPMM_IDS: [&str; NNZ_PER_WARP_CANDIDATES.len()] = [
    "hp:npw=512",
    "hp:npw=256",
    "hp:npw=128",
    "hp:npw=64",
    "hp:npw=32",
    "hp:npw=8",
];

/// HP-SDDMM candidate ids, likewise (`hp-sddmm:npw={npw}`).
const HP_SDDMM_IDS: [&str; NNZ_PER_WARP_CANDIDATES.len()] = [
    "hp-sddmm:npw=512",
    "hp-sddmm:npw=256",
    "hp-sddmm:npw=128",
    "hp-sddmm:npw=64",
    "hp-sddmm:npw=32",
    "hp-sddmm:npw=8",
];

/// `op`'s candidate space for `fp`, in its fixed enumeration order: the HP
/// candidates at every [`NNZ_PER_WARP_CANDIDATES`] entry, the auto
/// configuration, then, for attention, the unfused pipeline.
pub(crate) fn space(
    op: Op,
    device: &DeviceSpec,
    fp: &GraphFingerprint,
) -> impl Iterator<Item = CandidateRef<'static>> {
    let k = fp.k;
    let edge_parallel = || HpConfig::edge_parallel(device, fp.nnz, fp.rows, k);
    let (hp_ids, auto_id, auto): (&[&str], _, _) = match op {
        Op::Spmm => (
            &HP_SPMM_IDS,
            "hp:auto",
            HpConfig::auto(device, fp.nnz, fp.rows, k),
        ),
        Op::Sddmm => (&HP_SDDMM_IDS, "hp-sddmm:auto", edge_parallel()),
        // The fused kernel carries the configuration `HpFusedMha::auto`
        // would derive, so a cached plan replays it exactly.
        Op::FusedMha => (&[], MHA_FUSED_ID, edge_parallel()),
    };
    let hp = NNZ_PER_WARP_CANDIDATES.iter().zip(hp_ids);
    let hp = hp.map(move |(&npw, &kernel_id)| CandidateRef {
        kernel_id,
        // SDDMM's vector width is set by K alone, so every candidate
        // shares the auto configuration's.
        config: Some(match op {
            Op::Spmm => HpConfig::hvma_at(npw, k),
            _ => HpConfig {
                nnz_per_warp: npw,
                ..auto
            },
        }),
    });
    let auto = CandidateRef {
        kernel_id: auto_id,
        config: Some(auto),
    };
    let unfused = (op == Op::FusedMha).then_some(CandidateRef {
        kernel_id: MHA_UNFUSED_ID,
        config: None,
    });
    hp.chain([auto]).chain(unfused)
}

/// Enumerates the SpMM candidate space for a fingerprinted input: every
/// HP-SpMM configuration DTP would consider, HVMA vector width attached,
/// then the paper-auto configuration.
pub fn spmm_candidates(device: &DeviceSpec, fp: &GraphFingerprint) -> Vec<Candidate> {
    space(Op::Spmm, device, fp).map(Candidate::from).collect()
}

/// Enumerates the SDDMM candidate space: HP-SDDMM at every `NnzPerWarp`
/// plus the auto configuration ([`HpConfig::edge_parallel`], whose vector
/// width every candidate shares — it is set by K alone).
pub fn sddmm_candidates(device: &DeviceSpec, fp: &GraphFingerprint) -> Vec<Candidate> {
    space(Op::Sddmm, device, fp).map(Candidate::from).collect()
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
    space(Op::FusedMha, device, fp)
        .map(Candidate::from)
        .collect()
}

/// Instantiates a fused-attention candidate. Returns `None` for the
/// unfused pipeline (the caller runs its SDDMM/SpMM plans instead) and for
/// unknown ids from stale caches.
pub fn instantiate_fused_mha<'a>(c: impl Into<CandidateRef<'a>>) -> Option<HpFusedMha> {
    let c = c.into();
    if c.kernel_id.starts_with("hp-fused-mha") {
        return c.config.map(HpFusedMha::new);
    }
    None
}

/// Instantiates an SpMM candidate as a runnable kernel: an HP id at its
/// configuration, or a registry id (a persisted plan may name one).
/// Returns `None` for ids this build does not know (e.g. a plan cache
/// written by a newer version) — callers fall back to re-planning.
pub fn instantiate_spmm<'a>(c: impl Into<CandidateRef<'a>>) -> Option<Box<dyn SpmmKernel>> {
    let c = c.into();
    if c.kernel_id.starts_with("hp:") {
        return c
            .config
            .map(|cfg| Box::new(HpSpmm::new(cfg)) as Box<dyn SpmmKernel>);
    }
    spmm_by_id(c.kernel_id)
}

/// Instantiates an SDDMM candidate as a runnable kernel.
pub fn instantiate_sddmm<'a>(c: impl Into<CandidateRef<'a>>) -> Option<Box<dyn SddmmKernel>> {
    let c = c.into();
    if c.kernel_id.starts_with("hp-sddmm:") {
        return c
            .config
            .map(|cfg| Box::new(HpSddmm::new(cfg)) as Box<dyn SddmmKernel>);
    }
    sddmm_by_id(c.kernel_id)
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

    /// The SpMM space is HP-SpMM at every `NnzPerWarp` plus auto, each
    /// configured; a registry id is no candidate but still instantiates.
    #[test]
    fn spmm_space_is_hp_at_every_npw_and_auto() {
        let v100 = DeviceSpec::v100();
        let cands = spmm_candidates(&v100, &fp_for(10_000, 10_000, 100_000, 64));
        let ids: Vec<&str> = cands.iter().map(|c| c.kernel_id.as_str()).collect();
        assert_eq!(ids[..HP_SPMM_IDS.len()], HP_SPMM_IDS);
        assert_eq!(ids[HP_SPMM_IDS.len()..], ["hp:auto"]);
        for c in &cands {
            assert!(c.config.is_some(), "{} is configured", c.kernel_id);
            assert!(
                instantiate_spmm(c).is_some(),
                "{} must instantiate",
                c.kernel_id
            );
        }
        // HVMA widths attached per the paper's table, capped by K=64.
        assert_eq!(
            cands[0].config.unwrap().vector_width,
            2,
            "K/32 caps float4 to float2"
        );
        assert_eq!(cands[5].config.unwrap().vector_width, 1, "npw=8 is scalar");
        for id in hpsparse_core::baselines::SPMM_IDS {
            let c = Candidate {
                kernel_id: id.into(),
                config: None,
            };
            assert!(instantiate_spmm(&c).is_some(), "{id} replays");
        }
    }

    /// The SDDMM space likewise, over HP-SDDMM.
    #[test]
    fn sddmm_space_is_hp_sddmm_at_every_npw_and_auto() {
        let v100 = DeviceSpec::v100();
        let cands = sddmm_candidates(&v100, &fp_for(10_000, 10_000, 100_000, 64));
        let ids: Vec<&str> = cands.iter().map(|c| c.kernel_id.as_str()).collect();
        assert_eq!(ids[..HP_SDDMM_IDS.len()], HP_SDDMM_IDS);
        assert_eq!(ids[HP_SDDMM_IDS.len()..], ["hp-sddmm:auto"]);
        for c in &cands {
            assert!(
                instantiate_sddmm(c).is_some(),
                "{} must instantiate",
                c.kernel_id
            );
        }
        assert_eq!(
            cands[6].config.unwrap().vector_width,
            2,
            "K=64 → float2 per Algorithm 4"
        );
        for id in hpsparse_core::baselines::SDDMM_IDS {
            let c = Candidate {
                kernel_id: id.into(),
                config: None,
            };
            assert!(instantiate_sddmm(&c).is_some(), "{id} replays");
        }
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

    /// The fixed id tables spell what `format!` would, and every space's
    /// ids are distinct.
    #[test]
    fn hp_ids_are_the_formatted_ones_and_ids_are_unique() {
        for (i, npw) in NNZ_PER_WARP_CANDIDATES.into_iter().enumerate() {
            assert_eq!(HP_SPMM_IDS[i], format!("hp:npw={npw}"));
            assert_eq!(HP_SDDMM_IDS[i], format!("hp-sddmm:npw={npw}"));
        }
        let v100 = DeviceSpec::v100();
        let fp = fp_for(1_000, 1_000, 9_000, 32);
        for op in [Op::Spmm, Op::Sddmm, Op::FusedMha] {
            let mut ids: Vec<&str> = space(op, &v100, &fp).map(|c| c.kernel_id).collect();
            let n = ids.len();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), n, "{op:?}");
        }
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
