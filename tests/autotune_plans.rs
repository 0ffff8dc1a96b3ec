//! Tier-1 witness for the autotuner, so that a moved plan fails the root
//! test suite: the default `Measured` strategy's SpMM and SDDMM
//! plans on one quick registry graph keep the
//! kernel and cycles recorded before the planner learned to stop walking
//! candidates that cannot win (commit 243ff82 — never re-record them to
//! make a change pass), and each equals an exhaustive oracle that walks
//! every candidate to completion. The simulator-launch count and the
//! rationale (which quotes it) were re-recorded twice: when the planner
//! stopped walking a candidate whose configuration an earlier-ranked one
//! carried (`hp:auto` and its `hp:npw=…` twin), one walk fewer per plan;
//! and when the candidate space became the paper's kernel alone (the
//! registry baselines left it, and with them the twelve-candidate
//! shortlist), six walks per plan.

use hpsparse::autotune::{
    instantiate_sddmm, instantiate_spmm, sddmm_candidates, sddmm_cost, spmm_candidates, spmm_cost,
    Candidate, GraphFingerprint, Plan, PlanStrategy, Planner,
};
use hpsparse::datasets::{registry, store};
use hpsparse::kernels::traits::Launches;
use hpsparse::sim::DeviceSpec;
use hpsparse::sparse::Hybrid;

const K: usize = 64;

/// `(kernel id, predicted cycles, FNV-1a of the rationale, sim launches)`
/// for SpMM then SDDMM on arxiv capped at 16 k edges, K = 64, V100 — ids
/// and cycles recorded on commit 243ff82, launches and rationale when the
/// twin walk went (12 → 11 and 9 → 8 launches) and again when the space
/// became HP alone (11 → 6 and 8 → 6).
const RECORDED: [(&str, u64, u64, u64); 2] = [
    ("hp:npw=32", 6010, 0xe1b7_52c8_4c1a_5846, 6),
    ("hp-sddmm:npw=8", 6076, 0xa46a_d702_5132_ef3f, 6),
];

fn graph() -> Hybrid {
    let spec = registry::by_name("arxiv").expect("arxiv is a registry graph");
    store::graph(&spec, 16_000).to_hybrid()
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The exhaustive oracle: every candidate in analytic-estimate order
/// (stable on ties), each walked to completion on a cold simulator unless
/// an earlier one carried the same kernel family and configuration; the
/// first strictly cheapest in rank order wins. Returns the winner's id, its
/// cycles and the walks.
fn oracle(device: &DeviceSpec, s: &Hybrid, sddmm: bool) -> (String, u64, u64) {
    assert_eq!(PlanStrategy::default(), PlanStrategy::Measured);
    let fp = GraphFingerprint::of(s, K, device);
    let cost = |c: &Candidate| {
        let cfg = c.config.expect("every candidate is configured");
        if sddmm {
            sddmm_cost(device, &fp, &cfg)
        } else {
            spmm_cost(device, &fp, &cfg)
        }
    };
    let cands = if sddmm {
        sddmm_candidates(device, &fp)
    } else {
        spmm_candidates(device, &fp)
    };
    let mut ranked: Vec<(f64, Candidate)> = cands.into_iter().map(|c| (cost(&c), c)).collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut best: Option<(String, u64)> = None;
    let mut walks = 0;
    let mut walked = Vec::new();
    for (_, c) in &ranked {
        let twin = (c.kernel_id.split(':').next(), c.config);
        if c.config.is_some() && walked.contains(&twin) {
            continue;
        }
        walked.push(twin);
        let cost = if sddmm {
            instantiate_sddmm(c).and_then(|k| k.cost(device, s, K).ok())
        } else {
            instantiate_spmm(c).and_then(|k| k.cost(device, s, K).ok())
        };
        let Some(cost) = cost else { continue };
        walks += 1;
        let cycles = Launches::from(cost).cycles();
        if best.as_ref().is_none_or(|(_, b)| cycles < *b) {
            best = Some((c.kernel_id.clone(), cycles));
        }
    }
    let (id, cycles) = best.expect("the space is measurable");
    (id, cycles, walks)
}

#[test]
fn default_measured_plans_keep_their_recorded_bytes_and_match_the_exhaustive_oracle() {
    let device = DeviceSpec::v100();
    let s = graph();
    let mut planner = Planner::new(device.clone(), PlanStrategy::default());
    let mut got = Vec::new();
    for sddmm in [false, true] {
        let before = planner.sim_launches();
        let plan: Plan = if sddmm {
            planner.plan_sddmm(&s, K)
        } else {
            planner.plan_spmm(&s, K)
        };
        let launches = planner.sim_launches() - before;
        let (id, cycles, walks) = oracle(&device, &s, sddmm);
        assert_eq!(
            (plan.kernel_id.as_str(), plan.predicted_cycles, launches),
            (id.as_str(), cycles, walks),
            "{}",
            plan.rationale
        );
        got.push((
            plan.kernel_id,
            plan.predicted_cycles,
            fnv1a(&plan.rationale),
            launches,
        ));
    }
    let got: Vec<_> = got
        .iter()
        .map(|(id, c, r, l)| (id.as_str(), *c, *r, *l))
        .collect();
    assert_eq!(got, RECORDED, "{got:#x?}");
}
