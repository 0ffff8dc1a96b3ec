//! Tier-1 witness for the autotuner (ROADMAP "Robustness: a Tier-1 that
//! means something"): the default `Measured` strategy's SpMM and SDDMM
//! plans on one quick registry graph keep the
//! kernel, cycles, rationale and simulator-launch count recorded before
//! the planner learned to stop walking candidates that cannot win (PR 25 —
//! never re-record them to make a change pass), and each equals an
//! exhaustive oracle that walks every shortlisted candidate to completion.

use hpsparse::autotune::{
    instantiate_sddmm, instantiate_spmm, sddmm_candidates, sddmm_cost, spmm_candidates, spmm_cost,
    Candidate, GraphFingerprint, Plan, PlanStrategy, Planner, MEASURED_TOP_N,
};
use hpsparse::datasets::{registry, store};
use hpsparse::sim::DeviceSpec;
use hpsparse::sparse::Hybrid;

const K: usize = 64;

/// `(kernel id, predicted cycles, FNV-1a of the rationale, sim launches)`
/// for SpMM then SDDMM on arxiv capped at 16 k edges, K = 64, V100 —
/// recorded on commit 243ff82.
const RECORDED: [(&str, u64, u64, u64); 2] = [
    ("hp:npw=32", 6010, 0xc7f3_091d_2657_515f, 12),
    ("hp-sddmm:npw=8", 6076, 0xe50f_9054_d641_a0e2, 9),
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

/// The exhaustive oracle: the [`MEASURED_TOP_N`] candidates by analytic
/// estimate (stable on ties) plus the paper-auto incumbent wherever it
/// ranked, each walked to completion on a cold simulator; the first
/// strictly cheapest in rank order wins. Returns the winner's id, its cycles and the walks.
fn oracle(device: &DeviceSpec, s: &Hybrid, sddmm: bool) -> (String, u64, u64) {
    assert_eq!(PlanStrategy::default(), PlanStrategy::Measured);
    let fp = GraphFingerprint::of(s, K, device);
    let mut ranked: Vec<(f64, Candidate)> = if sddmm {
        let cands = sddmm_candidates(device, &fp).into_iter();
        cands.map(|c| (sddmm_cost(device, &fp, &c), c)).collect()
    } else {
        let cands = spmm_candidates(device, &fp).into_iter();
        cands.map(|c| (spmm_cost(device, &fp, &c), c)).collect()
    };
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut best: Option<(String, u64)> = None;
    let mut walks = 0;
    for (rank, (_, c)) in ranked.iter().enumerate() {
        let incumbent = matches!(c.kernel_id.as_str(), "hp:auto" | "hp-sddmm:auto");
        if rank >= MEASURED_TOP_N && !incumbent {
            continue;
        }
        let cost = if sddmm {
            instantiate_sddmm(c).and_then(|k| k.cost(device, s, K).ok())
        } else {
            instantiate_spmm(c).and_then(|k| k.cost(device, s, K).ok())
        };
        let Some(cost) = cost else { continue };
        walks += 1;
        let cycles = cost.total_cycles();
        if best.as_ref().is_none_or(|(_, b)| cycles < *b) {
            best = Some((c.kernel_id.clone(), cycles));
        }
    }
    let (id, cycles) = best.expect("the shortlist is measurable");
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
