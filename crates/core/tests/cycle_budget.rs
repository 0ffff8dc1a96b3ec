//! A cycle budget is sound on every catalogue kernel. The autotuner stops a
//! candidate's walk once its cycles provably reach the incumbent's
//! (`GpuSim::set_cycle_budget`), which keeps every plan only if the running
//! bound never overtakes what the finished walk reports. Per row × quick
//! registry graph × K × device, found from outside by bisecting the budget:
//!
//! * the smallest budget a walk completes under is one more than the sum of
//!   its launches' cycles — so no running bound exceeds that sum — and
//!   under the sum itself the bound reaches it exactly;
//! * that sum is `total_cycles()` (every launch of the fused kernel), less
//!   the host-side pass some baselines charge as preprocessing, which is no
//!   launch and only adds;
//! * the stop point moves forward as the budget grows, and the bound it
//!   reports lies between the budget and the sum;
//! * both cost engines stop at the same block, and a walk that completes
//!   reports exactly what an unbudgeted one does.

use hpsparse_core::catalog::{Launches, Row, KERNELS};
use hpsparse_datasets::{full_graph_dataset, store};
use hpsparse_sim::{BudgetStop, CostEngine, DeviceSpec, GpuSim};
use hpsparse_sparse::Hybrid;

/// Baselines whose preprocessing includes a host-side pass.
const HOST_PASSES: [&str; 3] = ["aspt", "sputnik", "huang"];

fn walk(
    row: &Row,
    device: &DeviceSpec,
    s: &Hybrid,
    k: usize,
    engine: CostEngine,
    budget: Option<u64>,
) -> (Launches, Option<BudgetStop>) {
    let kernel = row.auto(device, s, k);
    let mut sim = GpuSim::new(device.clone());
    sim.set_engine(engine);
    if let Some(limit) = budget {
        sim.set_cycle_budget(limit);
    }
    let launches = kernel.cost_on(&mut sim, s, k).unwrap();
    (launches, sim.budget_stop())
}

fn check(row: &Row, device: &DeviceSpec, s: &Hybrid, k: usize) {
    let at = |budget| walk(row, device, s, k, CostEngine::Batched, Some(budget));
    let (free, _) = walk(row, device, s, k, CostEngine::Batched, None);
    let reports = free.preprocess.iter().chain(&free.exec);
    let total: u64 = reports.map(|r| r.cycles).sum();
    let cell = format!("{} on {} rows, k {k}, {}", row.id, s.rows(), device.name);

    // Bisect for the smallest budget the walk completes under.
    let mut probes = vec![(0, at(0).1)];
    let (mut lo, mut hi) = (0u64, total + 1);
    assert_eq!(at(hi), (free.clone(), None), "{cell}: stopped at total + 1");
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let stop = at(mid).1;
        probes.push((mid, stop));
        if stop.is_some() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let launched = hi - 1;
    assert!(probes[0].1.is_some(), "{cell}: a zero budget never stopped");
    if HOST_PASSES.contains(&row.id) {
        assert!(launched < total, "{cell}: {launched} vs {total}");
    } else {
        assert_eq!(launched, total, "{cell}");
    }
    assert_eq!(at(u64::MAX), (free.clone(), None), "{cell}");

    // The running bound reaches the sum exactly.
    assert_eq!(at(launched).1.unwrap().cycles_at_least, launched, "{cell}");

    probes.sort_by_key(|&(budget, _)| budget);
    let mut previous = (0, 0, 0);
    for (budget, stop) in probes {
        let Some(stop) = stop else { continue };
        assert!(
            (budget..=launched).contains(&stop.cycles_at_least),
            "{cell}: budget {budget} stopped at {stop:?}"
        );
        let point = (stop.launch, stop.blocks, stop.cycles_at_least);
        assert!(point >= previous, "{cell}: {point:?} before {previous:?}");
        previous = point;
    }

    let half = launched / 2;
    let reference = walk(row, device, s, k, CostEngine::Reference, Some(half)).1;
    assert_eq!(reference, at(half).1, "{cell}");
}

#[test]
fn every_catalogue_kernel_stops_only_where_it_cannot_come_in_under_budget() {
    let graphs: Vec<Hybrid> = full_graph_dataset()
        .iter()
        .map(|spec| store::graph(spec, 1_500).to_hybrid())
        .collect();
    for device in [DeviceSpec::v100(), DeviceSpec::a30()] {
        for s in &graphs {
            for k in [1, 32, 64, 128] {
                for row in &KERNELS {
                    check(row, &device, s, k);
                }
            }
        }
    }
}
