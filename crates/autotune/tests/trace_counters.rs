//! The planner's trace counters with a session installed (its own test
//! binary: the session is process-global). One `autotune.plans` per plan,
//! every measurement in `autotune.plan_sim_launches`, and every walk the
//! incumbent's budget cut short in `autotune.plan_sim_launches_stopped` —
//! never the first walk of a plan, which has no incumbent. Observing
//! changes no plan.

use hpsparse_autotune::{PlanStrategy, Planner};
use hpsparse_sim::DeviceSpec;
use hpsparse_sparse::Hybrid;
use hpsparse_trace::{Metric, TraceSession};

fn graph() -> Hybrid {
    let triplets: Vec<(u32, u32, f32)> = (0..12_000u32)
        .map(|i| {
            let r = i.wrapping_mul(2654435761) % 1500;
            (r, i.wrapping_mul(40503).wrapping_add(7) % 1500, 1.0)
        })
        .collect();
    Hybrid::from_triplets(1500, 1500, &triplets).unwrap()
}

#[test]
fn stopped_walks_are_counted_next_to_the_launches() {
    let (s, k) = (graph(), 64);
    let plan_both = |p: &mut Planner| (p.plan_spmm(&s, k), p.plan_sddmm(&s, k));
    let mut detached = Planner::new(DeviceSpec::v100(), PlanStrategy::default());
    let unobserved = plan_both(&mut detached);

    let session = TraceSession::new();
    hpsparse_trace::install(session.clone());
    let mut planner = Planner::new(DeviceSpec::v100(), PlanStrategy::default());
    let observed = plan_both(&mut planner);
    hpsparse_trace::uninstall();
    assert_eq!(observed, unobserved);

    let counter = |name: &str| match session.metrics().get(name) {
        Some(Metric::Counter(n)) => n,
        other => panic!("{name}: {other:?}"),
    };
    assert_eq!(counter("autotune.plans"), 2);
    let launches = counter("autotune.plan_sim_launches");
    assert_eq!(launches, planner.sim_launches());
    let stopped = counter("autotune.plan_sim_launches_stopped");
    assert!(
        (1..=launches - 2).contains(&stopped),
        "{stopped} of {launches}"
    );
}
