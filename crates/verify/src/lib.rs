//! Symbolic kernel verifier over the simulator's access-descriptor IR.
//!
//! Kernels in `hpsparse-core` emit [`SymbolicPlan`]s — the same descriptor
//! programs they drive the dynamic [`hpsparse_sim::WarpTally`] with, but
//! over symbolic shape parameters. This crate proves, per (kernel, buffer):
//!
//! - **bounds**: every access stays inside its allocation, for all shapes;
//! - **race-freedom**: cross-warp store footprints are disjoint or atomic;
//! - **init-before-read**: non-input buffers are written by a prior launch
//!   before being read.
//!
//! Verdicts are three-valued ([`CheckVerdict`]): `Proved` (all obligations
//! discharged by the [`Prover`]), `Refuted` (a concrete counterexample found
//! by element-wise replay, see [`replay_all`]), or `Unknown` (neither — the
//! dynamic sanitizer is then the only judge).
//!
//! A `Proved` verdict is *sound*: it implies the dynamic sanitizer passes
//! on every graph. The `repro -- verify` experiment checks that claim
//! rather than leaning on it — it runs the dynamic sweep for every kernel,
//! proved or not, and fails on any violation either side finds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checks;
mod prover;
mod replay;
mod report;

pub use prover::Prover;
pub use replay::{
    replay, replay_all, ArmStrategy, DataPolicy, ReplayOutcome, POLICIES, SHAPES, STRATEGIES,
};
pub use report::{CheckVerdict, Counterexample, OobKind, PlanVerdict};

use hpsparse_sim::{Property, SymbolicPlan};

/// Verify one symbolic plan: run all three static checkers, and escalate
/// any non-proved property to concrete replay for a refutation attempt.
pub fn verify_plan(plan: &SymbolicPlan) -> PlanVerdict {
    let statics = [
        (Property::Bounds, checks::check_bounds(plan)),
        (Property::Race, checks::check_races(plan)),
        (Property::Init, checks::check_init(plan)),
    ];
    let need_replay = statics.iter().any(|(_, r)| r.is_err());
    let (found, _truncated) = if need_replay {
        replay::replay_all(plan)
    } else {
        (Vec::new(), false)
    };
    let mut verdicts = statics.into_iter().map(|(kind, res)| match res {
        Ok(()) => CheckVerdict::Proved,
        Err(reason) => match found.iter().find(|(k, _)| *k == kind) {
            Some((_, cex)) => CheckVerdict::Refuted(cex.clone()),
            None => CheckVerdict::Unknown { reason },
        },
    });
    PlanVerdict {
        kernel: plan.kernel.clone(),
        variant: plan.variant.clone(),
        bounds: verdicts.next().expect("three verdicts"),
        race: verdicts.next().expect("three verdicts"),
        init: verdicts.next().expect("three verdicts"),
    }
}
