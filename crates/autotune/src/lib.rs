//! Kernel planning and autotuning for the hybrid-parallel sparse kernels.
//!
//! The paper's DTP/HVMA selector (`HpConfig::auto`) picks HP launch
//! parameters analytically. This crate generalises that step into a
//! planning subsystem that chooses *among kernels* — every HP
//! configuration DTP would consider plus every baseline in the
//! `hpsparse-core` registry — and remembers its decisions:
//!
//! 1. **Fingerprinting** ([`fingerprint`]) — condense a sparse input into
//!    the shape/skew/device features the decision depends on, with a
//!    stable 64-bit cache key.
//! 2. **Planning** ([`planner`], [`candidates`], [`cost`]) — one path for
//!    SpMM, SDDMM and the attention fuse/no-fuse knob
//!    ([`Planner::plan_for`]): rank candidates with an analytic cost model
//!    (imbalance, tail, bandwidth), optionally re-measure the front-runners
//!    by cost walk on the simulator, and emit an explainable [`Plan`].
//! 3. **Caching** ([`cache`]) — plans keyed by fingerprint, hit/miss
//!    accounted, persistable as JSON so the next process skips planning; a
//!    loaded entry no kernel could launch with is skipped and re-planned.
//!
//! ```
//! use hpsparse_autotune::{PlanCache, Planner, PlanStrategy, GraphFingerprint};
//! use hpsparse_core::catalog::Op;
//! use hpsparse_sim::DeviceSpec;
//! use hpsparse_sparse::Hybrid;
//!
//! let s = Hybrid::from_triplets(4, 4, &[(0, 1, 1.0), (2, 3, 2.0)]).unwrap();
//! let v100 = DeviceSpec::v100();
//! let mut planner = Planner::new(v100.clone(), PlanStrategy::Heuristic);
//! let mut cache = PlanCache::new();
//!
//! let fp = GraphFingerprint::of(&s, 64, &v100);
//! let plan = match cache.get(Op::Spmm, fp.key()) {
//!     Some(plan) => plan.clone(),
//!     None => {
//!         let plan = planner.plan_spmm(&s, 64);
//!         cache.insert(Op::Spmm, fp.key(), fp.canonical_encoding(), plan.clone());
//!         plan
//!     }
//! };
//! println!("{}: {}", plan.kernel_id, plan.rationale);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod candidates;
pub mod cost;
pub mod fingerprint;
pub mod planner;

pub use cache::{CachedPlan, PlanCache};
pub use candidates::{
    instantiate_fused_mha, instantiate_sddmm, instantiate_spmm, mha_candidates, sddmm_candidates,
    spmm_candidates, Candidate, CandidateRef, MHA_FUSED_ID, MHA_UNFUSED_ID,
};
pub use cost::{
    edge_softmax_cycles, mha_cost, sddmm_bound_hint, sddmm_cost, spmm_bound_hint, spmm_cost,
};
pub use fingerprint::GraphFingerprint;
pub use hpsparse_core::traits::LAUNCH_OVERHEAD_CYCLES;
pub use planner::{
    measure_unfused_mha, measurement_features, Pick, Plan, PlanStrategy, Planner, MEASURED_TOP_N,
};
