//! Property tests: static verdicts agree with element-wise replay.
//!
//! The generator builds a family of one- or two-launch plans — a strided
//! row writer plus an optional full-range reader — whose safety depends on
//! the drawn stride, intra-stripe offset, footprint width, and buffer
//! padding. Depending on the draw the plan is clean, overruns its output,
//! races between rows, or reads elements no stripe initialised. The
//! properties pin the verifier's contract against the replay oracle:
//!
//! - *soundness*: a statically `Proved` check never contradicts replay —
//!   no replay instantiation exhibits a violation of that kind;
//! - *refutation honesty*: a `Refuted` verdict always carries a
//!   counterexample of the matching kind (found by that same replay).

use hpsparse_sim::{PlanBuilder, Property, SymBufferRole, SymExpr, SymbolicPlan};
use hpsparse_verify::{replay_all, verify_plan};
use proptest::prelude::*;

/// `out[r*stride + c .. +w)` per row `r`, output extent `m*stride + pad`,
/// optionally followed by a launch reading every element of `out`.
fn strided_writer_plan(stride: i64, c: i64, w: i64, pad: i64, reader: bool) -> SymbolicPlan {
    let mut b = PlanBuilder::new("prop", "gen");
    let m = b.param("m", 1);
    let nnz = b.param("nnz", 1);
    let out_len = m.clone() * SymExpr::Const(stride) + SymExpr::Const(pad);
    let src = b.buffer("src", SymBufferRole::Input, nnz.clone());
    let out = b.buffer("out", SymBufferRole::Output, out_len.clone());

    let mut l = b.launch("writer");
    let r = l.axis("r", m.clone());
    l.read(src, SymExpr::Const(0), SymExpr::Const(1).min(nnz));
    let off = r * SymExpr::Const(stride) + SymExpr::Const(c);
    l.write(out, off, SymExpr::Const(w));
    l.done();

    if reader {
        let mut l = b.launch("reader");
        let e = l.axis("e", out_len);
        l.read(out, e, 1);
        l.done();
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn static_verdicts_agree_with_replay(
        stride in 1i32..5,
        c in 0i32..3,
        w in 1i32..4,
        pad in 0i32..3,
        reader_sel in 0u32..2,
    ) {
        let plan = strided_writer_plan(stride as i64, c as i64, w as i64, pad as i64, reader_sel == 1);
        let verdict = verify_plan(&plan);
        let (violations, truncated) = replay_all(&plan);
        if truncated {
            // A truncated replay is not a complete oracle; skip the case.
            continue;
        }
        for kind in Property::ALL {
            let v = verdict.check(kind);
            let replay_hit = violations.iter().any(|(k, _)| *k == kind);
            if v.is_proved() {
                prop_assert!(
                    !replay_hit,
                    "{} proved but replay found a violation: {:?}",
                    kind.label(),
                    violations.iter().find(|(k, _)| *k == kind)
                );
            }
            if let hpsparse_verify::CheckVerdict::Refuted(cex) = v {
                prop_assert!(replay_hit, "{} refuted without a replay witness", kind.label());
                prop_assert!(!cex.buffer.is_empty());
            }
        }
    }

    /// The clean corner of the family is decided exactly: footprints that
    /// tile the stripe (`c = 0`, `w = stride`, `pad = 0`) prove on all
    /// three checkers, reader or not.
    #[test]
    fn clean_tilings_are_fully_proved(stride in 1i32..5, reader_sel in 0u32..2) {
        let plan = strided_writer_plan(stride as i64, 0, stride as i64, 0, reader_sel == 1);
        let verdict = verify_plan(&plan);
        prop_assert!(
            verdict.all_proved(),
            "clean tiling not proved: bounds={} race={} init={}",
            verdict.bounds.status(),
            verdict.race.status(),
            verdict.init.status()
        );
    }
}
