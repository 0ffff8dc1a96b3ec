//! The rules replay carries into the sanitizer, one hand-built plan each:
//! an overrunning access is memcheck's alone while its in-bounds part still
//! happens, an access starting before its buffer is wild, shared tiles have
//! per-warp program-order visibility and are raced like any other buffer,
//! and a launch past the warp cap is abandoned, not judged.

use hpsparse_sim::{PlanBuilder, Property, SymBufferRole, SymExpr, SymbolicPlan};
use hpsparse_verify::{
    replay, replay_all, verify_plan, ArmStrategy, CheckVerdict, Counterexample, DataPolicy,
    OobKind, SHAPES,
};

fn refuted(v: &CheckVerdict) -> &Counterexample {
    match v {
        CheckVerdict::Refuted(cex) => cex,
        other => panic!("expected a refutation, got {other:?}"),
    }
}

/// Rows `r` store `out[2r, +2)` into a `2m − 1`-element buffer, so the last
/// row overruns by one; a second launch reads every element.
fn overrunning_writer_then_reader() -> SymbolicPlan {
    let mut b = PlanBuilder::new("overrun", "");
    let m = b.param("m", 1);
    let len = m.clone() * SymExpr::Const(2) - SymExpr::Const(1);
    let out = b.buffer("out", SymBufferRole::Output, len.clone());
    let mut l = b.launch("writer");
    let r = l.axis("r", m);
    l.write(out, r * SymExpr::Const(2), 2);
    l.done();
    let mut l = b.launch("reader");
    let e = l.axis("e", len);
    l.read(out, e, 1);
    l.done();
    b.build()
}

#[test]
fn an_overrunning_store_still_initialises_its_in_bounds_part() {
    let plan = overrunning_writer_then_reader();
    let verdict = verify_plan(&plan);
    let cex = refuted(&verdict.bounds);
    assert_eq!(cex.oob, Some(OobKind::Overrun));
    assert_eq!(
        cex.to_string(),
        "at (m=10, n=50, nnz=1000, k=32): launch 'writer' warp 9 buffer 'out' [18, +2): \
         overruns the 19-element allocation"
    );
    assert!(verdict.race.is_proved() && verdict.init.is_proved());
    let (found, truncated) = replay_all(&plan);
    assert!(!truncated);
    assert!(
        found.iter().all(|(k, _)| *k == Property::Bounds),
        "{found:?}"
    );
}

#[test]
fn an_access_starting_before_its_buffer_is_wild() {
    let mut b = PlanBuilder::new("wild", "");
    let m = b.param("m", 1);
    let nnz = b.param("nnz", 1);
    let src = b.buffer("src", SymBufferRole::Input, nnz);
    let mut l = b.launch("l");
    let r = l.axis("r", m);
    l.read(src, r - SymExpr::Const(1), 2);
    l.done();
    let verdict = verify_plan(&b.build());
    let cex = refuted(&verdict.bounds);
    assert_eq!(cex.oob, Some(OobKind::Wild));
    assert_eq!(
        cex.to_string(),
        "at (m=10, n=50, nnz=1000, k=32): launch 'l' warp 0 buffer 'src' [-1, +2): \
         wild access outside the 1000-element allocation"
    );
}

/// Warp `w` owns `tile[4w, +4)`: it stores and reads its slice in the
/// given order, then writes the same slice of `out`.
fn shared_tile(store_first: bool) -> SymbolicPlan {
    let mut b = PlanBuilder::new("shared", "");
    let m = b.param("m", 1);
    let tile = b.buffer("tile", SymBufferRole::Shared, m.clone() * SymExpr::Const(4));
    let out = b.buffer("out", SymBufferRole::Output, m.clone() * SymExpr::Const(4));
    let mut l = b.launch("tile");
    let w = l.axis("w", m);
    let slice = w * SymExpr::Const(4);
    if store_first {
        l.write(tile, slice.clone(), 4);
    }
    l.read(tile, slice.clone(), 4);
    if !store_first {
        l.write(tile, slice.clone(), 4);
    }
    l.write(out, slice, 4);
    l.done();
    b.build()
}

#[test]
fn a_shared_tile_is_visible_to_its_own_warp_after_the_store() {
    let clean = shared_tile(true);
    assert!(verify_plan(&clean).all_proved());
    assert!(replay_all(&clean).0.is_empty());

    let verdict = verify_plan(&shared_tile(false));
    assert!(verdict.bounds.is_proved() && verdict.race.is_proved());
    assert_eq!(
        refuted(&verdict.init).to_string(),
        "at (m=10, n=50, nnz=1000, k=32): launch 'tile' warp 0 buffer 'tile' [0, +4): \
         read of shared element 0 before any same-warp store"
    );
}

#[test]
fn two_warps_storing_one_shared_slice_race() {
    let mut b = PlanBuilder::new("shared-race", "");
    let m = b.param("m", 1);
    let tile = b.buffer("tile", SymBufferRole::Shared, SymExpr::Const(4));
    let mut l = b.launch("l");
    l.axis("w", m);
    l.write(tile, SymExpr::Const(0), 4);
    l.read(tile, SymExpr::Const(0), 4);
    l.done();
    let verdict = verify_plan(&b.build());
    assert!(verdict.bounds.is_proved() && verdict.init.is_proved());
    assert_eq!(
        refuted(&verdict.race).to_string(),
        "at (m=10, n=50, nnz=1000, k=32): launch 'l' warp 1 buffer 'tile' [0, +4): \
         element 0 also stored by warp 0 (plain-vs-plain)"
    );
}

#[test]
fn a_launch_past_the_warp_cap_is_truncated_not_judged() {
    // Every warp stores `out[0]`: a race at any shape replay completes.
    let mut b = PlanBuilder::new("wide", "");
    let m = b.param("m", 1);
    let out = b.buffer("out", SymBufferRole::Output, SymExpr::Const(1));
    let mut l = b.launch("l");
    l.axis("w", m * SymExpr::Const(500));
    l.write(out, SymExpr::Const(0), 1);
    l.done();
    let plan = b.build();
    let run = |shape| replay(&plan, shape, DataPolicy::Floor, ArmStrategy::ByWarp);
    // m = 10: 5 000 warps, past the 4 096 cap.
    let wide = run(SHAPES[0]);
    assert!(wide.truncated && wide.violations.is_empty());
    // m = 4: 2 000 warps, replayed in full.
    let narrow = run(SHAPES[1]);
    assert!(!narrow.truncated);
    assert_eq!(narrow.violations[0].0, Property::Race);
}
