//! The three static checkers: bounds, race-freedom, init-before-read.
//!
//! Each checker walks a [`SymbolicPlan`], generates proof obligations, and
//! discharges them with the [`Prover`]. `Ok(())` means *proved for all
//! shapes*; `Err(reason)` carries the first obligation that failed — the
//! caller then escalates to concrete replay to decide Refuted vs Unknown.
//!
//! # What exactly is proved
//!
//! - **Bounds** (mirrors the dynamic memcheck): every access's offset is
//!   nonnegative and `offset + max(len, 0)` stays within the buffer's
//!   declared element count. Accesses whose length is provably `<= 0` are
//!   vacuous, matching the tally dropping zero-length events.
//! - **Race-freedom** (mirrors the dynamic racecheck's end-of-launch
//!   sweep): within each launch, plain-store footprints from different
//!   warps are pairwise disjoint, and no plain store overlaps an atomic
//!   from another warp. Atomic-vs-atomic is sanctioned, as is anything
//!   within one warp. Two proof rules:
//!     - *self-overlap*: a store site against other instances of itself
//!       uses a lexicographic stride argument over its distinguishing
//!       variables (every non-trivial launch axis must be distinguished,
//!       directly or through a [`Distinct`] data-variable promise or an
//!       ownership annotation);
//!     - *cross-site*: two different store sites on the same buffer are
//!       separated either by the *aligned-site* rule (both sites share one
//!       offset function, so the self-overlap stride argument applied to
//!       the pointwise-max footprint separates different-warp instances;
//!       same-warp pairs are program-ordered and sanctioned) or by the
//!       disjoint-domain rule: both offsets decompose as `S·d + rest` with
//!       the same stride, data variables `d` from disjoint value domains,
//!       and each footprint confined to its `[S·d, S·d + S)` slab.
//! - **Init-before-read** (mirrors the dynamic initcheck's launch-granular
//!   visibility): a read of a non-input buffer requires a *prior* launch
//!   whose unconditional top-level stores provably tile the whole buffer
//!   (a strided cover over a launch axis). Atomics count as stores.
//!   [`SymBufferRole::Shared`] buffers instead follow same-launch
//!   program-order visibility: the read must be dominated by a textually
//!   earlier unconditional store in the *same* loop nest writing the same
//!   offset with at least the read's length, and shared tiles never
//!   persist across launches.

use crate::prover::{exprs_equal, linear_decompose, Prover};
use hpsparse_sim::{
    Distinct, SymAccess, SymAccessKind, SymBufferRole, SymExpr, SymLaunch, SymOp, SymbolicPlan,
    VarId, VarKind,
};

/// An access site flattened out of the op tree.
struct Site<'a> {
    access: &'a SymAccess,
    /// Executed by every warp of the launch (not under any `Cases` arm).
    unconditional: bool,
    /// Nested under at least one `For` (whose trip count may be zero).
    in_loop: bool,
    /// Enclosing `For` loops, outermost first: (loop variable, trip count).
    loops: Vec<(VarId, SymExpr)>,
}

fn collect_sites<'a>(
    ops: &'a [SymOp],
    unconditional: bool,
    loops: &mut Vec<(VarId, SymExpr)>,
    out: &mut Vec<Site<'a>>,
) {
    for op in ops {
        match op {
            SymOp::Access(a) => out.push(Site {
                access: a,
                unconditional,
                in_loop: !loops.is_empty(),
                loops: loops.clone(),
            }),
            SymOp::For { var, count, body } => {
                loops.push((*var, count.clone()));
                collect_sites(body, unconditional, loops, out);
                loops.pop();
            }
            SymOp::Cases(arms) => {
                for arm in arms {
                    collect_sites(&arm.body, false, loops, out);
                }
            }
        }
    }
}

fn launch_sites(launch: &SymLaunch) -> Vec<Site<'_>> {
    let mut out = Vec::new();
    collect_sites(&launch.ops, true, &mut Vec::new(), &mut out);
    out
}

/// Execution-context facts for one site: a warp reaching it implies every
/// launch-axis extent and every enclosing trip count is at least one (and
/// the corresponding variable ranges are nonempty). `min` counts split —
/// `min(a, b) >= 1` implies both halves.
fn site_context(launch: &SymLaunch, site: &Site<'_>) -> (Vec<SymExpr>, Vec<VarId>) {
    let mut hyps = Vec::new();
    let mut nonempty = launch.axes.clone();
    for ext in &launch.extents {
        push_count_hyps(ext, &mut hyps);
    }
    for (v, count) in &site.loops {
        nonempty.push(*v);
        push_count_hyps(count, &mut hyps);
    }
    (hyps, nonempty)
}

fn push_count_hyps(count: &SymExpr, out: &mut Vec<SymExpr>) {
    match count {
        SymExpr::Min(a, b) => {
            push_count_hyps(a, out);
            push_count_hyps(b, out);
        }
        _ => out.push(count.clone() - SymExpr::Const(1)),
    }
}

/// Variables that can differ between two warp instances (everything that is
/// not a free shape parameter).
fn instance_vars(plan: &SymbolicPlan) -> Vec<VarId> {
    (0..plan.vars.len())
        .filter(|i| !matches!(plan.vars[*i].kind, VarKind::Param))
        .map(|i| VarId(i as u32))
        .collect()
}

// ---- bounds ---------------------------------------------------------------

/// Prove every access in the plan in-bounds. `Err` names the first access
/// whose containment obligation the prover could not discharge.
pub(crate) fn check_bounds(plan: &SymbolicPlan) -> Result<(), String> {
    let mut pv = Prover::new(&plan.vars);
    for launch in &plan.launches {
        for site in launch_sites(launch) {
            let a = site.access;
            let buf = &plan.buffers[a.buffer];
            let (hyps, nonempty) = site_context(launch, &site);
            // A provably never-positive length means the access never
            // touches memory at all.
            if pv.prove_nonneg_given(&(SymExpr::Const(0) - a.len.clone()), &hyps, &nonempty) {
                continue;
            }
            let eff_len = a.len.clone().max(SymExpr::Const(0));
            if !pv.prove_nonneg_given(&a.offset, &hyps, &nonempty) {
                return Err(format!(
                    "launch '{}', buffer '{}': cannot prove offset {} >= 0",
                    launch.name, buf.name, a.offset
                ));
            }
            let slack = buf.len.clone() - a.offset.clone() - eff_len;
            if !pv.prove_nonneg_given(&slack, &hyps, &nonempty) {
                return Err(format!(
                    "launch '{}', buffer '{}': cannot prove offset {} + len {} <= extent {}",
                    launch.name, buf.name, a.offset, a.len, buf.len
                ));
            }
        }
    }
    Ok(())
}

// ---- race-freedom ---------------------------------------------------------

/// Prove the plan free of cross-warp store races, launch by launch.
pub(crate) fn check_races(plan: &SymbolicPlan) -> Result<(), String> {
    let instance = instance_vars(plan);
    let mut pv = Prover::new(&plan.vars);
    for launch in &plan.launches {
        let sites = launch_sites(launch);
        let stores: Vec<&Site<'_>> = sites
            .iter()
            .filter(|s| s.access.kind != SymAccessKind::Read)
            .collect();
        for (i, s) in stores.iter().enumerate() {
            if s.access.kind == SymAccessKind::Write {
                self_overlap_free(plan, launch, s, &instance, &mut pv)
                    .map_err(|e| format!("launch '{}': {e}", launch.name))?;
            }
            for t in &stores[i + 1..] {
                if s.access.buffer != t.access.buffer {
                    continue;
                }
                // Atomic-vs-atomic is sanctioned by the dynamic racecheck.
                if s.access.kind == SymAccessKind::Atomic && t.access.kind == SymAccessKind::Atomic
                {
                    continue;
                }
                cross_site_disjoint(plan, launch, s, t, &instance, &mut pv)
                    .map_err(|e| format!("launch '{}': {e}", launch.name))?;
            }
        }
    }
    Ok(())
}

/// Lexicographic self-overlap proof for one plain-store site: any two
/// instances differing in a launch axis write disjoint ranges.
fn self_overlap_free(
    plan: &SymbolicPlan,
    launch: &SymLaunch,
    site: &Site<'_>,
    instance: &[VarId],
    pv: &mut Prover,
) -> Result<(), String> {
    let a = site.access;
    let (hyps, nonempty) = site_context(launch, site);
    let buf = &plan.buffers[a.buffer].name;
    // Ownership shortcut: "at most one instance per owner value" makes the
    // site race-free by fiat when the owner is this launch's only
    // non-trivial axis.
    if let Some(owner) = a.exclusive {
        let others_trivial = launch
            .axes
            .iter()
            .zip(&launch.extents)
            .filter(|(ax, _)| **ax != owner)
            .all(|(_, ext)| {
                pv.prove_nonneg_given(&(SymExpr::Const(1) - ext.clone()), &hyps, &nonempty)
            });
        if launch.axes.contains(&owner) && others_trivial {
            return Ok(());
        }
    }
    stride_separation(
        plan,
        launch,
        buf,
        &a.offset,
        &a.len,
        a.exclusive,
        &hyps,
        &nonempty,
        instance,
        pv,
    )
}

/// The lexicographic stride-separation core shared by the self-overlap and
/// aligned-site rules: any two instances of `offset` differing in a
/// non-trivial launch axis write `len`-element ranges that are pairwise
/// disjoint.
#[allow(clippy::too_many_arguments)]
fn stride_separation(
    plan: &SymbolicPlan,
    launch: &SymLaunch,
    buf: &str,
    offset: &SymExpr,
    len: &SymExpr,
    exclusive: Option<VarId>,
    hyps: &[SymExpr],
    nonempty: &[VarId],
    instance: &[VarId],
    pv: &mut Prover,
) -> Result<(), String> {
    let Some((_, strides)) = linear_decompose(offset, instance) else {
        return Err(format!(
            "buffer '{buf}': store offset {offset} is not linear in instance variables"
        ));
    };
    let d: Vec<VarId> = strides.iter().map(|(v, _)| *v).collect();
    // Every non-trivial axis must be distinguished by the offset: directly,
    // through an injective/globally-distinct data variable, or by the
    // ownership annotation.
    for (ax, ext) in launch.axes.iter().zip(&launch.extents) {
        if pv.prove_nonneg_given(&(SymExpr::Const(1) - ext.clone()), hyps, nonempty) {
            continue;
        }
        let covered = d.contains(ax)
            || exclusive == Some(*ax)
            || d.iter().any(|v| {
                matches!(
                    &plan.vars[v.index()].kind,
                    VarKind::Data {
                        distinct: Distinct::Global,
                        ..
                    }
                ) || matches!(
                    &plan.vars[v.index()].kind,
                    VarKind::Data { distinct: Distinct::ByVar(w), .. } if w == ax
                )
            });
        if !covered {
            return Err(format!(
                "buffer '{buf}': axis '{}' does not distinguish the store footprint",
                plan.vars[ax.index()].name
            ));
        }
    }
    if d.len() > 5 {
        return Err(format!(
            "buffer '{buf}': too many distinguishing variables ({})",
            d.len()
        ));
    }
    // All strides must be nonnegative for the lexicographic argument.
    for (v, s) in &strides {
        if !pv.prove_nonneg_given(s, hyps, nonempty) {
            return Err(format!(
                "buffer '{buf}': cannot prove stride {s} of '{}' nonnegative",
                plan.vars[v.index()].name
            ));
        }
    }
    // Try every ordering: at level i, the stride must clear the entire
    // remaining sub-layout span plus the footprint length, at any shared
    // assignment of the lower-level variables.
    for perm in permutations(&strides) {
        if perm_proves(plan, &perm, len, hyps, nonempty, pv) {
            return Ok(());
        }
    }
    Err(format!(
        "buffer '{buf}': no stride ordering separates instances of store at {offset}"
    ))
}

fn perm_proves(
    plan: &SymbolicPlan,
    perm: &[(VarId, SymExpr)],
    len: &SymExpr,
    hyps: &[SymExpr],
    nonempty: &[VarId],
    pv: &mut Prover,
) -> bool {
    for (i, (_, s_i)) in perm.iter().enumerate() {
        let mut goal = s_i.clone() - len.clone();
        for (v_j, s_j) in &perm[i + 1..] {
            let lo = plan.vars[v_j.index()].lo.clone();
            goal = goal - s_j.clone() * (SymExpr::Var(*v_j) - lo);
        }
        if !pv.prove_nonneg_given(&goal, hyps, nonempty) {
            return false;
        }
    }
    true
}

fn permutations(items: &[(VarId, SymExpr)]) -> Vec<Vec<(VarId, SymExpr)>> {
    if items.is_empty() {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let head = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head.clone());
            out.push(tail);
        }
    }
    out
}

/// Disjoint-domain proof for two distinct store sites on one buffer: both
/// offsets are `S·d + rest` with a shared stride, the two `d` data
/// variables draw from disjoint value sets, and each footprint stays within
/// its own `[S·d, S·d + S)` slab.
fn cross_site_disjoint(
    plan: &SymbolicPlan,
    launch: &SymLaunch,
    sa_site: &Site<'_>,
    sb_site: &Site<'_>,
    instance: &[VarId],
    pv: &mut Prover,
) -> Result<(), String> {
    let (a, b) = (sa_site.access, sb_site.access);
    let ctx_a = site_context(launch, sa_site);
    let ctx_b = site_context(launch, sb_site);
    let buf = &plan.buffers[a.buffer].name;
    // Aligned-site rule: when both sites share one offset function, any two
    // instances from *different* warps are separated by the same
    // lexicographic stride argument that proves a site self-overlap free,
    // applied to the pointwise-max footprint; same-warp pairs are ordered by
    // program order within the warp and sanctioned by the dynamic
    // racecheck. Restricted to loop-free sites so a single execution
    // context covers both obligations.
    if sa_site.loops.is_empty()
        && sb_site.loops.is_empty()
        && exprs_equal(&a.offset, &b.offset)
        && stride_separation(
            plan,
            launch,
            buf,
            &a.offset,
            &a.len.clone().max(b.len.clone()),
            None,
            &ctx_a.0,
            &ctx_a.1,
            instance,
            pv,
        )
        .is_ok()
    {
        return Ok(());
    }
    let (da, sa, rest_a) = domain_split(plan, a, instance).ok_or_else(|| {
        format!(
            "buffer '{buf}': store at {} has no domain variable",
            a.offset
        )
    })?;
    let (db, sb, rest_b) = domain_split(plan, b, instance).ok_or_else(|| {
        format!(
            "buffer '{buf}': store at {} has no domain variable",
            b.offset
        )
    })?;
    let dom = |v: VarId| match plan.vars[v.index()].kind {
        VarKind::Data { domain, .. } => domain,
        _ => 0,
    };
    if dom(da) == dom(db) {
        return Err(format!(
            "buffer '{buf}': stores' domain variables '{}' and '{}' share a value domain",
            plan.vars[da.index()].name,
            plan.vars[db.index()].name
        ));
    }
    if !exprs_equal(&sa, &sb) {
        return Err(format!(
            "buffer '{buf}': stores' domain strides {sa} and {sb} differ"
        ));
    }
    for (rest, len, (hyps, nonempty)) in [(&rest_a, &a.len, &ctx_a), (&rest_b, &b.len, &ctx_b)] {
        if !pv.prove_nonneg_given(rest, hyps, nonempty) {
            return Err(format!(
                "buffer '{buf}': cannot prove slab offset {rest} >= 0"
            ));
        }
        let slack = sa.clone() - rest.clone() - len.clone().max(SymExpr::Const(0));
        if !pv.prove_nonneg_given(&slack, hyps, nonempty) {
            return Err(format!(
                "buffer '{buf}': cannot prove footprint {rest} + {len} <= slab stride {sa}"
            ));
        }
    }
    Ok(())
}

/// Split a store offset as `S·d + rest` where `d` is the unique
/// nonzero-domain data variable in it.
fn domain_split(
    plan: &SymbolicPlan,
    a: &SymAccess,
    instance: &[VarId],
) -> Option<(VarId, SymExpr, SymExpr)> {
    let (base, strides) = linear_decompose(&a.offset, instance)?;
    let mut domain_var: Option<(VarId, SymExpr)> = None;
    let mut rest = base;
    for (v, s) in strides {
        let is_domain = matches!(
            plan.vars[v.index()].kind,
            VarKind::Data { domain, .. } if domain != 0
        );
        if is_domain {
            if domain_var.is_some() {
                return None;
            }
            domain_var = Some((v, s));
        } else {
            rest = rest + s * SymExpr::Var(v);
        }
    }
    let (d, s) = domain_var?;
    Some((d, s, rest))
}

// ---- init-before-read -----------------------------------------------------

/// Prove every read of a non-input buffer covered by a full-buffer store
/// tiling from some *prior* launch.
pub(crate) fn check_init(plan: &SymbolicPlan) -> Result<(), String> {
    let mut pv = Prover::new(&plan.vars);
    let mut covered = vec![false; plan.buffers.len()];
    for launch in &plan.launches {
        let sites = launch_sites(launch);
        for (idx, site) in sites.iter().enumerate() {
            let a = site.access;
            if a.kind != SymAccessKind::Read {
                continue;
            }
            let buf = &plan.buffers[a.buffer];
            if buf.role == SymBufferRole::Input {
                continue;
            }
            // Zero-length reads touch nothing.
            let (hyps, nonempty) = site_context(launch, site);
            if pv.prove_nonneg_given(&(SymExpr::Const(0) - a.len.clone()), &hyps, &nonempty) {
                continue;
            }
            if buf.role == SymBufferRole::Shared {
                // Same-launch program-order visibility: the tile dies with
                // the block, so cross-launch coverage never applies.
                if !shared_covered(launch, &sites, idx, &mut pv) {
                    return Err(format!(
                        "launch '{}': read of shared '{}' at {} has no dominating \
                         same-launch store",
                        launch.name, buf.name, a.offset
                    ));
                }
                continue;
            }
            if covered[a.buffer] {
                continue;
            }
            return Err(format!(
                "launch '{}': read of '{}' at {} has no covering store in any prior launch",
                launch.name, buf.name, a.offset
            ));
        }
        for site in &sites {
            let a = site.access;
            if a.kind == SymAccessKind::Read || !site.unconditional || site.in_loop {
                continue;
            }
            if plan.buffers[a.buffer].role == SymBufferRole::Shared {
                continue;
            }
            if covers_buffer(plan, launch, a, &mut pv) {
                covered[a.buffer] = true;
            }
        }
    }
    Ok(())
}

/// Whether a read of a [`SymBufferRole::Shared`] buffer (site `idx`) is
/// dominated by a textually earlier store in the same loop nest of the same
/// launch writing exactly the read's offset with at least its length. Equal
/// loop-variable lists imply the same nest (each `For` variable is unique),
/// so the earlier site executes before the read in every dynamic instance
/// of the same warp, at the identical variable assignment.
fn shared_covered(launch: &SymLaunch, sites: &[Site<'_>], idx: usize, pv: &mut Prover) -> bool {
    let read = &sites[idx];
    let a = read.access;
    let read_loops: Vec<VarId> = read.loops.iter().map(|(v, _)| *v).collect();
    for store in &sites[..idx] {
        let s = store.access;
        if s.buffer != a.buffer || s.kind == SymAccessKind::Read || !store.unconditional {
            continue;
        }
        let store_loops: Vec<VarId> = store.loops.iter().map(|(v, _)| *v).collect();
        if store_loops != read_loops || !exprs_equal(&s.offset, &a.offset) {
            continue;
        }
        let (hyps, nonempty) = site_context(launch, read);
        if pv.prove_nonneg_given(&(s.len.clone() - a.len.clone()), &hyps, &nonempty) {
            return true;
        }
    }
    false
}

/// Whether an unconditional top-level store tiles its whole buffer: offset
/// `S·v` over a launch axis `v` with extent `E`, each stripe reaching
/// `min(S·v + S, T)`, and `S·E` reaching the extent `T`.
fn covers_buffer(plan: &SymbolicPlan, launch: &SymLaunch, a: &SymAccess, pv: &mut Prover) -> bool {
    let t = plan.buffers[a.buffer].len.clone();
    let instance = instance_vars(plan);
    let Some((base, strides)) = linear_decompose(&a.offset, &instance) else {
        return false;
    };
    if !exprs_equal(&base, &SymExpr::Const(0)) {
        return false;
    }
    match strides.as_slice() {
        // One store covers everything: len >= T.
        [] => pv.prove_nonneg(&(a.len.clone() - t)),
        [(v, s)] => {
            let Some(pos) = launch.axes.iter().position(|ax| ax == v) else {
                return false;
            };
            let e = launch.extents[pos].clone();
            let stripe_end = (s.clone() * SymExpr::Var(*v) + s.clone()).min(t.clone());
            let reach = s.clone() * SymExpr::Var(*v) + a.len.clone() - stripe_end;
            pv.prove_nonneg(s) && pv.prove_nonneg(&reach) && pv.prove_nonneg(&(s.clone() * e - t))
        }
        _ => false,
    }
}
