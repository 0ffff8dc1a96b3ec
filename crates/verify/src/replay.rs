//! Concrete replay of a symbolic plan through the dynamic sanitizer.
//!
//! The evaluator instantiates a plan at a concrete `(m, n, nnz, k)` shape,
//! enumerates every warp of every launch, and emits each access as one
//! [`AccessEvent`] into a fresh [`Sanitizer`] — the memcheck, racecheck and
//! initcheck that judge a simulated kernel's stream judge the plan's too.
//! Plan buffer `i` is declared at byte base `(i + 1)·2⁴⁰`, so a violation's
//! address maps back to its buffer and element offset. Replay is the
//! *refutation* half of the verifier: a violation here is a concrete
//! counterexample (data values are always drawn within their declared
//! ranges), while a clean replay proves nothing.
//!
//! An access that leaves its buffer is emitted whole, which memcheck alone
//! judges, and its in-bounds part again: an overrunning store still stores,
//! races and initialises like the dynamic one. Shared tiles are declared
//! `Input`, so the sanitizer judges their bounds and races; their reads are
//! judged here, against the warp's own program-order earlier stores (a tile
//! never persists past its warp).
//!
//! Data variables have no concrete backing store, so their values come from
//! a [`DataPolicy`] (range floor or ceiling, with [`Distinct`] promises
//! honoured under `Floor`), and data-dependent `Cases` arms from an
//! [`ArmStrategy`]. Guarded arms are only ever eligible when their guard
//! holds, so guard-carrying mutants refute exactly like their dynamic
//! counterparts.

use crate::report::{Counterexample, OobKind};
use hpsparse_sanitize::{Conflict, Sanitizer, Violation};
use hpsparse_sim::{
    AccessEvent, AccessKind, AccessSink, BufferDecl, BufferRole, Distinct, Property, SymAccess,
    SymAccessKind, SymArm, SymBufferRole, SymExpr, SymOp, SymbolicPlan, VarKind,
};
use std::collections::{HashMap, HashSet};

/// How data variables are instantiated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataPolicy {
    /// Range floor; `ByVar` becomes `lo + v`, `Global` a running counter —
    /// both clamped into range, preserving the declared promises for the
    /// plans emitted here.
    Floor,
    /// Range ceiling for every data variable.
    Ceil,
}

/// How a data-dependent `Cases` arm is picked among the eligible ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArmStrategy {
    /// Rotate by warp id (`warp % eligible`).
    ByWarp,
    /// Always the first eligible arm.
    First,
    /// Always the last eligible arm.
    Last,
}

/// All replayed policy/strategy combinations.
pub const POLICIES: [DataPolicy; 2] = [DataPolicy::Floor, DataPolicy::Ceil];
/// See [`POLICIES`].
pub const STRATEGIES: [ArmStrategy; 3] =
    [ArmStrategy::ByWarp, ArmStrategy::First, ArmStrategy::Last];

/// The witness shapes replay instantiates; the first matches the mutant
/// acceptance graph used by the dynamic sanitizer suite.
pub const SHAPES: [(i64, i64, i64, i64); 3] = [(10, 50, 1000, 32), (4, 8, 40, 8), (3, 5, 17, 4)];

const MAX_WARPS_PER_LAUNCH: u64 = 4096;
/// Cap on in-bounds elements accessed per run.
const MAX_EVENTS: u64 = 2_000_000;
/// Byte distance between consecutive plan buffers' bases.
const BUFFER_SPACING: u64 = 1 << 40;

fn base(buffer: usize) -> u64 {
    (buffer as u64 + 1) * BUFFER_SPACING
}

/// Outcome of one replay run.
pub struct ReplayOutcome {
    /// The first violation of each checker kind found.
    pub violations: Vec<(Property, Counterexample)>,
    /// `true` when a warp or event cap cut the run short — a clean
    /// truncated replay is inconclusive.
    pub truncated: bool,
}

struct Replayer<'a> {
    plan: &'a SymbolicPlan,
    policy: DataPolicy,
    strategy: ArmStrategy,
    shape: (i64, i64, i64, i64),
    values: Vec<i64>,
    extents: Vec<i64>,
    sink: Box<dyn AccessSink>,
    /// Shared-tile elements stored by the warp in flight: shared buffers
    /// have program-order visibility within one warp's block and no
    /// persistence past it, so the set resets per warp.
    shared_written: HashSet<(usize, i64)>,
    /// The first shared-tile read no same-warp store preceded.
    shared_violation: Option<Counterexample>,
    global_counters: HashMap<usize, i64>,
    events: u64,
    launch_name: String,
    warp: u64,
    truncated: bool,
}

/// Replay `plan` at `shape` under one policy/strategy combination.
pub fn replay(
    plan: &SymbolicPlan,
    shape: (i64, i64, i64, i64),
    policy: DataPolicy,
    strategy: ArmStrategy,
) -> ReplayOutcome {
    let sanitizer = Sanitizer::new();
    let mut r = Replayer {
        plan,
        policy,
        strategy,
        shape,
        values: vec![0; plan.vars.len()],
        extents: Vec::new(),
        sink: sanitizer.sink(),
        shared_written: HashSet::new(),
        shared_violation: None,
        global_counters: HashMap::new(),
        events: 0,
        launch_name: String::new(),
        warp: 0,
        truncated: false,
    };
    r.run();
    let examples = sanitizer.report().examples;
    let shared = r.shared_violation.take().map(|cex| (Property::Init, cex));
    let found = examples.iter().map(|v| r.counterexample(v));
    let mut violations = Vec::new();
    keep_first(&mut violations, found.chain(shared));
    ReplayOutcome {
        violations,
        truncated: r.truncated,
    }
}

/// Appends each of `found` whose kind `into` does not hold yet.
fn keep_first(
    into: &mut Vec<(Property, Counterexample)>,
    found: impl IntoIterator<Item = (Property, Counterexample)>,
) {
    for (kind, cex) in found {
        if !into.iter().any(|(k, _)| *k == kind) {
            into.push((kind, cex));
        }
    }
}

/// Replay `plan` across every shape, policy, and strategy; returns the
/// first counterexample found per checker kind, plus whether any run was
/// truncated.
pub fn replay_all(plan: &SymbolicPlan) -> (Vec<(Property, Counterexample)>, bool) {
    let mut found: Vec<(Property, Counterexample)> = Vec::new();
    let mut truncated = false;
    for shape in SHAPES {
        for policy in POLICIES {
            for strategy in STRATEGIES {
                let out = replay(plan, shape, policy, strategy);
                truncated |= out.truncated;
                keep_first(&mut found, out.violations);
            }
        }
    }
    (found, truncated)
}

impl Replayer<'_> {
    fn run(&mut self) {
        let (m, n, nnz, k) = self.shape;
        let plan = self.plan;
        // Parameters first, in declaration order so defaults may reference
        // earlier ones.
        for (i, decl) in plan.vars.iter().enumerate() {
            if !matches!(decl.kind, VarKind::Param) {
                continue;
            }
            self.values[i] = match decl.name.as_str() {
                "m" => m,
                "n" => n,
                "nnz" => nnz,
                "k" => k,
                _ => match &decl.def {
                    Some(d) => self.eval(d),
                    None => self.eval(&decl.lo),
                },
            };
        }
        for (i, b) in plan.buffers.iter().enumerate() {
            let extent = self.eval(&b.len).max(0);
            self.extents.push(extent);
            self.sink.register_buffer(&BufferDecl {
                // Named through the layout: see `counterexample`.
                name: "",
                role: match b.role {
                    SymBufferRole::Input | SymBufferRole::Shared => BufferRole::Input,
                    SymBufferRole::Output => BufferRole::Output,
                    SymBufferRole::Scratch => BufferRole::Scratch,
                },
                base: base(i),
                len_bytes: extent as u64 * 4,
            });
        }
        for launch in &plan.launches {
            self.launch_name = launch.name.clone();
            let mut warps: u64 = 1;
            for ext in &launch.extents {
                let e = self.eval(ext).max(1) as u64;
                warps = warps.saturating_mul(e);
            }
            if warps > MAX_WARPS_PER_LAUNCH {
                // Skipping a launch would poison downstream init state;
                // abandon the whole run instead.
                self.truncated = true;
                return;
            }
            self.sink.begin_launch(&launch.name, warps);
            for w in 0..warps {
                self.warp = w;
                self.shared_written.clear();
                let mut rem = w as i64;
                for (axis, ext) in launch.axes.iter().zip(&launch.extents) {
                    let e = self.eval(ext).max(1);
                    self.values[axis.index()] = rem % e;
                    rem /= e;
                }
                self.assign_data_vars();
                self.walk(&launch.ops);
                if self.truncated {
                    break;
                }
            }
            // A truncated launch still ends, so its stores are judged.
            self.sink.end_launch();
            if self.truncated {
                return;
            }
        }
    }

    /// Instantiate every data variable for the current warp, honouring the
    /// distinctness promises under `Floor` (values are clamped into range,
    /// which never bites for the plans the kernels emit).
    fn assign_data_vars(&mut self) {
        for i in 0..self.plan.vars.len() {
            let decl = self.plan.vars[i].clone();
            let VarKind::Data { distinct, .. } = decl.kind else {
                continue;
            };
            let lo = self.eval(&decl.lo);
            let hi = decl.hi.as_ref().map(|h| self.eval(h)).unwrap_or(lo).max(lo);
            let raw = match self.policy {
                DataPolicy::Ceil => hi,
                DataPolicy::Floor => match distinct {
                    Distinct::No => lo,
                    Distinct::ByVar(v) => lo + self.values[v.index()],
                    Distinct::Global => {
                        let c = self.global_counters.entry(i).or_insert(0);
                        let val = lo + *c;
                        *c += 1;
                        val
                    }
                },
            };
            self.values[i] = raw.clamp(lo, hi);
        }
    }

    fn eval(&self, e: &SymExpr) -> i64 {
        let values = &self.values;
        e.eval(&mut |v| values[v.index()])
    }

    fn walk(&mut self, ops: &[SymOp]) {
        for op in ops {
            if self.truncated {
                return;
            }
            match op {
                SymOp::Access(a) => self.access(a),
                SymOp::For { var, count, body } => {
                    let trip = self.eval(count).max(0);
                    for t in 0..trip {
                        self.values[var.index()] = t;
                        self.walk(body);
                        if self.truncated {
                            return;
                        }
                    }
                }
                SymOp::Cases(arms) => {
                    if let Some(arm) = self.pick_arm(arms) {
                        self.walk(&arm.body);
                    }
                }
            }
        }
    }

    fn pick_arm<'b>(&self, arms: &'b [SymArm]) -> Option<&'b SymArm> {
        let eligible: Vec<&SymArm> = arms
            .iter()
            .filter(|arm| match &arm.guard {
                Some(cond) => self.eval(&cond.lhs) <= self.eval(&cond.rhs),
                None => true,
            })
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let idx = match self.strategy {
            ArmStrategy::ByWarp => (self.warp as usize) % eligible.len(),
            ArmStrategy::First => 0,
            ArmStrategy::Last => eligible.len() - 1,
        };
        Some(eligible[idx])
    }

    fn access(&mut self, a: &SymAccess) {
        let len = self.eval(&a.len);
        if len <= 0 {
            return;
        }
        let offset = self.eval(&a.offset);
        let extent = self.extents[a.buffer];
        if offset < 0 || offset + len > extent {
            self.emit(a, offset, len);
        }
        let lo = offset.max(0);
        let inside = (offset + len).min(extent) - lo;
        let kept = inside.min((MAX_EVENTS - self.events) as i64);
        self.truncated |= kept < inside;
        if kept <= 0 {
            return;
        }
        self.events += kept as u64;
        self.emit(a, lo, kept);
        if self.plan.buffers[a.buffer].role != SymBufferRole::Shared {
            return;
        }
        for elem in lo..lo + kept {
            if a.kind != SymAccessKind::Read {
                self.shared_written.insert((a.buffer, elem));
            } else if self.shared_violation.is_none()
                && !self.shared_written.contains(&(a.buffer, elem))
            {
                self.shared_violation = Some(Counterexample {
                    shape: self.shape,
                    launch: self.launch_name.clone(),
                    warp: self.warp,
                    buffer: self.plan.buffers[a.buffer].name.clone(),
                    offset,
                    len,
                    oob: None,
                    detail: format!("read of shared element {elem} before any same-warp store"),
                });
            }
        }
    }

    fn emit(&mut self, a: &SymAccess, offset: i64, len: i64) {
        let (kind, atomic) = match a.kind {
            SymAccessKind::Read => (AccessKind::Read, false),
            SymAccessKind::Write => (AccessKind::Write, false),
            SymAccessKind::Atomic => (AccessKind::Atomic, true),
        };
        self.sink.record(&AccessEvent {
            warp: self.warp,
            kind,
            addr: base(a.buffer).wrapping_add_signed(offset * 4),
            len_bytes: len as u64 * 4,
            vector_width: 1,
            atomic,
        });
    }

    /// The sanitizer's violation in plan terms: every access stays within
    /// half a spacing of its buffer's base, so the nearest base names it.
    fn counterexample(&self, v: &Violation) -> (Property, Counterexample) {
        let buffer = ((v.addr + BUFFER_SPACING / 2) / BUFFER_SPACING - 1) as usize;
        let offset = v.addr.wrapping_sub(base(buffer)) as i64 / 4;
        let extent = self.extents[buffer];
        let (oob, detail) = match v.property {
            // Only an access starting inside its buffer has a declaration.
            Property::Bounds if v.buffer.is_some() => (
                Some(OobKind::Overrun),
                format!("overruns the {extent}-element allocation"),
            ),
            Property::Bounds => (
                Some(OobKind::Wild),
                format!("wild access outside the {extent}-element allocation"),
            ),
            Property::Race => {
                let with = match v.conflict {
                    Some(Conflict::Plain(w)) => format!("warp {w} (plain-vs-plain)"),
                    Some(Conflict::Atomic(Some(w))) => format!("warp {w} (plain-vs-atomic)"),
                    _ => "several warps (plain-vs-atomic)".to_string(),
                };
                (None, format!("element {offset} also stored by {with}"))
            }
            Property::Init => (None, format!("read of uninitialized element {offset}")),
        };
        let cex = Counterexample {
            shape: self.shape,
            launch: v.kernel.clone(),
            warp: v.warp,
            buffer: self.plan.buffers[buffer].name.clone(),
            offset,
            len: (v.len_bytes / 4) as i64,
            oob,
            detail,
        };
        (v.property, cex)
    }
}
