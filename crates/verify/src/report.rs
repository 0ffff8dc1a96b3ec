//! Three-valued verdicts and their stable-field-order JSON form.
//!
//! Verdict JSON is consumed by the `repro -- verify` experiment table and
//! pinned by a golden test, so — like the simulator's `LaunchReport` JSON —
//! field order is part of the contract: fields appear in declaration order,
//! never alphabetically resorted.

use hpsparse_sim::Property;
use serde_json::{Map, ToJson, Value};
use std::fmt;

/// Attribution of a bounds violation, mirroring the dynamic memcheck's
/// overrun-vs-wild split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OobKind {
    /// The access starts inside the allocation but runs past its end.
    Overrun,
    /// The access starts outside every allocation region.
    Wild,
}

impl OobKind {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            OobKind::Overrun => "overrun",
            OobKind::Wild => "wild",
        }
    }
}

/// A concrete witness instantiation on which the replay evaluator observed
/// a violation.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The `(m, n, nnz, k)` shape the plan was instantiated at.
    pub shape: (i64, i64, i64, i64),
    /// Label of the offending launch.
    pub launch: String,
    /// Flat warp id within that launch.
    pub warp: u64,
    /// Name of the buffer the violation is against.
    pub buffer: String,
    /// Element offset of the offending access.
    pub offset: i64,
    /// Element length of the offending access.
    pub len: i64,
    /// Bounds violations carry the memcheck-style attribution.
    pub oob: Option<OobKind>,
    /// Human-readable one-liner (e.g. which second warp raced).
    pub detail: String,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (m, n, nnz, k) = self.shape;
        write!(
            f,
            "at (m={m}, n={n}, nnz={nnz}, k={k}): launch '{}' warp {} buffer '{}' [{}, +{}): {}",
            self.launch, self.warp, self.buffer, self.offset, self.len, self.detail
        )
    }
}

impl ToJson for Counterexample {
    fn to_json(&self) -> Value {
        let mut o = Map::new();
        let (m, n, nnz, k) = self.shape;
        o.insert("m".into(), m.to_json());
        o.insert("n".into(), n.to_json());
        o.insert("nnz".into(), nnz.to_json());
        o.insert("k".into(), k.to_json());
        o.insert("launch".into(), self.launch.to_json());
        o.insert("warp".into(), self.warp.to_json());
        o.insert("buffer".into(), self.buffer.to_json());
        o.insert("offset".into(), self.offset.to_json());
        o.insert("len".into(), self.len.to_json());
        if let Some(oob) = self.oob {
            o.insert("oob".into(), oob.label().to_json());
        }
        o.insert("detail".into(), self.detail.to_json());
        Value::Object(o)
    }
}

/// Outcome of one checker on one plan.
#[derive(Clone, Debug)]
pub enum CheckVerdict {
    /// The property holds for *all* shapes: every proof obligation
    /// discharged.
    Proved,
    /// The property fails: a concrete counterexample was found and replayed.
    Refuted(Counterexample),
    /// Neither proved nor refuted; the dynamic sanitizer is the only
    /// judge.
    Unknown {
        /// The first obligation the prover could not discharge.
        reason: String,
    },
}

impl CheckVerdict {
    /// Stable status label.
    pub fn status(&self) -> &'static str {
        match self {
            CheckVerdict::Proved => "proved",
            CheckVerdict::Refuted(_) => "refuted",
            CheckVerdict::Unknown { .. } => "unknown",
        }
    }

    /// `true` iff this verdict is [`CheckVerdict::Proved`].
    pub fn is_proved(&self) -> bool {
        matches!(self, CheckVerdict::Proved)
    }

    /// `true` iff this verdict is [`CheckVerdict::Refuted`].
    pub fn is_refuted(&self) -> bool {
        matches!(self, CheckVerdict::Refuted(_))
    }
}

impl ToJson for CheckVerdict {
    fn to_json(&self) -> Value {
        let mut o = Map::new();
        o.insert("status".into(), self.status().to_json());
        match self {
            CheckVerdict::Proved => {}
            CheckVerdict::Refuted(cex) => {
                o.insert("counterexample".into(), cex.to_json());
            }
            CheckVerdict::Unknown { reason } => {
                o.insert("reason".into(), reason.to_json());
            }
        }
        Value::Object(o)
    }
}

/// All three checkers' verdicts for one symbolic plan (one kernel variant).
#[derive(Clone, Debug)]
pub struct PlanVerdict {
    /// Kernel name, from the plan.
    pub kernel: String,
    /// Configuration variant label, from the plan.
    pub variant: String,
    /// Bounds verdict.
    pub bounds: CheckVerdict,
    /// Race-freedom verdict.
    pub race: CheckVerdict,
    /// Init-before-read verdict.
    pub init: CheckVerdict,
}

impl PlanVerdict {
    /// The verdict on a given property.
    pub fn check(&self, property: Property) -> &CheckVerdict {
        match property {
            Property::Bounds => &self.bounds,
            Property::Race => &self.race,
            Property::Init => &self.init,
        }
    }

    /// `true` iff all three checkers proved.
    pub fn all_proved(&self) -> bool {
        Property::ALL.iter().all(|k| self.check(*k).is_proved())
    }

    /// `true` iff any checker refuted.
    pub fn any_refuted(&self) -> bool {
        Property::ALL.iter().any(|k| self.check(*k).is_refuted())
    }
}

impl ToJson for PlanVerdict {
    fn to_json(&self) -> Value {
        let mut o = Map::new();
        o.insert("kernel".into(), self.kernel.to_json());
        o.insert("variant".into(), self.variant.to_json());
        o.insert("bounds".into(), self.bounds.to_json());
        o.insert("race".into(), self.race.to_json());
        o.insert("init".into(), self.init.to_json());
        Value::Object(o)
    }
}
