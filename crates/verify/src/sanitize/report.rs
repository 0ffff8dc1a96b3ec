//! Sanitizer verdicts: individual violations and the aggregated report.

use hpsparse_sim::Property;
use std::fmt;

/// The other warp's store a racecheck violation conflicts with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conflict {
    /// A non-atomic write by the given warp.
    Plain(u64),
    /// Atomics by the given warp, or by several warps (`None`).
    Atomic(Option<u64>),
}

/// One flagged access, with enough context to locate the offending code:
/// the kernel (launch name), the issuing warp, the byte address and length,
/// and the declared buffer involved (when the address maps to one).
#[derive(Debug, Clone)]
pub struct Violation {
    /// The property violated; its [`Property::checker`] is the detector
    /// that fired.
    pub property: Property,
    /// Launch name of the offending kernel.
    pub kernel: String,
    /// Issuing warp (launch-global id).
    pub warp: u64,
    /// First offending byte.
    pub addr: u64,
    /// Bytes involved from `addr`.
    pub len_bytes: u64,
    /// Declared buffer the address maps to, if any.
    pub buffer: Option<&'static str>,
    /// Human-readable description of what went wrong.
    pub detail: String,
    /// Racecheck only: the store this one conflicts with.
    pub conflict: Option<Conflict>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] warp {} addr {:#x} len {}",
            self.property.checker(),
            self.kernel,
            self.warp,
            self.addr,
            self.len_bytes
        )?;
        if let Some(name) = self.buffer {
            write!(f, " (buffer '{name}')")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Aggregated sanitizer verdict over everything a [`Sanitizer`] observed.
///
/// Violation *counts* are exact; `examples` is capped per
/// (checker, kernel) pair so a hot loop issuing millions of bad accesses
/// cannot flood memory.
///
/// [`Sanitizer`]: crate::Sanitizer
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Kernel launches observed.
    pub launches: u64,
    /// Access events observed.
    pub events: u64,
    /// Total memcheck violations.
    pub memcheck: u64,
    /// Total racecheck violations.
    pub racecheck: u64,
    /// Total initcheck violations.
    pub initcheck: u64,
    /// Representative violations (capped per checker × kernel).
    pub examples: Vec<Violation>,
}

impl Report {
    /// Total violations across all three checkers.
    pub(crate) fn total(&self) -> u64 {
        self.memcheck + self.racecheck + self.initcheck
    }

    /// Did everything observed come back clean?
    pub fn passed(&self) -> bool {
        self.total() == 0
    }

    /// Violation count for one property's checker.
    pub fn count(&self, property: Property) -> u64 {
        match property {
            Property::Bounds => self.memcheck,
            Property::Race => self.racecheck,
            Property::Init => self.initcheck,
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.passed() {
            return write!(
                f,
                "PASS ({} launches, {} events, 0 violations)",
                self.launches, self.events
            );
        }
        writeln!(
            f,
            "FAIL ({} launches, {} events): memcheck={} racecheck={} initcheck={}",
            self.launches, self.events, self.memcheck, self.racecheck, self.initcheck
        )?;
        for v in &self.examples {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_passes() {
        let r = Report::default();
        assert!(r.passed());
        assert_eq!(r.total(), 0);
        assert!(r.to_string().starts_with("PASS"));
    }

    #[test]
    fn violation_display_names_kernel_and_address() {
        let v = Violation {
            property: Property::Bounds,
            kernel: "HP-SpMM".into(),
            warp: 3,
            addr: 0x1200,
            len_bytes: 4,
            buffer: Some("col_ind"),
            detail: "access overruns allocation".into(),
            conflict: None,
        };
        let s = v.to_string();
        assert!(s.contains("memcheck"));
        assert!(s.contains("HP-SpMM"));
        assert!(s.contains("0x1200"));
        assert!(s.contains("col_ind"));
    }

    #[test]
    fn failing_report_lists_counts_and_examples() {
        let mut r = Report {
            launches: 2,
            events: 10,
            racecheck: 4,
            ..Report::default()
        };
        r.examples.push(Violation {
            property: Property::Race,
            kernel: "mutant".into(),
            warp: 1,
            addr: 64,
            len_bytes: 8,
            buffer: Some("O"),
            detail: "conflicting write".into(),
            conflict: Some(Conflict::Plain(0)),
        });
        assert!(!r.passed());
        assert_eq!(r.count(Property::Race), 4);
        let s = r.to_string();
        assert!(s.contains("FAIL"));
        assert!(s.contains("racecheck=4"));
        assert!(s.contains("mutant"));
    }
}
