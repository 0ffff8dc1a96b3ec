//! Access-event stream for external analysis tools.
//!
//! The tally already sees every global load, store, gather and atomic a
//! kernel issues; this module lets an observer *consume* that stream. A
//! [`GpuSim`](crate::GpuSim) optionally carries a boxed [`AccessSink`]:
//! while one is attached, every launch announces itself
//! ([`begin_launch`](AccessSink::begin_launch) /
//! [`end_launch`](AccessSink::end_launch)), every allocation is declared as
//! a [`BufferDecl`], and [`WarpTally`](crate::WarpTally) forwards one
//! [`AccessEvent`] per warp-level global access. With no sink attached the
//! forwarding path is a single `Option` check per access — effectively
//! free — so instrumentation never perturbs ordinary benchmark runs.
//!
//! `hpsparse-verify`'s sanitizer builds its memcheck / racecheck /
//! initcheck pipeline on exactly this stream; [`Property`] names the three
//! properties those checkers and the seeded mutants share.

/// A memory-safety property of a kernel's access stream — the one name the
/// sanitizer (`hpsparse-verify`) and the seeded mutants
/// (`hpsparse_core::mutants`) use for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Property {
    /// Every access stays inside its buffer's allocation, aligned.
    Bounds,
    /// Cross-warp write footprints within a launch are disjoint or atomic.
    Race,
    /// Device memory is written (by a finished launch or the host) before
    /// it is read.
    Init,
}

impl Property {
    /// All three, in report order.
    pub const ALL: [Property; 3] = [Property::Bounds, Property::Race, Property::Init];

    /// Stable lowercase label of the property, used in JSON and tables:
    /// `bounds`, `race`, `init`.
    pub fn label(self) -> &'static str {
        match self {
            Property::Bounds => "bounds",
            Property::Race => "race",
            Property::Init => "init",
        }
    }

    /// The dynamic checker that enforces it, named after
    /// compute-sanitizer's tools: `memcheck`, `racecheck`, `initcheck`.
    pub fn checker(self) -> &'static str {
        match self {
            Property::Bounds => "memcheck",
            Property::Race => "racecheck",
            Property::Init => "initcheck",
        }
    }
}

/// What kind of warp-level global access an event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Coalesced warp read of a contiguous range.
    Read,
    /// Coalesced warp write of a contiguous range.
    Write,
    /// One lane's slice of a gather (per-lane addresses; a warp gather
    /// produces one event per lane).
    Gather,
    /// One lane's slice of a scatter (write counterpart of [`Gather`]).
    ///
    /// [`Gather`]: AccessKind::Gather
    Scatter,
    /// Warp-level atomic read-modify-write of a contiguous range.
    Atomic,
}

impl AccessKind {
    /// Does this access read global memory?
    pub fn is_load(self) -> bool {
        matches!(self, AccessKind::Read | AccessKind::Gather)
    }

    /// Does this access write global memory? (Atomics count: they deposit
    /// a value regardless of the old contents.)
    pub fn is_store(self) -> bool {
        matches!(
            self,
            AccessKind::Write | AccessKind::Scatter | AccessKind::Atomic
        )
    }
}

/// One warp-level global-memory access, as seen by the tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// Issuing warp (the launch-global warp id).
    pub warp: u64,
    /// Access flavour.
    pub kind: AccessKind,
    /// First byte touched.
    pub addr: u64,
    /// Contiguous bytes touched from `addr`.
    pub len_bytes: u64,
    /// *Effective* vector width in 4-byte elements — the width the access
    /// actually issued with after the tally's misalignment demotion, so
    /// `addr % (vector_width * 4) == 0` is an invariant a checker may
    /// enforce.
    pub vector_width: u32,
    /// Was the access an atomic read-modify-write?
    pub atomic: bool,
}

/// How a declared buffer participates in a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferRole {
    /// Host-initialised data the kernel may read freely.
    Input,
    /// Kernel-produced data (conceptually zero-initialised by the host;
    /// accumulating atomics are fine, plain reads before any store are
    /// not).
    Output,
    /// Device-side temporary with no host initialisation.
    Scratch,
}

/// A declared device allocation: name, role and byte extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferDecl {
    /// Human-readable name quoted in diagnostics (e.g. `"col_ind"`).
    pub name: &'static str,
    /// How the kernel uses the buffer.
    pub role: BufferRole,
    /// First byte of the extent.
    pub base: u64,
    /// Length of the extent in bytes.
    pub len_bytes: u64,
}

impl BufferDecl {
    /// One past the last byte of the extent.
    pub fn end(&self) -> u64 {
        self.base + self.len_bytes
    }

    /// Does `[addr, addr + len)` fall entirely inside this extent?
    pub fn contains(&self, addr: u64, len_bytes: u64) -> bool {
        addr >= self.base && addr.saturating_add(len_bytes) <= self.end()
    }
}

/// Consumer of the simulator's access-event stream.
///
/// Calls arrive in a strict protocol per launch: `begin_launch`, then any
/// number of `record`s (grouped by warp in scheduling order), then
/// `end_launch`. `register_buffer` arrives outside a launch, once per
/// allocation made while the sink is attached; allocations made before it
/// attached are never declared to it.
pub trait AccessSink: Send {
    /// A kernel launch is starting.
    fn begin_launch(&mut self, kernel: &str, num_warps: u64);
    /// A device allocation made while this sink is attached.
    fn register_buffer(&mut self, decl: &BufferDecl);
    /// One warp-level global access.
    fn record(&mut self, event: &AccessEvent);
    /// The current launch finished; all its events have been recorded.
    fn end_launch(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_classification() {
        assert!(AccessKind::Read.is_load());
        assert!(AccessKind::Gather.is_load());
        assert!(!AccessKind::Write.is_load());
        assert!(AccessKind::Write.is_store());
        assert!(AccessKind::Scatter.is_store());
        assert!(AccessKind::Atomic.is_store());
        assert!(!AccessKind::Atomic.is_load());
    }

    #[test]
    fn decl_containment() {
        let d = BufferDecl {
            name: "x",
            role: BufferRole::Input,
            base: 256,
            len_bytes: 64,
        };
        assert_eq!(d.end(), 320);
        assert!(d.contains(256, 64));
        assert!(d.contains(300, 20));
        assert!(!d.contains(255, 4));
        assert!(!d.contains(300, 21));
        assert!(!d.contains(u64::MAX, 4));
    }
}
