//! compute-sanitizer for the simulated GPU.
//!
//! NVIDIA's `compute-sanitizer` catches three families of kernel bugs on
//! real hardware: out-of-bounds / misaligned accesses (*memcheck*),
//! unsynchronised conflicting writes (*racecheck*), and reads of memory
//! nothing initialised (*initcheck*). This crate rebuilds all three on top
//! of the simulator's [`AccessSink`] stream, so every kernel in the
//! workspace can be checked deterministically, in-process, with zero
//! overhead when no sanitizer is attached.
//!
//! Usage mirrors attaching the real tool to a process:
//!
//! ```
//! use hpsparse_sanitize::Sanitizer;
//! use hpsparse_sim::{DeviceSpec, GpuSim, KernelResources, LaunchConfig};
//!
//! let sanitizer = Sanitizer::new();
//! let mut sim = GpuSim::new(DeviceSpec::v100());
//! sim.attach_sink(sanitizer.sink());
//!
//! let buf = sim.alloc_input(32, "x");
//! let resources = KernelResources {
//!     warps_per_block: 4,
//!     registers_per_thread: 32,
//!     shared_mem_per_block: 0,
//! };
//! sim.launch_named(
//!     "demo",
//!     LaunchConfig { num_warps: 1, resources },
//!     |_, tally| tally.global_read(buf.addr(0), 128, 4),
//! );
//!
//! let report = sanitizer.report();
//! assert!(report.passed(), "{report}");
//! ```
//!
//! # What each checker enforces
//!
//! * **memcheck** — every access must fall entirely inside one declared
//!   buffer extent, and its address must be aligned to its (effective)
//!   vector width. Accesses that touch undeclared memory or overrun a
//!   declaration belong to memcheck *exclusively*: the other checkers
//!   ignore them, so one bad access produces one kind of violation.
//! * **racecheck** — within a single launch, no two warps may issue
//!   overlapping writes unless both are atomic. Atomic-vs-atomic is the
//!   simulator's (and CUDA's) sanctioned accumulation idiom and is never
//!   flagged; non-atomic-vs-non-atomic and non-atomic-vs-atomic are.
//!   Warp scheduling order inside a launch is not a synchronisation
//!   edge — the model matches CUDA's "no inter-block ordering" rule.
//! * **initcheck** — a read must land either in an [`Input`] buffer
//!   (host-initialised) or in bytes some earlier *launch* stored. Store
//!   visibility is launch-granular, matching the device-wide memory fence
//!   a kernel boundary implies: stores become readable at `end_launch`,
//!   so partition-then-execute pipelines check cleanly while a kernel
//!   reading its own output buffer before any store is flagged.
//!
//! # Relationship to the static verifier
//!
//! `hpsparse-verify` proves the same three properties *statically* from a
//! kernel's symbolic plan. The `repro -- verify` experiment runs both on
//! every kernel: a kernel passes when this crate finds no violation on any
//! registry graph and the prover refutes nothing. A static `Unknown` says
//! nothing about the kernel, only about the prover, so for it the
//! sanitizer is the only judge. [`sanitize_run`] is the entry point the
//! sweep uses.
//!
//! The verifier's refutations are this crate's verdicts too: its replay
//! instantiates a plan at concrete shapes and emits every access into a
//! fresh [`Sanitizer`], so the checkers have two producers — a simulated
//! kernel's stream and a plan's — and one set of rules.
//!
//! [`Input`]: hpsparse_sim::BufferRole::Input

#![forbid(unsafe_code)]

mod interval;
mod report;

pub use report::{Conflict, Report, Violation};

use hpsparse_sim::{AccessEvent, AccessSink, BufferDecl, BufferRole, Property};
use interval::IntervalSet;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Example violations kept per (checker, kernel) pair; counts stay exact.
const EXAMPLES_PER_KEY: u64 = 8;

/// Per-launch ceiling on *recorded* race pairs: a de-atomicized hot loop
/// can produce quadratically many conflicting pairs, and detecting the
/// race does not require enumerating all of them.
const RACE_PAIR_CAP: u64 = 4096;

/// Handle to an attached sanitizer.
///
/// Create one, hand [`Sanitizer::sink`] to
/// [`GpuSim::attach_sink`](hpsparse_sim::GpuSim::attach_sink) before the
/// kernels allocate (buffers allocated earlier are never declared to it),
/// run kernels, then read the verdict with [`Sanitizer::report`]. The handle
/// and the sink share state, so the report may be taken at any point —
/// including while the simulator still holds the sink.
#[derive(Debug, Clone, Default)]
pub struct Sanitizer {
    inner: Arc<Mutex<Inner>>,
}

impl Sanitizer {
    /// A fresh sanitizer with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// A new sink, sharing this sanitizer's state, to attach to a
    /// [`GpuSim`](hpsparse_sim::GpuSim).
    pub fn sink(&self) -> Box<dyn AccessSink> {
        Box::new(Recorder {
            inner: Arc::clone(&self.inner),
        })
    }

    /// Snapshot of the verdict so far.
    pub fn report(&self) -> Report {
        self.lock().report.clone()
    }

    /// Have any violations been observed yet?
    pub fn passed(&self) -> bool {
        self.lock().report.passed()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("sanitizer state poisoned")
    }
}

/// Runs `f` on a fresh simulator with a sanitizer attached and returns
/// the verdict — the one-shot entry point for callers (such as the
/// `repro -- verify` sweep) that need a dynamic check of a single kernel
/// invocation without managing sink lifetimes themselves.
pub fn sanitize_run(
    device: hpsparse_sim::DeviceSpec,
    f: impl FnOnce(&mut hpsparse_sim::GpuSim),
) -> Report {
    let sanitizer = Sanitizer::new();
    let mut sim = hpsparse_sim::GpuSim::new(device);
    sim.attach_sink(sanitizer.sink());
    f(&mut sim);
    sanitizer.report()
}

/// The [`AccessSink`] half: forwards the simulator's stream into the
/// shared checker state.
struct Recorder {
    inner: Arc<Mutex<Inner>>,
}

impl Recorder {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("sanitizer state poisoned")
    }
}

impl AccessSink for Recorder {
    fn begin_launch(&mut self, kernel: &str, _num_warps: u64) {
        self.lock().begin_launch(kernel);
    }

    fn register_buffer(&mut self, decl: &BufferDecl) {
        self.lock().register_buffer(decl);
    }

    fn record(&mut self, event: &AccessEvent) {
        self.lock().record(event);
    }

    fn end_launch(&mut self) {
        self.lock().end_launch();
    }
}

/// One store, kept for the end-of-launch racecheck sweep and the stored-set
/// merge.
#[derive(Debug, Clone, Copy)]
struct StoreSpan {
    addr: u64,
    end: u64,
    warp: u64,
}

/// Atomic stores merged into maximal overlapping blobs. `warp` is the
/// single issuing warp, or `None` once two different warps contributed —
/// at which point any overlapping non-atomic write conflicts with *some*
/// other warp's atomic.
#[derive(Debug, Clone, Copy)]
struct AtomicBlob {
    addr: u64,
    end: u64,
    warp: Option<u64>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Declared allocations, sorted by base. The simulator's bump
    /// allocator never overlaps extents, so at most one decl can contain
    /// a given address.
    decls: Vec<BufferDecl>,
    /// Every byte range any finished launch has stored.
    stored: IntervalSet,
    /// Launch currently in flight (name of the kernel).
    kernel: String,
    /// Non-atomic stores of the current launch.
    plain_writes: Vec<StoreSpan>,
    /// Atomic stores of the current launch.
    atomic_writes: Vec<StoreSpan>,
    report: Report,
    /// Examples already kept per (checker, kernel).
    example_counts: HashMap<(Property, String), u64>,
}

impl Inner {
    fn begin_launch(&mut self, kernel: &str) {
        self.kernel.clear();
        self.kernel.push_str(kernel);
        self.plain_writes.clear();
        self.atomic_writes.clear();
        self.report.launches += 1;
    }

    fn register_buffer(&mut self, decl: &BufferDecl) {
        let pos = self.decls.partition_point(|d| d.base <= decl.base);
        self.decls.insert(pos, *decl);
    }

    /// The declared buffer whose extent contains `addr`, if any.
    fn decl_at(&self, addr: u64) -> Option<BufferDecl> {
        let i = self
            .decls
            .partition_point(|d| d.base <= addr)
            .checked_sub(1)?;
        let d = self.decls[i];
        (addr < d.end()).then_some(d)
    }

    fn record(&mut self, ev: &AccessEvent) {
        self.report.events += 1;

        // memcheck: containment. An access outside every declaration (or
        // overrunning one) is memcheck's exclusively — return early so the
        // other checkers never reason about wild addresses.
        let decl = self.decl_at(ev.addr);
        let contained = decl.is_some_and(|d| d.contains(ev.addr, ev.len_bytes));
        if !contained {
            let detail = match decl {
                Some(d) => format!(
                    "access of {} bytes at offset {} overruns the {}-byte allocation",
                    ev.len_bytes,
                    ev.addr - d.base,
                    d.len_bytes
                ),
                None => "address outside every declared allocation".to_string(),
            };
            self.flag(
                Property::Bounds,
                ev.warp,
                ev.addr,
                ev.len_bytes,
                detail,
                None,
            );
            return;
        }
        let d = decl.expect("contained implies a declaration");

        // memcheck: alignment. The tally demotes misaligned vectors before
        // emitting, so this firing means an event bypassed the demotion.
        let align = u64::from(ev.vector_width.max(1)) * 4;
        if !ev.addr.is_multiple_of(align) {
            self.flag(
                Property::Bounds,
                ev.warp,
                ev.addr,
                ev.len_bytes,
                format!(
                    "address not aligned to its {}-element vector width",
                    ev.vector_width
                ),
                None,
            );
            return;
        }

        // initcheck: loads only, and only from non-Input buffers the
        // stored set does not cover.
        if ev.kind.is_load()
            && d.role != BufferRole::Input
            && !self.stored.covers(ev.addr, ev.addr + ev.len_bytes)
        {
            self.flag(
                Property::Init,
                ev.warp,
                ev.addr,
                ev.len_bytes,
                format!("read of uninitialised {:?} memory", d.role),
                None,
            );
        }

        if ev.kind.is_store() {
            let span = StoreSpan {
                addr: ev.addr,
                end: ev.addr + ev.len_bytes,
                warp: ev.warp,
            };
            if ev.atomic {
                self.atomic_writes.push(span);
            } else {
                self.plain_writes.push(span);
            }
        }
    }

    fn end_launch(&mut self) {
        let mut plain = std::mem::take(&mut self.plain_writes);
        let mut atomics = std::mem::take(&mut self.atomic_writes);
        plain.sort_unstable_by_key(|w| (w.addr, w.end, w.warp));
        atomics.sort_unstable_by_key(|w| (w.addr, w.end, w.warp));

        self.race_plain_vs_plain(&plain);
        self.race_plain_vs_atomic(&plain, &atomics);

        let batch: Vec<(u64, u64)> = plain
            .iter()
            .chain(atomics.iter())
            .map(|w| (w.addr, w.end))
            .collect();
        self.stored.insert_all(batch);
    }

    /// Conflicts between two non-atomic stores of different warps.
    /// `plain` is sorted by (address, end, warp), so each overlapping pair
    /// is found from its lower-addressed member, lower warp first on ties;
    /// clean kernels have disjoint non-atomic stores and the inner scan
    /// terminates immediately.
    fn race_plain_vs_plain(&mut self, plain: &[StoreSpan]) {
        let mut recorded = 0u64;
        for (i, a) in plain.iter().enumerate() {
            for b in &plain[i + 1..] {
                if b.addr >= a.end {
                    break;
                }
                if b.warp != a.warp {
                    self.flag(
                        Property::Race,
                        b.warp,
                        b.addr,
                        a.end.min(b.end) - b.addr,
                        format!(
                            "non-atomic write conflicts with warp {}'s non-atomic write at {:#x}",
                            a.warp, a.addr
                        ),
                        Some(Conflict::Plain(a.warp)),
                    );
                    recorded += 1;
                    if recorded >= RACE_PAIR_CAP {
                        return;
                    }
                }
            }
        }
    }

    /// Conflicts between a non-atomic store and any other warp's atomic.
    /// The (sorted) atomics are merged into maximal overlapping blobs
    /// first: a blob touched by two warps conflicts with every overlapping
    /// plain write, and a single-warp blob conflicts with overlapping
    /// plain writes from any *other* warp — so the sweep never enumerates
    /// the quadratically many atomic pairs a hub row produces.
    fn race_plain_vs_atomic(&mut self, plain: &[StoreSpan], atomics: &[StoreSpan]) {
        if plain.is_empty() || atomics.is_empty() {
            return;
        }
        let mut blobs: Vec<AtomicBlob> = Vec::new();
        for w in atomics {
            match blobs.last_mut() {
                Some(b) if w.addr < b.end => {
                    b.end = b.end.max(w.end);
                    if b.warp != Some(w.warp) {
                        b.warp = None;
                    }
                }
                _ => blobs.push(AtomicBlob {
                    addr: w.addr,
                    end: w.end,
                    warp: Some(w.warp),
                }),
            }
        }
        let mut recorded = 0u64;
        for w in plain {
            // Blobs are disjoint, so sorted by end as well as by addr.
            let start = blobs.partition_point(|b| b.end <= w.addr);
            for b in &blobs[start..] {
                if b.addr >= w.end {
                    break;
                }
                if b.warp != Some(w.warp) {
                    let lo = w.addr.max(b.addr);
                    self.flag(
                        Property::Race,
                        w.warp,
                        lo,
                        w.end.min(b.end) - lo,
                        "non-atomic write conflicts with another warp's atomic".to_string(),
                        Some(Conflict::Atomic(b.warp)),
                    );
                    recorded += 1;
                    if recorded >= RACE_PAIR_CAP {
                        return;
                    }
                }
            }
        }
    }

    fn flag(
        &mut self,
        property: Property,
        warp: u64,
        addr: u64,
        len_bytes: u64,
        detail: String,
        conflict: Option<Conflict>,
    ) {
        match property {
            Property::Bounds => self.report.memcheck += 1,
            Property::Race => self.report.racecheck += 1,
            Property::Init => self.report.initcheck += 1,
        }
        let kept = self
            .example_counts
            .entry((property, self.kernel.clone()))
            .or_insert(0);
        if *kept < EXAMPLES_PER_KEY {
            *kept += 1;
            self.report.examples.push(Violation {
                property,
                kernel: self.kernel.clone(),
                warp,
                addr,
                len_bytes,
                buffer: self.decl_at(addr).map(|d| d.name),
                detail,
                conflict,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_sim::AccessKind;

    fn decl(name: &'static str, role: BufferRole, base: u64, len: u64) -> BufferDecl {
        BufferDecl {
            name,
            role,
            base,
            len_bytes: len,
        }
    }

    fn event(warp: u64, kind: AccessKind, addr: u64, len: u64) -> AccessEvent {
        AccessEvent {
            warp,
            kind,
            addr,
            len_bytes: len,
            vector_width: 1,
            atomic: kind == AccessKind::Atomic,
        }
    }

    /// Drives a sink through one launch of the given events.
    fn run_launch(sink: &mut dyn AccessSink, kernel: &str, events: &[AccessEvent]) {
        sink.begin_launch(kernel, 8);
        for ev in events {
            sink.record(ev);
        }
        sink.end_launch();
    }

    fn harness() -> (Sanitizer, Box<dyn AccessSink>) {
        let s = Sanitizer::new();
        let mut sink = s.sink();
        sink.register_buffer(&decl("in", BufferRole::Input, 0, 256));
        sink.register_buffer(&decl("out", BufferRole::Output, 512, 256));
        sink.register_buffer(&decl("tmp", BufferRole::Scratch, 1024, 256));
        (s, sink)
    }

    #[test]
    fn clean_stream_passes() {
        let (s, mut sink) = harness();
        run_launch(
            sink.as_mut(),
            "k",
            &[
                event(0, AccessKind::Read, 0, 128),
                event(0, AccessKind::Write, 512, 64),
                event(1, AccessKind::Write, 576, 64),
                event(2, AccessKind::Atomic, 640, 32),
                event(3, AccessKind::Atomic, 640, 32),
            ],
        );
        let r = s.report();
        assert!(r.passed(), "{r}");
        assert_eq!(r.launches, 1);
        assert_eq!(r.events, 5);
    }

    #[test]
    fn memcheck_flags_wild_address_exclusively() {
        let (s, mut sink) = harness();
        // Read from an undeclared address: memcheck only, even though the
        // bytes were also never stored.
        run_launch(sink.as_mut(), "k", &[event(2, AccessKind::Read, 4096, 4)]);
        let r = s.report();
        assert_eq!(r.memcheck, 1);
        assert_eq!(r.initcheck, 0);
        assert_eq!(r.racecheck, 0);
        assert_eq!(r.examples[0].buffer, None);
        assert_eq!(r.examples[0].warp, 2);
        assert_eq!(r.examples[0].addr, 4096);
    }

    #[test]
    fn memcheck_flags_overrun_with_buffer_attribution() {
        let (s, mut sink) = harness();
        // Starts inside 'in' but runs 8 bytes past its end.
        run_launch(sink.as_mut(), "k", &[event(0, AccessKind::Read, 248, 16)]);
        let r = s.report();
        assert_eq!(r.memcheck, 1);
        assert_eq!(r.examples[0].buffer, Some("in"));
        assert!(r.examples[0].detail.contains("overruns"));
    }

    #[test]
    fn memcheck_flags_misaligned_vector_access() {
        let (s, mut sink) = harness();
        let mut ev = event(0, AccessKind::Read, 4, 16);
        ev.vector_width = 4; // float4 at a 4-byte address: misaligned.
        run_launch(sink.as_mut(), "k", &[ev]);
        let r = s.report();
        assert_eq!(r.memcheck, 1);
        assert!(r.examples[0].detail.contains("aligned"));
    }

    #[test]
    fn racecheck_flags_conflicting_plain_writes_only_across_warps() {
        let (s, mut sink) = harness();
        run_launch(
            sink.as_mut(),
            "k",
            &[
                // Same warp overlapping itself: fine.
                event(0, AccessKind::Write, 512, 32),
                event(0, AccessKind::Write, 512, 32),
                // Two warps overlapping: race.
                event(1, AccessKind::Write, 600, 16),
                event(2, AccessKind::Write, 608, 16),
            ],
        );
        let r = s.report();
        assert_eq!(r.racecheck, 1, "{r}");
        assert_eq!(r.memcheck + r.initcheck, 0);
        let v = &r.examples[0];
        assert_eq!(v.buffer, Some("out"));
        assert_eq!(v.addr, 608);
        assert!(v.detail.contains("non-atomic"));
    }

    #[test]
    fn racecheck_flags_plain_vs_atomic_but_not_atomic_vs_atomic() {
        let (s, mut sink) = harness();
        run_launch(
            sink.as_mut(),
            "k",
            &[
                // Hub row: many warps atomically accumulating — sanctioned.
                event(0, AccessKind::Atomic, 512, 64),
                event(1, AccessKind::Atomic, 512, 64),
                event(2, AccessKind::Atomic, 544, 64),
                // Warp 3 plain-writes into the same range — race.
                event(3, AccessKind::Write, 520, 8),
            ],
        );
        let r = s.report();
        assert_eq!(r.racecheck, 1, "{r}");
        assert!(r.examples[0].detail.contains("atomic"));
        assert_eq!(r.examples[0].warp, 3);
    }

    #[test]
    fn racecheck_scatter_counts_as_plain_write() {
        let (s, mut sink) = harness();
        run_launch(
            sink.as_mut(),
            "k",
            &[
                event(0, AccessKind::Scatter, 1024, 4),
                event(5, AccessKind::Scatter, 1024, 4),
            ],
        );
        assert_eq!(s.report().racecheck, 1);
    }

    #[test]
    fn racecheck_names_the_lowest_warps_whatever_the_arrival_order() {
        let (s, mut sink) = harness();
        let events: Vec<AccessEvent> = (0..40)
            .rev()
            .map(|w| event(w, AccessKind::Write, 512, 32))
            .collect();
        run_launch(sink.as_mut(), "k", &events);
        let r = s.report();
        let v = &r.examples[0];
        assert_eq!(v.property, Property::Race, "{r}");
        assert_eq!((v.warp, v.conflict), (1, Some(Conflict::Plain(0))), "{v}");
    }

    #[test]
    fn racecheck_resets_between_launches() {
        let (s, mut sink) = harness();
        // The same range written by different warps in *different*
        // launches is sequenced by the kernel boundary — no race.
        run_launch(sink.as_mut(), "k1", &[event(0, AccessKind::Write, 512, 32)]);
        run_launch(sink.as_mut(), "k2", &[event(1, AccessKind::Write, 512, 32)]);
        assert!(s.report().passed());
    }

    #[test]
    fn initcheck_flags_read_before_any_store() {
        let (s, mut sink) = harness();
        run_launch(sink.as_mut(), "k", &[event(4, AccessKind::Read, 512, 16)]);
        let r = s.report();
        assert_eq!(r.initcheck, 1);
        assert_eq!(r.memcheck + r.racecheck, 0);
        assert_eq!(r.examples[0].buffer, Some("out"));
        assert!(r.examples[0].detail.contains("uninitialised"));
    }

    #[test]
    fn initcheck_allows_input_reads_and_cross_launch_stores() {
        let (s, mut sink) = harness();
        // Launch 1 stores into scratch; launch 2 reads it back — the
        // partition-then-execute pattern.
        run_launch(
            sink.as_mut(),
            "partition",
            &[event(0, AccessKind::Write, 1024, 128)],
        );
        run_launch(
            sink.as_mut(),
            "execute",
            &[
                event(0, AccessKind::Read, 0, 64),     // Input: always fine.
                event(1, AccessKind::Gather, 1024, 4), // stored by launch 1.
            ],
        );
        assert!(s.report().passed(), "{}", s.report());
    }

    #[test]
    fn initcheck_stores_become_visible_at_launch_granularity() {
        let (s, mut sink) = harness();
        // A store and a read of the same bytes inside ONE launch: the
        // store is not visible yet (no intra-launch ordering), so the
        // read is uninitialised.
        run_launch(
            sink.as_mut(),
            "k",
            &[
                event(0, AccessKind::Write, 1024, 32),
                event(1, AccessKind::Read, 1024, 32),
            ],
        );
        assert_eq!(s.report().initcheck, 1);
    }

    #[test]
    fn initcheck_treats_atomics_as_stores() {
        let (s, mut sink) = harness();
        run_launch(
            sink.as_mut(),
            "acc",
            &[event(0, AccessKind::Atomic, 512, 64)],
        );
        run_launch(
            sink.as_mut(),
            "read",
            &[event(0, AccessKind::Read, 512, 64)],
        );
        assert!(s.report().passed());
    }

    #[test]
    fn example_cap_keeps_counts_exact() {
        let (s, mut sink) = harness();
        let events: Vec<AccessEvent> = (0..100)
            .map(|i| event(i, AccessKind::Read, 8192 + i * 8, 4))
            .collect();
        run_launch(sink.as_mut(), "k", &events);
        let r = s.report();
        assert_eq!(r.memcheck, 100);
        assert_eq!(r.examples.len() as u64, EXAMPLES_PER_KEY);
    }

    #[test]
    fn report_snapshot_mid_stream() {
        let (s, mut sink) = harness();
        sink.begin_launch("k", 4);
        sink.record(&event(0, AccessKind::Read, 0, 64));
        // Report is available while the launch is still open.
        assert_eq!(s.report().events, 1);
        sink.end_launch();
        assert!(s.report().passed());
    }
}
