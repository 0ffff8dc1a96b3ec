//! Per-warp event accounting.
//!
//! A kernel describes each warp's architectural events to a [`WarpTally`]:
//! global reads/writes (decomposed into sectors and filtered through the
//! shared L2 model), shared-memory traffic, compute instructions, atomics
//! and shuffle reductions, and [`WarpCounters::cycles`] prices the counts
//! under the device [`CostModel`].
//!
//! # The one descriptor
//!
//! Besides the element-wise API the tally has one descriptor,
//! [`global_gather_stepped`]: a whole family of lane gathers in one call,
//! whose lane indices are sorted once instead of once per step. It
//! reproduces the per-step gathers' counters bit for bit (asserted by
//! `repro -- verify`'s sweep and `crates/core/tests/cost_walk.rs`) against
//! the one live [`SectorCache`] the tally borrows. Whenever an
//! [`AccessSink`] is attached it expands into the per-step gathers, so the
//! sink observes the exact per-event stream; that observed walk is the
//! oracle the sorted path is checked against.
//! ([`gather_rows`] is not a descriptor: it is the loop of [`global_read`]
//! calls it abbreviates.)
//!
//! # How the L2 is probed
//!
//! Observed or not, the walk pays for the cache the same way. Every
//! coalesced access — element-wise or from a descriptor — is a sector run:
//! one [`SectorCache::access_run`] call, one slice walk, statistics booked once
//! (see [`crate::cache`]). Only lane gathers and scatters probe sector by
//! sector, through the cache's crate-private uncounted probe; they count
//! their hits in a register and book once per gather (once per *stepped*
//! descriptor), and they sort their sectors only when the lanes did not
//! arrive ascending — CSR column order usually hands them over that way.
//!
//! [`SectorCache`]: crate::cache::SectorCache
//! [`gather_rows`]: WarpTally::gather_rows
//! [`global_read`]: WarpTally::global_read
//! [`global_gather_stepped`]: WarpTally::global_gather_stepped
//! [`SectorCache::access_run`]: crate::cache::SectorCache::access_run
//! [`AccessSink`]: crate::sink::AccessSink

use crate::cache::SectorCache;
use crate::device::CostModel;
use crate::memory::{vector_aligned, SECTOR_BYTES};
use crate::sink::{AccessEvent, AccessKind, AccessSink};

/// Raw event counts for one warp.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarpCounters {
    /// Issued warp instructions (compute, control, and the issue slot of
    /// every memory instruction).
    pub instructions: u64,
    /// Warp-level shared-memory operations.
    pub shared_ops: u64,
    /// Sectors served by L2.
    pub l2_hit_sectors: u64,
    /// Sectors fetched from DRAM.
    pub dram_sectors: u64,
    /// Warp-level global atomic operations.
    pub atomics: u64,
    /// Warp shuffle steps.
    pub shuffles: u64,
    /// Bytes moved to/from global memory (for the bandwidth roofline).
    pub global_bytes: u64,
    /// Global memory transactions (sector touches, hit or miss).
    pub transactions: u64,
    /// Descriptor calls whose fast-path precondition failed (gather lanes
    /// spanning more than one sector), forcing element-wise expansion.
    /// A nonzero count flags a kernel whose gathers left the run-length
    /// fast path.
    /// Free of cycle cost; observer-independent (an observed walk counts
    /// the same calls).
    pub descriptor_fallbacks: u64,
}

/// Cycles split by the pipeline that spent them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineCycles {
    /// Issued instructions, shared-memory ops, atomics and shuffles.
    pub compute: f64,
    /// Sectors served by L2.
    pub l2: f64,
    /// Sectors fetched from DRAM.
    pub dram: f64,
}

impl PipelineCycles {
    /// Cycles over every pipeline.
    pub fn total(&self) -> f64 {
        self.compute + self.l2 + self.dram
    }
}

impl WarpCounters {
    /// The counts priced per pipeline under a cost model: the one dot
    /// product behind warp cycles and attribution's pipeline shares.
    pub fn pipeline_cycles(&self, cost: &CostModel) -> PipelineCycles {
        PipelineCycles {
            compute: self.instructions as f64 * cost.issue
                + self.shared_ops as f64 * cost.shared
                + self.atomics as f64 * cost.atomic
                + self.shuffles as f64 * cost.shuffle,
            l2: self.l2_hit_sectors as f64 * cost.l2_hit,
            dram: self.dram_sectors as f64 * cost.dram,
        }
    }

    /// Converts raw counts into cycles under a cost model.
    pub fn cycles(&self, cost: &CostModel) -> f64 {
        self.pipeline_cycles(cost).total()
    }

    /// Accumulates another warp's counters (used for launch totals).
    pub fn add(&mut self, other: &WarpCounters) {
        self.instructions += other.instructions;
        self.shared_ops += other.shared_ops;
        self.l2_hit_sectors += other.l2_hit_sectors;
        self.dram_sectors += other.dram_sectors;
        self.atomics += other.atomics;
        self.shuffles += other.shuffles;
        self.global_bytes += other.global_bytes;
        self.transactions += other.transactions;
        self.descriptor_fallbacks += other.descriptor_fallbacks;
    }

    /// Total sectors served by L2 (hits + DRAM fetches) — the launch's
    /// global-memory traffic. The single definition behind every L2-hit-
    /// rate figure in the workspace.
    pub fn traffic(&self) -> u64 {
        self.l2_hit_sectors + self.dram_sectors
    }

    /// L2 hit rate over [`Self::traffic`] (0.0 when there was none).
    pub fn l2_hit_rate(&self) -> f64 {
        let traffic = self.traffic();
        if traffic == 0 {
            0.0
        } else {
            self.l2_hit_sectors as f64 / traffic as f64
        }
    }
}

impl serde_json::ToJson for WarpCounters {
    /// Field-order-stable JSON (declaration order). The shape is pinned by
    /// a golden test in `tests/report_json.rs`: adding a field without
    /// updating the snapshot — and with it the observed-vs-unobserved
    /// field-for-field equality — is a test failure, not a silent hole.
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "instructions": self.instructions,
            "shared_ops": self.shared_ops,
            "l2_hit_sectors": self.l2_hit_sectors,
            "dram_sectors": self.dram_sectors,
            "atomics": self.atomics,
            "shuffles": self.shuffles,
            "global_bytes": self.global_bytes,
            "transactions": self.transactions,
            "descriptor_fallbacks": self.descriptor_fallbacks,
        })
    }
}

/// Recorder handed to a kernel for each warp it simulates.
///
/// One tally is reused across every warp of a launch ([`take_counters`]
/// resets it between warps), so its scratch storage — the sector buffer
/// behind [`global_gather`] and the sorted-index buffer behind
/// [`global_gather_stepped`] — is allocated once per launch instead of once
/// per warp.
///
/// [`take_counters`]: WarpTally::take_counters
/// [`global_gather`]: WarpTally::global_gather
/// [`global_gather_stepped`]: WarpTally::global_gather_stepped
pub struct WarpTally<'a> {
    cache: &'a mut SectorCache,
    warp_size: u32,
    counters: WarpCounters,
    /// Reused between gathers; cleared on use, never shrunk.
    gather_scratch: Vec<u64>,
    /// Reused between stepped gathers; holds the once-sorted lane indices.
    sort_scratch: Vec<u32>,
    /// Optional access-event observer (sanitizer); `None` in ordinary runs.
    /// While attached, descriptors expand element-wise so it sees every
    /// event.
    sink: Option<&'a mut (dyn AccessSink + 'static)>,
    /// Launch-global id of the warp currently being simulated, stamped onto
    /// every forwarded event.
    warp: u64,
}

impl<'a> WarpTally<'a> {
    /// Creates a tally that probes `cache` for global accesses.
    pub fn new(cache: &'a mut SectorCache, warp_size: u32) -> Self {
        Self::with_sink(cache, warp_size, None)
    }

    /// Creates a tally that additionally forwards every global access to
    /// `sink` (used by [`GpuSim::launch_named`]).
    ///
    /// [`GpuSim::launch_named`]: crate::GpuSim::launch_named
    pub fn with_sink(
        cache: &'a mut SectorCache,
        warp_size: u32,
        sink: Option<&'a mut (dyn AccessSink + 'static)>,
    ) -> Self {
        Self {
            cache,
            warp_size,
            counters: WarpCounters::default(),
            gather_scratch: Vec::new(),
            sort_scratch: Vec::new(),
            sink,
            warp: 0,
        }
    }

    /// Sets the warp id stamped onto forwarded events (called by the launch
    /// loop before each warp body).
    pub fn set_warp(&mut self, warp: u64) {
        self.warp = warp;
    }

    /// Forwards one access event to the sink, if any. Zero-length accesses
    /// touch no memory and are not reported.
    #[inline]
    fn emit(&mut self, kind: AccessKind, addr: u64, len_bytes: u64, vector_width: u32) {
        if len_bytes == 0 {
            return;
        }
        if let Some(sink) = self.sink.as_mut() {
            sink.record(&AccessEvent {
                warp: self.warp,
                kind,
                addr,
                len_bytes,
                vector_width,
                atomic: kind == AccessKind::Atomic,
            });
        }
    }

    /// Finishes the warp, returning its counters.
    pub fn finish(self) -> WarpCounters {
        self.counters
    }

    /// Takes the counters accumulated so far and resets them to zero,
    /// keeping the tally (and its scratch buffers) alive for the next warp.
    pub fn take_counters(&mut self) -> WarpCounters {
        std::mem::take(&mut self.counters)
    }

    /// Current counters (for inspection mid-warp in tests).
    pub fn counters(&self) -> &WarpCounters {
        &self.counters
    }

    /// Books the result of a batch of probes.
    #[inline]
    fn probe_tally(&mut self, hits: u64, transactions: u64) {
        self.counters.transactions += transactions;
        self.counters.l2_hit_sectors += hits;
        self.counters.dram_sectors += transactions - hits;
    }

    /// Probes the sectors of `len_bytes` at `addr` as one run — evict-first
    /// when `streaming` — and books the result.
    fn probe_run(&mut self, addr: u64, len_bytes: u64, streaming: bool) {
        if len_bytes == 0 {
            return;
        }
        let first = addr / SECTOR_BYTES as u64;
        let n = (addr + len_bytes - 1) / SECTOR_BYTES as u64 - first + 1;
        let hits = if streaming {
            self.cache.access_run_streaming(first, n)
        } else {
            self.cache.access_run(first, n)
        };
        self.probe_tally(hits, n);
    }

    /// Shared body of the coalesced reads and writes: vector-width-aware
    /// instruction count, one sink event, the bytes, one sector run.
    fn coalesced(&mut self, kind: AccessKind, addr: u64, len_bytes: u64, vw: u32, streaming: bool) {
        let eff_vw = if vector_aligned(addr, vw) { vw } else { 1 };
        let per_instr = self.warp_size as u64 * eff_vw as u64;
        self.counters.instructions += (len_bytes / 4)
            .div_ceil(per_instr)
            .max(u64::from(len_bytes > 0));
        self.emit(kind, addr, len_bytes, eff_vw);
        self.counters.global_bytes += len_bytes;
        self.probe_run(addr, len_bytes, streaming);
    }

    /// A coalesced warp read of `len_bytes` contiguous bytes of 4-byte
    /// elements starting at `addr`, attempted with vector width `vw`
    /// (1 = scalar, 2 = `float2`/`int2`, 4 = `float4`/`int4`).
    ///
    /// When `addr` is not aligned to the vector width the hardware cannot
    /// issue the vectorized form; the model falls back to scalar loads —
    /// the instruction-count penalty HVMA eliminates by aligning tiles.
    pub fn global_read(&mut self, addr: u64, len_bytes: u64, vw: u32) {
        self.coalesced(AccessKind::Read, addr, len_bytes, vw, false);
    }

    /// A coalesced warp read issued with the streaming (evict-first) cache
    /// hint — `ld.global.cs`, or an Ampere `accessPolicyWindow` marked
    /// `cudaAccessPropertyStreaming`: a sector already in L2 still hits,
    /// but a miss installs the line in its set's LRU way, so a single-use
    /// stream never displaces reusable lines. Instruction, byte, and sink
    /// accounting match [`WarpTally::global_read`].
    pub fn global_read_streaming(&mut self, addr: u64, len_bytes: u64, vw: u32) {
        self.coalesced(AccessKind::Read, addr, len_bytes, vw, true);
    }

    /// A coalesced warp write, same shape as [`WarpTally::global_read`].
    pub fn global_write(&mut self, addr: u64, len_bytes: u64, vw: u32) {
        self.coalesced(AccessKind::Write, addr, len_bytes, vw, false);
    }

    /// For every index `c` (in order) a coalesced read of the dense row
    /// segment `[c * row_stride + first, + elems)` of 4-byte elements from
    /// `base`, issued in chunks of at most `chunk_elems` elements with
    /// vector width `vw` — the shape of a warp streaming gathered feature
    /// rows. A shorthand for that loop of [`global_read`] calls, which it
    /// runs as written.
    ///
    /// [`global_read`]: WarpTally::global_read
    #[allow(clippy::too_many_arguments)]
    pub fn gather_rows(
        &mut self,
        base: u64,
        indices: &[u32],
        row_stride: u64,
        first: u64,
        elems: u64,
        chunk_elems: u64,
        vw: u32,
    ) {
        let chunk = chunk_elems.max(1);
        for &c in indices {
            let row_base = base + (c as u64 * row_stride + first) * 4;
            let mut done = 0;
            while done < elems {
                let width = chunk.min(elems - done);
                self.global_read(row_base + done * 4, width * 4, vw);
                done += width;
            }
        }
    }

    /// A gather: every lane loads `bytes_each` from its own address. One
    /// load instruction per warp; transactions are the distinct sectors
    /// among the lane addresses (coalescing happens exactly when lanes hit
    /// the same sectors).
    pub fn global_gather(&mut self, addrs: impl IntoIterator<Item = u64>, bytes_each: u64) {
        self.lane_access(AccessKind::Gather, addrs, bytes_each);
    }

    /// A scatter: every lane stores `bytes_each` to its own address — the
    /// write counterpart of [`WarpTally::global_gather`] (e.g. ASpT's
    /// panel-reordering pass depositing values in permuted order). One store
    /// instruction per warp; transactions are the distinct sectors among the
    /// lane addresses.
    pub fn global_scatter(&mut self, addrs: impl IntoIterator<Item = u64>, bytes_each: u64) {
        self.lane_access(AccessKind::Scatter, addrs, bytes_each);
    }

    /// Descriptor: `steps` gathers sharing one set of lane indices. Step
    /// `s` gathers `bytes_each` per lane at
    /// `base + 4 * (idx * lane_stride + first + s * step_stride)` — the
    /// shape of SDDMM inner products walking `steps` columns of gathered
    /// rows. Equivalent to `steps` [`global_gather`] calls, but the lane
    /// indices are sorted once instead of once per step.
    ///
    /// [`global_gather`]: WarpTally::global_gather
    #[allow(clippy::too_many_arguments)]
    pub fn global_gather_stepped(
        &mut self,
        base: u64,
        indices: &[u32],
        lane_stride: u64,
        first: u64,
        step_stride: u64,
        steps: u64,
        bytes_each: u64,
    ) {
        // The sorted fast path needs each lane access to stay inside one
        // sector: 4-byte-aligned addresses of at most 4 bytes.
        let single_sector = base.is_multiple_of(4) && bytes_each > 0 && bytes_each <= 4;
        if !single_sector && steps > 0 && !indices.is_empty() {
            self.counters.descriptor_fallbacks += 1;
        }
        // A sink, which needs every event, expands too.
        if self.sink.is_some() || !single_sector {
            for s in 0..steps {
                let off = first + s * step_stride;
                self.global_gather(
                    indices
                        .iter()
                        .map(|&c| base + (c as u64 * lane_stride + off) * 4),
                    bytes_each,
                );
            }
            return;
        }
        self.counters.instructions += steps;
        self.counters.global_bytes += steps * indices.len() as u64 * bytes_each;
        let mut idx = std::mem::take(&mut self.sort_scratch);
        idx.clear();
        idx.extend_from_slice(indices);
        idx.sort_unstable();
        // Sorted lanes give monotone sector indices per step, so dropping
        // consecutive duplicates is exactly the sort+dedup of the
        // element-wise gather, in the same ascending probe order. Duplicate
        // lane indices collapse to the same sector at every step, so they
        // are dropped once up front; each lane's step-independent address
        // part is precomputed alongside.
        idx.dedup();
        let mut lane_addrs = std::mem::take(&mut self.gather_scratch);
        lane_addrs.clear();
        lane_addrs.extend(idx.iter().map(|&c| base + c as u64 * lane_stride * 4));
        let mut hits = 0u64;
        let mut tx = 0u64;
        for s in 0..steps {
            let off4 = (first + s * step_stride) * 4;
            let mut prev = u64::MAX;
            for &a in lane_addrs.iter() {
                let sector = (a + off4) / SECTOR_BYTES as u64;
                if sector != prev {
                    tx += 1;
                    hits += u64::from(self.cache.probe(sector));
                    prev = sector;
                }
            }
        }
        self.cache.book(hits, tx);
        self.probe_tally(hits, tx);
        self.gather_scratch = lane_addrs;
        self.sort_scratch = idx;
    }

    /// Shared gather/scatter body: one instruction, per-lane addresses,
    /// sector-deduplicated traffic.
    fn lane_access(
        &mut self,
        kind: AccessKind,
        addrs: impl IntoIterator<Item = u64>,
        bytes_each: u64,
    ) {
        self.counters.instructions += 1;
        let mut sectors = std::mem::take(&mut self.gather_scratch);
        sectors.clear();
        for a in addrs {
            if bytes_each > 0 {
                let first = a / SECTOR_BYTES as u64;
                let last = (a + bytes_each - 1) / SECTOR_BYTES as u64;
                sectors.extend(first..=last);
            }
            self.counters.global_bytes += bytes_each;
            self.emit(kind, a, bytes_each, 1);
        }
        // CSR column order usually hands the lanes over ascending already.
        if !sectors.is_sorted() {
            sectors.sort_unstable();
        }
        sectors.dedup();
        let mut hits = 0u64;
        for &s in sectors.iter() {
            hits += u64::from(self.cache.probe(s));
        }
        self.cache.book(hits, sectors.len() as u64);
        self.probe_tally(hits, sectors.len() as u64);
        self.gather_scratch = sectors;
    }

    /// A warp-level global atomic (e.g. the `AtomicStore` of Algorithm 3):
    /// `lanes` lanes participate, writing `bytes_each` each to a contiguous
    /// region starting at `addr`.
    pub fn global_atomic(&mut self, addr: u64, len_bytes: u64) {
        self.counters.global_bytes += len_bytes;
        self.atomic(addr, len_bytes, false);
    }

    /// A warp-level global atomic issued inside an evict-first access-policy
    /// window (Ampere `cudaAccessPropertyStreaming`): the atomic still
    /// resolves in an L2 partition — ordering and the [`AccessKind::Atomic`]
    /// sanitizer record are unchanged — but a missing line is installed in
    /// its set's LRU way, so an output region touched once (or by a burst
    /// of temporally-adjacent warps) never displaces reusable lines. Its
    /// bytes are not added to [`WarpCounters::global_bytes`].
    pub fn global_atomic_streaming(&mut self, addr: u64, len_bytes: u64) {
        self.atomic(addr, len_bytes, true);
    }

    /// Shared body of the atomics: one atomic, one sink event, one sector
    /// run.
    fn atomic(&mut self, addr: u64, len_bytes: u64, streaming: bool) {
        self.counters.atomics += 1;
        self.emit(AccessKind::Atomic, addr, len_bytes, 1);
        self.probe_run(addr, len_bytes, streaming);
    }

    /// `n` warp-level shared-memory operations (conflict-free).
    pub fn shared_op(&mut self, n: u64) {
        self.counters.shared_ops += n;
    }

    /// Warp-cooperative read of `elems` consecutive elements from a
    /// block-resident shared-memory tile: one conflict-free shared-memory
    /// transaction per 32-element wavefront. Resident accesses never probe
    /// L2 or DRAM — that is the whole point of keeping a tile on-chip.
    pub fn shared_read(&mut self, elems: u64) {
        self.shared_op(elems.div_ceil(32).max(u64::from(elems > 0)));
    }

    /// Warp-cooperative store of `elems` consecutive elements into a
    /// block-resident shared-memory tile; same transaction model (and same
    /// no-probe guarantee) as [`WarpTally::shared_read`].
    pub fn shared_write(&mut self, elems: u64) {
        self.shared_op(elems.div_ceil(32).max(u64::from(elems > 0)));
    }

    /// `n` compute (FMA / integer / control) warp instructions.
    pub fn compute(&mut self, n: u64) {
        self.counters.instructions += n;
    }

    /// A tree reduction across `width` lanes using warp shuffles
    /// (`log2(width)` steps), as HP-SDDMM's `WarpReduce` (Algorithm 4).
    pub fn shuffle_reduce(&mut self, width: u32) {
        let steps = 32 - (width.max(1) - 1).leading_zeros();
        self.counters.shuffles += steps as u64;
    }

    /// `n` Tensor-Core MMA instructions (TC-GNN baseline only); charged via
    /// the instruction counter at the MMA cost ratio by the caller.
    pub fn tensor_mma(&mut self, n: u64, cost: &CostModel) {
        // MMA issue occupies the pipeline for `tensor_mma` cycles each; we
        // fold it into the instruction count scaled by the cost ratio so the
        // cycle conversion stays a single dot product.
        self.counters.instructions += (n as f64 * cost.tensor_mma / cost.issue).ceil() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::CostModel;

    fn mk_cache() -> SectorCache {
        SectorCache::new(64 * 1024, 16)
    }

    /// A sink that keeps nothing: attaching it makes a tally observed, so
    /// every descriptor expands element-wise.
    struct Ignore;
    impl AccessSink for Ignore {
        fn begin_launch(&mut self, _: &str, _: u64) {}
        fn register_buffer(&mut self, _: &crate::sink::BufferDecl) {}
        fn record(&mut self, _: &AccessEvent) {}
        fn end_launch(&mut self) {}
    }

    #[test]
    fn aligned_vectorized_read_counts_fewer_instructions() {
        let mut cache = mk_cache();
        // 128 floats (512B) aligned: float4 -> 1 instr; scalar -> 4 instrs.
        let mut t = WarpTally::new(&mut cache, 32);
        t.global_read(256, 512, 4);
        assert_eq!(t.counters().instructions, 1);
        let mut t2 = WarpTally::new(&mut cache, 32);
        t2.global_read(256, 512, 1);
        assert_eq!(t2.counters().instructions, 4);
    }

    #[test]
    fn misaligned_read_falls_back_to_scalar() {
        let mut cache = mk_cache();
        let mut t = WarpTally::new(&mut cache, 32);
        t.global_read(260, 512, 4); // 260 % 16 != 0
        assert_eq!(t.counters().instructions, 4);
        // And it touches one extra sector (17 instead of 16).
        assert_eq!(t.counters().transactions, 17);
    }

    #[test]
    fn second_read_hits_cache() {
        let mut cache = mk_cache();
        let mut t = WarpTally::new(&mut cache, 32);
        t.global_read(0, 128, 4);
        t.global_read(0, 128, 4);
        let c = t.finish();
        assert_eq!(c.dram_sectors, 4);
        assert_eq!(c.l2_hit_sectors, 4);
        assert_eq!(c.global_bytes, 256);
    }

    #[test]
    fn gather_coalesces_same_sector_lanes() {
        let mut cache = mk_cache();
        let mut t = WarpTally::new(&mut cache, 32);
        // All 32 lanes read 4B from the same sector.
        t.global_gather((0..32u64).map(|i| i * 4 % 32), 4);
        let c = t.counters();
        assert_eq!(c.transactions, 1);
        assert_eq!(c.instructions, 1);
    }

    #[test]
    fn gather_scattered_lanes_pay_per_sector() {
        let mut cache = mk_cache();
        let mut t = WarpTally::new(&mut cache, 32);
        // 32 lanes each in their own sector.
        t.global_gather((0..32u64).map(|i| i * 128), 4);
        assert_eq!(t.counters().transactions, 32);
        assert_eq!(t.counters().instructions, 1);
    }

    #[test]
    fn scatter_mirrors_gather_accounting() {
        let mut cache = mk_cache();
        let mut t = WarpTally::new(&mut cache, 32);
        // 32 lanes each store 4B into their own sector.
        t.global_scatter((0..32u64).map(|i| i * 128), 4);
        assert_eq!(t.counters().transactions, 32);
        assert_eq!(t.counters().instructions, 1);
        assert_eq!(t.counters().global_bytes, 128);
        // Same-sector lanes coalesce exactly like a gather.
        let mut cache2 = mk_cache();
        let mut t2 = WarpTally::new(&mut cache2, 32);
        t2.global_scatter((0..32u64).map(|i| i * 4 % 32), 4);
        assert_eq!(t2.counters().transactions, 1);
    }

    #[test]
    fn sink_receives_effective_vector_width_and_warp_id() {
        use crate::sink::{AccessEvent, AccessKind, AccessSink, BufferDecl};
        #[derive(Default)]
        struct Rec(Vec<AccessEvent>);
        impl AccessSink for Rec {
            fn begin_launch(&mut self, _: &str, _: u64) {}
            fn register_buffer(&mut self, _: &BufferDecl) {}
            fn record(&mut self, e: &AccessEvent) {
                self.0.push(*e);
            }
            fn end_launch(&mut self) {}
        }
        let mut cache = mk_cache();
        let mut rec = Rec::default();
        {
            let mut t = WarpTally::with_sink(&mut cache, 32, Some(&mut rec));
            t.set_warp(7);
            t.global_read(256, 512, 4); // aligned: stays float4
            t.global_read(260, 512, 4); // misaligned: demoted to scalar
            t.global_write(256, 0, 1); // zero-length: not reported
            t.global_atomic(256, 16);
        }
        assert_eq!(rec.0.len(), 3);
        assert_eq!(rec.0[0].vector_width, 4);
        assert_eq!(rec.0[1].vector_width, 1);
        assert!(rec.0.iter().all(|e| e.warp == 7));
        assert_eq!(rec.0[2].kind, AccessKind::Atomic);
        assert!(rec.0[2].atomic);
    }

    #[test]
    fn shuffle_reduce_steps() {
        let mut cache = mk_cache();
        let mut t = WarpTally::new(&mut cache, 32);
        t.shuffle_reduce(32);
        assert_eq!(t.counters().shuffles, 5);
        t.shuffle_reduce(16);
        assert_eq!(t.counters().shuffles, 9);
        t.shuffle_reduce(1);
        assert_eq!(t.counters().shuffles, 9); // log2(1) = 0 steps
    }

    #[test]
    fn cycles_combine_linearly() {
        let c = WarpCounters {
            instructions: 10,
            shared_ops: 5,
            l2_hit_sectors: 3,
            dram_sectors: 2,
            atomics: 1,
            shuffles: 5,
            global_bytes: 160,
            transactions: 5,
            descriptor_fallbacks: 2,
        };
        let cost = CostModel::default();
        let expect = 10.0 * cost.issue
            + 5.0 * cost.shared
            + 3.0 * cost.l2_hit
            + 2.0 * cost.dram
            + 1.0 * cost.atomic
            + 5.0 * cost.shuffle;
        assert!((c.cycles(&cost) - expect).abs() < 1e-12);
    }

    #[test]
    fn counters_add_componentwise() {
        let mut a = WarpCounters {
            instructions: 1,
            ..Default::default()
        };
        let b = WarpCounters {
            instructions: 2,
            dram_sectors: 7,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.instructions, 3);
        assert_eq!(a.dram_sectors, 7);
    }

    #[test]
    fn atomic_counts_event_and_traffic() {
        let mut cache = mk_cache();
        let mut t = WarpTally::new(&mut cache, 32);
        t.global_atomic(0, 128);
        let c = t.finish();
        assert_eq!(c.atomics, 1);
        assert_eq!(c.transactions, 4);
        assert_eq!(c.global_bytes, 128);
    }

    #[test]
    fn empty_read_is_free_of_traffic() {
        let mut cache = mk_cache();
        let mut t = WarpTally::new(&mut cache, 32);
        t.global_read(0, 0, 4);
        assert_eq!(t.counters().transactions, 0);
        assert_eq!(t.counters().instructions, 0);
    }

    /// Replays one closure on an unobserved tally and one on an observed
    /// tally (fresh caches) and asserts identical counters.
    fn assert_matches_reference(f: impl Fn(&mut WarpTally<'_>)) {
        let mut fast_cache = mk_cache();
        let mut fast = WarpTally::new(&mut fast_cache, 32);
        f(&mut fast);
        let mut obs_cache = mk_cache();
        let mut sink = Ignore;
        let mut observed = WarpTally::with_sink(&mut obs_cache, 32, Some(&mut sink));
        f(&mut observed);
        assert_eq!(fast.take_counters(), observed.take_counters());
        assert_eq!(fast_cache.hits(), obs_cache.hits());
        assert_eq!(fast_cache.misses(), obs_cache.misses());
    }

    #[test]
    fn gather_rows_matches_elementwise_reads() {
        let idx = [5u32, 1, 9, 1, 200];
        assert_matches_reference(|t| t.gather_rows(256, &idx, 64, 8, 40, 32, 2));
        assert_matches_reference(|t| t.gather_rows(256, &idx, 64, 0, 64, 64, 4));
        assert_matches_reference(|t| t.gather_rows(256, &[], 64, 0, 64, 64, 4));
    }

    #[test]
    fn stepped_gather_matches_per_step_gathers() {
        let idx = [17u32, 3, 3, 250, 41, 0, 8];
        // SDDMM shape: lane_stride = n (column walk), 4B lanes.
        assert_matches_reference(|t| t.global_gather_stepped(256, &idx, 300, 0, 300, 16, 4));
        // Feature-gather shape: lane_stride = k, stepping along the row.
        assert_matches_reference(|t| t.global_gather_stepped(256, &idx, 64, 8, 4, 8, 4));
        // Multi-sector lanes take the element-wise fallback.
        assert_matches_reference(|t| t.global_gather_stepped(256, &idx, 64, 0, 16, 4, 16));
        assert_matches_reference(|t| t.global_gather_stepped(256, &[], 64, 0, 4, 3, 4));
    }

    #[test]
    fn descriptor_fallbacks_count_precondition_failures_only() {
        let idx = [17u32, 3, 250];
        let mut cache = mk_cache();
        let mut t = WarpTally::new(&mut cache, 32);
        t.global_gather_stepped(256, &idx, 300, 0, 300, 4, 4); // single-sector
        assert_eq!(t.counters().descriptor_fallbacks, 0);
        t.global_gather_stepped(256, &idx, 64, 0, 16, 4, 16); // 16B lanes
        assert_eq!(t.counters().descriptor_fallbacks, 1);
        t.global_gather_stepped(258, &idx, 64, 0, 16, 4, 4); // misaligned base
        assert_eq!(t.counters().descriptor_fallbacks, 2);
        t.global_gather_stepped(256, &[], 64, 0, 16, 4, 16); // no lanes
        t.global_gather_stepped(256, &idx, 64, 0, 16, 0, 16); // no steps
        assert_eq!(t.counters().descriptor_fallbacks, 2);
        // An observed walk counts the same calls.
        let mut ref_cache = mk_cache();
        let mut sink = Ignore;
        let mut r = WarpTally::with_sink(&mut ref_cache, 32, Some(&mut sink));
        r.global_gather_stepped(256, &idx, 300, 0, 300, 4, 4);
        r.global_gather_stepped(256, &idx, 64, 0, 16, 4, 16);
        assert_eq!(r.counters().descriptor_fallbacks, 1);
    }
}
