//! Set-associative LRU sector cache modelling the GPU L2.
//!
//! The L2 is the level at which the paper's Graph-Clustering-based
//! Reordering pays off: feature rows of clustered neighbours stay resident
//! between nearby warps. The model tracks 32-byte sectors (the L2 cache
//! granularity the paper cites in §III-B2) with per-set LRU replacement.
//!
//! # Layout
//!
//! A set is a strip of packed `u32` tagwords kept in recency order (way 0 =
//! MRU, last way = LRU). Only the sector bits above the set index are
//! stored, so a 16-way set is 64 bytes, the size of a host cache line —
//! but nothing aligns the array to 64 bytes, so a set usually spans two
//! host lines. Each tagword carries the reset epoch in its low bits, so
//! [`SectorCache::reset`] is O(1): bumping the epoch invalidates every
//! resident line without rewriting the ways vec.
//!
//! # The probe path: runs, not sectors
//!
//! The kernels describe their traffic as coalesced sector *runs*, so the
//! run is the unit this module is paid per: [`SectorCache::access_run`] and
//! its streaming twin share one walker. What the code must hold to (the
//! reasons, the probe mix it was tuned on and the variants that lost are in
//! DESIGN.md "The L2 probe path"):
//!
//! * **A run is split only where the set index wraps.** Consecutive
//!   sectors map to consecutive sets and share one tag until then, so each
//!   segment is one sub-slice of `ways`, one tagword and one
//!   `chunks_exact_mut(assoc)` walk. A run longer than `num_sets` revisits
//!   the sets, segment after segment; `first + n` saturates.
//! * **The MRU word is tested first, and a match writes nothing.** Sets are
//!   kept in recency order, so a key found in way 0 is a hit that leaves
//!   the order as it is — and a streaming hit never promotes. Every other
//!   outcome goes to an out-of-line slow path (`promote_or_install`,
//!   `find_or_install_lru`), which keeps the walk itself at a load, a
//!   compare and an add per set.
//! * **Statistics are booked once per run**, from a register. Lane gathers
//!   in [`crate::tally`] probe scattered sectors through the crate-private
//!   uncounted `SectorCache::probe` — the same inlined MRU test over the
//!   same slow path — and book once per gather (`SectorCache::book`);
//!   [`SectorCache::access_sector`] is that probe plus one booking.
//! * **The "sector tag overflow" `debug_assert!` fires per tagword built**:
//!   per probe, and per segment in the walker. Release builds are covered
//!   once per allocation instead ([`SectorCache::addressable_bytes`]).
//! * **The slow path changes only for a variant that wins** on the
//!   repository benchmark's `sim.synth_*_ns_per_txn` **and**, over
//!   alternating pairs, on its `sweep` workload's `wall_s`.
//!
//! The observed and unobserved walks share this file, so no check of one
//! against the other can see a probe bug: the `#[cfg(test)]` per-sector
//! oracle below and the proptest against it are what hold the walker to the
//! model bit for bit.

use crate::memory::SECTOR_BYTES;

/// Low bits of every tagword reserved for the reset epoch. With 8 bits the
/// full-clear fallback runs once per 255 resets; the tag keeps 24 bits for
/// the sector's above-set-index bits, bounding the modelled address space at
/// `num_sets * 2^24` sectors ([`SectorCache::addressable_bytes`]: 4 TiB for
/// a V100-sized L2).
const EPOCH_BITS: u32 = 8;
const EPOCH_MAX: u32 = (1 << EPOCH_BITS) - 1;
const TAG_BITS: u32 = u32::BITS - EPOCH_BITS;

/// The slow half of an LRU probe, for a `key` that is not the set's MRU
/// word: a hit rotates the ways in front of it down by one, a miss rotates
/// the whole set (dropping the LRU tail), and either way `key` becomes the
/// MRU word. Returns `true` on hit.
///
/// Out of line on purpose. On the 16-way geometry of every modelled L2 a
/// miss — the most frequent outcome that gets here — is settled first and
/// pays a fixed 15-word shift; a hit goes on to [`rotate_to_front`], which
/// has to locate it.
#[inline(never)]
fn promote_or_install(ways: &mut [u32], key: u32) -> bool {
    if let Ok(w16) = <&mut [u32; 16]>::try_from(&mut *ways) {
        // An OR-reduction, not `contains`: no early exit, so it compiles to
        // straight-line vector compares.
        if !w16.iter().fold(false, |any, &w| any | (w == key)) {
            w16.copy_within(..15, 1);
            w16[0] = key;
            return false;
        }
    }
    rotate_to_front(ways, key)
}

/// [`promote_or_install`] in full generality: finds `key` at any depth —
/// with a 16-lane compare mask on the 16-way geometry, a scan otherwise —
/// and rotates it, or on a miss the whole set, behind a new MRU word.
#[inline(never)]
fn rotate_to_front(ways: &mut [u32], key: u32) -> bool {
    let found = if let Ok(w16) = <&[u32; 16]>::try_from(&*ways) {
        let mut mask = 0u32;
        for (i, &w) in w16.iter().enumerate() {
            mask |= u32::from(w == key) << i;
        }
        (mask != 0).then(|| mask.trailing_zeros() as usize)
    } else {
        ways.iter().position(|&w| w == key)
    };
    ways.copy_within(..found.unwrap_or(ways.len() - 1), 1);
    ways[0] = key;
    found.is_some()
}

/// The slow half of a streaming (evict-first) probe — an access inside an
/// `ld.global.cs` / `cudaAccessPropertyStreaming` policy window — for a
/// `key` that is not the set's MRU word: a hit is served from the set
/// without promoting the line, and a miss installs the new line in the LRU
/// way — so it is the set's next victim and never displaces a reusable
/// (MRU-side) line. Empty ways accumulate at the tail, so the overwritten
/// way is an empty slot whenever one exists.
#[inline(never)]
fn find_or_install_lru(ways: &mut [u32], key: u32) -> bool {
    if ways.contains(&key) {
        return true;
    }
    *ways.last_mut().expect("cache sets are never empty") = key;
    false
}

/// A set-associative, LRU-replacement cache over 32-byte sectors.
#[derive(Debug, Clone)]
pub struct SectorCache {
    /// `ways[set * assoc + i]`: packed tagwords `(sector >> set_bits) <<
    /// EPOCH_BITS | epoch`, recency-ordered within each set. Only the bits
    /// above the set index are stored — two sectors with equal tags in the
    /// same set are the same sector — which makes a 16-way set 64 bytes
    /// (`Vec<u32>` promises only 4-byte alignment, so it usually straddles
    /// two host cache lines). A word whose epoch field differs from the
    /// current epoch is empty — epochs start at 1, so the zero-filled
    /// initial state is empty everywhere.
    ways: Vec<u32>,
    assoc: usize,
    num_sets: usize,
    set_bits: u32,
    epoch: u32,
    hits: u64,
    misses: u64,
}

impl SectorCache {
    /// Builds a cache of `capacity_bytes` with `assoc` ways per set.
    ///
    /// The number of sets is rounded down to a power of two so set selection
    /// is a mask; capacity is therefore approximated from below (at most a
    /// factor-2 reduction), which is conventional for cache models.
    pub fn new(capacity_bytes: u64, assoc: u32) -> Self {
        let assoc = assoc.max(1) as usize;
        let lines = (capacity_bytes / SECTOR_BYTES as u64).max(1) as usize;
        let sets = (lines / assoc).max(1);
        let num_sets = if sets.is_power_of_two() {
            sets
        } else {
            sets.next_power_of_two() / 2
        }
        .max(1);
        Self {
            ways: vec![0; num_sets * assoc],
            assoc,
            num_sets,
            set_bits: num_sets.trailing_zeros(),
            epoch: 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Probes the cache with a byte address; inserts the sector on miss.
    /// Returns `true` on hit.
    pub fn access(&mut self, byte_addr: u64) -> bool {
        self.access_sector(byte_addr / SECTOR_BYTES as u64)
    }

    /// Bytes of address space whose sectors have distinct tagwords:
    /// `num_sets * 2^24` sectors (4 TiB on the V100 geometry, 64 GiB on a
    /// 64 KiB / 16-way cache). A sector at or past this bound aliases the
    /// tag of a lower one and would be reported as a hit on it, so
    /// [`GpuSim`](crate::GpuSim) refuses to allocate beyond it.
    pub fn addressable_bytes(&self) -> u64 {
        (self.num_sets as u64) << (TAG_BITS + SECTOR_BYTES.trailing_zeros())
    }

    /// The tagword of `sector` in the current epoch.
    #[inline]
    fn key(&self, sector: u64) -> u32 {
        debug_assert!(
            sector >> self.set_bits < 1 << TAG_BITS,
            "sector tag overflow"
        );
        ((sector >> self.set_bits) as u32) << EPOCH_BITS | self.epoch
    }

    /// The recency-ordered ways of `sector`'s set, and its tagword.
    #[inline]
    fn set_of(&mut self, sector: u64) -> (&mut [u32], u32) {
        let key = self.key(sector);
        let base = ((sector as usize) & (self.num_sets - 1)) * self.assoc;
        (&mut self.ways[base..base + self.assoc], key)
    }

    /// [`SectorCache::access_sector`] without the statistics: the caller
    /// counts hits in a register over a whole gather and reports them with
    /// one [`SectorCache::book`].
    #[inline]
    pub(crate) fn probe(&mut self, sector: u64) -> bool {
        let (ways, key) = self.set_of(sector);
        ways[0] == key || promote_or_install(ways, key)
    }

    /// Books the outcome of `probes` uncounted probes, `hits` of them hits.
    #[inline]
    pub(crate) fn book(&mut self, hits: u64, probes: u64) {
        self.hits += hits;
        self.misses += probes - hits;
    }

    /// Probes the cache with a sector index (byte address / 32); inserts the
    /// sector on miss. Returns `true` on hit.
    ///
    /// A hit on the MRU way touches nothing, any other hit rotates the ways
    /// in front of it down by one, and a miss rotates the whole set
    /// (dropping the LRU tail) and installs the new tagword at the front.
    /// Empty ways (stale-epoch words) accumulate at the tail, so they are
    /// consumed before any resident line is evicted — the same victim
    /// policy as a timestamp LRU.
    #[inline]
    pub fn access_sector(&mut self, sector: u64) -> bool {
        let hit = self.probe(sector);
        self.book(u64::from(hit), 1);
        hit
    }

    /// Probes `n` contiguous sectors starting at `first_sector`, in
    /// ascending order, and returns how many hit — bit for bit the result
    /// and the state of that many [`SectorCache::access_sector`] calls, at
    /// the price of one slice walk (see the module docs).
    pub fn access_run(&mut self, first_sector: u64, n: u64) -> u64 {
        self.walk_run(first_sector, n, promote_or_install)
    }

    /// The streaming (evict-first) counterpart of
    /// [`SectorCache::access_sector`]: hits are served without a recency
    /// promotion, misses install the line in the LRU way so it is the
    /// set's next victim instead of displacing a reusable line.
    #[inline]
    pub fn access_sector_streaming(&mut self, sector: u64) -> bool {
        let (ways, key) = self.set_of(sector);
        let hit = ways[0] == key || find_or_install_lru(ways, key);
        self.book(u64::from(hit), 1);
        hit
    }

    /// The streaming counterpart of [`SectorCache::access_run`].
    pub fn access_run_streaming(&mut self, first_sector: u64, n: u64) -> u64 {
        self.walk_run(first_sector, n, find_or_install_lru)
    }

    /// Probes the sectors `first_sector .. first_sector + n` (saturating) in
    /// ascending order: `slow(ways, key)` resolves every probe whose key is
    /// not its set's MRU word, and the statistics are booked once.
    #[inline(always)]
    fn walk_run(
        &mut self,
        first_sector: u64,
        n: u64,
        slow: impl Fn(&mut [u32], u32) -> bool,
    ) -> u64 {
        let end = first_sector.saturating_add(n);
        let assoc = self.assoc;
        let mut hits = 0;
        let mut sector = first_sector;
        while sector < end {
            // One segment: up to the end of the run or to the set-index
            // wrap, whichever is first. Its sets are adjacent in `ways`
            // and its sectors share one tag.
            let key = self.key(sector);
            let set = (sector as usize) & (self.num_sets - 1);
            let len = (end - sector).min((self.num_sets - set) as u64) as usize;
            for ways in self.ways[set * assoc..(set + len) * assoc].chunks_exact_mut(assoc) {
                hits += u64::from(ways[0] == key || slow(ways, key));
            }
            sector += len as u64;
        }
        self.book(hits, end - first_sector);
        hits
    }

    /// Number of hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all accesses (0 when the cache is untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total line capacity in sectors.
    pub fn capacity_sectors(&self) -> usize {
        self.num_sets * self.assoc
    }

    /// Clears contents and statistics.
    ///
    /// O(1): the epoch is bumped, turning every resident tagword stale.
    /// Only when the 8-bit epoch space is exhausted does the ways vec get
    /// rewritten, once per 255 resets.
    pub fn reset(&mut self) {
        if self.epoch == EPOCH_MAX {
            self.ways.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The model one sector at a time: a plain scan of the set, no MRU
    /// shortcut, no segments, statistics bumped per probe. Same tagword
    /// layout, so the `ways` vecs compare word for word.
    struct Oracle {
        ways: Vec<u32>,
        assoc: usize,
        num_sets: usize,
        set_bits: u32,
        epoch: u32,
        hits: u64,
        misses: u64,
    }

    impl Oracle {
        fn shaped_like(c: &SectorCache) -> Self {
            Self {
                ways: vec![0; c.ways.len()],
                assoc: c.assoc,
                num_sets: c.num_sets,
                set_bits: c.set_bits,
                epoch: 1,
                hits: 0,
                misses: 0,
            }
        }

        fn probe(&mut self, sector: u64, streaming: bool) -> bool {
            let key = ((sector >> self.set_bits) as u32) << EPOCH_BITS | self.epoch;
            let base = ((sector as usize) & (self.num_sets - 1)) * self.assoc;
            let ways = &mut self.ways[base..base + self.assoc];
            let found = ways.iter().position(|&w| w == key);
            match (found, streaming) {
                (Some(_), true) => {}
                (None, true) => ways[self.assoc - 1] = key,
                (_, false) => {
                    ways.copy_within(..found.unwrap_or(self.assoc - 1), 1);
                    ways[0] = key;
                }
            }
            self.hits += u64::from(found.is_some());
            self.misses += u64::from(found.is_none());
            found.is_some()
        }

        fn run(&mut self, first: u64, n: u64, streaming: bool) -> u64 {
            (first..first.saturating_add(n))
                .filter(|&s| self.probe(s, streaming))
                .count() as u64
        }

        fn reset(&mut self) {
            if self.epoch == EPOCH_MAX {
                self.ways.fill(0);
                self.epoch = 1;
            } else {
                self.epoch += 1;
            }
            self.hits = 0;
            self.misses = 0;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        /// Random interleavings of every probe entry point and `reset`, on
        /// every geometry class: each call's result, the statistics after
        /// each call and the final tag state equal the oracle's. Sectors
        /// are drawn from a few sets at both ends of the index range and
        /// `assoc + 2` tags, so sets fill, hit at every depth and evict;
        /// runs start just below the set-index wrap, run longer than
        /// `num_sets`, are empty, sit at the top of the tag space, and — in
        /// release builds, where the tag-overflow `debug_assert!` does not
        /// claim them first — saturate at `u64::MAX`.
        #[test]
        fn every_probe_path_matches_the_per_sector_oracle(
            (assoc_sel, sets_sel) in (0usize..4, 0usize..4),
            ops in proptest::collection::vec(
                (0u32..16, 0u32..8, 0u64..u64::MAX, 0u64..u64::MAX),
                1..48,
            ),
        ) {
            let (assoc, sets) = ([1u64, 2, 4, 16][assoc_sel], [1u64, 2, 64, 8192][sets_sel]);
            let mut cache = SectorCache::new(sets * assoc * SECTOR_BYTES as u64, assoc as u32);
            prop_assert_eq!((cache.assoc as u64, cache.num_sets as u64), (assoc, sets));
            let mut oracle = Oracle::shaped_like(&cache);
            // Debug builds must stay inside the tag space (the
            // `debug_assert!` guards it); release builds probe on, aliasing
            // tags, and must still agree with the oracle.
            let tag_space = sets << TAG_BITS;
            let checked = cfg!(debug_assertions);
            for (kind, place, a, b) in ops {
                // Where: a set within 4 of either end of the index range …
                let set = (a % 8).wrapping_sub(4) % sets;
                // … under a low tag, the highest tags, or past every tag.
                let first = match place {
                    0..=5 => (b >> 16) % (assoc + 2) * sets + set,
                    6 => tag_space - 1 - (b >> 16) % (2 * sets),
                    _ => u64::MAX - a % 40,
                };
                // How many: mostly a warp's worth, sometimes none, sometimes
                // more than there are sets.
                let n = match b % 16 {
                    0 => 0,
                    1 => sets + (b >> 8) % 4,
                    2 => 2 * sets + 1,
                    _ => 1 + (b >> 8) % 12,
                };
                let n = if checked { n.min(tag_space.saturating_sub(first)) } else { n };
                let single = !checked || first < tag_space;
                match kind {
                    0..=5 => prop_assert_eq!(
                        cache.access_run(first, n),
                        oracle.run(first, n, false)
                    ),
                    6..=8 => prop_assert_eq!(
                        cache.access_run_streaming(first, n),
                        oracle.run(first, n, true)
                    ),
                    9..=11 if single => prop_assert_eq!(
                        cache.access_sector(first),
                        oracle.probe(first, false)
                    ),
                    12..=13 if single => prop_assert_eq!(
                        cache.access_sector_streaming(first),
                        oracle.probe(first, true)
                    ),
                    9..=13 => {}
                    // One reset, or enough to carry the 8-bit epoch through
                    // its wrap and the full clear behind it.
                    _ => {
                        for _ in 0..[1, 1, 254, 256][(b % 4) as usize] {
                            cache.reset();
                            oracle.reset();
                        }
                    }
                }
                prop_assert_eq!((cache.hits(), cache.misses()), (oracle.hits, oracle.misses));
            }
            prop_assert_eq!(cache.epoch, oracle.epoch);
            prop_assert!(cache.ways == oracle.ways, "final tag state differs");
        }
    }

    #[test]
    fn addressable_bytes_is_the_tag_space() {
        // The V100 geometry (8192 sets) and the 64 KiB / 16-way test cache.
        assert_eq!(SectorCache::new(6 << 20, 16).addressable_bytes(), 4 << 40);
        assert_eq!(SectorCache::new(64 << 10, 16).addressable_bytes(), 64 << 30);
        // The last addressable sector keeps its own tag; debug builds stop
        // the first one past it.
        let mut c = SectorCache::new(1024, 4);
        let last = c.addressable_bytes() / SECTOR_BYTES as u64 - 1;
        assert!(!c.access_sector(last));
        assert!(c.access_sector(last));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sector tag overflow")]
    fn debug_builds_stop_the_first_sector_past_the_tag_space() {
        let mut c = SectorCache::new(1024, 4);
        c.access_sector(c.addressable_bytes() / SECTOR_BYTES as u64);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = SectorCache::new(1024, 4);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(31)); // same 32B sector
        assert!(!c.access(32)); // next sector
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 4 lines total, 2 ways, 2 sets. Sectors mapping to set 0: even.
        let mut c = SectorCache::new(4 * 32, 2);
        assert_eq!(c.capacity_sectors(), 4);
        // Fill set 0 with sectors 0 and 2 (addresses 0 and 64).
        c.access(0);
        c.access(64);
        // Touch sector 0 so sector 2 is LRU.
        assert!(c.access(0));
        // Insert sector 4 (address 128) -> evicts sector 2.
        assert!(!c.access(128));
        assert!(c.access(0)); // still resident
        assert!(!c.access(64)); // evicted
    }

    #[test]
    fn capacity_rounds_to_power_of_two_sets() {
        let c = SectorCache::new(6 * 1024 * 1024, 16); // V100 L2
        let sets = c.capacity_sectors() / 16;
        assert!(sets.is_power_of_two());
        assert!(c.capacity_sectors() * 32 <= 6 * 1024 * 1024);
        assert!(c.capacity_sectors() * 32 >= 3 * 1024 * 1024);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = SectorCache::new(1024, 4);
        c.access(0);
        c.access(0);
        c.reset();
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert!(!c.access(0)); // cold again
    }

    #[test]
    fn streaming_larger_than_capacity_thrashes() {
        let mut c = SectorCache::new(1024, 4); // 32 sectors
        for round in 0..3 {
            for s in 0..64u64 {
                c.access(s * 32);
            }
            let _ = round;
        }
        // Working set twice the capacity with LRU: expect a very low rate.
        assert!(c.hit_rate() < 0.2, "hit rate {}", c.hit_rate());
    }

    #[test]
    fn access_run_matches_individual_sector_probes() {
        let mut batch = SectorCache::new(2048, 4);
        let mut single = SectorCache::new(2048, 4);
        // Warm both with an identical irregular prefix.
        for s in [3u64, 9, 3, 70, 71, 9] {
            batch.access_sector(s);
            single.access_sector(s);
        }
        let hits = batch.access_run(4, 8);
        let mut expect = 0;
        for s in 4..12u64 {
            if single.access_sector(s) {
                expect += 1;
            }
        }
        assert_eq!(hits, expect);
        assert_eq!(batch.hits(), single.hits());
        assert_eq!(batch.misses(), single.misses());
        // Re-running the same span hits every sector.
        assert_eq!(batch.access_run(4, 8), 8);
        assert_eq!(batch.access_run(4, 0), 0); // empty run is a no-op
    }

    #[test]
    fn epoch_reset_survives_wraparound() {
        let mut c = SectorCache::new(1024, 4);
        // Far more resets than the 16-bit epoch space: each one must still
        // leave the cache cold, including across the full-clear fallback.
        for round in 0..70_000u64 {
            assert!(!c.access(0), "stale line leaked at round {round}");
            assert!(c.access(0));
            c.reset();
        }
    }
}
