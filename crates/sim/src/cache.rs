//! Set-associative LRU sector cache modelling the GPU L2.
//!
//! The L2 is the level at which the paper's Graph-Clustering-based
//! Reordering pays off: feature rows of clustered neighbours stay resident
//! between nearby warps. The model tracks 32-byte sectors (the L2 cache
//! granularity the paper cites in §III-B2) with per-set LRU replacement.
//!
//! The implementation is tuned for the simulator's hot loop: every modelled
//! global-memory sector is one probe, so a set is a strip of packed `u32`
//! tagwords kept in recency order (way 0 = MRU, last way = LRU). Storing
//! only the sector bits above the set index keeps a 16-way set inside one
//! 64-byte host cache line, and the L2-sized geometry takes a branchless
//! probe (`probe16`). Each tagword carries the reset epoch in its low
//! bits, so [`SectorCache::reset`] is O(1): bumping the epoch invalidates
//! every resident line without rewriting the ways vec.

use crate::memory::SECTOR_BYTES;

/// Branchless probe of one 16-way set (the L2-sized geometry). The hit/miss
/// outcome of a cache probe is inherently unpredictable, so any
/// data-dependent branch here pays a misprediction on a large fraction of
/// the simulator's billions of probes. Instead: an unrolled SIMD-friendly
/// compare produces a match mask, the rotation depth is selected with
/// arithmetic, and the whole recency-ordered set is rewritten with unrolled
/// conditional moves. The only branch is the MRU-hit early-out, which is
/// strongly biased (taken in streaming stretches, not taken in scattered
/// ones) and skips the redundant rewrite.
#[inline]
fn probe16(ways: &mut [u32; 16], key: u32) -> bool {
    let mut mask = 0u32;
    for (i, &w) in ways.iter().enumerate() {
        mask |= u32::from(w == key) << i;
    }
    if mask & 1 == 1 {
        return true; // MRU hit: recency order already correct.
    }
    let is_hit = mask != 0;
    let rot = if is_hit {
        mask.trailing_zeros() as usize
    } else {
        15
    };
    ways.copy_within(..rot, 1);
    ways[0] = key;
    is_hit
}

/// Low bits of every tagword reserved for the reset epoch. With 8 bits the
/// full-clear fallback runs once per 255 resets; the tag keeps 24 bits for
/// the sector's above-set-index bits, bounding the modelled address space at
/// `num_sets * 2^24` sectors (4 TiB for a V100-sized L2) — asserted in
/// debug builds.
const EPOCH_BITS: u32 = 8;
const EPOCH_MAX: u32 = (1 << EPOCH_BITS) - 1;

/// Probes one recency-ordered set of any associativity: the 16-way
/// geometry takes the branchless [`probe16`], everything else the generic
/// rotation.
#[inline]
fn probe_set(ways: &mut [u32], key: u32) -> bool {
    if let Ok(w16) = <&mut [u32; 16]>::try_from(&mut *ways) {
        return probe16(w16, key);
    }
    match ways.iter().position(|&w| w == key) {
        Some(0) => true,
        Some(i) => {
            ways.copy_within(..i, 1);
            ways[0] = key;
            true
        }
        None => {
            let assoc = ways.len();
            ways.copy_within(..assoc - 1, 1);
            ways[0] = key;
            false
        }
    }
}

/// Streaming (evict-first) probe of one recency-ordered set, modelling an
/// access inside an `ld.global.cs` / `cudaAccessPropertyStreaming` policy
/// window: a hit is served from the set without promoting the line, and a
/// miss installs the new line in the LRU way — so it is the set's next
/// victim and never displaces a reusable (MRU-side) line. Empty ways
/// accumulate at the tail, so the overwritten way is an empty slot
/// whenever one exists.
#[inline]
fn probe_set_streaming(ways: &mut [u32], key: u32) -> bool {
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
    /// same set are the same sector — which keeps a 16-way set inside one
    /// 64-byte host cache line. A word whose epoch field differs from the
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

    /// Probes the cache with a sector index (byte address / 32); inserts the
    /// sector on miss. Returns `true` on hit.
    ///
    /// Recency order makes LRU maintenance branch-free in the hot case: a
    /// hit on the MRU way touches nothing, any other hit rotates the ways in
    /// front of it down by one, and a miss rotates the whole set (dropping
    /// the LRU tail) and installs the new tagword at the front. Empty ways
    /// (stale-epoch words) accumulate at the tail, so they are consumed
    /// before any resident line is evicted — the same victim policy as a
    /// timestamp LRU.
    #[inline]
    pub fn access_sector(&mut self, sector: u64) -> bool {
        debug_assert!(
            sector >> self.set_bits <= (u32::MAX >> EPOCH_BITS) as u64,
            "sector tag overflow"
        );
        let key = ((sector >> self.set_bits) as u32) << EPOCH_BITS | self.epoch;
        let set = (sector as usize) & (self.num_sets - 1);
        let base = set * self.assoc;
        let hit = probe_set(&mut self.ways[base..base + self.assoc], key);
        self.hits += u64::from(hit);
        self.misses += u64::from(!hit);
        hit
    }

    /// Probes `n` contiguous sectors starting at `first_sector`, in
    /// ascending order, and returns how many hit. This is the batch form
    /// the descriptor fast path feeds: one call per coalesced run instead
    /// of one dispatch per sector.
    pub fn access_run(&mut self, first_sector: u64, n: u64) -> u64 {
        let mut hits = 0;
        for sector in first_sector..first_sector.saturating_add(n) {
            if self.access_sector(sector) {
                hits += 1;
            }
        }
        hits
    }

    /// The streaming (evict-first) counterpart of
    /// [`SectorCache::access_sector`]: hits are served without a recency
    /// promotion, misses install the line in the LRU way so it is the
    /// set's next victim instead of displacing a reusable line.
    #[inline]
    pub fn access_sector_streaming(&mut self, sector: u64) -> bool {
        debug_assert!(
            sector >> self.set_bits <= (u32::MAX >> EPOCH_BITS) as u64,
            "sector tag overflow"
        );
        let key = ((sector >> self.set_bits) as u32) << EPOCH_BITS | self.epoch;
        let set = (sector as usize) & (self.num_sets - 1);
        let base = set * self.assoc;
        let hit = probe_set_streaming(&mut self.ways[base..base + self.assoc], key);
        self.hits += u64::from(hit);
        self.misses += u64::from(!hit);
        hit
    }

    /// The streaming counterpart of [`SectorCache::access_run`].
    pub fn access_run_streaming(&mut self, first_sector: u64, n: u64) -> u64 {
        let mut hits = 0;
        for sector in first_sector..first_sector.saturating_add(n) {
            if self.access_sector_streaming(sector) {
                hits += 1;
            }
        }
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
