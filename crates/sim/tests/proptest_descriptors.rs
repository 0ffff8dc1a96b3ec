//! Property tests for the fast cost engine's batched calls: for arbitrary
//! bases, strides, widths, and index sets, every batched call on
//! [`WarpTally`] must produce counters — and leave the L2 in a state —
//! identical to the element-wise calls it abbreviates. The element-wise
//! side runs on the reference engine ([`WarpTally::set_reference`]), so
//! each property pins the full chain: fast descriptor ≡ reference
//! descriptor ≡ hand-written per-element loop.

use hpsparse_sim::{SectorCache, WarpTally};
use proptest::prelude::*;

/// Both cache geometries the probe's slow path dispatches between: the
/// 16-way L2-shaped sets search with vector compares, anything else
/// scans.
fn cache_for(assoc_sel: u32) -> SectorCache {
    match assoc_sel {
        0 => SectorCache::new(64 * 1024, 16),
        _ => SectorCache::new(8 * 1024, 4),
    }
}

fn vw_for(sel: u32) -> u32 {
    [1, 2, 4][sel as usize]
}

/// Runs `body` against a fresh cache warmed with `warm`, returning the
/// tally's counters and the cache's (hits, misses).
fn observe(
    assoc_sel: u32,
    reference: bool,
    warm: &[u64],
    body: impl FnOnce(&mut WarpTally<'_>),
) -> (hpsparse_sim::tally::WarpCounters, u64, u64) {
    let mut cache = cache_for(assoc_sel);
    let counters = {
        let mut tally = WarpTally::new(&mut cache, 32);
        tally.set_reference(reference);
        for &s in warm {
            tally.global_read(s * 32, 32, 1);
        }
        body(&mut tally);
        tally.finish()
    };
    (counters, cache.hits(), cache.misses())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Row gathers ≡ the per-row chunked read loop.
    #[test]
    fn gather_rows_matches_elementwise(
        indices in proptest::collection::vec(0u32..600, 0..24),
        (row_stride, first) in (0u64..96, 0u64..32),
        elems in 0u64..48,
        chunk in 1u64..40,
        (vw_sel, assoc_sel, base) in (0u32..3, 0u32..2, 0u64..4_096),
        warm in proptest::collection::vec(0u64..2_048, 0..16),
    ) {
        let vw = vw_for(vw_sel);
        let fast = observe(assoc_sel, false, &warm, |t| {
            t.gather_rows(base, &indices, row_stride, first, elems, chunk, vw);
        });
        let slow = observe(assoc_sel, true, &warm, |t| {
            for &c in &indices {
                let row_base = base + (c as u64 * row_stride + first) * 4;
                let mut done = 0;
                while done < elems {
                    let width = chunk.min(elems - done);
                    t.global_read(row_base + done * 4, width * 4, vw);
                    done += width;
                }
            }
        });
        prop_assert_eq!(fast, slow, "indices {:?}", indices);
    }

    /// Stepped-gather descriptors ≡ one gather per step, including lane
    /// index sets with duplicates, misaligned bases, and `bytes_each`
    /// beyond the single-sector fast-path gate.
    #[test]
    fn gather_stepped_matches_per_step_gathers(
        indices in proptest::collection::vec(0u32..400, 0..40),
        (lane_stride, first) in (0u64..64, 0u64..32),
        (step_stride, steps) in (0u64..8, 0u64..6),
        (bytes_each, base_off, assoc_sel) in (1u64..9, 0u64..4, 0u32..2),
        warm in proptest::collection::vec(0u64..2_048, 0..16),
    ) {
        let base = 4_096 + base_off;
        let mut fast = observe(assoc_sel, false, &warm, |t| {
            t.global_gather_stepped(
                base, &indices, lane_stride, first, step_stride, steps, bytes_each,
            );
        });
        let slow = observe(assoc_sel, true, &warm, |t| {
            for s in 0..steps {
                let off = first + s * step_stride;
                t.global_gather(
                    indices.iter().map(|&c| base + (c as u64 * lane_stride + off) * 4),
                    bytes_each,
                );
            }
        });
        let single_sector = base.is_multiple_of(4) && bytes_each <= 4;
        let expect_fb =
            if !single_sector && steps > 0 && !indices.is_empty() { 1 } else { 0 };
        prop_assert_eq!(fast.0.descriptor_fallbacks, expect_fb);
        fast.0.descriptor_fallbacks = 0;
        prop_assert_eq!(
            fast, slow,
            "base {} bytes_each {} indices {:?}", base, bytes_each, indices
        );
    }
}
