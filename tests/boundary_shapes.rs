//! Tier-1 memory-safety property at the tile boundaries: every catalogue
//! kernel, at every configuration a planner may pick, runs under the
//! sanitizer on random shapes drawn around its boundaries — `nnz` one short
//! of, exactly at and one past a multiple of its `NnzPerWarp`, row counts
//! around powers of two and warp multiples with a hub row and isolated
//! rows, `k` from 1 to 70 — and each case is sanitizer-clean with its
//! observed launches equal to its unobserved ones. Every seeded mutant,
//! the shape-dependent ones included, is flagged on these shapes by exactly
//! the checker its defect targets.

use hpsparse::kernels::catalog::{Kernel, KERNELS};
use hpsparse::kernels::hp::config::NNZ_PER_WARP_CANDIDATES;
use hpsparse::kernels::mutants::{all_mutants, shape_mutants};
use hpsparse::sim::{DeviceSpec, GpuSim, Property};
use hpsparse::sparse::Hybrid;
use hpsparse_verify::{sanitize_run, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Shapes drawn per kernel instance: each `nnz` remainder at each row-count
/// offset.
const CASES: usize = 9;

/// The elements each warp of the seeded mutants owns.
const MUTANT_CHUNK: usize = 64;

/// A random shape around a tile of `chunk` non-zeros, and its `k`. Case
/// `i` fixes the remainder `nnz mod chunk` (0, 1 or `chunk − 1`) and the
/// row-count offset (−1, 0 or +1 from a power of two or a multiple of the
/// warp size); the rest is drawn.
fn boundary_shape(rng: &mut StdRng, case: usize, chunk: usize) -> (Hybrid, usize) {
    let rem = [0, 1, chunk - 1][case % 3];
    let quotient = rng.random_range(usize::from(rem == 0)..=3);
    let nnz = quotient * chunk + rem;
    let base = if case.is_multiple_of(2) {
        1 << rng.random_range(0..=9u32)
    } else {
        32 * rng.random_range(1..=8usize)
    };
    let rows = (base + (case / 3) % 3).saturating_sub(1).max(1);
    let k = rng.random_range(1..=70);

    // Isolated rows get no element; the hub takes a quarter to a half of
    // them. Enough columns keep the matrix at most half full.
    let hub = rng.random_range(0..rows);
    let live: Vec<usize> = (0..rows)
        .filter(|&r| r == hub || !rng.random_bool(0.25))
        .collect();
    let cols = rng
        .random_range(1..=2 * rows + 8)
        .max(2 * nnz.div_ceil(live.len()));
    let hub_len = rng.random_range(nnz / 4..=nnz / 2).min(cols);
    let mut cells = HashSet::with_capacity(nnz);
    while cells.len() < hub_len {
        cells.insert((hub, rng.random_range(0..cols)));
    }
    while cells.len() < nnz {
        cells.insert((
            live[rng.random_range(0..live.len())],
            rng.random_range(0..cols),
        ));
    }
    let triplets: Vec<(u32, u32, f32)> = cells
        .into_iter()
        .map(|(r, c)| (r as u32, c as u32, 1.0 + (r + c) as f32 % 7.0))
        .collect();
    let s = Hybrid::from_triplets(rows, cols, &triplets).unwrap();
    assert_eq!(s.nnz(), nnz);
    (s, k)
}

/// Runs `walk` under the sanitizer and then unobserved on one shape: the
/// sanitizer's report, and whether the two walks' launches agree.
fn sanitized<L: PartialEq>(device: &DeviceSpec, walk: impl Fn(&mut GpuSim) -> L) -> (Report, bool) {
    let mut observed = None;
    let report = sanitize_run(device.clone(), |sim| observed = Some(walk(sim)));
    let unobserved = walk(&mut GpuSim::new(device.clone()));
    (report, observed == Some(unobserved))
}

#[test]
fn every_planner_variant_is_clean_on_random_boundary_shapes() {
    let device = DeviceSpec::v100();
    let mut rng = StdRng::seed_from_u64(52);
    for row in &KERNELS {
        let variants = row.planner_variants();
        let hp = variants.len() > 1;
        if hp {
            // Candidate-major, vector widths 1, 2, 4 within each.
            assert_eq!(variants.len(), 3 * NNZ_PER_WARP_CANDIDATES.len());
        }
        for (i, kernel) in variants.iter().enumerate() {
            for case in 0..CASES {
                // A baseline has no `NnzPerWarp`: its shapes sit around
                // every candidate tile in turn.
                let chunk = if hp {
                    NNZ_PER_WARP_CANDIDATES[i / 3]
                } else {
                    NNZ_PER_WARP_CANDIDATES[case % NNZ_PER_WARP_CANDIDATES.len()]
                };
                let (s, k) = boundary_shape(&mut rng, case, chunk);
                let what = format!(
                    "{} variant {i} at {}×{}, nnz {}, k {k}",
                    row.id,
                    s.rows(),
                    s.cols(),
                    s.nnz()
                );
                let walk = |sim: &mut GpuSim| Kernel::cost_on(kernel, sim, &s, k).unwrap();
                let (report, agree) = sanitized(&device, walk);
                assert!(report.passed() && report.events > 0, "{what}: {report}");
                assert!(agree, "{what}: the observed walk diverged");
            }
        }
    }
}

#[test]
fn every_mutant_is_flagged_on_boundary_shapes_by_exactly_its_checker() {
    let device = DeviceSpec::v100();
    let mut rng = StdRng::seed_from_u64(52);
    for (defect, mutant) in all_mutants().into_iter().chain(shape_mutants()) {
        let mut flagged = HashSet::new();
        for case in 0..2 * CASES {
            let (s, k) = boundary_shape(&mut rng, case, MUTANT_CHUNK);
            let (report, agree) = sanitized(&device, |sim| mutant.cost_on(sim, &s, k).unwrap());
            assert!(agree, "{}: the observed walk diverged", mutant.name());
            let named = report.examples.iter().all(|v| v.kernel == mutant.name());
            assert!(named, "{report}");
            flagged.extend(Property::ALL.into_iter().filter(|&p| report.count(p) > 0));
        }
        assert_eq!(flagged, HashSet::from([defect]), "{}", mutant.name());
    }
}
