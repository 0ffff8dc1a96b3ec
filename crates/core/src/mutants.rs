//! Deliberately broken kernels that prove the sanitizer's detectors fire.
//!
//! Each mutant is a seeded-defect variant of the HP-SpMM COO tail loop or
//! of a row-warp kernel — same work assignment, same buffers — with exactly
//! one bug injected, so exactly one checker must flag it — the one its
//! [`Property`] names:
//!
//! | Mutant | Injected bug | Fires on | [`Property`] |
//! |---|---|---|---|
//! | [`MutantOobTail`] | tile load runs one element past `col_ind` | every shape | `Bounds` |
//! | [`MutantRacyTail`] | row flush de-atomicized to a plain store | a row split across warps | `Race` |
//! | [`MutantUninitAcc`] | accumulator read from `O` before any store | every shape | `Init` |
//! | [`MutantEagerNorm`] | fused softmax normalizer reads scores in the launch that wrote them | every shape | `Init` |
//! | [`MutantRaggedTail`] | a one-element tail chunk loads two column ids | `nnz mod 64 = 1` | `Bounds` |
//! | [`MutantPow2Offsets`] | the last row warp reads three `row_offsets` | `m` a power of two ≥ 32 | `Bounds` |
//! | [`MutantOddKSpill`] | a row store rounds up into the next row | odd `k` | `Race` |
//!
//! [`MutantEagerNorm`] is the fused-attention variant: it un-fuses the
//! shared-memory score tile into a *global* scratch buffer but keeps the
//! single launch, so the normalizer pass reads scores the kernel boundary
//! has not yet made visible — the exact bug HP-Fused-MHA's spill path
//! avoids by splitting into a score/apply launch pair.
//!
//! The last three are [`shape_mutants`]: their defects sit at a tile
//! boundary that neither [`mutant_test_graph`] nor any registry graph at
//! K = 32 / 64 reaches, so only a sweep over boundary shapes catches them.
//!
//! The mutants compute *correct numerics* (their accumulation order is the
//! sequential reference's) while their cost walks mis-describe the memory
//! traffic — the simulated analogue of a CUDA kernel whose bug corrupts
//! memory without changing the tested output. They are deliberately kept
//! out of the benchmark registry; `repro -- verify` and the sanitizer's and
//! catalogue's integration tests are their only callers.

use crate::traits::{KernelCost, SpmmKernel};
use hpsparse_sim::{GpuSim, KernelResources, LaunchConfig, Property};
use hpsparse_sparse::{reference, Dense, FormatError, Hybrid};

/// Elements each warp owns in the mutants' COO loop — small, so modest
/// test graphs still span many warps and shared rows cross warp
/// boundaries.
const NNZ_PER_WARP: usize = 64;

fn mutant_resources() -> KernelResources {
    KernelResources {
        warps_per_block: 8,
        registers_per_thread: 32,
        shared_mem_per_block: 0,
    }
}

/// The shared skeleton: allocates the HP-SpMM buffer set, runs one warp
/// per `NNZ_PER_WARP`-element chunk, and lets the mutant hook describe the
/// chunk's traffic.
fn walk_mutant(
    name: &'static str,
    sim: &mut GpuSim,
    s: &Hybrid,
    k: usize,
    body: impl Fn(&mut hpsparse_sim::WarpTally, MutantChunk<'_>) + Sync,
) -> Result<KernelCost, FormatError> {
    let nnz = s.nnz();
    let m = s.rows();
    let row_buf = sim.alloc_input(nnz, "row_ind");
    let col_buf = sim.alloc_input(nnz, "col_ind");
    let val_buf = sim.alloc_input(nnz, "values");
    // Declared for a faithful extent map even though the mutants' seeded
    // defects never touch the dense operand.
    sim.alloc_input(s.cols() * k, "A");
    let o_buf = sim.alloc_output(m * k, "O");
    let row_ind = s.row_indices();

    let num_warps = nnz.div_ceil(NNZ_PER_WARP).max(1) as u64;
    let launch = LaunchConfig {
        num_warps,
        resources: mutant_resources(),
    };
    let report = sim.launch_named(name, launch, |warp_id, tally| {
        let start = warp_id as usize * NNZ_PER_WARP;
        let end = (start + NNZ_PER_WARP).min(nnz);
        if start >= end {
            return;
        }
        body(
            tally,
            MutantChunk {
                start,
                end,
                nnz,
                k,
                row_ind,
                row_buf: &row_buf,
                col_buf: &col_buf,
                val_buf: &val_buf,
                o_buf: &o_buf,
            },
        );
    });
    Ok(KernelCost {
        report,
        preprocess: None,
    })
}

/// One warp's slice of the COO element range, plus the buffers the hooks
/// describe traffic against.
struct MutantChunk<'a> {
    start: usize,
    end: usize,
    nnz: usize,
    k: usize,
    row_ind: &'a [u32],
    row_buf: &'a hpsparse_sim::Buffer,
    col_buf: &'a hpsparse_sim::Buffer,
    val_buf: &'a hpsparse_sim::Buffer,
    o_buf: &'a hpsparse_sim::Buffer,
}

/// Memcheck mutant: the classic off-by-one tile bound. The final tile's
/// length is rounded up instead of clamped, so the last warp's `col_ind`
/// load runs one element past the allocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct MutantOobTail;

impl SpmmKernel for MutantOobTail {
    fn name(&self) -> &'static str {
        "mutant:oob-tail"
    }

    fn accumulate(&self, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
        reference::spmm(s, a)
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        walk_mutant(self.name(), sim, s, k, |tally, c| {
            let len = (c.end - c.start) as u64;
            tally.global_read(c.row_buf.elem_addr(c.start as u64, 4), len * 4, 1);
            // BUG: the last chunk reads len+1 elements. The bad address is
            // formed with raw base arithmetic, exactly like a CUDA kernel
            // indexing past its pointer — Buffer::elem_addr would
            // debug-assert before the sanitizer ever saw the access.
            let oob = u64::from(c.end == c.nnz);
            tally.global_read(c.col_buf.base() + c.start as u64 * 4, (len + oob) * 4, 1);
            tally.global_read(c.val_buf.elem_addr(c.start as u64, 4), len * 4, 1);
            let r = c.row_ind[c.start] as usize;
            tally.global_atomic(c.o_buf.elem_addr((r * c.k) as u64, 4), c.k as u64 * 4);
        })
    }
}

/// Racecheck mutant: the de-atomicized COO tail. Chunk boundaries split
/// rows between warps, and the row flush that HP-SpMM performs with
/// `global_atomic` is demoted to a plain `global_write` — two warps
/// sharing a row now issue conflicting non-atomic stores.
#[derive(Debug, Clone, Copy, Default)]
pub struct MutantRacyTail;

impl SpmmKernel for MutantRacyTail {
    fn name(&self) -> &'static str {
        "mutant:racy-tail"
    }

    fn accumulate(&self, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
        reference::spmm(s, a)
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        walk_mutant(self.name(), sim, s, k, |tally, c| {
            let len = (c.end - c.start) as u64;
            for buf in [c.row_buf, c.col_buf, c.val_buf] {
                tally.global_read(buf.elem_addr(c.start as u64, 4), len * 4, 1);
            }
            // BUG: flush every row run with a plain store. Rows interior
            // to the chunk happen to be exclusive, but a row crossing a
            // chunk boundary is flushed by both neighbouring warps.
            let mut cur = usize::MAX;
            for &r in &c.row_ind[c.start..c.end] {
                let r = r as usize;
                if r != cur {
                    tally.global_write(c.o_buf.elem_addr((r * c.k) as u64, 4), c.k as u64 * 4, 1);
                    cur = r;
                }
            }
        })
    }
}

/// Initcheck mutant: read-modify-write accumulation. Instead of
/// accumulating in registers and flushing once, each row flush *reads* the
/// output buffer first (`O[r] += partial` as separate load and store) —
/// but the host never initialised `O`, so the very first read of each row
/// is of uninitialised memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct MutantUninitAcc;

impl SpmmKernel for MutantUninitAcc {
    fn name(&self) -> &'static str {
        "mutant:uninit-acc"
    }

    fn accumulate(&self, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
        reference::spmm(s, a)
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        walk_mutant(self.name(), sim, s, k, |tally, c| {
            let len = (c.end - c.start) as u64;
            for buf in [c.row_buf, c.col_buf, c.val_buf] {
                tally.global_read(buf.elem_addr(c.start as u64, 4), len * 4, 1);
            }
            // BUG: load the accumulator row from O before storing it.
            let r = c.row_ind[c.start] as usize;
            let row_addr = c.o_buf.elem_addr((r * c.k) as u64, 4);
            tally.global_read(row_addr, c.k as u64 * 4, 1);
            tally.global_atomic(row_addr, c.k as u64 * 4);
        })
    }
}

/// Initcheck mutant #2, seeded from the fused-attention pipeline: the
/// softmax normalizer reads the score buffer in the *same launch* that
/// wrote it. Each warp writes its padded score stripe to a global scratch
/// buffer (disjoint across warps — no race) and immediately reads it back
/// for the max/denominator passes. Store visibility is launch-granular,
/// so every one of those reads is of memory no *finished* launch has
/// initialised — initcheck, and only initcheck, must fire.
#[derive(Debug, Clone, Copy, Default)]
pub struct MutantEagerNorm;

impl SpmmKernel for MutantEagerNorm {
    fn name(&self) -> &'static str {
        "mutant:eager-norm"
    }

    fn accumulate(&self, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
        reference::spmm(s, a)
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        let nnz = s.nnz();
        let m = s.rows();
        let row_buf = sim.alloc_input(nnz, "row_ind");
        let col_buf = sim.alloc_input(nnz, "col_ind");
        let val_buf = sim.alloc_input(nnz, "values");
        sim.alloc_input(s.cols() * k, "A");
        let o_buf = sim.alloc_output(m * k, "O");
        let num_warps = nnz.div_ceil(NNZ_PER_WARP).max(1);
        let score_buf = sim.alloc_scratch(num_warps * NNZ_PER_WARP, "scores");
        let row_ind = s.row_indices();

        let launch = LaunchConfig {
            num_warps: num_warps as u64,
            resources: mutant_resources(),
        };
        let report = sim.launch_named(self.name(), launch, |warp_id, tally| {
            let start = warp_id as usize * NNZ_PER_WARP;
            let end = (start + NNZ_PER_WARP).min(nnz);
            if start >= end {
                return;
            }
            let len = (end - start) as u64;
            for buf in [&row_buf, &col_buf, &val_buf] {
                tally.global_read(buf.elem_addr(start as u64, 4), len * 4, 1);
            }
            // Scores go to the warp's padded global stripe…
            let stripe = score_buf.elem_addr(start as u64, 4);
            tally.global_write(stripe, NNZ_PER_WARP as u64 * 4, 1);
            // BUG: …and the normalizer reads them back before any kernel
            // boundary makes the stores visible.
            tally.global_read(stripe, NNZ_PER_WARP as u64 * 4, 1);
            let r = row_ind[start] as usize;
            tally.global_atomic(o_buf.elem_addr((r * k) as u64, 4), k as u64 * 4);
        });
        Ok(KernelCost {
            report,
            preprocess: None,
        })
    }
}

/// Shape mutant: the HP-SpMM COO tail loop with a ragged-tail defect. A
/// chunk of exactly one element takes the unrolled-by-two `col_ind` load,
/// so the read runs one element past the allocation — only when
/// `nnz mod NNZ_PER_WARP == 1`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MutantRaggedTail;

impl SpmmKernel for MutantRaggedTail {
    fn name(&self) -> &'static str {
        "mutant:ragged-tail"
    }

    fn accumulate(&self, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
        reference::spmm(s, a)
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        walk_mutant(self.name(), sim, s, k, |tally, c| {
            let len = (c.end - c.start) as u64;
            tally.global_read(c.row_buf.elem_addr(c.start as u64, 4), len * 4, 1);
            // BUG: a one-element chunk loads a pair of column ids.
            let col_len = if len == 1 { 2 } else { len };
            tally.global_read(c.col_buf.base() + c.start as u64 * 4, col_len * 4, 1);
            tally.global_read(c.val_buf.elem_addr(c.start as u64, 4), len * 4, 1);
            let r = c.row_ind[c.start] as usize;
            tally.global_atomic(c.o_buf.elem_addr((r * c.k) as u64, 4), c.k as u64 * 4);
        })
    }
}

/// The skeleton of the two row-warp mutants: one warp per row reads its
/// two `row_offsets`, its `col_ind` and `values` run, and stores its whole
/// `O` row. `offsets` and `store` give the elements the warp of row `r`
/// reads from `row_offsets` and stores into `O`; a correct kernel reads 2
/// and stores `k`.
fn walk_row_mutant(
    name: &'static str,
    sim: &mut GpuSim,
    s: &Hybrid,
    k: usize,
    offsets: impl Fn(usize) -> u64 + Sync,
    store: impl Fn(usize) -> u64 + Sync,
) -> Result<KernelCost, FormatError> {
    let csr = s.to_csr();
    let m = csr.rows();
    let off_buf = sim.alloc_input(m + 1, "row_offsets");
    let col_buf = sim.alloc_input(csr.nnz(), "col_ind");
    let val_buf = sim.alloc_input(csr.nnz(), "values");
    sim.alloc_input(csr.cols() * k, "A");
    let o_buf = sim.alloc_output(m * k, "O");
    let launch = LaunchConfig {
        num_warps: m as u64,
        resources: mutant_resources(),
    };
    let report = sim.launch_named(name, launch, |warp_id, tally| {
        let r = warp_id as usize;
        tally.global_read(off_buf.base() + r as u64 * 4, offsets(r) * 4, 1);
        let range = csr.row_range(r);
        let len = range.len() as u64;
        if len > 0 {
            for buf in [&col_buf, &val_buf] {
                tally.global_read(buf.elem_addr(range.start as u64, 4), len * 4, 1);
            }
        }
        tally.global_write(o_buf.base() + (r * k) as u64 * 4, store(r) * 4, 1);
    });
    Ok(KernelCost {
        report,
        preprocess: None,
    })
}

/// Shape mutant: a row-warp kernel whose last warp, when `m` is a power of
/// two of at least 32, takes a fast path that reads the next row's end too
/// — one element past `row_offsets`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MutantPow2Offsets;

impl SpmmKernel for MutantPow2Offsets {
    fn name(&self) -> &'static str {
        "mutant:pow2-offsets"
    }

    fn accumulate(&self, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
        reference::spmm(s, a)
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        // BUG: the power-of-two fast path's last warp reads three offsets.
        let m = s.rows();
        let offsets = |r: usize| 2 + u64::from(m >= 32 && m.is_power_of_two() && r + 1 == m);
        walk_row_mutant(self.name(), sim, s, k, offsets, |_| k as u64)
    }
}

/// Shape mutant: at odd `k` every warp but the last rounds its `O` store
/// up to an even element count, so it also stores the next row's first
/// element — a plain-vs-plain race with that row's warp.
#[derive(Debug, Clone, Copy, Default)]
pub struct MutantOddKSpill;

impl SpmmKernel for MutantOddKSpill {
    fn name(&self) -> &'static str {
        "mutant:odd-k-spill"
    }

    fn accumulate(&self, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
        reference::spmm(s, a)
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        // BUG: an odd-width row store spills into the next row.
        let m = s.rows();
        let store = |r: usize| (k + usize::from(k % 2 == 1 && r + 1 < m)) as u64;
        walk_row_mutant(self.name(), sim, s, k, |_| 2, store)
    }
}

/// The three shape mutants, each with the property its defect violates.
/// None fires on [`mutant_test_graph`] or on the registry graphs at
/// K = 32 / 64: each needs a tile-boundary shape — `nnz mod 64 = 1`, a
/// power-of-two row count of at least 32, or an odd `k`.
pub fn shape_mutants() -> Vec<(Property, Box<dyn SpmmKernel>)> {
    vec![
        (Property::Bounds, Box::new(MutantRaggedTail)),
        (Property::Bounds, Box::new(MutantPow2Offsets)),
        (Property::Race, Box::new(MutantOddKSpill)),
    ]
}

/// The four mutants [`mutant_test_graph`] exposes, each with the property
/// its seeded bug violates — the one checker that must flag it.
pub fn all_mutants() -> Vec<(Property, Box<dyn SpmmKernel>)> {
    vec![
        (Property::Bounds, Box::new(MutantOobTail)),
        (Property::Race, Box::new(MutantRacyTail)),
        (Property::Init, Box::new(MutantUninitAcc)),
        (Property::Init, Box::new(MutantEagerNorm)),
    ]
}

/// A graph guaranteed to exercise every mutant's defect: enough elements
/// for several warps, with long row runs so rows straddle the
/// `NNZ_PER_WARP` chunk boundaries the racy mutant needs.
pub fn mutant_test_graph() -> Hybrid {
    let triplets: Vec<(u32, u32, f32)> = (0..1000u32)
        .map(|i| (i / 100, (i * 17) % 50, 1.0 + (i % 7) as f32))
        .collect();
    Hybrid::from_triplets(10, 50, &triplets).expect("static triplets are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutants_still_compute_correct_numerics() {
        let s = mutant_test_graph();
        let a = Dense::from_fn(50, 16, |i, j| ((i * 16 + j) as f32 * 1e-2).sin());
        let expected = reference::spmm(&s, &a).unwrap();
        let device = hpsparse_sim::DeviceSpec::v100();
        for (_, m) in all_mutants().into_iter().chain(shape_mutants()) {
            let run = m.run(&device, &s, &a).unwrap();
            assert!(run.output.approx_eq(&expected, 1e-5, 1e-6), "{}", m.name());
            assert!(run.report.cycles > 0);
        }
    }

    #[test]
    fn mutant_graph_spans_multiple_warps_and_splits_rows() {
        let s = mutant_test_graph();
        assert!(s.nnz() > 3 * NNZ_PER_WARP);
        // Rows of 100 elements against 64-element chunks: every row
        // crosses at least one chunk boundary.
        assert!(s.nnz() / s.rows() > NNZ_PER_WARP);
    }
}
