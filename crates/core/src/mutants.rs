//! Deliberately broken kernels that prove the sanitizer's detectors fire.
//!
//! Each mutant is a seeded-defect variant of the HP-SpMM COO tail loop —
//! same work assignment, same buffers — with exactly one bug injected, so
//! exactly one checker must flag it — the one its [`Property`] names:
//!
//! | Mutant | Injected bug | [`Property`] |
//! |---|---|---|
//! | [`MutantOobTail`] | tile load runs one element past `col_ind` | `Bounds` |
//! | [`MutantRacyTail`] | row flush de-atomicized to a plain store | `Race` |
//! | [`MutantUninitAcc`] | accumulator read from `O` before any store | `Init` |
//! | [`MutantEagerNorm`] | fused softmax normalizer reads scores in the launch that wrote them | `Init` |
//!
//! [`MutantEagerNorm`] is the fused-attention variant: it un-fuses the
//! shared-memory score tile into a *global* scratch buffer but keeps the
//! single launch, so the normalizer pass reads scores the kernel boundary
//! has not yet made visible — the exact bug HP-Fused-MHA's spill path
//! avoids by splitting into a score/apply launch pair.
//!
//! The mutants compute *correct numerics* (their accumulation order is the
//! sequential reference's) while their cost walks mis-describe the memory
//! traffic — the simulated analogue of a CUDA kernel whose bug corrupts
//! memory without changing the tested output. They are deliberately kept out of the benchmark registry;
//! `repro -- verify` and the sanitizer's and catalogue's integration tests
//! are their only callers.

use crate::traits::{KernelCost, SpmmKernel};
use hpsparse_sim::{
    cond_le, Distinct, GpuSim, KernelResources, LaunchConfig, PlanBuilder, Property, SymBufferRole,
    SymExpr, SymbolicPlan,
};
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

/// Symbolic counterparts of [`MutantChunk`]'s fields, for the mutants'
/// plan emitters.
struct MutantSym {
    m: SymExpr,
    nnz: SymExpr,
    k: SymExpr,
    start: SymExpr,
    len: SymExpr,
    row_buf: usize,
    col_buf: usize,
    val_buf: usize,
    o_buf: usize,
}

/// Shared symbolic skeleton mirroring [`walk_mutant`]: the HP buffer set
/// and the per-chunk element slice; `body` emits the (deliberately buggy)
/// traffic of one warp.
fn mutant_plan(
    name: &str,
    body: impl FnOnce(&mut hpsparse_sim::LaunchBuilder<'_>, &MutantSym),
) -> SymbolicPlan {
    let npw = NNZ_PER_WARP as i64;
    let mut b = PlanBuilder::new(name, &format!("npw={npw}"));
    let m = b.param("m", 1);
    let n = b.param("n", 1);
    let nnz = b.param("nnz", 1);
    let k = b.param("k", 1);
    let row_buf = b.buffer("row_ind", SymBufferRole::Input, nnz.clone());
    let col_buf = b.buffer("col_ind", SymBufferRole::Input, nnz.clone());
    let val_buf = b.buffer("values", SymBufferRole::Input, nnz.clone());
    b.buffer("A", SymBufferRole::Input, n * k.clone());
    let o_buf = b.buffer("O", SymBufferRole::Output, m.clone() * k.clone());
    let mut l = b.launch(name);
    let chunk = l.axis("chunk", nnz.clone().ceil_div(npw));
    let start = chunk * SymExpr::Const(npw);
    let len = SymExpr::Const(npw).min(nnz.clone() - start.clone());
    let syms = MutantSym {
        m,
        nnz,
        k,
        start,
        len,
        row_buf,
        col_buf,
        val_buf,
        o_buf,
    };
    body(&mut l, &syms);
    l.done();
    b.build()
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

    fn symbolic_plans(&self) -> Vec<SymbolicPlan> {
        vec![mutant_plan(self.name(), |l, s| {
            l.read(s.row_buf, s.start.clone(), s.len.clone());
            l.begin_cases();
            // The last chunk (the one whose tail the matrix ends in) reads
            // one element too many — the seeded off-by-one.
            l.begin_arm(Some(cond_le(
                s.nnz.clone() - s.start.clone(),
                NNZ_PER_WARP as i64,
            )));
            l.read(
                s.col_buf,
                s.start.clone(),
                s.len.clone() + SymExpr::Const(1),
            );
            l.end_arm();
            l.begin_arm(None);
            l.read(s.col_buf, s.start.clone(), s.len.clone());
            l.end_arm();
            l.end_cases();
            l.read(s.val_buf, s.start.clone(), s.len.clone());
            let r = l.data(
                "r",
                SymExpr::Const(0),
                s.m.clone() - SymExpr::Const(1),
                Distinct::No,
                0,
            );
            l.atomic(s.o_buf, r * s.k.clone(), s.k.clone());
        })]
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

    fn symbolic_plans(&self) -> Vec<SymbolicPlan> {
        vec![mutant_plan(self.name(), |l, s| {
            for buf in [s.row_buf, s.col_buf, s.val_buf] {
                l.read(buf, s.start.clone(), s.len.clone());
            }
            // The seeded race: a plain store to a row nothing marks as
            // exclusive to this warp.
            let r = l.data(
                "r",
                SymExpr::Const(0),
                s.m.clone() - SymExpr::Const(1),
                Distinct::No,
                0,
            );
            l.write(s.o_buf, r * s.k.clone(), s.k.clone());
        })]
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

    fn symbolic_plans(&self) -> Vec<SymbolicPlan> {
        vec![mutant_plan(self.name(), |l, s| {
            for buf in [s.row_buf, s.col_buf, s.val_buf] {
                l.read(buf, s.start.clone(), s.len.clone());
            }
            let r = l.data(
                "r",
                SymExpr::Const(0),
                s.m.clone() - SymExpr::Const(1),
                Distinct::No,
                0,
            );
            // The seeded uninitialised read: O has no prior-launch store.
            l.read(s.o_buf, r.clone() * s.k.clone(), s.k.clone());
            l.atomic(s.o_buf, r * s.k.clone(), s.k.clone());
        })]
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

    fn symbolic_plans(&self) -> Vec<SymbolicPlan> {
        let npw = NNZ_PER_WARP as i64;
        let mut b = PlanBuilder::new(self.name(), &format!("npw={npw}"));
        let m = b.param("m", 1);
        let n = b.param("n", 1);
        let nnz = b.param("nnz", 1);
        let k = b.param("k", 1);
        let row_buf = b.buffer("row_ind", SymBufferRole::Input, nnz.clone());
        let col_buf = b.buffer("col_ind", SymBufferRole::Input, nnz.clone());
        let val_buf = b.buffer("values", SymBufferRole::Input, nnz.clone());
        b.buffer("A", SymBufferRole::Input, n * k.clone());
        let o_buf = b.buffer("O", SymBufferRole::Output, m.clone() * k.clone());
        let score_buf = b.buffer(
            "scores",
            SymBufferRole::Scratch,
            nnz.clone().ceil_div(npw) * SymExpr::Const(npw),
        );
        let mut l = b.launch(self.name());
        let chunk = l.axis("chunk", nnz.clone().ceil_div(npw));
        let start = chunk * SymExpr::Const(npw);
        let len = SymExpr::Const(npw).min(nnz - start.clone());
        for buf in [row_buf, col_buf, val_buf] {
            l.read(buf, start.clone(), len.clone());
        }
        l.write(score_buf, start.clone(), SymExpr::Const(npw));
        // The seeded defect: a same-launch read of the just-written scratch
        // — no *prior* launch covers it.
        l.read(score_buf, start, SymExpr::Const(npw));
        let r = l.data(
            "r",
            SymExpr::Const(0),
            m - SymExpr::Const(1),
            Distinct::No,
            0,
        );
        l.atomic(o_buf, r * k.clone(), k);
        l.done();
        vec![b.build()]
    }
}

/// The four mutants, each with the property its seeded bug violates —
/// the one checker, static or dynamic, that must flag it.
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
        for (_, m) in all_mutants() {
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
