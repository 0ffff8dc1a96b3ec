//! HP-Fused-MHA — one-kernel sparse multi-head attention.
//!
//! The GAT path runs three launches per head — SDDMM (scores), edge
//! softmax, SpMM (aggregation) — so every per-edge attention score
//! round-trips DRAM twice between launches. This kernel fuses the three
//! stages: each warp owns a *row-aligned* tile of consecutive elements
//! (Accel-GCN-style row grouping, capped so the tile's scores fit the
//! per-warp shared-memory slice), computes the scaled SDDMM scores into
//! the shared tile, runs the numerically-stable softmax (running max +
//! renormalization) in place, and aggregates the weighted `V` rows — all
//! in a single launch. Only the *final* attention weights are written
//! back (training's backward pass needs them); the raw scores never touch
//! DRAM.
//!
//! Rows too long for one warp's share of the work but still inside the
//! shared tile are *block-cooperative*: the row's segments are assigned
//! to consecutive warps of a single block (idle-padded so a row never
//! straddles blocks), each warp computes its segment's scores into the
//! block's shared buffer, and after a barrier the lead warp alone folds
//! the whole row's max and denominator in element order before every
//! segment renormalizes its slice and accumulates into the output via
//! atomics. Rows whose element count exceeds the shared tile itself
//! spill through L2: a score launch writes padded per-segment stripes of
//! a global scratch buffer, and an apply launch re-reads them with a
//! two-pass softmax. The spill pair is two launches on purpose — the
//! simulator's initcheck is launch-granular, so a same-launch scratch
//! round-trip would be (correctly) flagged as a read of uninitialized
//! memory.
//!
//! When a head's working set (Q, K, V, O, triplets, weights) overflows
//! the device L2, the kernel issues its single-use traffic — triplet
//! staging, Q rows, the weight write-out, the output atomics, and K/V
//! gathers of degree-1 columns — with the streaming (evict-first) cache
//! hint (`ld.global.cs` / `cudaAccessPropertyStreaming`), so one-shot
//! streams never displace the reusable high-degree K/V feature rows; see
//! [`WarpTally::global_read_streaming`].
//!
//! Like every kernel ([`crate::traits`]) this one is a cost walk
//! ([`HpFusedMha::cost_on`]) plus an accumulation order
//! ([`numerics::attention`]). The order is the sequential reference
//! pipeline's (`reference::sddmm` → `× scale` → `edge_softmax` →
//! `reference::spmm`), bit for bit: every row's scores are produced and
//! reduced in ascending element order by exactly one warp — the tile
//! owner, or the cooperative lead warp folding the block's shared slices —
//! so no partitioning regroups an addition. The unfused HP three-launch
//! pipeline may differ from both by a few ULP on rows that HP-SpMM splits
//! across chunks; see DESIGN.md "Fused attention".

use crate::hp::config::HpConfig;
use crate::numerics::{self, segments, Cut};
use crate::traits::{check_mha_dims, Launches};
use hpsparse_sim::{Buffer, DeviceSpec, GpuSim, KernelResources, LaunchConfig, WarpTally};
use hpsparse_sparse::{Dense, FormatError, Hybrid};
use std::ops::Range;

/// Per-warp shared-memory score-tile capacity, in f32 elements. Rows
/// longer than this spill through L2.
pub const SMEM_SCORE_CAP: usize = 512;

/// Spill-scratch segment length, in f32 elements. Each spill-score warp
/// owns one padded segment stripe so the scratch buffer is fully
/// initialized before the apply launch reads it.
const SPILL_SEG: usize = 512;

/// The fused multi-head attention kernel.
#[derive(Debug, Clone, Copy)]
pub struct HpFusedMha {
    /// Launch parameters (usually from [`HpFusedMha::auto`]).
    pub config: HpConfig,
}

/// Result of one fused multi-head attention run.
#[derive(Debug, Clone)]
pub struct FusedMhaRun {
    /// Per-head aggregated output features (`m × d` each).
    pub outputs: Vec<Dense>,
    /// Per-head softmaxed attention weights, aligned with the sparse
    /// matrix's element order (the backward pass consumes these).
    pub attn: Vec<Vec<f32>>,
    /// The launches, as [`HpFusedMha::cost_on`] reports them.
    pub launches: Launches,
}

/// Row-aligned tiling of the element range: tiles hold whole rows and
/// close at `target` elements (the DTP `NnzPerWarp`); rows longer than
/// `target` but still fitting the shared tile become block-cooperative
/// rows (split across the warps of one thread block), and rows longer
/// than [`SMEM_SCORE_CAP`] go to the spill list.
struct FusedPartition {
    /// Element ranges, each covering whole rows of at most `target`
    /// elements total.
    tiles: Vec<Range<usize>>,
    /// `(row, elements)` for rows longer than `target` that still fit the
    /// shared tile — processed cooperatively by one block.
    coop: Vec<(usize, Range<usize>)>,
    /// `(row, elements)` for rows longer than the shared tile.
    spills: Vec<(usize, Range<usize>)>,
}

fn partition(row_ind: &[u32], target: usize) -> FusedPartition {
    let mut part = FusedPartition {
        tiles: Vec::new(),
        coop: Vec::new(),
        spills: Vec::new(),
    };
    let mut tile_start = 0;
    for row in segments(row_ind, Cut::PerRow(usize::MAX)) {
        if row.len() > target {
            if tile_start < row.start {
                part.tiles.push(tile_start..row.start);
            }
            tile_start = row.end;
            let long = if row.len() > SMEM_SCORE_CAP {
                &mut part.spills
            } else {
                &mut part.coop
            };
            long.push((row_ind[row.start] as usize, row));
        } else if row.start > tile_start && row.end - tile_start > target {
            part.tiles.push(tile_start..row.start);
            tile_start = row.start;
        }
    }
    if tile_start < row_ind.len() {
        part.tiles.push(tile_start..row_ind.len());
    }
    part
}

/// Dispatches a global atomic either through the cache or through an
/// evict-first streaming window, by the kernel's footprint policy. Only
/// sound for output regions touched once, or by a burst of adjacent
/// warps (see [`WarpTally::global_atomic_streaming`]).
fn atomic_hinted(tally: &mut WarpTally, stream: bool, addr: u64, len_bytes: u64) {
    if stream {
        tally.global_atomic_streaming(addr, len_bytes);
    } else {
        tally.global_atomic(addr, len_bytes);
    }
}

/// Dispatches a global read with or without the streaming (evict-first)
/// hint. The fused kernel streams its single-use traffic — triplet
/// staging, `Q` rows, degree-1 gathers — only when one head's working set
/// overflows L2; on small problems everything fits on chip and caching
/// wins back cross-head reuse.
fn read_hinted(tally: &mut WarpTally, stream: bool, addr: u64, len_bytes: u64, vw: u32) {
    if stream {
        tally.global_read_streaming(addr, len_bytes, vw);
    } else {
        tally.global_read(addr, len_bytes, vw);
    }
}

/// Lane-parallel instructions covering `n` elements: one per 32, at least
/// one.
fn warp_steps(n: usize) -> u64 {
    (n as u64).div_ceil(32).max(1)
}

/// One warp's assignment in the fused main launch.
#[derive(Debug, Clone)]
enum WarpJob {
    /// A row-aligned tile processed solo.
    Tile(Range<usize>),
    /// One segment of a block-cooperative row. The lead segment's warp
    /// performs the whole-row max/denominator reduction over the block's
    /// shared score slices.
    Coop {
        row: usize,
        row_len: usize,
        seg: Range<usize>,
        lead: bool,
    },
    /// Block-alignment padding (keeps a cooperative row inside one block).
    Idle,
}

impl HpFusedMha {
    /// Builds the kernel with an explicit configuration.
    pub fn new(config: HpConfig) -> Self {
        Self { config }
    }

    /// Builds the kernel with the edge-parallel selection rule
    /// ([`HpConfig::edge_parallel`]): the feature-row reads are contiguous
    /// `d`-float spans, exactly as in HP-SDDMM.
    pub fn auto(device: &DeviceSpec, s: &Hybrid, head_dim: usize) -> Self {
        Self::new(HpConfig::edge_parallel(device, s.nnz(), s.rows(), head_dim))
    }

    /// Kernel display name.
    pub fn name(&self) -> &'static str {
        "HP-Fused-MHA"
    }

    /// Per-block resources: the staged sparse triplets plus the per-warp
    /// score tile — the tile is what makes shared memory the occupancy
    /// limiter at high warps-per-block, which is the point of modeling it.
    fn resources(&self, d: usize) -> KernelResources {
        let tile_elems = 32 * self.config.vector_width;
        KernelResources {
            warps_per_block: self.config.warps_per_block,
            registers_per_thread: (32 + (d as u32 / 32).max(1) * 6).min(255),
            shared_mem_per_block: (3 * tile_elems * 4 + SMEM_SCORE_CAP as u32 * 4)
                * self.config.warps_per_block,
        }
    }

    /// Convenience wrapper creating a fresh simulator, as the kernel
    /// traits' `run` defaults do.
    pub fn run(
        &self,
        device: &DeviceSpec,
        s: &Hybrid,
        q: &[Dense],
        k: &[Dense],
        v: &[Dense],
    ) -> Result<FusedMhaRun, FormatError> {
        let mut sim = GpuSim::new(device.clone());
        self.run_on(&mut sim, s, q, k, v)
    }

    /// Runs fused multi-head attention: per head `h`,
    /// `O_h = softmax_row((Q_h · K_hᵀ) ⊙ S / √d) · V_h`, with the sparse
    /// mask's values multiplying the scores exactly as SDDMM does. The
    /// cost walk, then [`numerics::attention`].
    pub fn run_on(
        &self,
        sim: &mut GpuSim,
        s: &Hybrid,
        q: &[Dense],
        k: &[Dense],
        v: &[Dense],
    ) -> Result<FusedMhaRun, FormatError> {
        check_mha_dims(s, q, k, v)?;
        let launches = self.cost_on(sim, s, q[0].cols(), q.len())?;
        let (outputs, attn) = numerics::attention(s, q, k, v)?;
        Ok(FusedMhaRun {
            outputs,
            attn,
            launches,
        })
    }

    /// The cost walk: describes the traffic of `heads` heads of width
    /// `head_dim` over `s` to an existing simulator and returns the
    /// launches — the main launch, then the spill score/apply pair when
    /// [`spilled_rows`](Self::spilled_rows) is non-zero, and none at all on
    /// an empty matrix; nothing is preprocessed. The partition, the job
    /// table, the streaming-hint policy and the column degrees all follow
    /// from `RowInd` / `ColInd` and the shape, so it computes no float
    /// ([`crate::traits`]).
    #[allow(clippy::too_many_lines)]
    pub fn cost_on(
        &self,
        sim: &mut GpuSim,
        s: &Hybrid,
        head_dim: usize,
        heads: usize,
    ) -> Result<Launches, FormatError> {
        let resources = self
            .config
            .check_launchable(self.name(), sim.device(), || self.resources(head_dim))?;
        if heads == 0 {
            return Err(FormatError::DimensionMismatch {
                context: "fused-mha: head counts of Q/K/V differ or are zero",
            });
        }
        if head_dim == 0 {
            return Err(FormatError::DimensionMismatch {
                context: "fused-mha: head dims differ or are zero",
            });
        }
        let d = head_dim;
        let (m, n, nnz) = (s.rows(), s.cols(), s.nnz());
        let vw = self.config.vector_width;
        let (row_ind, col_ind) = (s.row_indices(), s.col_indices());
        let target = self.config.nnz_per_warp.clamp(1, SMEM_SCORE_CAP);
        let wpb = self.config.warps_per_block.max(1) as usize;
        let part = partition(row_ind, target);

        // The per-head warp plan: cooperative rows first (each split into
        // ≤ `wpb` segments, padded so a row never straddles a block
        // boundary), then the solo tiles, padded to a whole block so every
        // head starts block-aligned.
        let mut jobs: Vec<WarpJob> = Vec::new();
        for (row, elems) in &part.coop {
            let seg_len = target.max(elems.len().div_ceil(wpb));
            if jobs.len() % wpb + elems.len().div_ceil(seg_len) > wpb {
                jobs.resize(jobs.len().next_multiple_of(wpb), WarpJob::Idle);
            }
            for start in elems.clone().step_by(seg_len) {
                jobs.push(WarpJob::Coop {
                    row: *row,
                    row_len: elems.len(),
                    seg: start..(start + seg_len).min(elems.end),
                    lead: start == elems.start,
                });
            }
        }
        jobs.extend(part.tiles.iter().cloned().map(WarpJob::Tile));
        jobs.resize(jobs.len().next_multiple_of(wpb), WarpJob::Idle);
        let plan_len = jobs.len();

        // Streaming-hint policy: one head's pass touches Q + K + V + O
        // plus the staged triplets and the weight write-out. When that
        // footprint overflows L2, caching the single-use streams only
        // evicts reusable K/V rows, so they are read (and the output
        // atomics issued) with the no-allocate hint; when everything fits
        // on chip, plain cached accesses keep cross-head reuse.
        let head_footprint = ((2 * m + 2 * n) * d * 4 + 16 * nnz) as u64;
        let stream = head_footprint > sim.device().l2_bytes;

        // Spill worklists: per spill row, per head, SPILL_SEG-element
        // segments — consecutive per (row, head) so the apply warp reads
        // one contiguous scratch span.
        let mut segs: Vec<(usize, usize, Range<usize>)> = Vec::new(); // (head, row, elements)
        let mut apps: Vec<(usize, usize, Range<usize>, usize)> = Vec::new(); // (.., first segment)
        for (row, elems) in &part.spills {
            for h in 0..heads {
                apps.push((h, *row, elems.clone(), segs.len()));
                for start in elems.clone().step_by(SPILL_SEG) {
                    segs.push((h, *row, start..(start + SPILL_SEG).min(elems.end)));
                }
            }
        }

        let row_buf = sim.alloc_input(nnz, "row_ind");
        let col_buf = sim.alloc_input(nnz, "col_ind");
        let val_buf = sim.alloc_input(nnz, "values");
        let q_buf = sim.alloc_input(heads * m * d, "Q");
        let k_buf = sim.alloc_input(heads * n * d, "K");
        let v_buf = sim.alloc_input(heads * n * d, "V");
        let tile_tab = sim.alloc_input(plan_len + 1, "tile_off");
        let w_buf = sim.alloc_output(heads * nnz, "attn_w");
        let o_buf = sim.alloc_output(heads * m * d, "O");

        // Degree-aware gather hinting (streaming mode only): a column with
        // a single incident edge contributes K/V feature rows that are read
        // exactly once per head, so caching them floods L2 the same way an
        // un-hinted triplet stream would. The column degrees come straight
        // from the sparse format (the same degree binning DTP already
        // does), so a real kernel gets this bit for free.
        let mut col_deg = vec![0u32; n];
        for &c in col_ind {
            col_deg[c as usize] += 1;
        }

        let tile_elems = (32 * vw as usize).min(SMEM_SCORE_CAP);
        let row_bytes = d as u64 * 4;
        // Address of feature row `row` of head `h` in a `rows`-row operand.
        let row_addr = |buf: &Buffer, h: usize, rows: usize, row: usize| {
            buf.elem_addr(((h * rows + row) * d) as u64, 4)
        };
        // Stages `elems` of each sparse array in `bufs` through shared
        // memory, one `tile_elems` tile at a time.
        let stage = |tally: &mut WarpTally, stream: bool, bufs: &[&Buffer], elems: Range<usize>| {
            for i in elems.clone().step_by(tile_elems) {
                let tl = tile_elems.min(elems.end - i) as u64;
                for buf in bufs {
                    read_hinted(tally, stream, buf.elem_addr(i as u64, 4), tl * 4, vw);
                }
                tally.shared_op(bufs.len() as u64 + tl);
            }
        };
        // Gathers head `h`'s `K` or `V` row of every column in `elems` and
        // issues the lane-wise products over it; `reduce` adds the SDDMM
        // dot product's 32-lane shuffle reduction.
        let gather = |tally: &mut WarpTally,
                      stream: bool,
                      buf: &Buffer,
                      h: usize,
                      elems: Range<usize>,
                      reduce: bool| {
            for &c in &col_ind[elems] {
                let once = stream && col_deg[c as usize] == 1;
                let addr = row_addr(buf, h, n, c as usize);
                read_hinted(tally, once, addr, row_bytes, vw);
                tally.compute(warp_steps(d));
                if reduce {
                    tally.shuffle_reduce(32);
                }
            }
        };

        let mut reports = Vec::new();
        if plan_len > 0 {
            let launch = LaunchConfig {
                num_warps: (plan_len * heads) as u64,
                resources,
            };
            reports.push(sim.launch_named("fused-mha", launch, |warp_id, tally| {
                // Head-major mapping: one head's K/V gather working set at
                // a time stays L2-resident; interleaving heads would double
                // the hot set and thrash the gathers.
                let h = warp_id as usize / plan_len;
                let idx = warp_id as usize % plan_len;
                match &jobs[idx] {
                    WarpJob::Idle => {}
                    WarpJob::Tile(tile) => {
                        tally.compute(16);
                        tally.global_read(tile_tab.elem_addr(idx as u64, 4), 8, 1);
                        // Stage the tile's sparse triplets, as HP-SDDMM
                        // does — with the streaming hint: the triplets are
                        // single-use per warp, so caching them would only
                        // evict reusable K/V feature rows.
                        stage(tally, stream, &[&row_buf, &col_buf, &val_buf], tile.clone());
                        let mut i = tile.start;
                        for row in row_ind[tile.clone()].chunk_by(|a, b| a == b) {
                            let (r, rl) = (row[0] as usize, row.len());
                            let elems = i..i + rl;
                            i = elems.end;
                            // SDDMM stage: Q[r] once per row (streaming —
                            // each Q row is read exactly once per head),
                            // K[c] per element, scores into the shared
                            // tile.
                            let q_addr = row_addr(&q_buf, h, m, r);
                            read_hinted(tally, stream, q_addr, row_bytes, vw);
                            gather(tally, stream, &k_buf, h, elems.clone(), true);
                            tally.shared_write(rl as u64);
                            // Softmax stage, in the exact edge_softmax
                            // order: running max, exp + denominator,
                            // renormalize in place.
                            tally.shared_read(rl as u64);
                            tally.compute(warp_steps(rl));
                            tally.shared_read(rl as u64);
                            tally.shared_write(rl as u64);
                            tally.compute(2 * warp_steps(rl));
                            tally.shared_read(rl as u64);
                            tally.shared_write(rl as u64);
                            tally.compute(warp_steps(rl));
                            // SpMM stage straight out of the shared tile.
                            tally.shared_read(rl as u64);
                            gather(tally, stream, &v_buf, h, elems, false);
                            // A solo row's output slice is touched exactly
                            // once per head, so under the streaming policy
                            // the atomic goes through an evict-first window
                            // instead of displacing K/V gather lines.
                            atomic_hinted(tally, stream, row_addr(&o_buf, h, m, r), row_bytes);
                        }
                        // Final weights go to DRAM once (backward needs
                        // them), batched as one coalesced store of the
                        // whole tile out of the shared buffer; the raw
                        // scores never left the shared tile.
                        tally.shared_read(tile.len() as u64);
                        let w_addr = w_buf.elem_addr((h * nnz + tile.start) as u64, 4);
                        atomic_hinted(tally, stream, w_addr, tile.len() as u64 * 4);
                    }
                    WarpJob::Coop {
                        row,
                        row_len,
                        seg,
                        lead,
                    } => {
                        let (r, rl, sl) = (*row, *row_len, seg.len());
                        tally.compute(16);
                        tally.global_read(tile_tab.elem_addr(idx as u64, 4), 8, 1);
                        // Stage the segment's columns and values (the row
                        // index is implied by the job table).
                        stage(tally, stream, &[&col_buf, &val_buf], seg.clone());
                        // SDDMM stage over the segment, scores into the
                        // warp's shared slice. The lead warp stages the
                        // row's Q vector into shared once; the other
                        // segments read it from there instead of issuing
                        // their own redundant global fetch.
                        if *lead {
                            let q_addr = row_addr(&q_buf, h, m, r);
                            read_hinted(tally, stream, q_addr, row_bytes, vw);
                            tally.shared_write(d as u64);
                        } else {
                            tally.shared_read(d as u64);
                        }
                        gather(tally, stream, &k_buf, h, seg.clone(), true);
                        tally.shared_write(sl as u64);
                        // Block-cooperative softmax, sequential semantics:
                        // after a barrier the lead warp alone folds the
                        // whole row's max and denominator over the block's
                        // score slices in element order (so the reduction
                        // associates exactly as the reference) and posts
                        // both to the block's broadcast slots; every
                        // segment then renormalizes its own slice.
                        if *lead {
                            tally.shared_read(rl as u64);
                            tally.compute(warp_steps(rl));
                            tally.shared_read(rl as u64);
                            tally.compute(2 * warp_steps(rl));
                        }
                        tally.shared_op(2); // post / read the broadcast slots
                        tally.shared_read(sl as u64);
                        tally.shared_write(sl as u64);
                        tally.compute(warp_steps(sl));
                        let w_addr = w_buf.elem_addr((h * nnz + seg.start) as u64, 4);
                        atomic_hinted(tally, stream, w_addr, sl as u64 * 4);
                        // SpMM stage over the segment; the row's output
                        // accumulates across segments via atomics, exactly
                        // as HP-SpMM combines split rows.
                        tally.shared_read(sl as u64);
                        gather(tally, stream, &v_buf, h, seg.clone(), false);
                        // The segments of a row are adjacent warps, so
                        // their accumulating atomics land while the
                        // evict-first line is still resident.
                        atomic_hinted(tally, stream, row_addr(&o_buf, h, m, r), row_bytes);
                    }
                }
            }));
        }

        if !segs.is_empty() {
            let seg_tab = sim.alloc_input(4 * segs.len(), "seg_tab");
            let app_tab = sim.alloc_input(6 * apps.len(), "app_tab");
            let spill_buf = sim.alloc_scratch(segs.len() * SPILL_SEG, "spill_scores");

            let score_launch = LaunchConfig {
                num_warps: segs.len() as u64,
                resources,
            };
            let score = |w: u64, tally: &mut WarpTally| {
                let (h, r, seg) = &segs[w as usize];
                tally.compute(16);
                tally.global_read(seg_tab.elem_addr(w * 4, 4), 16, 1);
                stage(tally, false, &[&col_buf, &val_buf], seg.clone());
                tally.global_read(row_addr(&q_buf, *h, m, *r), row_bytes, vw);
                gather(tally, false, &k_buf, *h, seg.clone(), true);
                // The whole stripe is written, its tail zero-padded, so the
                // launch-granular initcheck sees full coverage.
                let stripe = spill_buf.elem_addr(w * SPILL_SEG as u64, 4);
                tally.global_write(stripe, SPILL_SEG as u64 * 4, vw);
            };
            reports.push(sim.launch_named("fused-mha-spill-score", score_launch, score));

            let apply_launch = LaunchConfig {
                num_warps: apps.len() as u64,
                resources,
            };
            let apply = |p: u64, tally: &mut WarpTally| {
                let (h, r, elems, seg0) = &apps[p as usize];
                let rl = elems.len();
                tally.compute(16);
                tally.global_read(app_tab.elem_addr(p * 6, 4), 24, 1);
                stage(tally, false, &[&col_buf], elems.clone());
                let scores = spill_buf.elem_addr((seg0 * SPILL_SEG) as u64, 4);
                let span = (rl.div_ceil(SPILL_SEG) * SPILL_SEG) as u64 * 4;
                // Pass 1: running max over the spilled scores (via L2).
                tally.global_read(scores, span, vw);
                tally.compute(warp_steps(rl));
                // Pass 2: exp + denominator, in edge_softmax's exact order.
                tally.global_read(scores, span, vw);
                tally.compute(2 * warp_steps(rl));
                // Pass 3: weights + aggregation.
                tally.global_read(scores, span, vw);
                tally.global_atomic(
                    w_buf.elem_addr((h * nnz + elems.start) as u64, 4),
                    rl as u64 * 4,
                );
                gather(tally, false, &v_buf, *h, elems.clone(), false);
                tally.global_atomic(row_addr(&o_buf, *h, m, *r), row_bytes);
            };
            reports.push(sim.launch_named("fused-mha-spill-apply", apply_launch, apply));
        }

        Ok(Launches {
            preprocess: None,
            exec: reports,
        })
    }

    /// Rows of `s` longer than [`SMEM_SCORE_CAP`]: the rows that spill
    /// through L2 under every configuration, since a tile never targets
    /// more elements than the shared tile holds.
    pub fn spilled_rows(s: &Hybrid) -> usize {
        let rows = segments(s.row_indices(), Cut::PerRow(usize::MAX));
        rows.filter(|row| row.len() > SMEM_SCORE_CAP).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_sparse::reference;

    fn unfused_reference(
        s: &Hybrid,
        q: &[Dense],
        k: &[Dense],
        v: &[Dense],
    ) -> (Vec<Dense>, Vec<Vec<f32>>) {
        let d = q[0].cols();
        let scale = 1.0 / (d as f32).sqrt();
        let mut outs = Vec::new();
        let mut attns = Vec::new();
        for h in 0..q.len() {
            let mut scores = reference::sddmm_transposed(s, &q[h], &k[h]).unwrap();
            for w in &mut scores {
                *w *= scale;
            }
            // edge_softmax, in the exact order crates/gnn uses.
            let row_ind = s.row_indices();
            let mut weights = vec![0f32; scores.len()];
            let mut i = 0;
            while i < scores.len() {
                let r = row_ind[i];
                let mut j = i + 1;
                while j < scores.len() && row_ind[j] == r {
                    j += 1;
                }
                let max = scores[i..j]
                    .iter()
                    .copied()
                    .fold(f32::NEG_INFINITY, f32::max);
                let mut denom = 0f32;
                for t in i..j {
                    weights[t] = (scores[t] - max).exp();
                    denom += weights[t];
                }
                for w in &mut weights[i..j] {
                    *w /= denom;
                }
                i = j;
            }
            let mut weighted = s.clone();
            weighted.set_values(weights.clone());
            outs.push(reference::spmm(&weighted, &v[h]).unwrap());
            attns.push(weights);
        }
        (outs, attns)
    }

    fn heads_qkv(s: &Hybrid, heads: usize, d: usize, seed: usize) -> [Vec<Dense>; 3] {
        let (m, n) = (s.rows(), s.cols());
        let gen = |rows: usize, salt: usize| -> Vec<Dense> {
            (0..heads)
                .map(|h| {
                    Dense::from_fn(rows, d, |i, j| {
                        ((seed * 31 + salt * 17 + h * 13 + i * 7 + j) as f32 * 0.37).sin()
                    })
                })
                .collect()
        };
        [gen(m, 1), gen(n, 2), gen(n, 3)]
    }

    fn ragged_graph() -> Hybrid {
        // Row 0: empty. Row 1: single entry. Row 2: SMEM_SCORE_CAP + 37
        // entries (spills). Rows 3..: short rows packed into tiles.
        let n = SMEM_SCORE_CAP + 64;
        let mut trips: Vec<(u32, u32, f32)> = Vec::new();
        trips.push((1, 3, 2.0));
        for c in 0..SMEM_SCORE_CAP + 37 {
            trips.push((2, c as u32, 1.0 + (c % 5) as f32 * 0.25));
        }
        for r in 3..20u32 {
            for c in 0..(r as usize % 7) + 1 {
                trips.push((r, ((r as usize * 11 + c * 3) % n) as u32, 0.5));
            }
        }
        Hybrid::from_triplets(24, n, &trips).unwrap()
    }

    #[test]
    fn bit_identical_to_reference_pipeline() {
        let s = ragged_graph();
        let v100 = DeviceSpec::v100();
        for heads in [1usize, 4, 8] {
            for d in [32usize, 64, 33] {
                let [q, k, v] = heads_qkv(&s, heads, d, heads * 100 + d);
                let run = HpFusedMha::auto(&v100, &s, d)
                    .run(&v100, &s, &q, &k, &v)
                    .unwrap();
                let (eo, ea) = unfused_reference(&s, &q, &k, &v);
                assert_eq!(
                    HpFusedMha::spilled_rows(&s),
                    1,
                    "expected exactly one spilled row"
                );
                for h in 0..heads {
                    assert_eq!(
                        run.attn[h], ea[h],
                        "attention weights differ (heads={heads} d={d} head={h})"
                    );
                    for i in 0..s.rows() {
                        for j in 0..d {
                            let a = run.outputs[h].row(i)[j];
                            let b = eo[h].row(i)[j];
                            assert!(
                                a.to_bits() == b.to_bits(),
                                "output bit mismatch at ({i},{j}): {a} vs {b} \
                                 (heads={heads} d={d} head={h})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn spill_reduces_to_no_spill_on_small_rows() {
        let trips: Vec<(u32, u32, f32)> = (0..200)
            .map(|i| ((i / 10) as u32, (i % 37) as u32, 1.0 + (i % 3) as f32))
            .collect();
        let s = Hybrid::from_triplets(20, 37, &trips).unwrap();
        let v100 = DeviceSpec::v100();
        let [q, k, v] = heads_qkv(&s, 2, 16, 7);
        let run = HpFusedMha::auto(&v100, &s, 16)
            .run(&v100, &s, &q, &k, &v)
            .unwrap();
        assert_eq!(HpFusedMha::spilled_rows(&s), 0);
        assert_eq!(run.launches.exec.len(), 1);
    }

    #[test]
    fn empty_matrix_runs_cleanly() {
        let s = Hybrid::from_triplets(3, 3, &[]).unwrap();
        let v100 = DeviceSpec::v100();
        let [q, k, v] = heads_qkv(&s, 2, 8, 1);
        let run = HpFusedMha::auto(&v100, &s, 8)
            .run(&v100, &s, &q, &k, &v)
            .unwrap();
        assert!(run.launches.exec.is_empty());
        for h in 0..2 {
            for i in 0..3 {
                assert!(run.outputs[h].row(i).iter().all(|x| *x == 0.0));
            }
        }
    }

    #[test]
    fn rejects_bad_dimensions() {
        let s = Hybrid::from_triplets(4, 5, &[(0, 0, 1.0)]).unwrap();
        let v100 = DeviceSpec::v100();
        let kern = HpFusedMha::auto(&v100, &s, 8);
        let [q, k, v] = heads_qkv(&s, 2, 8, 1);
        assert!(kern.run(&v100, &s, &q[..1], &k, &v).is_err());
        let bad_q: Vec<Dense> = (0..2).map(|_| Dense::zeros(3, 8)).collect();
        assert!(kern.run(&v100, &s, &bad_q, &k, &v).is_err());
        let bad_k: Vec<Dense> = (0..2).map(|_| Dense::zeros(5, 7)).collect();
        assert!(kern.run(&v100, &s, &q, &bad_k, &v).is_err());
    }

    #[test]
    fn fused_saves_dram_vs_three_launch_pipeline() {
        use crate::hp::{HpSddmm, HpSpmm};
        use crate::traits::{SddmmKernel, SpmmKernel};
        let trips: Vec<(u32, u32, f32)> = (0..4000)
            .map(|i| ((i % 160) as u32, ((i * 13) % 200) as u32, 1.0))
            .collect();
        let s = Hybrid::from_triplets(160, 200, &trips).unwrap();
        let v100 = DeviceSpec::v100();
        let heads = 4;
        let d = 32;
        let [q, k, v] = heads_qkv(&s, heads, d, 3);
        let fused = HpFusedMha::auto(&v100, &s, d)
            .run(&v100, &s, &q, &k, &v)
            .unwrap();
        // Unfused: per head, SDDMM + (softmax traffic: read scores, write
        // weights) + SpMM over the weighted matrix.
        let mut unfused_dram = 0u64;
        for h in 0..heads {
            let sd = HpSddmm::auto(&v100, &s, d)
                .run(&v100, &s, &q[h], &k[h])
                .unwrap();
            unfused_dram += sd.report.dram_bytes();
            // Edge softmax launch round-trips scores + weights through DRAM.
            unfused_dram += 2 * s.nnz() as u64 * 4;
            let mut weighted = s.clone();
            weighted.set_values(fused.attn[h].clone());
            let sp = HpSpmm::auto(&v100, &weighted, d)
                .run(&v100, &weighted, &v[h])
                .unwrap();
            unfused_dram += sp.report.dram_bytes();
        }
        assert!(
            fused.launches.dram_bytes() < unfused_dram,
            "fused {} bytes vs unfused {} bytes",
            fused.launches.dram_bytes(),
            unfused_dram
        );
    }
}
