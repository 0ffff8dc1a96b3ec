//! Shared machinery for row-oriented baseline SpMM kernels.
//!
//! cuSPARSE CSR ALG2, GE-SpMM, Row-split, Sputnik and Huang's method all
//! assign *row segments* to warps; they differ in how segments are formed
//! (whole rows, split rows, sorted rows, bounded tiles), in vector width,
//! in whether sparse data is staged through shared memory, and in whether
//! feature rows are read coalesced. [`row_warp_cost`] is the common cost
//! walk, so each baseline is exactly its published strategy; the floats of
//! all of them are [`crate::numerics::segment_sums`] with the tasks as
//! segments ([`crate::numerics::Cut::PerRow`]).

use hpsparse_sim::{GpuSim, KernelResources, LaunchConfig, LaunchReport};
use hpsparse_sparse::Csr;

/// One warp-sized unit of row work: elements `start..end` of `row`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowTask {
    /// Row index.
    pub row: u32,
    /// First element (CSR position).
    pub start: u32,
    /// One past the last element.
    pub end: u32,
    /// Whether this task covers the entire row (plain store) or a split
    /// segment (atomic add).
    pub whole_row: bool,
}

/// Builds one task per row, in the given processing order (or natural
/// order when `order` is `None`).
pub fn whole_row_tasks(csr: &Csr, order: Option<&[u32]>) -> Vec<RowTask> {
    let rows: Box<dyn Iterator<Item = u32>> = match order {
        Some(o) => Box::new(o.iter().copied()),
        None => Box::new(0..csr.rows() as u32),
    };
    rows.map(|r| {
        let range = csr.row_range(r as usize);
        RowTask {
            row: r,
            start: range.start as u32,
            end: range.end as u32,
            whole_row: true,
        }
    })
    .collect()
}

/// Builds tasks with rows longer than `max_len` split into segments.
pub fn split_row_tasks(csr: &Csr, max_len: usize) -> Vec<RowTask> {
    let mut tasks = Vec::with_capacity(csr.rows());
    for r in 0..csr.rows() {
        let range = csr.row_range(r);
        let len = range.len();
        if len <= max_len {
            tasks.push(RowTask {
                row: r as u32,
                start: range.start as u32,
                end: range.end as u32,
                whole_row: true,
            });
        } else {
            let mut s = range.start;
            while s < range.end {
                let e = (s + max_len).min(range.end);
                tasks.push(RowTask {
                    row: r as u32,
                    start: s as u32,
                    end: e as u32,
                    whole_row: false,
                });
                s = e;
            }
        }
    }
    tasks
}

/// Knobs distinguishing the row-oriented baselines.
#[derive(Debug, Clone)]
pub struct RowWarpSpec {
    /// Vector width for feature loads (and sparse loads when staged).
    pub vector_width: u32,
    /// Stage sparse tiles through shared memory (GE-SpMM's reuse).
    pub shared_tile: bool,
    /// Read feature rows as scattered per-lane gathers instead of one
    /// coalesced warp read (Row-split's uncoalesced access).
    pub gather_features: bool,
    /// Process elements in fixed tiles of this many elements; lanes beyond
    /// the row's real length are padding work (Sputnik's 1-D tile waste).
    pub element_tile: usize,
    /// Thread coarsening: each warp covers `32·vw·k_coarsen` feature
    /// columns via `k_coarsen` sequential loads per element (GE-SpMM's
    /// data-reuse scheme — fewer warps, heavier warps).
    pub k_coarsen: u32,
    /// Warps per block.
    pub warps_per_block: u32,
    /// Registers per thread.
    pub registers_per_thread: u32,
    /// Shared memory bytes per block.
    pub shared_mem_per_block: u32,
}

impl Default for RowWarpSpec {
    fn default() -> Self {
        Self {
            vector_width: 1,
            shared_tile: false,
            gather_features: false,
            element_tile: 32,
            k_coarsen: 1,
            warps_per_block: 8,
            registers_per_thread: 32,
            shared_mem_per_block: 0,
        }
    }
}

/// Cost walk of the row-oriented SpMM skeleton at feature width `k`: one
/// warp per [`RowTask`] per K-slice. `name` is the kernel name reported to
/// any attached access sink.
pub fn row_warp_cost(
    name: &str,
    sim: &mut GpuSim,
    csr: &Csr,
    k: usize,
    tasks: &[RowTask],
    spec: &RowWarpSpec,
) -> LaunchReport {
    let m = csr.rows();
    let nnz = csr.nnz();
    let vw = spec.vector_width;
    let coarsen = spec.k_coarsen.max(1) as usize;
    let k_cols_per_warp = 32 * vw as usize * coarsen;
    let k_slices = k.div_ceil(k_cols_per_warp) as u64;

    let off_buf = sim.alloc_input(m + 1, "row_offsets");
    let col_buf = sim.alloc_input(nnz, "col_ind");
    let val_buf = sim.alloc_input(nnz, "values");
    let a_buf = sim.alloc_input(csr.cols() * k, "A");
    let o_buf = sim.alloc_output(m * k, "O");

    let col_ind = csr.col_indices();
    let num_tasks = tasks.len() as u64;

    let resources = KernelResources {
        warps_per_block: spec.warps_per_block,
        registers_per_thread: spec.registers_per_thread,
        shared_mem_per_block: spec.shared_mem_per_block,
    };
    let launch = LaunchConfig {
        num_warps: num_tasks * k_slices,
        resources,
    };
    sim.launch_named(name, launch, |warp_id, tally| {
        let task = tasks[(warp_id % num_tasks.max(1)) as usize];
        let kslice = warp_id / num_tasks.max(1);
        let k_base = kslice as usize * k_cols_per_warp;
        let k_width = k_cols_per_warp.min(k - k_base);

        // Kernel prologue: index math and bounds checks.
        tally.compute(12);
        // Read the row bounds (two offsets).
        tally.global_read(off_buf.elem_addr(task.row as u64, 4), 8, 1);

        let start = task.start as usize;
        let end = task.end as usize;
        let len = end - start;
        // Padded element count for fixed-tile kernels.
        let padded = len.div_ceil(spec.element_tile.max(1)) * spec.element_tile.max(1);

        let mut i = start;
        while i < end {
            let tile_len = spec.element_tile.min(end - i).min(32 * vw as usize);
            // Sparse loads: ColInd and Value. Fixed-tile kernels
            // (element_tile > 32) fetch the whole aligned tile, padding
            // included — Sputnik's 1-D tile memory waste on short rows.
            let load_len = if spec.element_tile > 32 {
                spec.element_tile.min(nnz.saturating_sub(i)).max(tile_len)
            } else {
                tile_len
            };
            for buf in [&col_buf, &val_buf] {
                tally.global_read(buf.elem_addr(i as u64, 4), load_len as u64 * 4, vw);
            }
            if spec.shared_tile {
                tally.shared_op(2 + tile_len as u64);
            }
            if spec.gather_features {
                // Row-split's pattern: lane `l` owns element `i + l` and
                // loops over K serially, so at each step the warp's lanes
                // touch *different* feature rows — scattered transactions
                // instead of one coalesced row read. L1 absorbs part of
                // the per-lane serial walk (several consecutive 4-byte
                // touches land in the lane's current 32-byte sector), so
                // only every `L1_STRIDE`-th step reaches L2; the skipped
                // steps still cost issue slots.
                const L1_STRIDE: usize = 4;
                let steps = k_width.div_ceil(L1_STRIDE) as u64;
                tally.global_gather_stepped(
                    a_buf.elem_addr(0, 4),
                    &col_ind[i..i + tile_len],
                    k as u64,
                    k_base as u64,
                    L1_STRIDE as u64,
                    steps,
                    4,
                );
                tally.compute(steps * (L1_STRIDE - 1) as u64);
                tally.compute(tile_len as u64);
            } else {
                // With coarsening, the warp issues `k_coarsen`
                // back-to-back 32·vw-column loads per element.
                tally.gather_rows(
                    a_buf.elem_addr(0, 4),
                    &col_ind[i..i + tile_len],
                    k as u64,
                    k_base as u64,
                    k_width as u64,
                    32 * vw as u64,
                    vw,
                );
                tally.compute(tile_len as u64 * (vw as u64 * coarsen as u64 + 1));
            }
            i += tile_len;
        }
        // Padding lanes of fixed-tile kernels still burn issue slots.
        if padded > len {
            tally.compute(((padded - len) as u64) * (vw as u64 + 1));
        }

        let o_addr = o_buf.elem_addr((task.row as usize * k + k_base) as u64, 4);
        if task.whole_row {
            tally.global_write(o_addr, k_width as u64 * 4, vw);
        } else {
            tally.global_atomic(o_addr, k_width as u64 * 4);
        }
    })
}

/// Synthesises a [`LaunchReport`] for host-side preprocessing (sorting,
/// grouping, tiling passes executed on the CPU by the original
/// implementations). `ops × cycles_per_op` is expressed in GPU clocks so
/// all times in a run share one unit, as in the paper's Table IV.
pub fn host_pass_report(
    device: &hpsparse_sim::DeviceSpec,
    ops: u64,
    cycles_per_op: f64,
) -> LaunchReport {
    let cycles = (ops as f64 * cycles_per_op).ceil() as u64;
    LaunchReport {
        cycles,
        time_ms: device.cycles_to_ms(cycles),
        blocks: 0,
        warps: 0,
        num_waves: 0,
        full_wave_size: 0,
        active_blocks_per_sm: 0,
        warp_occupancy: 0.0,
        tail_utilization: 0.0,
        totals: Default::default(),
        l2_hit_rate: 0.0,
        max_warp_cycles: 0.0,
        mean_warp_cycles: 0.0,
        dram_bound_cycles: 0,
        schedule_cycles: cycles,
    }
}

/// Merges two launch reports into one (used when a preprocessing kernel is
/// inseparable from execution, as with cuSPARSE ALG3): cycles and counters
/// add; geometry fields keep the execution launch's values.
pub fn merge_reports(exec: &LaunchReport, extra: &LaunchReport) -> LaunchReport {
    let mut merged = exec.clone();
    merged.cycles += extra.cycles;
    merged.time_ms += extra.time_ms;
    merged.totals.add(&extra.totals);
    merged.dram_bound_cycles += extra.dram_bound_cycles;
    merged.schedule_cycles += extra.schedule_cycles;
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numerics::{segments, Cut};
    use hpsparse_sim::DeviceSpec;

    fn skewed_csr() -> Csr {
        // Row 0 long (16 elements), rows 1..4 short.
        let mut triplets = Vec::new();
        for c in 0..16 {
            triplets.push((0u32, c as u32, 1.0f32));
        }
        triplets.push((1, 0, 2.0));
        triplets.push((2, 5, 3.0));
        triplets.push((3, 9, 4.0));
        Csr::from_triplets(4, 16, &triplets).unwrap()
    }

    #[test]
    fn whole_row_tasks_cover_all_rows() {
        let csr = skewed_csr();
        let tasks = whole_row_tasks(&csr, None);
        assert_eq!(tasks.len(), 4);
        assert!(tasks.iter().all(|t| t.whole_row));
        assert_eq!(tasks[0].end - tasks[0].start, 16);
    }

    #[test]
    fn whole_row_tasks_respect_order() {
        let csr = skewed_csr();
        let order = [3u32, 2, 1, 0];
        let tasks = whole_row_tasks(&csr, Some(&order));
        assert_eq!(tasks[0].row, 3);
        assert_eq!(tasks[3].row, 0);
    }

    #[test]
    fn split_row_tasks_bound_segment_length() {
        let csr = skewed_csr();
        let tasks = split_row_tasks(&csr, 8);
        // Row 0 (16) splits in two; others whole.
        assert_eq!(tasks.len(), 5);
        let segs: Vec<_> = tasks.iter().filter(|t| t.row == 0).collect();
        assert_eq!(segs.len(), 2);
        assert!(segs.iter().all(|t| !t.whole_row));
        assert!(segs.iter().all(|t| (t.end - t.start) as usize <= 8));
        assert!(tasks.iter().filter(|t| t.row != 0).all(|t| t.whole_row));
    }

    #[test]
    fn skeleton_reports_work_under_every_spec() {
        let csr = skewed_csr();
        let mut sim = GpuSim::new(DeviceSpec::v100());
        for spec in [
            RowWarpSpec::default(),
            RowWarpSpec {
                vector_width: 2,
                shared_tile: true,
                ..Default::default()
            },
            RowWarpSpec {
                gather_features: true,
                ..Default::default()
            },
            RowWarpSpec {
                element_tile: 64,
                ..Default::default()
            },
        ] {
            let tasks = whole_row_tasks(&csr, None);
            let report = row_warp_cost("skeleton", &mut sim, &csr, 40, &tasks, &spec);
            assert!(report.cycles > 0, "spec {spec:?}");
        }
    }

    #[test]
    fn tasks_are_the_segments_of_their_cut() {
        // The accumulation order of a row-warp kernel is stated as a `Cut`,
        // its cost walk as a task list: they must describe one partition.
        let csr = skewed_csr();
        let hybrid = csr.to_hybrid();
        for max_len in [1, 4, 5, 16, usize::MAX] {
            let tasks: Vec<_> = split_row_tasks(&csr, max_len)
                .iter()
                .filter(|t| t.end > t.start)
                .map(|t| t.start as usize..t.end as usize)
                .collect();
            let segs: Vec<_> = segments(hybrid.row_indices(), Cut::PerRow(max_len)).collect();
            assert_eq!(tasks, segs, "max_len {max_len}");
        }
        let whole: Vec<_> = whole_row_tasks(&csr, None)
            .iter()
            .map(|t| t.start as usize..t.end as usize)
            .collect();
        let segs: Vec<_> = segments(hybrid.row_indices(), Cut::PerRow(usize::MAX)).collect();
        assert_eq!(whole, segs);
    }

    #[test]
    fn gather_costs_more_transactions_than_coalesced() {
        let csr = skewed_csr();
        let tasks = whole_row_tasks(&csr, None);
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let coalesced = row_warp_cost(
            "skeleton",
            &mut sim,
            &csr,
            64,
            &tasks,
            &RowWarpSpec::default(),
        );
        let mut sim2 = GpuSim::new(DeviceSpec::v100());
        let gathered = row_warp_cost(
            "skeleton",
            &mut sim2,
            &csr,
            64,
            &tasks,
            &RowWarpSpec {
                gather_features: true,
                ..Default::default()
            },
        );
        assert!(gathered.totals.transactions > coalesced.totals.transactions);
    }

    #[test]
    fn merge_reports_sums_costs() {
        let csr = skewed_csr();
        let tasks = whole_row_tasks(&csr, None);
        let mut sim = GpuSim::new(DeviceSpec::v100());
        let spec = RowWarpSpec::default();
        let r1 = row_warp_cost("skeleton", &mut sim, &csr, 8, &tasks, &spec);
        let r2 = row_warp_cost("skeleton", &mut sim, &csr, 8, &tasks, &spec);
        let merged = merge_reports(&r1, &r2);
        assert_eq!(merged.cycles, r1.cycles + r2.cycles);
        assert_eq!(
            merged.totals.instructions,
            r1.totals.instructions + r2.totals.instructions
        );
    }
}
