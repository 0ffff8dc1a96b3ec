//! Models of the (closed-source) cuSPARSE kernels the paper benchmarks:
//! CSR SpMM ALG2, CSR SpMM ALG3, COO SpMM ALG4, and the CSR SDDMM.
//!
//! cuSPARSE's sources are unavailable; these models follow the behaviour
//! the paper itself establishes through profiling: ALG2 is row-oriented
//! with long-row handling, ALG3 invokes an inseparable partition kernel to
//! balance load (§IV-A2: "We cannot exclude its time as it is an integral
//! part"), ALG4 is element-parallel over COO with atomic accumulation, and
//! the CSR SDDMM walks `A2` column-wise (`K × N` layout, §II's Algorithm 2
//! indexing), which is why the paper beats it by an order of magnitude.

use crate::baselines::common::{
    merge_reports, row_warp_cost, row_warp_symbolic_plan, split_row_tasks, RowTaskKind, RowWarpSpec,
};
use crate::numerics::{element_order, segment_sums, Cut};
use crate::traits::{KernelCost, SddmmKernel, SpmmKernel};
use hpsparse_sim::{
    Distinct, GpuSim, KernelResources, LaunchConfig, PlanBuilder, SymBufferRole, SymExpr,
    SymbolicPlan,
};
use hpsparse_sparse::{Dense, FormatError, Hybrid};

/// cuSPARSE CSR SpMM, algorithm 2: row-oriented warps with long rows split
/// at a fixed threshold, moderately vectorized feature loads.
#[derive(Debug, Clone, Copy, Default)]
pub struct CusparseCsrAlg2;

impl CusparseCsrAlg2 {
    /// Rows longer than this are split into atomic segments.
    const SPLIT: usize = 256;

    fn spec(vector_width: u32) -> RowWarpSpec {
        RowWarpSpec {
            vector_width,
            shared_tile: false,
            ..Default::default()
        }
    }
}

impl SpmmKernel for CusparseCsrAlg2 {
    fn name(&self) -> &'static str {
        "cuSPARSE(CSR,ALG2)"
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        let csr = s.to_csr();
        // Row-per-warp with long rows chunked: ALG2 still inherits the
        // bulk of the degree distribution but does not let one hub row
        // stall an entire wave.
        let tasks = split_row_tasks(&csr, Self::SPLIT);
        let spec = Self::spec(if k >= 64 { 2 } else { 1 });
        Ok(KernelCost {
            report: row_warp_cost(self.name(), sim, &csr, k, &tasks, &spec),
            preprocess: None,
        })
    }

    fn accumulate(&self, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
        segment_sums(s, a, Cut::PerRow(Self::SPLIT))
    }

    fn symbolic_plans(&self) -> Vec<SymbolicPlan> {
        // The vector width is chosen from the runtime K; verify both.
        [1, 2]
            .into_iter()
            .map(|vw| row_warp_symbolic_plan(self.name(), &Self::spec(vw), RowTaskKind::Split))
            .collect()
    }
}

/// cuSPARSE CSR SpMM, algorithm 3: balanced nnz chunks, preceded by a
/// partition kernel whose time is folded into the reported execution time
/// (matching the paper's measurement).
#[derive(Debug, Clone, Copy, Default)]
pub struct CusparseCsrAlg3;

impl SpmmKernel for CusparseCsrAlg3 {
    fn name(&self) -> &'static str {
        "cuSPARSE(CSR,ALG3)"
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        let nnz = s.nnz();
        let m = s.rows();
        // Partition kernel: one binary search over RowOffset per chunk.
        let chunk = 256usize;
        let chunks = nnz.div_ceil(chunk) as u64;
        let off_buf = sim.alloc_input(m + 1, "row_offsets");
        let part_buf = sim.alloc_scratch(chunks as usize, "partition");
        let log_m = (usize::BITS - m.max(2).leading_zeros()) as u64;
        let partition = sim.launch_named(
            "cuSPARSE(CSR,ALG3) partition",
            LaunchConfig {
                num_warps: chunks.div_ceil(32).max(1),
                resources: KernelResources {
                    warps_per_block: 8,
                    registers_per_thread: 24,
                    shared_mem_per_block: 0,
                },
            },
            |warp_id, tally| {
                // 32 lanes each binary-search log(M) offsets (scattered).
                for step in 0..log_m {
                    tally.global_gather(
                        (0..32u64).map(|lane| {
                            let probe =
                                ((warp_id * 32 + lane) * 7919 + step * 104729) % (m as u64 + 1);
                            off_buf.elem_addr(probe, 4)
                        }),
                        4,
                    );
                    tally.compute(2);
                }
                // The last warp's block of 32 partition entries may run
                // past `chunks`; clamp the store to the real extent.
                let first = warp_id * 32;
                let lanes = chunks.saturating_sub(first).min(32);
                tally.global_write(part_buf.elem_addr(first, 4), lanes * 4, 1);
            },
        );
        // Balanced execution over the partitioned chunks: each warp owns
        // one chunk but — lacking HP-SpMM's row-switch procedure —
        // accumulates into `O` with an atomic add per element, and reads
        // the per-chunk row bounds from the auxiliary array.
        let k_cols_per_warp = 32usize;
        let k_slices = k.div_ceil(k_cols_per_warp) as u64;

        let row_buf = sim.alloc_input(nnz, "row_ind");
        let col_buf = sim.alloc_input(nnz, "col_ind");
        let val_buf = sim.alloc_input(nnz, "values");
        let a_buf = sim.alloc_input(s.cols() * k, "A");
        let o_buf = sim.alloc_output(m * k, "O");

        let row_ind = s.row_indices();
        let col_ind = s.col_indices();

        let launch = LaunchConfig {
            num_warps: chunks * k_slices,
            resources: KernelResources {
                warps_per_block: 8,
                registers_per_thread: 40,
                shared_mem_per_block: 0,
            },
        };
        let exec = sim.launch_named(self.name(), launch, |warp_id, tally| {
            let chunk_id = warp_id % chunks.max(1);
            let kslice = warp_id / chunks.max(1);
            let start = chunk_id as usize * chunk;
            let end = (start + chunk).min(nnz);
            if start >= end {
                return;
            }
            let k_base = kslice as usize * k_cols_per_warp;
            let k_width = k_cols_per_warp.min(k - k_base);
            tally.compute(12);
            // Read this chunk's partition entry.
            tally.global_read(part_buf.elem_addr(chunk_id, 4), 4, 1);
            // ALG3 is cuSPARSE's fully general balanced path: sparse
            // metadata is consulted element by element (three separate
            // 4-byte reads), not staged in tiles — the generality tax on
            // top of the per-element atomics.
            for j in start..end {
                let r = row_ind[j] as usize;
                let c = col_ind[j] as usize;
                for buf in [&row_buf, &col_buf, &val_buf] {
                    tally.global_read(buf.elem_addr(j as u64, 4), 4, 1);
                }
                tally.global_read(
                    a_buf.elem_addr((c * k + k_base) as u64, 4),
                    k_width as u64 * 4,
                    1,
                );
                tally.compute(2);
                tally.global_atomic(
                    o_buf.elem_addr((r * k + k_base) as u64, 4),
                    k_width as u64 * 4,
                );
            }
        });
        Ok(KernelCost {
            report: merge_reports(&exec, &partition),
            preprocess: None,
        })
    }

    fn accumulate(&self, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
        element_order(s, a)
    }

    fn symbolic_plans(&self) -> Vec<SymbolicPlan> {
        let mut b = PlanBuilder::new(self.name(), "chunk=256");
        let m = b.param("m", 1);
        let n = b.param("n", 1);
        let nnz = b.param("nnz", 1);
        let k = b.param("k", 1);
        // Binary-search depth over the row offsets. Only the probe target
        // matters for safety, so the depth stays a free parameter.
        let log_m = b.param("log_m", 1);
        let chunks = nnz.clone().ceil_div(256);
        let off_buf = b.buffer(
            "row_offsets",
            SymBufferRole::Input,
            m.clone() + SymExpr::Const(1),
        );
        let part_buf = b.buffer("partition", SymBufferRole::Scratch, chunks.clone());
        let row_buf = b.buffer("row_ind", SymBufferRole::Input, nnz.clone());
        let col_buf = b.buffer("col_ind", SymBufferRole::Input, nnz.clone());
        let val_buf = b.buffer("values", SymBufferRole::Input, nnz.clone());
        let a_buf = b.buffer("A", SymBufferRole::Input, n.clone() * k.clone());
        let o_buf = b.buffer("O", SymBufferRole::Output, m.clone() * k.clone());

        let mut l = b.launch("partition");
        let w = l.axis("w", chunks.clone().ceil_div(32));
        l.begin_for("step", log_m);
        let probe = l.data("probe", SymExpr::Const(0), m.clone(), Distinct::No, 0);
        l.read(off_buf, probe, 1);
        l.end_for();
        // The last warp's store is clamped to the real extent.
        let first = w * SymExpr::Const(32);
        l.write(
            part_buf,
            first.clone(),
            SymExpr::Const(32).min(chunks.clone() - first),
        );
        l.done();

        let mut l = b.launch("exec");
        let chunk = l.axis("chunk", chunks.clone());
        let kslice = l.axis("kslice", k.clone().ceil_div(32));
        let k_base = kslice * SymExpr::Const(32);
        let k_width = SymExpr::Const(32).min(k.clone() - k_base.clone());
        l.read(part_buf, chunk.clone(), 1);
        let start = chunk * SymExpr::Const(256);
        let tile_len = SymExpr::Const(256).min(nnz - start.clone());
        let j = l.begin_for("j", tile_len);
        let e = start + j;
        l.read(row_buf, e.clone(), 1);
        l.read(col_buf, e.clone(), 1);
        l.read(val_buf, e, 1);
        let c = l.data(
            "c",
            SymExpr::Const(0),
            n - SymExpr::Const(1),
            Distinct::No,
            0,
        );
        l.read(a_buf, c * k.clone() + k_base.clone(), k_width.clone());
        let r = l.data(
            "r",
            SymExpr::Const(0),
            m - SymExpr::Const(1),
            Distinct::No,
            0,
        );
        l.atomic(o_buf, r * k + k_base, k_width);
        l.end_for();
        l.done();
        vec![b.build()]
    }
}

/// cuSPARSE COO SpMM, algorithm 4: element-parallel warps over the COO
/// arrays with an atomic accumulation into `O` per element (no row-switch
/// tracking, hence far more atomic traffic than HP-SpMM).
#[derive(Debug, Clone, Copy, Default)]
pub struct CusparseCooAlg4;

impl SpmmKernel for CusparseCooAlg4 {
    fn name(&self) -> &'static str {
        "cuSPARSE(COO,ALG4)"
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        let m = s.rows();
        let nnz = s.nnz();
        let k_cols_per_warp = 32usize;
        let k_slices = k.div_ceil(k_cols_per_warp) as u64;
        let chunks = nnz.div_ceil(32) as u64;

        let row_buf = sim.alloc_input(nnz, "row_ind");
        let col_buf = sim.alloc_input(nnz, "col_ind");
        let val_buf = sim.alloc_input(nnz, "values");
        let a_buf = sim.alloc_input(s.cols() * k, "A");
        let o_buf = sim.alloc_output(m * k, "O");

        let row_ind = s.row_indices();
        let col_ind = s.col_indices();

        let launch = LaunchConfig {
            num_warps: chunks * k_slices,
            resources: KernelResources {
                warps_per_block: 8,
                registers_per_thread: 28,
                shared_mem_per_block: 0,
            },
        };
        let report = sim.launch_named(self.name(), launch, |warp_id, tally| {
            let chunk = warp_id % chunks.max(1);
            let kslice = warp_id / chunks.max(1);
            let start = chunk as usize * 32;
            let end = (start + 32).min(nnz);
            if start >= end {
                return;
            }
            let k_base = kslice as usize * k_cols_per_warp;
            let k_width = k_cols_per_warp.min(k - k_base);
            tally.compute(12);
            let tile_len = end - start;
            for buf in [&row_buf, &col_buf, &val_buf] {
                tally.global_read(buf.elem_addr(start as u64, 4), tile_len as u64 * 4, 1);
            }
            for j in start..end {
                let r = row_ind[j] as usize;
                let c = col_ind[j] as usize;
                tally.global_read(
                    a_buf.elem_addr((c * k + k_base) as u64, 4),
                    k_width as u64 * 4,
                    1,
                );
                tally.compute(2);
                // Atomic add per element — the cost HP-SpMM's row-switch
                // procedure avoids.
                tally.global_atomic(
                    o_buf.elem_addr((r * k + k_base) as u64, 4),
                    k_width as u64 * 4,
                );
            }
        });
        Ok(KernelCost {
            report,
            preprocess: None,
        })
    }

    fn accumulate(&self, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
        element_order(s, a)
    }

    fn symbolic_plans(&self) -> Vec<SymbolicPlan> {
        let mut b = PlanBuilder::new(self.name(), "tile=32");
        let m = b.param("m", 1);
        let n = b.param("n", 1);
        let nnz = b.param("nnz", 1);
        let k = b.param("k", 1);
        let chunks = nnz.clone().ceil_div(32);
        let row_buf = b.buffer("row_ind", SymBufferRole::Input, nnz.clone());
        let col_buf = b.buffer("col_ind", SymBufferRole::Input, nnz.clone());
        let val_buf = b.buffer("values", SymBufferRole::Input, nnz.clone());
        let a_buf = b.buffer("A", SymBufferRole::Input, n.clone() * k.clone());
        let o_buf = b.buffer("O", SymBufferRole::Output, m.clone() * k.clone());

        let mut l = b.launch(self.name());
        let chunk = l.axis("chunk", chunks);
        let kslice = l.axis("kslice", k.clone().ceil_div(32));
        let k_base = kslice * SymExpr::Const(32);
        let k_width = SymExpr::Const(32).min(k.clone() - k_base.clone());
        let start = chunk * SymExpr::Const(32);
        let tile_len = SymExpr::Const(32).min(nnz - start.clone());
        l.read(row_buf, start.clone(), tile_len.clone());
        l.read(col_buf, start.clone(), tile_len.clone());
        l.read(val_buf, start, tile_len.clone());
        l.begin_for("j", tile_len);
        let c = l.data(
            "c",
            SymExpr::Const(0),
            n - SymExpr::Const(1),
            Distinct::No,
            0,
        );
        l.read(a_buf, c * k.clone() + k_base.clone(), k_width.clone());
        let r = l.data(
            "r",
            SymExpr::Const(0),
            m - SymExpr::Const(1),
            Distinct::No,
            0,
        );
        l.atomic(o_buf, r * k + k_base, k_width);
        l.end_for();
        l.done();
        vec![b.build()]
    }
}

/// cuSPARSE CSR SDDMM (default algorithm): row-oriented warps; `A2` is
/// stored `K × N` row-major, so reading "column c" is a K-long strided
/// gather — the memory pattern responsible for the paper's 10.9× average
/// speedup over this kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct CusparseCsrSddmm;

impl SddmmKernel for CusparseCsrSddmm {
    fn name(&self) -> &'static str {
        "cuSPARSE(CSR,DEFAULT)"
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        let n = s.cols();
        let nnz = s.nnz();
        let csr = s.to_csr();
        let m = csr.rows();

        let off_buf = sim.alloc_input(m + 1, "row_offsets");
        let col_buf = sim.alloc_input(nnz, "col_ind");
        let val_buf = sim.alloc_input(nnz, "values");
        let a1_buf = sim.alloc_input(m * k, "A1");
        // A2 in its native K x N layout (not transposed).
        let a2_buf = sim.alloc_input(k * n, "A2");
        let so_buf = sim.alloc_output(nnz, "S_O");

        let col_ind = csr.col_indices();
        // SDDMM outputs are per-element, so long rows can be split across
        // warps with no write conflicts — the kernel's cost is the strided
        // column traffic, not hub imbalance.
        let tasks = crate::baselines::common::split_row_tasks(&csr, 256);
        let num_tasks = tasks.len() as u64;

        let launch = LaunchConfig {
            num_warps: num_tasks.max(1),
            resources: KernelResources {
                warps_per_block: 8,
                registers_per_thread: 32,
                shared_mem_per_block: 0,
            },
        };
        let report = sim.launch_named(self.name(), launch, |warp_id, tally| {
            if warp_id >= num_tasks {
                return;
            }
            let task = tasks[warp_id as usize];
            let r = task.row as usize;
            tally.compute(12);
            tally.global_read(off_buf.elem_addr(r as u64, 4), 8, 1);
            let (start, end) = (task.start as usize, task.end as usize);
            if start >= end {
                return;
            }
            // A1[r] loaded once per segment, coalesced.
            tally.global_read(a1_buf.elem_addr((r * k) as u64, 4), k as u64 * 4, 1);
            let mut i = start;
            while i < end {
                let tile_len = 32.min(end - i);
                for buf in [&col_buf, &val_buf] {
                    tally.global_read(buf.elem_addr(i as u64, 4), tile_len as u64 * 4, 1);
                }
                // Each lane owns one element of the tile and the warp
                // sweeps K together: at step kk the lanes read
                // `A2[kk][c_lane]` — a strided gather whose transactions
                // coalesce only when sorted-adjacent columns share a
                // 32-byte sector (`K × N` layout, the kernel's bottleneck).
                tally.global_gather_stepped(
                    a2_buf.elem_addr(0, 4),
                    &col_ind[i..i + tile_len],
                    1,
                    0,
                    n as u64,
                    k as u64,
                    4,
                );
                tally.compute(k as u64);
                for j in i..i + tile_len {
                    tally.shuffle_reduce(32);
                    tally.global_write(so_buf.elem_addr(j as u64, 4), 4, 1);
                }
                i += tile_len;
            }
        });
        Ok(KernelCost {
            report,
            preprocess: None,
        })
    }

    fn symbolic_plans(&self) -> Vec<SymbolicPlan> {
        let mut b = PlanBuilder::new(self.name(), "split=256");
        let m = b.param("m", 1);
        let n = b.param("n", 1);
        let nnz = b.param("nnz", 1);
        let k = b.param("k", 1);
        // Task count depends on the row-length distribution; default to
        // one whole-row task per row for the evaluator.
        let num_tasks = b.param_with_default("num_tasks", 1, m.clone());
        let off_buf = b.buffer(
            "row_offsets",
            SymBufferRole::Input,
            m.clone() + SymExpr::Const(1),
        );
        let col_buf = b.buffer("col_ind", SymBufferRole::Input, nnz.clone());
        let val_buf = b.buffer("values", SymBufferRole::Input, nnz.clone());
        let a1_buf = b.buffer("A1", SymBufferRole::Input, m.clone() * k.clone());
        let a2_buf = b.buffer("A2", SymBufferRole::Input, k.clone() * n.clone());
        let so_buf = b.buffer("S_O", SymBufferRole::Output, nnz.clone());

        let mut l = b.launch(self.name());
        let task = l.axis("task", num_tasks);
        let row = l.data(
            "row",
            SymExpr::Const(0),
            m - SymExpr::Const(1),
            Distinct::No,
            0,
        );
        l.read(off_buf, row.clone(), 2);
        l.read(a1_buf, row * k.clone(), k.clone());
        let seg_start = l.data("seg_start", SymExpr::Const(0), nnz.clone(), Distinct::No, 0);
        let seg_len = l.data(
            "seg_len",
            SymExpr::Const(0),
            nnz - seg_start.clone(),
            Distinct::No,
            0,
        );
        let t = l.begin_for("t", seg_len.clone().ceil_div(32));
        let i = seg_start + t.clone() * SymExpr::Const(32);
        let tile_len = SymExpr::Const(32).min(seg_len - t * SymExpr::Const(32));
        l.read(col_buf, i.clone(), tile_len.clone());
        l.read(val_buf, i.clone(), tile_len.clone());
        // The K-step column gather: at step s the lanes read A2[s][c].
        let s = l.begin_for("s", k.clone());
        let c = l.data(
            "c",
            SymExpr::Const(0),
            n.clone() - SymExpr::Const(1),
            Distinct::No,
            0,
        );
        l.read(a2_buf, c + s * n, 1);
        l.end_for();
        // Per-element outputs: split_row_tasks hands each task a disjoint
        // element segment, so the task axis owns its stores.
        let j = l.begin_for("j", tile_len);
        l.write_excl(so_buf, i + j, 1, task.clone());
        l.end_for();
        l.end_for();
        l.done();
        vec![b.build()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hp::sddmm::HpSddmm;
    use hpsparse_sim::DeviceSpec;
    use hpsparse_sparse::reference;

    fn fig2() -> Hybrid {
        Hybrid::from_sorted_parts(
            4,
            4,
            vec![0, 0, 1, 2, 2, 2, 3],
            vec![0, 2, 1, 0, 2, 3, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
        )
        .unwrap()
    }

    #[test]
    fn all_spmm_baselines_match_reference() {
        let s = fig2();
        let a = Dense::from_fn(4, 48, |i, j| ((i * 48 + j) as f32 * 0.03).sin());
        let expected = reference::spmm(&s, &a).unwrap();
        let v100 = DeviceSpec::v100();
        let kernels: Vec<Box<dyn SpmmKernel>> = vec![
            Box::new(CusparseCsrAlg2),
            Box::new(CusparseCsrAlg3),
            Box::new(CusparseCooAlg4),
        ];
        for kernel in kernels {
            let run = kernel.run(&v100, &s, &a).unwrap();
            assert!(
                run.output.approx_eq(&expected, 1e-5, 1e-6),
                "{} mismatch",
                kernel.name()
            );
            assert!(run.report.cycles > 0);
        }
    }

    #[test]
    fn csr_sddmm_matches_reference() {
        let s = fig2();
        let a1 = Dense::from_fn(4, 16, |i, j| ((i + j) as f32).sin());
        let a2t = Dense::from_fn(4, 16, |i, j| ((2 * i + j) as f32).cos());
        let expected = reference::sddmm_transposed(&s, &a1, &a2t).unwrap();
        let v100 = DeviceSpec::v100();
        let run = CusparseCsrSddmm.run(&v100, &s, &a1, &a2t).unwrap();
        for (i, (x, y)) in run.output_values.iter().zip(&expected).enumerate() {
            assert!((x - y).abs() < 1e-4, "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn alg4_pays_more_atomics_than_hp() {
        let s = fig2();
        let a = Dense::from_fn(4, 32, |i, j| (i + j) as f32);
        let v100 = DeviceSpec::v100();
        let coo = CusparseCooAlg4.run(&v100, &s, &a).unwrap();
        let hp = crate::hp::spmm::HpSpmm::auto(&v100, &s, 32)
            .run(&v100, &s, &a)
            .unwrap();
        assert!(coo.report.totals.atomics > hp.report.totals.atomics);
    }

    #[test]
    fn csr_sddmm_traffic_dwarfs_hp_sddmm() {
        // Build a mid-sized graph so the strided column reads dominate.
        let triplets: Vec<(u32, u32, f32)> = (0..2000u32)
            .map(|i| (i % 200, (i * 7) % 500, 1.0))
            .collect();
        let s = Hybrid::from_triplets(200, 500, &triplets).unwrap();
        let a1 = Dense::from_fn(200, 64, |i, j| (i + j) as f32);
        let a2t = Dense::from_fn(500, 64, |i, j| (i * 2 + j) as f32);
        let v100 = DeviceSpec::v100();
        let cus = CusparseCsrSddmm.run(&v100, &s, &a1, &a2t).unwrap();
        let hp = HpSddmm::auto(&v100, &s, 64)
            .run(&v100, &s, &a1, &a2t)
            .unwrap();
        assert!(
            cus.report.totals.transactions > 3 * hp.report.totals.transactions,
            "cusparse {} vs hp {}",
            cus.report.totals.transactions,
            hp.report.totals.transactions
        );
        // And both still agree numerically.
        for (x, y) in cus.output_values.iter().zip(&hp.output_values) {
            assert!((x - y).abs() < 1e-3 * x.abs().max(1.0));
        }
    }

    #[test]
    fn alg3_includes_partition_cost() {
        let s = fig2();
        let a = Dense::from_fn(4, 32, |i, j| (i + j) as f32);
        let v100 = DeviceSpec::v100();
        let alg3 = CusparseCsrAlg3.run(&v100, &s, &a).unwrap();
        // The partition kernel's instructions are folded in, so ALG3 must
        // report strictly more instructions than a bare HP run at the same
        // chunking.
        let bare = crate::hp::spmm::HpSpmm::new(crate::hp::config::HpConfig {
            nnz_per_warp: 256,
            vector_width: 1,
            warps_per_block: 8,
            alpha: 1.0,
        })
        .run(&v100, &s, &a)
        .unwrap();
        assert!(alg3.report.totals.instructions > bare.report.totals.instructions);
        assert!(alg3.preprocess.is_none(), "partition is inseparable");
    }
}
