//! Quickstart: run HP-SpMM and HP-SDDMM on a small graph, on both the
//! simulated GPU (paper-shaped performance reports), then the CPU backend's
//! SpMM, which computes the same floats as the simulated cuSPARSE default.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hpsparse::datasets::generators::{GeneratorConfig, Topology};
use hpsparse::gnn::{CpuBackend, SparseBackend};
use hpsparse::kernels::baselines::CusparseCsrAlg2;
use hpsparse::kernels::hp::{HpSddmm, HpSpmm, SddmmKernel, SpmmKernel};
use hpsparse::sim::DeviceSpec;
use hpsparse::sparse::{reference, Dense};

fn main() {
    // A synthetic power-law graph standing in for a GNN adjacency.
    let graph = GeneratorConfig {
        nodes: 10_000,
        edges: 120_000,
        topology: Topology::PowerLaw { alpha: 2.2 },
        seed: 42,
    }
    .generate();
    let s = graph.to_hybrid();
    println!(
        "graph: {} nodes, {} edges (hybrid CSR/COO)",
        s.rows(),
        s.nnz()
    );

    // Feature matrix A (N x K).
    let k = 64;
    let a = Dense::from_fn(s.cols(), k, |i, j| ((i * k + j) as f32 * 1e-3).sin());

    // --- Simulated Tesla V100 ------------------------------------------
    let v100 = DeviceSpec::v100();
    let kernel = HpSpmm::auto(&v100, &s, k);
    println!(
        "\nDTP + HVMA picked NnzPerWarp = {}, vector width = {} (float{})",
        kernel.config.nnz_per_warp, kernel.config.vector_width, kernel.config.vector_width
    );
    let run = kernel.run(&v100, &s, &a).expect("valid operands");
    let r = &run.report;
    println!(
        "HP-SpMM on {}: {:.4} ms | {} blocks in {} waves | occupancy {:.0}% | \
         L2 hit rate {:.1}% | imbalance {:.2}",
        v100.name,
        r.time_ms,
        r.blocks,
        r.num_waves,
        r.warp_occupancy * 100.0,
        r.l2_hit_rate * 100.0,
        r.imbalance()
    );

    // The simulated kernel computes real numbers — verify against the
    // sequential reference (Algorithm 1 of the paper).
    let expected = reference::spmm(&s, &a).expect("valid operands");
    assert!(run.output.approx_eq(&expected, 1e-4, 1e-5));
    println!("output verified against the sequential reference ✓");

    // --- HP-SDDMM -------------------------------------------------------
    let a1 = Dense::from_fn(s.rows(), k, |i, j| ((i + j) as f32 * 1e-3).cos());
    let a2t = Dense::from_fn(s.cols(), k, |i, j| ((2 * i + j) as f32 * 1e-3).sin());
    let sddmm = HpSddmm::auto(&v100, &s, k);
    let sd_run = sddmm.run(&v100, &s, &a1, &a2t).expect("valid operands");
    println!(
        "\nHP-SDDMM on {}: {:.4} ms over {} edges",
        v100.name,
        sd_run.report.time_ms,
        sd_run.output_values.len()
    );

    // --- The same floats without the clock -----------------------------
    // `CpuBackend` is the framework-default backend minus the simulator: its
    // SpMM adds the floats in cuSPARSE CSR ALG2's order, bit for bit.
    let t0 = std::time::Instant::now();
    let cpu_out = CpuBackend::new().spmm(&s, &a);
    println!(
        "\nCpuBackend SpMM: {:.2} ms wall clock",
        t0.elapsed().as_secs_f64() * 1e3
    );
    let alg2 = CusparseCsrAlg2.run(&v100, &s, &a).expect("valid operands");
    let bits = |d: &Dense| d.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&cpu_out), bits(&alg2.output));
    println!("CPU output equals simulated cuSPARSE ALG2's bit for bit ✓");
}
