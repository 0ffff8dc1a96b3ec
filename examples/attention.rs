//! Graph attention with SDDMM: one attention head scores every edge with a
//! query·key dot product, normalises with an edge softmax, and aggregates
//! with the attention-weighted SpMM — the kernel pipeline of GAT-style
//! models, which `HpBackend` runs as one fused HP-Fused-MHA launch.
//!
//! ```sh
//! cargo run --release --example attention
//! ```

use hpsparse::datasets::generators::{GeneratorConfig, Topology};
use hpsparse::gnn::backend::{HpBackend, SparseBackend};
use hpsparse::gnn::SparseMha;
use hpsparse::sim::DeviceSpec;
use hpsparse::sparse::Dense;

fn main() {
    let graph = GeneratorConfig {
        nodes: 8_000,
        edges: 90_000,
        topology: Topology::PowerLaw { alpha: 2.3 },
        seed: 13,
    }
    .generate()
    .with_self_loops();
    let s = graph.to_hybrid();
    let in_dim = 64;
    let head_dim = 32;
    let x = Dense::from_fn(s.rows(), in_dim, |i, j| ((i * 31 + j) as f32 * 1e-3).sin());

    // One-head attention: a single GAT-style layer.
    let layer = SparseMha::new(in_dim, head_dim, 1, 99);
    let mut backend = HpBackend::new(DeviceSpec::v100());
    let (out, cache) = layer.forward_cached(&mut backend, &s, &x);
    let weights = cache[0].weights();

    println!(
        "attention over {} edges -> {} x {} output",
        weights.len(),
        out.rows(),
        out.cols()
    );
    let device = backend.device();
    println!(
        "modelled GPU time: {:.3} ms = {:.3} ms fused attention + {:.3} ms Q/K/V projections",
        backend.total_ms(),
        device.cycles_to_ms(backend.sparse_cycles()),
        device.cycles_to_ms(backend.dense_cycles())
    );

    // Attention weights form a distribution per destination node.
    let mut row_sum = vec![0f32; s.rows()];
    for (i, &r) in s.row_indices().iter().enumerate() {
        row_sum[r as usize] += weights[i];
    }
    let worst = row_sum
        .iter()
        .filter(|&&v| v > 0.0)
        .map(|&v| (v - 1.0).abs())
        .fold(0.0f32, f32::max);
    assert!(worst < 1e-4, "edge-softmax row sum off by {worst}");
    println!("edge-softmax row sums within {worst:.2e} of 1.0 ✓");

    // Self-attention sanity: the most self-focused node.
    let (node, w) = s
        .row_indices()
        .iter()
        .zip(s.col_indices())
        .zip(weights)
        .filter(|((r, c), _)| r == c)
        .map(|((r, _), &w)| (*r, w))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("self-loops were added");
    assert!(w > 0.0 && w <= 1.0, "self-attention weight {w}");
    println!(
        "node {node} keeps {:.0}% of its attention on itself",
        w * 100.0
    );
}
