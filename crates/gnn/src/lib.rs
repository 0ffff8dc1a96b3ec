//! Minimal GNN training substrate — the framework layer of Table V.
//!
//! The paper embeds its kernels into DGL and PyG and measures end-to-end
//! training time. This crate is the equivalent substrate: dense linear
//! algebra on rayon ([`linalg`]); a pluggable sparse backend that runs the
//! HP kernels, the cuSPARSE-style baselines or the autotuner's plan on the
//! simulator under one GPU-time accounting rule ([`backend`]); GCN
//! ([`gcn`]) and a graph transformer over batched sparse attention
//! ([`mha`], [`gat`]) with manual reverse-mode backpropagation; one
//! initialiser and one Adam for both ([`params`]); and one training loop
//! behind the full-graph and GraphSAINT entry points ([`train`]).
//!
//! Numerics always run on the CPU (real training, loss really decreases);
//! the backend simultaneously accounts the *simulated GPU cycles* each
//! operation would cost, which is what the Table V comparison reports.

#![forbid(unsafe_code)]

pub mod backend;
pub mod gat;
pub mod gcn;
pub mod linalg;
pub mod mha;
pub mod params;
pub mod train;

pub use backend::{
    dense_gemm_cycles, unfused_mha, AutoBackend, BaselineBackend, CpuBackend, HpBackend,
    SparseBackend,
};
pub use gcn::{Gcn, GcnConfig};
pub use mha::{
    GraphTransformer, MhaCache, SparseMha, TransformerAdam, TransformerConfig, TransformerGrads,
};
pub use params::{Adam, Model};
pub use train::{train_full_graph, train_graph_sampling, TrainConfig, TrainStats};
