//! hpsparse-serve: multi-GPU sharded GNN inference serving over the
//! cycle-level simulator.
//!
//! The crate stacks three layers:
//!
//! 1. [`shard`] — the shard planner: Louvain-community partitioning (via
//!    `hpsparse-reorder`) of a graph into per-device shards, each a CSR
//!    slice over its owned rows with a **halo map** naming the remote
//!    nodes its edges reference.
//! 2. [`cluster`] — the multi-device layer: one autotuned backend per
//!    simulated GPU plus an interconnect cost model (NVLink/PCIe) pricing
//!    halo feature exchange as [`hpsparse_sim::TransferDescriptor`]s.
//! 3. [`server`] — the async inference server: an open-loop request
//!    stream, a per-shard arrival-driven batcher, and a schedule that
//!    overlaps halo transfers with compute while tracking per-request
//!    latency.
//!
//! The load-bearing invariant, maintained across all three layers: batch
//! composition and batch-matrix assembly depend only on the shard plan
//! and the request stream — never on the device count — so a
//! single-device run of the same plan reproduces every sharded output
//! **bit for bit**. Halo exchange is lossless by construction, and the
//! test suite checks it at every layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod server;
pub mod shard;

pub use cluster::{BatchError, BatchResult, Cluster};
pub use server::{
    serve, synthetic_workload, try_serve, verify_lossless, BatcherConfig, DeviceStats, Request,
    ServeOutcome, ServeReport, WorkloadConfig,
};
pub use shard::{HaloRef, Shard, ShardPlan};
