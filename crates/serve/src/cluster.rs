//! The multi-device layer: one autotuned backend per simulated GPU, shard
//! feature residency, and batch execution with halo gathers.
//!
//! A [`Cluster`] places the shards of a [`ShardPlan`] onto `num_devices`
//! simulated GPUs (`device = shard % num_devices`) and executes batches of
//! target rows through the shard-owning device's [`AutoBackend`]. Each
//! batch builds a **compact matrix**: target rows in request order,
//! columns compacted to first-appearance ids over the nodes the shard rows
//! reference, each row's entries stable-sorted by compact column. Because
//! shard rows preserve the global CSR's within-row order, the compact
//! matrix for a given `(shard, rows)` pair is bit-identical no matter how
//! many devices the cluster has — which is what makes a single-device
//! reference run reproduce sharded outputs byte for byte (halo exchange is
//! lossless by construction).
//!
//! Columns owned by a shard resident on a *different* device price an
//! interconnect transfer ([`TransferDescriptor`]) of the referenced
//! feature rows; columns on the same device gather locally for free.
//!
//! # Assembly cost and its contract
//!
//! The hybrid CSR/COO format exists so that kernels take what the
//! framework already holds with no conversion at run time (§II), and the
//! batch path honours that: its cost is the bytes it moves. Columns are
//! numbered through an epoch-stamped table over the shard's own column ids
//! (no hashing, nothing cleared between batches), the matrix is emitted
//! straight into the hybrid's three sorted arrays (rows arrive in order, so
//! there is no triplet list and no CSR detour; [`Hybrid::from_sorted_parts`]
//! still validates them), and the feature operand is one row copy per
//! compact column out of the caller's feature matrix, which the cluster
//! borrows rather than copies.
//!
//! The contract is equality, not closeness: for every `(shard, targets)`
//! the assembled `Hybrid` is `==`, and the gathered operand `to_bits`-equal,
//! to what the triplet list → `HashMap` → `Dense::from_fn` formulation
//! builds (kept as the test oracle below). Kernel choice, every output
//! bit, every transfer and every simulated cycle are functions of those
//! two values, so the lossless invariant above cannot tell the two
//! assemblies apart.

use crate::shard::ShardPlan;
use hpsparse_autotune::PlanStrategy;
use hpsparse_gnn::{AutoBackend, SparseBackend};
use hpsparse_sim::{DeviceSpec, GpuSim, LinkSpec, TransferDescriptor};
use hpsparse_sparse::{Dense, Graph, Hybrid};
use std::fmt;

/// One executed batch.
#[derive(Debug)]
pub struct BatchResult {
    /// Output embeddings; row `i` belongs to the `i`-th requested target.
    pub outputs: Dense,
    /// Simulated kernel cycles the batch occupied its device (launch
    /// overhead included).
    pub kernel_cycles: u64,
    /// Interconnect transfers feeding the batch's halo gather, one per
    /// remote source device, ascending by source.
    pub transfers: Vec<TransferDescriptor>,
    /// Distinct feature rows gathered from other devices.
    pub remote_rows: usize,
    /// Distinct columns referenced by the batch (matrix width).
    pub gathered_rows: usize,
}

/// Why [`Cluster::run_batch`] refused a batch, or
/// [`try_serve`](crate::try_serve) a request stream. Nothing was launched
/// and no device state changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchError {
    /// The plan has no shard with this index.
    UnknownShard {
        /// The shard index asked for.
        shard: usize,
    },
    /// A target names a node the shard plan does not contain.
    UnknownNode {
        /// The offending global node id.
        node: u32,
    },
    /// A target is owned by a shard other than the batch's.
    NotOwned {
        /// The offending global node id.
        node: u32,
        /// The shard the batch was submitted to.
        shard: usize,
    },
    /// A batch opened by an arrival would time out past the serving
    /// clock's horizon ([`crate::server::DEADLINE_HORIZON`]).
    DeadlineBeyondClock {
        /// The latest arrival cycle of the stream.
        arrival_cycle: u64,
        /// The batcher's wait.
        max_wait_cycles: u64,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::UnknownShard { shard } => write!(f, "the plan has no shard {shard}"),
            Self::UnknownNode { node } => write!(f, "node {node} is not in the shard plan"),
            Self::NotOwned { node, shard } => {
                write!(f, "node {node} is not owned by shard {shard}")
            }
            Self::DeadlineBeyondClock {
                arrival_cycle,
                max_wait_cycles,
            } => write!(
                f,
                "a batch opened at cycle {arrival_cycle} would time out {max_wait_cycles} \
                 cycles later, past the serving clock's horizon"
            ),
        }
    }
}

impl std::error::Error for BatchError {}

/// A batch's kernel operands and halo pricing, before execution.
#[derive(Debug)]
struct Assembled {
    /// The compact matrix: `targets.len()` rows, one column per distinct
    /// referenced node (at least one, so the kernel sees a valid shape).
    matrix: Hybrid,
    /// Feature row of each compact column (one zero row when there are
    /// none).
    gathered: Dense,
    transfers: Vec<TransferDescriptor>,
    remote_rows: usize,
    /// Distinct referenced nodes.
    width: usize,
}

/// Per-batch working storage, kept on the cluster so that a batch
/// allocates only what it hands to the kernel.
#[derive(Default)]
struct Scratch {
    /// `(stamp, slot)` per shard column id (`Shard::cols` value): `slot`
    /// is that column's compact id in the current batch iff
    /// `stamp == epoch`. Entries of earlier batches are never cleared —
    /// moving to the next epoch invalidates all of them at once.
    seen: Vec<(u32, u32)>,
    /// The current batch's stamp; never 0, the value `seen` starts with.
    epoch: u32,
    /// Local row id of each target.
    rows: Vec<u32>,
    /// Shard column id of each compact column, in first-appearance order.
    columns: Vec<u32>,
    /// One row's `(compact column, value)` pairs while it is being sorted.
    pairs: Vec<(u32, f32)>,
    /// Halo bytes per source device.
    bytes_from: Vec<u64>,
}

impl Scratch {
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // 2^32 batches on, the counter would revisit the stamps of
            // the first ones: forget every entry once and start over.
            self.seen.fill((0, 0));
            self.epoch = 1;
        }
    }
}

/// N simulated devices serving one sharded graph.
pub struct Cluster<'a> {
    plan: ShardPlan,
    backends: Vec<AutoBackend>,
    /// The caller's feature matrix, one row per global node id.
    features: &'a Dense,
    link: LinkSpec,
    num_devices: usize,
    feature_dim: usize,
    scratch: Scratch,
}

impl<'a> Cluster<'a> {
    /// Builds a cluster: shards `g` into `num_shards` parts, borrows
    /// `features` (row `v` is node `v`'s, read in place by every batch —
    /// the cluster keeps no copy), and boots one Heuristic-planning
    /// [`AutoBackend`] per device. The Heuristic strategy keeps planning a
    /// pure function of each batch's shape, so identical batches pick
    /// identical kernels on every device — a serving-latency *and* a
    /// reproducibility property. It also keeps the cluster's host state
    /// flat under traffic: a Heuristic plan is recomputed per batch, never
    /// stored, and the simulators keep no per-allocation record. What
    /// still grows is each simulator's address space (see [`GpuSim`]).
    pub fn new(
        g: &Graph,
        features: &'a Dense,
        num_shards: usize,
        num_devices: usize,
        device: DeviceSpec,
        link: LinkSpec,
    ) -> Self {
        assert_eq!(features.rows(), g.num_nodes(), "one feature row per node");
        assert!(num_devices >= 1, "need at least one device");
        let plan = ShardPlan::new(g, num_shards);
        Self::from_plan(plan, features, num_devices, device, link)
    }

    /// Builds a cluster over an existing shard plan (lets callers reuse
    /// one plan across device counts, e.g. the lossless check). Like
    /// [`Cluster::new`], it borrows `features` for its lifetime.
    pub fn from_plan(
        plan: ShardPlan,
        features: &'a Dense,
        num_devices: usize,
        device: DeviceSpec,
        link: LinkSpec,
    ) -> Self {
        assert!(num_devices >= 1, "need at least one device");
        assert_eq!(
            features.rows(),
            plan.assignment.len(),
            "one feature row per node in the shard plan"
        );
        let backends: Vec<AutoBackend> = (0..num_devices)
            .map(|d| {
                let mut b = AutoBackend::with_strategy(device.clone(), PlanStrategy::Heuristic);
                if let Some(sim) = b.sim_mut() {
                    sim.set_device_index(d as u32);
                }
                b
            })
            .collect();
        let widest = plan
            .shards
            .iter()
            .map(|s| s.num_owned() + s.num_halo())
            .max()
            .unwrap_or(0);
        Self {
            plan,
            backends,
            features,
            link,
            num_devices,
            feature_dim: features.cols(),
            scratch: Scratch {
                seen: vec![(0, 0); widest],
                ..Scratch::default()
            },
        }
    }

    /// The shard plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of simulated devices.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Feature width `K`.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// The interconnect link model.
    pub fn link(&self) -> &LinkSpec {
        &self.link
    }

    /// The device hosting `shard`.
    pub fn device_of(&self, shard: u32) -> u32 {
        shard % self.num_devices as u32
    }

    /// The backing simulator of device `d`, for attaching observers
    /// (sanitizer sinks, trace sessions).
    pub fn device_sim_mut(&mut self, d: usize) -> &mut GpuSim {
        self.backends[d].sim_mut().expect("auto backend has a sim")
    }

    /// Kernel cycles device `d` has accumulated so far.
    pub fn device_kernel_cycles(&self, d: usize) -> u64 {
        self.backends[d].sparse_cycles()
    }

    /// Executes one batch on `shard`'s device: `targets` are global node
    /// ids owned by `shard`, in request order (duplicates allowed; an
    /// empty list yields a `0 × K` output). A target the plan does not
    /// know, or one another shard owns, is an error and launches nothing.
    pub fn run_batch(&mut self, shard: usize, targets: &[u32]) -> Result<BatchResult, BatchError> {
        let Assembled {
            matrix,
            gathered,
            transfers,
            remote_rows,
            width,
        } = self.assemble(shard, targets)?;
        let backend = &mut self.backends[shard % self.num_devices];
        let before = backend.sparse_cycles();
        let outputs = backend.spmm(&matrix, &gathered);
        let kernel_cycles = backend.sparse_cycles() - before;
        Ok(BatchResult {
            outputs,
            kernel_cycles,
            transfers,
            remote_rows,
            gathered_rows: width,
        })
    }

    /// Builds the compact matrix and its gathered feature operand, and
    /// prices the cross-device part of the gather. Walking shard rows
    /// enumerates entries in global CSR order, so the result is independent
    /// of the device count (and of thread count — it is sequential).
    fn assemble(&mut self, shard: usize, targets: &[u32]) -> Result<Assembled, BatchError> {
        let (num_devices, k) = (self.num_devices, self.feature_dim);
        let Self {
            plan,
            features,
            scratch,
            ..
        } = self;
        let s = plan
            .shards
            .get(shard)
            .ok_or(BatchError::UnknownShard { shard })?;

        // The one pass over `targets`: check each, resolve its local row,
        // and size the matrix.
        scratch.rows.clear();
        let mut nnz = 0usize;
        for &t in targets {
            let owner = *plan
                .assignment
                .get(t as usize)
                .ok_or(BatchError::UnknownNode { node: t })?;
            if owner as usize != shard {
                return Err(BatchError::NotOwned { node: t, shard });
            }
            let r = plan.local_id[t as usize];
            nnz += s.row_range(r as usize).len();
            scratch.rows.push(r);
        }

        // Rows in target order; columns numbered at first appearance; each
        // row stable-sorted by compact column — `Csr::from_triplets`'
        // order, emitted directly.
        scratch.next_epoch();
        let Scratch {
            seen,
            epoch,
            rows,
            columns,
            pairs,
            bytes_from,
        } = scratch;
        columns.clear();
        let mut row_indices: Vec<u32> = Vec::with_capacity(nnz);
        let mut col_indices: Vec<u32> = Vec::with_capacity(nnz);
        let mut values: Vec<f32> = Vec::with_capacity(nnz);
        for (i, &r) in rows.iter().enumerate() {
            let entries = s.row_range(r as usize);
            let lo = col_indices.len();
            let (mut prev, mut sorted) = (0u32, true);
            for &col in &s.cols[entries.clone()] {
                let entry = &mut seen[col as usize];
                if entry.0 != *epoch {
                    *entry = (*epoch, columns.len() as u32);
                    columns.push(col);
                }
                let c = entry.1;
                sorted &= prev <= c;
                prev = c;
                col_indices.push(c);
            }
            values.extend_from_slice(&s.vals[entries]);
            row_indices.resize(col_indices.len(), i as u32);
            if !sorted {
                pairs.clear();
                pairs.extend(
                    col_indices[lo..]
                        .iter()
                        .copied()
                        .zip(values[lo..].iter().copied()),
                );
                pairs.sort_by_key(|&(c, _)| c);
                for (j, &(c, v)) in pairs.iter().enumerate() {
                    col_indices[lo + j] = c;
                    values[lo + j] = v;
                }
            }
        }
        let width = columns.len();
        let matrix = Hybrid::from_sorted_parts(
            targets.len(),
            width.max(1),
            row_indices,
            col_indices,
            values,
        )
        .expect("compact batch matrix");

        // Copy each referenced feature row out of the caller's matrix —
        // a local column is one of this shard's owned nodes, the halo map
        // names the rest — and price the rows another device owns as
        // interconnect transfers.
        let dst_device = shard % num_devices;
        bytes_from.clear();
        bytes_from.resize(num_devices, 0);
        let mut remote_rows = 0usize;
        let mut data: Vec<f32> = Vec::with_capacity(width.max(1) * k);
        for &col in columns.iter() {
            let (owner, global) = match (col as usize).checked_sub(s.num_owned()) {
                None => (shard, s.owned[col as usize]),
                Some(slot) => (s.halo[slot].owner as usize, s.halo[slot].global),
            };
            data.extend_from_slice(features.row(global as usize));
            let src_device = owner % num_devices;
            if src_device != dst_device {
                bytes_from[src_device] += 4 * k as u64;
                remote_rows += 1;
            }
        }
        data.resize(width.max(1) * k, 0.0);
        let gathered = Dense::from_vec(width.max(1), k, data).expect("one K-wide row per column");
        let transfers: Vec<TransferDescriptor> = bytes_from
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b > 0)
            .map(|(src, &bytes)| TransferDescriptor {
                src_device: src as u32,
                dst_device: dst_device as u32,
                bytes,
            })
            .collect();

        Ok(Assembled {
            matrix,
            gathered,
            transfers,
            remote_rows,
            width,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_datasets::generators::{GeneratorConfig, Topology};
    use proptest::prelude::*;
    use std::collections::HashMap;

    impl Cluster<'_> {
        /// The assembly as first written — a triplet list, a `HashMap` per
        /// batch and an element-wise gather through the global tables —
        /// kept as the reference [`Cluster::assemble`] must equal.
        fn assemble_oracle(&self, shard: usize, targets: &[u32]) -> Assembled {
            let s = &self.plan.shards[shard];
            let dst_device = self.device_of(shard as u32);
            let k = self.feature_dim;
            let mut compact_of: HashMap<u32, u32> = HashMap::new();
            let mut compact_global: Vec<u32> = Vec::new();
            let mut triplets: Vec<(u32, u32, f32)> = Vec::new();
            for (i, &t) in targets.iter().enumerate() {
                assert_eq!(self.plan.shard_of(t), shard as u32, "target not owned");
                let r = self.plan.local_id[t as usize] as usize;
                for e in s.row_range(r) {
                    let g = s.col_global(s.cols[e]);
                    let c = *compact_of.entry(g).or_insert_with(|| {
                        compact_global.push(g);
                        (compact_global.len() - 1) as u32
                    });
                    triplets.push((i as u32, c, s.vals[e]));
                }
            }
            let matrix =
                Hybrid::from_triplets(targets.len(), compact_global.len().max(1), &triplets)
                    .expect("compact batch matrix");
            let mut bytes_from: Vec<u64> = vec![0; self.num_devices];
            let mut remote_rows = 0usize;
            let gathered = Dense::from_fn(compact_global.len().max(1), k, |row, col| {
                if row >= compact_global.len() {
                    return 0.0;
                }
                self.features.get(compact_global[row] as usize, col)
            });
            for &g in &compact_global {
                let owner = self.plan.assignment[g as usize];
                let src_device = self.device_of(owner);
                if src_device != dst_device {
                    bytes_from[src_device as usize] += 4 * k as u64;
                    remote_rows += 1;
                }
            }
            let transfers: Vec<TransferDescriptor> = bytes_from
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b > 0)
                .map(|(src, &bytes)| TransferDescriptor {
                    src_device: src as u32,
                    dst_device,
                    bytes,
                })
                .collect();
            Assembled {
                matrix,
                gathered,
                transfers,
                remote_rows,
                width: compact_global.len(),
            }
        }
    }

    fn bits(d: &Dense) -> Vec<u32> {
        d.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `Hybrid ==` on the matrix (values included: the sort must carry each
    /// value with its column), `to_bits` on the operand, `==` on the rest.
    fn assert_same_assembly(new: &Assembled, old: &Assembled, what: &str) {
        assert_eq!(new.matrix, old.matrix, "{what}: matrix");
        let value_bits = |m: &Hybrid| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            value_bits(&new.matrix),
            value_bits(&old.matrix),
            "{what}: values"
        );
        assert_eq!(
            (new.gathered.rows(), new.gathered.cols()),
            (old.gathered.rows(), old.gathered.cols()),
            "{what}: operand shape"
        );
        assert_eq!(bits(&new.gathered), bits(&old.gathered), "{what}: operand");
        assert_eq!(new.transfers, old.transfers, "{what}: transfers");
        assert_eq!(new.remote_rows, old.remote_rows, "{what}: remote rows");
        assert_eq!(new.width, old.width, "{what}: width");
    }

    fn community(nodes: usize, edges: usize, seed: u64) -> Graph {
        GeneratorConfig {
            nodes,
            edges,
            topology: Topology::Community {
                communities: 8,
                p_in: 0.85,
                alpha: 2.1,
            },
            seed,
        }
        .generate()
    }

    fn graph() -> Graph {
        community(400, 4000, 23).with_self_loops().gcn_normalized()
    }

    fn features(g: &Graph, k: usize) -> Dense {
        Dense::from_fn(g.num_nodes(), k, |i, j| {
            ((i * 31 + j * 7) as f32 * 0.01).sin()
        })
    }

    #[test]
    fn batch_outputs_match_full_graph_spmm_rows() {
        let g = graph();
        let k = 16;
        let f = features(&g, k);
        let mut cluster = Cluster::new(&g, &f, 2, 2, DeviceSpec::v100(), LinkSpec::nvlink());
        // Full-graph reference through the CPU path.
        let full = hpsparse_sparse::reference::spmm(&g.to_hybrid(), &f).unwrap();
        let shard0_targets: Vec<u32> = cluster.plan().shards[0].owned[..8].to_vec();
        let res = cluster.run_batch(0, &shard0_targets).unwrap();
        assert!(res.kernel_cycles > 0);
        for (i, &t) in shard0_targets.iter().enumerate() {
            for c in 0..k {
                let got = res.outputs.get(i, c);
                let want = full.get(t as usize, c);
                assert!(
                    (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                    "row {t} col {c}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn cross_device_columns_price_transfers_and_local_ones_do_not() {
        let g = graph();
        let f = features(&g, 8);
        let plan = ShardPlan::new(&g, 2);
        // Two devices: shard 1's halo columns owned by shard 0 transfer.
        let mut two =
            Cluster::from_plan(plan.clone(), &f, 2, DeviceSpec::v100(), LinkSpec::nvlink());
        // Pick a shard-1 row with at least one halo column.
        let s1 = &two.plan().shards[1];
        let row = (0..s1.num_owned())
            .find(|&r| s1.row_range(r).any(|e| s1.cols[e] >= s1.num_owned() as u32))
            .expect("community graph has cut edges");
        let target = s1.owned[row];
        let res = two.run_batch(1, &[target]).unwrap();
        assert!(!res.transfers.is_empty());
        assert!(res.remote_rows > 0);
        assert_eq!(res.transfers[0].src_device, 0);
        assert_eq!(res.transfers[0].dst_device, 1);
        assert_eq!(
            res.transfers[0].bytes,
            res.remote_rows as u64 * 4 * two.feature_dim() as u64
        );

        // Same plan, one device: every gather is local.
        let mut one = Cluster::from_plan(plan, &f, 1, DeviceSpec::v100(), LinkSpec::nvlink());
        let res1 = one.run_batch(1, &[target]).unwrap();
        assert!(res1.transfers.is_empty());
        assert_eq!(res1.remote_rows, 0);
        // And the outputs are bit-identical: halo exchange is lossless.
        assert_eq!(bits(&res.outputs), bits(&res1.outputs));
    }

    #[test]
    fn sharded_execution_is_bitwise_equal_to_single_device() {
        let g = graph();
        let f = features(&g, 16);
        let plan = ShardPlan::new(&g, 4);
        let mut many =
            Cluster::from_plan(plan.clone(), &f, 4, DeviceSpec::v100(), LinkSpec::nvlink());
        let mut one = Cluster::from_plan(plan, &f, 1, DeviceSpec::v100(), LinkSpec::pcie());
        for shard in 0..4usize {
            let targets: Vec<u32> = many.plan().shards[shard]
                .owned
                .iter()
                .copied()
                .take(12)
                .collect();
            let a = many.run_batch(shard, &targets).unwrap();
            let b = one.run_batch(shard, &targets).unwrap();
            assert_eq!(bits(&a.outputs), bits(&b.outputs), "shard {shard}");
        }
    }

    // The four tests below hold in `--release` as well (CI runs both): the
    // ownership check is not a `debug_assert`, and the row copies are the
    // code that vectorises there.

    #[test]
    fn unknown_and_unowned_targets_are_typed_errors() {
        let g = graph();
        let f = features(&g, 8);
        let mut cluster = Cluster::new(&g, &f, 3, 2, DeviceSpec::v100(), LinkSpec::nvlink());
        let mine = cluster.plan().shards[0].owned[0];
        let theirs = cluster.plan().shards[1].owned[0];
        let beyond = g.num_nodes() as u32;
        for (shard, targets, want) in [
            (
                0,
                vec![mine, beyond],
                BatchError::UnknownNode { node: beyond },
            ),
            (
                0,
                vec![u32::MAX],
                BatchError::UnknownNode { node: u32::MAX },
            ),
            (
                0,
                vec![mine, theirs, beyond],
                BatchError::NotOwned {
                    node: theirs,
                    shard: 0,
                },
            ),
            (
                2,
                vec![mine],
                BatchError::NotOwned {
                    node: mine,
                    shard: 2,
                },
            ),
            (3, vec![], BatchError::UnknownShard { shard: 3 }),
        ] {
            let err = cluster.run_batch(shard, &targets).unwrap_err();
            assert_eq!(err, want);
            assert!(!err.to_string().is_empty());
        }
        // A refusal launches nothing and leaves the cluster usable.
        assert_eq!(cluster.device_kernel_cycles(0), 0);
        assert!(cluster.run_batch(0, &[mine]).is_ok());
    }

    #[test]
    fn empty_and_zero_degree_batches_run_on_the_zero_operand() {
        // No self loops and two edges a node: some rows have no entries.
        let g = community(300, 600, 5).gcn_normalized();
        let k = 8;
        let f = features(&g, k);
        let mut cluster = Cluster::new(&g, &f, 2, 2, DeviceSpec::v100(), LinkSpec::nvlink());
        let isolated = (0..g.num_nodes())
            .find(|&v| g.degree(v) == 0)
            .expect("a node without in-edges") as u32;
        let shard = cluster.plan().shard_of(isolated) as usize;

        // Zero columns: a 1 x 1 matrix without entries times one zero row.
        let a = cluster.assemble(shard, &[isolated, isolated]).unwrap();
        assert_eq!(
            (a.matrix.rows(), a.matrix.cols(), a.matrix.nnz()),
            (2, 1, 0)
        );
        assert_eq!((a.gathered.rows(), a.gathered.cols()), (1, k));
        assert_eq!(bits(&a.gathered), vec![0u32; k]);
        assert_same_assembly(
            &a,
            &cluster.assemble_oracle(shard, &[isolated, isolated]),
            "",
        );
        let res = cluster.run_batch(shard, &[isolated, isolated]).unwrap();
        assert_eq!((res.outputs.rows(), res.outputs.cols()), (2, k));
        assert_eq!(bits(&res.outputs), vec![0u32; 2 * k]);
        assert_eq!((res.gathered_rows, res.remote_rows), (0, 0));
        assert!(res.transfers.is_empty());

        // No targets at all: zero rows out.
        let a = cluster.assemble(shard, &[]).unwrap();
        assert_eq!(
            (a.matrix.rows(), a.matrix.cols(), a.matrix.nnz()),
            (0, 1, 0)
        );
        assert_same_assembly(&a, &cluster.assemble_oracle(shard, &[]), "");
        let res = cluster.run_batch(shard, &[]).unwrap();
        assert_eq!((res.outputs.rows(), res.outputs.cols()), (0, k));
    }

    /// Every gathered operand row is the caller's row of the node its
    /// compact column names, whether this shard owns that node or reads it
    /// through a halo slot.
    #[test]
    fn gathered_rows_are_the_callers_rows_for_owned_and_halo_columns() {
        let g = graph();
        let k = 5;
        let f = features(&g, k);
        let mut cluster = Cluster::new(&g, &f, 3, 2, DeviceSpec::v100(), LinkSpec::nvlink());
        let (mut owned_seen, mut halo_seen) = (0, 0);
        for shard in 0..3 {
            let targets = cluster.plan().shards[shard].owned.clone();
            let a = cluster.assemble(shard, &targets).unwrap();
            let s = &cluster.plan().shards[shard];
            // Compact ids are numbered at first appearance over the rows in
            // target order: the shard column behind each compact column.
            let mut columns: Vec<u32> = Vec::new();
            for &t in &targets {
                let r = cluster.plan().local_id[t as usize] as usize;
                for &col in &s.cols[s.row_range(r)] {
                    if !columns.contains(&col) {
                        columns.push(col);
                    }
                }
            }
            assert_eq!(columns.len(), a.width);
            for (c, &col) in columns.iter().enumerate() {
                let global = s.col_global(col);
                if (col as usize) < s.num_owned() {
                    owned_seen += 1;
                } else {
                    halo_seen += 1;
                }
                assert_eq!(
                    a.gathered.row(c),
                    f.row(global as usize),
                    "shard {shard} column {c} (node {global})"
                );
            }
        }
        assert!(
            owned_seen > 0 && halo_seen > 0,
            "{owned_seen} owned, {halo_seen} halo"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Consecutive batches on one cluster — duplicate targets, rows
        /// without entries, the empty list, and an epoch counter forced to
        /// wrap part-way — each assemble to exactly what the oracle builds:
        /// nothing a previous batch left in the table leaks into the next.
        #[test]
        fn assembly_equals_the_oracle_batch_after_batch(
            nodes in 50usize..601,
            shards in 1usize..6,
            seed in 0u64..1_000,
            batches in proptest::collection::vec(
                proptest::collection::vec(0u32..u32::MAX, 0..48),
                3..7,
            ),
            wrap_before in 1usize..7,
        ) {
            // Three edges a node and no self loops: some rows are empty.
            let g = community(nodes, nodes * 3, seed).gcn_normalized();
            let f = features(&g, 5);
            let devices = 1 + seed as usize % 3;
            let mut cluster =
                Cluster::new(&g, &f, shards, devices, DeviceSpec::v100(), LinkSpec::nvlink());
            for (b, picks) in batches.iter().enumerate() {
                if b == wrap_before {
                    // The next batch's stamp would be 0, then 1 again —
                    // the stamp batch 0 left all over the table.
                    cluster.scratch.epoch = u32::MAX;
                }
                let shard = picks
                    .first()
                    .map_or(0, |&p| p as usize % cluster.plan().num_shards);
                let owned = &cluster.plan().shards[shard].owned;
                let mut targets: Vec<u32> = picks
                    .iter()
                    .filter(|_| !owned.is_empty())
                    .map(|&p| owned[(p >> 3) as usize % owned.len()])
                    .collect();
                targets.extend(targets.first().copied());
                let old = cluster.assemble_oracle(shard, &targets);
                let new = cluster.assemble(shard, &targets).unwrap();
                assert_same_assembly(&new, &old, &format!("batch {b} on shard {shard}"));
            }
        }
    }
}
