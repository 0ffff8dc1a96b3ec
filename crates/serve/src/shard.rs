//! The shard planner: registry graphs split into per-device shards with
//! halo maps.
//!
//! A [`ShardPlan`] assigns every node to one shard via the Louvain-based
//! partitioner of `hpsparse-reorder` (degree-balanced fallback for
//! community-free graphs) and builds, per shard, a CSR slice of the rows
//! it owns. Row entries keep the **global CSR within-row order** — the
//! property the serving layer's byte-identity guarantee rests on: a batch
//! matrix assembled by walking shard rows enumerates exactly the same
//! `(row, column, value)` sequence as walking the full graph, so sharded
//! and single-device executions build bit-identical kernel inputs.
//!
//! Columns referencing nodes owned by *another* shard become **halo
//! slots**: shard-local ids `owned_len + slot` backed by the halo map,
//! which records which remote node each slot mirrors. At serve time the
//! halo map is what turns into interconnect transfers.

use hpsparse_reorder::{partition, PartitionConfig, PartitionMethod};
use hpsparse_sparse::Graph;

/// One remote node mirrored into a shard's halo region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloRef {
    /// Shard that owns the node.
    pub owner: u32,
    /// The node's local id inside its owner.
    pub owner_local: u32,
    /// The node's global id.
    pub global: u32,
}

/// One shard: the rows it owns as a CSR slice with mixed local/halo
/// columns.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Shard index.
    pub index: u32,
    /// Global ids of owned nodes, ascending; row `r` of this shard is
    /// global node `owned[r]`.
    pub owned: Vec<u32>,
    /// CSR row offsets over the owned rows (`owned.len() + 1` entries).
    pub row_offsets: Vec<u32>,
    /// Column ids per entry: `< owned.len()` is a local row id,
    /// `owned.len() + s` is halo slot `s`. Within-row order matches the
    /// global CSR (NOT sorted by this mixed id).
    pub cols: Vec<u32>,
    /// Edge values, aligned with `cols`.
    pub vals: Vec<f32>,
    /// Halo slots, ascending by global id.
    pub halo: Vec<HaloRef>,
}

impl Shard {
    /// Number of owned nodes (rows).
    pub fn num_owned(&self) -> usize {
        self.owned.len()
    }

    /// Number of halo slots (remote nodes referenced by owned rows).
    pub fn num_halo(&self) -> usize {
        self.halo.len()
    }

    /// Number of edges whose destination this shard owns.
    pub fn num_edges(&self) -> usize {
        self.cols.len()
    }

    /// Maps a mixed column id back to the global node id.
    pub fn col_global(&self, col: u32) -> u32 {
        let c = col as usize;
        if c < self.owned.len() {
            self.owned[c]
        } else {
            self.halo[c - self.owned.len()].global
        }
    }

    /// The entry range of local row `r` in `cols`/`vals`.
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.row_offsets[r] as usize..self.row_offsets[r + 1] as usize
    }
}

/// A complete sharding of one graph.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Number of shards.
    pub num_shards: usize,
    /// Owning shard of every global node.
    pub assignment: Vec<u32>,
    /// Local row id of every global node inside its owning shard.
    pub local_id: Vec<u32>,
    /// How the placement was produced.
    pub method: PartitionMethod,
    /// The shards.
    pub shards: Vec<Shard>,
}

impl ShardPlan {
    /// Builds a plan for `num_shards` shards with default partitioner
    /// settings. Zero shards asked for is one shard; more shards than
    /// nodes leaves the shards past the node count empty.
    pub fn new(g: &Graph, num_shards: usize) -> Self {
        Self::with_config(g, &PartitionConfig::for_parts(num_shards))
    }

    /// Builds a plan with explicit partitioner settings.
    pub fn with_config(g: &Graph, config: &PartitionConfig) -> Self {
        let placed = partition(g, config);
        let n = g.num_nodes();
        let num_shards = placed.num_parts;

        // Owned lists in ascending global order + local ids.
        let mut shards_owned: Vec<Vec<u32>> = vec![Vec::new(); num_shards];
        let mut local_id = vec![0u32; n];
        for (v, slot) in local_id.iter_mut().enumerate() {
            let s = placed.assignment[v] as usize;
            *slot = shards_owned[s].len() as u32;
            shards_owned[s].push(v as u32);
        }

        let adj = g.adjacency();
        let offs = adj.row_offsets();
        let cols_g = adj.col_indices();
        let vals_g = adj.values();

        // Halo slot of each remote column, valid for the shard being built:
        // every entry a shard reads was written for that shard.
        let mut slot_of = vec![0u32; n];
        let shards: Vec<Shard> = shards_owned
            .into_iter()
            .enumerate()
            .map(|(s, owned)| {
                let s32 = s as u32;
                // Pass 1: collect the distinct remote columns (ascending —
                // owned rows are visited in global order but the slot table
                // is rebuilt sorted, so the result is scan-order free).
                let mut remote: Vec<u32> = Vec::new();
                for &v in &owned {
                    let row = offs[v as usize] as usize..offs[v as usize + 1] as usize;
                    for &c in &cols_g[row] {
                        if placed.assignment[c as usize] != s32 {
                            remote.push(c);
                        }
                    }
                }
                remote.sort_unstable();
                remote.dedup();
                for (slot, &c) in remote.iter().enumerate() {
                    slot_of[c as usize] = slot as u32;
                }
                let halo: Vec<HaloRef> = remote
                    .iter()
                    .map(|&c| HaloRef {
                        owner: placed.assignment[c as usize],
                        owner_local: local_id[c as usize],
                        global: c,
                    })
                    .collect();

                // Pass 2: rows, preserving global within-row entry order.
                let owned_len = owned.len() as u32;
                let mut row_offsets = Vec::with_capacity(owned.len() + 1);
                let mut cols = Vec::new();
                let mut vals = Vec::new();
                row_offsets.push(0u32);
                for &v in &owned {
                    for e in offs[v as usize] as usize..offs[v as usize + 1] as usize {
                        let c = cols_g[e];
                        let mixed = if placed.assignment[c as usize] == s32 {
                            local_id[c as usize]
                        } else {
                            owned_len + slot_of[c as usize]
                        };
                        cols.push(mixed);
                        vals.push(vals_g[e]);
                    }
                    row_offsets.push(cols.len() as u32);
                }
                Shard {
                    index: s32,
                    owned,
                    row_offsets,
                    cols,
                    vals,
                    halo,
                }
            })
            .collect();

        ShardPlan {
            num_shards,
            assignment: placed.assignment,
            local_id,
            method: placed.method,
            shards,
        }
    }

    /// The shard owning global node `v`.
    pub fn shard_of(&self, v: u32) -> u32 {
        self.assignment[v as usize]
    }

    /// Total cross-shard (halo) slots over all shards.
    pub fn total_halo(&self) -> usize {
        self.shards.iter().map(|s| s.num_halo()).sum()
    }

    /// Total edges whose endpoints live on different shards.
    pub fn cut_edges(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let owned = s.owned.len() as u32;
                s.cols.iter().filter(|&&c| c >= owned).count()
            })
            .sum()
    }

    /// A canonical, complete textual encoding of the plan. Two plans are
    /// byte-identical exactly when their encodings are — the determinism
    /// tests compare this across processes and thread counts.
    pub fn canonical_encoding(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "shards={} method={:?}", self.num_shards, self.method);
        let _ = writeln!(
            out,
            "assignment={}",
            join_u32(self.assignment.iter().copied())
        );
        let _ = writeln!(out, "local={}", join_u32(self.local_id.iter().copied()));
        for s in &self.shards {
            let _ = writeln!(
                out,
                "shard {} owned={} halo={} edges={}",
                s.index,
                s.num_owned(),
                s.num_halo(),
                s.num_edges()
            );
            let _ = writeln!(out, "  owned={}", join_u32(s.owned.iter().copied()));
            let _ = writeln!(out, "  offs={}", join_u32(s.row_offsets.iter().copied()));
            let _ = writeln!(out, "  cols={}", join_u32(s.cols.iter().copied()));
            let _ = writeln!(
                out,
                "  vals={}",
                join_u32(s.vals.iter().map(|v| v.to_bits()))
            );
            let _ = writeln!(
                out,
                "  halo={}",
                s.halo
                    .iter()
                    .map(|h| format!("{}:{}:{}", h.owner, h.owner_local, h.global))
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        out
    }
}

fn join_u32(it: impl Iterator<Item = u32>) -> String {
    it.map(|v| v.to_string()).collect::<Vec<_>>().join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_datasets::generators::{GeneratorConfig, Topology};

    fn community_graph() -> Graph {
        GeneratorConfig {
            nodes: 600,
            edges: 6000,
            topology: Topology::Community {
                communities: 12,
                p_in: 0.85,
                alpha: 2.1,
            },
            seed: 17,
        }
        .generate()
    }

    #[test]
    fn every_edge_lands_in_exactly_one_shard_row() {
        let g = community_graph();
        let plan = ShardPlan::new(&g, 4);
        // Reconstruct the global triple list from the shards and compare
        // against the source CSR exactly.
        let mut rebuilt: Vec<(u32, u32, u32)> = Vec::new();
        for s in &plan.shards {
            for r in 0..s.num_owned() {
                let dst = s.owned[r];
                for e in s.row_range(r) {
                    rebuilt.push((dst, s.col_global(s.cols[e]), s.vals[e].to_bits()));
                }
            }
        }
        rebuilt.sort_unstable();
        let mut original: Vec<(u32, u32, u32)> = g
            .adjacency()
            .iter()
            .map(|(r, c, v)| (r, c, v.to_bits()))
            .collect();
        original.sort_unstable();
        assert_eq!(rebuilt, original);
    }

    #[test]
    fn halo_refs_are_remote_sorted_and_consistent() {
        let g = community_graph();
        let plan = ShardPlan::new(&g, 3);
        assert!(plan.total_halo() > 0, "community graph still cuts edges");
        for s in &plan.shards {
            for w in s.halo.windows(2) {
                assert!(w[0].global < w[1].global, "halo not ascending");
            }
            for h in &s.halo {
                assert_ne!(h.owner, s.index, "halo slot mirrors a local node");
                assert_eq!(plan.shard_of(h.global), h.owner);
                assert_eq!(plan.local_id[h.global as usize], h.owner_local);
                let owner = &plan.shards[h.owner as usize];
                assert_eq!(owner.owned[h.owner_local as usize], h.global);
            }
        }
    }

    #[test]
    fn rows_preserve_global_within_row_order() {
        let g = community_graph();
        let plan = ShardPlan::new(&g, 4);
        let adj = g.adjacency();
        for s in &plan.shards {
            for r in 0..s.num_owned() {
                let v = s.owned[r] as usize;
                let global_cols: Vec<u32> = adj.col_indices()[adj.row_range(v)].to_vec();
                let shard_cols: Vec<u32> =
                    s.row_range(r).map(|e| s.col_global(s.cols[e])).collect();
                assert_eq!(shard_cols, global_cols, "row {v} reordered");
            }
        }
    }

    #[test]
    fn single_shard_plan_is_the_identity() {
        let g = community_graph();
        let plan = ShardPlan::new(&g, 1);
        assert_eq!(plan.num_shards, 1);
        assert_eq!(plan.total_halo(), 0);
        assert_eq!(plan.cut_edges(), 0);
        let s = &plan.shards[0];
        assert_eq!(s.num_owned(), g.num_nodes());
        assert_eq!(s.owned, (0..g.num_nodes() as u32).collect::<Vec<_>>());
        assert_eq!(s.row_offsets, g.adjacency().row_offsets());
        assert_eq!(s.cols, g.adjacency().col_indices());
    }

    #[test]
    fn canonical_encoding_is_stable() {
        let g = community_graph();
        let a = ShardPlan::new(&g, 4).canonical_encoding();
        let b = ShardPlan::new(&g, 4).canonical_encoding();
        assert_eq!(a, b);
        assert!(a.starts_with("shards=4"));
    }
}
