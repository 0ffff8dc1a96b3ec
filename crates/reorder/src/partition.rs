//! Graph partitioning for multi-device sharding.
//!
//! Where [`crate::gcr`] uses Louvain communities to relabel a graph for
//! cache locality on *one* device, this module uses the same communities
//! to split a graph across *several*: communities become the unit of
//! placement (cross-community edges are rare by construction, so shard
//! boundaries cut few edges), bin-packed onto devices by weight. Graphs
//! whose community structure is unusable for balanced placement — fewer
//! communities than devices, or one community dominating — fall back to
//! contiguous degree-balanced ranges, which guarantees balance at the cost
//! of more cut edges.
//!
//! The node weight is `degree + 1`: a shard's compute cost in the serving
//! layer scales with the edges it owns (SpMM rows) plus a per-node term
//! (dense update), so balancing on weighted degree balances device load,
//! not just node counts.

use crate::louvain::{louvain, LouvainConfig};
use hpsparse_sparse::Graph;

/// Tuning knobs for [`partition`].
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Number of parts (devices) to split into.
    pub num_parts: usize,
    /// Community-detection settings for the Louvain attempt.
    pub louvain: LouvainConfig,
    /// Maximum tolerated `heaviest part / mean part` weight ratio for the
    /// community-based placement; above it the planner falls back to
    /// degree-balanced ranges.
    pub max_imbalance: f64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self {
            num_parts: 2,
            louvain: LouvainConfig::default(),
            max_imbalance: 1.5,
        }
    }
}

impl PartitionConfig {
    /// A default configuration for `num_parts` devices.
    pub fn for_parts(num_parts: usize) -> Self {
        Self {
            num_parts,
            ..Self::default()
        }
    }
}

/// How the placement was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionMethod {
    /// Louvain communities bin-packed onto parts.
    Communities,
    /// Contiguous node ranges with balanced weighted degree (fallback).
    DegreeBalanced,
}

/// A placement of every node onto one of `num_parts` parts.
#[derive(Debug, Clone)]
pub struct GraphPartition {
    /// Part id of every node, each in `0..num_parts`.
    pub assignment: Vec<u32>,
    /// Number of parts.
    pub num_parts: usize,
    /// How the placement was produced.
    pub method: PartitionMethod,
    /// Total node weight (`degree + 1`) per part.
    pub part_weights: Vec<u64>,
}

impl GraphPartition {
    /// `heaviest part / mean part` weight ratio (1.0 = perfectly even).
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.part_weights.iter().sum();
        let max = self.part_weights.iter().copied().max().unwrap_or(0);
        if total == 0 {
            return 1.0;
        }
        max as f64 * self.num_parts as f64 / total as f64
    }
}

fn node_weight(g: &Graph, v: usize) -> u64 {
    g.degree(v) as u64 + 1
}

/// Splits `g` into `config.num_parts` parts.
///
/// Deterministic: the Louvain solver is sequential and the bin-packing
/// below breaks ties by id, so identical graphs always produce identical
/// assignments (the serving layer's byte-identity guarantee starts here).
pub fn partition(g: &Graph, config: &PartitionConfig) -> GraphPartition {
    let n = g.num_nodes();
    let num_parts = config.num_parts.max(1);
    if num_parts == 1 || n <= num_parts {
        // Degenerate shapes: everything on part 0, or one node per part.
        let assignment: Vec<u32> = (0..n).map(|v| (v % num_parts) as u32).collect();
        return finish(g, assignment, num_parts, PartitionMethod::DegreeBalanced);
    }

    let communities = louvain(g, config.louvain);
    if communities.num_communities >= num_parts {
        let assignment = pack_communities(
            g,
            &communities.community,
            communities.num_communities,
            num_parts,
        );
        let placed = finish(g, assignment, num_parts, PartitionMethod::Communities);
        if placed.imbalance() <= config.max_imbalance && placed.part_weights.iter().all(|&w| w > 0)
        {
            return placed;
        }
    }
    let assignment = degree_balanced(g, num_parts);
    finish(g, assignment, num_parts, PartitionMethod::DegreeBalanced)
}

/// Greedy bin-packing: communities sorted by (weight desc, id asc), each
/// placed on the currently lightest part (lowest index on ties).
fn pack_communities(
    g: &Graph,
    community: &[u32],
    num_communities: usize,
    num_parts: usize,
) -> Vec<u32> {
    let mut com_weight = vec![0u64; num_communities];
    for v in 0..g.num_nodes() {
        com_weight[community[v] as usize] += node_weight(g, v);
    }
    let mut order: Vec<u32> = (0..num_communities as u32).collect();
    order.sort_by_key(|&c| (std::cmp::Reverse(com_weight[c as usize]), c));
    let mut part_of_com = vec![0u32; num_communities];
    let mut part_weight = vec![0u64; num_parts];
    for &c in &order {
        let lightest = (0..num_parts).min_by_key(|&p| (part_weight[p], p)).unwrap();
        part_of_com[c as usize] = lightest as u32;
        part_weight[lightest] += com_weight[c as usize];
    }
    community.iter().map(|&c| part_of_com[c as usize]).collect()
}

/// Contiguous ranges in node order with balanced cumulative weight; every
/// part is guaranteed at least one node.
fn degree_balanced(g: &Graph, num_parts: usize) -> Vec<u32> {
    let n = g.num_nodes();
    let total: u64 = (0..n).map(|v| node_weight(g, v)).sum();
    let mut assignment = vec![0u32; n];
    let mut part = 0usize;
    let mut cum = 0u64;
    for (v, slot) in assignment.iter_mut().enumerate() {
        // Close the current range once its weight share is met, but leave
        // enough nodes for the remaining parts.
        let target = total * (part as u64 + 1) / num_parts as u64;
        let must_advance = n - v == num_parts - part;
        if part + 1 < num_parts && (must_advance || cum >= target) {
            part += 1;
        }
        *slot = part as u32;
        cum += node_weight(g, v);
    }
    assignment
}

fn finish(
    g: &Graph,
    assignment: Vec<u32>,
    num_parts: usize,
    method: PartitionMethod,
) -> GraphPartition {
    let mut part_weights = vec![0u64; num_parts];
    for (v, &p) in assignment.iter().enumerate() {
        part_weights[p as usize] += node_weight(g, v);
    }
    GraphPartition {
        assignment,
        num_parts,
        method,
        part_weights,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `k` dense clusters of `size` nodes with one bridge edge between
    /// consecutive clusters.
    fn clustered(k: usize, size: usize) -> Graph {
        let mut edges = Vec::new();
        for c in 0..k {
            let base = (c * size) as u32;
            for i in 0..size as u32 {
                for j in (i + 1)..size as u32 {
                    edges.push((base + i, base + j));
                    edges.push((base + j, base + i));
                }
            }
            if c + 1 < k {
                let next = ((c + 1) * size) as u32;
                edges.push((base, next));
                edges.push((next, base));
            }
        }
        Graph::from_edges(k * size, &edges)
    }

    #[test]
    fn clustered_graph_partitions_along_communities() {
        let g = clustered(4, 12);
        let p = partition(&g, &PartitionConfig::for_parts(4));
        assert_eq!(p.method, PartitionMethod::Communities);
        assert_eq!(p.num_parts, 4);
        // Each cluster stays whole: all its nodes share one part.
        for c in 0..4 {
            let parts: std::collections::BTreeSet<u32> =
                (0..12).map(|i| p.assignment[c * 12 + i]).collect();
            assert_eq!(parts.len(), 1, "cluster {c} split across parts");
        }
        assert!(p.imbalance() <= 1.5);
        assert!(p.part_weights.iter().all(|&w| w > 0));
    }

    #[test]
    fn community_free_graph_falls_back_to_degree_balance() {
        // A star: one community, no usable structure for 2 parts.
        let hub_edges: Vec<(u32, u32)> = (1..40u32).flat_map(|v| [(0, v), (v, 0)]).collect();
        let g = Graph::from_edges(40, &hub_edges);
        let p = partition(&g, &PartitionConfig::for_parts(2));
        assert_eq!(p.method, PartitionMethod::DegreeBalanced);
        assert!(p.part_weights.iter().all(|&w| w > 0));
        // Contiguous ranges: assignment is monotone.
        for w in p.assignment.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn imbalanced_communities_trigger_the_fallback() {
        // One giant clique + one pair: community placement would put ~all
        // weight on one device.
        let mut edges = Vec::new();
        for i in 0..30u32 {
            for j in (i + 1)..30 {
                edges.push((i, j));
                edges.push((j, i));
            }
        }
        edges.push((30, 31));
        edges.push((31, 30));
        let g = Graph::from_edges(32, &edges);
        let p = partition(&g, &PartitionConfig::for_parts(2));
        assert_eq!(p.method, PartitionMethod::DegreeBalanced);
        assert!(p.imbalance() < 2.0);
    }

    #[test]
    fn every_node_lands_in_a_valid_part() {
        let g = clustered(3, 7);
        for parts in [1usize, 2, 3, 5] {
            let p = partition(&g, &PartitionConfig::for_parts(parts));
            assert_eq!(p.assignment.len(), g.num_nodes());
            assert!(p.assignment.iter().all(|&a| (a as usize) < parts));
            assert_eq!(p.part_weights.len(), parts);
            let total: u64 = p.part_weights.iter().sum();
            assert_eq!(
                total,
                (0..g.num_nodes())
                    .map(|v| g.degree(v) as u64 + 1)
                    .sum::<u64>()
            );
        }
    }

    #[test]
    fn more_parts_than_nodes_round_robins() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0)]);
        let p = partition(&g, &PartitionConfig::for_parts(8));
        assert_eq!(p.assignment, vec![0, 1, 2]);
    }

    #[test]
    fn identical_inputs_give_identical_partitions() {
        let g = clustered(4, 9);
        let a = partition(&g, &PartitionConfig::for_parts(4));
        let b = partition(&g, &PartitionConfig::for_parts(4));
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.part_weights, b.part_weights);
        assert_eq!(a.method, b.method);
    }
}
