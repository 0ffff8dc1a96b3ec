//! Graph view over sparse adjacency matrices.
//!
//! In GNN workloads the sparse matrix *is* the (possibly rectangular)
//! adjacency matrix of a graph: `M` destination nodes, `N` source nodes and
//! `NNZ` edges (Table I of the paper). This module provides the graph-level
//! operations the paper's pipeline needs: self-loop insertion, symmetric
//! normalisation (the `D^-1/2 (A+I) D^-1/2` of GCN), and permutation
//! (relabelling) used by Graph-Clustering-based Reordering.

use crate::csr::Csr;
use crate::hybrid::Hybrid;

/// A graph stored as a CSR adjacency matrix (row = destination node,
/// column = source node).
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    adj: Csr,
}

impl Graph {
    /// Builds a graph on `n` nodes from an edge list `(dst, src)`,
    /// all edge weights 1.0. Duplicate edges are kept.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let triplets: Vec<(u32, u32, f32)> = edges.iter().map(|&(d, s)| (d, s, 1.0)).collect();
        Self {
            adj: Csr::from_triplets(n, n, &triplets).expect("edge indices must be < n"),
        }
    }

    /// Number of nodes (rows of the adjacency matrix).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.rows()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.nnz()
    }

    /// The adjacency matrix in CSR form.
    #[inline]
    pub fn adjacency(&self) -> &Csr {
        &self.adj
    }

    /// The adjacency matrix in the hybrid CSR/COO form the kernels consume.
    pub fn to_hybrid(&self) -> Hybrid {
        self.adj.to_hybrid()
    }

    /// In-degree (row length) of node `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.adj.row_len(v)
    }

    /// Neighbour (source) list of node `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj.col_indices()[self.adj.row_range(v)]
    }

    /// Adds a self-loop `(v, v)` with weight 1.0 to every node that lacks
    /// one. The paper assumes self-looped graphs throughout (§I, fn. 1).
    ///
    /// Only valid for square adjacency matrices.
    pub fn with_self_loops(&self) -> Graph {
        assert_eq!(
            self.adj.rows(),
            self.adj.cols(),
            "self loops require a square adjacency matrix"
        );
        let mut triplets: Vec<(u32, u32, f32)> = self.adj.iter().collect();
        for v in 0..self.num_nodes() {
            if !self.neighbors(v).contains(&(v as u32)) {
                triplets.push((v as u32, v as u32, 1.0));
            }
        }
        Graph {
            adj: Csr::from_triplets(self.adj.rows(), self.adj.cols(), &triplets).unwrap(),
        }
    }

    /// Symmetrically normalises edge weights:
    /// `w(u,v) <- w(u,v) / sqrt(deg(u) * deg(v))` — the GCN propagation
    /// weighting. Degrees are weighted row sums of the current matrix.
    pub fn gcn_normalized(&self) -> Graph {
        assert_eq!(
            self.adj.rows(),
            self.adj.cols(),
            "GCN normalisation requires a square adjacency matrix"
        );
        let n = self.num_nodes();
        let mut deg = vec![0f64; n];
        for (r, _c, v) in self.adj.iter() {
            deg[r as usize] += v as f64;
        }
        let inv_sqrt: Vec<f64> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let triplets: Vec<(u32, u32, f32)> = self
            .adj
            .iter()
            .map(|(r, c, v)| {
                (
                    r,
                    c,
                    (v as f64 * inv_sqrt[r as usize] * inv_sqrt[c as usize]) as f32,
                )
            })
            .collect();
        Graph {
            adj: Csr::from_triplets(n, n, &triplets).unwrap(),
        }
    }

    /// Relabels nodes: node `v` becomes `perm[v]`. `perm` must be a
    /// permutation of `0..n`. Both endpoints of every edge are remapped,
    /// which is exactly what GCR does after Louvain clustering (Fig. 8).
    pub fn permute(&self, perm: &[u32]) -> Graph {
        let n = self.num_nodes();
        assert_eq!(perm.len(), n, "permutation length must equal node count");
        assert_eq!(
            self.adj.rows(),
            self.adj.cols(),
            "permutation requires a square adjacency matrix"
        );
        debug_assert!(is_permutation(perm), "perm must be a bijection on 0..n");
        let triplets: Vec<(u32, u32, f32)> = self
            .adj
            .iter()
            .map(|(r, c, v)| (perm[r as usize], perm[c as usize], v))
            .collect();
        Graph {
            adj: Csr::from_triplets(n, n, &triplets).unwrap(),
        }
    }

    /// Extracts the node-induced subgraph on `nodes` (deduplicated order
    /// preserved); node `nodes[i]` becomes node `i`. This is the subgraph
    /// operator GraphSAINT-style samplers use.
    pub fn induced_subgraph(&self, nodes: &[u32]) -> Graph {
        let n = self.num_nodes();
        let mut remap = vec![u32::MAX; n];
        let mut kept = Vec::with_capacity(nodes.len());
        for &v in nodes {
            if remap[v as usize] == u32::MAX {
                remap[v as usize] = kept.len() as u32;
                kept.push(v);
            }
        }
        let mut triplets = Vec::new();
        for &v in &kept {
            let nv = remap[v as usize];
            for e in self.adj.row_range(v as usize) {
                let c = self.adj.col_indices()[e];
                let nc = remap[c as usize];
                if nc != u32::MAX {
                    triplets.push((nv, nc, self.adj.values()[e]));
                }
            }
        }
        Graph {
            adj: Csr::from_triplets(kept.len(), kept.len(), &triplets).unwrap(),
        }
    }
}

fn is_permutation(perm: &[u32]) -> bool {
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        if p as usize >= perm.len() || seen[p as usize] {
            return false;
        }
        seen[p as usize] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0-1-2-3 plus edge 0-2, directed both ways.
    fn sample_graph() -> Graph {
        Graph::from_edges(
            4,
            &[
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 3),
                (3, 2),
                (0, 2),
                (2, 0),
            ],
        )
    }

    #[test]
    fn basic_accessors() {
        let g = sample_graph();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn self_loops_added_once() {
        let g = sample_graph().with_self_loops();
        assert_eq!(g.num_edges(), 12);
        for v in 0..4 {
            assert!(g.neighbors(v).contains(&(v as u32)));
        }
        // Idempotent.
        assert_eq!(g.with_self_loops().num_edges(), 12);
    }

    #[test]
    fn gcn_normalization_row_sums() {
        let g = sample_graph().with_self_loops().gcn_normalized();
        // Every weight must be 1/sqrt(deg(u) deg(v)); degrees after loops:
        // node0: 3, node1: 3, node2: 4, node3: 2.
        let adj = g.adjacency();
        let w01 = adj
            .iter()
            .find(|&(r, c, _)| r == 0 && c == 1)
            .map(|(_, _, v)| v)
            .unwrap();
        assert!((w01 - 1.0 / (3.0f32 * 3.0).sqrt()).abs() < 1e-6);
        let w23 = adj
            .iter()
            .find(|&(r, c, _)| r == 2 && c == 3)
            .map(|(_, _, v)| v)
            .unwrap();
        assert!((w23 - 1.0 / (4.0f32 * 2.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn permute_preserves_structure() {
        let g = sample_graph();
        let perm = vec![3, 2, 1, 0];
        let p = g.permute(&perm);
        assert_eq!(p.num_edges(), g.num_edges());
        // Edge (0,1) becomes (3,2).
        assert!(p.neighbors(3).contains(&2));
        // Degrees are permuted.
        for (v, &pv) in perm.iter().enumerate() {
            assert_eq!(p.degree(pv as usize), g.degree(v));
        }
    }

    #[test]
    fn identity_permutation_is_noop() {
        let g = sample_graph();
        let p = g.permute(&[0, 1, 2, 3]);
        assert_eq!(p, g);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = sample_graph();
        let sub = g.induced_subgraph(&[0, 1, 2]);
        assert_eq!(sub.num_nodes(), 3);
        // Edges among {0,1,2}: 0-1, 1-0, 1-2, 2-1, 0-2, 2-0 => 6.
        assert_eq!(sub.num_edges(), 6);
        // Edge to node 3 dropped.
        assert!(!sub.neighbors(2).contains(&3));
    }

    #[test]
    fn induced_subgraph_dedups_nodes() {
        let g = sample_graph();
        let sub = g.induced_subgraph(&[2, 2, 3, 3]);
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(sub.num_edges(), 2); // 2-3 and 3-2
    }

    #[test]
    fn hybrid_conversion_matches_csr() {
        let g = sample_graph();
        let h = g.to_hybrid();
        assert_eq!(h.nnz(), g.num_edges());
        assert_eq!(h.to_csr(), *g.adjacency());
    }
}
