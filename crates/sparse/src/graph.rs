//! Graph view over sparse adjacency matrices.
//!
//! In GNN workloads the sparse matrix *is* the (possibly rectangular)
//! adjacency matrix of a graph: `M` destination nodes, `N` source nodes and
//! `NNZ` edges (Table I of the paper). This module provides the graph-level
//! operations the paper's pipeline needs: self-loop insertion, symmetric
//! normalisation (the `D^-1/2 (A+I) D^-1/2` of GCN), and permutation
//! (relabelling) used by Graph-Clustering-based Reordering.

use crate::csr::Csr;
use crate::error::check_shape;
use crate::hybrid::Hybrid;

/// A graph stored as a CSR adjacency matrix (row = destination node,
/// column = source node).
///
/// Each row is sorted by column, duplicates in their input order: every
/// constructor sorts its rows as [`Csr::from_triplets`] would, or derives
/// them from such a graph without reordering a row. The constructors that
/// skip the triplets, and Louvain's symmetrisation, rely on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    adj: Csr,
}

impl Graph {
    /// Builds a graph on `n` nodes from an edge list `(dst, src)`,
    /// all edge weights 1.0. Duplicate edges are kept.
    ///
    /// Equal to [`Csr::from_triplets`] on `(dst, src, 1.0)`: every value
    /// is 1.0, so any sort of a row's columns is the stable one, and a row
    /// that arrives sorted is left alone.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        check_shape(n, n).expect("edge indices must be < n");
        let mut row_offsets = vec![0u32; n + 1];
        for &(d, s) in edges {
            assert!(
                (d as usize) < n && (s as usize) < n,
                "edge indices must be < n"
            );
            row_offsets[d as usize + 1] += 1;
        }
        for i in 1..row_offsets.len() {
            row_offsets[i] += row_offsets[i - 1];
        }
        let mut cursor = row_offsets.clone();
        let mut col_indices = vec![0u32; edges.len()];
        for &(d, s) in edges {
            col_indices[cursor[d as usize] as usize] = s;
            cursor[d as usize] += 1;
        }
        for w in row_offsets.windows(2) {
            let row = &mut col_indices[w[0] as usize..w[1] as usize];
            if !row.is_sorted() {
                row.sort_unstable();
            }
        }
        let values = vec![1.0; edges.len()];
        Self {
            adj: Csr::from_valid_parts(n, n, row_offsets, col_indices, values),
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
    /// Each loop goes in at its sorted position in its row, where a rebuild
    /// from triplets would put it.
    ///
    /// Only valid for square adjacency matrices.
    pub fn with_self_loops(&self) -> Graph {
        assert_eq!(
            self.adj.rows(),
            self.adj.cols(),
            "self loops require a square adjacency matrix"
        );
        let n = self.num_nodes();
        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut col_indices = Vec::with_capacity(self.adj.nnz() + n);
        let mut values = Vec::with_capacity(self.adj.nnz() + n);
        row_offsets.push(0u32);
        for v in 0..n {
            let range = self.adj.row_range(v);
            let cols = &self.adj.col_indices()[range.clone()];
            let vals = &self.adj.values()[range];
            let at = cols.partition_point(|&c| c < v as u32);
            col_indices.extend_from_slice(&cols[..at]);
            values.extend_from_slice(&vals[..at]);
            if cols.get(at) != Some(&(v as u32)) {
                col_indices.push(v as u32);
                values.push(1.0);
            }
            col_indices.extend_from_slice(&cols[at..]);
            values.extend_from_slice(&vals[at..]);
            row_offsets.push(col_indices.len() as u32);
        }
        Graph {
            adj: Csr::from_valid_parts(n, n, row_offsets, col_indices, values),
        }
    }

    /// Symmetrically normalises edge weights:
    /// `w(u,v) <- w(u,v) / sqrt(deg(u) * deg(v))` — the GCN propagation
    /// weighting. Degrees are weighted row sums of the current matrix,
    /// added in `f64` in row order. The structure is kept as it is.
    pub fn gcn_normalized(&self) -> Graph {
        assert_eq!(
            self.adj.rows(),
            self.adj.cols(),
            "GCN normalisation requires a square adjacency matrix"
        );
        let n = self.num_nodes();
        let adj = &self.adj;
        let inv_sqrt: Vec<f64> = (0..n)
            .map(|r| {
                let mut d = 0f64;
                for &v in &adj.values()[adj.row_range(r)] {
                    d += v as f64;
                }
                if d > 0.0 {
                    1.0 / d.sqrt()
                } else {
                    0.0
                }
            })
            .collect();
        let mut values = Vec::with_capacity(adj.nnz());
        for (r, &inv_r) in inv_sqrt.iter().enumerate() {
            let range = adj.row_range(r);
            for (&c, &v) in adj.col_indices()[range.clone()]
                .iter()
                .zip(&adj.values()[range])
            {
                values.push((v as f64 * inv_r * inv_sqrt[c as usize]) as f32);
            }
        }
        Graph {
            adj: Csr::from_valid_parts(
                n,
                n,
                adj.row_offsets().to_vec(),
                adj.col_indices().to_vec(),
                values,
            ),
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
    use proptest::prelude::*;

    impl Graph {
        /// [`Graph::from_edges`] as first written, through triplets.
        fn from_edges_oracle(n: usize, edges: &[(u32, u32)]) -> Graph {
            let triplets: Vec<(u32, u32, f32)> = edges.iter().map(|&(d, s)| (d, s, 1.0)).collect();
            Graph {
                adj: Csr::from_triplets(n, n, &triplets).unwrap(),
            }
        }

        /// [`Graph::with_self_loops`] as first written — every entry plus
        /// the missing loops rebuilt through triplets — kept as the
        /// reference the in-place insertion must equal.
        fn with_self_loops_oracle(&self) -> Graph {
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

        /// [`Graph::gcn_normalized`] as first written, rebuilt through
        /// triplets.
        fn gcn_normalized_oracle(&self) -> Graph {
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
    }

    /// Everything about a graph, values by their bits.
    fn bits(g: &Graph) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let a = g.adjacency();
        (
            a.row_offsets().to_vec(),
            a.col_indices().to_vec(),
            a.values().iter().map(|v| v.to_bits()).collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Building from edges, inserting loops and normalising without
        /// triplets equal the triplet rebuilds bit for bit: on multigraphs with and without
        /// self loops (some duplicated), rows with no entries or zero
        /// degree, and zero, negative and tiny weights.
        #[test]
        fn loops_and_normalisation_equal_the_triplet_oracles(
            n in 0usize..40,
            raw in proptest::collection::vec((0u32..1_000, 0u32..1_000, 0u32..8), 0..160),
        ) {
            let weights = [1.0f32, 0.0, -1.0, 0.5, 3.25, -0.0, 1e-30, 7.0];
            let triplets: Vec<(u32, u32, f32)> = raw
                .iter()
                .filter(|_| n > 0)
                .map(|&(r, c, w)| (r % n as u32, c % n as u32, weights[w as usize]))
                .collect();
            let g = Graph {
                adj: Csr::from_triplets(n, n, &triplets).unwrap(),
            };
            let edges: Vec<(u32, u32)> = triplets.iter().map(|&(r, c, _)| (r, c)).collect();
            prop_assert_eq!(
                bits(&Graph::from_edges(n, &edges)),
                bits(&Graph::from_edges_oracle(n, &edges))
            );
            let looped = g.with_self_loops();
            prop_assert_eq!(bits(&looped), bits(&g.with_self_loops_oracle()));
            prop_assert_eq!(bits(&g.gcn_normalized()), bits(&g.gcn_normalized_oracle()));
            prop_assert_eq!(
                bits(&looped.gcn_normalized()),
                bits(&looped.gcn_normalized_oracle())
            );
        }
    }

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
