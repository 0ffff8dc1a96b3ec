//! GNNAdvisor-style reordering (Wang et al., OSDI'21 — reference 35 of the paper).
//!
//! GNNAdvisor relabels nodes with a lightweight community-aware scheme
//! (Rabbit-order-inspired): breadth-first exploration from high-degree
//! seeds groups tightly connected nodes into consecutive id ranges without
//! full modularity optimisation. Cheaper than pair merging, slower and less
//! precise than GCR's Louvain clustering in the paper's §IV-D measurement
//! (the §IV-D row of `repro scorecard`).

use crate::gcr::Reordered;
use hpsparse_sparse::Graph;

/// Runs the BFS-from-hubs reordering.
pub fn advisor_reorder(g: &Graph) -> Reordered {
    let t0 = std::time::Instant::now();
    let n = g.num_nodes();
    // Seeds: nodes in descending degree order.
    let mut seeds: Vec<u32> = (0..n as u32).collect();
    seeds.sort_by_key(|&v| std::cmp::Reverse(g.degree(v as usize)));

    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    let mut clusters = 0usize;
    for &seed in &seeds {
        if visited[seed as usize] {
            continue;
        }
        clusters += 1;
        visited[seed as usize] = true;
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            // Visit neighbours in *similarity* order: neighbours sharing
            // more links with v first. GNNAdvisor approximates this with
            // degree-descending neighbour traversal.
            let mut nbrs: Vec<u32> = g.neighbors(v as usize).to_vec();
            nbrs.sort_by_key(|&u| std::cmp::Reverse(g.degree(u as usize)));
            for u in nbrs {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    let mut perm = vec![0u32; n];
    for (new_id, &old) in order.iter().enumerate() {
        perm[old as usize] = new_id as u32;
    }
    let graph = g.permute(&perm);
    Reordered {
        graph,
        perm,
        num_communities: clusters,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locality::avg_neighbor_distance;

    #[test]
    fn produces_valid_permutation_and_preserves_structure() {
        let edges: Vec<(u32, u32)> = (0..300u32)
            .map(|i| (i % 60, (i * 11) % 60))
            .filter(|(a, b)| a != b)
            .collect();
        let g = Graph::from_edges(60, &edges);
        let r = advisor_reorder(&g);
        let mut seen = [false; 60];
        for &p in &r.perm {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&x| x));
        assert_eq!(r.graph.num_edges(), g.num_edges());
    }

    #[test]
    fn bfs_grouping_improves_interleaved_layout() {
        let mut edges = Vec::new();
        // Two communities with interleaved ids.
        for i in (0..80u32).step_by(2) {
            edges.push((i, (i + 2) % 80));
            edges.push(((i + 2) % 80, i));
            edges.push((i, (i + 4) % 80));
        }
        for i in (1..80u32).step_by(2) {
            edges.push((i, (i + 2) % 80));
            edges.push(((i + 2) % 80, i));
        }
        let g = Graph::from_edges(80, &edges);
        let r = advisor_reorder(&g);
        assert!(avg_neighbor_distance(&r.graph) < avg_neighbor_distance(&g));
    }

    #[test]
    fn isolated_nodes_each_form_a_cluster() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 0)]);
        let r = advisor_reorder(&g);
        // Nodes 2 and 3 are isolated: clusters = 1 (component {0,1}) + 2.
        assert_eq!(r.num_communities, 3);
    }
}
