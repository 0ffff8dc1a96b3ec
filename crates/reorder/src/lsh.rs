//! Huang et al.'s locality reordering: LSH bucketing with Jaccard
//! similarity and greedy pair merging (§III-C cites it as the
//! time-consuming alternative GCR replaces; the paper's runtimes are the
//! §IV-D row of `repro scorecard`).
//!
//! Nodes are MinHash-signed over their neighbour sets, bucketed by
//! signature band, and each bucket is ordered by greedy
//! highest-Jaccard-first chaining — the pair-merging step whose quadratic
//! bucket cost and sequential nature make the approach hard to scale or
//! parallelise.

use crate::gcr::Reordered;
use hpsparse_sparse::Graph;

/// Number of MinHash functions per signature.
const NUM_HASHES: usize = 4;

/// Cheap deterministic hash family.
fn hash(seed: u64, x: u64) -> u64 {
    let mut h = x.wrapping_add(seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 29;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 32;
    h
}

/// MinHash signature of a neighbour set.
fn signature(nbrs: &[u32]) -> [u64; NUM_HASHES] {
    let mut sig = [u64::MAX; NUM_HASHES];
    for &u in nbrs {
        for (i, slot) in sig.iter_mut().enumerate() {
            let h = hash(i as u64 * 1_000_003 + 7, u as u64);
            if h < *slot {
                *slot = h;
            }
        }
    }
    sig
}

/// Exact Jaccard similarity of two sorted neighbour lists.
fn jaccard(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter as f64 / (a.len() + b.len() - inter) as f64
}

/// Runs the LSH + pair-merging reordering. `max_bucket` caps the quadratic
/// merge cost per bucket (the original has no such cap, which is why it
/// takes hours on large graphs; the cap keeps tests finite while retaining
/// the algorithm's shape — §IV-D runs measure this implementation).
pub fn lsh_pair_merge_reorder(g: &Graph, max_bucket: usize) -> Reordered {
    let t0 = std::time::Instant::now();
    let n = g.num_nodes();
    // Signatures.
    let sigs: Vec<[u64; NUM_HASHES]> = (0..n).map(|v| signature(g.neighbors(v))).collect();
    // Bucket by the first two hash values (one LSH band).
    let mut buckets: std::collections::HashMap<(u64, u64), Vec<u32>> =
        std::collections::HashMap::new();
    for (v, sig) in sigs.iter().enumerate() {
        let key = (sig[0], sig[1]);
        buckets.entry(key).or_default().push(v as u32);
    }
    let mut keys: Vec<(u64, u64)> = buckets.keys().copied().collect();
    keys.sort_unstable();

    let mut order: Vec<u32> = Vec::with_capacity(n);
    for key in keys {
        let bucket = &buckets[&key];
        for chunk in bucket.chunks(max_bucket.max(2)) {
            order.extend(greedy_chain(g, chunk));
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
        num_communities: buckets.len(),
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Greedy pair merging inside a bucket: start from the first node, then
/// repeatedly append the unvisited node with the highest Jaccard
/// similarity to the last appended one. O(b²) similarity evaluations.
fn greedy_chain(g: &Graph, bucket: &[u32]) -> Vec<u32> {
    let mut remaining: Vec<u32> = bucket.to_vec();
    let mut chain = Vec::with_capacity(bucket.len());
    let mut cur = remaining.remove(0);
    chain.push(cur);
    while !remaining.is_empty() {
        let cur_nbrs = g.neighbors(cur as usize);
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, &cand)| (i, jaccard(cur_nbrs, g.neighbors(cand as usize))))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        cur = remaining.swap_remove(best_idx);
        chain.push(cur);
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locality::avg_neighbor_distance;

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(jaccard(&[1, 2], &[3, 4]), 0.0);
        assert!((jaccard(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&[], &[]), 0.0);
    }

    #[test]
    fn identical_neighbor_sets_share_signatures() {
        let g = Graph::from_edges(6, &[(0, 2), (0, 3), (1, 2), (1, 3), (4, 5), (5, 4)]);
        assert_eq!(signature(g.neighbors(0)), signature(g.neighbors(1)));
        assert_ne!(signature(g.neighbors(0)), signature(g.neighbors(4)));
    }

    #[test]
    fn produces_valid_permutation() {
        let edges: Vec<(u32, u32)> = (0..200u32).map(|i| (i % 50, (i * 7) % 50)).collect();
        let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(a, b)| a != b).collect();
        let g = Graph::from_edges(50, &edges);
        let r = lsh_pair_merge_reorder(&g, 64);
        let mut seen = [false; 50];
        for &p in &r.perm {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        assert_eq!(r.graph.num_edges(), g.num_edges());
    }

    #[test]
    fn improves_locality_on_interleaved_clusters() {
        // Even/odd interleaved bipartite-ish clusters.
        let mut edges = Vec::new();
        for i in (0..60u32).step_by(2) {
            for j in (0..60u32).step_by(2) {
                if i != j && (i + j) % 8 < 4 {
                    edges.push((i, j));
                }
            }
        }
        for i in (1..60u32).step_by(2) {
            for j in (1..60u32).step_by(2) {
                if i != j && (i + j) % 8 < 4 {
                    edges.push((i, j));
                }
            }
        }
        let g = Graph::from_edges(60, &edges);
        let r = lsh_pair_merge_reorder(&g, 128);
        assert!(avg_neighbor_distance(&r.graph) < avg_neighbor_distance(&g));
    }
}
