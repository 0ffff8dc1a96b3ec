//! Seeded random-graph generators.
//!
//! Three topology families cover the structural regimes of the paper's
//! datasets:
//!
//! * [`Topology::PowerLaw`] — Chung–Lu style graphs with a heavy-tailed
//!   degree distribution; the regime where node-parallel kernels suffer the
//!   load imbalance of §I.
//! * [`Topology::Community`] — planted-partition graphs with power-law
//!   degrees whose *labels are shuffled*, so the stored ordering has poor
//!   locality until Graph-Clustering-based Reordering recovers it.
//! * [`Topology::Uniform`] — near-regular graphs (degree variance ≈ 0),
//!   the control case of Fig. 12.

use hpsparse_sparse::Graph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Structural family of a generated graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Topology {
    /// Heavy-tailed degrees: node weights `w_i ∝ (i+1)^{-1/(alpha-1)}`
    /// (Chung–Lu), giving a power-law-like degree distribution with
    /// exponent `alpha` (typical social/citation graphs: 2.0–3.0; smaller
    /// is more skewed).
    PowerLaw {
        /// Power-law exponent; must be > 1.5 for a usable weight sequence.
        alpha: f64,
    },
    /// `communities` planted clusters; an edge stays inside its source's
    /// community with probability `p_in`, with power-law degree weights of
    /// exponent `alpha` inside the cluster. Node labels are shuffled.
    Community {
        /// Number of planted communities.
        communities: usize,
        /// Probability an edge is intra-community.
        p_in: f64,
        /// Degree-weight exponent, as for `PowerLaw`.
        alpha: f64,
    },
    /// Every node has (almost) the same expected degree.
    Uniform,
}

/// Full description of a graph to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of directed edges (self-loops excluded; duplicates removed,
    /// so the realised count can be slightly lower on dense configs).
    pub edges: usize,
    /// Structural family.
    pub topology: Topology,
    /// RNG seed; equal seeds give identical graphs.
    pub seed: u64,
}

impl GeneratorConfig {
    /// Generates the graph.
    pub fn generate(&self) -> Graph {
        assert!(self.nodes > 0, "graphs need at least one node");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let attempt = Attempt::new(self, &mut rng);
        let edges = distinct_edges(self.nodes, self.edges, || attempt.draw(&mut rng));
        Graph::from_edges(self.nodes, &edges)
    }
}

/// Chung–Lu weight sequence for a power-law degree distribution of
/// exponent `alpha` on `n` nodes.
fn power_law_weights(n: usize, alpha: f64) -> Vec<f64> {
    assert!(alpha > 1.5, "alpha must exceed 1.5, got {alpha}");
    let exponent = 1.0 / (alpha - 1.0);
    (0..n).map(|i| ((i + 1) as f64).powf(-exponent)).collect()
}

/// O(log n) weighted sampling via a cumulative-sum table.
struct WeightedPicker {
    cumulative: Vec<f64>,
}

impl WeightedPicker {
    fn new(weights: &[f64]) -> Self {
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            acc += w;
            cumulative.push(acc);
        }
        Self { cumulative }
    }

    fn pick(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty weights");
        let x: f64 = rng.random::<f64>() * total;
        self.cumulative.partition_point(|&c| c < x)
    }
}

/// Attempts drawn for `m` distinct edges before a generator gives up.
fn max_attempts(m: usize) -> usize {
    m.saturating_mul(16).max(4096)
}

/// The distinct edges of a generator's attempts on `n` nodes, sorted by
/// `(dst, src)`.
///
/// Each call of `attempt` is one attempt: `None` (an empty community) and
/// self loops add no edge. Attempts stop once `m` distinct edges have been
/// seen, or after [`max_attempts`]; the result is exactly the distinct
/// edges of the attempts made until then, the set a hash set fed one
/// attempt at a time would hold. A graph whose `n²` node pairs take no
/// more bits than its `m` edges take words is deduplicated in a bitmap of
/// the pairs ([`by_bitmap`]); a sparser one by sorting ([`by_rounds`]).
fn distinct_edges(
    n: usize,
    m: usize,
    attempt: impl FnMut() -> Option<(u32, u32)>,
) -> Vec<(u32, u32)> {
    if n.saturating_mul(n) <= m.saturating_mul(64) {
        by_bitmap(n, m, attempt)
    } else {
        by_rounds(m, attempt)
    }
}

/// [`distinct_edges`] one attempt at a time, marking pair `dst·n + src` in
/// a bitmap; the set bits, read in order, are the edges sorted.
fn by_bitmap(
    n: usize,
    m: usize,
    mut attempt: impl FnMut() -> Option<(u32, u32)>,
) -> Vec<(u32, u32)> {
    let max_attempts = max_attempts(m);
    let mut seen = vec![0u64; (n * n).div_ceil(64)];
    let mut distinct = 0usize;
    let mut attempts = 0usize;
    while distinct < m && attempts < max_attempts {
        attempts += 1;
        let Some((u, v)) = attempt() else {
            continue;
        };
        let pair = u as usize * n + v as usize;
        let bit = 1u64 << (pair % 64);
        if u != v && seen[pair / 64] & bit == 0 {
            seen[pair / 64] |= bit;
            distinct += 1;
        }
    }
    let mut edges = Vec::with_capacity(distinct);
    for (w, &word) in seen.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let pair = w * 64 + bits.trailing_zeros() as usize;
            edges.push(((pair / n) as u32, (pair % n) as u32));
            bits &= bits - 1;
        }
    }
    edges
}

/// [`distinct_edges`] by sorting packed `(dst << 32) | src` keys.
///
/// Attempts come in rounds of `m − distinct` (at most the attempts left).
/// A round cannot add more new edges than it has attempts, so it never
/// runs past the attempt that brings the m-th distinct edge; when the
/// count reaches `m`, that attempt was the round's last. Each round is
/// sorted and deduplicated on its own, stripped of the edges already held,
/// and merged into a short `recent` list, which is merged into the long
/// one only once it reaches a sixteenth of its length: the many small
/// rounds near the end each cost their own size, not the graph's. The
/// caller's RNG is not used after this returns, so no later draw depends
/// on where the rounds stop.
fn by_rounds(m: usize, mut attempt: impl FnMut() -> Option<(u32, u32)>) -> Vec<(u32, u32)> {
    let max_attempts = max_attempts(m);
    let mut held: Vec<u64> = Vec::with_capacity(m);
    let mut recent: Vec<u64> = Vec::new();
    let mut round: Vec<u64> = Vec::new();
    let mut attempts = 0usize;
    while held.len() + recent.len() < m && attempts < max_attempts {
        let size = (m - held.len() - recent.len()).min(max_attempts - attempts);
        attempts += size;
        round.clear();
        for _ in 0..size {
            if let Some((u, v)) = attempt() {
                if u != v {
                    round.push((u as u64) << 32 | v as u64);
                }
            }
        }
        round.sort_unstable();
        round.dedup();
        drop_held(&mut round, &held);
        drop_held(&mut round, &recent);
        merge_into(&mut recent, &round);
        if recent.len() * 16 > held.len() {
            merge_into(&mut held, &recent);
            recent.clear();
        }
    }
    merge_into(&mut held, &recent);
    held.iter().map(|&k| ((k >> 32) as u32, k as u32)).collect()
}

/// Removes from `round` (sorted, distinct) every key in `held` (sorted),
/// galloping through `held` so a small round costs `O(log |held|)` a key
/// and a large one a linear merge.
fn drop_held(round: &mut Vec<u64>, held: &[u64]) {
    let mut rest = held;
    round.retain(|&k| {
        let mut step = 1;
        while step < rest.len() && rest[step] < k {
            step *= 2;
        }
        let i = rest[..(step + 1).min(rest.len())].partition_point(|&h| h < k);
        rest = &rest[i..];
        rest.first() != Some(&k)
    });
}

/// Merges `new` (sorted, disjoint from `held`) into `held` (sorted), in
/// place from the back; what is left of `new` once `held`'s keys are all
/// placed is copied in one go.
fn merge_into(held: &mut Vec<u64>, new: &[u64]) {
    let (mut i, mut j) = (held.len(), new.len());
    held.resize(i + j, 0);
    while i > 0 && j > 0 {
        if held[i - 1] > new[j - 1] {
            held[i + j - 1] = held[i - 1];
            i -= 1;
        } else {
            held[i + j - 1] = new[j - 1];
            j -= 1;
        }
    }
    held[..j].copy_from_slice(&new[..j]);
}

/// What one attempt of a topology draws.
enum Attempt {
    /// Chung–Lu: both endpoints drawn from the weight distribution.
    PowerLaw(WeightedPicker),
    /// Planted partition: a community, then endpoints inside it (the
    /// source leaves it with probability `1 − p_in`), relabelled.
    Community {
        communities: usize,
        block: usize,
        p_in: f64,
        picker: WeightedPicker,
        label: Vec<u32>,
    },
    /// Erdős–Rényi style: both endpoints uniform over the node count.
    Uniform(usize),
}

impl Attempt {
    /// The topology's tables. A community graph shuffles its labels here,
    /// from the same RNG, before the first attempt.
    fn new(cfg: &GeneratorConfig, rng: &mut StdRng) -> Self {
        let n = cfg.nodes;
        match cfg.topology {
            Topology::PowerLaw { alpha } => {
                Attempt::PowerLaw(WeightedPicker::new(&power_law_weights(n, alpha)))
            }
            Topology::Community {
                communities,
                p_in,
                alpha,
            } => {
                let c = communities.clamp(1, n);
                // Community of node i (pre-shuffle): contiguous blocks.
                let block = n.div_ceil(c);
                let picker = WeightedPicker::new(&power_law_weights(block.max(1), alpha));
                // Shuffle labels so the stored order interleaves communities.
                let mut label: Vec<u32> = (0..n as u32).collect();
                label.shuffle(rng);
                Attempt::Community {
                    communities: c,
                    block,
                    p_in,
                    picker,
                    label,
                }
            }
            Topology::Uniform => Attempt::Uniform(n),
        }
    }

    /// One attempt: `(dst, src)`, or `None` when the drawn community is
    /// empty.
    fn draw(&self, rng: &mut StdRng) -> Option<(u32, u32)> {
        match self {
            Attempt::PowerLaw(picker) => {
                let u = picker.pick(rng) as u32;
                let v = picker.pick(rng) as u32;
                Some((u, v))
            }
            Attempt::Community {
                communities,
                block,
                p_in,
                picker,
                label,
            } => {
                let n = label.len();
                let base = rng.random_range(0..*communities) * block;
                // `c * block` can overshoot `n` when `c` does not divide
                // it; the last community is then short or empty.
                let size = n.saturating_sub(base).min(*block);
                if size == 0 {
                    return None;
                }
                let u = base + picker.pick(rng) % size;
                let v = if rng.random::<f64>() < *p_in {
                    base + picker.pick(rng) % size
                } else {
                    rng.random_range(0..n)
                };
                Some((label[u], label[v]))
            }
            &Attempt::Uniform(n) => {
                let u = rng.random_range(0..n) as u32;
                let v = rng.random_range(0..n) as u32;
                Some((u, v))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_sparse::DegreeStats;
    use proptest::prelude::*;

    impl GeneratorConfig {
        /// [`GeneratorConfig::generate`] as first written — a hash set fed
        /// one attempt at a time, the edges in first-seen order — kept as
        /// the reference [`distinct_edges`] must equal.
        fn generate_oracle(&self) -> Graph {
            let mut rng = StdRng::seed_from_u64(self.seed);
            let attempt = Attempt::new(self, &mut rng);
            let mut seen = std::collections::HashSet::new();
            let mut edges = Vec::new();
            let mut attempts = 0usize;
            while edges.len() < self.edges && attempts < max_attempts(self.edges) {
                attempts += 1;
                let Some((u, v)) = attempt.draw(&mut rng) else {
                    continue;
                };
                if u != v && seen.insert(((u as u64) << 32) | v as u64) {
                    edges.push((u, v));
                }
            }
            Graph::from_edges(self.nodes, &edges)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(120))]

        /// Bitmap and sort-and-merge deduplication build the hash set's
        /// graph on all three topologies: targets far below, near and above
        /// the `n(n − 1)` distinct edges there are (the attempt budget runs
        /// out), community counts that leave the last block short or empty,
        /// and `edges == 0`.
        #[test]
        fn generation_equals_the_hash_set_oracle(
            (nodes, per_node) in (1usize..48, 0usize..60),
            (sparse_nodes, sparse_edges) in (300usize..700, 0usize..2_000),
            kind in 0u8..3,
            communities in 1usize..64,
            p_in in 0.0f64..1.0,
            seed in 0u64..1_000,
        ) {
            let topology = match kind {
                0 => Topology::PowerLaw { alpha: 2.1 },
                1 => Topology::Community { communities, p_in, alpha: 2.2 },
                _ => Topology::Uniform,
            };
            // Dense enough for the bitmap, then sparse enough for rounds.
            for (nodes, edges) in [(nodes, nodes * per_node), (sparse_nodes, sparse_edges)] {
                let cfg = GeneratorConfig {
                    nodes,
                    edges,
                    topology,
                    seed,
                };
                prop_assert_eq!(cfg.generate(), cfg.generate_oracle(), "{:?}", cfg);
            }
        }
    }

    /// An attempt stream with many duplicates, `None`s and self loops
    /// takes many rounds; every round boundary must keep the first-`m`
    /// cut exact, and the bitmap must cut at the same attempt.
    #[test]
    fn both_strategies_stop_at_the_mth_distinct_edge() {
        for (m, span) in [
            (1usize, 2u32),
            (5, 3),
            (40, 8),
            (300, 20),
            (3_000, 60),
            (70, 9),
        ] {
            let mut state = 0x9e37_79b9_u64 ^ m as u64;
            let mut next = || {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                let x = (state >> 33) as u32;
                (!x.is_multiple_of(11)).then_some(((x >> 4) % span, (x >> 12) % span))
            };
            let stream: Vec<Option<(u32, u32)>> = (0..max_attempts(m)).map(|_| next()).collect();
            let mut seen = std::collections::BTreeSet::new();
            for &(u, v) in stream.iter().flatten() {
                if seen.len() == m {
                    break;
                }
                if u != v {
                    seen.insert((u, v));
                }
            }
            let want: Vec<(u32, u32)> = seen.into_iter().collect();
            let mut at = stream.iter();
            assert_eq!(
                by_rounds(m, || *at.next().unwrap()),
                want,
                "rounds, m = {m}"
            );
            let mut at = stream.iter();
            let bitmap = by_bitmap(span as usize, m, || *at.next().unwrap());
            assert_eq!(bitmap, want, "bitmap, m = {m}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GeneratorConfig {
            nodes: 500,
            edges: 3000,
            topology: Topology::PowerLaw { alpha: 2.2 },
            seed: 7,
        };
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.adjacency(), b.adjacency());
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| GeneratorConfig {
            nodes: 500,
            edges: 3000,
            topology: Topology::PowerLaw { alpha: 2.2 },
            seed,
        };
        assert_ne!(mk(1).generate().adjacency(), mk(2).generate().adjacency());
    }

    #[test]
    fn edge_counts_close_to_target() {
        for topo in [
            Topology::PowerLaw { alpha: 2.5 },
            Topology::Uniform,
            Topology::Community {
                communities: 10,
                p_in: 0.8,
                alpha: 2.5,
            },
        ] {
            let g = GeneratorConfig {
                nodes: 2000,
                edges: 10_000,
                topology: topo,
                seed: 11,
            }
            .generate();
            assert!(
                g.num_edges() >= 9_000 && g.num_edges() <= 10_000,
                "{topo:?}: got {} edges",
                g.num_edges()
            );
            assert_eq!(g.num_nodes(), 2000);
        }
    }

    #[test]
    fn power_law_is_more_skewed_than_uniform() {
        let pl = GeneratorConfig {
            nodes: 2000,
            edges: 20_000,
            topology: Topology::PowerLaw { alpha: 2.0 },
            seed: 3,
        }
        .generate();
        let un = GeneratorConfig {
            nodes: 2000,
            edges: 20_000,
            topology: Topology::Uniform,
            seed: 3,
        }
        .generate();
        let s_pl = DegreeStats::of(pl.adjacency());
        let s_un = DegreeStats::of(un.adjacency());
        assert!(
            s_pl.std_dev > 2.0 * s_un.std_dev,
            "power-law std {} vs uniform std {}",
            s_pl.std_dev,
            s_un.std_dev
        );
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let g = GeneratorConfig {
            nodes: 300,
            edges: 2000,
            topology: Topology::PowerLaw { alpha: 2.2 },
            seed: 5,
        }
        .generate();
        let adj = g.adjacency();
        let mut seen = std::collections::HashSet::new();
        for (r, c, _) in adj.iter() {
            assert_ne!(r, c, "self loop at {r}");
            assert!(seen.insert((r, c)), "duplicate edge ({r},{c})");
        }
    }

    #[test]
    fn community_graph_has_modular_structure() {
        // Count intra-block edges under the *inverse* label map: with
        // p_in = 0.9 most edges should connect nodes of the same block.
        let n = 1000;
        let c = 10;
        let g = GeneratorConfig {
            nodes: n,
            edges: 8000,
            topology: Topology::Community {
                communities: c,
                p_in: 0.9,
                alpha: 2.5,
            },
            seed: 21,
        }
        .generate();
        // Labels were shuffled, so we can't recover blocks directly;
        // instead check the clustering signal: the number of distinct
        // neighbours-of-neighbours per node should be far below uniform.
        // A cheap proxy: edge-level reciprocity + triangle density are
        // higher than in a uniform graph of equal size.
        let uni = GeneratorConfig {
            nodes: n,
            edges: 8000,
            topology: Topology::Uniform,
            seed: 21,
        }
        .generate();
        let tri_comm = triangle_proxy(&g);
        let tri_uni = triangle_proxy(&uni);
        assert!(
            tri_comm > 2 * tri_uni.max(1),
            "community triangles {tri_comm} vs uniform {tri_uni}"
        );
    }

    /// Counts length-2 closed paths (cheap triangle proxy) on a sample.
    fn triangle_proxy(g: &Graph) -> usize {
        let mut count = 0;
        for v in 0..g.num_nodes().min(200) {
            let nbrs: std::collections::HashSet<u32> = g.neighbors(v).iter().copied().collect();
            for &u in g.neighbors(v) {
                for &w in g.neighbors(u as usize) {
                    if nbrs.contains(&w) {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    #[test]
    fn weighted_picker_prefers_heavy_nodes() {
        let weights = power_law_weights(100, 2.0);
        let picker = WeightedPicker::new(&weights);
        let mut rng = StdRng::seed_from_u64(0);
        let mut counts = vec![0usize; 100];
        for _ in 0..10_000 {
            counts[picker.pick(&mut rng)] += 1;
        }
        // Node 0 has the largest weight; it must be sampled far more often
        // than node 99.
        assert!(counts[0] > 10 * counts[99].max(1));
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 1.5")]
    fn rejects_degenerate_alpha() {
        power_law_weights(10, 1.0);
    }
}
