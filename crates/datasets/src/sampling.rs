//! GraphSAINT-style subgraph samplers and the 838-subgraph corpus.
//!
//! Graph-sampling training draws a fresh subgraph every iteration, which is
//! why the paper's kernels must work without preprocessing. GraphSAINT
//! (Zeng et al., ICLR 2020) defines three samplers — random node, random
//! edge and random walk — all reproduced here. [`sampling_corpus`]
//! assembles the paper's evaluation set of 838 sampled subgraphs from a mix
//! of parent graphs and sampler settings.

use crate::generators::{GeneratorConfig, Topology};
use hpsparse_sparse::Graph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A subgraph sampler in the GraphSAINT family.
pub trait Sampler {
    /// Draws one node set from `parent` using `rng`, in **parent node
    /// ids** and visit order (duplicates possible for edge/walk
    /// samplers). This is the primitive: training induces a subgraph on
    /// it, while the serving layer uses the original ids directly as a
    /// request's target set.
    fn sample_nodes(&self, parent: &Graph, rng: &mut StdRng) -> Vec<u32>;

    /// Draws one subgraph from `parent` using `rng` (the induced subgraph
    /// on [`Self::sample_nodes`], relabelled to compact ids).
    fn sample(&self, parent: &Graph, rng: &mut StdRng) -> Graph {
        parent.induced_subgraph(&self.sample_nodes(parent, rng))
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Uniform random-node sampler: picks `budget` nodes, induces the subgraph.
#[derive(Debug, Clone, Copy)]
pub struct NodeSampler {
    /// Number of nodes to draw.
    pub budget: usize,
}

impl Sampler for NodeSampler {
    fn sample_nodes(&self, parent: &Graph, rng: &mut StdRng) -> Vec<u32> {
        let n = parent.num_nodes();
        let mut nodes: Vec<u32> = (0..n as u32).collect();
        nodes.shuffle(rng);
        nodes.truncate(self.budget.min(n));
        nodes
    }

    fn name(&self) -> &'static str {
        "node"
    }
}

/// Random-edge sampler: picks `budget` edges, induces on their endpoints.
#[derive(Debug, Clone, Copy)]
pub struct EdgeSampler {
    /// Number of edges to draw.
    pub budget: usize,
}

impl Sampler for EdgeSampler {
    fn sample_nodes(&self, parent: &Graph, rng: &mut StdRng) -> Vec<u32> {
        let adj = parent.adjacency();
        let nnz = adj.nnz();
        let mut nodes = Vec::with_capacity(self.budget * 2);
        let row_of = |e: usize| -> u32 {
            // Binary search the offset array for the row containing e.
            let offs = adj.row_offsets();
            (offs.partition_point(|&o| o as usize <= e) - 1) as u32
        };
        for _ in 0..self.budget.min(nnz) {
            let e = rng.random_range(0..nnz);
            nodes.push(row_of(e));
            nodes.push(adj.col_indices()[e]);
        }
        nodes
    }

    fn name(&self) -> &'static str {
        "edge"
    }
}

/// Random-walk sampler: `roots` walkers of length `depth`; the union of
/// visited nodes induces the subgraph.
#[derive(Debug, Clone, Copy)]
pub struct RandomWalkSampler {
    /// Number of walk roots.
    pub roots: usize,
    /// Steps per walk.
    pub depth: usize,
}

impl Sampler for RandomWalkSampler {
    fn sample_nodes(&self, parent: &Graph, rng: &mut StdRng) -> Vec<u32> {
        let n = parent.num_nodes();
        if n == 0 {
            return Vec::new(); // no node to root a walk at
        }
        let mut nodes = Vec::with_capacity(self.roots * (self.depth + 1));
        for _ in 0..self.roots {
            let mut v = rng.random_range(0..n) as u32;
            nodes.push(v);
            for _ in 0..self.depth {
                let nbrs = parent.neighbors(v as usize);
                if nbrs.is_empty() {
                    break;
                }
                v = nbrs[rng.random_range(0..nbrs.len())];
                nodes.push(v);
            }
        }
        nodes
    }

    fn name(&self) -> &'static str {
        "walk"
    }
}

/// Builds the graph-sampling evaluation corpus: `count` subgraphs (the
/// paper uses 838) drawn from three synthetic parent graphs with a rotation
/// of the three GraphSAINT samplers at varied budgets — mimicking the
/// paper's mix of "ten representative GNN models" worth of sampled inputs.
pub fn sampling_corpus(count: usize, seed: u64) -> Vec<Graph> {
    let parents = corpus_parents(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5a1e);
    let mut out = Vec::with_capacity(count);
    let node_budgets = [512, 1024, 2048, 4096, 8000];
    let edge_budgets = [1000, 2500, 6000, 12_000];
    let walk_shapes = [(256, 2), (512, 3), (1024, 2), (2048, 4)];
    let mut i = 0usize;
    while out.len() < count {
        let parent = &parents[i % parents.len()];
        let g = match i % 3 {
            0 => NodeSampler {
                budget: node_budgets[i / 3 % node_budgets.len()],
            }
            .sample(parent, &mut rng),
            1 => EdgeSampler {
                budget: edge_budgets[i / 3 % edge_budgets.len()],
            }
            .sample(parent, &mut rng),
            _ => {
                let (roots, depth) = walk_shapes[i / 3 % walk_shapes.len()];
                RandomWalkSampler { roots, depth }.sample(parent, &mut rng)
            }
        };
        // Skip degenerate draws (can happen for tiny budgets on sparse
        // parents); the paper's corpus contains only non-trivial subgraphs.
        if g.num_edges() >= 64 {
            out.push(g);
        }
        i += 1;
    }
    out
}

fn corpus_parents(seed: u64) -> Vec<Graph> {
    vec![
        // Yelp-like: social community graph.
        GeneratorConfig {
            nodes: 120_000,
            edges: 1_200_000,
            topology: Topology::Community {
                communities: 300,
                p_in: 0.8,
                alpha: 2.1,
            },
            seed: seed ^ 1,
        }
        .generate(),
        // Citation-like: sparser, moderately skewed.
        GeneratorConfig {
            nodes: 80_000,
            edges: 600_000,
            topology: Topology::PowerLaw { alpha: 2.4 },
            seed: seed ^ 2,
        }
        .generate(),
        // Product-like: heavier tail.
        GeneratorConfig {
            nodes: 100_000,
            edges: 900_000,
            topology: Topology::PowerLaw { alpha: 2.0 },
            seed: seed ^ 3,
        }
        .generate(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parent() -> Graph {
        GeneratorConfig {
            nodes: 5000,
            edges: 40_000,
            topology: Topology::PowerLaw { alpha: 2.2 },
            seed: 42,
        }
        .generate()
    }

    #[test]
    fn node_sampler_respects_budget() {
        let p = parent();
        let mut rng = StdRng::seed_from_u64(0);
        let g = NodeSampler { budget: 500 }.sample(&p, &mut rng);
        assert_eq!(g.num_nodes(), 500);
        assert!(g.num_edges() < p.num_edges());
    }

    #[test]
    fn edge_sampler_produces_connected_endpoints() {
        let p = parent();
        let mut rng = StdRng::seed_from_u64(1);
        let g = EdgeSampler { budget: 300 }.sample(&p, &mut rng);
        assert!(g.num_nodes() <= 600);
        assert!(g.num_nodes() > 100);
        // Sampled edges are induced, so every sampled edge whose endpoints
        // were both kept must appear: edge count is at least the number of
        // distinct sampled pairs... weaker check: nonzero edges.
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn walk_sampler_visits_connected_regions() {
        let p = parent();
        let mut rng = StdRng::seed_from_u64(2);
        let g = RandomWalkSampler {
            roots: 100,
            depth: 3,
        }
        .sample(&p, &mut rng);
        assert!(g.num_nodes() <= 400);
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn sample_nodes_carries_parent_ids_consistent_with_sample() {
        let p = parent();
        for sampler in [
            Box::new(NodeSampler { budget: 400 }) as Box<dyn Sampler>,
            Box::new(EdgeSampler { budget: 200 }),
            Box::new(RandomWalkSampler {
                roots: 64,
                depth: 3,
            }),
        ] {
            let nodes = sampler.sample_nodes(&p, &mut StdRng::seed_from_u64(11));
            assert!(!nodes.is_empty());
            assert!(nodes.iter().all(|&v| (v as usize) < p.num_nodes()));
            // The provided sample() is exactly the induced subgraph on the
            // same draw.
            let g = sampler.sample(&p, &mut StdRng::seed_from_u64(11));
            assert_eq!(g.adjacency(), p.induced_subgraph(&nodes).adjacency());
        }
    }

    #[test]
    fn samplers_answer_empty_and_edgeless_graphs() {
        let samplers = [
            Box::new(NodeSampler { budget: 3 }) as Box<dyn Sampler>,
            Box::new(EdgeSampler { budget: 3 }),
            Box::new(RandomWalkSampler { roots: 3, depth: 2 }),
        ];
        for sampler in &samplers {
            let mut rng = StdRng::seed_from_u64(5);
            let empty = Graph::from_edges(0, &[]);
            assert!(
                sampler.sample_nodes(&empty, &mut rng).is_empty(),
                "{}",
                sampler.name()
            );
            assert_eq!(sampler.sample(&empty, &mut rng).num_nodes(), 0);
            // Isolated nodes: walks stop at their roots, no edge to draw.
            let isolated = Graph::from_edges(5, &[]);
            let nodes = sampler.sample_nodes(&isolated, &mut rng);
            assert!(nodes.iter().all(|&v| v < 5), "{}", sampler.name());
            assert_eq!(sampler.sample(&isolated, &mut rng).num_edges(), 0);
        }
    }

    #[test]
    fn samplers_are_deterministic_given_seed() {
        let p = parent();
        let g1 = NodeSampler { budget: 300 }.sample(&p, &mut StdRng::seed_from_u64(9));
        let g2 = NodeSampler { budget: 300 }.sample(&p, &mut StdRng::seed_from_u64(9));
        assert_eq!(g1.adjacency(), g2.adjacency());
    }

    #[test]
    fn corpus_has_requested_count_and_variety() {
        let corpus = sampling_corpus(30, 7);
        assert_eq!(corpus.len(), 30);
        let sizes: Vec<usize> = corpus.iter().map(|g| g.num_edges()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(min >= 64);
        assert!(max > 4 * min, "corpus lacks size variety: {min}..{max}");
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = sampling_corpus(5, 3);
        let b = sampling_corpus(5, 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.adjacency(), y.adjacency());
        }
    }
}
