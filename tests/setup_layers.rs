//! Tier-1 witness for the set-up layers every experiment, trainer and
//! server runs before its first launch: graph generation, self-loop
//! insertion and GCN normalisation, Louvain, the partitioner, GCR and the
//! shard planner. Each digest below was recorded on the commit before
//! these layers were rewritten for speed (e2dddaf); the rewrite is exact,
//! so a changed bit anywhere in a graph, a normalised value, a label, a
//! modularity or a plan fails `cargo test -q` at the root.

use hpsparse::datasets::registry::{by_name, full_graph_dataset};
use hpsparse::reorder::{
    gcr_permutation, gcr_reorder, louvain, partition, LouvainConfig, PartitionConfig,
    PartitionMethod,
};
use hpsparse::sim::{DeviceSpec, LinkSpec};
use hpsparse::sparse::{reference, Dense, Graph};
use hpsparse_serve::{serve, BatcherConfig, Cluster, Request, ShardPlan};

/// Edge cap for the registry digests: small enough for a debug Tier-1,
/// dense enough that the scaled-down `proteins`, `Reddit` and `ddi` draw
/// many duplicate edges.
const CAP: usize = 16_000;

/// Edge cap of the Flickr graph the normalisation, Louvain, partition,
/// GCR and shard-plan digests are taken on.
const FLICKR_EDGES: usize = 20_000;

/// `(name, nodes, edges, FNV of the adjacency)` of `generate(CAP)` for
/// every Table II graph.
const REGISTRY_DIGESTS: [(&str, usize, usize, u64); 19] = [
    ("Flickr", 4975, 15999, 0xeed0f3a304ec5c46),
    ("Yelp", 6266, 16000, 0x3c2560f74c263755),
    ("Amazon", 1783, 16000, 0xb5720ef039fd7f39),
    ("CoraFull", 4197, 16000, 0xe340f1f3d53ce5cb),
    ("AIFB", 3560, 15999, 0x791051ae6a0ebf60),
    ("MUTAG", 5130, 15999, 0xbc3ff2979cd30fe5),
    ("BGS", 7043, 15999, 0x0e6836557e354e4b),
    ("AM", 12318, 15999, 0x77e63d15136e2d00),
    ("Reddit", 465, 16000, 0xedc825b4fe960c9c),
    ("arxiv", 4953, 16000, 0x3242875430e6fc4c),
    ("proteins", 343, 16000, 0x1262c558eb170fbb),
    ("products", 4583, 16000, 0x91f92c4f661d1afb),
    ("collab", 7583, 16000, 0x1b834dee99b434c1),
    ("ddi", 138, 16000, 0xc0272d8982a1b935),
    ("ppa", 2289, 15999, 0x4a2fcf1c03485f9f),
    ("CoauthorCS", 3598, 16000, 0x13fd1614bd67bd96),
    ("AmazonCoBuyPhoto", 1130, 16000, 0xe5f4b6ce2c055377),
    ("AmazonCoBuyComputer", 1226, 16000, 0x5a8eddceb1958ce5),
    ("CoauthorPhysics", 2974, 16000, 0x57b26d96417652d5),
];

/// FNV of `with_self_loops().gcn_normalized()` on the Flickr graph.
const NORMALIZED: u64 = 0xc931aff9503c752c;
/// Louvain on the normalised Flickr graph: communities, FNV of the labels
/// and the modularity's bits.
const LOUVAIN: (usize, u64, u64) = (245, 0x73c660fbdb3bb003, 0x3fe90077a307843a);
/// FNV of `partition(.., 8)`'s assignment on the normalised Flickr graph.
const PARTITION_8: u64 = 0xa48d0a3d68cb40c6;
/// FNV of `gcr_permutation` on the raw Flickr graph and on `proteins`.
const GCR_FLICKR: u64 = 0x10f7f65fd8c352ff;
const GCR_PROTEINS: u64 = 0x160cc502c4b5d48e;
/// FNV of `ShardPlan::new(.., 8).canonical_encoding()` on the normalised
/// Flickr graph, as the serving benchmark plans it.
const SHARD_PLAN_8: u64 = 0xab4a0fd71163590f;

fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, w| {
        (h ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn graph_digest(g: &Graph) -> u64 {
    let a = g.adjacency();
    fnv(a
        .row_offsets()
        .iter()
        .chain(a.col_indices())
        .copied()
        .chain(a.values().iter().map(|v| v.to_bits())))
}

fn flickr() -> Graph {
    by_name("Flickr")
        .expect("registry graph")
        .generate(FLICKR_EDGES)
}

#[test]
fn registry_graphs_keep_their_recorded_bits() {
    let got: Vec<(&str, usize, usize, u64)> = full_graph_dataset()
        .iter()
        .map(|spec| {
            let g = spec.generate(CAP);
            (spec.name, g.num_nodes(), g.num_edges(), graph_digest(&g))
        })
        .collect();
    assert_eq!(got, REGISTRY_DIGESTS, "{got:#?}");
}

#[test]
fn normalisation_louvain_and_plans_keep_their_recorded_bits() {
    let raw = flickr();
    let g = raw.with_self_loops().gcn_normalized();
    let res = louvain(&g, LouvainConfig::default());
    let proteins = by_name("proteins").expect("registry graph").generate(CAP);
    let got = (
        graph_digest(&g),
        (
            res.num_communities,
            fnv(res.community.iter().copied()),
            res.modularity.to_bits(),
        ),
        fnv(partition(&g, &PartitionConfig::for_parts(8)).assignment),
        fnv(gcr_permutation(&raw).0),
        fnv(gcr_permutation(&proteins).0),
        fnv(ShardPlan::new(&g, 8)
            .canonical_encoding()
            .bytes()
            .map(u32::from)),
    );
    assert_eq!(
        got,
        (
            NORMALIZED,
            LOUVAIN,
            PARTITION_8,
            GCR_FLICKR,
            GCR_PROTEINS,
            SHARD_PLAN_8
        ),
        "{got:?}"
    );
}

/// What each layer returns on graphs with no edges or no nodes, and on
/// plans with more shards than nodes or with none asked for. None of them
/// panics; these are the results they give.
#[test]
fn degenerate_shapes_keep_their_recorded_results() {
    // No nodes: every output is empty and the modularity is the empty
    // sum's -0.0.
    let empty = Graph::from_edges(0, &[]);
    let res = louvain(&empty, LouvainConfig::default());
    assert_eq!(
        (res.community.len(), res.num_communities),
        (0, 0),
        "louvain on no nodes"
    );
    assert_eq!(res.modularity.to_bits(), (-0.0f64).to_bits());
    let part = partition(&empty, &PartitionConfig::for_parts(4));
    assert_eq!(
        (part.assignment.len(), part.method, part.part_weights),
        (0, PartitionMethod::DegreeBalanced, vec![0; 4])
    );
    let gcr = gcr_reorder(&empty);
    assert_eq!((gcr.perm.len(), gcr.num_communities), (0, 0));
    let plan = ShardPlan::new(&empty, 4);
    assert_eq!(plan.num_shards, 4);
    assert!(plan.shards.iter().all(|s| s.num_owned() == 0));

    // Isolated nodes: singleton communities of modularity +0.0, the
    // identity permutation, and degree-balanced ranges of weight 1 each.
    for (n, assignment, weights) in [
        (1usize, vec![0u32], vec![1u64, 0, 0, 0]),
        (5, vec![0, 1, 2, 3, 3], vec![1, 1, 1, 2]),
    ] {
        let g = Graph::from_edges(n, &[]);
        let res = louvain(&g, LouvainConfig::default());
        let identity: Vec<u32> = (0..n as u32).collect();
        assert_eq!(
            (
                &res.community,
                res.num_communities,
                res.modularity.to_bits()
            ),
            (&identity, n, 0.0f64.to_bits()),
            "louvain on {n} isolated nodes"
        );
        let part = partition(&g, &PartitionConfig::for_parts(4));
        assert_eq!(
            (&part.assignment, part.method, &part.part_weights),
            (&assignment, PartitionMethod::DegreeBalanced, &weights),
            "partition of {n} isolated nodes"
        );
        let gcr = gcr_reorder(&g);
        assert_eq!(
            (&gcr.perm, gcr.num_communities, gcr.graph.num_edges()),
            (&identity, n, 0)
        );
        let plan = ShardPlan::new(&g, 4);
        assert_eq!(plan.assignment, assignment);
        assert_eq!(plan.total_halo(), 0);
    }

    // Five shards for three nodes: one node each on shards 0–2, shards 3
    // and 4 own nothing, and serving over the plan still answers every
    // request with the reference product.
    let g = Graph::from_edges(3, &[(0, 1), (1, 0), (1, 2)]);
    let plan = ShardPlan::new(&g, 5);
    assert_eq!(plan.num_shards, 5);
    assert_eq!(plan.assignment, vec![0, 1, 2]);
    let owned: Vec<usize> = plan.shards.iter().map(|s| s.num_owned()).collect();
    assert_eq!(owned, vec![1, 1, 1, 0, 0]);
    assert_eq!((plan.total_halo(), plan.cut_edges()), (3, 3));
    let k = 4;
    let f = Dense::from_fn(3, k, |i, j| (i * k + j) as f32 + 0.5);
    let requests: Vec<Request> = (0..6u64)
        .map(|id| Request {
            id,
            arrival_cycle: id * 1_000,
            targets: vec![(id % 3) as u32, ((id + 1) % 3) as u32],
        })
        .collect();
    let mut cluster = Cluster::from_plan(plan, &f, 2, DeviceSpec::v100(), LinkSpec::nvlink());
    let out = serve(&mut cluster, &requests, &BatcherConfig::default(), None);
    assert_eq!(out.report.num_requests, requests.len());
    let full = reference::spmm(&g.to_hybrid(), &f).unwrap();
    for (req, bits) in requests.iter().zip(&out.outputs) {
        let want: Vec<u32> = req
            .targets
            .iter()
            .flat_map(|&t| full.row(t as usize).iter().map(|v| v.to_bits()))
            .collect();
        assert_eq!(bits, &want, "request {}", req.id);
    }

    // Zero shards asked for is one shard.
    assert_eq!(
        ShardPlan::new(&g, 0).canonical_encoding(),
        ShardPlan::new(&g, 1).canonical_encoding()
    );
}
