//! The Louvain method for community detection (Blondel et al., 2008; the
//! generalised form of De Meo et al. cited by the paper as reference 29).
//!
//! Two alternating phases: *local moving* greedily reassigns nodes to the
//! neighbouring community with the highest modularity gain; *aggregation*
//! collapses each community into a supernode and repeats on the coarser
//! graph. The paper runs Louvain on GPU; here the local-moving gain scan is
//! the dominant cost and the implementation is tuned for cache-friendly
//! sequential sweeps (the reordering-runtime comparison of §IV-D measures
//! this implementation's wall clock).

use hpsparse_sparse::{Csr, Graph};

/// Tuning knobs for [`louvain`].
#[derive(Debug, Clone, Copy)]
pub struct LouvainConfig {
    /// Maximum local-moving sweeps per level.
    pub max_sweeps: usize,
    /// Maximum aggregation levels.
    pub max_levels: usize,
    /// Minimum total modularity gain for a sweep to count as progress.
    pub min_gain: f64,
}

impl Default for LouvainConfig {
    fn default() -> Self {
        Self {
            max_sweeps: 8,
            max_levels: 6,
            min_gain: 1e-6,
        }
    }
}

/// Result of community detection.
#[derive(Debug, Clone)]
pub struct LouvainResult {
    /// Community id of every node, compacted to `0..num_communities`.
    pub community: Vec<u32>,
    /// Number of communities found.
    pub num_communities: usize,
    /// Modularity of the final partition.
    pub modularity: f64,
}

/// Undirected weighted adjacency in CSR-ish arrays for the solver.
struct WGraph {
    offsets: Vec<usize>,
    nbr: Vec<u32>,
    w: Vec<f64>,
    /// Weighted degree per node (including self-loop weight once).
    wdeg: Vec<f64>,
    /// Self-loop weight per node.
    self_w: Vec<f64>,
    /// Total edge weight `m` (each undirected edge counted once).
    total: f64,
}

impl WGraph {
    /// Symmetrises the square `adj`: node `i`'s neighbours are the other
    /// nodes of row `i` and column `i`, each weighted by the sum of the
    /// `|value|`s of the entries between them; a self loop's weight is half
    /// the sum it gets counted twice into.
    ///
    /// Input invariant: every row of `adj` is sorted by column (a `Graph`
    /// guarantees it). The transpose is a counting sort, so column `i`
    /// lists its rows in ascending order and each row's duplicates in row
    /// order. Merging row `i` with column `i` then visits every key in
    /// ascending order and sums each from `0.0` in the order a stable sort
    /// of the entries pushed row by row would give them: for `j < i` the
    /// column's entries (pushed while row `j` was read) before the row's,
    /// for `j > i` the row's before the column's, and for `j == i` each
    /// self entry twice in row order.
    fn from_adjacency(adj: &Csr) -> Self {
        let n = adj.rows();
        debug_assert!(
            (0..n).all(|r| adj.col_indices()[adj.row_range(r)].is_sorted()),
            "graph rows must be sorted by column"
        );
        let t = adj.transpose();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut nbr = Vec::with_capacity(2 * adj.nnz());
        let mut w = Vec::with_capacity(2 * adj.nnz());
        let mut wdeg = vec![0f64; n];
        let mut self_w = vec![0f64; n];
        offsets.push(0);
        for i in 0..n {
            let row = adj.row_range(i);
            let (rc, rv) = (&adj.col_indices()[row.clone()], &adj.values()[row]);
            let col = t.row_range(i);
            let (cc, cv) = (&t.col_indices()[col.clone()], &t.values()[col]);
            let (mut a, mut b) = (0, 0);
            let me = i as u32;
            loop {
                let j = match (rc.get(a), cc.get(b)) {
                    (Some(&x), Some(&y)) => x.min(y),
                    (Some(&x), None) => x,
                    (None, Some(&y)) => y,
                    (None, None) => break,
                };
                let mut acc = 0.0;
                let mut take = |cols: &[u32], vals: &[f32], at: &mut usize, times: usize| {
                    while cols.get(*at) == Some(&j) {
                        let v = vals[*at].abs() as f64;
                        for _ in 0..times {
                            acc += v;
                        }
                        *at += 1;
                    }
                };
                if j == me {
                    // The column's self entries are the row's, seen again.
                    take(rc, rv, &mut a, 2);
                    take(cc, cv, &mut b, 0);
                    self_w[i] += acc / 2.0;
                    continue;
                }
                if j < me {
                    take(cc, cv, &mut b, 1);
                    take(rc, rv, &mut a, 1);
                } else {
                    take(rc, rv, &mut a, 1);
                    take(cc, cv, &mut b, 1);
                }
                nbr.push(j);
                w.push(acc);
                wdeg[i] += acc;
            }
            wdeg[i] += 2.0 * self_w[i];
            offsets.push(nbr.len());
        }
        let total: f64 = wdeg.iter().sum::<f64>() / 2.0;
        Self {
            offsets,
            nbr,
            w,
            wdeg,
            self_w,
            total: total.max(f64::MIN_POSITIVE),
        }
    }

    fn n(&self) -> usize {
        self.wdeg.len()
    }

    fn neighbors(&self, v: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.offsets[v];
        let hi = self.offsets[v + 1];
        self.nbr[lo..hi]
            .iter()
            .copied()
            .zip(self.w[lo..hi].iter().copied())
    }
}

/// Runs Louvain community detection on `g`.
pub fn louvain(g: &Graph, config: LouvainConfig) -> LouvainResult {
    solve(
        WGraph::from_adjacency(g.adjacency()),
        config,
        local_moving,
        aggregate,
    )
}

/// One level's local-moving phase.
type LocalMoving = fn(&WGraph, &LouvainConfig) -> (Vec<u32>, bool);
/// One level's aggregation phase.
type Aggregate = fn(&WGraph, &[u32]) -> WGraph;

/// The level loop on `base`, with the phases passed in so the tests can
/// run it on their oracles too.
fn solve(
    base: WGraph,
    config: LouvainConfig,
    local_moving: LocalMoving,
    aggregate: Aggregate,
) -> LouvainResult {
    // The level-0 graph is kept: the final modularity is measured on it.
    let mut coarse: Option<WGraph> = None;
    // community[level] maps this level's supernodes to the next grouping;
    // `assignment` maps original nodes to current supernodes.
    let mut assignment: Vec<u32> = (0..base.n() as u32).collect();

    for _level in 0..config.max_levels {
        let wg = coarse.as_ref().unwrap_or(&base);
        let (comm, improved) = local_moving(wg, &config);
        let compact = compact_labels(&comm);
        for a in assignment.iter_mut() {
            *a = compact[*a as usize];
        }
        if !improved {
            break;
        }
        let next = aggregate(wg, &compact);
        if next.n() == wg.n() {
            break;
        }
        coarse = Some(next);
    }
    let compact = compact_labels(&assignment);
    let num_communities = compact.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let modularity = modularity_of(&base, &compact);
    LouvainResult {
        community: compact,
        num_communities,
        modularity,
    }
}

/// Greedy local moving; returns (community per node, any-improvement).
fn local_moving(wg: &WGraph, config: &LouvainConfig) -> (Vec<u32>, bool) {
    let n = wg.n();
    let two_m = 2.0 * wg.total;
    let mut comm: Vec<u32> = (0..n as u32).collect();
    // Sum of weighted degrees per community.
    let mut sum_tot: Vec<f64> = wg.wdeg.clone();
    let mut improved_any = false;
    // Scratch: weight from node to each candidate community.
    let mut cand_w: Vec<f64> = vec![0.0; n];
    let max_degree = (0..n).map(|v| wg.offsets[v + 1] - wg.offsets[v]).max();
    let mut cand_buf: Vec<u32> = vec![0; max_degree.unwrap_or(0)];

    for _ in 0..config.max_sweeps {
        let mut gain_this_sweep = 0.0;
        for v in 0..n {
            let cv = comm[v] as usize;
            let kv = wg.wdeg[v];
            // Collect neighbour communities and link weights: a community
            // is listed when its weight is still zero, written always and
            // kept by advancing the length, with no branch on the data.
            let mut len = 0;
            for (u, wt) in wg.neighbors(v) {
                let cu = comm[u as usize];
                cand_buf[len] = cu;
                len += (cand_w[cu as usize] == 0.0) as usize;
                cand_w[cu as usize] += wt;
            }
            let cands = &cand_buf[..len];
            let w_to_own = cand_w[cv];
            // Remove v from its community for gain math.
            sum_tot[cv] -= kv;
            let mut best_c = cv;
            let mut best_gain = w_to_own - sum_tot[cv] * kv / two_m;
            for &cu in cands {
                let cu = cu as usize;
                let gain = cand_w[cu] - sum_tot[cu] * kv / two_m;
                if gain > best_gain + 1e-12 {
                    best_gain = gain;
                    best_c = cu;
                }
            }
            let base_gain = w_to_own - sum_tot[cv] * kv / two_m;
            if best_c != cv {
                gain_this_sweep += best_gain - base_gain;
                comm[v] = best_c as u32;
                improved_any = true;
            }
            sum_tot[comm[v] as usize] += kv;
            for &cu in cands {
                cand_w[cu as usize] = 0.0;
            }
        }
        if gain_this_sweep / wg.total < config.min_gain {
            break;
        }
    }
    (comm, improved_any)
}

/// Renumbers labels to `0..distinct`.
fn compact_labels(labels: &[u32]) -> Vec<u32> {
    let max = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut map = vec![u32::MAX; max];
    let mut next = 0u32;
    labels
        .iter()
        .map(|&l| {
            if map[l as usize] == u32::MAX {
                map[l as usize] = next;
                next += 1;
            }
            map[l as usize]
        })
        .collect()
}

/// Collapses communities into supernodes.
///
/// Every addition to a supernode pair `(a, b)` with `a < b`, and to
/// `self_w[a]`, comes from a member of `a`, visited in node order. So the
/// entries that cross from `a` to a later community are bucketed by `a`
/// (a counting sort, stable in node order), and each pair is summed from
/// `0.0` in a dense slot stamped with `a`: every sum takes its terms in
/// the order one pass over all nodes gives them, and a pair whose weight
/// stays zero still becomes an edge.
fn aggregate(wg: &WGraph, comm: &[u32]) -> WGraph {
    let nc = comm.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    // Pass 1: self weights, and each community's count of crossing entries.
    let mut self_w = vec![0f64; nc];
    let mut start = vec![0usize; nc + 1];
    for (v, &cv) in comm.iter().enumerate() {
        self_w[cv as usize] += wg.self_w[v];
        for (u, wt) in wg.neighbors(v) {
            let cu = comm[u as usize];
            if cu == cv {
                // Each intra-community edge appears twice (symmetry).
                self_w[cv as usize] += wt / 2.0;
            } else if cv < cu {
                start[cv as usize + 1] += 1;
            }
        }
    }
    for c in 0..nc {
        start[c + 1] += start[c];
    }
    // Pass 2: the crossing entries, bucketed by their smaller community.
    let mut crossing = vec![(0u32, 0f64); start[nc]];
    let mut cursor = start.clone();
    for (v, &cv) in comm.iter().enumerate() {
        for (u, wt) in wg.neighbors(v) {
            let cu = comm[u as usize];
            if cv < cu {
                crossing[cursor[cv as usize]] = (cu, wt);
                cursor[cv as usize] += 1;
            }
        }
    }
    // Upper-triangle pairs `(a, b)`, `a < b`, in ascending `(a, b)` order.
    let mut pair_w = vec![0f64; nc];
    let mut stamp = vec![u32::MAX; nc];
    let mut touched: Vec<u32> = Vec::new();
    let mut upper: Vec<(u32, u32, f64)> = Vec::new();
    for a in 0..nc {
        let a32 = a as u32;
        touched.clear();
        for &(b, wt) in &crossing[start[a]..start[a + 1]] {
            if stamp[b as usize] != a32 {
                stamp[b as usize] = a32;
                pair_w[b as usize] = 0.0;
                touched.push(b);
            }
            pair_w[b as usize] += wt;
        }
        touched.sort_unstable();
        upper.extend(touched.iter().map(|&b| (a32, b, pair_w[b as usize])));
    }
    let mut deg_count = vec![0usize; nc];
    for &(a, b, _) in &upper {
        deg_count[a as usize] += 1;
        deg_count[b as usize] += 1;
    }
    let mut offsets = vec![0usize; nc + 1];
    for i in 0..nc {
        offsets[i + 1] = offsets[i] + deg_count[i];
    }
    let mut nbr = vec![0u32; offsets[nc]];
    let mut w = vec![0f64; offsets[nc]];
    let mut cursor = offsets.clone();
    for &(a, b, wt) in &upper {
        nbr[cursor[a as usize]] = b;
        w[cursor[a as usize]] = wt;
        cursor[a as usize] += 1;
        nbr[cursor[b as usize]] = a;
        w[cursor[b as usize]] = wt;
        cursor[b as usize] += 1;
    }
    let mut wdeg = vec![0f64; nc];
    for i in 0..nc {
        wdeg[i] = w[offsets[i]..offsets[i + 1]].iter().sum::<f64>() + 2.0 * self_w[i];
    }
    let total = wdeg.iter().sum::<f64>() / 2.0;
    WGraph {
        offsets,
        nbr,
        w,
        wdeg,
        self_w,
        total: total.max(f64::MIN_POSITIVE),
    }
}

/// Modularity `Q` of a partition on the (symmetrised) graph.
fn modularity_of(wg: &WGraph, comm: &[u32]) -> f64 {
    let two_m = 2.0 * wg.total;
    let nc = comm.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let mut intra = vec![0f64; nc];
    let mut tot = vec![0f64; nc];
    for v in 0..wg.n() {
        let cv = comm[v] as usize;
        tot[cv] += wg.wdeg[v];
        intra[cv] += 2.0 * wg.self_w[v];
        for (u, wt) in wg.neighbors(v) {
            if comm[u as usize] as usize == cv {
                intra[cv] += wt;
            }
        }
    }
    (0..nc)
        .map(|c| intra[c] / two_m - (tot[c] / two_m) * (tot[c] / two_m))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl WGraph {
        /// [`WGraph::from_adjacency`] as first written — both directions of
        /// every entry pushed row by row, each node's list stable-sorted
        /// and its runs summed — kept as the reference the merge must
        /// equal.
        fn from_adjacency_oracle(adj: &Csr) -> Self {
            let n = adj.rows();
            let mut deg_count = vec![0usize; n];
            for (r, c, _) in adj.iter() {
                deg_count[r as usize] += 1;
                deg_count[c as usize] += 1;
            }
            let mut offsets = vec![0usize; n + 1];
            for i in 0..n {
                offsets[i + 1] = offsets[i] + deg_count[i];
            }
            let mut nbr = vec![0u32; offsets[n]];
            let mut w = vec![0f64; offsets[n]];
            let mut cursor = offsets.clone();
            for (r, c, v) in adj.iter() {
                let v = v.abs() as f64;
                nbr[cursor[r as usize]] = c;
                w[cursor[r as usize]] = v;
                cursor[r as usize] += 1;
                nbr[cursor[c as usize]] = r;
                w[cursor[c as usize]] = v;
                cursor[c as usize] += 1;
            }
            let mut m_offsets = vec![0usize; n + 1];
            let mut m_nbr = Vec::with_capacity(nbr.len());
            let mut m_w = Vec::with_capacity(w.len());
            let mut wdeg = vec![0f64; n];
            let mut self_w = vec![0f64; n];
            for i in 0..n {
                let mut pairs: Vec<(u32, f64)> = nbr[offsets[i]..offsets[i + 1]]
                    .iter()
                    .copied()
                    .zip(w[offsets[i]..offsets[i + 1]].iter().copied())
                    .collect();
                pairs.sort_by_key(|&(c, _)| c);
                let mut j = 0;
                while j < pairs.len() {
                    let c = pairs[j].0;
                    let mut acc = 0.0;
                    while j < pairs.len() && pairs[j].0 == c {
                        acc += pairs[j].1;
                        j += 1;
                    }
                    if c as usize == i {
                        self_w[i] += acc / 2.0;
                    } else {
                        m_nbr.push(c);
                        m_w.push(acc);
                        wdeg[i] += acc;
                    }
                }
                wdeg[i] += 2.0 * self_w[i];
                m_offsets[i + 1] = m_nbr.len();
            }
            let total: f64 = wdeg.iter().sum::<f64>() / 2.0;
            Self {
                offsets: m_offsets,
                nbr: m_nbr,
                w: m_w,
                wdeg,
                self_w,
                total: total.max(f64::MIN_POSITIVE),
            }
        }

        /// Every field, floats by their bits.
        #[allow(clippy::type_complexity)]
        fn bits(&self) -> (Vec<usize>, Vec<u32>, Vec<u64>, Vec<u64>, Vec<u64>, u64) {
            let b = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            (
                self.offsets.clone(),
                self.nbr.clone(),
                b(&self.w),
                b(&self.wdeg),
                b(&self.self_w),
                self.total.to_bits(),
            )
        }
    }

    /// [`local_moving`] as first written, branching on a candidate's first
    /// sighting.
    fn local_moving_oracle(wg: &WGraph, config: &LouvainConfig) -> (Vec<u32>, bool) {
        let n = wg.n();
        let two_m = 2.0 * wg.total;
        let mut comm: Vec<u32> = (0..n as u32).collect();
        let mut sum_tot: Vec<f64> = wg.wdeg.clone();
        let mut improved_any = false;
        let mut cand_w: Vec<f64> = vec![0.0; n];
        let mut cands: Vec<u32> = Vec::new();
        for _ in 0..config.max_sweeps {
            let mut gain_this_sweep = 0.0;
            for v in 0..n {
                let cv = comm[v] as usize;
                let kv = wg.wdeg[v];
                cands.clear();
                for (u, wt) in wg.neighbors(v) {
                    let cu = comm[u as usize] as usize;
                    if cand_w[cu] == 0.0 {
                        cands.push(cu as u32);
                    }
                    cand_w[cu] += wt;
                }
                let w_to_own = cand_w[cv];
                sum_tot[cv] -= kv;
                let mut best_c = cv;
                let mut best_gain = w_to_own - sum_tot[cv] * kv / two_m;
                for &cu in &cands {
                    let cu = cu as usize;
                    let gain = cand_w[cu] - sum_tot[cu] * kv / two_m;
                    if gain > best_gain + 1e-12 {
                        best_gain = gain;
                        best_c = cu;
                    }
                }
                let base_gain = w_to_own - sum_tot[cv] * kv / two_m;
                if best_c != cv {
                    gain_this_sweep += best_gain - base_gain;
                    comm[v] = best_c as u32;
                    improved_any = true;
                }
                sum_tot[comm[v] as usize] += kv;
                for &cu in &cands {
                    cand_w[cu as usize] = 0.0;
                }
            }
            if gain_this_sweep / wg.total < config.min_gain {
                break;
            }
        }
        (comm, improved_any)
    }

    /// [`aggregate`] as first written, summing pairs in a `HashMap` fed in
    /// node order and sorting its keys.
    fn aggregate_oracle(wg: &WGraph, comm: &[u32]) -> WGraph {
        let nc = comm.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
        let mut edges: std::collections::HashMap<(u32, u32), f64> =
            std::collections::HashMap::new();
        let mut self_w = vec![0f64; nc];
        for v in 0..wg.n() {
            let cv = comm[v];
            self_w[cv as usize] += wg.self_w[v];
            for (u, wt) in wg.neighbors(v) {
                let cu = comm[u as usize];
                if cu == cv {
                    self_w[cv as usize] += wt / 2.0;
                } else if cv < cu {
                    *edges.entry((cv, cu)).or_insert(0.0) += wt;
                }
            }
        }
        let mut edges: Vec<((u32, u32), f64)> = edges.into_iter().collect();
        edges.sort_unstable_by_key(|&(key, _)| key);
        let mut deg_count = vec![0usize; nc];
        for &((a, b), _) in &edges {
            deg_count[a as usize] += 1;
            deg_count[b as usize] += 1;
        }
        let mut offsets = vec![0usize; nc + 1];
        for i in 0..nc {
            offsets[i + 1] = offsets[i] + deg_count[i];
        }
        let mut nbr = vec![0u32; offsets[nc]];
        let mut w = vec![0f64; offsets[nc]];
        let mut cursor = offsets.clone();
        for &((a, b), wt) in &edges {
            nbr[cursor[a as usize]] = b;
            w[cursor[a as usize]] = wt;
            cursor[a as usize] += 1;
            nbr[cursor[b as usize]] = a;
            w[cursor[b as usize]] = wt;
            cursor[b as usize] += 1;
        }
        let mut wdeg = vec![0f64; nc];
        for i in 0..nc {
            wdeg[i] = w[offsets[i]..offsets[i + 1]].iter().sum::<f64>() + 2.0 * self_w[i];
        }
        let total = wdeg.iter().sum::<f64>() / 2.0;
        WGraph {
            offsets,
            nbr,
            w,
            wdeg,
            self_w,
            total: total.max(f64::MIN_POSITIVE),
        }
    }

    /// A random square multigraph: `n` nodes, entries drawn from `raw`
    /// with weights from a palette holding zero, negative, tiny and
    /// inexact values. `2⁵³ + 1 + 1` and `1 + 1 + 2⁵³` differ in `f64`, so
    /// a duplicate entry's summation order shows in the bits.
    fn multigraph(n: usize, raw: &[(u32, u32, u32)]) -> Csr {
        let weights = [
            1.0f32,
            0.0,
            -1.0,
            0.1,
            3.3,
            -0.7,
            1e-30,
            9_007_199_254_740_992.0,
            1.0,
        ];
        let triplets: Vec<(u32, u32, f32)> = raw
            .iter()
            .filter(|_| n > 0)
            .map(|&(r, c, w)| {
                (
                    r % n as u32,
                    c % n as u32,
                    weights[w as usize % weights.len()],
                )
            })
            .collect();
        Csr::from_triplets(n, n, &triplets).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The merged symmetrisation, the branch-free candidate list and
        /// the grouped aggregation equal their oracles bit for bit, and so
        /// does the whole solve: labels and the modularity's bits. Inputs
        /// are multigraphs with duplicate entries, self loops, zero and
        /// negative weights, isolated nodes, and `n` of 0 and 1.
        #[test]
        fn phases_and_result_equal_the_oracles(
            n in 0usize..24,
            raw in proptest::collection::vec((0u32..10_000, 0u32..10_000, 0u32..9), 0..220),
        ) {
            let adj = multigraph(n, &raw);
            let wg = WGraph::from_adjacency(&adj);
            prop_assert_eq!(wg.bits(), WGraph::from_adjacency_oracle(&adj).bits());
            let config = LouvainConfig::default();
            let moved = local_moving(&wg, &config);
            prop_assert_eq!(&moved, &local_moving_oracle(&wg, &config));
            // Aggregation on the solver's own labels and on arbitrary ones.
            let arbitrary: Vec<u32> = (0..n)
                .map(|v| raw.get(v).map_or(0, |e| e.0 % 5))
                .collect();
            for labels in [compact_labels(&moved.0), compact_labels(&arbitrary)] {
                prop_assert_eq!(
                    aggregate(&wg, &labels).bits(),
                    aggregate_oracle(&wg, &labels).bits()
                );
            }
            let new = solve(wg, config, local_moving, aggregate);
            let old = solve(
                WGraph::from_adjacency_oracle(&adj),
                config,
                local_moving_oracle,
                aggregate_oracle,
            );
            prop_assert_eq!(
                (new.community, new.num_communities, new.modularity.to_bits()),
                (old.community, old.num_communities, old.modularity.to_bits())
            );
        }
    }

    /// Two 8-cliques joined by a single edge.
    fn two_cliques() -> Graph {
        let mut edges = Vec::new();
        for base in [0u32, 8] {
            for i in 0..8u32 {
                for j in 0..8u32 {
                    if i != j {
                        edges.push((base + i, base + j));
                    }
                }
            }
        }
        edges.push((0, 8));
        edges.push((8, 0));
        Graph::from_edges(16, &edges)
    }

    #[test]
    fn separates_two_cliques() {
        let res = louvain(&two_cliques(), LouvainConfig::default());
        assert_eq!(res.num_communities, 2);
        let c0 = res.community[0];
        for v in 0..8 {
            assert_eq!(res.community[v], c0, "node {v}");
        }
        for v in 8..16 {
            assert_ne!(res.community[v], c0, "node {v}");
        }
        assert!(res.modularity > 0.3, "modularity {}", res.modularity);
    }

    #[test]
    fn handles_singletons_and_empty_graphs() {
        let g = Graph::from_edges(5, &[]);
        let res = louvain(&g, LouvainConfig::default());
        assert_eq!(res.community.len(), 5);
        assert_eq!(res.num_communities, 5);
    }

    #[test]
    fn ring_of_cliques_finds_each_clique() {
        // 4 triangles connected in a ring.
        let mut edges = Vec::new();
        for t in 0..4u32 {
            let b = t * 3;
            for i in 0..3 {
                for j in 0..3 {
                    if i != j {
                        edges.push((b + i, b + j));
                    }
                }
            }
            let nb = ((t + 1) % 4) * 3;
            edges.push((b, nb));
            edges.push((nb, b));
        }
        let g = Graph::from_edges(12, &edges);
        let res = louvain(&g, LouvainConfig::default());
        assert_eq!(res.num_communities, 4, "{:?}", res.community);
        for t in 0..4 {
            let b = t * 3;
            assert_eq!(res.community[b], res.community[b + 1]);
            assert_eq!(res.community[b], res.community[b + 2]);
        }
    }

    #[test]
    fn modularity_of_everything_in_one_community_is_zero_ish() {
        let wg = WGraph::from_adjacency(two_cliques().adjacency());
        let all_one = vec![0u32; 16];
        let q = modularity_of(&wg, &all_one);
        assert!(q.abs() < 1e-9, "Q = {q}");
    }

    #[test]
    fn compact_labels_renumbers_in_first_seen_order() {
        assert_eq!(compact_labels(&[5, 5, 2, 7, 2]), vec![0, 0, 1, 2, 1]);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = two_cliques();
        let a = louvain(&g, LouvainConfig::default());
        let b = louvain(&g, LouvainConfig::default());
        assert_eq!(a.community, b.community);
    }
}
