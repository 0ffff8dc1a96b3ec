//! Degree-variance family for the sensitivity study of Fig. 12.
//!
//! The paper selects 10 graphs from the graph-sampling dataset whose
//! average node degree sits between 21 and 25 but whose degree standard
//! deviations differ widely, then correlates speedup-over-GE-SpMM with the
//! standard deviation (Pearson's r = 0.90). This module generates exactly
//! such a family: fixed mean degree, log-normal degree spread swept from
//! near-regular to heavily skewed.

use hpsparse_sparse::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates `count` graphs of `nodes` nodes with mean row degree
/// ≈ `avg_degree` and increasing degree standard deviation.
///
/// Row `i`'s length is drawn from a log-normal distribution whose `sigma`
/// sweeps from 0.05 (near-regular) to 1.5 (heavy-tailed); `mu` is set to
/// `ln(avg) − sigma²/2` so the mean stays fixed while the variance grows.
pub fn variance_family(nodes: usize, avg_degree: f64, count: usize, seed: u64) -> Vec<Graph> {
    assert!(count >= 1);
    assert!(avg_degree >= 1.0);
    (0..count)
        .map(|i| {
            let sigma = 0.05 + 1.45 * i as f64 / (count.max(2) - 1) as f64;
            let mu = avg_degree.ln() - sigma * sigma / 2.0;
            let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9));
            lognormal_degree_graph(nodes, mu, sigma, &mut rng)
        })
        .collect()
}

/// Builds a graph whose row (destination) degrees follow
/// `LogNormal(mu, sigma)`, clamped to `[1, nodes/4]`.
fn lognormal_degree_graph(nodes: usize, mu: f64, sigma: f64, rng: &mut StdRng) -> Graph {
    let cap = (nodes / 4).max(2);
    let mut edges = Vec::new();
    for dst in 0..nodes as u32 {
        let z = box_muller(rng.random(), rng.random());
        let d = (mu + sigma * z).exp().round().clamp(1.0, cap as f64) as usize;
        let mut targets = std::collections::HashSet::with_capacity(d);
        let mut guard = 0;
        while targets.len() < d && guard < d * 8 {
            guard += 1;
            let src = rng.random_range(0..nodes) as u32;
            if src != dst {
                targets.insert(src);
            }
        }
        for src in targets {
            edges.push((dst, src));
        }
    }
    Graph::from_edges(nodes, &edges)
}

/// Smallest `u1` [`box_muller`] takes the logarithm of: the radius stays
/// finite at `u1 = 0`, and the tail ends at `sqrt(-2 ln 1e-12)` ≈ 7.4 σ.
pub(crate) const U1_FLOOR: f64 = 1e-12;

/// Box–Muller standard normal from two uniforms in `[0, 1)`, on libm's
/// `ln` and `cos`. The one formula of the crate: the variance family
/// takes it as is, and every feature is its bits rounded to `f32`
/// (`features` evaluates it without libm where that provably gives the
/// same `f32`).
pub(crate) fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.max(U1_FLOOR).ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_sparse::DegreeStats;

    #[test]
    fn family_keeps_mean_and_grows_std() {
        let fam = variance_family(4000, 23.0, 6, 17);
        let stats: Vec<DegreeStats> = fam.iter().map(|g| DegreeStats::of(g.adjacency())).collect();
        for s in &stats {
            assert!(
                s.mean > 17.0 && s.mean < 29.0,
                "mean degree {} outside the paper's 21-25 band (±tolerance)",
                s.mean
            );
        }
        // Standard deviation must be (weakly) increasing end-to-end.
        assert!(
            stats.last().unwrap().std_dev > 3.0 * stats[0].std_dev,
            "std did not grow: first {} last {}",
            stats[0].std_dev,
            stats.last().unwrap().std_dev
        );
    }

    #[test]
    fn family_is_deterministic() {
        let a = variance_family(1000, 23.0, 3, 5);
        let b = variance_family(1000, 23.0, 3, 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.adjacency(), y.adjacency());
        }
    }

    #[test]
    fn standard_normal_has_sane_moments() {
        let mut rng = StdRng::seed_from_u64(0);
        let n = 20_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| box_muller(rng.random(), rng.random()))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn degrees_are_clamped() {
        let fam = variance_family(400, 23.0, 2, 9);
        for g in &fam {
            for v in 0..g.num_nodes() {
                assert!(g.degree(v) <= 100); // nodes/4
            }
        }
    }
}
