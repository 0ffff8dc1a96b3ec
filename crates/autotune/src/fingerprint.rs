//! Graph fingerprints: the cache key of the planning subsystem.
//!
//! A fingerprint condenses everything the planner's decision depends on —
//! the sparse matrix's shape and degree distribution (the paper's
//! load-imbalance proxies, §IV-E), the feature dimension `K`, and the
//! device identity — into a small stable record with a 64-bit hash key.
//! Two inputs with equal fingerprints get the same plan, so the floats
//! entering the hash are quantised: micro-differences in degree statistics
//! must not fragment the cache.

use hpsparse_core::catalog::Op;
use hpsparse_sim::DeviceSpec;
use hpsparse_sparse::{DegreeStats, Hybrid};

/// Everything the planner looks at, condensed. Obtain via
/// [`GraphFingerprint::of`].
#[derive(Debug, Clone, PartialEq)]
pub struct GraphFingerprint {
    /// Rows of the sparse matrix (destination nodes).
    pub rows: usize,
    /// Columns (source nodes).
    pub cols: usize,
    /// Non-zeros (edges).
    pub nnz: usize,
    /// Mean row degree.
    pub mean_degree: f64,
    /// Largest row degree — the critical path of row-parallel kernels.
    pub max_degree: usize,
    /// Population standard deviation of row degree.
    pub degree_std: f64,
    /// Coefficient of variation (`std / mean`; the paper's Fig. 12 axis).
    pub degree_cv: f64,
    /// Tail heaviness: `max_degree / mean_degree` (0 for empty matrices).
    /// Distinguishes a single hub row from uniformly spread skew at equal
    /// CV.
    pub tail_heaviness: f64,
    /// Feature dimension the kernels will run at.
    pub k: usize,
    /// Device name (plans are device-specific).
    pub device: &'static str,
    /// SM count, folded into the key so renamed-but-different specs never
    /// alias.
    pub num_sms: u32,
}

impl GraphFingerprint {
    /// Fingerprints a matrix for SpMM/SDDMM at feature dimension `k` on
    /// `device`. Total cost is one pass over the row indices plus an
    /// O(rows) pass, with no copy of the matrix; never panics, including on
    /// matrices with 0 rows or 0 non-zeros.
    pub fn of(s: &Hybrid, k: usize, device: &DeviceSpec) -> Self {
        Self::from_stats(s, DegreeStats::of_hybrid(s), k, device)
    }

    fn from_stats(s: &Hybrid, stats: DegreeStats, k: usize, device: &DeviceSpec) -> Self {
        Self {
            rows: s.rows(),
            cols: s.cols(),
            nnz: s.nnz(),
            mean_degree: stats.mean,
            max_degree: stats.max,
            degree_std: stats.std_dev,
            degree_cv: stats.cv,
            tail_heaviness: if stats.mean > 0.0 {
                stats.max as f64 / stats.mean
            } else {
                0.0
            },
            k,
            device: device.name,
            num_sms: device.num_sms,
        }
    }

    /// Canonical textual encoding — the hash pre-image, also persisted in
    /// the plan cache so saved entries are self-describing. Floats are
    /// quantised to 3 decimal places.
    pub fn canonical_encoding(&self) -> String {
        format!(
            "fp-v1|rows={}|cols={}|nnz={}|mean={:.3}|max={}|std={:.3}|cv={:.3}|tail={:.3}|k={}|device={}|sms={}",
            self.rows,
            self.cols,
            self.nnz,
            self.mean_degree,
            self.max_degree,
            self.degree_std,
            self.degree_cv,
            self.tail_heaviness,
            self.k,
            self.device,
            self.num_sms,
        )
    }

    /// Stable 64-bit cache key: FNV-1a over [`Self::canonical_encoding`].
    /// Stable across runs, platforms and (barring an encoding version
    /// bump) releases — the property persisted caches rely on.
    pub fn key(&self) -> u64 {
        fnv1a(&self.canonical_encoding())
    }

    /// The plan-cache key of `op` on this input and the encoding it hashes.
    /// SpMM and SDDMM plans key on [`Self::canonical_encoding`]; an
    /// attention plan (`k` = head dimension) also on `heads`, which
    /// multiplies every traffic term and so changes the fuse/no-fuse
    /// decision.
    pub fn cache_entry(&self, op: Op, heads: usize) -> (u64, String) {
        let mut encoding = self.canonical_encoding();
        if op == Op::FusedMha {
            encoding.push_str(&format!("|heads={heads}"));
        }
        (fnv1a(&encoding), encoding)
    }
}

pub(crate) fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn power_law_ish() -> Hybrid {
        let mut t = Vec::new();
        for c in 0..64u32 {
            t.push((0, c, 1.0)); // hub row
        }
        for r in 1..32u32 {
            t.push((r, r % 64, 1.0));
        }
        Hybrid::from_triplets(32, 64, &t).unwrap()
    }

    #[test]
    fn fingerprint_captures_shape_and_skew() {
        let s = power_law_ish();
        let fp = GraphFingerprint::of(&s, 64, &DeviceSpec::v100());
        assert_eq!((fp.rows, fp.cols, fp.nnz), (32, 64, 95));
        assert_eq!(fp.max_degree, 64);
        assert!(fp.degree_cv > 1.0, "hub row should dominate the variance");
        assert!(fp.tail_heaviness > 10.0);
        assert_eq!(fp.device, "Tesla V100");
    }

    #[test]
    fn key_is_stable_and_discriminates() {
        let s = power_law_ish();
        let v100 = DeviceSpec::v100();
        let a = GraphFingerprint::of(&s, 64, &v100);
        let b = GraphFingerprint::of(&s, 64, &v100);
        assert_eq!(a, b);
        assert_eq!(a.key(), b.key());
        // K, device, and the matrix all separate keys.
        assert_ne!(a.key(), GraphFingerprint::of(&s, 32, &v100).key());
        assert_ne!(
            a.key(),
            GraphFingerprint::of(&s, 64, &DeviceSpec::a30()).key()
        );
        let denser = Hybrid::from_triplets(32, 64, &[(0, 0, 1.0)]).unwrap();
        assert_ne!(a.key(), GraphFingerprint::of(&denser, 64, &v100).key());
    }

    #[test]
    fn cache_entries_separate_head_counts_for_attention_only() {
        let s = power_law_ish();
        let fp = GraphFingerprint::of(&s, 64, &DeviceSpec::v100());
        let mha = |heads| fp.cache_entry(Op::FusedMha, heads);
        assert_eq!(mha(4), mha(4));
        assert_ne!(mha(1).0, mha(4).0);
        assert_ne!(mha(1).0, fp.key(), "heads=1 is still a distinct op");
        assert!(mha(4).1.ends_with("|heads=4"));
        for op in [Op::Spmm, Op::Sddmm] {
            assert_eq!(fp.cache_entry(op, 4), (fp.key(), fp.canonical_encoding()));
        }
    }

    #[test]
    fn quantisation_absorbs_float_noise() {
        let fp = GraphFingerprint {
            rows: 10,
            cols: 10,
            nnz: 30,
            mean_degree: 3.0,
            max_degree: 5,
            degree_std: 1.0,
            degree_cv: 1.0 / 3.0,
            tail_heaviness: 5.0 / 3.0,
            k: 64,
            device: "Tesla V100",
            num_sms: 80,
        };
        let mut nudged = fp.clone();
        nudged.mean_degree += 1e-9;
        nudged.degree_cv += 1e-9;
        assert_eq!(fp.key(), nudged.key());
    }

    fn degenerate() -> [Hybrid; 3] {
        [
            Hybrid::from_triplets(0, 0, &[]).unwrap(),
            Hybrid::from_triplets(5, 5, &[]).unwrap(),
            Hybrid::from_triplets(1, 1, &[(0, 0, 1.0)]).unwrap(),
        ]
    }

    /// Persisted plan caches are keyed by `key()`: reading the degree
    /// statistics off the hybrid's row indices must give, bit for bit,
    /// what the CSR conversion gave.
    #[test]
    fn statistics_and_keys_equal_the_csr_route() {
        let v100 = DeviceSpec::v100();
        let quick_registry = hpsparse_datasets::registry::full_graph_dataset()
            .into_iter()
            .map(|spec| spec.generate(200_000).to_hybrid());
        for s in quick_registry.chain(degenerate()) {
            let direct = DegreeStats::of_hybrid(&s);
            let via_csr = DegreeStats::of(&s.to_csr());
            assert_eq!(direct, via_csr);
            for (a, b) in [
                (direct.mean, via_csr.mean),
                (direct.std_dev, via_csr.std_dev),
                (direct.cv, via_csr.cv),
            ] {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            let fp = GraphFingerprint::of(&s, 64, &v100);
            let old = GraphFingerprint::from_stats(&s, via_csr, 64, &v100);
            assert_eq!(fp.canonical_encoding(), old.canonical_encoding());
            assert_eq!(fp.key(), old.key());
        }
    }

    #[test]
    fn degenerate_matrices_fingerprint_cleanly() {
        let v100 = DeviceSpec::v100();
        for s in degenerate() {
            let fp = GraphFingerprint::of(&s, 64, &v100);
            assert!(fp.mean_degree.is_finite());
            assert!(fp.tail_heaviness.is_finite());
            let _ = fp.key();
        }
    }
}
