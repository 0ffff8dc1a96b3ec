//! Cross-crate consistency: every kernel — HP and all baselines — must
//! compute the same SpMM / SDDMM as the sequential reference, across
//! formats and feature widths. `CpuBackend` runs these kernels'
//! accumulation orders, so it is covered here too.

use hpsparse::datasets::generators::{GeneratorConfig, Topology};
use hpsparse::kernels::baselines::{
    all_sddmm, all_spmm, Aspt, CusparseCooAlg4, CusparseCsrAlg2, CusparseCsrAlg3, CusparseCsrSddmm,
    DglSddmm, GeSpmm, Huang, MergePath, RowSplit, Sputnik, TcGnn,
};
use hpsparse::kernels::hp::{HpConfig, HpFusedMha, HpSddmm, HpSpmm};
use hpsparse::kernels::{SddmmKernel, SpmmKernel};
use hpsparse::sim::DeviceSpec;
use hpsparse::sparse::{reference, Dense, Graph, Hybrid};

fn test_graph(seed: u64, topology: Topology) -> Graph {
    GeneratorConfig {
        nodes: 800,
        edges: 8_000,
        topology,
        seed,
    }
    .generate()
}

fn features(rows: usize, k: usize, phase: f32) -> Dense {
    Dense::from_fn(rows, k, |i, j| ((i * k + j) as f32 * 1e-2 + phase).sin())
}

fn all_spmm_kernels() -> Vec<Box<dyn SpmmKernel>> {
    vec![
        Box::new(CusparseCsrAlg2),
        Box::new(CusparseCsrAlg3),
        Box::new(CusparseCooAlg4),
        Box::new(GeSpmm),
        Box::new(RowSplit),
        Box::new(MergePath::default()),
        Box::new(Aspt::default()),
        Box::new(Sputnik::default()),
        Box::new(Huang::default()),
        Box::new(TcGnn::default()),
    ]
}

#[test]
fn every_spmm_kernel_matches_the_reference_on_every_topology() {
    let v100 = DeviceSpec::v100();
    for (seed, topology) in [
        (1, Topology::PowerLaw { alpha: 2.1 }),
        (2, Topology::Uniform),
        (
            3,
            Topology::Community {
                communities: 16,
                p_in: 0.8,
                alpha: 2.4,
            },
        ),
    ] {
        let g = test_graph(seed, topology);
        let s = g.to_hybrid();
        let a = features(s.cols(), 64, seed as f32);
        let expected = reference::spmm(&s, &a).unwrap();

        let hp = HpSpmm::auto(&v100, &s, 64).run(&v100, &s, &a).unwrap();
        assert!(
            hp.output.approx_eq(&expected, 1e-4, 1e-4),
            "HP-SpMM mismatch on {topology:?}"
        );
        for kernel in all_spmm_kernels() {
            let run = kernel.run(&v100, &s, &a).unwrap();
            assert!(
                run.output.approx_eq(&expected, 1e-4, 1e-4),
                "{} mismatch on {topology:?}",
                kernel.name()
            );
            assert!(run.report.cycles > 0, "{} reported no work", kernel.name());
        }
    }
}

#[test]
fn spmm_agrees_across_feature_widths() {
    let v100 = DeviceSpec::v100();
    let g = test_graph(5, Topology::PowerLaw { alpha: 2.3 });
    let s = g.to_hybrid();
    for k in [1usize, 7, 16, 32, 33, 64, 100, 128, 256] {
        let a = features(s.cols(), k, 0.5);
        let expected = reference::spmm(&s, &a).unwrap();
        let hp = HpSpmm::auto(&v100, &s, k).run(&v100, &s, &a).unwrap();
        assert!(hp.output.approx_eq(&expected, 1e-4, 1e-4), "HP K={k}");
        // ALG2's order alone, without its cost walk: what `CpuBackend` runs.
        let alg2 = CusparseCsrAlg2.accumulate(&s, &a).unwrap();
        assert!(alg2.approx_eq(&expected, 1e-4, 1e-4), "ALG2 order K={k}");
    }
}

#[test]
fn every_sddmm_kernel_matches_the_reference() {
    let v100 = DeviceSpec::v100();
    let g = test_graph(9, Topology::PowerLaw { alpha: 2.2 });
    let s = g.to_hybrid();
    for k in [16usize, 64, 96] {
        let a1 = features(s.rows(), k, 0.1);
        let a2t = features(s.cols(), k, 0.7);
        let expected = reference::sddmm_transposed(&s, &a1, &a2t).unwrap();
        let kernels: Vec<Box<dyn SddmmKernel>> = vec![
            Box::new(HpSddmm::auto(&v100, &s, k)),
            Box::new(DglSddmm),
            Box::new(CusparseCsrSddmm),
        ];
        for kernel in kernels {
            let run = kernel.run(&v100, &s, &a1, &a2t).unwrap();
            assert_eq!(run.output_values.len(), expected.len());
            for (i, (x, y)) in run.output_values.iter().zip(&expected).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-3 * x.abs().max(y.abs()).max(1.0),
                    "{} K={k} element {i}: {x} vs {y}",
                    kernel.name()
                );
            }
        }
    }
}

#[test]
fn devices_agree_numerically_but_not_on_time() {
    // The same kernel on V100 vs A30 must produce identical numerics and
    // (in general) different timing.
    let g = test_graph(13, Topology::PowerLaw { alpha: 2.2 });
    let s = g.to_hybrid();
    let a = features(s.cols(), 64, 0.0);
    let v100 = DeviceSpec::v100();
    let a30 = DeviceSpec::a30();
    let r1 = HpSpmm::auto(&v100, &s, 64).run(&v100, &s, &a).unwrap();
    let r2 = HpSpmm::auto(&a30, &s, 64).run(&a30, &s, &a).unwrap();
    assert_eq!(r1.output, r2.output);
    // A30 has 4x the L2: on this cache-sensitive workload its report
    // should differ somewhere.
    assert!(
        r1.report.time_ms != r2.report.time_ms || r1.report.l2_hit_rate != r2.report.l2_hit_rate
    );
}

#[test]
fn hybrid_format_roundtrips_through_every_path() {
    let g = test_graph(21, Topology::Uniform);
    let csr = g.adjacency().clone();
    let hybrid = csr.to_hybrid();
    assert_eq!(hybrid.to_csr(), csr);
    // The same triplets in a fixed pseudo-random order (xorshift
    // Fisher–Yates) sort back into the CSR route's matrix.
    let mut triplets: Vec<(u32, u32, f32)> = csr.iter().collect();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..triplets.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        triplets.swap(i, (state % (i as u64 + 1)) as usize);
    }
    assert_ne!(triplets, csr.iter().collect::<Vec<_>>(), "not shuffled");
    let shuffled = Hybrid::from_triplets(csr.rows(), csr.cols(), &triplets).unwrap();
    assert_eq!(shuffled, hybrid);
}

#[test]
fn simulated_kernels_are_deterministic() {
    let v100 = DeviceSpec::v100();
    let g = test_graph(33, Topology::PowerLaw { alpha: 2.0 });
    let s = g.to_hybrid();
    let a = features(s.cols(), 32, 0.2);
    let r1 = HpSpmm::auto(&v100, &s, 32).run(&v100, &s, &a).unwrap();
    let r2 = HpSpmm::auto(&v100, &s, 32).run(&v100, &s, &a).unwrap();
    assert_eq!(r1.report.cycles, r2.report.cycles);
    assert_eq!(r1.report.totals, r2.report.totals);
    assert_eq!(r1.output, r2.output);
}

/// The seeded power-law graph the recorded output bits below were taken
/// on, with signed non-unit values. The shape facts the record relies on
/// are asserted, not assumed.
fn pinned_graph() -> Hybrid {
    let mut s = GeneratorConfig {
        nodes: 1_500,
        edges: 14_000,
        topology: Topology::PowerLaw { alpha: 1.9 },
        seed: 18,
    }
    .generate()
    .to_hybrid();
    let values = (0..s.nnz())
        .map(|j| ((j * 37 + 11) % 401) as f32 * 5e-3 - 1.0)
        .collect();
    s.set_values(values);
    let csr = s.to_csr();
    let longest = (0..csr.rows()).map(|r| csr.row_len(r)).max().unwrap();
    assert!(longest > 2 * 256, "a hub row every splitting kernel splits");
    assert!((0..csr.rows()).any(|r| (33..256).contains(&csr.row_len(r))));
    assert!(
        (0..csr.rows()).any(|r| csr.row_len(r) == 0),
        "isolated rows"
    );
    assert!(!s.nnz().is_multiple_of(32), "ragged last chunk");
    s
}

fn pinned_features(rows: usize, k: usize, salt: usize) -> Dense {
    Dense::from_fn(rows, k, |i, j| {
        ((i * 131 + j * 17 + salt * 29) % 1000) as f32 * 2e-3 - 1.0
    })
}

fn fnv_of_bits(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// K values of [`RECORDED_OUTPUT_BITS`]' columns: an odd width (ragged
/// K-slices, no vector loads), the benchmark default, and two K-slices of
/// the widest vector width.
const RECORDED_KS: [usize; 3] = [33, 64, 128];

/// FNV-1a over `to_bits()` of every kernel's output on [`pinned_graph`],
/// one column per [`RECORDED_KS`] entry, taken from the commit before the
/// float loops left the warp closures (PR 18). A kernel's accumulation
/// order is part of its contract: these must hold in debug and `--release`
/// at any `RAYON_NUM_THREADS`.
const RECORDED_OUTPUT_BITS: [(&str, [u64; 3]); 15] = [
    (
        "hp-spmm",
        [0xd8c8d5dcffce3fc2, 0x89d3f43c703f570c, 0x0479a53f9a5eacbd],
    ),
    (
        "cusparse-csr-alg2",
        [0x67912e92b732bb06, 0x412d70ea442bffb1, 0xcc1439b31ff9b7c0],
    ),
    (
        "cusparse-csr-alg3",
        [0x4bfc7350eb631dd6, 0xba804ed4b086819a, 0xb9f8d215a1572f69],
    ),
    (
        "cusparse-coo-alg4",
        [0x4bfc7350eb631dd6, 0xba804ed4b086819a, 0xb9f8d215a1572f69],
    ),
    (
        "gespmm",
        [0x4bfc7350eb631dd6, 0xba804ed4b086819a, 0xb9f8d215a1572f69],
    ),
    (
        "row-split",
        [0x4bfc7350eb631dd6, 0xba804ed4b086819a, 0xb9f8d215a1572f69],
    ),
    (
        "merge-path",
        [0x8c1c4cb3e4bcfb9a, 0xc912522890cfc61e, 0xeb9d08a177a587bc],
    ),
    (
        "aspt",
        [0x67912e92b732bb06, 0x412d70ea442bffb1, 0xcc1439b31ff9b7c0],
    ),
    (
        "sputnik",
        [0x4bfc7350eb631dd6, 0xba804ed4b086819a, 0xb9f8d215a1572f69],
    ),
    (
        "huang",
        [0x72aa0f66a8f67e12, 0x84a2351bf183b226, 0x20599fbaf7a41848],
    ),
    (
        "tcgnn",
        [0x4bfc7350eb631dd6, 0xba804ed4b086819a, 0xb9f8d215a1572f69],
    ),
    (
        "cusparse-blocked-ell",
        [0x4bfc7350eb631dd6, 0xba804ed4b086819a, 0xb9f8d215a1572f69],
    ),
    (
        "hp-sddmm",
        [0xcb7ec85b18587ed8, 0x8688f41f58f7f847, 0xb524190b23690a27],
    ),
    (
        "dgl-sddmm",
        [0xcb7ec85b18587ed8, 0x8688f41f58f7f847, 0xb524190b23690a27],
    ),
    (
        "cusparse-csr-sddmm",
        [0xcb7ec85b18587ed8, 0x8688f41f58f7f847, 0xb524190b23690a27],
    ),
];

#[test]
fn kernel_outputs_keep_their_recorded_bits() {
    let v100 = DeviceSpec::v100();
    let s = pinned_graph();
    let mut got = RECORDED_OUTPUT_BITS.map(|(id, _)| (id, [0u64; 3]));
    let mut record = |id: &str, col: usize, bits: u64| {
        let row = got.iter_mut().find(|(i, _)| *i == id);
        row.unwrap_or_else(|| panic!("{id} has no recorded bits")).1[col] = bits;
    };
    for (col, k) in RECORDED_KS.into_iter().enumerate() {
        let a = pinned_features(s.cols(), k, 0);
        let a1 = pinned_features(s.rows(), k, 1);
        let mut spmm: Vec<(&str, Box<dyn SpmmKernel>)> =
            vec![("hp-spmm", Box::new(HpSpmm::auto(&v100, &s, k)))];
        spmm.extend(all_spmm());
        for (id, kernel) in spmm {
            let run = kernel.run(&v100, &s, &a).unwrap();
            record(id, col, fnv_of_bits(run.output.data()));
        }
        let mut sddmm: Vec<(&str, Box<dyn SddmmKernel>)> =
            vec![("hp-sddmm", Box::new(HpSddmm::auto(&v100, &s, k)))];
        sddmm.extend(all_sddmm());
        for (id, kernel) in sddmm {
            let run = kernel.run(&v100, &s, &a1, &a).unwrap();
            record(id, col, fnv_of_bits(&run.output_values));
        }
    }
    for ((id, got), (_, want)) in got.iter().zip(&RECORDED_OUTPUT_BITS) {
        assert_eq!(got, want, "{id}: got {got:#018x?}");
    }
}

/// One recorded fused-attention run: `(heads, head_dim, explicit config)`
/// on both sides of the streaming-hint policy. `None` is
/// [`HpFusedMha::auto`] (`NnzPerWarp` 8 on [`pinned_graph`]); the explicit
/// configuration has 4-warp blocks, so cooperative rows need idle padding.
const FUSED_CASES: [(usize, usize, Option<HpConfig>); 4] = [
    (1, 33, None),
    (2, 64, None),
    (4, 32, None),
    (
        2,
        64,
        Some(HpConfig {
            nnz_per_warp: 128,
            vector_width: 4,
            warps_per_block: 4,
            alpha: 4.0,
        }),
    ),
];

/// `(outputs, attention weights, launch reports, cycles, DRAM bytes,
/// spilled rows)` of one fused-attention run.
type FusedRecord = (u64, u64, u64, u64, u64, usize);

/// Per [`FUSED_CASES`] entry, cached then streaming: FNV-1a over the
/// output bits of every head, over the attention-weight bits of every
/// head, and over the `Debug` text of every [`LaunchReport`] (cycles,
/// totals, DRAM sectors, schedule — every field), then total cycles, DRAM
/// bytes and spilled rows in the clear. Taken from the commit before the
/// fused kernel's floats left its launch closures (PR 20); the same
/// contract as [`RECORDED_OUTPUT_BITS`].
const RECORDED_FUSED_MHA: [[FusedRecord; 2]; 4] = [
    [
        (
            0x01f9d606a98bed42,
            0xe14f850eeb78e84f,
            0x1a5dd0424990bd0c,
            57623,
            948064,
            2,
        ),
        (
            0x01f9d606a98bed42,
            0xe14f850eeb78e84f,
            0x90c7285f23fe65c8,
            80346,
            1200992,
            2,
        ),
    ],
    [
        (
            0xab95c2726a96e8d1,
            0xef194e536af455f8,
            0xefbc049069afc71a,
            86306,
            3132608,
            2,
        ),
        (
            0xab95c2726a96e8d1,
            0xef194e536af455f8,
            0x3af138930e6b926c,
            210095,
            6500352,
            2,
        ),
    ],
    [
        (
            0x2110b2596816b74a,
            0x334e1a9733bde0c4,
            0xa9e0ae736480c779,
            61685,
            3261184,
            2,
        ),
        (
            0x2110b2596816b74a,
            0x334e1a9733bde0c4,
            0x80c847c528f4772b,
            124665,
            5332480,
            2,
        ),
    ],
    [
        (
            0xab95c2726a96e8d1,
            0xef194e536af455f8,
            0x0cb9eb6ab69941b8,
            99984,
            3150272,
            2,
        ),
        (
            0xab95c2726a96e8d1,
            0xef194e536af455f8,
            0xf5afea025941b101,
            221804,
            6479744,
            2,
        ),
    ],
];

#[test]
fn fused_attention_keeps_its_recorded_bits_and_reports() {
    // `pinned_graph` ends on a full 8-element tile; three elements fewer
    // leave the last tile ragged.
    let full = pinned_graph();
    let keep = full.nnz() - 3;
    let s = Hybrid::from_sorted_parts(
        full.rows(),
        full.cols(),
        full.row_indices()[..keep].to_vec(),
        full.col_indices()[..keep].to_vec(),
        full.values()[..keep].to_vec(),
    )
    .unwrap();
    let csr = s.to_csr();
    let row_lens: Vec<usize> = (0..csr.rows()).map(|r| csr.row_len(r)).collect();
    let cached = DeviceSpec::v100();
    let streaming = DeviceSpec {
        l2_bytes: 256 * 1024,
        ..DeviceSpec::v100()
    };
    let mut got: [[FusedRecord; 2]; 4] = Default::default();
    for (case, (heads, d, config)) in FUSED_CASES.into_iter().enumerate() {
        // One head's footprint (Q + K + V + O + triplets + weights) sits
        // between the two L2 sizes, so the pair straddles the policy.
        let footprint = ((2 * s.rows() + 2 * s.cols()) * d * 4 + 16 * s.nnz()) as u64;
        assert!(streaming.l2_bytes < footprint && footprint <= cached.l2_bytes);
        let [q, k, v] = [0, 1, 2].map(|salt| -> Vec<Dense> {
            let rows = if salt == 0 { s.rows() } else { s.cols() };
            (0..heads)
                .map(|h| pinned_features(rows, d, 3 * h + salt))
                .collect()
        });
        for (side, device) in [&cached, &streaming].into_iter().enumerate() {
            let kernel = config.map_or_else(|| HpFusedMha::auto(device, &s, d), HpFusedMha::new);
            let npw = kernel.config.nnz_per_warp;
            // The shape facts the record relies on: solo tiles with a
            // ragged last one, cooperative rows, spilled rows, empty rows.
            let last_tile = row_lens.iter().fold(0, |fill, &len| match len {
                _ if len > npw => 0,
                _ if fill + len > npw => len,
                _ => fill + len,
            });
            assert!((1..npw).contains(&last_tile), "ragged last tile");
            assert!(row_lens.iter().any(|&l| l > npw && l <= 512), "coop rows");
            assert!(row_lens.contains(&0), "isolated rows");
            let spills = row_lens.iter().filter(|&&l| l > 512).count();
            assert!(spills > 0, "spilled rows");

            let run = kernel.run(device, &s, &q, &k, &v).unwrap();
            assert_eq!(run.launches.exec.len(), 3, "main launch + spill pair");
            assert_eq!(HpFusedMha::spilled_rows(&s), spills);
            let outputs: Vec<f32> = run
                .outputs
                .iter()
                .flat_map(|o| o.data().iter().copied())
                .collect();
            // The reports were recorded before `WarpCounters` counted
            // Tensor-Core MMAs apart; the fused kernel issues none, so its
            // zero count is the one text the recording lacks (any other
            // count stays in the hashed text).
            let reports = run
                .launches
                .exec
                .iter()
                .fold(0xcbf2_9ce4_8422_2325, |h, r| {
                    let text = format!("{r:?}").replacen("tensor_mmas: 0, ", "", 1);
                    text.bytes().fold(h, |h: u64, b| {
                        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                    })
                });
            got[case][side] = (
                fnv_of_bits(&outputs),
                fnv_of_bits(&run.attn.concat()),
                reports,
                run.launches.exec_cycles(),
                run.launches.dram_bytes(),
                HpFusedMha::spilled_rows(&s),
            );
        }
    }
    assert_eq!(got, RECORDED_FUSED_MHA, "got {got:#018x?}");
}
