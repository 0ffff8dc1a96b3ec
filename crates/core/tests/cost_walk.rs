//! A kernel is a cost walk plus an accumulation order: both halves held to
//! their contracts.
//!
//! * **Cost-only ≡ full run.** For every kernel — the fused attention
//!   kernel's launches included — `cost_on` reports exactly the `report` /
//!   `preprocess` of `run_on` from the same simulator state
//!   — cold, warm after other launches, and with a recording sink attached
//!   from cold or warm (same declarations, same events) — and
//!   leaves the simulator where the full run leaves it: the next allocation
//!   lands at the same address and the next launch reports the same.
//! * **The numerics routines are their documented order.** Each equals a
//!   scalar, per-column transcription of that order at `to_bits`, with
//!   `±0.0`, NaN and Inf planted in both operands.
//! * **Hostile shapes** go through both entries without a panic.

use hpsparse_core::baselines::{all_sddmm, all_spmm, Aspt, Huang, MergePath};
use hpsparse_core::catalog::{Kernel, Launches, HEADS, KERNELS};
use hpsparse_core::hp::fused_mha::SMEM_SCORE_CAP;
use hpsparse_core::hp::{FusedMhaCost, HpConfig, HpFusedMha, HpSddmm, HpSpmm};
use hpsparse_core::mutants::all_mutants;
use hpsparse_core::numerics::{element_order, masked_dots, segment_sums, segments, Cut};
use hpsparse_core::{KernelCost, SddmmKernel, SpmmKernel};
use hpsparse_sim::{AccessEvent, AccessSink, BufferDecl, DeviceSpec, GpuSim};
use hpsparse_sparse::{Dense, Hybrid};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// Every SpMM kernel: the registry at its defaults, the sanitizer mutants,
/// and the splitting kernels again at bounds small enough that a 40-row
/// matrix has split rows and ragged chunks.
fn spmm_kernels(device: &DeviceSpec, s: &Hybrid, k: usize) -> Vec<Box<dyn SpmmKernel>> {
    let tiny = HpConfig {
        nnz_per_warp: 5,
        vector_width: 2,
        warps_per_block: 4,
        alpha: 2.0,
    };
    let mut kernels: Vec<Box<dyn SpmmKernel>> = vec![
        Box::new(HpSpmm::auto(device, s, k)),
        Box::new(HpSpmm::new(tiny)),
        Box::new(MergePath {
            items_per_segment: 7,
        }),
        Box::new(Huang { group_size: 3 }),
        Box::new(Aspt { panel_rows: 4 }),
    ];
    kernels.extend(all_spmm().into_iter().map(|(_, kernel)| kernel));
    kernels.extend(all_mutants().into_iter().map(|(_, kernel)| kernel));
    kernels
}

fn sddmm_kernels(device: &DeviceSpec, s: &Hybrid, k: usize) -> Vec<Box<dyn SddmmKernel>> {
    let mut kernels: Vec<Box<dyn SddmmKernel>> = vec![
        Box::new(HpSddmm::auto(device, s, k)),
        Box::new(HpSddmm::new(HpConfig {
            nnz_per_warp: 5,
            vector_width: 1,
            warps_per_block: 4,
            alpha: 2.0,
        })),
    ];
    kernels.extend(all_sddmm().into_iter().map(|(_, kernel)| kernel));
    kernels
}

/// What a sink sees, in order.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Begin(String, u64),
    Buffer(BufferDecl),
    Access(AccessEvent),
    End,
}

#[derive(Default, Clone)]
struct Recorder(Arc<Mutex<Vec<Seen>>>);

impl AccessSink for Recorder {
    fn begin_launch(&mut self, kernel: &str, num_warps: u64) {
        self.0
            .lock()
            .unwrap()
            .push(Seen::Begin(kernel.into(), num_warps));
    }
    fn register_buffer(&mut self, decl: &BufferDecl) {
        self.0.lock().unwrap().push(Seen::Buffer(*decl));
    }
    fn record(&mut self, event: &AccessEvent) {
        self.0.lock().unwrap().push(Seen::Access(*event));
    }
    fn end_launch(&mut self) {
        self.0.lock().unwrap().push(Seen::End);
    }
}

/// The simulator states the two entries are compared from.
#[derive(Debug, Clone, Copy)]
enum State {
    Cold,
    /// A persistent simulator that already ran other launches: allocation
    /// cursor advanced, L2 populated.
    Warm,
    /// A recording sink attached: every descriptor expands element-wise.
    ColdWithSink,
    WarmWithSink,
}

impl State {
    fn observed(self) -> bool {
        matches!(self, State::ColdWithSink | State::WarmWithSink)
    }
}

const STATES: [State; 4] = [
    State::Cold,
    State::Warm,
    State::ColdWithSink,
    State::WarmWithSink,
];

/// A small fixed launch pair used to warm a simulator up and, afterwards,
/// to observe the L2 state an entry left behind.
fn other_launches(sim: &mut GpuSim) -> Vec<KernelCost> {
    let s = Hybrid::from_triplets(
        6,
        6,
        &[
            (0, 1, 1.0),
            (0, 4, 2.0),
            (2, 2, 3.0),
            (5, 0, 4.0),
            (5, 5, 5.0),
        ],
    )
    .unwrap();
    let device = sim.device().clone();
    vec![
        HpSpmm::auto(&device, &s, 24).cost_on(sim, &s, 24).unwrap(),
        HpSddmm::auto(&device, &s, 24).cost_on(sim, &s, 24).unwrap(),
    ]
}

fn prepared(device: &DeviceSpec, state: State) -> (GpuSim, Recorder) {
    let mut sim = GpuSim::new(device.clone());
    let recorder = Recorder::default();
    match state {
        State::Cold => {}
        State::ColdWithSink => sim.attach_sink(Box::new(recorder.clone())),
        State::Warm => {
            other_launches(&mut sim);
        }
        State::WarmWithSink => {
            other_launches(&mut sim);
            sim.attach_sink(Box::new(recorder.clone()));
        }
    }
    (sim, recorder)
}

/// Everything observable about a simulator after an entry ran on it.
#[derive(Debug, PartialEq)]
struct Aftermath<C> {
    cost: C,
    seen: Vec<Seen>,
    next_alloc_base: u64,
    next_launches: Vec<KernelCost>,
}

fn aftermath<C>(
    device: &DeviceSpec,
    state: State,
    entry: impl FnOnce(&mut GpuSim) -> C,
) -> Aftermath<C> {
    let (mut sim, recorder) = prepared(device, state);
    let cost = entry(&mut sim);
    sim.detach_sink();
    let seen = std::mem::take(&mut *recorder.0.lock().unwrap());
    Aftermath {
        cost,
        seen,
        next_alloc_base: sim.alloc_elems(1).base(),
        next_launches: other_launches(&mut sim),
    }
}

/// Strategy: a random sparse matrix as (rows, cols, triplets) with a few
/// rows drawn far more often than the rest, so some rows are long enough
/// to split.
fn sparse_matrix() -> impl Strategy<Value = (usize, usize, Vec<(u32, u32, f32)>)> {
    (2usize..40, 2usize..40).prop_flat_map(|(rows, cols)| {
        let triplet =
            (0..2 * rows as u32, 0..cols as u32, 0u32..1000).prop_map(move |(r, c, v)| {
                let row = if r < rows as u32 { r } else { r % 2 };
                (row, c, v as f32 * 0.01 - 5.0)
            });
        proptest::collection::vec(triplet, 0..200).prop_map(move |t| (rows, cols, t))
    })
}

/// Strategy: a 600-column matrix whose row 0 is a hub of `hub` consecutive
/// columns — past [`SMEM_SCORE_CAP`] the fused kernel spills it, below it
/// is block-cooperative or a solo tile — over a scatter of short rows.
/// Returns the hub length with the matrix.
fn hub_matrix() -> impl Strategy<Value = (usize, Hybrid)> {
    // Half the draws below 40, half within 20 of the cap on either side.
    let hub = (0usize..80).prop_map(|x| if x < 40 { x } else { SMEM_SCORE_CAP - 60 + x });
    (2usize..12, hub).prop_flat_map(|(rows, hub)| {
        let scatter = proptest::collection::vec((1..rows as u32, 0u32..600), 0..80);
        scatter.prop_map(move |scatter| {
            let mut triplets: Vec<_> = (0..hub as u32).map(|c| (0, c, 1.0)).collect();
            triplets.extend(scatter.into_iter().map(|(r, c)| (r, c, 0.5)));
            (hub, Hybrid::from_triplets(rows, 600, &triplets).unwrap())
        })
    })
}

/// Floats that break shortcuts: signed zeros (a zero-skip changes a
/// `-0.0 + +0.0`), NaN and both infinities (`0 · Inf`, `Inf − Inf`), and
/// values whose sums round.
const PALETTE: [f32; 10] = [
    0.0,
    -0.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1.0,
    -1.0,
    0.1,
    3.0e7,
    -7.25,
];

fn planted(rows: usize, cols: usize, seed: u32, special_every: u32) -> Dense {
    let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
    Dense::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        let draw = state >> 8;
        if draw.is_multiple_of(special_every) {
            PALETTE[(draw / special_every) as usize % PALETTE.len()]
        } else {
            (draw % 2001) as f32 * 1e-3 - 1.0
        }
    })
}

/// `to_bits` equality, except that any NaN equals any NaN: which operand's
/// payload an `x + y` of two NaNs keeps is the instruction selector's
/// choice, not part of an accumulation order.
fn same_bits(got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("lengths {} vs {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan()) {
            return Err(format!(
                "element {i}: {g:?} ({:#x}) vs {w:?} ({:#x})",
                g.to_bits(),
                w.to_bits()
            ));
        }
    }
    Ok(())
}

/// Segment sums, one column and one float at a time, from explicit
/// segment bounds.
fn oracle_segment_sums(s: &Hybrid, a: &Dense, segs: &[std::ops::Range<usize>]) -> Vec<f32> {
    let k = a.cols();
    let mut out = vec![0f32; s.rows() * k];
    for seg in segs {
        let row = s.row_indices()[seg.start] as usize;
        for kk in 0..k {
            let mut partial = 0f32;
            for j in seg.clone() {
                partial += s.values()[j] * a.get(s.col_indices()[j] as usize, kk);
            }
            out[row * k + kk] += partial;
        }
    }
    out
}

/// The warp loop of Algorithm 3, transcribed: `npw`-element chunks, a
/// flush at every row switch and at the end of the chunk.
fn chunk_segments(s: &Hybrid, npw: usize) -> Vec<std::ops::Range<usize>> {
    let row_ind = s.row_indices();
    let mut segs = Vec::new();
    for chunk in s.chunks(npw) {
        let mut start = chunk.start;
        for j in chunk.clone() {
            if row_ind[j] != row_ind[start] {
                segs.push(start..j);
                start = j;
            }
        }
        if !chunk.is_empty() {
            segs.push(start..chunk.end);
        }
    }
    segs
}

/// `split_row_tasks`, transcribed over the CSR row ranges.
fn row_segments(s: &Hybrid, max_len: usize) -> Vec<std::ops::Range<usize>> {
    let csr = s.to_csr();
    let mut segs = Vec::new();
    for r in 0..csr.rows() {
        let range = csr.row_range(r);
        let mut start = range.start;
        while start < range.end {
            let end = start.saturating_add(max_len).min(range.end);
            segs.push(start..end);
            start = end;
        }
    }
    segs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `cost_on` ≡ `run_on` minus the floats, from every simulator state,
    /// and both leave the simulator in the same state.
    #[test]
    fn cost_only_equals_the_full_run(
        (rows, cols, triplets) in sparse_matrix(),
        k in 1usize..70,
    ) {
        let device = DeviceSpec::v100();
        let s = Hybrid::from_triplets(rows, cols, &triplets).unwrap();
        let a = planted(cols, k, k as u32, u32::MAX);
        let a1 = planted(rows, k, 7 + k as u32, u32::MAX);
        for state in STATES {
            for kernel in spmm_kernels(&device, &s, k) {
                let full = aftermath(&device, state, |sim| {
                    kernel.run_on(sim, &s, &a).unwrap().into_cost()
                });
                let cost = aftermath(&device, state, |sim| kernel.cost_on(sim, &s, k).unwrap());
                prop_assert_eq!(&cost, &full, "{} from {:?}", kernel.name(), state);
                prop_assert_eq!(full.seen.is_empty(), !state.observed());
            }
            for kernel in sddmm_kernels(&device, &s, k) {
                let full = aftermath(&device, state, |sim| {
                    kernel.run_on(sim, &s, &a1, &a).unwrap().into_cost()
                });
                let cost = aftermath(&device, state, |sim| kernel.cost_on(sim, &s, k).unwrap());
                prop_assert_eq!(&cost, &full, "{} from {:?}", kernel.name(), state);
            }
        }
    }

    /// The same for the fused attention kernel's one to three launches, on
    /// matrices with and without spilled rows and on both sides of the
    /// streaming-hint policy (one head's footprint crosses the small L2 as
    /// `d` grows).
    #[test]
    fn fused_attention_cost_only_equals_the_full_run(
        (hub, s) in hub_matrix(),
        d in 1usize..40,
        heads in 1usize..3,
    ) {
        let tiny = HpConfig {
            nnz_per_warp: 5,
            vector_width: 2,
            warps_per_block: 4,
            alpha: 2.0,
        };
        let q: Vec<Dense> = (0..heads as u32).map(|h| planted(s.rows(), d, h, u32::MAX)).collect();
        let kv: Vec<Dense> = (0..heads as u32).map(|h| planted(600, d, 7 + h, u32::MAX)).collect();
        let small_l2 = DeviceSpec { l2_bytes: 64 << 10, ..DeviceSpec::v100() };
        for device in [DeviceSpec::v100(), small_l2] {
            for kernel in [HpFusedMha::auto(&device, &s, d), HpFusedMha::new(tiny)] {
                for state in STATES {
                    let full = aftermath(&device, state, |sim| {
                        let run = kernel.run_on(sim, &s, &q, &kv, &kv).unwrap();
                        FusedMhaCost { reports: run.reports, spilled_rows: run.spilled_rows }
                    });
                    let cost = aftermath(&device, state, |sim| {
                        kernel.cost_on(sim, &s, d, heads).unwrap()
                    });
                    prop_assert_eq!(&cost, &full, "{:?} from {:?}", kernel.config, state);
                    prop_assert_eq!(full.seen.is_empty(), !state.observed());
                    prop_assert_eq!(full.cost.spilled_rows, usize::from(hub > SMEM_SCORE_CAP));
                }
            }
        }
    }

    /// The three numerics routines against scalar transcriptions of their
    /// documented orders, specials planted in `S`, `A`, `A1`.
    #[test]
    fn numerics_equal_their_documented_order(
        (rows, cols, triplets) in sparse_matrix(),
        k in 0usize..40,
        cut in 1usize..12,
        seed in 0u32..1000,
    ) {
        let mut s = Hybrid::from_triplets(rows, cols, &triplets).unwrap();
        let values = planted(1, s.nnz(), seed, 5).into_vec();
        s.set_values(values);
        let a = planted(cols, k, seed + 1, 7);
        let a1 = planted(rows, k, seed + 2, 7);

        for (cut, segs) in [
            (Cut::Every(cut), chunk_segments(&s, cut)),
            (Cut::PerRow(cut), row_segments(&s, cut)),
            (Cut::PerRow(usize::MAX), row_segments(&s, usize::MAX)),
        ] {
            prop_assert_eq!(&segments(s.row_indices(), cut).collect::<Vec<_>>(), &segs);
            let got = segment_sums(&s, &a, cut).unwrap();
            let verdict = same_bits(got.data(), &oracle_segment_sums(&s, &a, &segs));
            prop_assert!(verdict.is_ok(), "{:?}: {:?}", cut, verdict);
        }

        // Element order is the one-element-per-segment limit without the
        // detour through a partial sum.
        let mut want = vec![0f32; rows * k];
        for (r, c, v) in s.iter() {
            for kk in 0..k {
                want[r as usize * k + kk] += v * a.get(c as usize, kk);
            }
        }
        let verdict = same_bits(element_order(&s, &a).unwrap().data(), &want);
        prop_assert!(verdict.is_ok(), "element order: {:?}", verdict);

        let empty_sum: f32 = [0f32; 0].iter().sum();
        let want: Vec<f32> = s
            .iter()
            .map(|(r, c, v)| {
                let mut dot = empty_sum;
                for kk in 0..k {
                    dot += a1.get(r as usize, kk) * a.get(c as usize, kk);
                }
                dot * v
            })
            .collect();
        let verdict = same_bits(&masked_dots(&s, &a1, &a).unwrap(), &want);
        prop_assert!(verdict.is_ok(), "masked dots: {:?}", verdict);
    }
}

/// K ∈ {0, 1}, `0 × 0`, empty, all-isolated and single-element matrices
/// through both entries of every kernel: a result, never a panic, and the
/// same profile from both.
#[test]
fn hostile_shapes_pass_through_both_entries() {
    let device = DeviceSpec::v100();
    let shapes = [
        Hybrid::from_triplets(0, 0, &[]).unwrap(),
        Hybrid::from_triplets(4, 4, &[]).unwrap(),
        Hybrid::from_triplets(1, 1, &[(0, 0, 2.0)]).unwrap(),
        Hybrid::from_triplets(3, 5, &[(1, 4, -1.0)]).unwrap(),
        Hybrid::from_triplets(5, 3, &[(0, 0, 1.0), (0, 2, 2.0), (4, 1, 3.0)]).unwrap(),
    ];
    for s in &shapes {
        for k in [0usize, 1, 8] {
            let a = Dense::from_fn(s.cols(), k, |i, j| (i + j) as f32 - 1.0);
            let a1 = Dense::from_fn(s.rows(), k, |i, j| (i * 2 + j) as f32);
            let what = format!("{}x{} nnz={} k={k}", s.rows(), s.cols(), s.nnz());
            for kernel in spmm_kernels(&device, s, k) {
                let run = kernel
                    .run(&device, s, &a)
                    .unwrap_or_else(|e| panic!("{} on {what}: {e:?}", kernel.name()));
                assert_eq!((run.output.rows(), run.output.cols()), (s.rows(), k));
                let cost = kernel.cost(&device, s, k).unwrap();
                assert_eq!(cost, run.into_cost(), "{} on {what}", kernel.name());
            }
            for kernel in sddmm_kernels(&device, s, k) {
                let run = kernel
                    .run(&device, s, &a1, &a)
                    .unwrap_or_else(|e| panic!("{} on {what}: {e:?}", kernel.name()));
                assert_eq!(run.output_values.len(), s.nnz());
                let cost = kernel.cost(&device, s, k).unwrap();
                assert_eq!(cost, run.into_cost(), "{} on {what}", kernel.name());
            }
            // Fused attention refuses zero heads and a zero head width with
            // the same typed error from both entries.
            let fused = HpFusedMha::auto(&device, s, k);
            for heads in [0usize, 1, 2] {
                let (q, kv) = (vec![a1.clone(); heads], vec![a.clone(); heads]);
                let run = fused.run(&device, s, &q, &kv, &kv);
                let cost = fused.cost_on(&mut GpuSim::new(device.clone()), s, k, heads);
                match (run, cost) {
                    (Ok(run), Ok(cost)) => {
                        assert!(heads > 0 && k > 0, "{what} heads={heads}");
                        assert_eq!(run.outputs.len(), heads);
                        assert_eq!(cost.reports, run.reports, "{what} heads={heads}");
                    }
                    (Err(run), Err(cost)) => {
                        assert!(heads == 0 || k == 0, "{what} heads={heads}");
                        assert_eq!(run, cost);
                    }
                    (run, cost) => panic!("{what} heads={heads}: {run:?} vs {cost:?}"),
                }
            }
        }
    }
}

/// The catalogue's one cost-only entry loses no launch: for every row it
/// reports what that variant's own full run does — preprocessing included,
/// the fused kernel's spill pair included (row 0 is a 600-element hub).
#[test]
fn the_catalogue_entry_reports_every_launch_of_the_variants_full_run() {
    let device = DeviceSpec::v100();
    let mut triplets: Vec<_> = (0..600u32).map(|c| (0, c, 1.0)).collect();
    triplets.extend((0..900u32).map(|i| (1 + i % 29, (i * 7) % 600, 0.5)));
    let s = Hybrid::from_triplets(30, 600, &triplets).unwrap();
    let k = 24;
    let (a1, a) = (planted(30, k, 1, u32::MAX), planted(600, k, 2, u32::MAX));
    let mut preprocessing = 0;
    for row in &KERNELS {
        let kernel = row.auto(&device, &s, k);
        let sim = &mut GpuSim::new(device.clone());
        let full: Launches = match &kernel {
            Kernel::Spmm(kern) => kern.run_on(sim, &s, &a).unwrap().into_cost().into(),
            Kernel::Sddmm(kern) => kern.run_on(sim, &s, &a1, &a).unwrap().into_cost().into(),
            Kernel::FusedMha(kern) => {
                let (q, kv) = (vec![a1.clone(); HEADS], vec![a.clone(); HEADS]);
                let run = kern.run_on(sim, &s, &q, &kv, &kv).unwrap();
                assert_eq!((run.spilled_rows, run.reports.len()), (1, 3));
                Launches {
                    preprocess: None,
                    exec: run.reports,
                }
            }
        };
        let cost = kernel.cost_on(&mut GpuSim::new(device.clone()), &s, k);
        assert_eq!(cost.unwrap(), full, "{}", row.id);
        preprocessing += usize::from(full.preprocess.is_some());
    }
    assert!(
        preprocessing >= 4,
        "Merge-path, ASpT, Sputnik and Huang preprocess"
    );
}
