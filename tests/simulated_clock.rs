//! Tier-1 slice of the simulated-output gate. Every paper figure is a join
//! over catalogue kernels' cold launches, and CI holds those figures to
//! the committed `results/` byte for byte; this test holds the launches
//! themselves at `cargo test -q`. Every `catalog::KERNELS` row is walked
//! cold on two small generated graphs, one power-law and one uniform, on
//! the V100 and on a V100 whose L2 the graphs' feature rows overflow, and
//! each launch's cycles, DRAM and L2-hit sectors and transactions are
//! folded into one FNV-1a digest. About 0.5 s in a debug build.
//!
//! The digest was recorded on the commit before this test existed
//! (7194e1d). A moved cycle is a modelling change: never re-record it to
//! make a change pass.

use hpsparse::datasets::{GeneratorConfig, Topology};
use hpsparse::kernels::catalog::KERNELS;
use hpsparse::sim::{DeviceSpec, GpuSim};

/// The paper's feature width.
const K: usize = 64;

/// FNV-1a over `(preprocess?, exec launches, then per launch: cycles, DRAM
/// sectors, L2-hit sectors, transactions)` for every row, graph and device.
const DIGEST: u64 = 0x7e85_e57d_4c77_bc5b;

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn catalogue_launches_keep_their_recorded_cycles() {
    // A graph's 1 500 × 64 feature rows (375 KB) overflow 256 KB of L2, so
    // eviction is priced too; the real V100's L2 holds them all.
    let devices = [
        DeviceSpec::v100(),
        DeviceSpec {
            l2_bytes: 256 * 1024,
            ..DeviceSpec::v100()
        },
    ];
    let graphs = [Topology::PowerLaw { alpha: 2.2 }, Topology::Uniform].map(|topology| {
        GeneratorConfig {
            nodes: 1_500,
            edges: 12_000,
            topology,
            seed: 7,
        }
        .generate()
        .to_hybrid()
    });
    let mut words = Vec::new();
    for device in &devices {
        for s in &graphs {
            for row in &KERNELS {
                let launches = row
                    .auto(device, s, K)
                    .cost_on(&mut GpuSim::new(device.clone()), s, K)
                    .unwrap_or_else(|e| panic!("{}: {e}", row.id));
                words.push(u64::from(launches.preprocess.is_some()));
                words.push(launches.exec.len() as u64);
                for r in launches.preprocess.iter().chain(&launches.exec) {
                    let t = &r.totals;
                    words.extend([r.cycles, t.dram_sectors, t.l2_hit_sectors, t.transactions]);
                }
            }
        }
    }
    let got = fnv(words);
    assert_eq!(got, DIGEST, "{got:#018x}");
}
