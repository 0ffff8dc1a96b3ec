//! Tier-1 witness for the trace exporter: a traced launch of many waves
//! with cross-warp L2 reuse, then a small launch sharing the session, must
//! export the same Perfetto timeline and the same metrics registry —
//! NCU-style counters, warp-cycle histograms and attribution gauges — byte
//! for byte. The digests were recorded before the launch was split into a
//! walk and a pricing fold; never re-record them to make a change pass.

use hpsparse::sim::{DeviceSpec, GpuSim, KernelResources, LaunchConfig};
use hpsparse_trace::TraceSession;

/// FNV-1a of `(to_chrome_json(), metrics JSON)`, recorded on commit
/// dbf48e0.
const RECORDED: (u64, u64) = (0xbf26_d26a_23a2_8864, 0x13ac_4769_779f_47f9);

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn traced_session() -> TraceSession {
    let resources = KernelResources {
        warps_per_block: 8,
        registers_per_thread: 32,
        shared_mem_per_block: 4096,
    };
    let mut sim = GpuSim::new(DeviceSpec::v100());
    let session = TraceSession::new();
    sim.attach_tracer(session.clone());
    // 2 589 blocks over 640-block waves: four full waves and a tail. Every
    // fifth warp re-reads warp 0's line.
    sim.launch_named(
        "big",
        LaunchConfig {
            num_warps: 20_705,
            resources,
        },
        |w, t| {
            t.compute(10 + w % 11);
            let base = if w % 5 == 0 { 0 } else { w * 8192 };
            t.global_read(base, 1024, 4);
        },
    );
    // A floor-bound launch: the session clock must advance past both.
    sim.launch_named(
        "small",
        LaunchConfig {
            num_warps: 64,
            resources,
        },
        |w, t| t.global_read(w * 4096, 256, 4),
    );
    session
}

#[test]
fn traced_exports_keep_their_recorded_bytes() {
    let session = traced_session();
    let trace = session.to_chrome_json();
    let metrics = session.metrics().to_json().to_string();
    for kernel in ["big", "small"] {
        for gauge in ["attribution__bound.id", "attribution__headroom.pct"] {
            let key = format!("launch.{kernel}.{gauge}");
            assert!(metrics.contains(&key), "missing {key}");
        }
    }
    assert_eq!((fnv1a(&trace), fnv1a(&metrics)), RECORDED);
}
