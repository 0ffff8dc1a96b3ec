//! The four workloads. Each is a sequence of identical *passes*: a pass
//! builds its inputs from the seed (set-up, timed on the host clock), then
//! runs the timed section. The first pass of a run is the *verify* pass:
//! same work, but every output is checked against a reference and the
//! simulators are probed for their exact counters; it is never timed.

pub mod serve;
pub mod sweep;
pub mod train;

use std::collections::BTreeMap;

/// What kind of pass to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Check every output and probe the simulators; host times are unused.
    Verify,
    /// Measure: no observer attached, outputs dropped.
    Timed,
}

/// Result of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds before the timed section: generation, sampling,
    /// reorder/partition, format builds, cluster build.
    pub setup_s: f64,
    /// Host seconds of the timed section.
    pub wall_s: f64,
    /// Fingerprint of the simulated results the timed section can see
    /// without an observer. Equal on every pass of a run, or the run fails.
    pub check: u64,
    /// Exact metrics and the simulator digest (verify pass only).
    pub exact: BTreeMap<String, f64>,
    /// FNV over every launch's serialised report in op order (verify pass
    /// only).
    pub sim_digest: u64,
    /// Per-layer host metrics this pass measured: derived from its spans in
    /// a traced pass, the reference cost in the verify pass, else empty.
    pub host: BTreeMap<String, f64>,
    /// Host seconds inside calls that run simulated launches (traced passes
    /// only): the numerator of `sim.host_ns_per_txn`.
    pub kernel_host_s: f64,
    /// The spans behind `host` (traced passes only).
    pub spans: Vec<crate::record::Span>,
    /// Operations checked (verify pass only).
    pub attempted: u64,
    /// Operations that failed their check (verify pass only).
    pub failed: u64,
    /// One line per failed operation, for stderr.
    pub notes: Vec<String>,
}

/// A benchmark workload.
pub trait Workload {
    /// Pool threads the workload is defined at (capped at the machine's).
    fn threads(&self) -> usize;
    /// Runs one pass on inputs made from `seed`.
    fn pass(&self, seed: u64, mode: Mode) -> Pass;
}

/// Looks a workload up by name. `smoke` shrinks every input to toy size.
pub fn by_name(name: &str, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sweep" => Box::new(sweep::Sweep::new(false, smoke)),
        "sweep-mt" => Box::new(sweep::Sweep::new(true, smoke)),
        "train" => Box::new(train::Train::new(smoke)),
        "serve" => Box::new(serve::Serve::new(smoke)),
        _ => return None,
    })
}

/// Inserts `value` under `name`.
pub(crate) fn put(map: &mut BTreeMap<String, f64>, name: &str, value: f64) {
    map.insert(name.to_string(), value);
}

/// Fills the `sim.*` rows and the two whole-run simulator totals.
pub(crate) fn put_sim(map: &mut BTreeMap<String, f64>, t: &crate::layers::SimTotals) {
    put(map, "sim.launches", t.launches as f64);
    put(map, "sim.warps", t.warps as f64);
    put(map, "sim.instructions", t.counters.instructions as f64);
    put(map, "sim.transactions", t.counters.transactions as f64);
    put(map, "sim.l2_hit_sectors", t.counters.l2_hit_sectors as f64);
    put(map, "sim.dram_sectors", t.counters.dram_sectors as f64);
    put(
        map,
        "sim.descriptor_fallbacks",
        t.counters.descriptor_fallbacks as f64,
    );
    put(map, "sim.l2_hit_rate", t.counters.l2_hit_rate());
    for (i, b) in ["dram", "l2", "compute", "imbalance", "tail"]
        .iter()
        .enumerate()
    {
        put(map, &format!("sim.bound_{b}"), t.bound[i] as f64);
    }
    put(map, "sim_dram_bytes", t.dram_bytes() as f64);
}

/// Fills every declared `<span name>_s` row the workload has not derived
/// itself with that span's self time — 0 for a layer the pass never called.
pub(crate) fn put_span_times(map: &mut BTreeMap<String, f64>, fold: &crate::record::Fold) {
    for def in crate::metrics::per_layer() {
        if let Some(stem) = def.name.strip_suffix("_s") {
            if !def.exact && !map.contains_key(&def.name) {
                put(map, &def.name, fold.self_of(stem));
            }
        }
    }
}
