//! Outside-in instrumentation of the product's layers.
//!
//! Nothing here reaches into a crate: [`Watched`] is a `SparseBackend` that
//! delegates to the real one and puts a span around each call; [`SimTotals`]
//! are read from a `hpsparse-trace` session attached through the public
//! `sim_mut()` hooks, and only in the verify pass — timed passes run with no
//! observer attached.

use crate::host::Fnv;
use crate::record;
use hpsparse_gnn::{unfused_mha, CpuBackend, SparseBackend};
use hpsparse_sim::{attribute, DeviceSpec, GpuSim, LaunchReport, WarpCounters};
use hpsparse_sparse::{reference, Dense, Hybrid};
use hpsparse_trace::{names, TraceSession};
use std::time::Instant;

/// Relative (and absolute) tolerance of every output check.
pub const TOL: f32 = 1e-3;

/// Exact simulator counters summed over launches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTotals {
    /// Launches (preprocessing launches included).
    pub launches: u64,
    /// Warps launched.
    pub warps: u64,
    /// The simulator's own event counters, summed.
    pub counters: WarpCounters,
    /// Simulated cycles of the launches themselves (no launch overhead).
    pub cycles: u64,
    /// Launches per `attribute()` verdict, indexed by `Bound::id()`.
    pub bound: [u64; 5],
}

impl SimTotals {
    /// Adds one launch report.
    pub fn add_report(&mut self, r: &LaunchReport, device: &DeviceSpec) {
        self.launches += 1;
        self.warps += r.warps;
        self.counters.add(&r.totals);
        self.cycles += r.cycles;
        self.bound[attribute(r, device).bound.id() as usize] += 1;
    }

    /// Adds another total.
    pub fn add(&mut self, o: &SimTotals) {
        self.launches += o.launches;
        self.warps += o.warps;
        self.counters.add(&o.counters);
        self.cycles += o.cycles;
        for (a, b) in self.bound.iter_mut().zip(o.bound) {
            *a += b;
        }
    }

    /// DRAM bytes fetched.
    pub fn dram_bytes(&self) -> u64 {
        self.counters.dram_sectors * hpsparse_sim::SECTOR_BYTES as u64
    }
}

/// Reads what a trace session's metrics registry accumulated — every
/// traced launch records its `LaunchReport` there under
/// `launch.<kernel>.<metric>` — and mixes the registry's stable JSON form
/// into `digest`.
///
/// Verdict gauges are last-write-wins per kernel name, so `bound` counts
/// one verdict per kernel name in the session: exact for a session that
/// watched one backend call, a lower bound for one that watched a whole
/// `serve()` run.
pub fn harvest(session: &TraceSession, digest: &mut Fnv) -> SimTotals {
    let json = session.metrics().to_json();
    digest.write(
        serde_json::to_string(&json)
            .expect("a registry serialises")
            .as_bytes(),
    );
    let mut t = SimTotals::default();
    let Some(map) = json.as_object() else {
        return t;
    };
    for (key, entry) in map.iter() {
        let Some(rest) = key.strip_prefix("launch.") else {
            continue;
        };
        let value = entry["value"].as_f64().unwrap_or(0.0);
        let count = value as u64;
        // Kernel names may contain dots; metric names end the key.
        let ends = |m: &str| rest.ends_with(&format!(".{m}"));
        if ends(names::LAUNCH_COUNT) {
            t.launches += count;
        } else if ends(names::LAUNCH_WARPS) {
            t.warps += count;
        } else if ends(names::INST_EXECUTED) {
            t.counters.instructions += count;
        } else if ends(names::TRANSACTIONS) {
            t.counters.transactions += count;
        } else if ends(names::L2_HIT_SECTORS) {
            t.counters.l2_hit_sectors += count;
        } else if ends(names::DRAM_SECTORS) {
            t.counters.dram_sectors += count;
        } else if ends(names::DESCRIPTOR_FALLBACKS) {
            t.counters.descriptor_fallbacks += count;
        } else if ends(names::GPU_CYCLES) {
            t.cycles += count;
        } else if ends(names::ATTRIBUTION_BOUND_ID) {
            t.bound[(count as usize).min(4)] += 1;
        }
    }
    t
}

/// What the verify pass learns from watching one backend.
#[derive(Debug, Default)]
pub struct Verified {
    /// Simulator counters over every call.
    pub sim: SimTotals,
    /// FNV over each call's registry JSON, in call order.
    pub digest: Fnv,
    /// Calls whose output was checked.
    pub checked: u64,
    /// Calls whose output differed from the reference beyond [`TOL`].
    pub failed: u64,
    /// Host seconds spent computing references.
    pub reference_s: f64,
    /// One line per failed call.
    pub notes: Vec<String>,
}

/// FLOPs and computed bytes of the plain `spmm`/`sddmm` calls a backend
/// served (the CPU rates divide these by span time).
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    /// `2·nnz·K` summed over `spmm` calls.
    pub spmm_flops: u64,
    /// Computed bytes of the `spmm` calls: 12 B per stored element (row,
    /// column, value), `4·K` B per gathered operand row and per output row.
    pub spmm_bytes: u64,
    /// `2·nnz·K` summed over `sddmm` calls.
    pub sddmm_flops: u64,
}

impl Work {
    /// Adds another backend's work.
    pub fn add(&mut self, o: &Work) {
        self.spmm_flops += o.spmm_flops;
        self.spmm_bytes += o.spmm_bytes;
        self.sddmm_flops += o.sddmm_flops;
    }
}

/// A `SparseBackend` that delegates to `inner`, with a span per call
/// (`<stem>.spmm`, `<stem>.sddmm`, `<stem>.mha`) and — when built with
/// [`Watched::verifying`] — an output check and a simulator probe per call.
pub struct Watched<B: SparseBackend> {
    /// The product backend doing the work.
    pub inner: B,
    /// Span names of the three calls, built once so an untraced call
    /// formats nothing.
    span_names: [String; 3],
    op: u64,
    /// Calls served.
    pub calls: u64,
    /// Work served through plain `spmm`/`sddmm` calls.
    pub work: Work,
    /// Present in the verify pass only.
    pub verified: Option<Verified>,
}

impl<B: SparseBackend> Watched<B> {
    /// Wraps `inner` for a timed pass: spans only.
    pub fn timed(inner: B, stem: &str, op: u64) -> Self {
        Self {
            inner,
            span_names: ["spmm", "sddmm", "mha"].map(|m| format!("{stem}.{m}")),
            op,
            calls: 0,
            work: Work::default(),
            verified: None,
        }
    }

    /// Wraps `inner` for the verify pass: every call is probed and checked.
    pub fn verifying(inner: B, stem: &str, op: u64) -> Self {
        Self {
            verified: Some(Verified::default()),
            ..Self::timed(inner, stem, op)
        }
    }

    fn probe(&mut self) -> Option<TraceSession> {
        self.verified.as_ref()?;
        let session = TraceSession::new();
        self.inner.sim_mut()?.attach_tracer(session.clone());
        Some(session)
    }

    fn finish_probe(
        &mut self,
        call: usize,
        session: Option<TraceSession>,
        ok: bool,
        reference_s: f64,
    ) {
        if let Some(sim) = self.inner.sim_mut() {
            sim.detach_tracer();
        }
        let Some(v) = self.verified.as_mut() else {
            return;
        };
        if let Some(s) = session {
            let t = harvest(&s, &mut v.digest);
            v.sim.add(&t);
        }
        v.checked += 1;
        v.failed += u64::from(!ok);
        if !ok {
            v.notes.push(format!(
                "{} call {}: output differs from the reference beyond {TOL}",
                self.span_names[call], self.calls
            ));
        }
        v.reference_s += reference_s;
    }
}

/// Element-wise closeness of two value vectors under [`TOL`].
pub fn close(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            let d = (x - y).abs();
            d <= TOL || d <= TOL * x.abs().max(y.abs())
        })
}

impl<B: SparseBackend> SparseBackend for Watched<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn spmm(&mut self, s: &Hybrid, a: &Dense) -> Dense {
        self.calls += 1;
        let (nnz, k) = (s.nnz() as u64, a.cols() as u64);
        self.work.spmm_flops += 2 * nnz * k;
        self.work.spmm_bytes += 12 * nnz + 4 * k * (nnz + s.rows() as u64);
        let session = self.probe();
        let out = {
            let _g = record::span(&self.span_names[0], self.op, nnz);
            self.inner.spmm(s, a)
        };
        if self.verified.is_some() {
            let t = Instant::now();
            let ok = reference::spmm(s, a).is_ok_and(|r| out.approx_eq(&r, TOL, TOL));
            self.finish_probe(0, session, ok, t.elapsed().as_secs_f64());
        }
        out
    }

    fn sddmm(&mut self, s: &Hybrid, a1: &Dense, a2t: &Dense) -> Vec<f32> {
        self.calls += 1;
        let nnz = s.nnz() as u64;
        self.work.sddmm_flops += 2 * nnz * a1.cols() as u64;
        let session = self.probe();
        let out = {
            let _g = record::span(&self.span_names[1], self.op, nnz);
            self.inner.sddmm(s, a1, a2t)
        };
        if self.verified.is_some() {
            let t = Instant::now();
            let ok = reference::sddmm_transposed(s, a1, a2t).is_ok_and(|r| close(&out, &r));
            self.finish_probe(1, session, ok, t.elapsed().as_secs_f64());
        }
        out
    }

    fn mha(
        &mut self,
        s: &Hybrid,
        q: &[Dense],
        k: &[Dense],
        v: &[Dense],
    ) -> (Vec<Dense>, Vec<Vec<f32>>) {
        self.calls += 1;
        let session = self.probe();
        let out = {
            let _g = record::span(&self.span_names[2], self.op, s.nnz() as u64);
            self.inner.mha(s, q, k, v)
        };
        if self.verified.is_some() {
            // The reference for attention is the three-step pipeline on the
            // CPU kernels.
            let t = Instant::now();
            let (ro, rw) = unfused_mha(&mut CpuBackend::new(), s, q, k, v);
            let ok = out.0.len() == ro.len()
                && out.0.iter().zip(&ro).all(|(a, b)| a.approx_eq(b, TOL, TOL))
                && out.1.len() == rw.len()
                && out.1.iter().zip(&rw).all(|(a, b)| close(a, b));
            self.finish_probe(2, session, ok, t.elapsed().as_secs_f64());
        }
        out
    }

    fn account_dense(&mut self, cycles: u64) {
        self.inner.account_dense(cycles);
    }

    fn sparse_cycles(&self) -> u64 {
        self.inner.sparse_cycles()
    }

    fn dense_cycles(&self) -> u64 {
        self.inner.dense_cycles()
    }

    fn device(&self) -> &DeviceSpec {
        self.inner.device()
    }

    fn sim_mut(&mut self) -> Option<&mut GpuSim> {
        self.inner.sim_mut()
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_gnn::HpBackend;

    fn toy() -> (Hybrid, Dense) {
        let s = Hybrid::from_triplets(
            6,
            6,
            &[
                (0, 1, 1.0),
                (0, 4, 0.5),
                (2, 3, 2.0),
                (5, 0, 1.5),
                (5, 5, 1.0),
            ],
        )
        .unwrap();
        let a = Dense::from_fn(6, 8, |i, j| (i * 8 + j) as f32 * 0.1);
        (s, a)
    }

    #[test]
    fn verifying_wrapper_probes_checks_and_leaves_results_alone() {
        let (s, a) = toy();
        let plain = HpBackend::new(DeviceSpec::v100()).spmm(&s, &a);
        let mut w = Watched::verifying(HpBackend::new(DeviceSpec::v100()), "t", 0);
        let out = w.spmm(&s, &a);
        assert_eq!(out.data(), plain.data(), "observation must not perturb");
        let vals = w.sddmm(&s, &a, &a);
        assert_eq!(vals.len(), s.nnz());
        let v = w.verified.as_ref().unwrap();
        assert_eq!((v.checked, v.failed), (2, 0));
        assert_eq!(v.sim.launches, 2);
        assert_eq!(v.sim.bound.iter().sum::<u64>(), 2);
        assert!(v.sim.counters.transactions > 0 && v.sim.cycles > 0);
        // The probe's cycle count is the backend's, minus launch overhead.
        let overhead = 2 * hpsparse_autotune::LAUNCH_OVERHEAD_CYCLES;
        assert_eq!(v.sim.cycles + overhead, w.sparse_cycles());
        assert_eq!(w.calls, 2);
        assert_eq!(w.work.spmm_flops, 2 * 5 * 8);
    }

    #[test]
    fn timed_wrapper_attaches_nothing() {
        let (s, a) = toy();
        let mut w = Watched::timed(HpBackend::new(DeviceSpec::v100()), "t", 0);
        w.spmm(&s, &a);
        assert!(w.verified.is_none());
        assert!(!w.sim_mut().unwrap().tracer_attached());
    }

    #[test]
    fn close_is_relative_and_absolute() {
        assert!(close(&[1000.0], &[1000.5]));
        assert!(!close(&[1000.0], &[1002.0]));
        assert!(close(&[0.0], &[0.0005]));
        assert!(!close(&[1.0], &[1.0, 2.0]));
    }
}
