//! `bench run`: drives one workload for a fixed time and prints its metrics.
//!
//! A run calibrates, runs the verify pass itself, then starts
//! timed passes one after another until `--seconds` have gone by — **each
//! timed pass in a fresh process** (`bench pass`), the way a user's run of
//! the product is one process doing the work once. On the box this was
//! sized on, identical passes inside one process agree within 3 % while
//! the same pass in the next process is up to 20 % off (most likely the
//! physical pages it is dealt, which it keeps for life), so repeating inside
//! one process measures one draw many times; a process per pass draws afresh
//! each time.
//! The two host times (`setup_s`, `wall_s`) are each the **smallest** any
//! pass read, with every pass's kept beside them: on a shared host whatever
//! disturbs a pass only ever slows it, so the fastest of a run's passes is
//! what the program costs and the rest is what the neighbours cost. Over
//! runs of seven cut from 35-40 interleaved passes per workload the fastest
//! pass ranged over 4-12 % of its median and the median pass over 6-19 %
//! (README, "Results on this box"). `peak_rss_mib` has no such bias and
//! stays the median. With `--trace 1` every other pass records spans: the
//! traced passes give the per-layer host times, the untraced ones the wall
//! time they are compared against, and the ratio is the tracing overhead.

use crate::host::{calibrate, cores, median, peak_rss_mib, quartiles};
use crate::metrics::{end_to_end, per_layer, MetricDef, WORKLOADS};
use crate::record;
use crate::workloads::{by_name, Mode};
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// A run whose calibration loop changed speed by more than this between
/// start and end is marked disturbed. The mark is printed and carried into
/// result files; it never rescales a metric.
pub const DISTURBED_DRIFT: f64 = 0.10;

/// Parsed `bench run` (and `bench pass`) arguments.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name, or `all`.
    pub workload: String,
    /// Seed of the sampled corpus, feature matrices and request streams.
    pub seed: u64,
    /// How long to keep starting timed passes.
    pub seconds: f64,
    /// Record spans on every other pass and print per-layer metrics.
    pub trace: bool,
    /// Where to write the Chrome trace of the last traced pass.
    pub trace_out: Option<PathBuf>,
    /// Toy input sizes.
    pub smoke: bool,
    /// `run --workload all`: where to write the result set.
    pub out: Option<PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            workload: String::new(),
            seed: 1,
            seconds: 30.0,
            trace: false,
            trace_out: None,
            smoke: false,
            out: None,
        }
    }
}

/// Pool threads a workload runs at on this machine.
pub fn threads_for(workload: &str, smoke: bool) -> Option<usize> {
    by_name(workload, smoke).map(|w| w.threads().min(cores()))
}

/// One timed pass, as the process that ran it reported it.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Set-up seconds.
    pub setup_s: f64,
    /// Timed-section seconds.
    pub wall_s: f64,
    /// `VmHWM` of the pass's process at its exit.
    pub peak_rss_mib: f64,
    /// Fingerprint of the simulated results the pass could see.
    pub check: u64,
    /// Per-layer host metrics derived from the pass's spans (traced only).
    pub host: BTreeMap<String, f64>,
    /// Host seconds inside calls that run simulated launches (traced only).
    pub kernel_host_s: f64,
}

/// `bench pass`: one timed pass in this process, reported as one JSON line.
/// `opts.trace` turns span recording on for the whole pass.
pub fn pass_main(opts: &Options) -> Result<(), String> {
    let workload = by_name(&opts.workload, opts.smoke)
        .ok_or_else(|| format!("unknown workload {:?}; try `bench list`", opts.workload))?;
    record::set_enabled(opts.trace);
    let pass = workload.pass(opts.seed, Mode::Timed);
    record::set_enabled(false);
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, record::chrome_json(&pass.spans))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let mut host = Map::new();
    for (k, v) in &pass.host {
        host.insert(k.clone(), json!(*v));
    }
    let line = json!({
        "setup_s": pass.setup_s,
        "wall_s": pass.wall_s,
        "peak_rss_mib": peak_rss_mib(),
        "check": format!("{:#018x}", pass.check),
        "kernel_host_s": pass.kernel_host_s,
        "host": Value::Object(host),
    });
    println!(
        "{}",
        serde_json::to_string(&line).expect("a pass serialises")
    );
    Ok(())
}

/// Runs `bench pass` in a fresh process and reads its report.
fn spawn_pass(opts: &Options, traced: bool) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["pass", "--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Some(path)) = (traced, &opts.trace_out) {
        cmd.arg("--trace-out").arg(path);
    }
    // `output` waits for the child; its complaints go to this stderr.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a pass: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = text
        .lines()
        .last()
        .filter(|_| out.status.success())
        .and_then(|l| serde_json::from_str(l).ok())
        .and_then(|v| parse_sample(&v));
    parsed.ok_or_else(|| format!("a pass of {} printed no report", opts.workload))
}

fn parse_sample(v: &Value) -> Option<Sample> {
    let hex = v.get("check")?.as_str()?.strip_prefix("0x")?;
    let mut host = BTreeMap::new();
    for (k, x) in v.get("host")?.as_object()?.iter() {
        host.insert(k.clone(), x.as_f64()?);
    }
    Some(Sample {
        setup_s: v.get("setup_s")?.as_f64()?,
        wall_s: v.get("wall_s")?.as_f64()?,
        peak_rss_mib: v.get("peak_rss_mib")?.as_f64()?,
        check: u64::from_str_radix(hex, 16).ok()?,
        host,
        kernel_host_s: v.get("kernel_host_s")?.as_f64()?,
    })
}

/// Everything one run measured.
pub struct Outcome {
    /// Metrics of the requested mode, in catalog order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// FNV over every launch report of the verify pass.
    pub sim_digest: u64,
    /// Untraced timed passes, in run order: the samples behind the host
    /// metrics.
    pub plain: Vec<Sample>,
    /// Traced timed passes, in run order.
    pub traced: Vec<Sample>,
    /// Pool threads used.
    pub threads: usize,
    /// Calibration drift exceeded [`DISTURBED_DRIFT`].
    pub disturbed: bool,
}

fn column(samples: &[Sample], f: fn(&Sample) -> f64) -> Vec<f64> {
    samples.iter().map(f).collect()
}

/// The smallest of `xs`; 0 when empty.
fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Interquartile range over the median; 0 below two samples.
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    match quartiles(xs) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Runs one workload. `RAYON_NUM_THREADS` must already be set (see `main`):
/// this process's pool reads it once, and the passes inherit it.
pub fn run_one(opts: &Options) -> Result<Outcome, String> {
    let workload = by_name(&opts.workload, opts.smoke)
        .ok_or_else(|| format!("unknown workload {:?}; try `bench list`", opts.workload))?;
    let threads = workload.threads().min(cores());

    let calib_before = calibrate();
    let verify = workload.pass(opts.seed, Mode::Verify);
    for note in &verify.notes {
        eprintln!("FAILED {note}");
    }

    let mut plain: Vec<Sample> = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    let mut mismatched = 0u64;
    let mut longest = 0.0f64;
    let started = Instant::now();
    loop {
        // Traced passes alternate with plain ones so both see the same
        // machine conditions.
        let trace_this = opts.trace && traced.len() <= plain.len();
        let t = Instant::now();
        let sample = spawn_pass(opts, trace_this)?;
        longest = longest.max(t.elapsed().as_secs_f64());
        if sample.check != verify.check {
            mismatched += 1;
            eprintln!("FAILED a timed pass's simulated results differ from the verify pass's");
        }
        if trace_this {
            traced.push(sample);
        } else {
            plain.push(sample);
        }
        // Stop when another pass would not fit: the timed section stays
        // within `--seconds` (after the one pass of each kind a run needs).
        let enough = !plain.is_empty() && (!opts.trace || !traced.is_empty());
        if enough && started.elapsed().as_secs_f64() + longest > opts.seconds {
            break;
        }
    }
    let calib_after = calibrate();
    let drift = (calib_after - calib_before).abs() / calib_before.min(calib_after);

    let mut values: BTreeMap<String, f64> = verify.exact.clone();
    let walls = column(&plain, |s| s.wall_s);
    let wall = fastest(&walls);
    values.insert("setup_s".into(), fastest(&column(&plain, |s| s.setup_s)));
    values.insert("wall_s".into(), wall);
    values.insert(
        "peak_rss_mib".into(),
        median(&column(&plain, |s| s.peak_rss_mib)),
    );

    // Per-layer host metrics: the breakdown of the fastest traced pass, so
    // the layers' self times add up to one real pass, the least disturbed
    // one; then whatever the verify pass measured on its own (reference
    // cost).
    let quickest = traced.iter().min_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    if let Some(pass) = quickest {
        values.extend(pass.host.iter().map(|(k, v)| (k.clone(), *v)));
        values.insert("host.trace_overhead_frac".into(), pass.wall_s / wall - 1.0);
    }
    values.extend(verify.host.iter().map(|(k, v)| (k.clone(), *v)));
    let txns = values.get("sim.transactions").copied().unwrap_or(0.0);
    let kernel_s = quickest.map_or(0.0, |p| p.kernel_host_s);
    values.insert(
        "sim.host_ns_per_txn".into(),
        if txns > 0.0 {
            kernel_s * 1e9 / txns
        } else {
            0.0
        },
    );
    values.insert("host.calib_ms".into(), calib_before);
    values.insert("host.calib_drift".into(), drift);
    values.insert("host.pass_spread_frac".into(), spread(&walls));

    let catalog = if opts.trace {
        per_layer()
    } else {
        end_to_end()
    };
    let metrics = catalog
        .into_iter()
        .map(|d| {
            // A layer the workload never enters reports 0.
            let v = values.get(&d.name).copied().unwrap_or(0.0);
            (d, v)
        })
        .collect();
    Ok(Outcome {
        metrics,
        attempted: verify.attempted + (plain.len() + traced.len()) as u64,
        failed: verify.failed + mismatched,
        sim_digest: verify.sim_digest,
        plain,
        traced,
        threads,
        disturbed: drift > DISTURBED_DRIFT,
    })
}

fn metrics_json(metrics: &[(MetricDef, f64)]) -> Value {
    let mut m = Map::new();
    for (d, v) in metrics {
        m.insert(d.name.clone(), json!({ "value": *v, "unit": d.unit }));
    }
    Value::Object(m)
}

/// Prints a run: a readable table, a `#meta` line for `run --workload all`,
/// and the result object as the last line.
pub fn print_outcome(opts: &Options, o: &Outcome) {
    println!(
        "workload {}  seed {}  threads {}  passes {}+{} (untraced+traced, a process each)  trace {}{}",
        opts.workload,
        opts.seed,
        o.threads,
        o.plain.len(),
        o.traced.len(),
        u8::from(opts.trace),
        if o.disturbed {
            "  DISTURBED (calibration drift > 0.10)"
        } else {
            ""
        }
    );
    println!("sim_digest {:#018x}", o.sim_digest);
    for (d, v) in &o.metrics {
        println!("{:<34} {:>22} {}", d.name, format!("{v:?}"), d.unit);
    }
    // The untraced passes behind each host end-to-end metric, by metric
    // name: `bench check` takes a side's spread from them.
    let samples = json!({
        "setup_s": column(&o.plain, |s| s.setup_s),
        "wall_s": column(&o.plain, |s| s.wall_s),
        "peak_rss_mib": column(&o.plain, |s| s.peak_rss_mib),
    });
    let meta = json!({
        "sim_digest": format!("{:#018x}", o.sim_digest),
        "samples": samples,
        "traced_wall_s": column(&o.traced, |s| s.wall_s),
        "threads": o.threads,
        "disturbed": o.disturbed,
    });
    println!(
        "#meta {}",
        serde_json::to_string(&meta).expect("meta serialises")
    );
    let result = json!({
        "correct": o.failed == 0,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": metrics_json(&o.metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serialises")
    );
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// One `bench run` of `run --workload all`, in a process of its own: its
/// result object with everything its `#meta` line said merged in (digest,
/// threads, the disturbed mark, every pass's times), and whether it exited
/// cleanly. Its output is passed through.
fn run_in_child(opts: &Options, name: &str, trace: u8) -> Result<(Map, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", &trace.to_string()]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // The child's complaints (failed operations) go straight to this
    // process's stderr.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let mut lines = text.lines().rev();
    let result = lines.next().and_then(|l| serde_json::from_str(l).ok());
    let meta = lines
        .next()
        .and_then(|l| l.strip_prefix("#meta "))
        .and_then(|l| serde_json::from_str(l).ok());
    let (Some(Value::Object(mut run)), Some(Value::Object(meta))) = (result, meta) else {
        return Err(format!("{name} --trace {trace} printed no result"));
    };
    run.insert("trace".into(), json!(trace));
    for (k, v) in meta.iter() {
        run.insert(k.clone(), v.clone());
    }
    Ok((run, out.status.success()))
}

/// `bench run --workload all`: every workload, untraced then traced, each
/// run a process of its own; gathers the result objects into one result
/// set. A disturbed run is run again, once; a set that still holds one is
/// not a baseline: it is not written, and the command fails.
pub fn run_all(opts: &Options) -> Result<bool, String> {
    let is_disturbed = |run: &Map| run.get("disturbed") != Some(&json!(false));
    let mut all_ok = true;
    let mut disturbed = Vec::new();
    let mut workloads = Map::new();
    for (name, _) in WORKLOADS {
        let mut runs = Vec::new();
        for trace in [0u8, 1] {
            let (mut run, mut clean_exit) = run_in_child(opts, name, trace)?;
            if is_disturbed(&run) {
                eprintln!("bench: {name} --trace {trace} was disturbed; running it again");
                (run, clean_exit) = run_in_child(opts, name, trace)?;
            }
            all_ok &= clean_exit && run.get("correct") == Some(&json!(true));
            if is_disturbed(&run) {
                disturbed.push(format!("{name} --trace {trace}"));
            }
            runs.push(Value::Object(run));
        }
        workloads.insert(name.to_string(), json!({ "runs": runs }));
    }
    if !disturbed.is_empty() {
        eprintln!(
            "bench: still disturbed ({}); no result set written",
            disturbed.join(", ")
        );
        return Ok(false);
    }
    let set = json!({
        "schema": "hpsparse-benchmark-v2",
        "seed": opts.seed,
        "seconds": opts.seconds,
        "smoke": opts.smoke,
        "host": json!({ "cores": cores(), "rustc": rustc_version() }),
        "workloads": Value::Object(workloads),
    });
    if let Some(path) = &opts.out {
        let text = serde_json::to_string_pretty(&set).expect("result set serialises");
        std::fs::write(path, text + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_report_parses_back_and_a_broken_one_does_not() {
        let v = serde_json::from_str(
            r#"{"setup_s": 0.5, "wall_s": 2.25, "peak_rss_mib": 100.5,
                "check": "0xfedcba9876543210", "kernel_host_s": 1.5,
                "host": {"gnn.full.epoch_s": 0.25}}"#,
        )
        .unwrap();
        let s = parse_sample(&v).unwrap();
        assert_eq!((s.setup_s, s.wall_s, s.peak_rss_mib), (0.5, 2.25, 100.5));
        // The fingerprint needs all 64 bits, which a JSON number cannot hold.
        assert_eq!(s.check, 0xfedc_ba98_7654_3210);
        assert_eq!(s.host["gnn.full.epoch_s"], 0.25);
        let broken = serde_json::from_str(r#"{"setup_s": 0.5, "check": "nope"}"#).unwrap();
        assert!(parse_sample(&broken).is_none());
    }

    #[test]
    fn spread_is_the_drivers_and_zero_below_two_samples() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
        assert_eq!(spread(&[]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(fastest(&[]), 0.0);
    }
}
