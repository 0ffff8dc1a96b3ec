//! The repository benchmark.
//!
//! ```text
//! bench list
//! bench run --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!           [--trace-out FILE] [--smoke] [--out FILE]
//! bench check A.json B.json
//! ```
//!
//! `run` prints every metric of the chosen mode by name with its unit,
//! checks outputs, ends with one JSON result object on the last line, and
//! exits non-zero when any operation failed its check. It starts each timed
//! pass as `bench pass …`, a process of its own; that subcommand is not for
//! people. See `README.md` in this directory for what the workloads and
//! metrics mean.

#![forbid(unsafe_code)]

use hpsparse_benchmark::run::Options;
use hpsparse_benchmark::{check, metrics, run};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  bench list\n  bench run --workload <name|all> [--seed N] [--seconds S] \
         [--trace 0|1] [--trace-out FILE] [--smoke] [--out FILE]\n  \
         bench check A.json B.json"
    );
    ExitCode::from(2)
}

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |flag: &str, text: String| {
            text.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| format!("{flag}: {text:?} is not a non-negative number"))
        };
        match arg.as_str() {
            "--workload" => o.workload = value(arg)?,
            "--seed" => {
                let text = value(arg)?;
                o.seed = text
                    .parse()
                    .map_err(|_| format!("--seed: {text:?} is not a whole number"))?;
            }
            "--seconds" => o.seconds = number(arg, value(arg)?)?,
            "--trace" => {
                o.trace = match value(arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => o.trace_out = Some(value(arg)?.into()),
            "--out" => o.out = Some(value(arg)?.into()),
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.workload.is_empty() {
        return Err("run needs --workload <name|all>".into());
    }
    Ok(o)
}

fn list() {
    println!("workloads:");
    for (name, why) in metrics::WORKLOADS {
        let threads = run::threads_for(name, false).unwrap_or(1);
        println!("  {name:<9} threads {threads}  {why}");
    }
    println!("end-to-end metrics (every workload, --trace 0):");
    for m in metrics::end_to_end() {
        println!(
            "  {:<34} {:<8} {:<6} bound {}{}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound.unwrap_or(0.0),
            if m.exact { "  exact" } else { "" }
        );
    }
    println!("per-layer metrics (--trace 1):");
    for m in metrics::per_layer() {
        println!(
            "  {:<34} {:<8} {:<6}{}",
            m.name,
            m.unit,
            m.better.label(),
            if m.exact { "  exact" } else { "" }
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("list") => {
            list();
            Ok(true)
        }
        Some(sub @ ("run" | "pass")) => parse_run(&args[1..]).and_then(|opts| {
            if sub == "run" && opts.workload == "all" {
                return run::run_all(&opts);
            }
            // The pool reads RAYON_NUM_THREADS once, at first use, so it is
            // set before anything can touch rayon: never more threads than
            // the workload is defined at, never more than the machine has.
            if let Some(threads) = run::threads_for(&opts.workload, opts.smoke) {
                std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
            }
            if sub == "pass" {
                return run::pass_main(&opts).map(|()| true);
            }
            let o = run::run_one(&opts)?;
            run::print_outcome(&opts, &o);
            Ok(o.failed == 0)
        }),
        Some("check") if args.len() == 3 => check::check(&args[1], &args[2]),
        _ => return usage(),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
