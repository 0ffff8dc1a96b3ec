//! Regression test for the harness's determinism guarantee: `repro` stdout
//! must be byte-identical at any `RAYON_NUM_THREADS`.
//!
//! This is the property that makes the parallel harness trustworthy — the
//! shim's split trees depend only on input length, experiment runners
//! collect results in input order, and timing chatter goes to stderr, so
//! the thread count can never leak into the reported numbers.

use std::process::Command;

fn repro_stdout(threads: &str, args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro {args:?} with {threads} threads failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn quick_output_is_byte_identical_across_thread_counts() {
    // fullgraph (fig9) covers the parallel graph × kernel fan-out; fig10
    // covers the sampling corpus with its in-order fold; table3 then joins
    // their memoised V100 records with two A30 sweeps of its own, so the
    // memo-hit path is byte-compared too. Each launch runs on one thread,
    // so the 4-thread leg checks the fan-out's scheduling.
    let args = ["--quick", "fig9", "fig10", "table3"];
    let one = repro_stdout("1", &args);
    assert!(
        !one.is_empty(),
        "repro printed nothing — harness is broken, not deterministic"
    );
    let four = repro_stdout("4", &args);
    if one != four {
        let one_s = String::from_utf8_lossy(&one);
        let four_s = String::from_utf8_lossy(&four);
        let diverge = one_s
            .lines()
            .zip(four_s.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| {
                format!("first divergence at line {i}:\n  1 thread : {a}\n  4 threads: {b}")
            })
            .unwrap_or_else(|| "outputs differ in length only".to_string());
        panic!("repro {args:?} at 4 threads differs from 1 thread; {diverge}");
    }
}

#[test]
fn serve_output_is_byte_identical_across_thread_counts() {
    // serve covers the sharded-serving stack: the rayon-parallel per-shard
    // batcher, the Louvain shard planner, and the multi-device schedule —
    // none of which may leak the thread count into reported numbers.
    let args = ["--quick", "serve"];
    let one = repro_stdout("1", &args);
    let four = repro_stdout("4", &args);
    assert!(!one.is_empty(), "serve printed nothing");
    assert_eq!(
        one,
        four,
        "serve output depends on the thread count:\n--- 1 thread ---\n{}\n--- 4 threads ---\n{}",
        String::from_utf8_lossy(&one),
        String::from_utf8_lossy(&four)
    );
}
