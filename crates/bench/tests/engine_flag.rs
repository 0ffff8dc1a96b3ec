//! Hostile input at the one engine selector: `repro --engine` accepts
//! exactly `batched` and `reference`. Retired names (`parallel`, `auto`)
//! and unknown ones exit non-zero before any experiment runs, with an
//! error line naming the two valid engines.

use std::process::Command;

#[test]
fn unknown_engine_names_are_rejected_with_the_vocabulary() {
    for bad in ["parallel", "auto", "turbo"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--quick", "--engine", bad, "formats"])
            .output()
            .expect("run repro");
        assert_eq!(out.status.code(), Some(2), "--engine {bad}");
        assert!(out.stdout.is_empty(), "--engine {bad} ran an experiment");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.lines().next(),
            Some(format!("error: --engine {bad}: expected batched or reference").as_str()),
            "{stderr}"
        );
        assert!(
            stderr.contains("[--engine batched|reference]"),
            "usage names the vocabulary:\n{stderr}"
        );
    }
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "formats", "--engine"])
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(2), "--engine without a name");
}
