//! The experiment catalog, the dispatcher, `repro`'s usage line and
//! DESIGN.md's two experiment tables must name the same set of
//! experiments: a name added to one and forgotten in another is a `repro`
//! user typing a documented command that does not exist (or the reverse).

use hpsparse_bench::experiments::{dispatch, Effort, ALL_EXPERIMENTS, CATALOG};
use std::collections::BTreeSet;
use std::process::Command;

/// The string-literal match arms of `pub fn dispatch` in
/// `src/experiments/mod.rs`, read from source so the check costs nothing
/// (calling `dispatch` would run every experiment).
fn dispatch_arms() -> BTreeSet<String> {
    let src = include_str!("../src/experiments/mod.rs");
    let body = &src[src.find("pub fn dispatch(").expect("dispatch exists")..];
    let body = &body[..body.find("\n}\n").expect("dispatch ends")];
    body.lines()
        .filter_map(|line| line.trim().strip_prefix('"')?.split_once("\" =>"))
        .map(|(name, _)| name.to_string())
        .collect()
}

/// Every `repro -- <name>` command in the table rows of DESIGN.md's
/// "Experiment index" and "Extension experiments" sections.
fn design_table_names() -> BTreeSet<String> {
    let design = include_str!("../../../DESIGN.md");
    let start = design
        .find("## Experiment index")
        .expect("experiment index section");
    let tables = &design[start..];
    let end = tables
        .find("## Dependencies beyond")
        .expect("section after the extension table");
    tables[..end]
        .lines()
        .filter(|line| line.starts_with('|'))
        .flat_map(|line| line.split("repro -- ").skip(1))
        .map(|rest| {
            rest.chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                .collect()
        })
        .collect()
}

#[test]
fn catalog_dispatcher_usage_and_design_tables_name_the_same_experiments() {
    let catalog: BTreeSet<String> = CATALOG.iter().map(|(name, _)| name.to_string()).collect();
    assert_eq!(catalog.len(), CATALOG.len(), "duplicate CATALOG name");

    assert_eq!(dispatch_arms(), catalog, "dispatch arms vs CATALOG");
    for meta in ["all", "selftime", "perfdiff", "list", ""] {
        assert!(dispatch(meta, Effort::Quick).is_none(), "{meta:?}");
    }

    for name in ALL_EXPERIMENTS {
        assert!(catalog.contains(*name), "ALL_EXPERIMENTS has `{name}`");
    }

    assert_eq!(design_table_names(), catalog, "DESIGN.md tables vs CATALOG");

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--help")
        .output()
        .expect("run repro --help");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix("experiments: "))
        .expect("usage lists experiments");
    let mut usage: BTreeSet<String> = line.split_whitespace().map(str::to_string).collect();
    assert!(usage.remove("all") && usage.remove("selftime"), "{line}");
    assert_eq!(usage, catalog, "repro usage line vs CATALOG");
}
