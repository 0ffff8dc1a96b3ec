//! The experiment table, `repro`'s usage line and DESIGN.md's two
//! experiment tables must name the same set of experiments: a name added
//! to one and forgotten in another is a `repro` user typing a documented
//! command that does not exist (or the reverse).

use hpsparse_bench::experiments::EXPERIMENTS;
use std::collections::BTreeSet;
use std::process::Command;

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
fn table_usage_and_design_tables_name_the_same_experiments() {
    let table: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.name.to_string()).collect();

    assert_eq!(
        design_table_names(),
        table,
        "DESIGN.md tables vs EXPERIMENTS"
    );

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
    for meta in ["all", "selftime", "perfdiff", "list"] {
        assert!(
            usage.remove(meta),
            "usage names the meta-mode `{meta}`: {line}"
        );
    }
    assert_eq!(usage, table, "repro usage line vs EXPERIMENTS");
}
