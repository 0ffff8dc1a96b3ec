//! The experiment table, `repro`'s usage line and DESIGN.md's two
//! experiment tables must name the same set of experiments: a name added
//! to one and forgotten in another is a `repro` user typing a documented
//! command that does not exist (or the reverse). DESIGN.md's kernel table
//! is held to the kernel catalogue the same way.

use hpsparse_bench::experiments::EXPERIMENTS;
use hpsparse_core::catalog::KERNELS;
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

#[test]
fn design_kernel_table_is_the_catalogue() {
    let design = include_str!("../../../DESIGN.md");
    let start = design
        .find("## Kernel catalogue")
        .expect("kernel catalogue section");
    let documented: Vec<&str> = design[start..]
        .lines()
        .skip_while(|line| !line.starts_with("|---"))
        .skip(1)
        .take_while(|line| line.starts_with('|'))
        .collect();
    let catalogue: Vec<String> = KERNELS
        .iter()
        .map(|row| {
            let variants = row.planner_variants();
            let contender = match (row.contender, variants.len()) {
                (true, _) => "yes",
                (false, 1) => "no",
                (false, _) => "ours",
            };
            format!(
                "| `{}` | `{:?}` | {} | {contender} | {} |",
                row.id,
                row.op,
                variants[0].name(),
                variants.len()
            )
        })
        .collect();
    assert_eq!(documented, catalogue, "DESIGN.md kernel table vs KERNELS");
}
