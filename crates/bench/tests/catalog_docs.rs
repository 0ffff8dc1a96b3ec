//! The experiment table, `repro`'s usage line and DESIGN.md's two
//! experiment tables must name the same set of experiments: a name added
//! to one and forgotten in another is a `repro` user typing a documented
//! command that does not exist (or the reverse). DESIGN.md's kernel table
//! is held to the kernel catalogue the same way, every extension row to a
//! stated question, and every module path it names to the workspace's
//! crates. EXPERIMENTS.md's scorecard is the render of the committed quick
//! views, so a refreshed view that flips a verdict fails here until the
//! doc moves with it.

use hpsparse_bench::claims::{Source, CLAIMS};
use hpsparse_bench::experiments::{find, scorecard, Effort, EXPERIMENTS};
use hpsparse_core::catalog::KERNELS;
use serde_json::Value;
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
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

/// Every artefact beyond the paper answers a stated question: each row of
/// DESIGN.md's "Extension experiments" table fills its question column.
#[test]
fn every_extension_row_states_its_question() {
    let design = include_str!("../../../DESIGN.md");
    let start = design
        .find("## Extension experiments")
        .expect("extension section");
    let mut rows = design[start..]
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .map(|line| line.split('|').map(str::trim).collect::<Vec<_>>());
    let header = rows.next().expect("extension table header");
    let column = header
        .iter()
        .position(|cell| *cell == "Question it answers")
        .expect("a question column");
    let rows: Vec<Vec<&str>> = rows.skip(1).collect();
    assert!(!rows.is_empty(), "extension table has no rows");
    for row in rows {
        assert!(
            row.get(column).is_some_and(|cell| !cell.is_empty()),
            "extension row without a question: {row:?}"
        );
    }
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

/// The names a crate exports at its root: its `pub mod`s, the leaves of
/// its `pub use`s and the `pub` items its `lib.rs` declares. Comments are
/// stripped first, so a word in a doc comment does not count.
fn root_names(lib_rs: &str) -> BTreeSet<String> {
    let code: Vec<&str> = lib_rs
        .lines()
        .map(|line| line.split("//").next().unwrap_or(""))
        .collect();
    let mut names = BTreeSet::new();
    let ident = |s: &str| -> String {
        s.chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect()
    };
    for (i, line) in code.iter().enumerate() {
        if let Some(tree) = line.strip_prefix("pub use ") {
            // The use tree runs to the first `;`, possibly over several lines.
            let mut text = tree.to_string();
            for next in &code[i + 1..] {
                if text.contains(';') {
                    break;
                }
                text.push(' ');
                text.push_str(next);
            }
            // Each item of the tree exports its last segment or its `as` name.
            for item in text.split([';', ',', '{', '}']) {
                let last = item.rsplit("::").next().unwrap_or("");
                names.insert(last.rsplit(" as ").next().unwrap_or("").trim().to_string());
            }
        }
        for kw in [
            "mod", "fn", "struct", "enum", "const", "static", "type", "trait",
        ] {
            if let Some(rest) = line.strip_prefix(&format!("pub {kw} ")) {
                names.insert(ident(rest));
            }
        }
    }
    names
}

#[test]
fn design_module_paths_exist() {
    let design = include_str!("../../../DESIGN.md");
    let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let crates: Vec<String> = fs::read_dir(&crates_dir)
        .expect("read crates/")
        .map(|e| e.expect("crates/ entry").file_name().into_string().unwrap())
        .filter(|name| crates_dir.join(name).join("src/lib.rs").is_file())
        .collect();

    let mut checked = Vec::new();
    let mut missing = Vec::new();
    // Inline code spans are the odd pieces between backticks (DESIGN.md
    // has no fenced blocks; a span may wrap onto the next line).
    let mut line = 1;
    for (i, piece) in design.split('`').enumerate() {
        let at = line;
        line += piece.matches('\n').count();
        if i % 2 == 0 {
            continue;
        }
        let Some((krate, rest)) = piece.split_once("::") else {
            continue;
        };
        let krate = krate.strip_prefix("hpsparse_").unwrap_or(krate);
        if !crates.iter().any(|c| c == krate) {
            continue;
        }
        let segs: Vec<&str> = match rest.strip_prefix('{') {
            Some(group) => group
                .split('}')
                .next()
                .unwrap_or("")
                .split(',')
                .map(str::trim)
                .collect(),
            None => vec![rest
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '*'))
                .next()
                .unwrap_or("")],
        };
        let src = crates_dir.join(krate).join("src");
        let names = root_names(&fs::read_to_string(src.join("lib.rs")).expect("read lib.rs"));
        for seg in segs.into_iter().filter(|s| *s != "*") {
            let path = format!("{krate}::{seg}");
            let exists = src.join(format!("{seg}.rs")).is_file()
                || src.join(seg).is_dir()
                || names.contains(seg);
            if !exists {
                missing.push(format!("DESIGN.md:{at}: `{path}`"));
            }
            checked.push(path);
        }
    }
    assert!(!checked.is_empty(), "no module paths found in DESIGN.md");
    assert!(
        missing.is_empty(),
        "DESIGN.md names {} module paths that do not exist (of {} checked):\n{}",
        missing.len(),
        checked.len(),
        missing.join("\n")
    );
}

/// The committed `results/quick/<name>.json` view, if there is one.
fn committed_quick_view(name: &str) -> Option<Value> {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../results/quick/{name}.json"));
    let text = fs::read_to_string(path).ok()?;
    Some(serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}.json: {e}")))
}

#[test]
fn every_claim_reads_a_committed_view_that_holds_its_value() {
    for claim in CLAIMS {
        match claim.source {
            Source::View { view, .. } => {
                let json = committed_quick_view(view).unwrap_or_else(|| {
                    panic!(
                        "`{}` reads `{view}`, which has no committed view",
                        claim.claim
                    )
                });
                let measured = claim
                    .measure(&json)
                    .unwrap_or_else(|| panic!("`{}` finds no value in {view}.json", claim.claim));
                assert!(
                    !measured.is_empty() && measured.iter().all(|m| m.is_finite()),
                    "`{}` reads {measured:?} from {view}.json",
                    claim.claim
                );
            }
            Source::HostClock(exp) => {
                assert!(
                    find(exp).is_some(),
                    "`{}` names no experiment `{exp}`",
                    claim.claim
                );
                assert!(
                    committed_quick_view(exp).is_none(),
                    "`{exp}` runs on the host clock and has no gated view"
                );
            }
        }
    }
}

#[test]
fn experiments_md_scorecard_is_the_render_of_the_committed_views() {
    let views: Vec<(&str, Value)> = EXPERIMENTS
        .iter()
        .filter_map(|e| Some((e.name, committed_quick_view(e.name)?)))
        .collect();
    let rendered = scorecard::render(Effort::Quick, |name| {
        views
            .iter()
            .find(|(view, _)| *view == name)
            .map(|(_, json)| json)
    });
    let doc = include_str!("../../../EXPERIMENTS.md");
    let (begin, end) = ("<!-- scorecard -->", "<!-- /scorecard -->");
    let start = doc
        .find(begin)
        .expect("EXPERIMENTS.md has a scorecard block")
        + begin.len();
    let stop = doc[start..].find(end).expect("the scorecard block ends") + start;
    assert_eq!(
        doc[start..stop].trim(),
        rendered.text.trim(),
        "EXPERIMENTS.md's scorecard is stale: paste `repro --quick scorecard`'s output"
    );
    let committed = committed_quick_view("scorecard").expect("scorecard.json is committed");
    assert_eq!(
        committed, rendered.json,
        "results/quick/scorecard.json vs the committed views"
    );
}
