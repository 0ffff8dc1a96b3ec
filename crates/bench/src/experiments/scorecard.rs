//! `repro scorecard` — every row of [`CLAIMS`] joined with the gated view
//! that measures it: claim, paper, measured, measured/paper, rule, verdict
//! and cause. It launches nothing: it reads its sources' JSON views, and
//! [`Experiment::execute`](super::Experiment::execute) runs each source
//! once per process, so inside `all` the join costs no simulation.

use crate::claims::{Source, CLAIMS};
use crate::experiments::{find, Effort, ExperimentOutput};
use crate::table;
use serde_json::{json, Value};

/// Runs (or reuses) every view the claims read and renders the join.
pub fn run(effort: Effort) -> ExperimentOutput {
    let mut views = Vec::new();
    for claim in CLAIMS {
        if let Source::View { view, .. } = claim.source {
            if !views.iter().any(|(name, _)| *name == view) {
                let exp = find(view).unwrap_or_else(|| panic!("`{view}` is no experiment"));
                views.push((view, exp.execute(effort)));
            }
        }
    }
    render(effort, |name| {
        let (_, out) = views.iter().find(|(view, _)| *view == name)?;
        Some(&out.json)
    })
}

/// The scorecard over the views `view` looks up by experiment name (a
/// run's outputs, or the committed `results/<effort>/*.json`).
///
/// # Panics
/// If a view is missing or lacks a row's value: a hole in the join is a
/// harness bug, not a verdict.
pub fn render<'a>(effort: Effort, view: impl Fn(&str) -> Option<&'a Value>) -> ExperimentOutput {
    let mut tally = [0usize; 3]; // holds, fails, host clock
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for claim in CLAIMS {
        let name = claim.view();
        let measured = match claim.source {
            Source::HostClock(_) => None,
            Source::View { .. } => {
                let v = view(name).unwrap_or_else(|| panic!("scorecard: no `{name}` view"));
                let m = claim.measure(v).unwrap_or_else(|| {
                    panic!("scorecard: `{}` finds no value in `{name}`", claim.claim)
                });
                Some(m)
            }
        };
        let (slot, verdict, mark) = match measured.as_deref().map(|m| claim.holds(m)) {
            Some(true) => (0, "holds", "✓"),
            Some(false) => (1, "fails", "✗"),
            None => (2, "host clock", "—"),
        };
        tally[slot] += 1;
        let ratio = measured.as_deref().and_then(|m| claim.ratio(m));
        rows.push(vec![
            match claim.detail {
                "" => claim.claim.to_string(),
                detail => format!("{} (paper: {detail})", claim.claim),
            },
            claim.paper_text(),
            measured.as_deref().map_or_else(
                || format!("host clock — see `repro {name}`"),
                |m| claim.measured_text(m),
            ),
            ratio.map_or("—".into(), |r| format!("{r:.2}")),
            claim.rule_text(),
            mark.to_string(),
            claim.cause.to_string(),
        ]);
        json_rows.push(json!({
            "claim": claim.claim,
            "view": name,
            "paper": claim.paper_text(),
            "measured": measured,
            "ratio": ratio,
            "rule": claim.rule_text(),
            "verdict": verdict,
            "cause": claim.cause,
        }));
    }
    let [holds, fails, host] = tally;
    let text = format!(
        "Scorecard — {} paper claims against the gated views at {} effort: {holds} hold, \
         {fails} do not, {host} judged on the host clock\n\n{}",
        CLAIMS.len(),
        effort.label(),
        table::render(
            &[
                "Claim",
                "Paper",
                "Measured",
                "Measured/paper",
                "Rule",
                "Verdict",
                "Cause"
            ],
            &rows
        )
    );
    ExperimentOutput::new(
        text,
        json!({
            "effort": effort.label(),
            "holds": holds,
            "fails": fails,
            "host_clock": host,
            "rows": json_rows,
        }),
    )
}
