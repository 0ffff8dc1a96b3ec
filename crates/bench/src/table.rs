//! Plain-text table rendering for the `repro` binary.

/// Renders rows of equal length as a table with a header, aligned by
/// character count (a `×` or `✓` is one column, not its UTF-8 bytes).
pub fn render(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let width = |s: &str| s.chars().count();
    let mut widths: Vec<usize> = header.iter().map(|h| width(h)).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity must match the header");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(width(cell));
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            out.push_str("| ");
            out.push_str(cell);
            out.push_str(&" ".repeat(widths[i] - width(cell) + 1));
        }
        out.push_str("|\n");
    };
    line(
        &mut out,
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    out.push_str(&format!(
        "|{}|\n",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    ));
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Formats a milliseconds value with sensible precision.
pub fn ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Formats a speedup ratio.
pub fn speedup(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let t = render(
            &["name", "value"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["longer".into(), "2".into()],
                vec!["✓".into(), "×2.50".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
        // All lines have the same width in characters.
        let width = |l: &str| l.chars().count();
        assert!(lines.windows(2).all(|w| width(w[0]) == width(w[1])));
        assert!(t.contains("| longer |"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn rejects_ragged_rows() {
        render(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn ms_precision_tiers() {
        assert_eq!(ms(250.0), "250");
        assert_eq!(ms(2.5), "2.50");
        assert_eq!(ms(0.0421), "0.0421");
        assert_eq!(speedup(1.719), "1.72x");
    }
}
