//! Fixed-width table and CSV-series printers for the experiment table
//! and the CLI. Each writes to `out` and returns its write error.

use std::io::{self, Write};

use crate::runner::SchemeRow;

/// Prints a figure/table header banner.
pub fn banner(out: &mut dyn Write, id: &str, caption: &str) -> io::Result<()> {
    writeln!(out)?;
    writeln!(out, "=== {id}: {caption} ===")
}

/// Renders a fixed-width table. `headers` and each row must have equal
/// length.
///
/// # Panics
///
/// Panics if a row's length differs from the header's.
pub fn table(out: &mut dyn Write, headers: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
            .collect();
        writeln!(out, "  {}", line.join("  "))
    };
    print_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())?;
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    print_row(&rule)?;
    for row in rows {
        print_row(row)?;
    }
    Ok(())
}

/// The standard per-scheme comparison table of `simulate`, `compare`
/// and the examples.
pub fn scheme_table(out: &mut dyn Write, rows: &[SchemeRow]) -> io::Result<()> {
    table(
        out,
        &[
            "scheme",
            "SLO%",
            "P50 ms",
            "P99 ms",
            "BE P99 ms",
            "thr/GPU",
            "censored",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.scheme.clone(),
                    format!("{:.2}", r.slo_compliance_pct),
                    format!("{:.1}", r.strict_p50_ms),
                    format!("{:.1}", r.strict_p99_ms),
                    format!("{:.1}", r.be_p99_ms),
                    format!("{:.1}", r.strict_throughput),
                    format!("{}", r.censored),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Prints an `(x, y)` series as CSV, one line per point, for the
/// curve-style figures (CDFs, timelines).
pub fn csv_series(
    out: &mut dyn Write,
    title: &str,
    [x, y]: [&str; 2],
    points: &[(f64, f64)],
) -> io::Result<()> {
    writeln!(out, "-- {title} (CSV) --\n{x},{y}")?;
    for (x, y) in points {
        writeln!(out, "{x:.4},{y:.4}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_accepts_regular_rows() {
        let mut out = Vec::new();
        table(
            &mut out,
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, "  a    bb\n  ---  --\n  1    2 \n  333  4 \n");
    }

    #[test]
    #[should_panic]
    fn table_rejects_ragged_rows() {
        table(&mut io::sink(), &["a"], &[vec!["1".into(), "2".into()]]).unwrap();
    }
}
