//! Fixed-width table and CSV-series printers for the figure binaries.

use protean_metrics::LatencyBreakdown;

use crate::runner::SchemeRow;

/// Prints a figure/table header banner.
pub fn banner(id: &str, caption: &str) {
    println!();
    println!("=== {id}: {caption} ===");
}

/// Renders a fixed-width table. `headers` and each row must have equal
/// length.
///
/// # Panics
///
/// Panics if a row's length differs from the header's.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
            .collect();
        println!("  {}", line.join("  "));
    };
    print_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    print_row(&rule);
    for row in rows {
        print_row(row);
    }
}

/// The standard per-scheme comparison table used by most figures.
pub fn scheme_table(rows: &[SchemeRow]) {
    table(
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
    );
}

/// The stacked-bar breakdown table of Figs. 2/6/11 (components of the
/// strict P99 tail, ms).
pub fn breakdown_table(rows: &[(String, LatencyBreakdown, f64)]) {
    table(
        &[
            "scheme",
            "queueing",
            "cold",
            "interf.",
            "defic.",
            "min exec",
            "P99 total",
            "SLO%",
        ],
        &rows
            .iter()
            .map(|(name, b, slo)| {
                vec![
                    name.clone(),
                    format!("{:.1}", b.queueing_ms),
                    format!("{:.1}", b.cold_start_ms),
                    format!("{:.1}", b.interference_ms),
                    format!("{:.1}", b.deficiency_ms),
                    format!("{:.1}", b.min_exec_ms),
                    format!("{:.1}", b.total_ms()),
                    format!("{:.2}", slo),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Prints an `(x, y…)` series as CSV, one line per point, for the
/// curve-style figures (CDFs, timelines).
pub fn csv_series(title: &str, headers: &[&str], points: &[Vec<f64>]) {
    println!("-- {title} (CSV) --");
    println!("{}", headers.join(","));
    for p in points {
        let line: Vec<String> = p.iter().map(|v| format!("{v:.4}")).collect();
        println!("{}", line.join(","));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_accepts_regular_rows() {
        table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    #[should_panic]
    fn table_rejects_ragged_rows() {
        table(&["a"], &[vec!["1".into(), "2".into()]]);
    }
}
