//! Terminal chart rendering for the experiment table: horizontal bar
//! charts, stacked breakdown bars and line plots, so a figure's row
//! prints an actual figure alongside its numeric table.

use std::io::{self, Write};

use protean_metrics::LatencyBreakdown;

/// Width of the plotting area in characters.
const BAR_WIDTH: usize = 50;

/// Renders a horizontal bar chart. Values are scaled to the maximum;
/// each bar is annotated with its value.
///
/// # Example
///
/// ```
/// use protean_experiments::chart::bar_chart;
/// let entries = [("PROTEAN".into(), 99.9), ("INFless".into(), 33.7)];
/// bar_chart(&mut std::io::stdout(), "SLO %", &entries, 100.0).unwrap();
/// ```
pub fn bar_chart(
    out: &mut dyn Write,
    title: &str,
    entries: &[(String, f64)],
    scale_max: f64,
) -> io::Result<()> {
    writeln!(out, "  {title}")?;
    let label_width = entries.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let max = entries
        .iter()
        .map(|&(_, v)| v)
        .fold(scale_max, f64::max)
        .max(1e-9);
    for (label, value) in entries {
        let filled = ((value / max) * BAR_WIDTH as f64).round().max(0.0) as usize;
        writeln!(
            out,
            "  {:<label_width$} |{}{} {:.2}",
            label,
            "#".repeat(filled.min(BAR_WIDTH)),
            " ".repeat(BAR_WIDTH.saturating_sub(filled)),
            value,
        )?;
    }
    Ok(())
}

/// Renders the Figs. 2/6/11 stacked P99 breakdown as proportional bars
/// with a component legend (q = queueing, c = cold start,
/// i = interference, d = deficiency, m = minimum execution).
pub fn stacked_breakdown_chart(
    out: &mut dyn Write,
    entries: &[(String, LatencyBreakdown)],
) -> io::Result<()> {
    let label_width = entries.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let max_total = entries
        .iter()
        .map(|(_, b)| b.total_ms())
        .fold(1e-9, f64::max);
    writeln!(
        out,
        "  P99 composition  [q]ueueing [c]old [i]nterference [d]eficiency [m]in-exec"
    )?;
    for (label, b) in entries {
        let mut bar = String::new();
        let mut emitted = 0usize;
        let total_width = ((b.total_ms() / max_total) * BAR_WIDTH as f64).round() as usize;
        let components = [
            ('q', b.queueing_ms),
            ('c', b.cold_start_ms),
            ('i', b.interference_ms),
            ('d', b.deficiency_ms),
            ('m', b.min_exec_ms),
        ];
        let total = b.total_ms().max(1e-9);
        for (ch, v) in components {
            let w = ((v / total) * total_width as f64).round() as usize;
            bar.extend(std::iter::repeat_n(ch, w));
            emitted += w;
        }
        // Rounding may under/overshoot by a character or two.
        bar.truncate(total_width.min(BAR_WIDTH));
        if emitted < total_width {
            bar.extend(std::iter::repeat_n('m', total_width - emitted));
        }
        writeln!(
            out,
            "  {:<label_width$} |{:<BAR_WIDTH$} {:.1} ms",
            label,
            bar,
            b.total_ms(),
        )?;
    }
    Ok(())
}

/// Renders `(x, y)` series as a fixed-size scatter/line plot with a
/// shared y-axis; each series gets its own glyph. Used for the Fig. 8
/// CDFs and the Fig. 7 timeline.
pub fn line_plot(
    out: &mut dyn Write,
    title: &str,
    x_label: &str,
    y_label: &str,
    series: &[(char, &[(f64, f64)])],
    height: usize,
) -> io::Result<()> {
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().copied())
        .collect();
    if all.is_empty() || height == 0 {
        return writeln!(out, "  {title}: (no data)");
    }
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &all {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    if (x_max - x_min).abs() < 1e-12 {
        x_max = x_min + 1.0;
    }
    if (y_max - y_min).abs() < 1e-12 {
        y_max = y_min + 1.0;
    }
    let width = BAR_WIDTH + 20;
    let mut grid = vec![vec![' '; width]; height];
    for (glyph, pts) in series {
        for &(x, y) in *pts {
            let col = (((x - x_min) / (x_max - x_min)) * (width - 1) as f64).round() as usize;
            let row = (((y - y_min) / (y_max - y_min)) * (height - 1) as f64).round() as usize;
            let r = height - 1 - row.min(height - 1);
            grid[r][col.min(width - 1)] = *glyph;
        }
    }
    writeln!(out, "  {title}")?;
    writeln!(out, "  {y_label} {y_max:.1}")?;
    for row in grid {
        let line: String = row.into_iter().collect();
        writeln!(out, "  |{line}")?;
    }
    writeln!(out, "  {y_min:.1} +{}", "-".repeat(width))?;
    writeln!(out, "   {x_label}: {x_min:.1} .. {x_max:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakdown(q: f64, m: f64) -> LatencyBreakdown {
        LatencyBreakdown {
            queueing_ms: q,
            min_exec_ms: m,
            ..LatencyBreakdown::default()
        }
    }

    #[test]
    fn bar_chart_handles_plain_and_zero_values() {
        let out = &mut io::sink();
        bar_chart(out, "t", &[("a".into(), 50.0), ("b".into(), 0.0)], 100.0).unwrap();
        bar_chart(out, "empty", &[], 100.0).unwrap();
        // Values above the scale max must not overflow the bar area.
        bar_chart(out, "over", &[("x".into(), 250.0)], 100.0).unwrap();
    }

    #[test]
    fn stacked_chart_is_proportional() {
        let entries = [
            ("heavy queue".into(), breakdown(90.0, 10.0)),
            ("pure exec".into(), breakdown(0.0, 100.0)),
            ("empty".into(), breakdown(0.0, 0.0)),
        ];
        stacked_breakdown_chart(&mut io::sink(), &entries).unwrap();
    }

    #[test]
    fn line_plot_handles_degenerate_inputs() {
        let out = &mut io::sink();
        line_plot(out, "empty", "x", "y", &[], 5).unwrap();
        line_plot(out, "point", "x", "y", &[('*', &[(1.0, 1.0)])], 5).unwrap();
        let pts: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, (i * i) as f64)).collect();
        line_plot(out, "quadratic", "x", "y", &[('*', &pts)], 10).unwrap();
    }
}
