//! Text rendering of figure-style results (line series and bar charts).
//!
//! The paper's figures are line plots (time vs. number of compute nodes)
//! and bar charts (configuration tuples, bandwidths). The `repro` binary
//! reproduces them as aligned text tables plus coarse ASCII bars, which is
//! enough to read off the qualitative shape (who wins, where curves cross,
//! where humps appear).

use std::fmt::Write as _;

/// One named series of `(x, y)` points.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Points, in increasing `x`.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Build a series from a label and points.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Series {
        Series {
            name: name.into(),
            points,
        }
    }

    /// The y value at a given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (px - x).abs() < 1e-9)
            .map(|&(_, y)| y)
    }
}

/// A figure: several series over a shared x axis.
///
/// ```
/// use iosim_trace::figure::{Series, TextFigure};
/// let mut fig = TextFigure::new("Speedup", "procs", "time (s)");
/// fig.push(Series::new("optimized", vec![(4.0, 10.0), (8.0, 6.0)]));
/// let table = fig.render_table();
/// assert!(table.contains("optimized"));
/// assert!(fig.to_gnuplot_data().contains("8\t6"));
/// ```
#[derive(Clone, Debug)]
pub struct TextFigure {
    /// Figure title (e.g. "Figure 5(a): FFT I/O time").
    pub title: String,
    /// X-axis label (e.g. "compute nodes").
    pub x_label: String,
    /// Y-axis label (e.g. "I/O time (s)").
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl TextFigure {
    /// Create an empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> TextFigure {
        TextFigure {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a series.
    pub fn push(&mut self, s: Series) {
        self.series.push(s);
    }

    /// All distinct x values across series, sorted.
    pub fn xs(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN x"));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        xs
    }

    /// Render as an aligned table: one row per x, one column per series.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let _ = write!(out, "{:>14}", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {:>18}", truncate(&s.name, 18));
        }
        let _ = writeln!(out, "    [{}]", self.y_label);
        for x in self.xs() {
            let _ = write!(out, "{:>14}", format_num(x));
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(out, " {:>18}", format_num(y));
                    }
                    None => {
                        let _ = write!(out, " {:>18}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

impl TextFigure {
    /// Export as a gnuplot-ready data block: a commented header, then one
    /// row per x value with one column per series (missing points as
    /// `NaN`, which gnuplot skips).
    pub fn to_gnuplot_data(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = write!(out, "# {}", self.x_label);
        for s in &self.series {
            let _ = write!(out, "\t{}", s.name.replace(['\t', '\n'], " "));
        }
        let _ = writeln!(out);
        for x in self.xs() {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(out, "\t{y}");
                    }
                    None => {
                        let _ = write!(out, "\tNaN");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// A matching gnuplot script plotting `data_file`.
    pub fn to_gnuplot_script(&self, data_file: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "set title \"{}\"", self.title.replace('"', "'"));
        let _ = writeln!(out, "set xlabel \"{}\"", self.x_label.replace('"', "'"));
        let _ = writeln!(out, "set ylabel \"{}\"", self.y_label.replace('"', "'"));
        let _ = writeln!(out, "set key outside");
        let _ = write!(out, "plot ");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                let _ = write!(out, ", \\\n     ");
            }
            let _ = write!(
                out,
                "\"{data_file}\" using 1:{} with linespoints title \"{}\"",
                i + 2,
                s.name.replace('"', "'")
            );
        }
        let _ = writeln!(out);
        out
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!(
            "{}…",
            &s[..s
                .char_indices()
                .take(n - 1)
                .last()
                .map(|(i, c)| i + c.len_utf8())
                .unwrap_or(0)]
        )
    }
}

fn format_num(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TextFigure {
        let mut f = TextFigure::new("Fig X", "procs", "time (s)");
        f.push(Series::new("unopt", vec![(4.0, 100.0), (8.0, 150.0)]));
        f.push(Series::new("opt", vec![(4.0, 40.0), (8.0, 30.0)]));
        f
    }

    #[test]
    fn xs_are_sorted_and_deduped() {
        assert_eq!(sample().xs(), vec![4.0, 8.0]);
    }

    #[test]
    fn y_at_finds_points() {
        let f = sample();
        assert_eq!(f.series[0].y_at(8.0), Some(150.0));
        assert_eq!(f.series[0].y_at(9.0), None);
    }

    #[test]
    fn table_lists_every_series_column() {
        let t = sample().render_table();
        assert!(t.contains("unopt"));
        assert!(t.contains("opt"));
        assert!(t.contains("100"));
        assert!(t.contains("30"));
    }

    #[test]
    fn missing_points_render_as_dash() {
        let mut f = TextFigure::new("F", "x", "y");
        f.push(Series::new("a", vec![(1.0, 1.0)]));
        f.push(Series::new("b", vec![(2.0, 2.0)]));
        let t = f.render_table();
        assert!(t.contains('-'));
    }

    #[test]
    fn gnuplot_data_has_header_and_rows() {
        let d = sample().to_gnuplot_data();
        assert!(d.starts_with("# Fig X"));
        assert!(d.contains("4\t100\t40"));
        assert!(d.contains("8\t150\t30"));
    }

    #[test]
    fn gnuplot_data_marks_missing_points_nan() {
        let mut f = TextFigure::new("F", "x", "y");
        f.push(Series::new("a", vec![(1.0, 1.0)]));
        f.push(Series::new("b", vec![(2.0, 2.0)]));
        let d = f.to_gnuplot_data();
        assert!(d.contains("1\t1\tNaN"));
        assert!(d.contains("2\tNaN\t2"));
    }

    #[test]
    fn gnuplot_script_references_every_series_column() {
        let s = sample().to_gnuplot_script("fig.dat");
        assert!(s.contains("using 1:2"));
        assert!(s.contains("using 1:3"));
        assert!(s.contains("title \"unopt\""));
        assert!(s.contains("set ylabel \"time (s)\""));
    }

    #[test]
    fn truncate_handles_long_names() {
        let long = "a".repeat(40);
        let mut f = TextFigure::new("F", "x", "y");
        f.push(Series::new(long, vec![(1.0, 1.0)]));
        let t = f.render_table();
        assert!(t.contains('…'));
    }
}
