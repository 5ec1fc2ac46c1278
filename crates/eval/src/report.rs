//! Series containers and rendering (text tables + JSON).
//!
//! Every figure bench (the `fig*` and `ablation_*` targets of `fbp-bench`)
//! produces [`Series`] values and prints them through these helpers, so
//! its tables are regenerable and machine-readable. ROADMAP item 9 plans
//! a checked report built from them.

use serde::Serialize;

/// One named data series (a curve in a paper figure).
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct Series {
    /// Curve label (e.g. "FeedbackBypass").
    pub name: String,
    /// X coordinates.
    pub x: Vec<f64>,
    /// Y coordinates.
    pub y: Vec<f64>,
}

impl Series {
    /// Build from paired points.
    pub fn new(name: impl Into<String>, points: impl IntoIterator<Item = (f64, f64)>) -> Self {
        let (x, y) = points.into_iter().unzip();
        Series {
            name: name.into(),
            x,
            y,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

/// A figure: a title, an x-axis label, and one or more series sharing the
/// x grid.
#[derive(Debug, Clone, Serialize)]
pub struct Figure {
    /// Figure title (e.g. "Figure 10a — precision vs number of queries").
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Assemble a figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
        series: Vec<Series>,
    ) -> Self {
        Figure {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series,
        }
    }

    /// Render as an aligned text table (x column + one column per series).
    pub fn to_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let mut header = format!("{:>12}", self.x_label);
        for s in &self.series {
            header.push_str(&format!(" {:>16}", s.name));
        }
        let _ = writeln!(out, "{header}");
        let n = self.series.iter().map(|s| s.len()).max().unwrap_or(0);
        for i in 0..n {
            let x = self
                .series
                .iter()
                .find(|s| i < s.x.len())
                .map(|s| s.x[i])
                .unwrap_or(f64::NAN);
            let mut row = format!("{x:>12.3}");
            for s in &self.series {
                if i < s.y.len() {
                    row.push_str(&format!(" {:>16.4}", s.y[i]));
                } else {
                    row.push_str(&format!(" {:>16}", "-"));
                }
            }
            let _ = writeln!(out, "{row}");
        }
        out
    }

    /// Render as JSON (one line per figure for easy collection).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("figure serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_from_points() {
        let s = Series::new("a", vec![(1.0, 2.0), (3.0, 4.0)]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.x, vec![1.0, 3.0]);
        assert_eq!(s.y, vec![2.0, 4.0]);
    }

    #[test]
    fn table_rendering() {
        let fig = Figure::new(
            "Test figure",
            "k",
            "precision",
            vec![
                Series::new("Default", vec![(10.0, 0.2), (20.0, 0.25)]),
                Series::new("Bypass", vec![(10.0, 0.3), (20.0, 0.35)]),
            ],
        );
        let t = fig.to_table();
        assert!(t.contains("Test figure"));
        assert!(t.contains("Default"));
        assert!(t.contains("0.3000"));
        // Rows: header comment + column header + 2 data rows.
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    fn ragged_series_render_dashes() {
        let fig = Figure::new(
            "Ragged",
            "x",
            "y",
            vec![
                Series::new("long", vec![(1.0, 1.0), (2.0, 2.0)]),
                Series::new("short", vec![(1.0, 9.0)]),
            ],
        );
        let t = fig.to_table();
        assert!(t.contains('-'));
    }

    #[test]
    fn json_roundtrips() {
        let fig = Figure::new("J", "x", "y", vec![Series::new("s", vec![(0.0, 0.5)])]);
        let j = fig.to_json();
        let v: serde_json::Value = serde_json::from_str(&j).unwrap();
        assert_eq!(v["title"], "J");
        assert_eq!(v["series"][0]["y"][0], 0.5);
    }
}
