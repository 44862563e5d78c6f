//! Figure/table data model and rendering.
//!
//! Every experiment harness produces a [`Figure`]: a set of labelled
//! series over a common x-axis, mirroring the plots in the paper. Figures
//! render as aligned text tables on stdout and serialize to JSON for
//! downstream tooling (EXPERIMENTS.md is assembled from these).

// Reported counters are exact u64 totals: a narrowing cast would wrap
// one.
#![deny(clippy::cast_possible_truncation)]

use crate::json::Value;
use sgx_sim::profile::{CategoryCycles, Profile};
use sgx_sim::Counters;

/// One measured point: mean and standard deviation over repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    /// Arithmetic mean (the paper reports means over 10 runs).
    pub mean: f64,
    /// Standard deviation across repetitions.
    pub stddev: f64,
}

impl Stat {
    /// Aggregate repetitions into a `Stat`.
    pub fn from_runs(runs: &[f64]) -> Stat {
        let n = runs.len().max(1) as f64;
        let mean = runs.iter().sum::<f64>() / n;
        let var = runs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        Stat { mean, stddev: var.sqrt() }
    }

    /// A single deterministic observation.
    pub fn exact(v: f64) -> Stat {
        Stat { mean: v, stddev: 0.0 }
    }
}

/// One labelled series (a bar group or plot line).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (e.g. "SGX (Data in Enclave)").
    pub label: String,
    /// One value per x-axis entry; `None` when not measured.
    pub points: Vec<Option<Stat>>,
}

/// A reproduced figure or table.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier matching the paper ("fig05", "table1", …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// Unit of the y values ("M rows/s", "GB/s", "relative", …).
    pub unit: String,
    /// x-axis tick labels.
    pub xs: Vec<String>,
    /// The measured series.
    pub series: Vec<Series>,
    /// Free-form notes (model caveats, paper reference values).
    pub notes: Vec<String>,
}

impl Figure {
    /// Start an empty figure.
    pub fn new(id: &str, title: &str, x_label: &str, unit: &str) -> Figure {
        Figure {
            id: id.to_string(),
            title: title.to_string(),
            x_label: x_label.to_string(),
            unit: unit.to_string(),
            xs: Vec::new(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Set the x-axis tick labels.
    pub fn with_xs<S: ToString>(mut self, xs: impl IntoIterator<Item = S>) -> Figure {
        self.xs = xs.into_iter().map(|x| x.to_string()).collect();
        self
    }

    /// Append a series; its length must match the x-axis.
    pub fn push_series(&mut self, label: &str, points: Vec<Option<Stat>>) {
        assert_eq!(points.len(), self.xs.len(), "series length must match x axis");
        self.series.push(Series { label: label.to_string(), points });
    }

    /// Append a note line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        put!(&mut out, "== {} — {} [{}]\n", self.id, self.title, self.unit);
        let xw = self
            .xs
            .iter()
            .map(|x| x.len())
            .chain([self.x_label.len()])
            .max()
            .unwrap_or(8)
            .max(4);
        let cols: Vec<usize> =
            self.series.iter().map(|s| s.label.len().max(12)).collect();
        put!(&mut out, "{:<xw$}", self.x_label);
        for (s, w) in self.series.iter().zip(&cols) {
            put!(&mut out, "  {:>w$}", s.label);
        }
        out.push('\n');
        for (i, x) in self.xs.iter().enumerate() {
            put!(&mut out, "{x:<xw$}");
            for (s, w) in self.series.iter().zip(&cols) {
                match s.points[i] {
                    Some(st) if st.stddev > 0.0 => {
                        let cell = format!("{:.3}±{:.3}", st.mean, st.stddev);
                        put!(&mut out, "  {cell:>w$}");
                    }
                    Some(st) => {
                        let cell = format!("{:.3}", st.mean);
                        put!(&mut out, "  {cell:>w$}");
                    }
                    None => {
                        put!(&mut out, "  {:>w$}", "-");
                    }
                }
            }
            out.push('\n');
        }
        for n in &self.notes {
            put!(&mut out, "   note: {n}\n");
        }
        out
    }

    /// Serialize to pretty JSON via the deterministic hand-rolled printer
    /// (`crate::json`): fixed key order, fixed float formatting, so equal
    /// figures always produce byte-identical reports.
    pub fn to_json(&self) -> String {
        let stat = |s: &Stat| {
            Value::Obj(vec![
                ("mean".into(), Value::Num(s.mean)),
                ("stddev".into(), Value::Num(s.stddev)),
            ])
        };
        let series = |s: &Series| {
            Value::Obj(vec![
                ("label".into(), Value::Str(s.label.clone())),
                (
                    "points".into(),
                    Value::Arr(
                        s.points.iter().map(|p| p.as_ref().map_or(Value::Null, stat)).collect(),
                    ),
                ),
            ])
        };
        let strs = |v: &[String]| Value::Arr(v.iter().map(|s| Value::Str(s.clone())).collect());
        Value::Obj(vec![
            ("id".into(), Value::Str(self.id.clone())),
            ("title".into(), Value::Str(self.title.clone())),
            ("x_label".into(), Value::Str(self.x_label.clone())),
            ("unit".into(), Value::Str(self.unit.clone())),
            ("xs".into(), strs(&self.xs)),
            ("series".into(), Value::Arr(self.series.iter().map(series).collect())),
            ("notes".into(), strs(&self.notes)),
        ])
        .pretty()
    }

    /// Parse a figure previously written by [`Figure::to_json`].
    pub fn from_json(text: &str) -> Result<Figure, String> {
        let v = Value::parse(text)?;
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("figure JSON missing string field {key:?}"))
        };
        let str_list = |key: &str| -> Result<Vec<String>, String> {
            v.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("figure JSON missing array field {key:?}"))?
                .iter()
                .map(|e| {
                    e.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("non-string entry in {key:?}"))
                })
                .collect()
        };
        let num = |v: &Value, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("stat missing numeric field {key:?}"))
        };
        let series = v
            .get("series")
            .and_then(Value::as_arr)
            .ok_or_else(|| "figure JSON missing array field \"series\"".to_string())?
            .iter()
            .map(|s| {
                let label = s
                    .get("label")
                    .and_then(Value::as_str)
                    .ok_or_else(|| "series missing \"label\"".to_string())?
                    .to_string();
                let points = s
                    .get("points")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| "series missing \"points\"".to_string())?
                    .iter()
                    .map(|p| match p {
                        Value::Null => Ok(None),
                        p => Ok(Some(Stat { mean: num(p, "mean")?, stddev: num(p, "stddev")? })),
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Series { label, points })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let xs = str_list("xs")?;
        // Enforce the push_series invariant on the parse path too: a
        // series shorter than the x-axis would otherwise index out of
        // bounds later, in render().
        for s in &series {
            if s.points.len() != xs.len() {
                return Err(format!(
                    "series {:?} has {} points for {} x ticks",
                    s.label,
                    s.points.len(),
                    xs.len()
                ));
            }
        }
        Ok(Figure {
            id: str_field("id")?,
            title: str_field("title")?,
            x_label: str_field("x_label")?,
            unit: str_field("unit")?,
            xs,
            series,
            notes: str_list("notes")?,
        })
    }

    /// Print the text table and write both the JSON and an SVG chart under
    /// `target/figures/`.
    pub fn emit(&self) {
        println!("{}", self.render());
        let dir = std::path::Path::new("target/figures");
        if std::fs::create_dir_all(dir).is_ok() {
            for (ext, content) in [("json", self.to_json()), ("svg", self.to_svg())] {
                let path = dir.join(format!("{}.{ext}", self.id));
                if let Err(e) = std::fs::write(&path, content) {
                    eprintln!("warning: could not write {}: {e}", path.display());
                } else {
                    eprintln!("   {ext}: {}", path.display());
                }
            }
        }
    }

    /// Look up a series by label (test helper).
    pub fn series_by_label(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

/// The nine cycle bins of one phase as a JSON object, keyed by category
/// label in `CostCategory::ALL` order.
fn category_cycles_json(c: &CategoryCycles) -> Value {
    Value::Obj(c.iter().map(|(cat, cycles)| (cat.label().into(), Value::Num(cycles))).collect())
}

/// All 21 counters as a JSON object keyed by field name, in field order
/// (u64 counts are exact in f64 far beyond any simulated run; the JSON
/// printer writes integral values as `N.0`).
fn counters_json(c: &Counters) -> Value {
    Value::Obj(c.fields().iter().map(|&(name, _, v)| (name.into(), Value::Num(v as f64))).collect())
}

/// Serialize one job's cycle-attribution profile to deterministic pretty
/// JSON: phases in sorted-path order, categories in fixed order, the same
/// number printer as the figures — equal profiles always produce
/// byte-identical artifacts (the golden profile digests rely on this).
pub fn profile_json(job_id: &str, p: &Profile) -> String {
    let phases = p
        .phases
        .iter()
        .map(|(path, ph)| {
            Value::Obj(vec![
                ("phase".into(), Value::Str(path.clone())),
                ("total_cycles".into(), Value::Num(ph.cycles.total())),
                ("cycles".into(), category_cycles_json(&ph.cycles)),
                ("counters".into(), counters_json(&ph.counters)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("schema".into(), Value::Str("sgx-bench-profile/1".into())),
        ("job".into(), Value::Str(job_id.to_string())),
        ("charged_cycles".into(), Value::Num(p.charged_cycles)),
        ("total_cycles".into(), Value::Num(p.total_cycles())),
        ("phases".into(), Value::Arr(phases)),
        ("counter_totals".into(), counters_json(&p.total_counters())),
    ])
    .pretty()
}

/// Write one job's profile artifacts (`<job>.profile.json` and
/// `<job>.profile.svg`) under `target/figures/`, mirroring
/// [`Figure::emit`]'s warning-not-panicking IO policy.
pub fn emit_profile(job_id: &str, p: &Profile) {
    let dir = std::path::Path::new("target/figures");
    if std::fs::create_dir_all(dir).is_ok() {
        let svg = crate::chart::profile_svg(job_id, p);
        for (ext, content) in [("profile.json", profile_json(job_id, p)), ("profile.svg", svg)] {
            let path = dir.join(format!("{job_id}.{ext}"));
            if let Err(e) = std::fs::write(&path, content) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                eprintln!("   {ext}: {}", path.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_from_runs() {
        let s = Stat::from_runs(&[2.0, 4.0, 6.0]);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!((s.stddev - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
        let e = Stat::exact(5.0);
        assert_eq!(e.mean, 5.0);
        assert_eq!(e.stddev, 0.0);
    }

    #[test]
    fn figure_renders_all_cells() {
        let mut f = Figure::new("figX", "demo", "size", "GB/s").with_xs(["1 MB", "1 GB"]);
        f.push_series("native", vec![Some(Stat::exact(10.0)), Some(Stat::exact(5.0))]);
        f.push_series("sgx", vec![Some(Stat::from_runs(&[9.0, 9.2])), None]);
        f.note("model note");
        let r = f.render();
        assert!(r.contains("figX"));
        assert!(r.contains("native"));
        assert!(r.contains("10.000"));
        assert!(r.contains("±"));
        assert!(r.contains("model note"));
        assert!(r.contains('-'));
    }

    #[test]
    fn json_roundtrip() {
        let mut f = Figure::new("fig1", "t", "x", "u").with_xs(["a"]);
        f.push_series("s", vec![Some(Stat::exact(1.5))]);
        f.push_series("gap", vec![None]);
        f.note("a note");
        let j = f.to_json();
        let back = Figure::from_json(&j).unwrap();
        assert_eq!(back.id, "fig1");
        assert_eq!(back.series[0].points[0].unwrap().mean, 1.5);
        assert!(back.series[1].points[0].is_none());
        assert_eq!(back.notes, vec!["a note".to_string()]);
        // Re-serializing the parse result reproduces the exact bytes.
        assert_eq!(back.to_json(), j);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn mismatched_series_rejected() {
        let mut f = Figure::new("f", "t", "x", "u").with_xs(["a", "b"]);
        f.push_series("s", vec![Some(Stat::exact(1.0))]);
    }

    #[test]
    fn from_json_rejects_series_shorter_than_axis() {
        // Regression: this used to parse fine and then panic in render().
        let text = r#"{"id":"f","title":"t","x_label":"x","unit":"u","xs":["a","b"],"series":[{"label":"s","points":[null]}],"notes":[]}"#;
        let err = Figure::from_json(text).unwrap_err();
        assert!(err.contains("1 points for 2 x ticks"), "got: {err}");
    }
}
