//! Shared measurement harness for the host-side throughput benches
//! (`bench_events`, `sim_bench`).
//!
//! Three pieces:
//!
//! * [`sample`] — warmup + median-of-N repetition sampling with real
//!   min/max spread (every checked-in `BENCH_*.json` row used to be a
//!   single shot with a `"± 0"` range; this is the fix);
//! * [`document`] — the `BENCHMARK_DATA`-style JSON document builder
//!   (github-action-benchmark `data.js` schema, minus the `window.`
//!   wrapper) that the trajectory files are written in;
//! * [`load_rows`] / [`compare_trend`] — the parsing half: read the rows
//!   back out of checked-in trajectory files and compare the latest two,
//!   which is what `ci.sh`'s perf-trend gate runs.
//!
//! Wall-clock measurement is inherently host-dependent; everything here
//! reports how fast the *host* grinds through simulated work, never a
//! simulated result, so determinism gates do not apply to it.

use crate::json::Value;

/// Median-of-N measurement of one benchmark metric.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Median across the measured repetitions (lower middle for even N).
    pub median: f64,
    /// Smallest observed repetition value.
    pub min: f64,
    /// Largest observed repetition value.
    pub max: f64,
}

impl Sample {
    /// The `"± x"` range string for the trajectory document: half the
    /// min–max spread, the honest symmetric bound on the median.
    pub fn range(&self) -> String {
        format!("± {:.1}", (self.max - self.min) / 2.0)
    }
}

/// Run `f` `warmup` times untimed-for-the-record, then `reps` more times
/// and fold the returned metric values into a [`Sample`]. `reps` is
/// clamped to at least 1; N ≥ 5 is the convention for checked-in rows.
pub fn sample(warmup: usize, reps: usize, mut f: impl FnMut() -> f64) -> Sample {
    for _ in 0..warmup {
        f();
    }
    let mut vals: Vec<f64> = (0..reps.max(1)).map(|_| f()).collect();
    vals.sort_by(f64::total_cmp);
    let median = vals[(vals.len() - 1) / 2];
    Sample { median, min: vals[0], max: vals[vals.len() - 1] }
}

/// One row of a trajectory document.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Stable row name (`join-smoke`, `scan-smoke`, …) — the trend gate
    /// matches rows across PRs by this.
    pub name: String,
    /// Metric value (unit in `unit`).
    pub value: f64,
    /// Spread annotation, e.g. `"± 3.1"`.
    pub range: String,
    /// Metric unit, e.g. `"events/sec"`.
    pub unit: String,
}

/// Assemble the `BENCHMARK_DATA`-style document for a set of rows.
pub fn document(commit: &str, message: &str, rows: &[BenchRow]) -> Value {
    let benches: Vec<Value> = rows
        .iter()
        .map(|r| {
            Value::Obj(vec![
                ("name".into(), Value::Str(r.name.clone())),
                ("value".into(), Value::Num((r.value * 10.0).round() / 10.0)),
                ("range".into(), Value::Str(r.range.clone())),
                ("unit".into(), Value::Str(r.unit.clone())),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("repoUrl".into(), Value::Str("https://example.invalid/sgxv2-olap-bench".into())),
        (
            "entries".into(),
            Value::Obj(vec![(
                "Rust Benchmark".into(),
                Value::Arr(vec![Value::Obj(vec![
                    (
                        "commit".into(),
                        Value::Obj(vec![
                            ("id".into(), Value::Str(commit.into())),
                            ("message".into(), Value::Str(message.into())),
                        ]),
                    ),
                    ("tool".into(), Value::Str("cargo".into())),
                    ("benches".into(), Value::Arr(benches)),
                ])]),
            )]),
        ),
    ])
}

/// Parse the rows back out of a trajectory document's JSON text.
pub fn load_rows(text: &str) -> Result<Vec<BenchRow>, String> {
    let doc = Value::parse(text)?;
    let benches = doc
        .get("entries")
        .and_then(|e| e.get("Rust Benchmark"))
        .and_then(|v| v.as_arr())
        .and_then(|entries| entries.first())
        .and_then(|e| e.get("benches"))
        .and_then(|b| b.as_arr())
        .ok_or("no entries[\"Rust Benchmark\"][0].benches array")?;
    benches
        .iter()
        .map(|b| {
            Ok(BenchRow {
                name: b
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("bench row without name")?
                    .to_string(),
                value: b.get("value").and_then(Value::as_f64).ok_or("bench row without value")?,
                range: b.get("range").and_then(Value::as_str).unwrap_or("± 0").to_string(),
                unit: b.get("unit").and_then(Value::as_str).unwrap_or("").to_string(),
            })
        })
        .collect()
}

/// Compare two trajectory row sets on the watched rows; returns one
/// human-readable message per row whose throughput regressed by more
/// than `allowed_drop` (a fraction, e.g. 0.30). Rows missing from either
/// side are skipped — renames should keep the trajectory comparable, not
/// brick CI.
pub fn compare_trend(
    old: &[BenchRow],
    new: &[BenchRow],
    watched: &[&str],
    allowed_drop: f64,
) -> Vec<String> {
    let mut problems = Vec::new();
    for name in watched {
        let (Some(o), Some(n)) =
            (old.iter().find(|r| r.name == *name), new.iter().find(|r| r.name == *name))
        else {
            continue;
        };
        if n.value < o.value * (1.0 - allowed_drop) {
            problems.push(format!(
                "{name}: {:.1} -> {:.1} {} ({:+.1}% vs allowed -{:.0}%)",
                o.value,
                n.value,
                n.unit,
                (n.value / o.value - 1.0) * 100.0,
                allowed_drop * 100.0
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_takes_median_and_real_spread() {
        let mut vals = [5.0, 1.0, 9.0, 3.0, 7.0].into_iter();
        let s = sample(0, 5, || vals.next().expect("enough reps"));
        assert_eq!(s.median, 5.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.range(), "± 4.0");
    }

    #[test]
    fn sample_runs_warmup_untimed() {
        let mut calls = 0;
        let s = sample(2, 5, || {
            calls += 1;
            calls as f64
        });
        assert_eq!(calls, 7);
        // Warmup values (1, 2) are discarded; reps are 3..=7.
        assert_eq!(s.min, 3.0);
        assert_eq!(s.median, 5.0);
    }

    #[test]
    fn document_roundtrips_through_load_rows() {
        let rows = vec![
            BenchRow {
                name: "join-smoke".into(),
                value: 1234.56,
                range: "± 10.0".into(),
                unit: "events/sec".into(),
            },
            BenchRow {
                name: "scan-smoke".into(),
                value: 99.9,
                range: "± 0.5".into(),
                unit: "events/sec".into(),
            },
        ];
        let doc = document("abc123", "test doc", &rows);
        let parsed = load_rows(&doc.pretty()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "join-smoke");
        assert_eq!(parsed[0].value, 1234.6); // one decimal, like the writer
        assert_eq!(parsed[1].range, "± 0.5");
    }

    #[test]
    fn trend_flags_only_large_regressions() {
        let row = |name: &str, value: f64| BenchRow {
            name: name.into(),
            value,
            range: "± 0".into(),
            unit: "events/sec".into(),
        };
        let old = vec![row("join-smoke", 100.0), row("scan-smoke", 100.0), row("other", 100.0)];
        // 25% drop on join: fine; 50% drop on scan: flagged; "other" is
        // not watched and may tank freely.
        let new = vec![row("join-smoke", 75.0), row("scan-smoke", 50.0), row("other", 1.0)];
        let p = compare_trend(&old, &new, &["join-smoke", "scan-smoke"], 0.30);
        assert_eq!(p.len(), 1);
        assert!(p[0].starts_with("scan-smoke:"), "{p:?}");
    }

    #[test]
    fn trend_skips_missing_rows() {
        let old = vec![BenchRow {
            name: "join-smoke".into(),
            value: 100.0,
            range: "± 0".into(),
            unit: "events/sec".into(),
        }];
        let p = compare_trend(&old, &[], &["join-smoke", "scan-smoke"], 0.30);
        assert!(p.is_empty());
    }
}
