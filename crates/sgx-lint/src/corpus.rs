//! rapx-bench-style self-evaluation: score the lint against a labeled
//! corpus of positive (must fire) and negative (must stay silent)
//! testcases, reporting per-rule TP/FN/FP.
//!
//! Layout: `<dir>/positive/<rule>_<n>.rs` and `<dir>/negative/<rule>_<n>.rs`.
//! The filename prefix up to the trailing `_<n>` is the labeled rule. A
//! positive case is a true positive when the analyzer reports ≥1 finding
//! of its labeled rule, otherwise a false negative. A negative case is
//! clean when the analyzer reports *zero* findings of any rule, otherwise
//! every reported finding counts as a false positive.
//!
//! Corpus files are analyzed as operator-crate library code
//! ([`FileClass::OperatorLib`]) so that every rule is in scope.

use crate::engine::{FileClass, RULES};
use std::collections::BTreeMap;
use std::path::Path;

/// TP/FN/FP tallies for one rule.
#[derive(Debug, Default, Clone, Copy)]
pub struct RuleScore {
    /// Positive cases where the labeled rule fired.
    pub tp: usize,
    /// Positive cases where it did not (misses).
    pub fn_: usize,
    /// Findings reported on negative cases (noise).
    pub fp: usize,
    /// Negative cases labeled with this rule.
    pub negatives: usize,
}

/// Whole-corpus scorecard.
#[derive(Debug, Default)]
pub struct Score {
    /// Per-rule tallies, keyed by rule name.
    pub per_rule: BTreeMap<String, RuleScore>,
    /// Total corpus files scored.
    pub cases: usize,
}

impl Score {
    /// True when every positive fired and no negative produced noise.
    pub fn perfect(&self) -> bool {
        self.per_rule.values().all(|s| s.fn_ == 0 && s.fp == 0)
    }

    /// Render the scorecard as an aligned table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<20} {:>4} {:>4} {:>4}\n", "rule", "TP", "FN", "FP"));
        let (mut tp, mut fn_, mut fp) = (0, 0, 0);
        for (rule, s) in &self.per_rule {
            out.push_str(&format!("{rule:<20} {:>4} {:>4} {:>4}\n", s.tp, s.fn_, s.fp));
            tp += s.tp;
            fn_ += s.fn_;
            fp += s.fp;
        }
        out.push_str(&format!("{:<20} {tp:>4} {fn_:>4} {fp:>4}\n", "total"));
        out.push_str(&format!(
            "{} corpus cases: {}\n",
            self.cases,
            if self.perfect() { "100% TP, 0 FP" } else { "MISSES PRESENT" }
        ));
        out
    }
}

/// Extract the labeled rule from a corpus filename like
/// `swallowed-error_2.rs`. Shared with the robustness scorer.
pub(crate) fn labeled_rule(file: &Path) -> Option<String> {
    let stem = file.file_stem()?.to_str()?;
    let (rule, _n) = stem.rsplit_once('_')?;
    RULES.contains(&rule).then(|| rule.to_string())
}

/// Score the corpus at `dir`, which must contain `positive/` and
/// `negative/` subdirectories of labeled `.rs` cases.
pub fn score(dir: &Path) -> Result<Score, String> {
    let mut score = Score::default();
    for rule in RULES {
        score.per_rule.insert(rule.to_string(), RuleScore::default());
    }
    for (side, positive) in [("positive", true), ("negative", false)] {
        let side_dir = dir.join(side);
        let files = crate::collect_rust_files(&side_dir);
        if files.is_empty() {
            return Err(format!("no corpus cases under {}", side_dir.display()));
        }
        for file in files {
            let Some(rule) = labeled_rule(&file) else {
                return Err(format!(
                    "corpus file {} is not named <rule>_<n>.rs",
                    file.display()
                ));
            };
            let src = std::fs::read_to_string(&file)
                .map_err(|e| format!("read {}: {e}", file.display()))?;
            let report =
                crate::analyze_single(&file.to_string_lossy(), FileClass::OperatorLib, &src);
            score.cases += 1;
            let entry = score.per_rule.entry(rule.clone()).or_default();
            if positive {
                if report.findings.iter().any(|f| f.rule == rule) {
                    entry.tp += 1;
                } else {
                    entry.fn_ += 1;
                }
            } else {
                entry.negatives += 1;
                // Any finding at all on a negative case is noise; charge it
                // to the rule that produced it.
                if report.findings.is_empty() {
                    continue;
                }
                for f in &report.findings {
                    score.per_rule.entry(f.rule.clone()).or_default().fp += 1;
                }
            }
        }
    }
    Ok(score)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filename_labeling() {
        assert_eq!(
            labeled_rule(Path::new("corpus/positive/swallowed-error_2.rs")),
            Some("swallowed-error".to_string())
        );
        assert_eq!(
            labeled_rule(Path::new("counter-truncation_10.rs")),
            Some("counter-truncation".to_string())
        );
        assert_eq!(labeled_rule(Path::new("not_a_rule.rs")), None);
        assert_eq!(labeled_rule(Path::new("noindex.rs")), None);
    }

    #[test]
    fn perfect_requires_no_misses_and_no_noise() {
        let mut s = Score::default();
        s.per_rule.insert("charge-escape".into(), RuleScore { tp: 3, fn_: 0, fp: 0, negatives: 2 });
        assert!(s.perfect());
        s.per_rule
            .insert("swallowed-error".into(), RuleScore { tp: 2, fn_: 1, fp: 0, negatives: 3 });
        assert!(!s.perfect());
        assert!(s.table().contains("MISSES"));
    }
}
