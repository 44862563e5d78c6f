//! rapx-bench-style *robust detection* (RD) scoring: run every rule over
//! the labeled corpus **and** auto-generated semantics-preserving
//! variants of each case ([`crate::variants`]), and report how much of
//! the base-case accuracy survives mutation.
//!
//! ## Scoring model
//!
//! Every base case gets a verdict exactly as in [`crate::corpus`]: a
//! positive case is correct when its labeled rule fires, a negative case
//! when *no* rule fires. Each case is then mutated by every applicable
//! transform kind; a kind's variants form one *group*:
//!
//! * **absolute** — every variant in the group keeps the correct verdict;
//! * **partial**  — some do, some don't;
//! * **failed**   — every variant flips the verdict.
//!
//! A case is **robust** when its base verdict is correct *and* every
//! applicable group is absolute. `RD% = robust / bases` per rule and in
//! total — the headline number the CI gate enforces a floor on.
//! Transforms that don't apply to a case (nothing to wrap, fewer than
//! three items to reorder, …) contribute no group and don't dilute RD.
//!
//! ## Determinism
//!
//! Each case's variant stream is seeded with
//! `mix(global_seed, fnv1a(case_name))`, so generation is a pure function
//! of `(seed, case)` — independent of corpus iteration order and of
//! `--jobs`. Workers return results keyed by case index and the report is
//! assembled in index order, so the rendered table and JSON are
//! byte-identical across runs and thread counts. Workspace baselines
//! (`--baseline`) are deliberately rejected: variants are corpus-only and
//! a stale waiver file must never mask an RD regression.

use crate::engine::{FileClass, RULES};
use crate::semantic::Config;
use crate::variants::{self, fnv1a, mix, Transform};
use sgx_bench_core::json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Scorer options, straight from the CLI flags.
#[derive(Debug, Clone)]
pub struct Options {
    /// Global seed for variant generation.
    pub seed: u64,
    /// Maximum wrapper indirection depth (`wrap[d1]..wrap[dN]`).
    pub depth: usize,
    /// Maximum `let`-chain length (`seqlen[n2]..seqlen[nN]`).
    pub seqlen: usize,
    /// Worker threads (1 = serial; output is identical either way).
    pub jobs: usize,
    /// Rule defenses to disable ([`weaken_config`]) — the CI negative
    /// check proves RD collapses without them.
    pub weaken: Vec<String>,
    /// When set, write every generated variant into this directory
    /// (debugging and corpus promotion).
    pub emit_dir: Option<PathBuf>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            seed: 42,
            depth: 2,
            seqlen: 3,
            jobs: 1,
            weaken: Vec::new(),
            emit_dir: None,
        }
    }
}

/// Translate `--weaken` knob names into a semantic [`Config`].
pub fn weaken_config(weaken: &[String]) -> Result<Config, String> {
    let mut cfg = Config::default();
    for knob in weaken {
        match knob.as_str() {
            "taint-indirection" => cfg.taint_call_depth = 1,
            "taint-alias" => cfg.taint_aliases = false,
            other => {
                return Err(format!(
                    "unknown --weaken knob `{other}` (known: taint-indirection, taint-alias)"
                ))
            }
        }
    }
    Ok(cfg)
}

/// One variant's verdict.
#[derive(Debug, Clone)]
pub struct VariantOutcome {
    /// Transform label, e.g. `wrap[d2]`.
    pub label: String,
    /// Did the case keep the correct verdict under this variant?
    pub ok: bool,
}

/// One transform kind's variants over one case.
#[derive(Debug, Clone)]
pub struct GroupOutcome {
    /// Transform kind (the grouping key), e.g. `wrap`.
    pub kind: &'static str,
    /// Individual variant verdicts (never empty — inapplicable kinds
    /// produce no group at all).
    pub variants: Vec<VariantOutcome>,
}

impl GroupOutcome {
    /// Every variant correct.
    pub fn absolute(&self) -> bool {
        self.variants.iter().all(|v| v.ok)
    }

    /// Every variant wrong.
    pub fn failed(&self) -> bool {
        self.variants.iter().all(|v| !v.ok)
    }
}

/// One base case, fully scored.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Corpus-relative name, e.g. `positive/untracked-slice-taint_1.rs`.
    pub name: String,
    /// Labeled rule.
    pub rule: String,
    /// Positive (must fire) or negative (must stay silent).
    pub positive: bool,
    /// Base verdict correct?
    pub base_ok: bool,
    /// Rules that fired on a negative base case (FP attribution).
    pub base_noise: Vec<String>,
    /// Applicable transform groups.
    pub groups: Vec<GroupOutcome>,
}

impl CaseOutcome {
    /// Base correct and every group absolute.
    pub fn robust(&self) -> bool {
        self.base_ok && self.groups.iter().all(GroupOutcome::absolute)
    }
}

/// Per-rule RD aggregate (one table row).
#[derive(Debug, Default, Clone)]
pub struct RuleRd {
    /// Base cases labeled with this rule.
    pub bases: usize,
    /// Positive bases where the rule fired.
    pub tp: usize,
    /// Positive bases where it did not.
    pub fn_: usize,
    /// Negative bases that stayed silent.
    pub tn: usize,
    /// Negative bases with any finding.
    pub fp: usize,
    /// Applicable variant groups across this rule's cases.
    pub groups: usize,
    /// Groups where every variant kept the verdict.
    pub absolute: usize,
    /// Groups with mixed verdicts.
    pub partial: usize,
    /// Groups where every variant flipped the verdict.
    pub failed: usize,
    /// Robust cases (base correct + all groups absolute).
    pub robust: usize,
}

impl RuleRd {
    /// RD percentage for this row (100.0 when there are no bases).
    pub fn rd_percent(&self) -> f64 {
        if self.bases == 0 {
            return 100.0;
        }
        round1(self.robust as f64 * 100.0 / self.bases as f64)
    }
}

fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

/// The full RD report.
#[derive(Debug)]
pub struct Report {
    /// Options echoed for provenance.
    pub options: Options,
    /// Every case in deterministic corpus order.
    pub cases: Vec<CaseOutcome>,
}

impl Report {
    /// Per-rule aggregate rows, keyed by rule name.
    pub fn per_rule(&self) -> BTreeMap<String, RuleRd> {
        let mut rows: BTreeMap<String, RuleRd> = BTreeMap::new();
        for rule in RULES {
            rows.insert(rule.to_string(), RuleRd::default());
        }
        for case in &self.cases {
            let row = rows.entry(case.rule.clone()).or_default();
            row.bases += 1;
            if case.positive {
                if case.base_ok {
                    row.tp += 1;
                } else {
                    row.fn_ += 1;
                }
            } else if case.base_ok {
                row.tn += 1;
            } else {
                row.fp += 1;
            }
            row.groups += case.groups.len();
            for g in &case.groups {
                if g.absolute() {
                    row.absolute += 1;
                } else if g.failed() {
                    row.failed += 1;
                } else {
                    row.partial += 1;
                }
            }
            if case.robust() {
                row.robust += 1;
            }
        }
        rows
    }

    /// Per-transform-kind aggregate `(groups, absolute, partial, failed)`.
    pub fn per_transform(&self) -> BTreeMap<&'static str, (usize, usize, usize, usize)> {
        let mut rows: BTreeMap<&'static str, (usize, usize, usize, usize)> = BTreeMap::new();
        for case in &self.cases {
            for g in &case.groups {
                let row = rows.entry(g.kind).or_default();
                row.0 += 1;
                if g.absolute() {
                    row.1 += 1;
                } else if g.failed() {
                    row.3 += 1;
                } else {
                    row.2 += 1;
                }
            }
        }
        rows
    }

    /// Overall RD percentage: robust cases / all cases.
    pub fn rd_percent(&self) -> f64 {
        if self.cases.is_empty() {
            return 100.0;
        }
        let robust = self.cases.iter().filter(|c| c.robust()).count();
        round1(robust as f64 * 100.0 / self.cases.len() as f64)
    }

    /// Every `(case, variant label)` that flipped the verdict, plus base
    /// misses as `(case, "base")`.
    pub fn failures(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for case in &self.cases {
            if !case.base_ok {
                out.push((case.name.clone(), "base".to_string()));
            }
            for g in &case.groups {
                for v in &g.variants {
                    if !v.ok {
                        out.push((case.name.clone(), v.label.clone()));
                    }
                }
            }
        }
        out
    }

    /// Aligned text table, rapx-style.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let weaken = if self.options.weaken.is_empty() {
            "(none)".to_string()
        } else {
            self.options.weaken.join(",")
        };
        out.push_str(&format!(
            "sgx-lint robustness — seed {}, wrap depth {}, seqlen {}, weaken {}\n",
            self.options.seed, self.options.depth, self.options.seqlen, weaken
        ));
        out.push_str(&format!(
            "{:<24} {:>5} {:>4} {:>4} {:>4} {:>4} {:>5} {:>5} {:>5} {:>5} {:>7} {:>6}\n",
            "rule", "bases", "TP", "FN", "TN", "FP", "grp", "abs", "part", "fail", "robust", "RD%"
        ));
        let rows = self.per_rule();
        let mut total = RuleRd::default();
        for (rule, r) in &rows {
            out.push_str(&format!(
                "{rule:<24} {:>5} {:>4} {:>4} {:>4} {:>4} {:>5} {:>5} {:>5} {:>5} {:>7} {:>6.1}\n",
                r.bases,
                r.tp,
                r.fn_,
                r.tn,
                r.fp,
                r.groups,
                r.absolute,
                r.partial,
                r.failed,
                r.robust,
                r.rd_percent()
            ));
            total.bases += r.bases;
            total.tp += r.tp;
            total.fn_ += r.fn_;
            total.tn += r.tn;
            total.fp += r.fp;
            total.groups += r.groups;
            total.absolute += r.absolute;
            total.partial += r.partial;
            total.failed += r.failed;
            total.robust += r.robust;
        }
        out.push_str(&format!(
            "{:<24} {:>5} {:>4} {:>4} {:>4} {:>4} {:>5} {:>5} {:>5} {:>5} {:>7} {:>6.1}\n",
            "total",
            total.bases,
            total.tp,
            total.fn_,
            total.tn,
            total.fp,
            total.groups,
            total.absolute,
            total.partial,
            total.failed,
            total.robust,
            self.rd_percent()
        ));
        let per_t = self.per_transform();
        out.push_str("per transform kind (groups: absolute/partial/failed):\n");
        for kind in variants::KINDS {
            let (g, a, p, f) = per_t.get(kind).copied().unwrap_or((0, 0, 0, 0));
            out.push_str(&format!("  {kind:<10} {g:>4} groups: {a:>4} {p:>4} {f:>4}\n"));
        }
        let failures = self.failures();
        if failures.is_empty() {
            out.push_str("no failing variants\n");
        } else {
            out.push_str(&format!("{} failing variant(s):\n", failures.len()));
            for (case, label) in &failures {
                out.push_str(&format!("  {case} :: {label}\n"));
            }
        }
        out
    }

    /// Deterministic JSON rendering through [`sgx_bench_core::json`].
    pub fn json(&self) -> Value {
        let rows = self.per_rule();
        let per_rule: Vec<Value> = rows
            .iter()
            .map(|(rule, r)| {
                Value::Obj(vec![
                    ("rule".into(), Value::Str(rule.clone())),
                    ("bases".into(), Value::Num(r.bases as f64)),
                    ("tp".into(), Value::Num(r.tp as f64)),
                    ("fn".into(), Value::Num(r.fn_ as f64)),
                    ("tn".into(), Value::Num(r.tn as f64)),
                    ("fp".into(), Value::Num(r.fp as f64)),
                    ("groups".into(), Value::Num(r.groups as f64)),
                    ("absolute".into(), Value::Num(r.absolute as f64)),
                    ("partial".into(), Value::Num(r.partial as f64)),
                    ("failed".into(), Value::Num(r.failed as f64)),
                    ("robust".into(), Value::Num(r.robust as f64)),
                    ("rd_percent".into(), Value::Num(r.rd_percent())),
                ])
            })
            .collect();
        let per_t = self.per_transform();
        let per_transform: Vec<Value> = variants::KINDS
            .iter()
            .map(|kind| {
                let (g, a, p, f) = per_t.get(kind).copied().unwrap_or((0, 0, 0, 0));
                Value::Obj(vec![
                    ("kind".into(), Value::Str((*kind).into())),
                    ("groups".into(), Value::Num(g as f64)),
                    ("absolute".into(), Value::Num(a as f64)),
                    ("partial".into(), Value::Num(p as f64)),
                    ("failed".into(), Value::Num(f as f64)),
                ])
            })
            .collect();
        let failures: Vec<Value> = self
            .failures()
            .into_iter()
            .map(|(case, label)| {
                Value::Obj(vec![
                    ("case".into(), Value::Str(case)),
                    ("variant".into(), Value::Str(label)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".into(), Value::Str("sgx-lint-robustness/1".into())),
            (
                "params".into(),
                Value::Obj(vec![
                    ("seed".into(), Value::Num(self.options.seed as f64)),
                    ("depth".into(), Value::Num(self.options.depth as f64)),
                    ("seqlen".into(), Value::Num(self.options.seqlen as f64)),
                    (
                        "weaken".into(),
                        Value::Arr(
                            self.options.weaken.iter().map(|w| Value::Str(w.clone())).collect(),
                        ),
                    ),
                    ("kinds".into(), Value::Num(variants::KINDS.len() as f64)),
                ]),
            ),
            ("cases".into(), Value::Num(self.cases.len() as f64)),
            ("rd_percent".into(), Value::Num(self.rd_percent())),
            ("per_rule".into(), Value::Arr(per_rule)),
            ("per_transform".into(), Value::Arr(per_transform)),
            ("failures".into(), Value::Arr(failures)),
        ])
    }
}

/// The full variant plan for one case seed: every transform instance the
/// scorer will attempt, in deterministic order (grouped by kind).
fn plan(case_seed: u64, opts: &Options) -> Vec<Transform> {
    let mut out = vec![
        Transform::Rename { seed: mix(case_seed, 11) },
        Transform::Rename { seed: mix(case_seed, 12) },
        Transform::Reorder { seed: mix(case_seed, 21) },
        Transform::Reorder { seed: mix(case_seed, 22) },
    ];
    for d in 1..=opts.depth {
        out.push(Transform::Wrap { depth: d });
    }
    for n in 2..=opts.seqlen {
        out.push(Transform::Seqlen { chain: n });
    }
    out.push(Transform::Nest { depth: 1 });
    out.push(Transform::Nest { depth: 2 });
    out.push(Transform::Noise { seed: mix(case_seed, 31) });
    out.push(Transform::Noise { seed: mix(case_seed, 32) });
    out.push(Transform::Alias { seed: mix(case_seed, 51) });
    out.push(Transform::Alias { seed: mix(case_seed, 52) });
    out.push(Transform::Dyncall);
    out.push(Transform::Xsplit { seed: mix(case_seed, 61) });
    out.push(Transform::Xsplit { seed: mix(case_seed, 62) });
    out.push(Transform::Compose { seed: mix(case_seed, 41) });
    out.push(Transform::Compose { seed: mix(case_seed, 42) });
    out
}

/// Verdict for one source text under this case's label: `(correct,
/// noise-rules-fired)` — noise only populated for negative cases.
fn verdict(name: &str, rule: &str, positive: bool, src: &str, cfg: &Config) -> (bool, Vec<String>) {
    let report = crate::analyze_single_cfg(name, FileClass::OperatorLib, src, cfg);
    if positive {
        (report.findings.iter().any(|f| f.rule == rule), Vec::new())
    } else {
        let noise: Vec<String> = report.findings.iter().map(|f| f.rule.clone()).collect();
        (noise.is_empty(), noise)
    }
}

/// Verdict for a multi-file variant workspace. A one-file workspace takes
/// the exact single-file path above (same label, same analysis entry
/// point), so pre-existing variants score byte-identically; cross-file
/// variants ([`variants::apply_ws`]) build one [`crate::analyze_set_cfg`]
/// workspace so set-scoped rules see every part together.
fn verdict_ws(
    case_name: &str,
    rule: &str,
    positive: bool,
    files: &[(String, String)],
    cfg: &Config,
) -> (bool, Vec<String>) {
    if let [(_, src)] = files {
        return verdict(case_name, rule, positive, src, cfg);
    }
    let stem = case_name.trim_end_matches(".rs");
    let entries: Vec<(PathBuf, FileClass, String)> = files
        .iter()
        .map(|(fname, src)| {
            (PathBuf::from(format!("{stem}/{fname}")), FileClass::OperatorLib, src.clone())
        })
        .collect();
    let reports = crate::analyze_set_cfg(entries, cfg);
    if positive {
        (reports.iter().any(|(_, r)| r.findings.iter().any(|f| f.rule == rule)), Vec::new())
    } else {
        let noise: Vec<String> = reports
            .iter()
            .flat_map(|(_, r)| r.findings.iter().map(|f| f.rule.clone()))
            .collect();
        (noise.is_empty(), noise)
    }
}

/// One loaded case, pre-scoring.
struct CaseInput {
    name: String,
    rule: String,
    positive: bool,
    src: String,
}

fn load_cases(dir: &Path) -> Result<Vec<CaseInput>, String> {
    let mut out = Vec::new();
    for (side, positive) in [("positive", true), ("negative", false)] {
        let side_dir = dir.join(side);
        let files = crate::collect_rust_files(&side_dir);
        if files.is_empty() {
            return Err(format!("no corpus cases under {}", side_dir.display()));
        }
        for file in files {
            let Some(rule) = crate::corpus::labeled_rule(&file) else {
                return Err(format!("corpus file {} is not named <rule>_<n>.rs", file.display()));
            };
            let src = std::fs::read_to_string(&file)
                .map_err(|e| format!("read {}: {e}", file.display()))?;
            let fname = file.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_string();
            out.push(CaseInput { name: format!("{side}/{fname}"), rule, positive, src });
        }
    }
    Ok(out)
}

fn score_case(case: &CaseInput, opts: &Options, cfg: &Config) -> CaseOutcome {
    let (base_ok, base_noise) = verdict(&case.name, &case.rule, case.positive, &case.src, cfg);
    let case_seed = mix(opts.seed, fnv1a(&case.name));
    let mut groups: Vec<GroupOutcome> = Vec::new();
    for t in plan(case_seed, opts) {
        let Some(files) = variants::apply_ws(&case.src, &t) else { continue };
        if let Some(dir) = &opts.emit_dir {
            let safe = t.label().replace(['[', ']'], "_");
            let vdir = dir.join(format!("{}__{safe}", case.name.replace(['/', '.'], "_")));
            // One directory per variant, files in workspace order (already
            // deterministic from `apply_ws`). Emission is best-effort
            // debugging output; a full disk must not abort scoring, but it
            // must not be silent either.
            if let Err(e) = std::fs::create_dir_all(&vdir).and_then(|()| {
                files.iter().try_for_each(|(fname, src)| std::fs::write(vdir.join(fname), src))
            }) {
                eprintln!("sgx-lint: emit {}: {e}", vdir.display());
            }
        }
        let (ok, _) = verdict_ws(&case.name, &case.rule, case.positive, &files, cfg);
        let kind = t.kind();
        match groups.last_mut() {
            Some(g) if g.kind == kind => g.variants.push(VariantOutcome { label: t.label(), ok }),
            _ => groups.push(GroupOutcome {
                kind,
                variants: vec![VariantOutcome { label: t.label(), ok }],
            }),
        }
    }
    CaseOutcome {
        name: case.name.clone(),
        rule: case.rule.clone(),
        positive: case.positive,
        base_ok,
        base_noise,
        groups,
    }
}

/// Score the corpus at `dir` under `opts`. Deterministic for a fixed
/// `(corpus, seed, depth, seqlen, weaken)` regardless of `jobs`.
pub fn run(dir: &Path, opts: &Options) -> Result<Report, String> {
    let cfg = weaken_config(&opts.weaken)?;
    let inputs = load_cases(dir)?;
    let jobs = opts.jobs.max(1).min(inputs.len().max(1));
    let mut indexed: Vec<(usize, CaseOutcome)> = if jobs <= 1 {
        inputs.iter().enumerate().map(|(i, case)| (i, score_case(case, opts, &cfg))).collect()
    } else {
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..jobs {
                let inputs = &inputs;
                let cfg = &cfg;
                let opts_ref = &*opts;
                handles.push(scope.spawn(move || {
                    let mut part = Vec::new();
                    for (i, case) in inputs.iter().enumerate() {
                        if i % jobs == w {
                            part.push((i, score_case(case, opts_ref, cfg)));
                        }
                    }
                    part
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| match h.join() {
                    Ok(part) => part,
                    // Re-raise a worker panic on the caller's thread so
                    // the failure keeps its original message.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    };
    // Striped workers cover each index exactly once; re-sort into corpus
    // order so the report is independent of completion order.
    indexed.sort_by_key(|(i, _)| *i);
    if indexed.len() != inputs.len() {
        return Err(format!("internal: scored {} of {} cases", indexed.len(), inputs.len()));
    }
    Ok(Report {
        options: opts.clone(),
        cases: indexed.into_iter().map(|(_, o)| o).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
    }

    #[test]
    fn rd_meets_the_floor_on_the_shipped_corpus() {
        let report = run(&corpus_dir(), &Options::default()).expect("corpus scores");
        let rd = report.rd_percent();
        assert!(rd >= 95.0, "RD {rd} below floor; failures: {:?}", report.failures());
        // Every rule keeps a clean base scorecard under robustness too,
        // over at least two positive and two negative cases.
        for (rule, row) in report.per_rule() {
            assert_eq!(row.fn_, 0, "{rule} has base misses");
            assert_eq!(row.fp, 0, "{rule} has base noise");
            assert!(row.tp >= 2 && row.tn >= 2, "corpus shrank for {rule}: {row:?}");
        }
        // At least 9 transform kinds actually produced groups, including
        // the cross-file and aliasing ones.
        let per_t = report.per_transform();
        assert!(per_t.len() >= 9, "only {} transform kinds applied", per_t.len());
        for kind in ["alias", "dyncall", "xsplit"] {
            assert!(per_t.get(kind).is_some_and(|r| r.0 > 0), "{kind} produced no groups");
        }
    }

    #[test]
    fn weakened_rules_drop_rd() {
        let weak = Options {
            weaken: vec!["taint-indirection".into(), "taint-alias".into()],
            ..Options::default()
        };
        let report = run(&corpus_dir(), &weak).expect("corpus scores");
        let strong = run(&corpus_dir(), &Options::default()).expect("corpus scores");
        assert!(
            report.rd_percent() < strong.rd_percent(),
            "weakening changed nothing: {} vs {}",
            report.rd_percent(),
            strong.rd_percent()
        );
        // The damage concentrates on the taint rule.
        let row = &report.per_rule()["untracked-slice-taint"];
        assert!(row.robust < row.bases, "taint rule unaffected by weakening");
    }

    #[test]
    fn unknown_weaken_knob_is_rejected() {
        assert!(weaken_config(&["nonsense".to_string()]).is_err());
        assert!(weaken_config(&[]).is_ok());
    }

    #[test]
    fn jobs_do_not_change_the_report() {
        let serial = run(&corpus_dir(), &Options::default()).expect("serial");
        let parallel =
            run(&corpus_dir(), &Options { jobs: 4, ..Options::default() }).expect("parallel");
        assert_eq!(serial.table(), parallel.table());
        assert_eq!(serial.json().pretty(), parallel.json().pretty());
    }

    #[test]
    fn report_renders_both_formats_deterministically() {
        let a = run(&corpus_dir(), &Options::default()).expect("a");
        let b = run(&corpus_dir(), &Options::default()).expect("b");
        assert_eq!(a.table(), b.table());
        assert_eq!(a.json().pretty(), b.json().pretty());
        assert!(a.table().contains("rename"));
        assert!(a.json().pretty().contains("\"schema\": \"sgx-lint-robustness/1\""));
    }
}
