//! Self-consistency fuzz: the PR 6 variant generator turned on the
//! workspace's *own* sources (ROADMAP item 5).
//!
//! The robustness scorer ([`crate::robustness`]) mutates the labeled
//! corpus, where every case has a known verdict. This pass instead
//! mutates a pinned set of *clean* workspace files. The invariant is
//! one-sided but sharp: every transform in [`crate::variants`] is
//! semantics-preserving, so if a variant of a clean file produces any
//! finding, that finding is a rule **false positive** by construction —
//! no labeling required. CI runs this over a small pinned subset
//! (`DEFAULT_FILES`) so a rule change that starts keying on incidental
//! syntax (a name, an item order, a line adjacency) fails loudly.
//!
//! Preconditions, enforced with exit 2 (usage error, not FP): each
//! pinned file must analyze clean *solo*. Marker-bearing files are fair
//! game: every transform preserves marker/pragma line-adjacency (noise
//! never inserts after a comment-bearing line, reorder moves whole line
//! runs, xsplit replicates module-set pragmas into both halves), so a
//! suppression that holds on the base file must keep holding on every
//! variant — a variant finding is still a genuine FP, either in a rule
//! or in the generator's adjacency contract.
//!
//! Determinism: each file's variant stream is seeded with
//! `mix(seed, fnv1a(path))`, exactly like the robustness scorer, so the
//! report is a pure function of `(seed, sources)`.

use crate::semantic::Config;
use crate::variants::{self, fnv1a, mix, Transform};
use sgx_bench_core::json::Value;
use std::path::PathBuf;

/// The pinned CI subset: small, dependency-light library files that are
/// clean under solo analysis and exercise distinct rule families
/// (counter structs, percentile math, service spec/DES config types,
/// the variant generator's own RNG). `numa.rs` is deliberately marker-
/// and pragma-bearing (charge-module with an allow(charge-escape)
/// waiver): it proves the transforms keep marker/pragma adjacency
/// intact. `cache.rs` and `fastdiv.rs` cover the hot-path rewrite's
/// packed-metadata cache and the Lemire-style fastmod helper. Kept deliberately short — the full
/// workspace sweep is a manual `sgx-lint selfcheck crates/...` away.
pub const DEFAULT_FILES: [&str; 8] = [
    "crates/sgx-serve/src/counters.rs",
    "crates/sgx-serve/src/spec.rs",
    "crates/sgx-serve/src/costs.rs",
    "crates/sgx-bench-core/src/percentile.rs",
    "crates/sgx-sim/src/machine/numa.rs",
    "crates/sgx-serve/src/des.rs",
    "crates/sgx-sim/src/cache.rs",
    "crates/sgx-sim/src/fastdiv.rs",
];

/// Scorer options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Global seed for variant generation.
    pub seed: u64,
    /// Maximum wrapper indirection depth.
    pub depth: usize,
    /// Maximum `let`-chain length.
    pub seqlen: usize,
}

impl Default for Options {
    fn default() -> Options {
        Options { seed: 42, depth: 2, seqlen: 3 }
    }
}

/// One false positive surfaced by the fuzz: a finding on a variant of a
/// clean file.
#[derive(Debug, Clone)]
pub struct FalsePositive {
    /// Workspace-relative path of the base file.
    pub file: String,
    /// Transform label, e.g. `compose[s123]`.
    pub variant: String,
    /// Rule that mis-fired.
    pub rule: String,
    /// Line in the *variant* text (for reproducing with --emit).
    pub line: u32,
    /// The finding message.
    pub message: String,
}

/// Per-file tally.
#[derive(Debug, Clone)]
pub struct FileOutcome {
    /// Workspace-relative path.
    pub file: String,
    /// Variants generated (inapplicable transforms are skipped).
    pub variants: usize,
    /// Variants that stayed clean.
    pub clean: usize,
}

/// The full selfcheck report.
#[derive(Debug)]
pub struct Report {
    /// Seed echoed for provenance.
    pub seed: u64,
    /// Per-file tallies in input order.
    pub files: Vec<FileOutcome>,
    /// Every rule false positive found.
    pub false_positives: Vec<FalsePositive>,
}

impl Report {
    /// Total variants checked.
    pub fn variants(&self) -> usize {
        self.files.iter().map(|f| f.variants).sum()
    }

    /// Aligned text rendering.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("sgx-lint selfcheck — seed {}\n", self.seed));
        for f in &self.files {
            out.push_str(&format!("  {:<48} {:>3} variants, {:>3} clean\n", f.file, f.variants, f.clean));
        }
        if self.false_positives.is_empty() {
            out.push_str(&format!(
                "{} variants of {} clean files: no rule false positives\n",
                self.variants(),
                self.files.len()
            ));
        } else {
            out.push_str(&format!("{} rule false positive(s):\n", self.false_positives.len()));
            for fp in &self.false_positives {
                out.push_str(&format!(
                    "  {} :: {} :: [{}] line {}: {}\n",
                    fp.file, fp.variant, fp.rule, fp.line, fp.message
                ));
            }
        }
        out
    }

    /// Deterministic JSON rendering through [`sgx_bench_core::json`].
    pub fn json(&self) -> Value {
        let files: Vec<Value> = self
            .files
            .iter()
            .map(|f| {
                Value::Obj(vec![
                    ("file".into(), Value::Str(f.file.clone())),
                    ("variants".into(), Value::Num(f.variants as f64)),
                    ("clean".into(), Value::Num(f.clean as f64)),
                ])
            })
            .collect();
        let fps: Vec<Value> = self
            .false_positives
            .iter()
            .map(|fp| {
                Value::Obj(vec![
                    ("file".into(), Value::Str(fp.file.clone())),
                    ("variant".into(), Value::Str(fp.variant.clone())),
                    ("rule".into(), Value::Str(fp.rule.clone())),
                    ("line".into(), Value::Num(fp.line as f64)),
                    ("message".into(), Value::Str(fp.message.clone())),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".into(), Value::Str("sgx-lint-selfcheck/1".into())),
            ("seed".into(), Value::Num(self.seed as f64)),
            ("files".into(), Value::Arr(files)),
            ("variants".into(), Value::Num(self.variants() as f64)),
            ("false_positives".into(), Value::Arr(fps)),
        ])
    }
}

/// The variant plan for one file seed — the same shape the robustness
/// scorer uses, so a rule that survives the corpus gauntlet faces the
/// identical transforms here.
fn plan(file_seed: u64, opts: &Options) -> Vec<Transform> {
    let mut out = vec![
        Transform::Rename { seed: mix(file_seed, 11) },
        Transform::Rename { seed: mix(file_seed, 12) },
        Transform::Reorder { seed: mix(file_seed, 21) },
        Transform::Reorder { seed: mix(file_seed, 22) },
    ];
    for d in 1..=opts.depth {
        out.push(Transform::Wrap { depth: d });
    }
    for n in 2..=opts.seqlen {
        out.push(Transform::Seqlen { chain: n });
    }
    out.push(Transform::Nest { depth: 1 });
    out.push(Transform::Nest { depth: 2 });
    out.push(Transform::Noise { seed: mix(file_seed, 31) });
    out.push(Transform::Noise { seed: mix(file_seed, 32) });
    out.push(Transform::Alias { seed: mix(file_seed, 51) });
    out.push(Transform::Alias { seed: mix(file_seed, 52) });
    out.push(Transform::Dyncall);
    out.push(Transform::Xsplit { seed: mix(file_seed, 61) });
    out.push(Transform::Xsplit { seed: mix(file_seed, 62) });
    out.push(Transform::Compose { seed: mix(file_seed, 41) });
    out.push(Transform::Compose { seed: mix(file_seed, 42) });
    out
}

/// Run the fuzz over `files` (workspace-relative paths). `Err` means a
/// precondition failed — a missing file, a file that is not clean solo,
/// or one that leans on allow-markers — and maps to exit 2 in the CLI:
/// that is a selfcheck configuration error, not a rule false positive.
pub fn run(files: &[PathBuf], opts: &Options) -> Result<Report, String> {
    let cfg = Config::default();
    let mut outcomes = Vec::new();
    let mut false_positives = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("selfcheck: read {}: {e}", path.display()))?;
        let label = path.to_string_lossy().to_string();
        let class = crate::classify(path);
        let base = crate::analyze_single_cfg(&label, class, &src, &cfg);
        if !base.findings.is_empty() {
            let first = &base.findings[0];
            return Err(format!(
                "selfcheck: {label} is not clean under solo analysis \
                 ([{}] line {}: {}) — pin a clean file",
                first.rule, first.line, first.message
            ));
        }
        let file_seed = mix(opts.seed, fnv1a(&label));
        let mut generated = 0usize;
        let mut clean = 0usize;
        for t in plan(file_seed, opts) {
            let Some(files) = variants::apply_ws(&src, &t) else { continue };
            generated += 1;
            // Single-file variants analyze solo under the base label, as
            // before; cross-file variants (xsplit) form one workspace so
            // set-scoped rules see both halves together.
            let findings: Vec<crate::engine::Finding> = if let [(_, mutated)] = files.as_slice() {
                crate::analyze_single_cfg(&label, class, mutated, &cfg).findings
            } else {
                let entries = files
                    .iter()
                    .map(|(fname, text)| {
                        (PathBuf::from(format!("{label}::{fname}")), class, text.clone())
                    })
                    .collect();
                crate::analyze_set_cfg(entries, &cfg)
                    .into_iter()
                    .flat_map(|(_, r)| r.findings)
                    .collect()
            };
            if findings.is_empty() {
                clean += 1;
            } else {
                for f in &findings {
                    false_positives.push(FalsePositive {
                        file: label.clone(),
                        variant: t.label(),
                        rule: f.rule.clone(),
                        line: f.line,
                        message: f.message.clone(),
                    });
                }
            }
        }
        if generated == 0 {
            return Err(format!(
                "selfcheck: no transform applies to {label} — pin a file with \
                 renameable items"
            ));
        }
        outcomes.push(FileOutcome { file: label, variants: generated, clean });
    }
    if outcomes.is_empty() {
        return Err("selfcheck: no files given".to_string());
    }
    Ok(Report { seed: opts.seed, files: outcomes, false_positives })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        // crates/sgx-lint -> workspace root.
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    fn default_paths() -> Vec<PathBuf> {
        DEFAULT_FILES.iter().map(|f| repo_root().join(f)).collect()
    }

    #[test]
    fn pinned_workspace_files_survive_the_fuzz() {
        let report = run(&default_paths(), &Options::default()).expect("preconditions hold");
        assert_eq!(report.files.len(), DEFAULT_FILES.len());
        assert!(report.variants() >= 3 * DEFAULT_FILES.len(), "too few variants generated");
        assert!(
            report.false_positives.is_empty(),
            "rule false positives on clean workspace variants:\n{}",
            report.table()
        );
    }

    #[test]
    fn report_is_deterministic_and_renders_both_formats() {
        let paths = default_paths();
        let a = run(&paths, &Options::default()).expect("a");
        let b = run(&paths, &Options::default()).expect("b");
        assert_eq!(a.table(), b.table());
        assert_eq!(a.json().pretty(), b.json().pretty());
        assert!(a.json().pretty().contains("\"schema\": \"sgx-lint-selfcheck/1\""));
    }

    #[test]
    fn dirty_files_are_rejected_but_marker_bearing_files_are_fuzzed() {
        let dir = std::env::temp_dir().join("sgx_lint_selfcheck_test");
        std::fs::create_dir_all(&dir).unwrap();
        let dirty = dir.join("lib.rs");
        std::fs::write(&dirty, "pub fn f(s: &str) { let _ = s.parse::<u32>(); }\n").unwrap();
        let err = run(&[dirty], &Options::default()).unwrap_err();
        assert!(err.contains("not clean"), "unexpected error: {err}");

        // A file whose cleanliness *depends* on an allow-marker is in
        // scope now: the transforms keep marker adjacency, so every
        // variant must stay suppressed too.
        let marked = dir.join("marked.rs");
        std::fs::write(
            &marked,
            "// sgx-lint: allow(swallowed-error) test fixture\npub fn f(s: &str) { let _ = s.parse::<u32>(); }\npub fn g() -> u64 { 1 }\npub fn h() -> u64 { g() + 1 }\n",
        )
        .unwrap();
        let report = run(&[marked], &Options::default()).expect("marker-bearing file is accepted");
        assert!(
            report.false_positives.is_empty(),
            "marker adjacency broke under a transform:\n{}",
            report.table()
        );
        assert!(report.variants() > 0);

        assert!(run(&[dir.join("missing.rs")], &Options::default()).is_err());
        assert!(run(&[], &Options::default()).is_err());
    }

    #[test]
    fn an_injected_false_positive_is_reported() {
        // A file that is clean but whose *rename* variant would only
        // mis-fire if a rule keyed on an incidental name. We can't force
        // a real FP without breaking a rule, so instead check the
        // plumbing end-to-end on a synthetic near-miss: a clean file
        // passes, and the report counts every generated variant.
        let dir = std::env::temp_dir().join("sgx_lint_selfcheck_clean");
        std::fs::create_dir_all(&dir).unwrap();
        let clean = dir.join("clean.rs");
        std::fs::write(
            &clean,
            "pub fn double(v: u64) -> u64 { v * 2 }\npub fn triple(v: u64) -> u64 { v * 3 }\npub fn combine(a: u64, b: u64) -> u64 { double(a) + triple(b) }\n",
        )
        .unwrap();
        let report = run(&[clean], &Options::default()).expect("clean file passes");
        assert_eq!(report.files.len(), 1);
        assert_eq!(report.files[0].clean, report.files[0].variants);
        assert!(report.false_positives.is_empty());
    }
}
