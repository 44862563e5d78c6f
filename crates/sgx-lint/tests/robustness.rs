//! CLI-level guards for `sgx-lint robustness`:
//!
//! * the rendered report (text and JSON) is byte-identical across two
//!   invocations and across `--jobs` counts;
//! * the shipped corpus clears the RD floor the CI gate enforces, and a
//!   deliberately weakened rule set (`--weaken`) falls below it — the
//!   negative check proving the gate can actually fail;
//! * workspace baselines are rejected outright and never read
//!   implicitly, so a stale waiver file cannot mask an RD regression.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

fn robustness(extra: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sgx-lint"));
    cmd.arg("robustness").arg("--corpus").arg(corpus_dir());
    cmd.args(extra);
    cmd.output().expect("spawn sgx-lint")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

#[test]
fn reports_are_byte_identical_across_runs_and_jobs() {
    let a = robustness(&["--format", "json"]);
    let b = robustness(&["--format", "json"]);
    let par = robustness(&["--format", "json", "--jobs", "4"]);
    assert_eq!(a.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&a.stderr));
    assert!(!a.stdout.is_empty());
    assert_eq!(stdout(&a), stdout(&b), "two identical runs diverged");
    assert_eq!(stdout(&a), stdout(&par), "--jobs changed the report bytes");

    let t1 = robustness(&[]);
    let t2 = robustness(&["--jobs", "3"]);
    assert_eq!(stdout(&t1), stdout(&t2), "--jobs changed the text table bytes");
    assert!(stdout(&t1).contains("RD%"));
}

#[test]
fn shipped_corpus_clears_the_floor_and_weakening_fails_it() {
    // The CI gate floor is 95 (stricter than the 90% design target; the
    // shipped corpus scores 100.0).
    let strong = robustness(&["--floor", "95"]);
    assert_eq!(
        strong.status.code(),
        Some(0),
        "shipped corpus below RD floor:\n{}",
        stdout(&strong)
    );

    // Disabling the taint hardening must sink total RD below the same
    // floor — otherwise the gate is decorative.
    let weak = robustness(&["--floor", "95", "--weaken", "taint-indirection,taint-alias"]);
    assert_eq!(
        weak.status.code(),
        Some(1),
        "weakened run still clears the floor:\n{}",
        stdout(&weak)
    );
    assert!(String::from_utf8_lossy(&weak.stderr).contains("below floor"));
}

#[test]
fn unknown_weaken_knob_and_unknown_flag_are_usage_errors() {
    let bad_knob = robustness(&["--weaken", "nonsense"]);
    assert_eq!(bad_knob.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_knob.stderr).contains("nonsense"));

    let bad_flag = robustness(&["--frobnicate"]);
    assert_eq!(bad_flag.status.code(), Some(2));
}

#[test]
fn baselines_are_rejected_and_never_read_implicitly() {
    // Build a waiver file that would absorb every taint finding in the
    // corpus if the robustness path honored baselines.
    let dir = std::env::temp_dir().join("sgx_lint_robustness_baseline_test");
    std::fs::create_dir_all(&dir).unwrap();
    let waiver = dir.join("lint-baseline.json");
    std::fs::write(
        &waiver,
        "{\"baseline\": [{\"path\": \"positive/untracked-slice-taint_1.rs\", \"rule\": \"untracked-slice-taint\", \"line\": 7.0, \"reason\": \"stale waiver trying to mask a regression\"}]}",
    )
    .unwrap();

    // Explicitly passing it is a hard usage error, not a silent ignore.
    let rejected = robustness(&["--baseline", waiver.to_str().unwrap()]);
    assert_eq!(rejected.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&rejected.stderr).contains("baseline"));

    // And with the waiver merely sitting on disk (the workspace default
    // name, in the working directory), a weakened run still fails the
    // floor: nothing on the robustness path picks a baseline up
    // implicitly, so the stale waiver cannot mask the RD regression.
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sgx-lint"));
    cmd.current_dir(&dir)
        .arg("robustness")
        .arg("--corpus")
        .arg(corpus_dir())
        .args(["--floor", "95", "--weaken", "taint-indirection,taint-alias"]);
    let masked = cmd.output().expect("spawn sgx-lint");
    assert_eq!(
        masked.status.code(),
        Some(1),
        "a baseline file on disk masked the weakened RD regression"
    );
}

#[test]
fn emit_variants_writes_one_directory_per_variant() {
    let dir = std::env::temp_dir().join("sgx_lint_robustness_emit_test");
    let _ = std::fs::remove_dir_all(&dir);
    let out = robustness(&["--emit-variants", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("emit dir exists")
        .filter_map(|e| e.ok())
        .collect();
    // Every variant is a directory named {case}__{label}. Nest, noise and
    // compose (two variants each) apply to every case, so each corpus
    // case yields at least six. Spot-check volume and labeling.
    let cases: usize = ["positive", "negative"]
        .iter()
        .map(|side| std::fs::read_dir(corpus_dir().join(side)).expect("corpus side").count())
        .sum();
    assert!(
        entries.len() >= 6 * cases,
        "only {} variants emitted for {cases} corpus cases",
        entries.len()
    );
    assert!(
        entries.iter().all(|e| e.file_type().map(|t| t.is_dir()).unwrap_or(false)),
        "flat files in the emit dir — expected one directory per variant"
    );
    let names: Vec<String> =
        entries.iter().map(|e| e.file_name().to_string_lossy().into_owned()).collect();
    assert!(names.iter().any(|f| f.contains("__wrap_d2_")));
    assert!(names.iter().any(|f| f.contains("__seqlen_n3_")));
    assert!(names.iter().any(|f| f.contains("__alias_s")));

    // Single-file variants hold exactly `case.rs`; cross-file xsplit
    // variants hold the two halves in deterministic part order.
    let single = names.iter().find(|f| f.contains("__wrap_d1")).expect("a wrap variant");
    let mut files: Vec<String> = std::fs::read_dir(dir.join(single))
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
        .collect();
    files.sort();
    assert_eq!(files, vec!["case.rs".to_string()]);

    let split = names.iter().find(|f| f.contains("__xsplit_s")).expect("an xsplit variant");
    let mut files: Vec<String> = std::fs::read_dir(dir.join(split))
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
        .collect();
    files.sort();
    assert_eq!(files, vec!["part_a.rs".to_string(), "part_b.rs".to_string()]);
    let _ = std::fs::remove_dir_all(&dir);
}
