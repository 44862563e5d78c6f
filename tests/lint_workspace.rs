//! Tier-1 guard: the workspace's own sources must lint clean.
//!
//! Runs the analyzer over every `crates/*/src` tree plus the repo-root
//! `tests/` and fails on any unsuppressed finding. New model-integrity
//! violations — untracked `SimVec` access in operator hot paths, counter
//! truncation, swallowed errors, charges that bypass `Core::commit` —
//! therefore break `cargo test` unless they carry a reasoned
//! `// sgx-lint: allow(<rule>) <reason>` marker. Unsafe code,
//! nondeterministic inputs and library panics are rustc's and clippy's
//! to reject (`cargo clippy --workspace --all-targets -- -D warnings`).

use std::path::Path;

#[test]
fn workspace_lints_clean() {
    // CARGO_MANIFEST_DIR = <repo>/crates/sgx-lint, so the repo root is
    // two levels up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("sgx-lint lives two levels below the repo root")
        .to_path_buf();
    assert!(
        root.join("Cargo.toml").is_file(),
        "repo root not found at {}",
        root.display()
    );

    let reports = sgx_lint::analyze_paths(&[root.join("crates"), root.join("tests")]);

    let mut findings = Vec::new();
    for (_, report) in &reports {
        for f in &report.findings {
            findings.push(format!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message));
        }
    }
    assert!(
        reports.len() > 50,
        "lint walk saw only {} files; wrong root?",
        reports.len()
    );
    assert!(
        findings.is_empty(),
        "sgx-lint found {} unsuppressed finding(s):\n{}",
        findings.len(),
        findings.join("\n")
    );
}
