//! # sgx-lint — model-integrity & determinism static analysis
//!
//! The whole reproduction rests on one invariant (DESIGN.md §1 "Honesty
//! note"): every byte an operator touches must flow through the
//! `SimVec`/machine event stream, deterministically. One raw-slice loop
//! silently de-calibrates every figure derived from the cost model. This
//! crate is a dependency-free static-analysis pass over the workspace's
//! own sources that mechanically enforces the parts of that invariant the
//! toolchain cannot see.
//!
//! ## Rules
//!
//! | rule | what it flags |
//! |------|---------------|
//! | `untracked-access` | `as_slice_untracked`/`as_mut_slice_untracked` in operator-crate library code (bypasses the event stream) |
//! | `counter-truncation` | narrowing `as u32`/`as usize`/… casts applied to cycle/byte counters |
//! | `swallowed-error` | `let _ = <fallible call>(…)` and bare `.ok();` in non-test library code (discards a Result) |
//! | `untracked-slice-taint` | a slice born from `as_slice_untracked` flowing into a function that indexes/iterates it (cross-file call-graph taint) |
//! | `fault-tick-coverage` | cycle-charging functions in the fault-tick module set (`fault_tick`-defining files + `// sgx-lint: fault-tick-module` files) that never reach `fault_tick` |
//! | `calibration-provenance` | numeric constants in `// sgx-lint: calibration-file` files without a `paper:`/`uarch:` comment |
//! | `charge-escape` | compound cycle/clock/counter mutations in `// sgx-lint: charge-module` files that never reach `Core::commit` through the in-set call closure (a charge bypassing the choke point) |
//!
//! The toolchain enforces the rest, so none of it is repeated here:
//!
//! | invariant | enforced by |
//! |-----------|-------------|
//! | no `unsafe` on any target | `unsafe_code = "forbid"` in the root `Cargo.toml`'s `[workspace.lints.rust]` |
//! | deterministic runs | `disallowed-types` in `clippy.toml` (`HashMap`, `HashSet`, `RandomState`, `Instant`, `SystemTime`); the vendored `rand` has no entropy source |
//! | no panics in library code | `#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, …)]` at each library root |
//! | every service event handled | `#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]` in `sgx-serve` |
//! | every counter merged, reported and reconciled | `Counters`, `CategoryCycles` and `ServiceCounters` destructured without `..`, plus the written-counter test in `tests/integration_counters.rs` |
//!
//! The first three rules are token-level and per-file; the last four are
//! *semantic*: [`analyze_paths`] lexes and item-parses every file once,
//! builds a workspace-wide symbol table and call graph ([`graph`]), runs
//! the dataflow extraction ([`dataflow`]) where a rule needs def-use or
//! field-write detail, and runs the semantic pass ([`semantic`]) across
//! file boundaries.
//!
//! A finding is suppressed by an allow-marker comment on the same or the
//! preceding line, with a mandatory reason:
//!
//! ```text
//! // sgx-lint: allow(untracked-access) uncharged reference oracle, runs outside the timed region
//! ```
//!
//! Run as `cargo run -p sgx-lint -- [--format text|json] [--baseline
//! file.json] [paths...]` (default scan root: `crates`), or score the
//! bundled corpus with
//! `cargo run -p sgx-lint -- --score-corpus crates/sgx-lint/corpus`.
//! `--format json` renders through `sgx_bench_core::json` and is
//! byte-identical across runs; `--baseline` applies a checked-in waiver
//! file and reports stale entries as `stale-baseline` findings.
//!
//! Deliberately out of scope: `SimVec::peek`/`poke`. Those are the
//! documented single-element *setup* accessors (data generation,
//! verification) and the codebase uses them pervasively outside timed
//! regions; flagging them would drown the signal. The `as_slice_untracked`
//! rename exists precisely so the bulk escape hatch is grep- and
//! lint-visible while `peek`/`poke` stay cheap to audit by hand.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod cli;
pub mod corpus;
pub mod dataflow;
pub mod engine;
pub mod graph;
pub mod parse;
pub mod robustness;
pub mod selfcheck;
pub mod semantic;
pub mod tokenizer;
pub mod variants;

pub use engine::{analyze_source, FileClass, FileReport, Finding, RULES};

use std::path::{Path, PathBuf};

/// Crates whose library code runs operator hot paths (subject to the
/// `untracked-access` rule).
pub const OPERATOR_CRATES: [&str; 5] =
    ["sgx-joins", "sgx-scans", "sgx-index", "sgx-tpch", "sgx-microbench"];

/// Classify a workspace-relative path the way the engine expects.
///
/// * anything under a `tests/`, `benches/` or `examples/` component (or a
///   `#[cfg(test)]` region, handled later by the engine) → [`FileClass::Test`]
/// * `src/bin/**` or `src/main.rs` → [`FileClass::Bin`]
/// * library code of an operator crate → [`FileClass::OperatorLib`]
/// * everything else → [`FileClass::Lib`]
pub fn classify(path: &Path) -> FileClass {
    let comps: Vec<&str> = path.iter().filter_map(|c| c.to_str()).collect();
    if comps.iter().any(|c| matches!(*c, "tests" | "benches" | "examples" | "corpus")) {
        return FileClass::Test;
    }
    if comps.windows(2).any(|w| w == ["src", "bin"]) || comps.ends_with(&["src", "main.rs"]) {
        return FileClass::Bin;
    }
    let is_operator = comps
        .windows(2)
        .any(|w| w[0] == "crates" && OPERATOR_CRATES.contains(&w[1]));
    if is_operator {
        FileClass::OperatorLib
    } else {
        FileClass::Lib
    }
}

/// Collect all `.rs` files under `root` (or `root` itself if it is a
/// file), in deterministic lexicographic order, skipping `target/`,
/// `corpus/` and hidden directories.
pub fn collect_rust_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    walk(root, &mut out);
    out.sort();
    out
}

fn walk(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_path_buf());
        }
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else { return };
    let mut children: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    children.sort();
    for child in children {
        let name = child.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if child.is_dir() && matches!(name, "target" | "corpus") || name.starts_with('.') {
            continue;
        }
        walk(&child, out);
    }
}

/// Analyze every `.rs` file under `roots`: the token rules per file plus
/// the semantic rules across the whole scanned set. Reports come back in
/// deterministic path order; within a file, findings are sorted by
/// (line, rule, message) and deduplicated. Paths are classified with
/// [`classify`].
pub fn analyze_paths(roots: &[PathBuf]) -> Vec<(PathBuf, FileReport)> {
    let mut entries: Vec<(PathBuf, FileClass, String)> = Vec::new();
    for root in roots {
        for file in collect_rust_files(root) {
            let Ok(src) = std::fs::read_to_string(&file) else {
                continue;
            };
            let class = classify(&file);
            entries.push((file, class, src));
        }
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries.dedup_by(|a, b| a.0 == b.0);
    let ws = graph::Workspace::build(entries);
    finish(ws)
}

/// Full analysis (token + semantic) of one in-memory file — the corpus
/// scorer's entry point. The single file forms its own workspace, so the
/// semantic rules run in their single-crate fallback modes.
pub fn analyze_single(label: &str, class: FileClass, src: &str) -> FileReport {
    analyze_single_cfg(label, class, src, &semantic::Config::default())
}

/// [`analyze_single`] under an explicit semantic [`semantic::Config`] —
/// the robustness scorer's entry point (its `--weaken` knobs need to run
/// the whole corpus under a deliberately degraded rule set).
pub fn analyze_single_cfg(
    label: &str,
    class: FileClass,
    src: &str,
    cfg: &semantic::Config,
) -> FileReport {
    let ws = graph::Workspace::build(vec![(PathBuf::from(label), class, src.to_string())]);
    finish_cfg(ws, cfg).pop().map(|(_, r)| r).unwrap_or_default()
}

/// Full analysis of a set of in-memory files forming one workspace — the
/// robustness scorer's entry point for *multi-file variant workspaces*
/// (a cross-file variant splits one corpus case over several files; the
/// verdict must see them together). Reports come back in input order.
pub fn analyze_set_cfg(
    entries: Vec<(PathBuf, FileClass, String)>,
    cfg: &semantic::Config,
) -> Vec<(PathBuf, FileReport)> {
    let ws = graph::Workspace::build(entries);
    finish_cfg(ws, cfg)
}

/// Run both passes over a built workspace and merge per-file reports.
fn finish(ws: graph::Workspace) -> Vec<(PathBuf, FileReport)> {
    finish_cfg(ws, &semantic::Config::default())
}

fn finish_cfg(ws: graph::Workspace, cfg: &semantic::Config) -> Vec<(PathBuf, FileReport)> {
    let mut reports: Vec<(PathBuf, FileReport)> = ws
        .files
        .iter()
        .map(|f| (f.path.clone(), engine::analyze_lexed(&f.label, f.class, &f.lexed)))
        .collect();
    for (fi, finding) in semantic::run_cfg(&ws, cfg) {
        let report = &mut reports[fi].1;
        if ws.allowed(fi, finding.line, &finding.rule) {
            report.suppressed += 1;
        } else {
            report.findings.push(finding);
        }
    }
    for (_, report) in &mut reports {
        report.findings.sort();
        report.findings.dedup();
    }
    reports
}
