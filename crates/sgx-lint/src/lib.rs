//! # sgx-lint — the retired analyzer's semantic core
//!
//! This crate used to be the workspace's model-integrity static-analysis
//! pass. Every rule it enforced is now a check made by the toolchain or a
//! test (DESIGN.md §7), and nothing runs this crate any more: its CLI,
//! `lint.sh`, the baseline file, the labeled corpus, the variant-fuzzing
//! harness, the workspace gate and the three token-level rules are gone.
//! What is left is the analyzer's front end and its semantic rules,
//! kept with their unit tests until the crate is deleted outright
//! (ROADMAP item 3).
//!
//! | rule | what it flags | now enforced by |
//! |------|---------------|-----------------|
//! | `untracked-slice-taint` | a slice born from `as_slice_untracked` flowing into a function that indexes/iterates it | `clippy.toml`'s `disallowed-methods`: every birth site carries a reasoned `#[expect]` |
//! | `fault-tick-coverage` | cycle-charging functions in the fault-tick module set that never reach `fault_tick` | the private cycle types in `sgx-sim`'s `machine/core.rs`: only `commit` and AEX delivery add to `Busy`, and both run the tick |
//! | `calibration-provenance` | numeric constants in `// sgx-lint: calibration-file` files without a `paper:`/`uarch:` comment | the provenance unit test in `sgx-sim`'s `config.rs` |
//! | `charge-escape` | compound cycle/clock/counter mutations in `// sgx-lint: charge-module` files that never reach `Core::commit` | the private cycle types `Busy`, `Wall` and `CoreClocks` (E0368/E0616 outside `core.rs`) |
//!
//! [`analyze_single`] lexes and item-parses one in-memory file, builds a
//! symbol table and call graph over it ([`graph`]), runs the dataflow
//! extraction ([`dataflow`]) where a rule needs field-write detail, and
//! runs the semantic pass ([`semantic`]). A finding is suppressed by an
//! allow-marker comment on the same or the preceding line, with a
//! mandatory reason:
//!
//! ```text
//! // sgx-lint: allow(charge-escape) phase barrier, not a charge
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::let_underscore_must_use,
    clippy::unused_result_ok
)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod engine;
pub mod graph;
pub mod parse;
pub mod semantic;
pub mod tokenizer;

pub use engine::{analyze_source, FileClass, FileReport, Finding, RULES};

use std::path::PathBuf;

/// Full analysis (marker check + semantic rules) of one in-memory file.
/// The single file forms its own workspace, so the semantic rules run in
/// their single-crate fallback modes. Findings are sorted by (line, rule,
/// message) and deduplicated.
pub fn analyze_single(label: &str, class: FileClass, src: &str) -> FileReport {
    let ws = graph::Workspace::build(vec![(PathBuf::from(label), class, src.to_string())]);
    let Some(file) = ws.files.first() else { return FileReport::default() };
    let mut report = engine::analyze_lexed(&file.label, &file.lexed);
    for (fi, finding) in semantic::run(&ws) {
        if ws.allowed(fi, finding.line, &finding.rule) {
            report.suppressed += 1;
        } else {
            report.findings.push(finding);
        }
    }
    report.findings.sort();
    report.findings.dedup();
    report
}
