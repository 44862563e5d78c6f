//! Per-file pass: parses `sgx-lint:` markers (malformed ones become
//! findings) and masks `#[cfg(test)]` regions for the semantic rules.
//! The token-level rules that used to run here (`untracked-access`,
//! `counter-truncation`, `swallowed-error`) are clippy lints now
//! (DESIGN.md §7).

use crate::tokenizer::{tokenize, Comment, Lexed, Tok, TokKind};

/// The rule names, in reporting order. All four are semantic, backed by
/// the cross-file call graph ([`crate::semantic`]) and the dataflow
/// extraction ([`crate::dataflow`]).
pub const RULES: [&str; 4] =
    ["untracked-slice-taint", "fault-tick-coverage", "calibration-provenance", "charge-escape"];

/// Pseudo-rule reported for malformed/unknown allow-markers. Not
/// suppressible — the fix is to correct the marker.
pub const BAD_MARKER: &str = "bad-allow-marker";

/// How a file's code is used — decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code of an operator crate (joins/scans/index/tpch/microbench).
    OperatorLib,
    /// Library code of any other crate.
    Lib,
    /// Binary code (`src/bin/**`, `src/main.rs`).
    Bin,
    /// Test/bench/example code (plus `#[cfg(test)]` regions of any file).
    Test,
}

/// One lint finding. The derived ordering (path, line, rule, message) is
/// the canonical report order; identical findings dedupe away.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// File the finding is in (as passed to the analyzer).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (one of [`RULES`] or [`BAD_MARKER`]).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

/// Per-file analysis result.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings that survived allow-marker suppression.
    pub findings: Vec<Finding>,
    /// Findings suppressed by a reasoned allow-marker.
    pub suppressed: usize,
}

/// Parsed `sgx-lint:` markers of one file.
#[derive(Debug, Default)]
pub(crate) struct Markers {
    /// Well-formed `allow(<rule>) <reason>` markers as `(line, rule)`.
    pub allows: Vec<(u32, String)>,
    /// File carries the `calibration-file` pragma (opts into the
    /// calibration-provenance rule).
    pub calibration_file: bool,
    /// File carries the `fault-tick-module` pragma (joins the
    /// fault-tick-coverage module set even without defining `fault_tick`).
    pub fault_tick_module: bool,
    /// File carries the `charge-module` pragma (joins the charge-escape
    /// module set: every compound cycle/clock/counter mutation must reach
    /// `commit` through in-set call chains).
    pub charge_module: bool,
}

/// Parse `sgx-lint:` markers out of the comments; malformed markers become
/// findings immediately.
pub(crate) fn parse_markers(
    path: &str,
    comments: &[Comment],
    findings: &mut Vec<Finding>,
) -> Markers {
    let mut markers = Markers::default();
    for c in comments {
        // Only comments that *start* with the marker count — prose that
        // merely mentions the syntax (docs, this file) is not a marker.
        let Some(rest) = c.text.trim_start().strip_prefix("sgx-lint:") else { continue };
        let rest = rest.trim_start();
        let bad = |msg: &str, findings: &mut Vec<Finding>| {
            findings.push(Finding {
                path: path.to_string(),
                line: c.line,
                rule: BAD_MARKER.to_string(),
                message: msg.to_string(),
            });
        };
        // File pragma: marks a calibration file whose numeric constants
        // must carry `paper:`/`uarch:` provenance comments.
        if rest == "calibration-file" || rest.starts_with("calibration-file ") {
            markers.calibration_file = true;
            continue;
        }
        // File pragma: opts the file into the fault-tick-coverage module
        // set (cycle-charging layers of a split-up machine).
        if rest == "fault-tick-module" || rest.starts_with("fault-tick-module ") {
            markers.fault_tick_module = true;
            continue;
        }
        // File pragma: opts the file into the charge-escape module set
        // (layers whose cycle charges must flow through `commit`).
        if rest == "charge-module" || rest.starts_with("charge-module ") {
            markers.charge_module = true;
            continue;
        }
        let Some(args) = rest.strip_prefix("allow(") else {
            bad("marker must be `sgx-lint: allow(<rule>) <reason>` or a file pragma (`sgx-lint: calibration-file`, `fault-tick-module`, `charge-module`)", findings);
            continue;
        };
        let Some(close) = args.find(')') else {
            bad("allow-marker missing closing parenthesis", findings);
            continue;
        };
        let rule = args[..close].trim();
        let reason = args[close + 1..].trim();
        if !RULES.contains(&rule) {
            bad(&format!("unknown rule {rule:?} in allow-marker"), findings);
            continue;
        }
        if reason.is_empty() {
            bad(&format!("allow({rule}) marker needs a reason"), findings);
            continue;
        }
        markers.allows.push((c.line, rule.to_string()));
    }
    markers
}

/// Mark tokens inside `#[cfg(test)] … { … }` regions and `#[test] fn`
/// bodies as test code.
pub(crate) fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let is = |t: &Tok, s: &str| t.kind == TokKind::Ident && t.text == s;
    let p = |t: &Tok, c: u8| t.kind == TokKind::Punct(c);
    let mut i = 0usize;
    while i < toks.len() {
        // `#[cfg(test)]` or `#[test]` (also matches inside larger attr
        // lists like `#[cfg(test)]`-gated impls).
        let cfg_test = i + 6 < toks.len()
            && p(&toks[i], b'#')
            && p(&toks[i + 1], b'[')
            && is(&toks[i + 2], "cfg")
            && p(&toks[i + 3], b'(')
            && is(&toks[i + 4], "test")
            && p(&toks[i + 5], b')')
            && p(&toks[i + 6], b']');
        let plain_test = i + 3 < toks.len()
            && p(&toks[i], b'#')
            && p(&toks[i + 1], b'[')
            && is(&toks[i + 2], "test")
            && p(&toks[i + 3], b']');
        if cfg_test || plain_test {
            // Skip forward to the next `{` and mask the balanced region.
            let mut j = i;
            while j < toks.len() && !p(&toks[j], b'{') {
                mask[j] = true;
                j += 1;
            }
            let mut depth = 0i32;
            while j < toks.len() {
                mask[j] = true;
                if p(&toks[j], b'{') {
                    depth += 1;
                } else if p(&toks[j], b'}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Marker check for one file's source: malformed or unknown allow-markers
/// are findings. `path` is only used for labeling findings. The semantic
/// rules are NOT run here — use [`crate::analyze_single`] for the full
/// pass.
pub fn analyze_source(path: &str, src: &str) -> FileReport {
    analyze_lexed(path, &tokenize(src))
}

/// [`analyze_source`] over an already-lexed file.
pub fn analyze_lexed(path: &str, lexed: &Lexed) -> FileReport {
    let mut findings: Vec<Finding> = Vec::new();
    parse_markers(path, &lexed.comments, &mut findings);
    FileReport { findings, suppressed: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_single;

    fn rules_of(report: &FileReport) -> Vec<&str> {
        report.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn allow_marker_suppresses_same_and_next_line() {
        let src = "\
impl M { // sgx-lint: charge-module
// sgx-lint: allow(charge-escape) phase barrier, not a charge
fn f(&mut self) { self.wall += 1.0; }

fn g(&mut self) { self.wall += 2.0; } // sgx-lint: allow(charge-escape) same

fn h(&mut self) { self.wall += 3.0; }
}
";
        let r = analyze_single("x.rs", FileClass::Lib, src);
        assert_eq!(r.suppressed, 2);
        assert_eq!(rules_of(&r), ["charge-escape"], "{:?}", r.findings);
        assert_eq!(r.findings[0].line, 7);
    }

    #[test]
    fn marker_without_reason_is_a_finding() {
        let src = "let x = 1; // sgx-lint: allow(charge-escape)\n";
        let r = analyze_source("x.rs", src);
        assert_eq!(rules_of(&r), [BAD_MARKER]);
        let unk = analyze_source("x.rs", "// sgx-lint: allow(no-such-rule) because\n");
        assert_eq!(rules_of(&unk), [BAD_MARKER]);
        // Rules the compiler and clippy enforce are not sgx-lint rules.
        let moved = analyze_source("x.rs", "// sgx-lint: allow(unsafe-code) vetted\n");
        assert_eq!(rules_of(&moved), [BAD_MARKER]);
        let retired = analyze_source("x.rs", "// sgx-lint: allow(swallowed-error) vetted\n");
        assert_eq!(rules_of(&retired), [BAD_MARKER]);
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let body = "fn leak(&mut self) { self.wall += 1.0; }";
        let src = format!(
            "// sgx-lint: charge-module\n// sgx-lint: calibration-file\n#[cfg(test)]\nmod tests {{\n    impl M {{ {body} }}\n}}\n#[test]\n{body}\n"
        );
        let r = analyze_single("x.rs", FileClass::Lib, &src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        let outside = format!("{src}impl M {{ {body} }}\n");
        let r2 = analyze_single("x.rs", FileClass::Lib, &outside);
        assert_eq!(rules_of(&r2), ["calibration-provenance", "charge-escape"], "{:?}", r2.findings);
    }

    #[test]
    fn string_and_comment_content_never_fires() {
        let src = "// sgx-lint: charge-module\n// sgx-lint: calibration-file\n// self.wall += 1.0; sum(v.as_slice_untracked()); 42\nfn f() -> &'static str { \"self.wall += 1.0; sum(v.as_slice_untracked()); 42\" }\nfn sum(xs: &[u64]) -> u64 { xs.iter().sum() }";
        let r = analyze_single("x.rs", FileClass::OperatorLib, src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        // The same content as code fires all three rules.
        let code = "// sgx-lint: charge-module\n// sgx-lint: calibration-file\nfn f(&mut self, v: &SimVec<u64>) -> u64 { self.wall += 1.0; sum(v.as_slice_untracked()) }\nfn sum(xs: &[u64]) -> u64 { xs.iter().sum() }";
        let r2 = analyze_single("x.rs", FileClass::OperatorLib, code);
        assert_eq!(
            rules_of(&r2),
            ["calibration-provenance", "charge-escape", "untracked-slice-taint"],
            "{:?}",
            r2.findings
        );
    }
}
