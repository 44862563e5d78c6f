//! Workspace model: every scanned file, lexed and item-parsed once, plus a
//! name-keyed function symbol table — the substrate the semantic rules
//! ([`crate::semantic`]) run on.
//!
//! Functions are resolved by *name*, not by path: the workspace's own
//! style (no glob re-exports, descriptive fn names) keeps collisions rare,
//! and rules treat every same-named candidate rather than guessing. This
//! buys a cross-file call graph with zero dependencies.

use crate::engine::{self, FileClass, Finding};
use crate::parse::{self, Items};
use crate::tokenizer::{tokenize, Lexed};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// One file, fully preprocessed.
pub struct FileCtx {
    /// Path as passed in (findings are labeled with its display form).
    pub path: PathBuf,
    /// Display label for findings.
    pub label: String,
    /// Rule-scope class, as passed in.
    pub class: FileClass,
    /// Token stream + comments.
    pub lexed: Lexed,
    /// Per-token `#[cfg(test)]`/`#[test]` mask.
    pub mask: Vec<bool>,
    /// Parsed items.
    pub items: Items,
    /// Well-formed allow-markers as `(line, rule)` pairs.
    pub allows: Vec<(u32, String)>,
    /// True when the file carries the `// sgx-lint: calibration-file`
    /// pragma (opts into the calibration-provenance rule).
    pub calibration: bool,
    /// True when the file carries the `// sgx-lint: fault-tick-module`
    /// pragma (joins the fault-tick-coverage module set).
    pub fault_tick_module: bool,
    /// True when the file carries the `// sgx-lint: charge-module`
    /// pragma (joins the charge-escape module set).
    pub charge_module: bool,
}

/// The whole scanned set.
pub struct Workspace {
    /// Files in deterministic scan order.
    pub files: Vec<FileCtx>,
    /// Function symbol table: name → `(file index, fn index)` candidates.
    pub fns: BTreeMap<String, Vec<(usize, usize)>>,
}

impl Workspace {
    /// Build the workspace from `(path, class, source)` triples. Malformed
    /// allow-markers are NOT reported here (the per-file pass owns that);
    /// the scratch findings are discarded.
    pub fn build(entries: Vec<(PathBuf, FileClass, String)>) -> Workspace {
        let mut files = Vec::with_capacity(entries.len());
        for (path, class, src) in entries {
            let lexed = tokenize(&src);
            let mask = engine::test_mask(&lexed.tokens);
            let items = parse::parse(&lexed);
            let label = path.to_string_lossy().into_owned();
            let mut scratch: Vec<Finding> = Vec::new();
            let markers = engine::parse_markers(&label, &lexed.comments, &mut scratch);
            files.push(FileCtx {
                path,
                label,
                class,
                lexed,
                mask,
                items,
                allows: markers.allows,
                calibration: markers.calibration_file,
                fault_tick_module: markers.fault_tick_module,
                charge_module: markers.charge_module,
            });
        }
        let mut fns: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (ni, item) in f.items.fns.iter().enumerate() {
                fns.entry(item.name.clone()).or_default().push((fi, ni));
            }
        }
        Workspace { files, fns }
    }

    /// Does an allow-marker in `file` suppress a `rule` finding on `line`?
    /// The marker line and the line below.
    pub fn allowed(&self, file: usize, line: u32, rule: &str) -> bool {
        self.files[file]
            .allows
            .iter()
            .any(|(l, r)| r == rule && (*l == line || l + 1 == line))
    }

    /// Candidates for a bare call to `name` made from `file`: a same-file
    /// definition shadows same-named functions elsewhere (mirroring
    /// Rust's module-local name resolution), so the deep taint walk never
    /// wanders into an unrelated crate's `helper` just because the names
    /// collide. Only when the calling file defines no `name` do the
    /// cross-file candidates apply.
    pub fn resolve(&self, file: usize, name: &str) -> Vec<(usize, usize)> {
        let Some(all) = self.fns.get(name) else { return Vec::new() };
        let local: Vec<(usize, usize)> =
            all.iter().copied().filter(|&(fi, _)| fi == file).collect();
        if local.is_empty() {
            all.clone()
        } else {
            local
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(sources: &[(&str, FileClass, &str)]) -> Workspace {
        Workspace::build(
            sources
                .iter()
                .map(|(p, c, s)| (PathBuf::from(p), *c, s.to_string()))
                .collect(),
        )
    }

    #[test]
    fn symbol_table_spans_files() {
        let w = ws(&[
            ("crates/a/src/lib.rs", FileClass::Lib, "fn shared() {} fn only_a() {}"),
            ("crates/b/src/lib.rs", FileClass::Lib, "fn shared() {} fn only_b() { shared(); }"),
        ]);
        assert_eq!(w.fns["shared"].len(), 2);
        assert_eq!(w.fns["only_a"], [(0, 1)]);
    }

    #[test]
    fn resolution_prefers_same_file_definitions() {
        let w = ws(&[
            ("crates/a/src/lib.rs", FileClass::Lib, "fn shared() {} fn caller() { shared(); }"),
            ("crates/b/src/lib.rs", FileClass::Lib, "fn shared() {}"),
        ]);
        // From file 0 (which defines `shared`), only the local candidate.
        assert_eq!(w.resolve(0, "shared"), [(0, 0)]);
        // From a file with no local definition, every candidate applies.
        let w2 = ws(&[
            ("crates/a/src/lib.rs", FileClass::Lib, "fn caller() { shared(); }"),
            ("crates/b/src/lib.rs", FileClass::Lib, "fn shared() {}"),
            ("crates/c/src/lib.rs", FileClass::Lib, "fn shared() {}"),
        ]);
        assert_eq!(w2.resolve(0, "shared"), [(1, 0), (2, 0)]);
        assert!(w2.resolve(0, "absent").is_empty());
    }

    #[test]
    fn allow_markers_cover_two_lines() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            FileClass::Lib,
            "// sgx-lint: allow(untracked-slice-taint) uncharged oracle\nfn f() {}\n",
        )]);
        assert!(w.allowed(0, 1, "untracked-slice-taint"));
        assert!(w.allowed(0, 2, "untracked-slice-taint"));
        assert!(!w.allowed(0, 3, "untracked-slice-taint"));
        assert!(!w.allowed(0, 1, "charge-escape"));
    }
}
