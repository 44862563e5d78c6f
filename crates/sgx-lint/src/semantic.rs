//! Semantic rules on the workspace call graph ([`crate::graph`]).
//!
//! Four rules, each answering a question a per-file token scan cannot:
//!
//! * **untracked-slice-taint** — does a slice born from
//!   `as_slice_untracked` *flow into another function* that indexes or
//!   iterates it? This rule follows the value across the call edge, so a
//!   helper loop over untracked bytes cannot hide behind a clean-looking
//!   call site.
//! * **fault-tick-coverage** — does every cycle-charging function in the
//!   fault-tick *module set* (files defining `fn fault_tick` plus files
//!   opting in via `// sgx-lint: fault-tick-module`) reach `fault_tick`,
//!   directly or through in-set call chains, so the fault engine observes
//!   every charge path across the layered pipeline?
//! * **calibration-provenance** — in files carrying the
//!   `// sgx-lint: calibration-file` pragma, does every numeric constant
//!   line carry a `paper: §x.y` / `uarch: <source>` provenance comment?
//! * **charge-escape** — in the `// sgx-lint: charge-module` set, does
//!   every function that *mutates charge state* (a compound assignment to
//!   a cycle/clock accumulator or a counters-ledger field, detected by
//!   the [`crate::dataflow`] field-write pass through `&mut` reborrows)
//!   reach `commit`, the `Core::commit(Charge)` choke point? A charge
//!   that bypasses the choke point corrupts enclave-vs-native
//!   attribution without failing a single test — exactly the silent
//!   failure mode the hot-path optimization program must not introduce.
//!
//! All findings honor `// sgx-lint: allow(<rule>) <reason>` markers
//! (applied by the caller via [`Workspace::allowed`]).

use crate::dataflow;
use crate::engine::{FileClass, Finding};
use crate::graph::Workspace;
use crate::parse::Arg;
use crate::tokenizer::{Tok, TokKind};
use std::collections::BTreeSet;

fn is(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

fn p(t: &Tok, c: u8) -> bool {
    t.kind == TokKind::Punct(c)
}

/// Tunables for the taint rule. [`Config::default`] is the full rule;
/// the unit tests dial single defenses back to show each one matters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum call edges the taint rule follows from the tainted call
    /// site. `1` restores the original direct-callee-only behavior that
    /// wrapper indirection defeats. The visited set bounds the walk
    /// regardless.
    pub taint_call_depth: usize,
    /// Follow `let a = b;` / `let a = &b;` aliases when computing tainted
    /// locals and consumed parameters. `false` restores the original
    /// behavior that `let`-chain lengthening defeats.
    pub taint_aliases: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config { taint_call_depth: 10, taint_aliases: true }
    }
}

/// Run every semantic rule under the default [`Config`]. Returns raw
/// `(file index, finding)` pairs — the caller applies allow-marker
/// suppression.
pub fn run(ws: &Workspace) -> Vec<(usize, Finding)> {
    run_cfg(ws, &Config::default())
}

/// [`run`] with explicit tunables.
pub fn run_cfg(ws: &Workspace, cfg: &Config) -> Vec<(usize, Finding)> {
    let mut out = Vec::new();
    untracked_slice_taint(ws, cfg, &mut out);
    fault_tick_coverage(ws, &mut out);
    calibration_provenance(ws, &mut out);
    charge_escape(ws, &mut out);
    out
}

fn finding(file: &str, line: u32, rule: &str, message: String) -> Finding {
    Finding { path: file.to_string(), line, rule: rule.to_string(), message }
}

// ---------------------------------------------------------------- taint --

/// Slice-consuming accessors: a tainted parameter reaching one of these
/// (or `param[...]` indexing, or a `for … in param` loop) is a hot-loop
/// read the cost model never sees.
pub(crate) const SLICE_CONSUMERS: [&str; 14] = [
    "iter",
    "into_iter",
    "iter_mut",
    "chunks",
    "chunks_exact",
    "windows",
    "get",
    "first",
    "last",
    "split_at",
    "split_first",
    "split_last",
    "copy_from_slice",
    "sort_unstable",
];

/// `let [mut] a = [&[mut]] b;` bindings inside `body`, as `(a, b)`
/// pairs. These are the pure renamings that `let`-chain lengthening
/// introduces; initializers with any other shape are not aliases.
fn let_aliases(toks: &[Tok], body: (usize, usize)) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut i = body.0;
    while i < body.1 {
        if !is(&toks[i], "let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| is(t, "mut")) {
            j += 1;
        }
        let Some(name_tok) = toks.get(j) else { break };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Binder directly followed by `=` (alias chains never carry a
        // type annotation), RHS exactly `[&[mut]] ident ;`.
        if toks.get(j + 1).is_some_and(|t| p(t, b'='))
            && !toks.get(j + 2).is_some_and(|t| p(t, b'='))
        {
            let mut k = j + 2;
            while toks.get(k).is_some_and(|t| p(t, b'&') || is(t, "mut")) {
                k += 1;
            }
            if toks.get(k).is_some_and(|t| t.kind == TokKind::Ident)
                && toks.get(k + 1).is_some_and(|t| p(t, b';'))
            {
                out.push((name_tok.text.clone(), toks[k].text.clone()));
            }
        }
        i = j + 1;
    }
    out
}

/// Grow `names` with every `let`-alias of a name already in the set,
/// to a fixpoint.
fn close_over_aliases(names: &mut BTreeSet<String>, toks: &[Tok], body: (usize, usize)) {
    let aliases = let_aliases(toks, body);
    loop {
        let mut grew = false;
        for (name, rhs) in &aliases {
            if names.contains(rhs) && names.insert(name.clone()) {
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
}

/// Local `let` bindings whose initializer contains `as_slice_untracked`,
/// plus (when `cfg.taint_aliases`) their transitive `let`-aliases.
fn tainted_locals(toks: &[Tok], body: (usize, usize), cfg: &Config) -> BTreeSet<String> {
    let mut tainted = BTreeSet::new();
    let mut i = body.0;
    while i < body.1 {
        if !is(&toks[i], "let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| is(t, "mut")) {
            j += 1;
        }
        let Some(name_tok) = toks.get(j) else { break };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Scan the statement (bounded) for the escape hatch.
        let mut escaped = false;
        for t in toks.iter().take((j + 64).min(body.1)).skip(j + 1) {
            if p(t, b';') {
                break;
            }
            if is(t, "as_slice_untracked") || is(t, "as_mut_slice_untracked") {
                escaped = true;
                break;
            }
        }
        if escaped {
            tainted.insert(name_tok.text.clone());
        }
        i = j + 1;
    }
    if cfg.taint_aliases {
        close_over_aliases(&mut tainted, toks, body);
    }
    tainted
}

/// How (if at all) does the function at `(cf, cn)` consume its parameter
/// `pname`: directly (indexing, a slice-consumer method, a `for` loop) —
/// on the parameter itself or a `let`-alias of it — or by passing it into
/// another function that does, up to `depth` further call edges.
/// `depth == 0` checks the body only (the original, pre-robustness
/// behavior that wrapper indirection defeats).
fn param_consumed(
    ws: &Workspace,
    cf: usize,
    cn: usize,
    pname: &str,
    depth: usize,
    cfg: &Config,
    visited: &mut BTreeSet<(usize, usize, String)>,
) -> Option<String> {
    if !visited.insert((cf, cn, pname.to_string())) {
        return None;
    }
    let f = &ws.files[cf];
    let item = &f.items.fns[cn];
    let toks = &f.lexed.tokens;
    // Names the parameter is known by inside this body.
    let mut names: BTreeSet<String> = BTreeSet::new();
    names.insert(pname.to_string());
    if cfg.taint_aliases {
        close_over_aliases(&mut names, toks, item.body);
    }
    let (s, e) = item.body;
    for i in s..e {
        if f.mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || !names.contains(&t.text) {
            continue;
        }
        if toks.get(i + 1).is_some_and(|n| p(n, b'[')) {
            return Some("indexed".to_string());
        }
        if toks.get(i + 1).is_some_and(|n| p(n, b'.'))
            && toks
                .get(i + 2)
                .is_some_and(|n| n.kind == TokKind::Ident && SLICE_CONSUMERS.contains(&n.text.as_str()))
            && toks.get(i + 3).is_some_and(|n| p(n, b'('))
        {
            return Some("iterated".to_string());
        }
        if i > 0 && is(&toks[i - 1], "in") {
            return Some("iterated in a for-loop".to_string());
        }
    }
    if depth == 0 {
        return None;
    }
    // Indirect: the parameter (or an alias) handed onward.
    for call in &item.calls {
        if f.mask.get(call.tok).copied().unwrap_or(false) {
            continue;
        }
        for (pos, arg) in call.args.iter().enumerate() {
            let Arg::Ident(n) = arg else { continue };
            if !names.contains(n) {
                continue;
            }
            for (nf, nn) in ws.resolve(cf, &call.callee) {
                let next = &ws.files[nf].items.fns[nn];
                let shift = usize::from(
                    call.method && next.params.first().is_some_and(|p| p == "self"),
                );
                let Some(next_p) = next.params.get(pos + shift) else { continue };
                if let Some(how) = param_consumed(ws, nf, nn, next_p, depth - 1, cfg, visited) {
                    return Some(format!("{how} (via `{}`)", call.callee));
                }
            }
        }
    }
    None
}

/// Rule: untracked-slice-taint. Call sites live in operator-crate library
/// code; the consuming callee may live anywhere.
fn untracked_slice_taint(ws: &Workspace, cfg: &Config, out: &mut Vec<(usize, Finding)>) {
    for (fi, f) in ws.files.iter().enumerate() {
        if f.class != FileClass::OperatorLib {
            continue;
        }
        let toks = &f.lexed.tokens;
        for item in &f.items.fns {
            let tainted = tainted_locals(toks, item.body, cfg);
            for call in &item.calls {
                if f.mask.get(call.tok).copied().unwrap_or(false) {
                    continue;
                }
                for (pos, arg) in call.args.iter().enumerate() {
                    let arg_tainted = match arg {
                        Arg::Untracked => true,
                        Arg::Ident(n) => tainted.contains(n),
                        Arg::Other => false,
                    };
                    if !arg_tainted {
                        continue;
                    }
                    let mut flagged = false;
                    for (cf, cn) in ws.resolve(fi, &call.callee) {
                        let callee = &ws.files[cf].items.fns[cn];
                        // Method-call syntax: the receiver consumes the
                        // leading `self` parameter.
                        let shift = usize::from(
                            call.method && callee.params.first().is_some_and(|p| p == "self"),
                        );
                        let Some(pname) = callee.params.get(pos + shift) else { continue };
                        let mut visited = BTreeSet::new();
                        let how = param_consumed(
                            ws,
                            cf,
                            cn,
                            pname,
                            cfg.taint_call_depth.saturating_sub(1),
                            cfg,
                            &mut visited,
                        );
                        if let Some(how) = how {
                            out.push((
                                fi,
                                finding(
                                    &f.label,
                                    call.line,
                                    "untracked-slice-taint",
                                    format!(
                                        "untracked slice flows into `{}` where parameter `{pname}` is {how} — those accesses bypass the SimVec event stream; pass the SimVec and use charged accessors, or add a reasoned allow-marker",
                                        call.callee
                                    ),
                                ),
                            ));
                            flagged = true;
                            break;
                        }
                    }
                    if flagged {
                        break;
                    }
                }
            }
        }
    }
}

// ------------------------------------------------------ fault coverage --

/// Rule: fault-tick-coverage, over a configurable *module set*: every
/// non-test file that defines `fn fault_tick` plus every file carrying
/// the `// sgx-lint: fault-tick-module` pragma (the layers of the split
/// machine pipeline opt in this way). Within the set, every function that
/// charges cycles (`cycles += …`) must reach `fault_tick` — directly or
/// transitively through calls resolved inside the set — except
/// `fault_tick` itself and its transitive callees (the fault engine's own
/// charge paths must not recurse into the tick). A pragma'd file from
/// which `fault_tick` is unreachable (e.g. no set file defines it at all)
/// flags every charge path: a charging layer the fault engine never sees
/// is exactly the bug this rule exists for.
fn fault_tick_coverage(ws: &Workspace, out: &mut Vec<(usize, Finding)>) {
    let set: Vec<usize> = ws
        .files
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.class != FileClass::Test
                && (f.fault_tick_module || f.items.fns.iter().any(|i| i.name == "fault_tick"))
        })
        .map(|(fi, _)| fi)
        .collect();
    if set.is_empty() {
        return;
    }
    // Function names defined anywhere in the set (call edges are resolved
    // by name, the workspace-wide policy — see `crate::graph`).
    let defined: BTreeSet<&str> = set
        .iter()
        .flat_map(|&fi| ws.files[fi].items.fns.iter().map(|i| i.name.as_str()))
        .collect();
    // Downward closure: `fault_tick` and everything it transitively calls
    // within the set.
    let mut exempt: BTreeSet<String> = BTreeSet::new();
    exempt.insert("fault_tick".to_string());
    let mut changed = true;
    while changed {
        changed = false;
        for &fi in &set {
            for item in &ws.files[fi].items.fns {
                if !exempt.contains(&item.name) {
                    continue;
                }
                for call in &item.calls {
                    if defined.contains(call.callee.as_str()) && !exempt.contains(&call.callee) {
                        exempt.insert(call.callee.clone());
                        changed = true;
                    }
                }
            }
        }
    }
    // Upward closure: names that reach `fault_tick` through unmasked
    // in-set call chains. Empty when no set file defines it.
    let mut reaches: BTreeSet<String> = BTreeSet::new();
    if set.iter().any(|&fi| ws.files[fi].items.fns.iter().any(|i| i.name == "fault_tick")) {
        reaches.insert("fault_tick".to_string());
        changed = true;
        while changed {
            changed = false;
            for &fi in &set {
                let f = &ws.files[fi];
                for item in &f.items.fns {
                    if reaches.contains(&item.name) {
                        continue;
                    }
                    let hits = item.calls.iter().any(|c| {
                        reaches.contains(&c.callee)
                            && !f.mask.get(c.tok).copied().unwrap_or(false)
                    });
                    if hits {
                        reaches.insert(item.name.clone());
                        changed = true;
                    }
                }
            }
        }
    }
    for &fi in &set {
        let f = &ws.files[fi];
        let toks = &f.lexed.tokens;
        for item in &f.items.fns {
            if exempt.contains(&item.name) || reaches.contains(&item.name) {
                continue;
            }
            // First unmasked charge site in the body.
            let charge_line = (item.body.0..item.body.1).find_map(|i| {
                let masked = f.mask.get(i).copied().unwrap_or(false);
                (!masked
                    && is(&toks[i], "cycles")
                    && toks.get(i + 1).is_some_and(|n| p(n, b'+'))
                    && toks.get(i + 2).is_some_and(|n| p(n, b'=')))
                .then(|| toks[i].line)
            });
            let Some(line) = charge_line else { continue };
            out.push((
                fi,
                finding(
                    &f.label,
                    line,
                    "fault-tick-coverage",
                    format!(
                        "`{}` charges cycles but never reaches `fault_tick` through the fault-tick module set — injected faults skip this charge path, so fault experiments under-count it",
                        item.name
                    ),
                ),
            ));
        }
    }
}

// ---------------------------------------------------------- provenance --

/// Rule: calibration-provenance. In pragma-opted files, every non-test
/// line with a numeric literal needs a `paper:` or `uarch:` provenance
/// comment on the same line or the line above. One finding per line.
fn calibration_provenance(ws: &Workspace, out: &mut Vec<(usize, Finding)>) {
    for (fi, f) in ws.files.iter().enumerate() {
        if !f.calibration || f.class == FileClass::Test {
            continue;
        }
        let tagged: BTreeSet<u32> = f
            .lexed
            .comments
            .iter()
            .filter(|c| c.text.contains("paper:") || c.text.contains("uarch:"))
            .map(|c| c.line)
            .collect();
        let mut flagged: BTreeSet<u32> = BTreeSet::new();
        for (ti, t) in f.lexed.tokens.iter().enumerate() {
            if t.kind != TokKind::Num || f.mask.get(ti).copied().unwrap_or(false) {
                continue;
            }
            let l = t.line;
            if tagged.contains(&l) || (l > 1 && tagged.contains(&(l - 1))) || !flagged.insert(l) {
                continue;
            }
            out.push((
                fi,
                finding(
                    &f.label,
                    l,
                    "calibration-provenance",
                    "numeric constant in a calibration file without a `paper: §x.y` / `uarch: <source>` provenance comment — calibration must stay auditable against the paper".to_string(),
                ),
            ));
        }
    }
}

// ------------------------------------------------------- charge escape --

/// Does this assignment-target chain (receiver-alias-resolved) mutate
/// charge state: a cycle/clock accumulator, the wall clock, or a field of
/// a counters ledger? Byte counters (`*_bytes`) are deliberately out of
/// scope — they are derived views, not the charged quantity itself.
fn charge_ish(chain: &[String]) -> bool {
    chain.iter().any(|s| {
        let l = s.to_ascii_lowercase();
        l.contains("cycle") || l.contains("clock") || s == "wall" || s == "counters"
    })
}

/// Rule: charge-escape, over the `// sgx-lint: charge-module` set (the
/// layered machine pipeline opts in file by file, like fault-tick). Every
/// non-test function in the set that performs a *compound* assignment to
/// charge state (plain `=` is a reset/install, not a charge) must reach
/// `commit` — the `Core::commit(Charge)` choke point — directly or
/// through unmasked in-set call chains. `commit` itself and its in-set
/// transitive callees are exempt (they *are* the choke point's
/// implementation). A pragma'd set in which no file defines `commit`
/// flags every charge site: a charging module the choke point never sees
/// is exactly the escape this rule exists for. Charge sites are detected
/// by the [`dataflow`] field-write pass, resolved through `let r = &mut
/// self.…;` reborrows so laundering a receiver does not hide the write.
fn charge_escape(ws: &Workspace, out: &mut Vec<(usize, Finding)>) {
    let set: Vec<usize> = ws
        .files
        .iter()
        .enumerate()
        .filter(|(_, f)| f.class != FileClass::Test && f.charge_module)
        .map(|(fi, _)| fi)
        .collect();
    if set.is_empty() {
        return;
    }
    let defined: BTreeSet<&str> = set
        .iter()
        .flat_map(|&fi| ws.files[fi].items.fns.iter().map(|i| i.name.as_str()))
        .collect();
    // Downward closure: `commit` and everything it transitively calls
    // within the set — the choke point's own charge paths.
    let mut exempt: BTreeSet<String> = BTreeSet::new();
    exempt.insert("commit".to_string());
    let mut changed = true;
    while changed {
        changed = false;
        for &fi in &set {
            for item in &ws.files[fi].items.fns {
                if !exempt.contains(&item.name) {
                    continue;
                }
                for call in &item.calls {
                    if defined.contains(call.callee.as_str()) && !exempt.contains(&call.callee) {
                        exempt.insert(call.callee.clone());
                        changed = true;
                    }
                }
            }
        }
    }
    // Upward closure: names that reach `commit` through unmasked in-set
    // call chains. Empty when no set file defines it.
    let mut reaches: BTreeSet<String> = BTreeSet::new();
    if set.iter().any(|&fi| ws.files[fi].items.fns.iter().any(|i| i.name == "commit")) {
        reaches.insert("commit".to_string());
        changed = true;
        while changed {
            changed = false;
            for &fi in &set {
                let f = &ws.files[fi];
                for item in &f.items.fns {
                    if reaches.contains(&item.name) {
                        continue;
                    }
                    let hits = item.calls.iter().any(|c| {
                        reaches.contains(&c.callee)
                            && !f.mask.get(c.tok).copied().unwrap_or(false)
                    });
                    if hits {
                        reaches.insert(item.name.clone());
                        changed = true;
                    }
                }
            }
        }
    }
    for &fi in &set {
        let f = &ws.files[fi];
        let toks = &f.lexed.tokens;
        for item in &f.items.fns {
            if exempt.contains(&item.name) || reaches.contains(&item.name) {
                continue;
            }
            let aliases = dataflow::receiver_aliases(toks, item.body);
            // First unmasked compound charge site in the body.
            let site = dataflow::field_writes(toks, item.body).into_iter().find(|w| {
                w.compound
                    && !f.mask.get(w.tok).copied().unwrap_or(false)
                    && charge_ish(&dataflow::resolve_receiver(&w.chain, &aliases))
            });
            let Some(w) = site else { continue };
            out.push((
                fi,
                finding(
                    &f.label,
                    w.line,
                    "charge-escape",
                    format!(
                        "`{}` mutates charge state (`{}`) but never reaches `commit` through the charge-module set — a charge bypassing the `Core::commit` choke point skews enclave-vs-native attribution invisibly; route it through `commit` or add a reasoned allow-marker",
                        item.name,
                        w.chain.join(".")
                    ),
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn ws(sources: &[(&str, FileClass, &str)]) -> Workspace {
        Workspace::build(
            sources
                .iter()
                .map(|(p, c, s)| (PathBuf::from(p), *c, s.to_string()))
                .collect(),
        )
    }

    fn rules(found: &[(usize, Finding)]) -> Vec<&str> {
        found.iter().map(|(_, f)| f.rule.as_str()).collect()
    }

    #[test]
    fn taint_follows_slices_across_files() {
        let w = ws(&[
            (
                "crates/sgx-joins/src/a.rs",
                FileClass::OperatorLib,
                "pub fn build(v: &SimVec<u64>) { let keys = v.as_slice_untracked(); helper(keys); }",
            ),
            (
                "crates/sgx-scans/src/b.rs",
                FileClass::OperatorLib,
                "pub fn helper(keys: &[u64]) -> u64 { keys[0] }",
            ),
        ]);
        let found = run(&w);
        assert!(rules(&found).contains(&"untracked-slice-taint"), "{found:?}");
        assert_eq!(found.iter().filter(|(_, f)| f.rule == "untracked-slice-taint").count(), 1);
    }

    #[test]
    fn taint_direct_argument_and_for_loop() {
        let w = ws(&[(
            "crates/sgx-joins/src/a.rs",
            FileClass::OperatorLib,
            "pub fn f(v: &SimVec<u64>) { sum(v.as_slice_untracked()) }\npub fn sum(xs: &[u64]) -> u64 { let mut s = 0; for x in xs { s += x; } s }",
        )]);
        assert_eq!(rules(&run(&w)), ["untracked-slice-taint"]);
    }

    #[test]
    fn taint_resolution_shadows_foreign_same_named_fns() {
        // The calling file's own `helper` only takes the length; the
        // same-named indexing `helper` in another crate must not be
        // followed — module-local resolution shadows it.
        let w = ws(&[
            (
                "crates/sgx-joins/src/a.rs",
                FileClass::OperatorLib,
                "pub fn build(v: &SimVec<u64>) { let keys = v.as_slice_untracked(); helper(keys); }\n\
                 fn helper(keys: &[u64]) -> usize { keys.len() }",
            ),
            (
                "crates/sgx-scans/src/b.rs",
                FileClass::OperatorLib,
                "pub fn helper(keys: &[u64]) -> u64 { keys[0] }",
            ),
        ]);
        let found = run(&w);
        assert!(
            !rules(&found).contains(&"untracked-slice-taint"),
            "foreign same-named fn wrongly attributed: {found:?}"
        );
    }

    #[test]
    fn taint_survives_wrapper_indirection() {
        // build → helper_w2 → helper_w1 → helper (the consumer): three
        // call edges from the tainted call site.
        let src = "pub fn build(v: &SimVec<u64>) { let keys = v.as_slice_untracked(); helper_w2(keys); }\n\
                   fn helper_w2(keys: &[u64]) -> u64 { helper_w1(keys) }\n\
                   fn helper_w1(keys: &[u64]) -> u64 { helper(keys) }\n\
                   fn helper(keys: &[u64]) -> u64 { keys[0] }";
        let w = ws(&[("crates/sgx-joins/src/a.rs", FileClass::OperatorLib, src)]);
        let found = run(&w);
        assert_eq!(rules(&found), ["untracked-slice-taint"], "{found:?}");
        assert!(found[0].1.message.contains("via"), "{}", found[0].1.message);
        // The weaken knob restores the pre-hardening blind spot.
        let weak = Config { taint_call_depth: 1, ..Config::default() };
        assert!(run_cfg(&w, &weak).is_empty());
    }

    #[test]
    fn taint_survives_let_chain_aliases() {
        // Tainted local laundered through a `let` chain at the call site,
        // and the parameter laundered through another chain in the callee.
        let src = "pub fn build(v: &SimVec<u64>) { let k1 = v.as_slice_untracked(); let k2 = k1; consume(k2); }\n\
                   fn consume(xs: &[u64]) -> u64 { let ys = xs; ys[0] }";
        let w = ws(&[("crates/sgx-joins/src/a.rs", FileClass::OperatorLib, src)]);
        assert_eq!(rules(&run(&w)), ["untracked-slice-taint"]);
        let weak = Config { taint_aliases: false, ..Config::default() };
        assert!(run_cfg(&w, &weak).is_empty());
    }

    #[test]
    fn taint_indirection_tolerates_recursion() {
        // Mutually recursive pass-through must terminate and stay silent.
        let src = "pub fn build(v: &SimVec<u64>) { let k = v.as_slice_untracked(); ping(k); }\n\
                   fn ping(xs: &[u64]) { pong(xs); }\n\
                   fn pong(xs: &[u64]) { ping(xs); }";
        let w = ws(&[("crates/sgx-joins/src/a.rs", FileClass::OperatorLib, src)]);
        assert!(run(&w).is_empty(), "{:?}", run(&w));
    }

    #[test]
    fn taint_silent_when_callee_does_not_consume() {
        let w = ws(&[(
            "crates/sgx-joins/src/a.rs",
            FileClass::OperatorLib,
            "pub fn f(v: &SimVec<u64>) { let s = v.as_slice_untracked(); note(s); }\npub fn note(xs: &[u64]) -> usize { xs.len() }",
        )]);
        assert!(rules(&run(&w)).is_empty(), "{:?}", run(&w));
    }

    #[test]
    fn taint_only_fires_from_operator_code() {
        let w = ws(&[(
            "crates/sgx-sim/src/a.rs",
            FileClass::Lib,
            "pub fn f(v: &SimVec<u64>) { let s = v.as_slice_untracked(); use_it(s); }\npub fn use_it(xs: &[u64]) -> u64 { xs[0] }",
        )]);
        assert!(rules(&run(&w)).is_empty());
    }

    #[test]
    fn fault_tick_coverage_flags_untick_charges() {
        let w = ws(&[(
            "crates/sgx-sim/src/machine.rs",
            FileClass::Lib,
            "impl M {\nfn fault_tick(&mut self) { self.slow(); }\nfn slow(&mut self) { self.cycles += 1.0; }\nfn charge(&mut self) { self.cycles += 2.0; self.fault_tick(); }\nfn leaky(&mut self) { self.cycles += 3.0; }\n}",
        )]);
        let found = run(&w);
        assert_eq!(rules(&found), ["fault-tick-coverage"]);
        assert!(found[0].1.message.contains("`leaky`"));
    }

    #[test]
    fn fault_tick_coverage_spans_the_module_set() {
        // `commit` lives in a pragma'd layer file and reaches `fault_tick`
        // (defined in a sibling set file) transitively through `relay` —
        // silent. `stray` in the same layer charges without reaching — flagged.
        let w = ws(&[
            (
                "crates/sgx-sim/src/machine/core.rs",
                FileClass::Lib,
                "// sgx-lint: fault-tick-module\nimpl M {\nfn commit(&mut self) { self.cycles += 1.0; self.relay(); }\nfn relay(&mut self) { self.fault_tick(); }\nfn stray(&mut self) { self.cycles += 2.0; }\n}",
            ),
            (
                "crates/sgx-sim/src/machine/transitions.rs",
                FileClass::Lib,
                "// sgx-lint: fault-tick-module\nimpl M {\nfn fault_tick(&mut self) { self.slow(); }\nfn slow(&mut self) { self.cycles += 1.0; }\n}",
            ),
        ]);
        let found = run(&w);
        assert_eq!(rules(&found), ["fault-tick-coverage"], "{found:?}");
        assert!(found[0].1.message.contains("`stray`"));
    }

    #[test]
    fn fault_tick_coverage_pragma_without_tick_flags_all_charges() {
        // A layer opts in but no set file defines `fault_tick` at all:
        // every charge path is invisible to the fault engine — flag it.
        let w = ws(&[(
            "crates/sgx-sim/src/machine/numa.rs",
            FileClass::Lib,
            "// sgx-lint: fault-tick-module\nimpl M {\nfn upi(&mut self) { self.cycles += 9.0; }\n}",
        )]);
        let found = run(&w);
        assert_eq!(rules(&found), ["fault-tick-coverage"], "{found:?}");
        assert!(found[0].1.message.contains("`upi`"));
    }

    #[test]
    fn provenance_requires_pragma_and_tags() {
        let no_pragma = ws(&[(
            "crates/sgx-sim/src/other.rs",
            FileClass::Lib,
            "pub const N: usize = 64;",
        )]);
        assert!(run(&no_pragma).is_empty());
        let w = ws(&[(
            "crates/sgx-sim/src/config.rs",
            FileClass::Lib,
            "// sgx-lint: calibration-file\npub const A: usize = 64; // uarch: cache line\n// paper: §4.1 DRAM latency\npub const B: f64 = 220.0;\npub const C: f64 = 175.0;\n",
        )]);
        let found = run(&w);
        assert_eq!(rules(&found), ["calibration-provenance"]);
        assert_eq!(found[0].1.line, 5);
    }

    #[test]
    fn charge_escape_flags_choke_point_bypass() {
        // `commit` and its callee `apply` are the choke point (exempt);
        // `resolve` reaches it (clean); `leak` charges a clock without
        // reaching (flagged); `reset` only plain-assigns (clean).
        let w = ws(&[(
            "crates/sgx-sim/src/machine/core.rs",
            FileClass::Lib,
            "// sgx-lint: charge-module\nimpl M {\nfn commit(&mut self) { self.cycles += 1.0; self.apply(); }\nfn apply(&mut self) { self.m.counters.loads += 1; }\nfn resolve(&mut self) { self.commit(); }\nfn leak(&mut self) { self.core_clock += 7.0; }\nfn reset(&mut self) { self.wall = 0.0; }\n}",
        )]);
        let found = run(&w);
        assert_eq!(rules(&found), ["charge-escape"], "{found:?}");
        assert!(found[0].1.message.contains("`leak`"), "{}", found[0].1.message);
    }

    #[test]
    fn charge_escape_sees_through_reborrows() {
        let w = ws(&[(
            "crates/sgx-sim/src/machine/core.rs",
            FileClass::Lib,
            "// sgx-lint: charge-module\nimpl M {\nfn commit(&mut self) { self.cycles += 1.0; }\nfn leak(&mut self) { let c = &mut self.m.counters; c.loads += 1; }\n}",
        )]);
        let found = run(&w);
        assert_eq!(rules(&found), ["charge-escape"], "{found:?}");
        assert!(found[0].1.message.contains("`leak`"));
    }

    #[test]
    fn charge_escape_without_commit_flags_all_charges() {
        // A pragma'd module from which `commit` is unreachable (not even
        // defined): every charge path escapes the choke point — flag it.
        let w = ws(&[(
            "crates/sgx-sim/src/machine/numa.rs",
            FileClass::Lib,
            "// sgx-lint: charge-module\nimpl M {\nfn upi(&mut self) { self.wall += 9.0; }\n}",
        )]);
        let found = run(&w);
        assert_eq!(rules(&found), ["charge-escape"], "{found:?}");
        assert!(found[0].1.message.contains("`upi`"));
    }

    #[test]
    fn charge_escape_requires_the_pragma() {
        let w = ws(&[(
            "crates/sgx-sim/src/machine/core.rs",
            FileClass::Lib,
            "impl M { fn leak(&mut self) { self.core_clock += 1.0; } }",
        )]);
        assert!(run(&w).is_empty(), "{:?}", run(&w));
    }
}
