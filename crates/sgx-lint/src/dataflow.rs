//! Lightweight intraprocedural dataflow over the token stream.
//!
//! The semantic rules in [`crate::semantic`] started as pure call-graph
//! matching: "does function X transitively call function Y". The
//! charge-integrity rules added for the hot-path optimization program
//! (ROADMAP item 2) need one notch more: *which values are mutated where*.
//! This module extracts exactly that — still no expression trees, no type
//! inference — from the same token/item model [`crate::parse`] produces:
//!
//! * [`field_writes`] — every assignment target in a body as a dotted
//!   *chain* (`self.m.counters.tlb_misses += 1` →
//!   `["self","m","counters","tlb_misses"]`), with compound (`+=`, `-=`,
//!   `*=`, `/=`, …) distinguished from plain `=`. Charge sites are always
//!   compound — a plain `=` is a reset/install, not a charge — so the
//!   charge-escape rule keys on `compound` and leaves `wall = 0.0`-style
//!   re-anchoring alone.
//! * [`receiver_aliases`] + [`resolve_receiver`] — `let c = &mut
//!   self.counters;` style reborrows, so a write through `c` still
//!   resolves to the `counters` chain. Bounded, per-function, def-use
//!   only.
//!
//! Everything here is deliberately *syntactic* and bounded (fixed
//! iteration caps, no recursion), matching the crate's "fast, offline,
//! dependency-free" contract; the rules own the semantic interpretation.

use crate::tokenizer::{Tok, TokKind};
use std::collections::BTreeMap;

fn is(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

fn p(t: &Tok, c: u8) -> bool {
    t.kind == TokKind::Punct(c)
}

/// Maximum alias-chain hops [`resolve_receiver`] follows. Deep enough for
/// any human-written chain; bounds adversarial `let a = b; let b = a;`
/// cycles.
const MAX_ALIAS_HOPS: usize = 8;

/// One assignment site: a dotted/indexed chain ending in an assignment
/// operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldWrite {
    /// 1-based line of the chain's first identifier.
    pub line: u32,
    /// Token index of the chain's first identifier (for mask lookups).
    pub tok: usize,
    /// Identifier segments of the assignment target, in order. Index
    /// expressions are skipped (`clocks[w] += t` → `["clocks"]`); tuple
    /// field accesses contribute a `"#"` placeholder segment.
    pub chain: Vec<String>,
    /// `true` for compound assignment (`+=`, `-=`, `*=`, `/=`, `%=`,
    /// `|=`, `&=`, `^=`), `false` for plain `=`.
    pub compound: bool,
}

/// Skip a balanced bracket run starting at `open` (which must hold the
/// opening byte). Returns the index just past the matching closer, or
/// `toks.len()` if unterminated.
fn skip_balanced(toks: &[Tok], open: usize, o: u8, c: u8) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if p(t, o) {
            depth += 1;
        } else if p(t, c) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
    }
    toks.len()
}

/// Walk one chain starting at the identifier at `i`. Returns the segments
/// and the index just past the chain, or `None` if the chain ends in a
/// call (`a.b.push(x)` is not an assignment target).
fn walk_chain(toks: &[Tok], i: usize, end: usize) -> Option<(Vec<String>, usize)> {
    let mut chain = vec![toks[i].text.clone()];
    let mut j = i + 1;
    loop {
        if j >= end {
            break;
        }
        if p(&toks[j], b'[') {
            j = skip_balanced(toks, j, b'[', b']');
            continue;
        }
        if p(&toks[j], b'.') {
            match toks.get(j + 1) {
                Some(n) if n.kind == TokKind::Ident => {
                    // Method call ends the chain as a non-target.
                    if toks.get(j + 2).is_some_and(|t| p(t, b'(')) {
                        return None;
                    }
                    chain.push(n.text.clone());
                    j += 2;
                    continue;
                }
                Some(n) if n.kind == TokKind::Num => {
                    // Tuple index `pair.0`; the tokenizer drops the digits.
                    chain.push("#".to_string());
                    j += 2;
                    continue;
                }
                _ => break,
            }
        }
        break;
    }
    Some((chain, j))
}

/// Extract every assignment site in the token range `[start, end)`.
///
/// A site is an identifier chain followed by an assignment operator.
/// Comparison operators never match: `==` fails the plain-`=` lookahead
/// and `<=`/`>=`/`!=` put their extra byte *before* the `=`, outside the
/// compound-op set.
pub fn field_writes(toks: &[Tok], range: (usize, usize)) -> Vec<FieldWrite> {
    let (start, end) = range;
    let mut out = Vec::new();
    let mut i = start;
    while i < end.min(toks.len()) {
        let t = &toks[i];
        // Chains start at an identifier that is not itself a `.`/`::`
        // continuation of an earlier path.
        if t.kind != TokKind::Ident
            || (i > 0 && (p(&toks[i - 1], b'.') || p(&toks[i - 1], b':')))
        {
            i += 1;
            continue;
        }
        let Some((chain, j)) = walk_chain(toks, i, end) else {
            i += 1;
            continue;
        };
        let compound = toks.get(j).is_some_and(|o| {
            matches!(
                o.kind,
                TokKind::Punct(b'+')
                    | TokKind::Punct(b'-')
                    | TokKind::Punct(b'*')
                    | TokKind::Punct(b'/')
                    | TokKind::Punct(b'%')
                    | TokKind::Punct(b'|')
                    | TokKind::Punct(b'&')
                    | TokKind::Punct(b'^')
            )
        }) && toks.get(j + 1).is_some_and(|e| p(e, b'='))
            // `&& x == y` style: the byte before `=` must be the operator
            // itself, and the token after `=` must not be another `=`.
            && !toks.get(j + 2).is_some_and(|e| p(e, b'='));
        let plain = !compound
            && toks.get(j).is_some_and(|e| p(e, b'='))
            && !toks.get(j + 1).is_some_and(|e| p(e, b'='));
        if compound || plain {
            out.push(FieldWrite { line: t.line, tok: i, chain, compound });
        }
        // Resume after the chain (inner segments are `.`-guarded anyway).
        i = (j).max(i + 1);
    }
    out
}

/// `let [mut] name = [&][mut] chain ;` reborrow bindings inside a body:
/// `name` → the chain it aliases. Initializers of any other shape are not
/// receiver aliases.
pub fn receiver_aliases(toks: &[Tok], range: (usize, usize)) -> BTreeMap<String, Vec<String>> {
    let (start, end) = range;
    let mut out = BTreeMap::new();
    let mut i = start;
    while i < end.min(toks.len()) {
        if !is(&toks[i], "let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| is(t, "mut")) {
            j += 1;
        }
        let Some(name) = toks.get(j) else { break };
        if name.kind != TokKind::Ident || !toks.get(j + 1).is_some_and(|t| p(t, b'=')) {
            i += 1;
            continue;
        }
        let mut k = j + 2;
        while toks.get(k).is_some_and(|t| p(t, b'&') || is(t, "mut")) {
            k += 1;
        }
        if k < end && toks[k].kind == TokKind::Ident {
            if let Some((chain, past)) = walk_chain(toks, k, end) {
                if toks.get(past).is_some_and(|t| p(t, b';')) {
                    out.insert(name.text.clone(), chain);
                }
            }
        }
        i = j + 1;
    }
    out
}

/// Substitute the head of `chain` through `aliases` to a fixpoint
/// (bounded): `c.tlb_misses` with `c → self.m.counters` becomes
/// `self.m.counters.tlb_misses`.
pub fn resolve_receiver(chain: &[String], aliases: &BTreeMap<String, Vec<String>>) -> Vec<String> {
    let mut out: Vec<String> = chain.to_vec();
    for _ in 0..MAX_ALIAS_HOPS {
        let Some(head) = out.first() else { break };
        let Some(sub) = aliases.get(head) else { break };
        // Self-referential binding (`let c = c;`) cannot make progress.
        if sub.first() == out.first() && sub.len() == 1 {
            break;
        }
        let tail: Vec<String> = out[1..].to_vec();
        out = sub.clone();
        out.extend(tail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn writes(src: &str) -> Vec<FieldWrite> {
        let lx = tokenize(src);
        field_writes(&lx.tokens, (0, lx.tokens.len()))
    }

    #[test]
    fn chains_ops_and_indexing() {
        let w = writes("fn f(&mut self) { self.m.counters.tlb_misses += 1; self.clocks[w] += t; self.wall = 0.0; }");
        let chains: Vec<(Vec<&str>, bool)> = w
            .iter()
            .map(|x| (x.chain.iter().map(|s| s.as_str()).collect(), x.compound))
            .collect();
        assert!(chains.contains(&(vec!["self", "m", "counters", "tlb_misses"], true)));
        assert!(chains.contains(&(vec!["self", "clocks"], true)));
        assert!(chains.contains(&(vec!["self", "wall"], false)), "{chains:?}");
    }

    #[test]
    fn comparisons_and_calls_are_not_writes() {
        let w = writes("fn f() { if a.x == 1 { } if b <= 2 { } q.push(3); c.y().z += 1; }");
        // `a.x ==` reads; `q.push(…)` is a call; `c.y().z` ends in a call
        // before the field, so the chain aborts at the call.
        assert!(
            w.iter().all(|x| x.chain != ["a", "x"] && x.chain.first().map(String::as_str) != Some("q")),
            "{w:?}"
        );
    }

    #[test]
    fn all_compound_operators_detected() {
        let w = writes("fn f() { a += 1; b -= 1; c *= 2; d /= 2; e %= 2; g |= 1; h &= 1; k ^= 1; }");
        assert_eq!(w.iter().filter(|x| x.compound).count(), 8, "{w:?}");
    }

    #[test]
    fn reborrows_resolve_to_the_underlying_chain() {
        let lx = tokenize("fn f(&mut self) { let c = &mut self.m.counters; c.loads += 1; }");
        let al = receiver_aliases(&lx.tokens, (0, lx.tokens.len()));
        let w = field_writes(&lx.tokens, (0, lx.tokens.len()));
        let hit = w.iter().find(|x| x.compound).unwrap();
        let resolved = resolve_receiver(&hit.chain, &al);
        assert_eq!(resolved, ["self", "m", "counters", "loads"]);
    }
}
