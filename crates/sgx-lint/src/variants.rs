//! Seeded, semantics-preserving source transforms over lint corpus cases
//! — the mutation half of `sgx-lint robustness` ([`crate::robustness`]).
//!
//! Each transform takes a source string and returns a rewritten string
//! that a Rust compiler would accept with the *same meaning*, or `None`
//! when the transform does not apply (nothing to rename, nothing to
//! wrap, …). The point is rapx-bench-style robust-detection scoring: a
//! rule that fires on a base case but misses a renamed / reordered /
//! indirected variant of it is pattern-matching on incidental syntax,
//! not detecting the property.
//!
//! ## Catalog
//!
//! | transform | what it does |
//! |-----------|--------------|
//! | `rename`  | uniformly renames file-defined identifiers to fresh names (rule-significant names are protected — see [`protected`]) |
//! | `reorder` | permutes top-level items (each item travels with its attached leading comments/attributes) |
//! | `wrap`    | routes calls to file-defined functions through generated pass-through wrappers of configurable depth |
//! | `seqlen`  | splits `let x = RHS;` into a chain of `let x_sN…` temporaries of configurable length, on one source line |
//! | `nest`    | wraps the file body in `mod` shells of configurable depth |
//! | `noise`   | inserts decoy comments, blank lines and a raw-string decoy const whose *text* mentions every trigger word |
//! | `alias`   | declares `pub type S_x = S;` for file-defined structs and reroutes every reference (impl blocks, signatures, literals) through the alias |
//! | `dyncall` | reroutes calls to free functions through a generated trait object (`&dyn NameDyn`) so the call chain crosses a dynamic dispatch edge |
//! | `xsplit`  | **multi-file**: wraps (depth 1) then splits the top-level items into two files at a seeded cut, replicating module-set pragmas into both halves ([`apply_ws`]) |
//! | `compose` | rename → wrap → seqlen → reorder → nest → noise in one variant |
//!
//! ## Invariants every transform preserves
//!
//! * **Marker adjacency** — `// sgx-lint: allow(...)` covers its own line
//!   and the next; `paper:` / `uarch:` provenance tags cover their line
//!   and the one below. No transform ever separates a comment line from
//!   the line directly beneath it (noise never inserts after a
//!   comment-bearing line; seqlen keeps the rewritten statement on the
//!   original line; nest/reorder move whole line runs together).
//! * **Rule-significant names** — identifiers the rules key on
//!   (`as_slice_untracked`, `fault_tick`, `cycles`, counter-ish names,
//!   slice consumers, fallible-call names, …) are never renamed.
//! * **Determinism** — all randomness comes from the caller's seed via
//!   [`Rng`] (splitmix64); the same `(source, transform)` pair always
//!   yields the same bytes.

use crate::parse::{self, FnItem, Items};
use crate::tokenizer::{tokenize, Lexed, Tok, TokKind};
use std::collections::BTreeSet;

// ------------------------------------------------------------------ rng --

/// Minimal splitmix64 — deterministic, dependency-free, good enough for
/// picking permutations and suffixes.
pub struct Rng(u64);

impl Rng {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish value in `0..n` (n must be > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over a string — used to derive per-case seeds so variant
/// generation is independent of corpus iteration order and `--jobs`.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Mix a global seed with a per-case hash into one stream seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.rotate_left(17)).next_u64()
}

// ------------------------------------------------------------ transforms --

/// One concrete transform application, fully parameterized (so a variant
/// label pinpoints exactly what was done to the base case).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transform {
    /// Uniform fresh renaming of file-defined identifiers.
    Rename {
        /// Stream seed (picks the suffix per name).
        seed: u64,
    },
    /// Permutation of top-level items.
    Reorder {
        /// Stream seed (picks the permutation).
        seed: u64,
    },
    /// Pass-through wrapper indirection on file-internal calls.
    Wrap {
        /// Wrapper chain length (1 = one wrapper between caller and callee).
        depth: usize,
    },
    /// `let`-chain lengthening.
    Seqlen {
        /// Statements per original `let` (2 = one temporary).
        chain: usize,
    },
    /// `mod` shell nesting.
    Nest {
        /// Number of nested shells.
        depth: usize,
    },
    /// Decoy comments / blank lines / raw-string decoy const.
    Noise {
        /// Stream seed (picks insertion points and decoy text).
        seed: u64,
    },
    /// `pub type S_x = S;` indirection on file-defined struct references.
    Alias {
        /// Stream seed (picks the alias suffix per struct).
        seed: u64,
    },
    /// Trait-object dispatch indirection on free-function calls.
    Dyncall,
    /// Cross-file split: wrap (depth 1) then cut the top-level items into
    /// two files, replicating module-set pragmas into both halves. Only
    /// applicable through [`apply_ws`].
    Xsplit {
        /// Stream seed (picks the cut point).
        seed: u64,
    },
    /// All of the single-file transforms composed in one variant.
    Compose {
        /// Stream seed shared by the stochastic stages.
        seed: u64,
    },
}

/// The transform kind names, in canonical (reporting) order.
pub const KINDS: [&str; 10] = [
    "rename", "reorder", "wrap", "seqlen", "nest", "noise", "alias", "dyncall", "xsplit",
    "compose",
];

impl Transform {
    /// Canonical kind name (the RD grouping key).
    pub fn kind(&self) -> &'static str {
        match self {
            Transform::Rename { .. } => "rename",
            Transform::Reorder { .. } => "reorder",
            Transform::Wrap { .. } => "wrap",
            Transform::Seqlen { .. } => "seqlen",
            Transform::Nest { .. } => "nest",
            Transform::Noise { .. } => "noise",
            Transform::Alias { .. } => "alias",
            Transform::Dyncall => "dyncall",
            Transform::Xsplit { .. } => "xsplit",
            Transform::Compose { .. } => "compose",
        }
    }

    /// Human label with parameters, e.g. `wrap[d2]`, `rename[s1]`.
    pub fn label(&self) -> String {
        match self {
            Transform::Rename { seed } => format!("rename[s{seed}]"),
            Transform::Reorder { seed } => format!("reorder[s{seed}]"),
            Transform::Wrap { depth } => format!("wrap[d{depth}]"),
            Transform::Seqlen { chain } => format!("seqlen[n{chain}]"),
            Transform::Nest { depth } => format!("nest[d{depth}]"),
            Transform::Noise { seed } => format!("noise[s{seed}]"),
            Transform::Alias { seed } => format!("alias[s{seed}]"),
            Transform::Dyncall => "dyncall".to_string(),
            Transform::Xsplit { seed } => format!("xsplit[s{seed}]"),
            Transform::Compose { seed } => format!("compose[s{seed}]"),
        }
    }
}

/// Apply one single-file transform. `None` means "does not apply to this
/// source" (no renameable names, fewer than three top-level items, …) —
/// the scorer skips such variants rather than double-counting the base.
/// [`Transform::Xsplit`] is inherently multi-file and always returns
/// `None` here; use [`apply_ws`].
pub fn apply(src: &str, t: &Transform) -> Option<String> {
    let out = match t {
        Transform::Rename { seed } => rename(src, &mut Rng::new(*seed)),
        Transform::Reorder { seed } => reorder(src, &mut Rng::new(*seed)),
        Transform::Wrap { depth } => wrap(src, *depth),
        Transform::Seqlen { chain } => seqlen(src, *chain),
        Transform::Nest { depth } => nest(src, *depth),
        Transform::Noise { seed } => noise(src, &mut Rng::new(*seed)),
        Transform::Alias { seed } => alias(src, &mut Rng::new(*seed)),
        Transform::Dyncall => dyncall(src),
        Transform::Xsplit { .. } => None,
        Transform::Compose { seed } => compose(src, *seed),
    };
    out.filter(|o| o != src)
}

/// Apply one transform as a *variant workspace*: a deterministic list of
/// `(file name, content)` pairs. Single-file transforms come back as a
/// one-element workspace named `case.rs`; [`Transform::Xsplit`] produces
/// two files. The verdict over a workspace is the union of findings
/// across its files ([`crate::analyze_set_cfg`]).
pub fn apply_ws(src: &str, t: &Transform) -> Option<Vec<(String, String)>> {
    match t {
        Transform::Xsplit { seed } => xsplit(src, &mut Rng::new(*seed)),
        _ => apply(src, t).map(|out| vec![("case.rs".to_string(), out)]),
    }
}

fn compose(src: &str, seed: u64) -> Option<String> {
    let mut cur = src.to_string();
    let stages: [Transform; 6] = [
        Transform::Rename { seed: mix(seed, 1) },
        Transform::Wrap { depth: 1 },
        Transform::Seqlen { chain: 2 },
        Transform::Reorder { seed: mix(seed, 2) },
        Transform::Nest { depth: 1 },
        Transform::Noise { seed: mix(seed, 3) },
    ];
    for stage in &stages {
        if let Some(next) = apply(&cur, stage) {
            cur = next;
        }
    }
    (cur != src).then_some(cur)
}

// -------------------------------------------------------------- splicing --

/// One byte-range replacement.
struct Patch {
    at: usize,
    del: usize,
    text: String,
}

/// Apply non-overlapping patches to `src`. Patches are sorted by offset;
/// overlapping patches would be a generator bug, so debug-assert.
fn splice(src: &str, mut patches: Vec<Patch>) -> String {
    patches.sort_by_key(|p| p.at);
    debug_assert!(
        patches.windows(2).all(|w| w[0].at + w[0].del <= w[1].at),
        "overlapping variant patches"
    );
    let mut out = String::with_capacity(src.len() + 64);
    let mut cursor = 0usize;
    for p in &patches {
        out.push_str(&src[cursor..p.at]);
        out.push_str(&p.text);
        cursor = p.at + p.del;
    }
    out.push_str(&src[cursor..]);
    out
}

/// All identifier texts in the token stream (collision check for fresh
/// names).
fn ident_set(lexed: &Lexed) -> BTreeSet<String> {
    lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .collect()
}

/// Reserve a name not yet in `used`, extending with `x` on collision.
fn fresh(base: String, used: &mut BTreeSet<String>) -> String {
    let mut cand = base;
    while !used.insert(cand.clone()) {
        cand.push('x');
    }
    cand
}

// ---------------------------------------------------------------- rename --

/// Rust keywords and contextual keywords the renamer must never touch.
const KEYWORDS: [&str; 40] = [
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while", "_",
];

/// Names at least one rule keys on — renaming these would change what the
/// lint *should* report, so the variant would no longer be
/// semantics-preserving from the rules' point of view.
const RULE_ANCHORS: [&str; 8] = [
    "as_slice_untracked",
    "as_mut_slice_untracked",
    "ok",
    "fault_tick",
    "main",
    "f64",
    "commit",
    "wall",
];

/// Is `name` off-limits for renaming? Keywords, rule anchors, narrowing
/// target types, slice consumers, fallible-call names, `try_*`, and
/// anything counter-ish (`crate::engine::counter_ish` — `cycles`,
/// `*_bytes`, `elapsed`, …).
pub fn protected(name: &str) -> bool {
    KEYWORDS.contains(&name)
        || RULE_ANCHORS.contains(&name)
        || crate::engine::NARROW_INTS.contains(&name)
        || crate::semantic::SLICE_CONSUMERS.contains(&name)
        || crate::engine::FALLIBLE_CALLS.contains(&name)
        || crate::engine::counter_ish(name)
        || name.starts_with("try_")
}

/// Suffix pool for renamed identifiers.
const SUFFIXES: [&str; 8] = ["alpha", "beta", "gamma", "delta", "kappa", "sigma", "omega", "zeta"];

/// Names *defined* by this file: `fn`/`struct`/`enum`/`trait`/`mod`/
/// `type`/`const`/`static` items, `let` binders, fn parameters, struct
/// fields. Renaming is uniform per name across the whole file, and every
/// replacement target is globally fresh, so shadowing cannot capture:
/// two scopes that shared a name before the rename still share (the new)
/// one after, and no distinct name collapses onto another.
fn defined_names(lexed: &Lexed, items: &Items) -> Vec<String> {
    let toks = &lexed.tokens;
    let mut names: BTreeSet<String> = BTreeSet::new();
    const DEFINERS: [&str; 9] =
        ["fn", "struct", "enum", "trait", "mod", "type", "const", "static", "let"];
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !DEFINERS.contains(&t.text.as_str()) {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|n| n.kind == TokKind::Ident && n.text == "mut") {
            j += 1;
        }
        if let Some(n) = toks.get(j) {
            if n.kind == TokKind::Ident {
                names.insert(n.text.clone());
            }
        }
    }
    for f in &items.fns {
        for p in &f.params {
            names.insert(p.clone());
        }
    }
    for s in &items.structs {
        for fld in &s.fields {
            names.insert(fld.name.clone());
        }
    }
    let mut out: Vec<String> = names.into_iter().filter(|n| !protected(n)).collect();
    out.sort();
    out
}

fn rename(src: &str, rng: &mut Rng) -> Option<String> {
    let lexed = tokenize(src);
    let items = parse::parse(&lexed);
    let names = defined_names(&lexed, &items);
    if names.is_empty() {
        return None;
    }
    let mut used = ident_set(&lexed);
    let mut patches = Vec::new();
    for name in &names {
        let suffix = SUFFIXES[rng.below(SUFFIXES.len())];
        let new = fresh(format!("{name}_{suffix}"), &mut used);
        for t in lexed.tokens.iter().filter(|t| t.kind == TokKind::Ident && &t.text == name) {
            patches.push(Patch { at: t.pos, del: name.len(), text: new.clone() });
        }
    }
    if patches.is_empty() {
        return None;
    }
    Some(splice(src, patches))
}

// --------------------------------------------------------------- reorder --

/// Byte offset of the start of the line *after* the one containing `at`.
fn next_line_start(src: &str, at: usize) -> usize {
    src[at..].find('\n').map_or(src.len(), |off| at + off + 1)
}

fn reorder(src: &str, rng: &mut Rng) -> Option<String> {
    let lexed = tokenize(src);
    let toks = &lexed.tokens;
    // Top-level item end tokens: `;` at brace depth 0, or a `}` that
    // closes back to depth 0. Attributes (`#[...]`) contain neither.
    let mut depth = 0i32;
    let mut ends: Vec<usize> = Vec::new();
    for t in toks {
        match t.kind {
            TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    ends.push(t.pos);
                }
            }
            TokKind::Punct(b';') if depth == 0 => ends.push(t.pos),
            _ => {}
        }
    }
    // Chunk boundaries at the start of the line following each item end;
    // the bytes between two boundaries are one movable chunk, so leading
    // comments and attributes travel with the item below them.
    let mut bounds: Vec<usize> = ends.iter().map(|&e| next_line_start(src, e)).collect();
    bounds.dedup();
    if let Some(last) = bounds.last_mut() {
        *last = src.len(); // trailing bytes ride with the final chunk
    }
    let mut chunks: Vec<&str> = Vec::new();
    let mut cursor = 0usize;
    for &b in &bounds {
        if b > cursor {
            chunks.push(&src[cursor..b]);
            cursor = b;
        }
    }
    // The first chunk (file docs + first item) stays pinned: `//!` inner
    // docs must remain at the top of the file.
    if chunks.len() < 3 {
        return None;
    }
    let movable = chunks.len() - 1;
    let mut order: Vec<usize> = (1..chunks.len()).collect();
    for i in (1..movable).rev() {
        order.swap(i, rng.below(i + 1));
    }
    if order.iter().enumerate().all(|(i, &o)| o == i + 1) {
        order.rotate_left(1);
    }
    let mut out = String::with_capacity(src.len());
    out.push_str(chunks[0]);
    for &o in &order {
        out.push_str(chunks[o]);
    }
    Some(out)
}

// ------------------------------------------------------------------ wrap --

/// Is `kw_tok` inside the body of some *other* fn (a nested fn a
/// top-level wrapper could not call)?
fn nested_in_fn(items: &Items, kw_tok: usize) -> bool {
    items.fns.iter().any(|f| f.body.0 <= kw_tok && kw_tok < f.body.1 && f.kw_tok != kw_tok)
}

/// Index of the impl block whose body contains `kw_tok`, if any.
fn containing_impl(items: &Items, kw_tok: usize) -> Option<usize> {
    items.impls.iter().position(|im| im.body.0 <= kw_tok && kw_tok < im.body.1)
}

/// Is the impl whose body starts at token `body_start` a trait impl
/// (`impl Trait for Type`)? Generated wrappers must not be inserted into
/// trait impls — a non-trait method there is not valid Rust.
fn is_trait_impl(toks: &[Tok], body_start: usize) -> bool {
    // Walk back from the `{` to the `impl` keyword (bounded).
    let open = body_start.saturating_sub(1);
    let lo = open.saturating_sub(64);
    let mut impl_at = None;
    for k in (lo..=open).rev() {
        if toks[k].kind == TokKind::Ident && toks[k].text == "impl" {
            impl_at = Some(k);
            break;
        }
    }
    let Some(ia) = impl_at else { return true }; // can't prove inherent — be safe
    toks[ia..open].iter().any(|t| t.kind == TokKind::Ident && t.text == "for")
}

/// The signature text of `item` minus `fn name`, e.g.
/// `"(xs: &[u64]) -> u64 "` — everything from just past the name token to
/// the body-opening `{`.
fn sig_rest<'a>(src: &'a str, toks: &[Tok], item: &FnItem) -> Option<&'a str> {
    if item.body.1 <= item.body.0 || item.body.0 == 0 {
        return None;
    }
    let name_tok = toks.get(item.kw_tok + 1)?;
    let open_tok = toks.get(item.body.0 - 1)?;
    if open_tok.kind != TokKind::Punct(b'{') {
        return None;
    }
    let from = name_tok.pos + item.name.len();
    (from <= open_tok.pos).then(|| &src[from..open_tok.pos])
}

fn wrap(src: &str, depth: usize) -> Option<String> {
    if depth == 0 {
        return None;
    }
    let lexed = tokenize(src);
    let toks = &lexed.tokens;
    let items = parse::parse(&lexed);
    // Callees eligible for wrapping: uniquely named in this file, with a
    // body, not nested inside another fn, and (for methods) living in an
    // inherent impl.
    #[derive(Clone)]
    struct Target {
        fn_idx: usize,
        method: bool,
        impl_idx: Option<usize>,
    }
    let mut targets: Vec<(String, Target)> = Vec::new();
    for (ni, f) in items.fns.iter().enumerate() {
        if items.fns.iter().filter(|o| o.name == f.name).count() != 1 {
            continue;
        }
        if f.body.1 <= f.body.0 || nested_in_fn(&items, f.kw_tok) {
            continue;
        }
        if sig_rest(src, toks, f).is_none() {
            continue;
        }
        let method = f.params.first().is_some_and(|p| p == "self");
        let impl_idx = containing_impl(&items, f.kw_tok);
        if method {
            match impl_idx {
                Some(ii)
                    if items.impls[ii].body.1 < toks.len()
                        && !is_trait_impl(toks, items.impls[ii].body.0) => {}
                _ => continue,
            }
        } else if impl_idx.is_some() {
            // Associated fns (`Self::new`-style call sites) are left alone.
            continue;
        }
        targets.push((f.name.clone(), Target { fn_idx: ni, method, impl_idx }));
    }
    if targets.is_empty() {
        return None;
    }
    // Call sites worth redirecting: resolve to a target, arity matches,
    // and the caller is not the callee itself (recursion stays put).
    let mut used = ident_set(&lexed);
    let mut patches: Vec<Patch> = Vec::new();
    let mut wrapped: Vec<(String, Target, Vec<String>)> = Vec::new(); // (name, target, chain)
    for (name, target) in &targets {
        let callee = &items.fns[target.fn_idx];
        let arity = callee.params.len() - usize::from(target.method);
        let mut sites: Vec<usize> = Vec::new();
        for caller in &items.fns {
            if caller.name == *name {
                continue;
            }
            for call in &caller.calls {
                if call.callee == *name
                    && call.method == target.method
                    && call.args.len() == arity
                {
                    sites.push(call.tok);
                }
            }
        }
        if sites.is_empty() {
            continue;
        }
        let chain: Vec<String> = (1..=depth)
            .map(|d| fresh(format!("{name}_w{d}"), &mut used))
            .collect();
        let Some(last) = chain.last().cloned() else { continue };
        for tok_idx in sites {
            let t = &toks[tok_idx];
            patches.push(Patch { at: t.pos, del: name.len(), text: last.clone() });
        }
        wrapped.push((name.clone(), target.clone(), chain));
    }
    if wrapped.is_empty() {
        return None;
    }
    // Synthesize the wrapper chains.
    let mut eof_extra = String::new();
    for (name, target, chain) in &wrapped {
        let callee = &items.fns[target.fn_idx];
        let Some(sig) = sig_rest(src, toks, callee) else { continue };
        let args: Vec<&str> =
            callee.params.iter().filter(|p| p.as_str() != "self").map(|s| s.as_str()).collect();
        let args = args.join(", ");
        let mut body_target = name.clone();
        for wname in chain {
            let text = if target.method {
                format!("\n    fn {wname}{} {{ self.{body_target}({args}) }}\n", sig.trim_end())
            } else {
                format!("\nfn {wname}{} {{ {body_target}({args}) }}\n", sig.trim_end())
            };
            match target.impl_idx {
                Some(ii) => {
                    let close = &toks[items.impls[ii].body.1];
                    patches.push(Patch { at: close.pos, del: 0, text });
                }
                None => eof_extra.push_str(&text),
            }
            body_target = wname.clone();
        }
    }
    let mut out = splice(src, patches);
    if !eof_extra.is_empty() {
        if !out.ends_with('\n') {
            out.push('\n');
        }
        out.push_str(eof_extra.trim_start_matches('\n'));
    }
    Some(out)
}

// ---------------------------------------------------------------- seqlen --

fn seqlen(src: &str, chain: usize) -> Option<String> {
    if chain < 2 {
        return None;
    }
    let lexed = tokenize(src);
    let toks = &lexed.tokens;
    let mut used = ident_set(&lexed);
    let mut patches: Vec<Patch> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if !(t.kind == TokKind::Ident && t.text == "let") {
            i += 1;
            continue;
        }
        // `if let` / `while let` are refutable matches, not statements.
        if i > 0
            && toks[i - 1].kind == TokKind::Ident
            && matches!(toks[i - 1].text.as_str(), "if" | "while")
        {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let had_mut = toks.get(j).is_some_and(|n| n.kind == TokKind::Ident && n.text == "mut");
        if had_mut {
            j += 1;
        }
        let Some(binder) = toks.get(j) else { break };
        if binder.kind != TokKind::Ident || binder.text == "_" {
            i += 1;
            continue;
        }
        // Optional `: Type` annotation, then `=` at bracket depth 0.
        let mut k = j + 1;
        let ann_from = toks.get(k).filter(|n| n.kind == TokKind::Punct(b':')).map(|n| n.pos);
        let (mut par, mut brk, mut brc, mut ang) = (0i32, 0i32, 0i32, 0i32);
        let mut eq_at: Option<usize> = None;
        while k < (i + 96).min(toks.len()) {
            match toks[k].kind {
                TokKind::Punct(b'(') => par += 1,
                TokKind::Punct(b')') => par -= 1,
                TokKind::Punct(b'[') => brk += 1,
                TokKind::Punct(b']') => brk -= 1,
                TokKind::Punct(b'{') => brc += 1,
                TokKind::Punct(b'}') => brc -= 1,
                TokKind::Punct(b'<') => ang += 1,
                TokKind::Punct(b'>') => ang -= 1,
                TokKind::Punct(b'=')
                    if par == 0 && brk == 0 && brc == 0 && ang <= 0 =>
                {
                    if toks.get(k + 1).is_some_and(|n| n.kind == TokKind::Punct(b'=')) {
                        break; // `==` — not a let statement shape we handle
                    }
                    eq_at = Some(k);
                    break;
                }
                TokKind::Punct(b';') if par == 0 && brk == 0 && brc == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let Some(eq) = eq_at else {
            i += 1;
            continue;
        };
        if ann_from.is_none() && eq != j + 1 {
            // Pattern binder (`let (a, b) = …`, `let Some(x) = …`) — skip.
            i += 1;
            continue;
        }
        // Find the terminating `;` at depth 0; `let … else { … }` (a `{`
        // at depth 0 before `;` preceded by `else`) disqualifies.
        let (mut par, mut brk, mut brc) = (0i32, 0i32, 0i32);
        let mut semi_at: Option<usize> = None;
        let mut m = eq + 1;
        while m < (eq + 256).min(toks.len()) {
            match toks[m].kind {
                TokKind::Punct(b'(') => par += 1,
                TokKind::Punct(b')') => par -= 1,
                TokKind::Punct(b'[') => brk += 1,
                TokKind::Punct(b']') => brk -= 1,
                TokKind::Punct(b'{') => brc += 1,
                TokKind::Punct(b'}') => {
                    brc -= 1;
                    if brc < 0 {
                        break; // ran out of the enclosing block — malformed
                    }
                }
                TokKind::Punct(b';') if par == 0 && brk == 0 && brc == 0 => {
                    semi_at = Some(m);
                    break;
                }
                _ => {}
            }
            m += 1;
        }
        let Some(semi) = semi_at else {
            i = j + 1;
            continue;
        };
        let rhs = src[next_byte_after_eq(toks, eq)..toks[semi].pos].trim();
        if rhs.is_empty() {
            i = j + 1;
            continue;
        }
        let ann = ann_from.map(|from| src[from..toks[eq].pos].trim_end()).unwrap_or("");
        let name = &binder.text;
        let temps: Vec<String> =
            (1..chain).map(|n| fresh(format!("{name}_s{n}"), &mut used)).collect();
        let (Some(tfirst), Some(tlast)) = (temps.first(), temps.last()) else {
            i = semi + 1;
            continue;
        };
        let mut text = format!("let {tfirst}{ann} = {rhs};");
        for w in temps.windows(2) {
            text.push_str(&format!(" let {} = {};", w[1], w[0]));
        }
        text.push_str(&format!(" let {}{name} = {tlast};", if had_mut { "mut " } else { "" }));
        let at = t.pos;
        let del = toks[semi].pos + 1 - at;
        patches.push(Patch { at, del, text });
        i = semi + 1;
    }
    if patches.is_empty() {
        return None;
    }
    Some(splice(src, patches))
}

/// Byte just past the `=` token at `eq`.
fn next_byte_after_eq(toks: &[Tok], eq: usize) -> usize {
    toks[eq].pos + 1
}

// ------------------------------------------------------------------ nest --

/// Is this raw line a pure line comment (possibly indented), excluding
/// `//!` inner docs which must stay at the top of the file?
fn attached_comment_line(line: &str) -> bool {
    let t = line.trim_start();
    (t.starts_with("//") && !t.starts_with("//!")) || t.starts_with("#[")
}

fn nest(src: &str, depth: usize) -> Option<String> {
    if depth == 0 {
        return None;
    }
    let lexed = tokenize(src);
    let first = lexed.tokens.first()?;
    // Start of the line holding the first code token…
    let mut at = src[..first.pos].rfind('\n').map_or(0, |n| n + 1);
    // …walked up over the attached comment/attribute block so a marker
    // directly above the first item keeps covering it.
    loop {
        if at == 0 {
            break;
        }
        let prev_start = src[..at - 1].rfind('\n').map_or(0, |n| n + 1);
        let prev_line = &src[prev_start..at - 1];
        if attached_comment_line(prev_line) {
            at = prev_start;
        } else {
            break;
        }
    }
    let mut shells = String::new();
    for d in 0..depth {
        shells.push_str(&format!("mod shell_{d} {{\n"));
    }
    let mut out = String::with_capacity(src.len() + shells.len() + depth * 2);
    out.push_str(&src[..at]);
    out.push_str(&shells);
    out.push_str(&src[at..]);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    for _ in 0..depth {
        out.push_str("}\n");
    }
    Some(out)
}

// ----------------------------------------------------------------- noise --

/// Decoy comment pool. None of these may contain `sgx-lint:`, `paper:`,
/// `uarch:` (marker/tag collisions) or digits (a decoy inserted into a
/// calibration file must not add numeric-literal lines — it cannot, being
/// a comment, but keep the text clean anyway).
const DECOY_COMMENTS: [&str; 4] = [
    "// decoy: let _ = parse() .ok(); as_slice_untracked — comment noise, not code",
    "/* decoy block: as_mut_slice_untracked cycles as u32 commit */",
    "// decoy: cycles counter bytes elapsed fault_tick — words the rules key on",
    "",
];

fn noise(src: &str, rng: &mut Rng) -> Option<String> {
    let lexed = tokenize(src);
    let toks = &lexed.tokens;
    // Brace depth at the start of each 1-based line.
    let line_count = src.lines().count().max(1);
    let mut depth_at = vec![0i32; line_count + 2];
    {
        let mut depth = 0i32;
        let mut cur_line = 1usize;
        for t in toks {
            while cur_line < t.line as usize {
                cur_line += 1;
                if cur_line < depth_at.len() {
                    depth_at[cur_line] = depth;
                }
            }
            match t.kind {
                TokKind::Punct(b'{') => depth += 1,
                TokKind::Punct(b'}') => depth -= 1,
                _ => {}
            }
        }
        for d in depth_at.iter_mut().skip(cur_line + 1) {
            *d = depth;
        }
    }
    // Lines interior to a multi-line token (raw strings): conservatively,
    // every line from a token's start to the next token's start when they
    // differ by more than the newlines a single-line token could span.
    let mut blocked = vec![false; line_count + 2];
    for w in toks.windows(2) {
        if w[1].line > w[0].line {
            for l in (w[0].line as usize)..(w[1].line as usize) {
                if l + 1 < blocked.len() {
                    blocked[l + 1] = true; // cannot insert *before* line l+1
                }
            }
        }
    }
    // Multi-line block comments get the same conservative treatment.
    for c in &lexed.comments {
        let span = c.text.matches('\n').count();
        for l in 0..=span {
            let idx = c.line as usize + l + 1;
            if idx < blocked.len() {
                blocked[idx] = true;
            }
        }
    }
    let lines: Vec<&str> = src.split_inclusive('\n').collect();
    // Eligible insertion points: before line l+1 (0-based index l+1 into
    // `lines`), where line l carries no comment (marker adjacency) and is
    // not an attribute (attribute attachment).
    let mut eligible: Vec<usize> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let lno = idx + 1;
        if line.contains("//") || line.contains("/*") || line.contains("*/") {
            continue;
        }
        if line.trim_start().starts_with("#[") {
            continue;
        }
        if blocked.get(lno + 1).copied().unwrap_or(false) {
            continue;
        }
        eligible.push(idx + 1); // insert before `lines[idx + 1]`
    }
    if eligible.is_empty() {
        return None;
    }
    let picks = 3 + rng.below(3);
    let mut chosen: BTreeSet<usize> = BTreeSet::new();
    for _ in 0..picks {
        chosen.insert(eligible[rng.below(eligible.len())]);
    }
    // One decoy const at a depth-0 point, if any exists.
    let mut used = ident_set(&lexed);
    let decoy_const = eligible
        .iter()
        .copied()
        .find(|&idx| depth_at.get(idx + 1).copied().unwrap_or(1) == 0)
        .map(|idx| {
            let a = (b'a' + (rng.below(26) as u8)) as char;
            let b = (b'a' + (rng.below(26) as u8)) as char;
            let name = fresh(format!("NOISE_{a}{b}"), &mut used);
            (idx, format!("const {name}: &str = r\"decoy as_slice_untracked let _ = parse() .ok(); cycles as u32\";\n"))
        });
    let mut out = String::with_capacity(src.len() + 256);
    for (idx, line) in lines.iter().enumerate() {
        if chosen.contains(&idx) {
            let c = DECOY_COMMENTS[rng.below(DECOY_COMMENTS.len())];
            out.push_str(c);
            out.push('\n');
        }
        if let Some((cidx, ref text)) = decoy_const {
            if cidx == idx {
                out.push_str(text);
            }
        }
        out.push_str(line);
    }
    // Insertion points at EOF.
    if chosen.contains(&lines.len()) {
        let c = DECOY_COMMENTS[rng.below(DECOY_COMMENTS.len())];
        if !out.ends_with('\n') {
            out.push('\n');
        }
        out.push_str(c);
        out.push('\n');
    }
    Some(out)
}

// ----------------------------------------------------------------- alias --

/// For every braced struct this file defines (non-generic, uniquely
/// named), declare `pub type {name}_{suffix} = {name};` directly after
/// the struct and reroute every *reference* (impl headers, signatures,
/// struct literals, patterns) through the alias. The definition keeps its
/// name, so what the rules should report is unchanged — a rule that loses
/// the struct behind the alias is pattern-matching on the name at the
/// use site instead of resolving it (the ROADMAP item 5 blind spot).
fn alias(src: &str, rng: &mut Rng) -> Option<String> {
    let lexed = tokenize(src);
    let toks = &lexed.tokens;
    let items = parse::parse(&lexed);
    let mut used = ident_set(&lexed);
    // Definition-site name tokens (`struct S`) stay untouched.
    let def_sites: BTreeSet<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind == TokKind::Ident && t.text == "struct")
        .map(|(i, _)| i + 1)
        .collect();
    let mut patches: Vec<Patch> = Vec::new();
    for st in &items.structs {
        if st.body.1 <= st.body.0
            || !toks.get(st.body.1).is_some_and(|t| t.kind == TokKind::Punct(b'}'))
            || items.structs.iter().filter(|o| o.name == st.name).count() != 1
        {
            continue;
        }
        // Generic structs would need parameterized aliases — skip.
        let generic = def_sites.iter().any(|&d| {
            toks.get(d).is_some_and(|t| t.text == st.name)
                && toks.get(d + 1).is_some_and(|t| t.kind == TokKind::Punct(b'<'))
        });
        if generic {
            continue;
        }
        let refs: Vec<&Tok> = toks
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                t.kind == TokKind::Ident && t.text == st.name && !def_sites.contains(i)
            })
            .map(|(_, t)| t)
            .collect();
        if refs.is_empty() {
            continue;
        }
        let suffix = SUFFIXES[rng.below(SUFFIXES.len())];
        let alias_name = fresh(format!("{}_{suffix}", st.name), &mut used);
        for t in refs {
            patches.push(Patch { at: t.pos, del: st.name.len(), text: alias_name.clone() });
        }
        // `pub` so a pub signature rerouted through the alias stays valid.
        let close = &toks[st.body.1];
        patches.push(Patch {
            at: close.pos + 1,
            del: 0,
            text: format!("\npub type {alias_name} = {};", st.name),
        });
    }
    if patches.is_empty() {
        return None;
    }
    Some(splice(src, patches))
}

// --------------------------------------------------------------- dyncall --

/// Reroute calls to eligible free functions through a generated trait
/// object: `helper(x)` becomes `helper_dyncall(x)`, which dispatches
/// `(&HelperObj as &dyn HelperDyn).dispatch_helper(x)`, whose impl calls
/// the original `helper`. The call chain still reaches the original by
/// name — through one dynamic-dispatch edge the rules must walk.
fn dyncall(src: &str) -> Option<String> {
    let lexed = tokenize(src);
    let toks = &lexed.tokens;
    let items = parse::parse(&lexed);
    let mut used = ident_set(&lexed);
    let mut patches: Vec<Patch> = Vec::new();
    let mut eof_extra = String::new();
    for f in &items.fns {
        if items.fns.iter().filter(|o| o.name == f.name).count() != 1
            || f.name == "main"
            || f.body.1 <= f.body.0
            || nested_in_fn(&items, f.kw_tok)
            || containing_impl(&items, f.kw_tok).is_some()
            || f.params.first().is_some_and(|p| p == "self")
        {
            continue;
        }
        // Generic fns and `impl Trait` / `where` signatures are not
        // object-safe to dispatch; returned borrows would re-elide
        // against `&self`.
        if toks.get(f.kw_tok + 2).is_some_and(|t| t.kind == TokKind::Punct(b'<')) {
            continue;
        }
        let Some(sig) = sig_rest(src, toks, f) else { continue };
        if sig.contains("impl ") || sig.contains("where") || sig.contains("-> &") {
            continue;
        }
        let arity = f.params.len();
        let mut sites: Vec<usize> = Vec::new();
        for caller in &items.fns {
            if caller.name == f.name {
                continue;
            }
            for call in &caller.calls {
                if call.callee == f.name && !call.method && call.args.len() == arity {
                    sites.push(call.tok);
                }
            }
        }
        if sites.is_empty() {
            continue;
        }
        // CamelCase the fn name for the trait/struct pair.
        let camel: String = f
            .name
            .split('_')
            .filter(|s| !s.is_empty())
            .map(|s| {
                let mut c = s.chars();
                match c.next() {
                    Some(h) => h.to_ascii_uppercase().to_string() + c.as_str(),
                    None => String::new(),
                }
            })
            .collect();
        let trait_name = fresh(format!("{camel}Dyn"), &mut used);
        let obj_name = fresh(format!("{camel}Obj"), &mut used);
        let method = fresh(format!("dispatch_{}", f.name), &mut used);
        let entry = fresh(format!("{}_dyncall", f.name), &mut used);
        for tok_idx in sites {
            let t = &toks[tok_idx];
            patches.push(Patch { at: t.pos, del: f.name.len(), text: entry.clone() });
        }
        let sig = sig.trim_end();
        // `(args…)` → `(&self, args…)` for the trait method.
        let open = sig.find('(').unwrap_or(0);
        let after = sig[open + 1..].trim_start();
        let self_sig = if after.starts_with(')') {
            format!("{}(&self{}", &sig[..open], &sig[open + 1..])
        } else {
            format!("{}(&self, {}", &sig[..open], &sig[open + 1..])
        };
        let args = f.params.join(", ");
        eof_extra.push_str(&format!(
            "\ntrait {trait_name} {{ fn {method}{self_sig}; }}\nstruct {obj_name};\nimpl {trait_name} for {obj_name} {{ fn {method}{self_sig} {{ {}({args}) }} }}\nfn {entry}{sig} {{ let obj: &dyn {trait_name} = &{obj_name}; obj.{method}({args}) }}\n",
            f.name
        ));
    }
    if patches.is_empty() {
        return None;
    }
    let mut out = splice(src, patches);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out.push_str(eof_extra.trim_start_matches('\n'));
    Some(out)
}

// ---------------------------------------------------------------- xsplit --

/// The module-set pragmas that travel with *both* halves of a split: set
/// membership was a property of the whole file, so each half keeps it.
const SET_PRAGMAS: [&str; 2] = ["// sgx-lint: fault-tick-module", "// sgx-lint: charge-module"];

/// Split a case into a two-file variant workspace: wrap (depth 1) first
/// so a call chain exists to sever, then cut the top-level item chunks at
/// a seeded point. Module-set pragmas are replicated into both halves,
/// and a file that was in the fault-tick set by *defining* `fault_tick`
/// pins both halves into the set with the explicit pragma. Calibration
/// files stay whole (their pragma scopes line-level provenance, which a
/// split would re-scope).
fn xsplit(src: &str, rng: &mut Rng) -> Option<Vec<(String, String)>> {
    if src.lines().any(|l| l.trim() == "// sgx-lint: calibration-file") {
        return None;
    }
    let base = wrap(src, 1).unwrap_or_else(|| src.to_string());
    let lexed = tokenize(&base);
    let toks = &lexed.tokens;
    let items = parse::parse(&lexed);
    // Top-level chunking, exactly as `reorder` does it.
    let mut depth = 0i32;
    let mut ends: Vec<usize> = Vec::new();
    for t in toks {
        match t.kind {
            TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    ends.push(t.pos);
                }
            }
            TokKind::Punct(b';') if depth == 0 => ends.push(t.pos),
            _ => {}
        }
    }
    let mut bounds: Vec<usize> = ends.iter().map(|&e| next_line_start(&base, e)).collect();
    bounds.dedup();
    if let Some(last) = bounds.last_mut() {
        *last = base.len();
    }
    let mut chunks: Vec<&str> = Vec::new();
    let mut cursor = 0usize;
    for &b in &bounds {
        if b > cursor {
            chunks.push(&base[cursor..b]);
            cursor = b;
        }
    }
    if chunks.len() < 3 {
        return None;
    }
    let cut = 1 + rng.below(chunks.len() - 1);
    let half_a: String = chunks[..cut].concat();
    let half_b: String = chunks[cut..].concat();
    let mut pragmas: Vec<String> = base
        .lines()
        .filter(|l| SET_PRAGMAS.contains(&l.trim()))
        .map(|l| l.trim().to_string())
        .collect();
    if items.fns.iter().any(|f| f.name == "fault_tick")
        && !pragmas.iter().any(|p| p == SET_PRAGMAS[0])
    {
        pragmas.push(SET_PRAGMAS[0].to_string());
    }
    pragmas.dedup();
    let with_pragmas = |body: &str| -> String {
        let missing: Vec<&str> = pragmas
            .iter()
            .map(String::as_str)
            .filter(|p| !body.lines().any(|l| l.trim() == *p))
            .collect();
        if missing.is_empty() {
            body.to_string()
        } else {
            format!("{}\n{}", missing.join("\n"), body)
        }
    };
    Some(vec![
        ("part_a.rs".to_string(), with_pragmas(&half_a)),
        ("part_b.rs".to_string(), with_pragmas(&half_b)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FileClass;

    const TAINT_CASE: &str = "\
// a corpus-shaped taint case
pub fn build(v: &SimVec<u64>) {
    // sgx-lint: allow(untracked-access) boundary audited here
    let keys = v.as_slice_untracked();
    helper(keys);
}

pub fn helper(keys: &[u64]) -> u64 {
    keys[0]
}

pub fn unrelated() -> u64 {
    7
}
";

    fn lint_rules(src: &str) -> Vec<String> {
        crate::analyze_single("case.rs", FileClass::OperatorLib, src)
            .findings
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn transforms_are_deterministic() {
        for t in [
            Transform::Rename { seed: 7 },
            Transform::Reorder { seed: 7 },
            Transform::Wrap { depth: 2 },
            Transform::Seqlen { chain: 3 },
            Transform::Nest { depth: 2 },
            Transform::Noise { seed: 7 },
            Transform::Compose { seed: 7 },
        ] {
            let a = apply(TAINT_CASE, &t);
            let b = apply(TAINT_CASE, &t);
            assert_eq!(a, b, "{} not deterministic", t.label());
            assert!(a.is_some(), "{} did not apply", t.label());
        }
    }

    #[test]
    fn rename_respects_protected_names() {
        let out = apply(TAINT_CASE, &Transform::Rename { seed: 1 }).unwrap();
        assert!(out.contains("as_slice_untracked"), "{out}");
        assert!(!out.contains("fn helper("), "helper should be renamed: {out}");
        assert!(!out.contains("let keys "), "binder should be renamed: {out}");
        // The verdict is unchanged: the taint rule still fires.
        assert_eq!(lint_rules(&out), ["untracked-slice-taint"], "{out}");
    }

    #[test]
    fn rename_targets_are_fresh_and_uniform() {
        let src = "fn a() { b(); } fn b() { let x = 1; let y = x; }";
        let out = apply(src, &Transform::Rename { seed: 3 }).unwrap();
        // Every original defined name is gone as a standalone identifier.
        let lx = tokenize(&out);
        for gone in ["a", "b", "x", "y"] {
            assert!(
                !lx.tokens.iter().any(|t| t.kind == TokKind::Ident && t.text == gone),
                "{gone} survived in {out}"
            );
        }
    }

    #[test]
    fn reorder_permutes_items_but_keeps_bytes() {
        let src = "//! docs\nfn a() {}\n\n// note on b\nfn b() {}\n\nfn c() {}\n";
        let out = apply(src, &Transform::Reorder { seed: 1 }).unwrap();
        assert_ne!(out, src);
        let mut a: Vec<&str> = src.lines().collect();
        let mut b: Vec<&str> = out.lines().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "reorder must only permute line runs");
        assert!(out.starts_with("//! docs"), "file docs stay pinned: {out}");
        // The comment attached to b still sits directly above fn b.
        let pos_comment = out.find("// note on b").unwrap();
        let pos_b = out.find("fn b()").unwrap();
        assert!(pos_b > pos_comment && pos_b - pos_comment < 16);
    }

    #[test]
    fn wrap_redirects_calls_through_chain() {
        let out = apply(TAINT_CASE, &Transform::Wrap { depth: 2 }).unwrap();
        assert!(out.contains("helper_w2(keys)"), "{out}");
        assert!(out.contains("fn helper_w1(keys: &[u64]) -> u64 { helper(keys) }"), "{out}");
        assert!(out.contains("fn helper_w2(keys: &[u64]) -> u64 { helper_w1(keys) }"), "{out}");
        // Still detected (via the transitive taint fix).
        assert_eq!(lint_rules(&out), ["untracked-slice-taint"], "{out}");
    }

    #[test]
    fn wrap_handles_methods_in_inherent_impls() {
        let src = "struct P;\nimpl P {\n    fn go(&self, xs: &[u64]) -> u64 { xs[0] }\n}\nfn run(p: &P, xs: &[u64]) -> u64 { p.go(xs) }\n";
        let out = apply(src, &Transform::Wrap { depth: 1 }).unwrap();
        assert!(out.contains("p.go_w1(xs)"), "{out}");
        assert!(out.contains("fn go_w1(&self, xs: &[u64]) -> u64 { self.go(xs) }"), "{out}");
    }

    #[test]
    fn wrap_skips_trait_impls_and_recursion() {
        let trait_impl = "struct P;\nimpl Default for P {\n    fn default() -> P { P }\n}\n";
        assert_eq!(apply(trait_impl, &Transform::Wrap { depth: 1 }), None);
        let recursive = "fn f(n: u64) -> u64 { f(n) }";
        assert_eq!(apply(recursive, &Transform::Wrap { depth: 1 }), None);
    }

    #[test]
    fn seqlen_splits_lets_on_one_line() {
        let out = apply(TAINT_CASE, &Transform::Seqlen { chain: 3 }).unwrap();
        assert!(
            out.contains("let keys_s1 = v.as_slice_untracked(); let keys_s2 = keys_s1; let keys = keys_s2;"),
            "{out}"
        );
        assert_eq!(out.lines().count(), TAINT_CASE.lines().count(), "line structure must hold");
        assert_eq!(lint_rules(&out), ["untracked-slice-taint"], "{out}");
    }

    #[test]
    fn seqlen_keeps_annotations_and_mut() {
        let src = "fn f() { let mut m: Vec<u64> = Vec::new(); m.push(1); }";
        let out = apply(src, &Transform::Seqlen { chain: 2 }).unwrap();
        assert!(out.contains("let m_s1: Vec<u64> = Vec::new(); let mut m = m_s1;"), "{out}");
    }

    #[test]
    fn seqlen_skips_patterns_and_if_let() {
        let src = "fn f(o: Option<u32>) -> u32 { if let Some(x) = o { x } else { 0 } }";
        assert_eq!(apply(src, &Transform::Seqlen { chain: 3 }), None);
    }

    #[test]
    fn nest_wraps_body_below_file_docs() {
        let src = "//! docs\n\n// sgx-lint: allow(swallowed-error) audited\nfn f(s: &str) { let _ = s.parse::<u32>(); }\n";
        let out = apply(src, &Transform::Nest { depth: 2 }).unwrap();
        assert!(out.contains("mod shell_0 {\nmod shell_1 {\n// sgx-lint: allow(swallowed-error)"), "{out}");
        assert!(out.starts_with("//! docs"), "{out}");
        assert!(out.ends_with("}\n}\n"), "{out}");
        // The marker still suppresses: no findings on the nested variant.
        assert!(lint_rules(&out).is_empty(), "{out}");
    }

    #[test]
    fn noise_never_splits_marker_adjacency() {
        let out = apply(TAINT_CASE, &Transform::Noise { seed: 5 }).unwrap();
        // The allow-marker must still sit directly above its statement.
        let marker_at = out.find("// sgx-lint: allow(untracked-access)").unwrap();
        let stmt_at = out.find("let keys").unwrap();
        let between = &out[marker_at..stmt_at];
        assert_eq!(between.matches('\n').count(), 1, "{out}");
        assert_eq!(lint_rules(&out), ["untracked-slice-taint"], "{out}");
    }

    #[test]
    fn compose_stacks_transforms() {
        let out = apply(TAINT_CASE, &Transform::Compose { seed: 11 }).unwrap();
        assert!(out.contains("mod shell_0"), "{out}");
        assert_ne!(out, TAINT_CASE);
        assert_eq!(lint_rules(&out), ["untracked-slice-taint"], "{out}");
    }

    #[test]
    fn labels_carry_parameters() {
        assert_eq!(Transform::Wrap { depth: 2 }.label(), "wrap[d2]");
        assert_eq!(Transform::Seqlen { chain: 3 }.label(), "seqlen[n3]");
        assert_eq!(Transform::Rename { seed: 9 }.label(), "rename[s9]");
        assert_eq!(Transform::Wrap { depth: 2 }.kind(), "wrap");
        assert_eq!(Transform::Alias { seed: 4 }.label(), "alias[s4]");
        assert_eq!(Transform::Dyncall.label(), "dyncall");
        assert_eq!(Transform::Xsplit { seed: 4 }.kind(), "xsplit");
    }

    const CHARGE_CASE: &str = "\
// sgx-lint: charge-module
pub struct Ledger { pub cycles: f64 }
impl Ledger { fn commit(&mut self) { self.cycles += 1.0; } }
fn leak(l: &mut Ledger) { l.cycles += 2.0; }
";

    #[test]
    fn alias_reroutes_references_but_keeps_the_definition() {
        let out = apply(CHARGE_CASE, &Transform::Alias { seed: 2 }).unwrap();
        assert!(out.contains("pub struct Ledger {"), "{out}");
        assert!(out.contains("pub type Ledger_"), "{out}");
        assert!(!out.contains("impl Ledger {"), "impl should go through the alias: {out}");
        assert!(!out.contains("&mut Ledger)"), "signature should go through the alias: {out}");
        // The verdict is unchanged: the charge still bypasses `commit`.
        assert_eq!(lint_rules(&out), ["charge-escape"], "{out}");
    }

    #[test]
    fn alias_skips_generic_structs() {
        let src = "pub struct Holder<T> { pub v: T }\nfn mk() -> Holder<u64> { Holder { v: 1 } }\n";
        assert_eq!(apply(src, &Transform::Alias { seed: 1 }), None);
    }

    #[test]
    fn dyncall_routes_calls_through_a_trait_object() {
        let out = apply(TAINT_CASE, &Transform::Dyncall).unwrap();
        assert!(out.contains("helper_dyncall(keys)"), "{out}");
        assert!(out.contains("trait HelperDyn"), "{out}");
        assert!(out.contains("let obj: &dyn HelperDyn = &HelperObj;"), "{out}");
        // The taint walk crosses the dynamic-dispatch edge.
        assert_eq!(lint_rules(&out), ["untracked-slice-taint"], "{out}");
    }

    #[test]
    fn dyncall_skips_generics_methods_and_main() {
        let generic = "fn id<T>(x: T) -> T { x }\nfn use_it() -> u64 { id(1u64) }\n";
        assert_eq!(apply(generic, &Transform::Dyncall), None);
        let method = "struct P;\nimpl P { fn go(&self) -> u64 { 1 } }\nfn run(p: &P) -> u64 { p.go() }\n";
        assert_eq!(apply(method, &Transform::Dyncall), None);
    }

    #[test]
    fn xsplit_produces_two_files_and_replicates_pragmas() {
        let src = "// sgx-lint: charge-module\nimpl M {\nfn commit(&mut self) { self.cycles += 1.0; }\n}\nfn a() -> u64 { 1 }\nfn b() -> u64 { a() }\n";
        let files = apply_ws(src, &Transform::Xsplit { seed: 3 }).unwrap();
        assert_eq!(files.len(), 2);
        assert_eq!(files[0].0, "part_a.rs");
        assert_eq!(files[1].0, "part_b.rs");
        for (_, body) in &files {
            assert!(
                body.lines().any(|l| l.trim() == "// sgx-lint: charge-module"),
                "pragma must reach both halves: {body}"
            );
        }
        // Every source line survives in exactly one half (plus replicated
        // pragma/wrapper lines).
        let joined = format!("{}{}", files[0].1, files[1].1);
        assert!(joined.contains("fn commit"), "{joined}");
        assert!(joined.contains("fn a()"), "{joined}");
        // Deterministic.
        assert_eq!(files, apply_ws(src, &Transform::Xsplit { seed: 3 }).unwrap());
    }

    #[test]
    fn xsplit_pins_fault_tick_definers_into_the_set() {
        let src = "impl M {\nfn fault_tick(&mut self) {}\n}\nfn x() -> u64 { 1 }\nfn y() -> u64 { x() }\n";
        let files = apply_ws(src, &Transform::Xsplit { seed: 1 }).unwrap();
        for (_, body) in &files {
            assert!(
                body.lines().any(|l| l.trim() == "// sgx-lint: fault-tick-module"),
                "both halves must stay in the fault-tick set: {body}"
            );
        }
    }

    #[test]
    fn xsplit_skips_calibration_files_and_single_file_transforms_skip_xsplit() {
        let cal = "// sgx-lint: calibration-file\npub const A: usize = 64; // uarch: line\n";
        assert_eq!(apply_ws(cal, &Transform::Xsplit { seed: 1 }), None);
        assert_eq!(apply(TAINT_CASE, &Transform::Xsplit { seed: 1 }), None);
        // Single-file transforms through apply_ws come back as one file.
        let ws = apply_ws(TAINT_CASE, &Transform::Wrap { depth: 1 }).unwrap();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].0, "case.rs");
    }
}
