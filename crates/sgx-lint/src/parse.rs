//! Item-level parser on top of the tokenizer.
//!
//! Extracts just enough structure for the semantic rules: functions (name,
//! parameter names, body token range, call sites with classified
//! arguments), structs (field names and lines, body range) and impl blocks
//! (self type, body range). It is a linear scan over the token stream — no
//! expression trees, no type resolution — which is all the call-graph and
//! taint rules need and keeps the crate dependency-free.
//!
//! Known, accepted approximations (documented so nobody trusts this for
//! more than it does):
//!
//! * functions are keyed by *name*; two crates defining `fn helper` alias
//!   in the symbol table (the semantic rules treat every candidate).
//! * tuple-pattern parameters (`(a, b): (u32, u32)`) are not named, so
//!   taint does not follow them.
//! * commas inside `a < b, c > d` comparisons could mis-split arguments;
//!   the workspace style never hits this.

use crate::tokenizer::{Lexed, Tok, TokKind};

/// How one call argument looks at the call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Arg {
    /// Exactly one identifier (`helper(keys)`), trackable by name.
    Ident(String),
    /// Contains a direct `as_slice_untracked`/`as_mut_slice_untracked`
    /// call (`helper(v.as_slice_untracked())`).
    Untracked,
    /// Anything else — literals, arithmetic, nested calls.
    Other,
}

/// One function/method call inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (for `x.helper(…)` this is `helper`).
    pub callee: String,
    /// 1-based line of the callee identifier.
    pub line: u32,
    /// Token index of the callee identifier (for test-mask lookups).
    pub tok: usize,
    /// True for method-call syntax (`recv.callee(…)`).
    pub method: bool,
    /// Classified arguments, in order. `self` receivers are not included.
    pub args: Vec<Arg>,
}

/// One `fn` item (free function, method, or nested fn).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword (the name is the next token).
    pub kw_tok: usize,
    /// Parameter names in order; a `self` receiver is recorded as `"self"`.
    pub params: Vec<String>,
    /// Token index range `[start, end)` of the body *inside* the braces.
    /// Empty for bodyless trait-method declarations.
    pub body: (usize, usize),
    /// Calls made inside the body.
    pub calls: Vec<CallSite>,
}

/// One named struct field.
#[derive(Debug, Clone)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// 1-based line of the field name.
    pub line: u32,
}

/// One `struct` item with named fields (tuple/unit structs have none).
#[derive(Debug, Clone)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Named fields.
    pub fields: Vec<Field>,
    /// Token index range `[start, end)` inside the braces.
    pub body: (usize, usize),
}

/// One `impl` block.
#[derive(Debug, Clone)]
pub struct ImplItem {
    /// The self type (`Counters` in `impl Default for Counters`).
    pub type_name: String,
    /// Token index range `[start, end)` inside the braces.
    pub body: (usize, usize),
}

/// All items parsed from one file.
#[derive(Debug, Default, Clone)]
pub struct Items {
    /// All `fn` items, in source order.
    pub fns: Vec<FnItem>,
    /// All `struct` items, in source order.
    pub structs: Vec<StructItem>,
    /// All `impl` blocks, in source order.
    pub impls: Vec<ImplItem>,
}

/// Keywords that can precede `(` without being calls.
const NON_CALL_IDENTS: [&str; 14] = [
    "fn", "if", "while", "for", "match", "return", "let", "loop", "in", "as", "impl", "struct",
    "move", "mut",
];

fn is(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

fn p(t: &Tok, c: u8) -> bool {
    t.kind == TokKind::Punct(c)
}

/// Skip a balanced `<…>` generics run starting at `i` (which must point at
/// `<`). Returns the index just past the matching `>`. Bounded so a stray
/// comparison `<` cannot eat the file.
fn skip_generics(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().take(i + 256).skip(i) {
        if p(t, b'<') {
            depth += 1;
        } else if p(t, b'>') {
            depth -= 1;
            if depth <= 0 {
                return j + 1;
            }
        }
    }
    i + 1
}

/// Find the matching close brace for the `{` at `open`, returning the
/// index of the `}` (or `toks.len()` if unterminated).
fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if p(t, b'{') {
            depth += 1;
        } else if p(t, b'}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len()
}

/// Parse all items out of a lexed file.
pub fn parse(lexed: &Lexed) -> Items {
    let toks = &lexed.tokens;
    let mut items = Items::default();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if is(t, "fn") && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
            let (item, next) = parse_fn(toks, i);
            items.fns.push(item);
            // Do NOT jump past the body: nested fns/closures inside it must
            // still be discovered, so only step over `fn name`.
            i = (i + 2).min(next);
        } else if is(t, "struct") && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
            let (item, next) = parse_struct(toks, i);
            items.structs.push(item);
            i = next;
        } else if is(t, "impl") {
            let (item, next) = parse_impl(toks, i);
            if let Some(item) = item {
                items.impls.push(item);
            }
            // Step inside the impl body so its fns are parsed too.
            i = next;
        } else {
            i += 1;
        }
    }
    items
}

/// Parse `fn name …(params) … { body }` starting at the `fn` token.
/// Returns the item and the index just past `fn name`.
fn parse_fn(toks: &[Tok], at: usize) -> (FnItem, usize) {
    let name = toks[at + 1].text.clone();
    let line = toks[at].line;
    let mut j = at + 2;
    // Optional generics.
    if toks.get(j).is_some_and(|t| p(t, b'<')) {
        j = skip_generics(toks, j);
    }
    // Parameter list.
    let mut params = Vec::new();
    if toks.get(j).is_some_and(|t| p(t, b'(')) {
        let mut depth = 0i32;
        while j < toks.len() {
            let t = &toks[j];
            if p(t, b'(') {
                depth += 1;
            } else if p(t, b')') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            } else if depth == 1 && t.kind == TokKind::Ident {
                if t.text == "self" {
                    // `self`, `&self`, `&mut self`, `mut self`.
                    params.push("self".to_string());
                } else if t.text != "mut" && toks.get(j + 1).is_some_and(|n| p(n, b':'))
                    // `x: T`, not a path segment `std::…` (previous token
                    // must not be `:`).
                    && !(j > 0 && p(&toks[j - 1], b':'))
                    // …and not the type side of a previous param: only the
                    // first `ident:` after `(`/`,` is a binder.
                    && (p(&toks[j - 1], b'(') || p(&toks[j - 1], b',')
                        || is(&toks[j - 1], "mut"))
                {
                    params.push(t.text.clone());
                }
            }
            j += 1;
        }
    }
    // Scan to the body `{` (skipping return type / where clause), or a `;`
    // for bodyless trait declarations.
    let mut body = (0usize, 0usize);
    let mut k = j;
    while k < toks.len() {
        if p(&toks[k], b';') {
            break;
        }
        if p(&toks[k], b'{') {
            let close = match_brace(toks, k);
            body = (k + 1, close);
            break;
        }
        // `-> Foo<Bar>` return types: skip generics so a `>` cannot be
        // misread; everything else advances one token.
        if p(&toks[k], b'<') {
            k = skip_generics(toks, k);
        } else {
            k += 1;
        }
    }
    let calls = if body.1 > body.0 { find_calls(toks, body.0, body.1) } else { Vec::new() };
    (FnItem { name, line, kw_tok: at, params, body, calls }, at + 2)
}

/// Parse `struct Name { fields }` starting at the `struct` token. Returns
/// the item and the index to resume scanning at.
fn parse_struct(toks: &[Tok], at: usize) -> (StructItem, usize) {
    let name = toks[at + 1].text.clone();
    let line = toks[at].line;
    let mut j = at + 2;
    if toks.get(j).is_some_and(|t| p(t, b'<')) {
        j = skip_generics(toks, j);
    }
    // Unit struct `struct X;` or tuple struct `struct X(…);` → no fields.
    if !toks.get(j).is_some_and(|t| p(t, b'{')) {
        return (StructItem { name, line, fields: Vec::new(), body: (j, j) }, j);
    }
    let close = match_brace(toks, j);
    let mut fields = Vec::new();
    let mut paren = 0i32;
    let mut brace = 0i32;
    for k in j + 1..close {
        let t = &toks[k];
        match t.kind {
            TokKind::Punct(b'(') => paren += 1,
            TokKind::Punct(b')') => paren -= 1,
            TokKind::Punct(b'{') => brace += 1,
            TokKind::Punct(b'}') => brace -= 1,
            TokKind::Ident
                if paren == 0
                    && brace == 0
                    && toks.get(k + 1).is_some_and(|n| p(n, b':'))
                    && !p(&toks[k - 1], b':')
                    && (p(&toks[k - 1], b'{') || p(&toks[k - 1], b',') || p(&toks[k - 1], b']')
                        || is(&toks[k - 1], "pub") || p(&toks[k - 1], b')')) =>
            {
                fields.push(Field { name: t.text.clone(), line: t.line });
            }
            _ => {}
        }
    }
    (StructItem { name, line, fields, body: (j + 1, close) }, close + 1)
}

/// Parse `impl … { … }` starting at the `impl` token. Returns the item
/// (None for malformed input) and the index of the first body token, so
/// the caller continues scanning *inside* the impl.
fn parse_impl(toks: &[Tok], at: usize) -> (Option<ImplItem>, usize) {
    // Collect angle-depth-0 identifiers up to the `{`; the self type is the
    // identifier after `for` (trait impls) or the last one (inherent).
    let mut angle = 0i32;
    let mut after_for: Option<String> = None;
    let mut last: Option<String> = None;
    let mut saw_for = false;
    let mut j = at + 1;
    while j < toks.len() && !p(&toks[j], b'{') {
        let t = &toks[j];
        if p(t, b'<') {
            angle += 1;
        } else if p(t, b'>') {
            angle -= 1;
        } else if t.kind == TokKind::Ident && angle == 0 {
            if t.text == "for" {
                saw_for = true;
            } else if t.text == "where" {
                break;
            } else if saw_for && after_for.is_none() {
                after_for = Some(t.text.clone());
            } else {
                last = Some(t.text.clone());
            }
        }
        j += 1;
    }
    // Re-find the `{` in case a where-clause broke the loop early.
    while j < toks.len() && !p(&toks[j], b'{') {
        j += 1;
    }
    if j >= toks.len() {
        return (None, at + 1);
    }
    let close = match_brace(toks, j);
    let type_name = after_for.or(last);
    match type_name {
        Some(type_name) => (Some(ImplItem { type_name, body: (j + 1, close) }), j + 1),
        None => (None, j + 1),
    }
}

/// Find call sites in the token range `[start, end)`.
fn find_calls(toks: &[Tok], start: usize, end: usize) -> Vec<CallSite> {
    let mut calls = Vec::new();
    for i in start..end {
        let t = &toks[i];
        if t.kind != TokKind::Ident || NON_CALL_IDENTS.contains(&t.text.as_str()) {
            continue;
        }
        // Not a definition (`fn name(`), not a macro (`name!(`).
        if i > 0 && is(&toks[i - 1], "fn") {
            continue;
        }
        if toks.get(i + 1).is_some_and(|n| p(n, b'!')) {
            continue;
        }
        // Direct call `name(` or turbofish `name::<T>(`.
        let open = if toks.get(i + 1).is_some_and(|n| p(n, b'(')) {
            i + 1
        } else if toks.get(i + 1).is_some_and(|n| p(n, b':'))
            && toks.get(i + 2).is_some_and(|n| p(n, b':'))
            && toks.get(i + 3).is_some_and(|n| p(n, b'<'))
        {
            let past = skip_generics(toks, i + 3);
            if toks.get(past).is_some_and(|n| p(n, b'(')) {
                past
            } else {
                continue;
            }
        } else {
            continue;
        };
        let method = i > 0 && p(&toks[i - 1], b'.');
        let args = parse_args(toks, open, end);
        calls.push(CallSite { callee: t.text.clone(), line: t.line, tok: i, method, args });
    }
    calls
}

/// Classify the comma-separated arguments of the call whose `(` is at
/// `open`. Tracks `()[]{}` nesting; `<>` is ignored (see module docs).
fn parse_args(toks: &[Tok], open: usize, end: usize) -> Vec<Arg> {
    let mut args = Vec::new();
    let mut depth = 0i32;
    let mut cur: Vec<&Tok> = Vec::new();
    let flush = |cur: &mut Vec<&Tok>, args: &mut Vec<Arg>| {
        if cur.is_empty() {
            return;
        }
        let untracked = cur.iter().any(|t| {
            t.kind == TokKind::Ident
                && (t.text == "as_slice_untracked" || t.text == "as_mut_slice_untracked")
        });
        if untracked {
            args.push(Arg::Untracked);
        } else if cur.len() == 1 && cur[0].kind == TokKind::Ident {
            args.push(Arg::Ident(cur[0].text.clone()));
        } else if cur.len() == 2 && p(cur[0], b'&') && cur[1].kind == TokKind::Ident {
            // `&name` borrows are as trackable as `name`.
            args.push(Arg::Ident(cur[1].text.clone()));
        } else {
            args.push(Arg::Other);
        }
        cur.clear();
    };
    for t in toks.iter().take(end.min(toks.len())).skip(open) {
        match t.kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => {
                depth += 1;
                if depth > 1 {
                    cur.push(t);
                }
            }
            TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    flush(&mut cur, &mut args);
                    break;
                }
                cur.push(t);
            }
            TokKind::Punct(b',') if depth == 1 => flush(&mut cur, &mut args),
            _ if depth >= 1 => cur.push(t),
            _ => {}
        }
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn items(src: &str) -> Items {
        parse(&tokenize(src))
    }

    #[test]
    fn fns_params_and_bodies() {
        let it = items("fn free(a: u32, mut b: &[u8]) -> u32 { a }\nimpl M { fn meth(&self, x: f64) {} }");
        assert_eq!(it.fns.len(), 2);
        assert_eq!(it.fns[0].name, "free");
        assert_eq!(it.fns[0].params, ["a", "b"]);
        assert_eq!(it.fns[1].name, "meth");
        assert_eq!(it.fns[1].params, ["self", "x"]);
        assert_eq!(it.impls.len(), 1);
        assert_eq!(it.impls[0].type_name, "M");
    }

    #[test]
    fn generic_fns_and_return_types() {
        let it = items("fn g<T: Iterator<Item = u8>>(x: T) -> Vec<u8> { x.collect() }");
        assert_eq!(it.fns[0].params, ["x"]);
        assert!(it.fns[0].body.1 > it.fns[0].body.0);
    }

    #[test]
    fn trait_decls_have_no_body() {
        let it = items("trait T { fn decl(&self, n: usize) -> u64; }");
        assert_eq!(it.fns.len(), 1);
        assert_eq!(it.fns[0].body, (0, 0));
    }

    #[test]
    fn struct_fields_with_visibility() {
        let it = items("pub struct Counters { pub loads: u64, pub(crate) inner: u64, stores: u64 }");
        let names: Vec<&str> = it.structs[0].fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["loads", "inner", "stores"]);
    }

    #[test]
    fn tuple_and_unit_structs_have_no_fields() {
        let it = items("struct U; struct T(u64, u64);");
        assert_eq!(it.structs.len(), 2);
        assert!(it.structs.iter().all(|s| s.fields.is_empty()));
    }

    #[test]
    fn trait_impl_self_type() {
        let it = items("impl Default for Counters { fn default() -> Self { Self::new() } }");
        assert_eq!(it.impls[0].type_name, "Counters");
        assert_eq!(it.fns[0].name, "default");
    }

    #[test]
    fn calls_and_args_are_classified() {
        let it = items(
            "fn f(v: &SimVec<u8>) { helper(keys, v.as_slice_untracked(), 1 + 2); x.meth(&buf); }",
        );
        let calls = &it.fns[0].calls;
        let helper = calls.iter().find(|c| c.callee == "helper").unwrap();
        assert_eq!(helper.args, [Arg::Ident("keys".into()), Arg::Untracked, Arg::Other]);
        assert!(!helper.method);
        let meth = calls.iter().find(|c| c.callee == "meth").unwrap();
        assert!(meth.method);
        assert_eq!(meth.args, [Arg::Ident("buf".into())]);
        // `as_slice_untracked` itself is also recorded as a (method) call.
        assert!(calls.iter().any(|c| c.callee == "as_slice_untracked"));
    }

    #[test]
    fn turbofish_calls_are_found() {
        let it = items("fn f(s: &str) { let _ = parse_num::<u32>(s); }");
        let c = it.fns[0].calls.iter().find(|c| c.callee == "parse_num").unwrap();
        assert_eq!(c.args, [Arg::Ident("s".into())]);
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let it = items("fn f() { println!(\"x\"); if (a) { } for i in (0..3) { } }");
        assert!(it.fns[0].calls.iter().all(|c| c.callee != "println" && c.callee != "if"));
    }

    #[test]
    fn nested_fns_are_discovered() {
        let it = items("fn outer() { fn inner(q: u8) -> u8 { q } inner(3); }");
        let names: Vec<&str> = it.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
        assert!(it.fns[0].calls.iter().any(|c| c.callee == "inner"));
    }
}
