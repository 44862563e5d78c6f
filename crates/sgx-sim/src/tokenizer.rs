#![cfg(test)]
//! Hand-rolled Rust tokenizer for source-reading tests.
//!
//! The workspace vendors no `syn`/`proc-macro2`, and the provenance test
//! in [`crate::config`] only needs a faithful *lexical* view: numbers,
//! identifiers and punctuation with line numbers, with string/char
//! literals, lifetimes and comments correctly skipped (so a digit inside
//! a string, a char literal or a comment is never read as a constant).
//! Comments are captured separately — they carry the `paper:`/`uarch:`
//! provenance tags.

/// Kind of a lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (text in [`Tok::text`]).
    Ident,
    /// Single punctuation byte (`.`, `!`, `{`, …).
    Punct(u8),
    /// Numeric literal.
    Num,
    /// String / raw string / byte-string literal.
    Str,
    /// Character literal.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// 1-based line the token starts on.
    pub line: u32,
    /// What kind of token.
    pub kind: TokKind,
    /// Identifier text (empty for non-identifiers).
    pub text: String,
}

/// A comment (line or block), carrying allow-markers.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment text without the `//` / `/* */` delimiters.
    pub text: String,
}

/// Tokenizer output: code tokens plus comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Tok>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Tokenize `src`. Never fails: unrecognized bytes become punctuation and
/// unterminated literals run to end of input (the real compiler rejects
/// such files anyway; the lint must simply not panic on them).
pub fn tokenize(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != b'\n' {
                    j += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: String::from_utf8_lossy(&b[start..j]).into_owned(),
                });
                i = j;
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start_line = line;
                let start = i + 2;
                let mut depth = 1u32;
                let mut j = start;
                while j < b.len() && depth > 0 {
                    if b[j] == b'/' && b.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && b.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        if b[j] == b'\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                }
                let end = j.saturating_sub(2).max(start);
                out.comments.push(Comment {
                    line: start_line,
                    text: String::from_utf8_lossy(&b[start..end]).into_owned(),
                });
                i = j;
            }
            b'"' => {
                // Capture the start line first: skip_string advances `line`
                // past embedded newlines, and the token must anchor to where
                // the literal opens, not where it closes.
                let from = line;
                let j = skip_string(b, i, false, &mut line);
                out.tokens.push(Tok { line: from, kind: TokKind::Str, text: String::new() });
                i = j;
            }
            b'\'' => {
                // Lifetime vs char literal: a lifetime is `'` + ident-start
                // NOT followed by a closing quote (`'a'` is a char).
                let is_lifetime = b
                    .get(i + 1)
                    .is_some_and(|&n| n == b'_' || n.is_ascii_alphabetic())
                    && b.get(i + 2) != Some(&b'\'');
                if is_lifetime {
                    let mut j = i + 1;
                    while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                        j += 1;
                    }
                    out.tokens.push(Tok { line, kind: TokKind::Lifetime, text: String::new() });
                    i = j;
                } else {
                    let mut j = i + 1;
                    while j < b.len() {
                        match b[j] {
                            b'\\' => j += 2,
                            b'\'' => {
                                j += 1;
                                break;
                            }
                            b'\n' => break, // malformed; don't swallow the file
                            _ => j += 1,
                        }
                    }
                    out.tokens.push(Tok { line, kind: TokKind::Char, text: String::new() });
                    i = j;
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                let mut j = i;
                while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                    j += 1;
                }
                let text = std::str::from_utf8(&b[start..j]).unwrap_or("").to_string();
                // String prefixes: r"", r#""#, b"", br"", rb"". A raw prefix
                // only opens a string when the hash run actually ends in a
                // quote — `r#ident` is a raw identifier, not a string.
                let raw_prefix = matches!(text.as_str(), "r" | "br" | "rb");
                let is_str_prefix = matches!(text.as_str(), "r" | "b" | "br" | "rb") && {
                    let mut k = j;
                    if raw_prefix {
                        while b.get(k) == Some(&b'#') {
                            k += 1;
                        }
                    }
                    b.get(k) == Some(&b'"')
                };
                if is_str_prefix {
                    let from = line;
                    let k = skip_string(b, j, raw_prefix, &mut line);
                    out.tokens.push(Tok { line: from, kind: TokKind::Str, text: String::new() });
                    i = k;
                } else {
                    out.tokens.push(Tok { line, kind: TokKind::Ident, text });
                    i = j;
                }
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                    j += 1;
                }
                // Fractional part — but not `1..10` range syntax.
                if j < b.len()
                    && b[j] == b'.'
                    && b.get(j + 1).is_some_and(|n| n.is_ascii_digit())
                {
                    j += 1;
                    while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                        j += 1;
                    }
                }
                // Exponent sign (`1e-5`).
                if j < b.len()
                    && (b[j] == b'+' || b[j] == b'-')
                    && b.get(j.wrapping_sub(1)).is_some_and(|p| *p == b'e' || *p == b'E')
                {
                    j += 1;
                    while j < b.len() && b[j].is_ascii_digit() {
                        j += 1;
                    }
                }
                out.tokens.push(Tok { line, kind: TokKind::Num, text: String::new() });
                i = j;
            }
            c => {
                out.tokens.push(Tok { line, kind: TokKind::Punct(c), text: String::new() });
                i += 1;
            }
        }
    }
    out
}

/// Skip a string literal starting at `b[i]` (which is `"` or, for `raw`
/// strings, an optional `#` run followed by `"`). Returns the index just
/// past the closing delimiter and updates `line` for embedded newlines,
/// including the one a `\` line continuation escapes.
///
/// `raw` matters even with zero hashes: in `r"C:\dir"` the backslash is a
/// literal byte, not an escape — treating it as an escape made the old
/// lexer swallow the closing quote and mis-lex the rest of the file.
fn skip_string(b: &[u8], i: usize, raw: bool, line: &mut u32) -> usize {
    let mut j = i;
    // Count leading '#' of a raw string delimiter.
    let mut hashes = 0usize;
    if raw {
        while b.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
    }
    if b.get(j) != Some(&b'"') {
        // Caller mis-guessed (defensive; the prefix check rules this out).
        return j.max(i + 1);
    }
    j += 1;
    if raw {
        // Raw string: no escapes; ends at `"` followed by `hashes` hashes.
        while j < b.len() {
            if b[j] == b'\n' {
                *line += 1;
            }
            if b[j] == b'"'
                && b[j + 1..].iter().take(hashes).take_while(|&&c| c == b'#').count() == hashes
            {
                return j + 1 + hashes;
            }
            j += 1;
        }
        j
    } else {
        while j < b.len() {
            match b[j] {
                b'\\' => {
                    if b.get(j + 1) == Some(&b'\n') {
                        *line += 1;
                    }
                    j += 2;
                }
                b'\n' => {
                    *line += 1;
                    j += 1;
                }
                b'"' => return j + 1,
                _ => j += 1,
            }
        }
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            // thread_rng in a comment
            /* Instant in /* nested */ block */
            let s = "thread_rng";
            let r = r#"SystemTime "quoted" inside"#;
            let c = 'x';
            let esc = '\n';
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.iter().any(|i| i == "thread_rng" || i == "Instant" || i == "SystemTime"));
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let lx = tokenize("let a = 1; // uarch: x86 cache line\nlet b = 2;");
        assert_eq!(lx.comments.len(), 1);
        assert_eq!(lx.comments[0].line, 1);
        assert!(lx.comments[0].text.contains("uarch:"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lx = tokenize("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert_eq!(lx.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).count(), 3);
        assert_eq!(lx.tokens.iter().filter(|t| t.kind == TokKind::Char).count(), 0);
    }

    #[test]
    fn ranges_do_not_eat_dots() {
        let lx = tokenize("for i in 0..10 { } let f = 1.5e-3;");
        let dots = lx
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Punct(b'.')))
            .count();
        assert_eq!(dots, 2, "0..10 keeps its two range dots");
        assert_eq!(lx.tokens.iter().filter(|t| t.kind == TokKind::Num).count(), 3);
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let s = \"line\nbreak\";\nafter();";
        let lx = tokenize(src);
        let after = lx.tokens.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 3);
    }

    #[test]
    fn multiline_string_token_anchors_to_opening_line() {
        let src = "let s = \"line\nbreak\";\nafter();";
        let lx = tokenize(src);
        let s = lx.tokens.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s.line, 1, "string token carries the line it opens on");
    }

    #[test]
    fn zero_hash_raw_strings_do_not_escape() {
        // In r"..\" the backslash is literal; the string ends at the quote.
        // The old lexer treated \" as an escape and swallowed the closer,
        // mis-lexing everything after it.
        let src = r#"let p = r"C:\dir\"; hidden_in_string(); "#;
        let src = format!("{src}\nvisible();");
        let lx = tokenize(&src);
        let ids: Vec<&str> = lx.tokens.iter().map(|t| t.text.as_str()).collect();
        assert!(ids.contains(&"hidden_in_string"), "code after r\"..\\\" must lex");
        assert!(ids.contains(&"visible"));
    }

    #[test]
    fn raw_identifiers_are_not_strings() {
        let lx = tokenize("let r#type = r#match + other;");
        let ids = lx.tokens.iter().filter(|t| t.kind == TokKind::Ident).count();
        // let, r, type, r, match, other — no Str tokens at all.
        assert_eq!(lx.tokens.iter().filter(|t| t.kind == TokKind::Str).count(), 0);
        assert!(ids >= 5);
        assert!(lx.tokens.iter().any(|t| t.text == "other"));
    }

    #[test]
    fn multiline_raw_strings_track_lines() {
        let src = "let q = r#\"select *\nfrom t\nwhere x\"#;\nafter();";
        let lx = tokenize(src);
        let q = lx.tokens.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(q.line, 1);
        let after = lx.tokens.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 4);
    }

    #[test]
    fn deeply_nested_block_comments_terminate() {
        let src = "/* a /* b /* c */ b */ a */ code();";
        let lx = tokenize(src);
        assert!(lx.tokens.iter().any(|t| t.text == "code"));
        assert_eq!(lx.comments.len(), 1);
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        for src in ["let s = \"never closed", "let s = r#\"never closed\"", "/* open", "r#"] {
            let _ = tokenize(src);
        }
    }
}
