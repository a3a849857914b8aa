//! A hand-rolled, comment/string/lifetime-aware Rust lexer.
//!
//! The rules in this crate are lexical: they must never fire on
//! `.lock()` or `.wait(` inside a string literal or a doc comment, and
//! they must not confuse the lifetime `'a` with the char literal `'a'`. A
//! full parser would be overkill; a token stream that classifies those
//! regions correctly is exactly enough. The lexer is lossless over code
//! (every non-whitespace byte outside a comment lands in some token);
//! comments, doc comments included, produce no tokens.

/// What a code token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unwrap`, `r#match` …).
    Ident,
    /// A lifetime such as `'a` (including `'static`).
    Lifetime,
    /// A char or byte-char literal: `'x'`, `'\n'`, `b'\0'`.
    CharLit,
    /// Any string literal: `"…"`, `r#"…"#`, `b"…"`, `br"…"`, `c"…"`.
    StrLit,
    /// A numeric literal (integer or float, any base, with suffix).
    Number,
    /// A single punctuation byte (`.`, `[`, `#`, …). Multi-byte operators
    /// arrive as consecutive `Punct` tokens, which is fine for our rules.
    Punct,
}

/// One lexed token: kind plus byte span and 1-based source position.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based column (in bytes) of the first byte.
    pub col: u32,
}

impl Token {
    /// The token's source text.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }
}

fn is_ident_start(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphabetic() || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> u8 {
        self.src.get(self.pos + ahead).copied().unwrap_or(0)
    }

    fn bump(&mut self) {
        // Never step past EOF: `bump_n(2)` over a backslash escape that is
        // the final byte would otherwise leave `pos > src.len()` and
        // produce a token whose span panics when sliced.
        if self.pos >= self.src.len() {
            return;
        }
        if self.peek(0) == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        self.pos += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    /// Consumes an ident run starting at the cursor.
    fn eat_ident(&mut self) {
        while is_ident_continue(self.peek(0)) {
            self.bump();
        }
    }

    /// Consumes a `"…"` body (opening quote already consumed), honoring
    /// backslash escapes. Stops at EOF without error (rules still work on
    /// truncated input).
    fn eat_str_body(&mut self) {
        loop {
            match self.peek(0) {
                0 if self.pos >= self.src.len() => return,
                b'\\' => self.bump_n(2),
                b'"' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// Consumes a raw-string body: `#…#"…"#…#` with `hashes` hash signs.
    /// The `r`/`br` prefix and the hashes+quote are consumed here.
    fn eat_raw_str(&mut self, hashes: usize) {
        self.bump_n(hashes + 1); // the '#'s and the opening quote
        loop {
            if self.pos >= self.src.len() {
                return;
            }
            if self.peek(0) == b'"' {
                let mut n = 0;
                while n < hashes && self.peek(1 + n) == b'#' {
                    n += 1;
                }
                if n == hashes {
                    self.bump_n(1 + hashes);
                    return;
                }
            }
            self.bump();
        }
    }
}

/// Number of `#` signs between the cursor position and a `"` that would
/// open a raw string, or `None` if this is not a raw-string start.
fn raw_str_hashes(cur: &Cursor<'_>, from: usize) -> Option<usize> {
    let mut n = 0;
    while cur.peek(from + n) == b'#' {
        n += 1;
    }
    (cur.peek(from + n) == b'"').then_some(n)
}

/// Lexes `src` into tokens. Never fails: unrecognized bytes become
/// `Punct` tokens, unterminated literals run to EOF.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut tokens = Vec::new();
    while cur.pos < cur.src.len() {
        let b = cur.peek(0);
        if b.is_ascii_whitespace() {
            cur.bump();
            continue;
        }
        if skip_comment(&mut cur) {
            continue;
        }
        let (start, line, col) = (cur.pos, cur.line, cur.col);
        let kind = lex_one(&mut cur);
        tokens.push(Token {
            kind,
            start,
            end: cur.pos,
            line,
            col,
        });
    }
    tokens
}

/// Consumes one comment at the cursor, if there is one. Nested block
/// comments are matched to their own close.
fn skip_comment(cur: &mut Cursor<'_>) -> bool {
    if cur.peek(0) != b'/' {
        return false;
    }
    if cur.peek(1) == b'/' {
        while cur.pos < cur.src.len() && cur.peek(0) != b'\n' {
            cur.bump();
        }
        return true;
    }
    if cur.peek(1) != b'*' {
        return false;
    }
    cur.bump_n(2);
    let mut depth = 1usize;
    while cur.pos < cur.src.len() && depth > 0 {
        if cur.peek(0) == b'/' && cur.peek(1) == b'*' {
            depth += 1;
            cur.bump_n(2);
        } else if cur.peek(0) == b'*' && cur.peek(1) == b'/' {
            depth -= 1;
            cur.bump_n(2);
        } else {
            cur.bump();
        }
    }
    true
}

/// Lexes exactly one token at the cursor (which is on a non-whitespace
/// byte outside a comment) and returns its kind.
fn lex_one(cur: &mut Cursor<'_>) -> TokenKind {
    let b = cur.peek(0);

    // String-ish prefixes and raw identifiers. Handled before plain
    // idents so `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'x'`, `c"…"` and
    // `r#ident` classify correctly.
    if b == b'r' {
        if let Some(h) = raw_str_hashes(cur, 1) {
            cur.bump(); // 'r'
            cur.eat_raw_str(h);
            return TokenKind::StrLit;
        }
        if cur.peek(1) == b'#' && is_ident_start(cur.peek(2)) {
            cur.bump_n(2); // "r#"
            cur.eat_ident();
            return TokenKind::Ident;
        }
    }
    if b == b'b' || b == b'c' {
        if cur.peek(1) == b'"' {
            cur.bump_n(2);
            cur.eat_str_body();
            return TokenKind::StrLit;
        }
        if b == b'b' && cur.peek(1) == b'r' {
            if let Some(h) = raw_str_hashes(cur, 2) {
                cur.bump_n(2); // "br"
                cur.eat_raw_str(h);
                return TokenKind::StrLit;
            }
        }
        if b == b'b' && cur.peek(1) == b'\'' {
            cur.bump(); // 'b'; fall through to char-literal handling below
            lex_quote(cur);
            return TokenKind::CharLit;
        }
    }

    if is_ident_start(b) {
        cur.eat_ident();
        return TokenKind::Ident;
    }

    if b.is_ascii_digit() {
        eat_number(cur);
        return TokenKind::Number;
    }

    if b == b'"' {
        cur.bump();
        cur.eat_str_body();
        return TokenKind::StrLit;
    }

    if b == b'\'' {
        return lex_quote(cur);
    }

    cur.bump();
    TokenKind::Punct
}

/// Disambiguates `'a` (lifetime) from `'a'` / `'\n'` (char literal). The
/// cursor is on the opening quote.
fn lex_quote(cur: &mut Cursor<'_>) -> TokenKind {
    // `'` + ident-run + no closing quote => lifetime.
    if is_ident_start(cur.peek(1)) {
        let mut n = 1;
        while is_ident_continue(cur.peek(n)) {
            n += 1;
        }
        if cur.peek(n) != b'\'' {
            cur.bump_n(n);
            return TokenKind::Lifetime;
        }
    }
    // Otherwise a char literal: quote, (escape | byte), quote.
    cur.bump(); // opening '
    if cur.peek(0) == b'\\' {
        cur.bump_n(2);
        // Escapes like \u{1F600} contain braces; eat to the closing quote.
        while cur.pos < cur.src.len() && cur.peek(0) != b'\'' {
            cur.bump();
        }
    } else {
        while cur.pos < cur.src.len() && cur.peek(0) != b'\'' {
            cur.bump();
        }
    }
    if cur.peek(0) == b'\'' {
        cur.bump();
    }
    TokenKind::CharLit
}

/// Consumes a numeric literal. Deliberately permissive: exactness of the
/// numeric grammar does not affect any rule, but `1..n` must leave the
/// range dots alone and `1.5e-3` must stay one token.
fn eat_number(cur: &mut Cursor<'_>) {
    while cur.peek(0).is_ascii_alphanumeric() || cur.peek(0) == b'_' {
        cur.bump();
    }
    // Fractional part: only if the dot is followed by a digit (so `1..n`
    // and `1.method()` do not swallow the dot).
    if cur.peek(0) == b'.' && cur.peek(1).is_ascii_digit() {
        cur.bump();
        while cur.peek(0).is_ascii_alphanumeric() || cur.peek(0) == b'_' {
            cur.bump();
        }
    }
    // Exponent sign: `1e-3` lexes the `-` as part of the number only when
    // the previous byte was e/E and a digit follows.
    if (cur.peek(0) == b'-' || cur.peek(0) == b'+')
        && cur.pos > 0
        && matches!(cur.src[cur.pos - 1], b'e' | b'E')
        && cur.peek(1).is_ascii_digit()
    {
        cur.bump();
        while cur.peek(0).is_ascii_digit() || cur.peek(0) == b'_' {
            cur.bump();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn idents_and_punct() {
        let ts = kinds("foo.bar(x)?;");
        let texts: Vec<&str> = ts.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(texts, ["foo", ".", "bar", "(", "x", ")", "?", ";"]);
        assert!(ts.iter().take(1).all(|(k, _)| *k == TokenKind::Ident));
    }

    #[test]
    fn unwrap_in_string_is_a_string() {
        let ts = kinds(r#"let s = "x.unwrap()";"#);
        assert!(ts
            .iter()
            .any(|(k, s)| *k == TokenKind::StrLit && s.contains("unwrap")));
        assert!(!ts
            .iter()
            .any(|(k, s)| *k == TokenKind::Ident && s == "unwrap"));
    }

    #[test]
    fn raw_strings_with_hashes_and_quotes() {
        let src = r##"let s = r#"says "unwrap()" here"#; x"##;
        let ts = kinds(src);
        assert!(ts
            .iter()
            .any(|(k, s)| *k == TokenKind::StrLit && s.contains("says")));
        let last = ts.last().expect("tokens");
        assert_eq!((last.0, last.1.as_str()), (TokenKind::Ident, "x"));
    }

    #[test]
    fn byte_and_c_strings() {
        let ts = kinds(r##"(b"ab", br#"cd"#, c"ef", b'z')"##);
        assert_eq!(
            ts.iter().filter(|(k, _)| *k == TokenKind::StrLit).count(),
            3
        );
        assert!(ts.iter().any(|(k, _)| *k == TokenKind::CharLit));
    }

    #[test]
    fn lifetime_vs_char() {
        let ts = kinds("fn f<'a>(x: &'a str) { let c = 'a'; let n = '\\n'; }");
        assert_eq!(
            ts.iter().filter(|(k, _)| *k == TokenKind::Lifetime).count(),
            2
        );
        assert_eq!(
            ts.iter().filter(|(k, _)| *k == TokenKind::CharLit).count(),
            2
        );
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let ts = kinds("/* a /* b */ c */ after");
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].1, "after");
    }

    #[test]
    fn comments_of_every_form_produce_no_tokens() {
        let ts = kinds("/// doc\n//! doc\n// x.lock()\n/** doc */ /* m.lock() */ after");
        assert_eq!(ts.len(), 1, "{ts:?}");
        assert_eq!((ts[0].0, ts[0].1.as_str()), (TokenKind::Ident, "after"));
    }

    #[test]
    fn raw_ident_lexes_as_ident() {
        let ts = kinds("let r#match = 1;");
        assert!(ts
            .iter()
            .any(|(k, s)| *k == TokenKind::Ident && s == "r#match"));
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        let texts: Vec<String> = kinds("for i in 1..n { a[i] = 1.5e-3; }")
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        assert!(texts.contains(&"1".to_string()));
        assert!(texts.contains(&"1.5e-3".to_string()));
        assert_eq!(texts.iter().filter(|s| s.as_str() == ".").count(), 2);
    }

    #[test]
    fn positions_are_one_based_lines_and_cols() {
        let ts = lex("a\n  bb\n");
        assert_eq!((ts[0].line, ts[0].col), (1, 1));
        assert_eq!((ts[1].line, ts[1].col), (2, 3));
    }

    #[test]
    fn escaped_quote_in_string() {
        let ts = kinds(r#""a\"b" x"#);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[1].1, "x");
    }

    #[test]
    fn truncated_escape_at_eof_stays_in_bounds() {
        // A backslash escape as the very last byte must not push the token
        // span past the end of the source (`Token::text` would panic).
        for src in ["let s = \"abc\\", "let c = '\\", "b'\\", "\"\\"] {
            let ts = lex(src);
            for t in &ts {
                assert!(t.end <= src.len(), "token {t:?} out of bounds in {src:?}");
                let _ = t.text(src); // must not panic
            }
        }
    }

    #[test]
    fn unterminated_literals_run_to_eof() {
        let ts = kinds("let s = \"never closed");
        let last = ts.last().expect("tokens");
        assert_eq!(last.0, TokenKind::StrLit);
        assert_eq!(last.1, "\"never closed");
        let ts = kinds("r#\"raw never closed");
        assert_eq!(ts.last().expect("tokens").0, TokenKind::StrLit);
    }
}
