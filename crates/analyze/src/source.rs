//! Per-file analysis context: classification, the lexed token stream,
//! and the `#[cfg(test)]` exemption map.

use std::path::{Path, PathBuf};

use crate::lexer::{lex, Token};

/// How a file participates in the invariants. Only `Lib` and `Bin` are
/// production surface; everything else is exempt from the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code shipped in a crate (`src/**` minus `src/bin/**`).
    Lib,
    /// Binary entry points (`src/bin/**`, `src/main.rs`). Held to the
    /// same standard as library code: `ppserved` and `pprank` are
    /// production surface, not scratch scripts.
    Bin,
    /// Tests, benches, examples, build scripts: exempt. Panicking is the
    /// idiomatic assertion mechanism there.
    TestLike,
}

/// One analyzed source file, lexed and classified.
pub struct SourceFile {
    /// Path as reported in diagnostics (workspace-relative when walked).
    pub path: PathBuf,
    /// Full source text.
    pub text: String,
    /// Production-surface classification.
    pub kind: FileKind,
    /// The code tokens (comments produce none) — the view rules scan.
    pub tokens: Vec<Token>,
    /// Half-open ranges over token positions that sit inside a
    /// `#[cfg(test)] mod … { … }` block and are exempt from all rules.
    test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes and indexes `text`.
    pub fn new(path: PathBuf, text: String, kind: FileKind) -> Self {
        let tokens = lex(&text);
        let test_ranges = find_test_ranges(&text, &tokens);
        Self {
            path,
            text,
            kind,
            tokens,
            test_ranges,
        }
    }

    /// The `i`-th code token.
    pub fn code_token(&self, i: usize) -> &Token {
        &self.tokens[i]
    }

    /// Text of the `i`-th code token.
    pub fn code_text(&self, i: usize) -> &str {
        self.code_token(i).text(&self.text)
    }

    /// Number of code tokens.
    pub fn code_len(&self) -> usize {
        self.tokens.len()
    }

    /// True when code-token position `i` lies inside a `#[cfg(test)]`
    /// module block.
    pub fn in_test_code(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| i >= s && i < e)
    }

    /// True when this file's rules should run at all.
    pub fn is_production(&self) -> bool {
        matches!(self.kind, FileKind::Lib | FileKind::Bin)
    }
}

/// Classifies a path relative to its crate directory.
pub fn classify(rel: &Path) -> FileKind {
    let comps: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    let in_dir = |d: &str| comps.contains(&d);
    if in_dir("tests") || in_dir("benches") || in_dir("examples") {
        return FileKind::TestLike;
    }
    if comps.last() == Some(&"build.rs") {
        return FileKind::TestLike;
    }
    if in_dir("bin") || comps.last() == Some(&"main.rs") {
        return FileKind::Bin;
    }
    FileKind::Lib
}

/// Finds token-index ranges covered by `#[cfg(test)] mod name { … }`
/// (and `#[cfg(any(test, …))]` etc. — any cfg attribute that mentions the
/// bare ident `test`). Attributes and visibility modifiers (`pub`,
/// `pub(crate)`) between the cfg and the `mod` keyword are tolerated.
fn find_test_ranges(text: &str, tokens: &[Token]) -> Vec<(usize, usize)> {
    let t = |i: usize| -> &str { tokens[i].text(text) };
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // `#` `[` `cfg` `(` … `test` … `)` `]`
        if t(i) == "#" && i + 3 < tokens.len() && t(i + 1) == "[" && t(i + 2) == "cfg" {
            if let Some(close) = matching(tokens, text, i + 1, "[", "]") {
                let mentions_test = (i + 2..close).any(|j| t(j) == "test");
                if mentions_test {
                    // Skip any further attributes and a visibility
                    // modifier, then expect `mod`.
                    let mut j = close + 1;
                    while j < tokens.len() && t(j) == "#" {
                        match matching(tokens, text, j + 1, "[", "]") {
                            Some(c) => j = c + 1,
                            None => break,
                        }
                    }
                    if j < tokens.len() && t(j) == "pub" {
                        j += 1;
                        if j < tokens.len() && t(j) == "(" {
                            if let Some(c) = matching(tokens, text, j, "(", ")") {
                                j = c + 1;
                            }
                        }
                    }
                    if j + 1 < tokens.len() && t(j) == "mod" {
                        // `mod name {` — find the brace and its match.
                        let mut k = j + 1;
                        while k < tokens.len() && t(k) != "{" && t(k) != ";" {
                            k += 1;
                        }
                        if k < tokens.len() && t(k) == "{" {
                            if let Some(end) = matching(tokens, text, k, "{", "}") {
                                ranges.push((i, end + 1));
                                i = end + 1;
                                continue;
                            }
                        }
                    }
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

/// Index of the token matching the `open` delimiter at position `start`
/// (which must hold `open`), or `None` if unbalanced.
fn matching(tokens: &[Token], text: &str, start: usize, open: &str, close: &str) -> Option<usize> {
    let t = |i: usize| -> &str { tokens[i].text(text) };
    if start >= tokens.len() || t(start) != open {
        return None;
    }
    let mut depth = 0usize;
    for i in start..tokens.len() {
        let s = t(i);
        if s == open {
            depth += 1;
        } else if s == close {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new(
            PathBuf::from("crates/x/src/lib.rs"),
            src.to_string(),
            FileKind::Lib,
        )
    }

    #[test]
    fn cfg_test_mod_is_exempt() {
        let f = file(
            "fn a() { v.unwrap(); }\n\
             #[cfg(test)]\nmod tests {\n fn b() { v.unwrap(); }\n}\n\
             fn c() {}\n",
        );
        let unwraps: Vec<bool> = (0..f.code_len())
            .filter(|&i| f.code_text(i) == "unwrap")
            .map(|i| f.in_test_code(i))
            .collect();
        assert_eq!(unwraps, [false, true]);
        // `fn c` after the test mod is back in scope.
        let c = (0..f.code_len())
            .find(|&i| f.code_text(i) == "c")
            .expect("fn c");
        assert!(!f.in_test_code(c));
    }

    #[test]
    fn cfg_test_pub_crate_mod_is_exempt() {
        // Shared test-support modules (`#[cfg(test)] pub(crate) mod …`)
        // are test code like any other.
        let f = file(
            "#[cfg(test)]\npub(crate) mod tests_support {\n fn b() { v.unwrap(); }\n}\n\
             #[cfg(test)]\npub mod helpers {\n fn d() { w.unwrap(); }\n}\n\
             fn c() { x.unwrap(); }\n",
        );
        let unwraps: Vec<bool> = (0..f.code_len())
            .filter(|&i| f.code_text(i) == "unwrap")
            .map(|i| f.in_test_code(i))
            .collect();
        assert_eq!(unwraps, [true, true, false]);
    }

    #[test]
    fn cfg_any_test_counts() {
        let f = file("#[cfg(any(test, feature = \"x\"))]\nmod t { fn b() { v.unwrap(); } }\n");
        let u = (0..f.code_len())
            .find(|&i| f.code_text(i) == "unwrap")
            .expect("unwrap");
        assert!(f.in_test_code(u));
    }

    #[test]
    fn non_test_cfg_is_not_exempt() {
        let f = file("#[cfg(unix)]\nmod t { fn b() { v.unwrap(); } }\n");
        let u = (0..f.code_len())
            .find(|&i| f.code_text(i) == "unwrap")
            .expect("unwrap");
        assert!(!f.in_test_code(u));
    }

    #[test]
    fn classification() {
        assert_eq!(classify(Path::new("src/lib.rs")), FileKind::Lib);
        assert_eq!(classify(Path::new("src/bin/pprank.rs")), FileKind::Bin);
        assert_eq!(classify(Path::new("src/main.rs")), FileKind::Bin);
        assert_eq!(classify(Path::new("tests/t.rs")), FileKind::TestLike);
        assert_eq!(classify(Path::new("benches/b.rs")), FileKind::TestLike);
        assert_eq!(classify(Path::new("examples/e.rs")), FileKind::TestLike);
        assert_eq!(classify(Path::new("build.rs")), FileKind::TestLike);
    }
}
