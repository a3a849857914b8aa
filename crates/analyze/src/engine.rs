//! The rule engine: runs every rule over a set of source files,
//! aggregates the workspace-wide lock graph, and returns the diagnostics
//! sorted by position.
//!
//! Two layers feed the rules: the token layer (the lexed code view) and
//! the structure layer (delimiter match map, fn items, loop ranges —
//! built once per file and shared by the structural rules).

use crate::diag::Diagnostic;
use crate::parse::Structure;
use crate::rules::{self, locks};
use crate::source::SourceFile;

/// Analyzes `files` (already classified and lexed) and returns the
/// diagnostics, sorted by path, line, column.
pub fn analyze(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut edges = Vec::new();

    for file in files.iter().filter(|f| f.is_production()) {
        locks::check(file, &mut edges, &mut diags);
        // Structure layer: built once per production file and shared by
        // the structural rules.
        let s = Structure::build(file);
        rules::condvar::check(file, &s, &mut diags);
        rules::joins::check(file, &s, &mut diags);
        rules::accum::check(file, &s, &mut diags);
    }
    diags.extend(locks::cycles(&edges));

    diags.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    // Overlapping structural regions (e.g. nested parallel combinators)
    // can observe one site twice; identical findings collapse.
    diags.dedup_by(|a, b| {
        a.rule == b.rule && a.path == b.path && a.line == b.line && a.col == b.col
    });
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};
    use std::path::PathBuf;

    fn lib_file(path: &str, src: &str) -> SourceFile {
        SourceFile::new(PathBuf::from(path), src.to_string(), FileKind::Lib)
    }

    const BARE_WAIT: &str =
        "fn f(&self) { let s = self.m.lock(); let g = self.cv.wait(s); touch(g); }\n";

    #[test]
    fn test_like_files_are_skipped_entirely() {
        let f = SourceFile::new(
            PathBuf::from("crates/x/tests/t.rs"),
            BARE_WAIT.into(),
            FileKind::TestLike,
        );
        assert!(analyze(&[f]).is_empty());
    }

    #[test]
    fn cross_file_lock_cycle_is_found() {
        let a = lib_file(
            "crates/serve/src/a.rs",
            "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); touch(a, b); }",
        );
        let b = lib_file(
            "crates/serve/src/b.rs",
            "fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); touch(a, b); }",
        );
        let diags = analyze(&[a, b]);
        let cycle: Vec<_> = diags.iter().filter(|d| d.rule == "lock-order").collect();
        assert_eq!(cycle.len(), 2, "{diags:?}");
    }

    #[test]
    fn structural_rules_run_through_the_engine() {
        let f = lib_file("crates/serve/src/x.rs", BARE_WAIT);
        let diags = analyze(&[f]);
        assert!(diags.iter().any(|d| d.rule == "condvar-wait"), "{diags:?}");
    }

    #[test]
    fn diagnostics_are_sorted() {
        let f = lib_file("crates/serve/src/x.rs", &format!("{BARE_WAIT}{BARE_WAIT}"));
        let diags = analyze(&[f]);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[0].line < diags[1].line);
    }
}
