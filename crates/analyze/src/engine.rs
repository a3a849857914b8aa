//! The rule engine: runs every rule over a set of source files, applies
//! waivers, aggregates the workspace-wide lock graph and symbol index,
//! and returns the surviving diagnostics sorted by position.
//!
//! Two layers feed the rules: the token layer (the lexed code view every
//! rule has always scanned) and the structure layer (delimiter match map,
//! fn/const items, loop ranges — built once per file, shared by the
//! structural rules, and aggregated into the cross-crate
//! [`SymbolIndex`](crate::index::SymbolIndex)).

use std::collections::BTreeMap;

use crate::diag::Diagnostic;
use crate::index::SymbolIndex;
use crate::parse::Structure;
use crate::rules::{self, locks};
use crate::source::SourceFile;
use crate::waiver;

/// Everything one analysis run produces: the surviving diagnostics plus
/// the bookkeeping the ratchet baseline counts.
pub struct Report {
    /// Diagnostics that survived waivers, sorted by path, line, column.
    pub diags: Vec<Diagnostic>,
    /// Count of *used* waivers per rule (a waiver that suppressed at
    /// least one finding). The baseline ratchets these downward.
    pub used_waivers: BTreeMap<String, usize>,
}

/// Analyzes `files` and returns the surviving diagnostics.
pub fn analyze(files: &[SourceFile]) -> Vec<Diagnostic> {
    analyze_report(files).diags
}

/// Analyzes `files` (already classified and lexed) and returns the full
/// [`Report`].
pub fn analyze_report(files: &[SourceFile]) -> Report {
    let mut diags = Vec::new();
    let mut edges = Vec::new();
    let mut waivers = Vec::new();

    // Structure layer: one pass per production file, `None` elsewhere so
    // indices stay aligned with `files`.
    let structures: Vec<Option<Structure>> = files
        .iter()
        .map(|f| f.is_production().then(|| Structure::build(f)))
        .collect();
    let index = SymbolIndex::build(files, &structures);

    for (file, structure) in files.iter().zip(&structures) {
        if !file.is_production() {
            continue;
        }
        waivers.extend(waiver::scan(file, rules::ALL_RULES, &mut diags));
        rules::panics::check(file, &mut diags);
        rules::determinism::check(file, &mut diags);
        rules::hygiene::check(file, &mut diags);
        locks::check(file, &mut edges, &mut diags);
        if let Some(s) = structure {
            rules::condvar::check(file, s, &mut diags);
            rules::joins::check(file, s, &mut diags);
            rules::accum::check(file, s, &mut diags);
        }
    }
    diags.extend(locks::cycles(&edges));
    rules::drift::check(files, &structures, &index, &mut diags);

    let (mut diags, used) = waiver::apply_tracking(diags, &waivers);
    diags.extend(waiver::stale(&waivers, &used));

    let mut used_waivers: BTreeMap<String, usize> = BTreeMap::new();
    for (w, u) in waivers.iter().zip(&used) {
        if *u {
            *used_waivers.entry(w.rule.clone()).or_insert(0) += 1;
        }
    }

    diags.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    // Overlapping structural regions (e.g. nested parallel combinators)
    // can observe one site twice; identical findings collapse.
    diags.dedup_by(|a, b| {
        a.rule == b.rule && a.path == b.path && a.line == b.line && a.col == b.col
    });
    Report {
        diags,
        used_waivers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};
    use std::path::PathBuf;

    fn lib_file(path: &str, crate_name: &str, src: &str) -> SourceFile {
        SourceFile::new(
            PathBuf::from(path),
            src.to_string(),
            crate_name.into(),
            FileKind::Lib,
        )
    }

    #[test]
    fn test_like_files_are_skipped_entirely() {
        let f = SourceFile::new(
            PathBuf::from("crates/x/tests/t.rs"),
            "fn f() { x.unwrap(); panic!(); }".into(),
            "ppbench-core".into(),
            FileKind::TestLike,
        );
        assert!(analyze(&[f]).is_empty());
    }

    #[test]
    fn cross_file_lock_cycle_is_found() {
        let a = lib_file(
            "crates/serve/src/a.rs",
            "ppbench-serve",
            "#![forbid(unsafe_code)]\n\
             fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); touch(a, b); }",
        );
        let b = lib_file(
            "crates/serve/src/b.rs",
            "ppbench-serve",
            "fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); touch(a, b); }",
        );
        let diags = analyze(&[a, b]);
        let cycle: Vec<_> = diags.iter().filter(|d| d.rule == "lock-order").collect();
        assert_eq!(cycle.len(), 2, "{diags:?}");
    }

    #[test]
    fn waived_violation_is_suppressed() {
        let f = lib_file(
            "crates/core/src/x.rs",
            "ppbench-core",
            "fn f() {\n\
             // ppbench: allow(panic, reason = \"init-time invariant, cannot fail\")\n\
             x.unwrap();\n}\n",
        );
        let diags = analyze(&[f]);
        assert!(diags.iter().all(|d| d.rule != "panic"), "{diags:?}");
    }

    #[test]
    fn stale_waiver_surfaces_and_used_waivers_are_counted() {
        let f = lib_file(
            "crates/core/src/x.rs",
            "ppbench-core",
            "#![forbid(unsafe_code)]\n\
             // ppbench: allow(panic, reason = \"sound\")\n\
             x.unwrap();\n\
             // ppbench: allow(panic, reason = \"nothing here panics\")\n\
             safe();\n",
        );
        let report = analyze_report(&[f]);
        let stale: Vec<_> = report
            .diags
            .iter()
            .filter(|d| d.rule == "stale-waiver")
            .collect();
        assert_eq!(stale.len(), 1, "{:?}", report.diags);
        assert_eq!(stale[0].line, 4);
        assert_eq!(report.used_waivers.get("panic"), Some(&1));
    }

    #[test]
    fn structural_rules_run_through_the_engine() {
        let f = lib_file(
            "crates/serve/src/x.rs",
            "ppbench-serve",
            "fn f(&self) { let s = self.m.lock(); let g = self.cv.wait(s); touch(g); }",
        );
        let diags = analyze(&[f]);
        assert!(diags.iter().any(|d| d.rule == "condvar-wait"), "{diags:?}");
    }

    #[test]
    fn diagnostics_are_sorted() {
        let f = lib_file(
            "crates/core/src/x.rs",
            "ppbench-core",
            "fn f() { b.unwrap(); }\nfn g() { a.unwrap(); }\n",
        );
        let diags = analyze(&[f]);
        assert_eq!(diags.len(), 2);
        assert!(diags[0].line < diags[1].line);
    }
}
