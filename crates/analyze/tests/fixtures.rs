//! End-to-end fixture tests: each file under `tests/fixtures/` is fed
//! through the real lexer + rule engine exactly as `ppbench-analyze`
//! would see it, under a synthetic workspace path.

use std::path::PathBuf;

use ppbench_analyze::engine::analyze;
use ppbench_analyze::source::{FileKind, SourceFile};

/// Loads one fixture as if it lived at `synthetic_path`.
fn fixture(name: &str, synthetic_path: &str, kind: FileKind) -> SourceFile {
    let on_disk = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text = std::fs::read_to_string(&on_disk)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", on_disk.display()));
    SourceFile::new(PathBuf::from(synthetic_path), text, kind)
}

/// Rule ids of the diagnostics, in report order.
fn rules_of(files: &[SourceFile]) -> Vec<&'static str> {
    analyze(files).into_iter().map(|d| d.rule).collect()
}

fn count(rules: &[&str], rule: &str) -> usize {
    rules.iter().filter(|r| **r == rule).count()
}

#[test]
fn lock_order_cycle_spans_files() {
    let a = fixture(
        "lock_order_a.rs",
        "crates/serve/src/lock_order_a.rs",
        FileKind::Lib,
    );
    let b = fixture(
        "lock_order_b.rs",
        "crates/serve/src/lock_order_b.rs",
        FileKind::Lib,
    );
    // Each file alone is a consistent order — no cycle, no finding.
    assert!(rules_of(&[fixture(
        "lock_order_a.rs",
        "crates/serve/src/lock_order_a.rs",
        FileKind::Lib,
    )])
    .is_empty());
    // Together, alpha→beta and beta→alpha close the loop; every edge on
    // the cycle is reported.
    let rules = rules_of(&[a, b]);
    assert!(count(&rules, "lock-order") >= 2, "{rules:?}");
}

#[test]
fn lock_panic_fixture_flags_unwrap_under_held_lock() {
    let f = fixture(
        "lock_panic.rs",
        "crates/serve/src/lock_panic.rs",
        FileKind::Lib,
    );
    let rules = rules_of(&[f]);
    assert_eq!(rules, vec!["lock-panic"]);
}

#[test]
fn clean_fixture_produces_zero_diagnostics() {
    // Strings, comments, doc text, the sanctioned shapes, and cfg(test)
    // code are the false-positive surface; all must stay silent.
    let f = fixture("clean.rs", "crates/core/src/clean.rs", FileKind::Lib);
    assert_eq!(rules_of(&[f]), Vec::<&str>::new());
}

#[test]
fn test_like_fixtures_are_exempt_wholesale() {
    // A bad fixture, classified as a test file: nothing fires.
    let f = fixture(
        "condvar_wait_bad.rs",
        "crates/serve/tests/condvar_wait_bad.rs",
        FileKind::TestLike,
    );
    assert!(rules_of(&[f]).is_empty());
}

#[test]
fn condvar_wait_fixture_pair() {
    let bad = fixture(
        "condvar_wait_bad.rs",
        "crates/serve/src/condvar_wait_bad.rs",
        FileKind::Lib,
    );
    let rules = rules_of(&[bad]);
    assert_eq!(
        count(&rules, "condvar-wait"),
        2,
        "bare wait + bare wait_timeout: {rules:?}"
    );

    let ok = fixture(
        "condvar_wait_ok.rs",
        "crates/serve/src/condvar_wait_ok.rs",
        FileKind::Lib,
    );
    assert!(rules_of(&[ok]).is_empty());
}

#[test]
fn join_order_fixture_pair() {
    let bad = fixture(
        "join_order_bad.rs",
        "crates/sort/src/join_order_bad.rs",
        FileKind::Lib,
    );
    let rules = rules_of(&[bad]);
    assert_eq!(count(&rules, "join-order"), 1, "{rules:?}");

    let ok = fixture(
        "join_order_ok.rs",
        "crates/sort/src/join_order_ok.rs",
        FileKind::Lib,
    );
    assert!(rules_of(&[ok]).is_empty());
}

#[test]
fn shared_accumulator_fixture_pair() {
    let bad = fixture(
        "shared_accum_bad.rs",
        "crates/core/src/shared_accum_bad.rs",
        FileKind::Lib,
    );
    let rules = rules_of(&[bad]);
    assert_eq!(
        count(&rules, "shared-accumulator"),
        2,
        "spawn closure + par_iter for_each: {rules:?}"
    );

    let ok = fixture(
        "shared_accum_ok.rs",
        "crates/core/src/shared_accum_ok.rs",
        FileKind::Lib,
    );
    assert!(rules_of(&[ok]).is_empty());
}

#[test]
fn lexer_edge_cases_stay_silent() {
    // Raw strings, lifetimes vs chars, nested block comments, escaped
    // quotes, line-continuation escapes: all lock-looking text is inert.
    let f = fixture(
        "lexer_edges.rs",
        "crates/core/src/lexer_edges.rs",
        FileKind::Lib,
    );
    assert_eq!(rules_of(&[f]), Vec::<&str>::new());
}

#[test]
fn the_workspace_itself_is_clean() {
    // The invariant the CI job enforces: the real tree, scanned with the
    // real walker, carries zero violations.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = ppbench_analyze::walk::find_workspace_root(&manifest)
        .expect("workspace root above crates/analyze");
    let files = ppbench_analyze::walk::load_workspace(&root).expect("workspace loads");
    let errors = analyze(&files);
    assert!(
        errors.is_empty(),
        "workspace must stay analyzer-clean:\n{}",
        errors
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
