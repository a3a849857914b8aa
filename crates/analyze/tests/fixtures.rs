//! End-to-end fixture tests: each file under `tests/fixtures/` is fed
//! through the real lexer + rule engine exactly as `ppbench-analyze`
//! would see it, with a synthetic path/crate so the crate-scoped rules
//! fire the way they do in the workspace scan.

use std::path::PathBuf;

use ppbench_analyze::engine::analyze;
use ppbench_analyze::index::SymbolIndex;
use ppbench_analyze::parse::Structure;
use ppbench_analyze::rules::{severity_of, Severity};
use ppbench_analyze::source::{FileKind, SourceFile};

/// Loads one fixture as if it lived at `synthetic_path` inside `krate`.
fn fixture(name: &str, synthetic_path: &str, krate: &str, kind: FileKind) -> SourceFile {
    let on_disk = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text = std::fs::read_to_string(&on_disk)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", on_disk.display()));
    SourceFile::new(PathBuf::from(synthetic_path), text, krate.into(), kind)
}

/// Rule ids of the diagnostics, in report order.
fn rules_of(files: &[SourceFile]) -> Vec<&'static str> {
    analyze(files).into_iter().map(|d| d.rule).collect()
}

fn count(rules: &[&str], rule: &str) -> usize {
    rules.iter().filter(|r| **r == rule).count()
}

#[test]
fn panic_fixture_flags_the_whole_family() {
    let f = fixture(
        "panic_unwrap.rs",
        "crates/core/src/panic_unwrap.rs",
        "ppbench-core",
        FileKind::Lib,
    );
    let rules = rules_of(&[f]);
    assert_eq!(
        count(&rules, "panic"),
        5,
        "unwrap, expect, panic!, todo!, unimplemented!: {rules:?}"
    );
    assert!(rules.iter().all(|r| *r == "panic"), "{rules:?}");
}

#[test]
fn indexing_fixture_flags_serving_crates_only() {
    let serve = fixture(
        "indexing.rs",
        "crates/serve/src/indexing.rs",
        "ppbench-serve",
        FileKind::Lib,
    );
    let rules = rules_of(&[serve]);
    assert_eq!(
        count(&rules, "indexing"),
        2,
        "v[i] and make()[0]: {rules:?}"
    );

    // The identical source in a kernel crate is idiomatic and clean.
    let core = fixture(
        "indexing.rs",
        "crates/core/src/indexing.rs",
        "ppbench-core",
        FileKind::Lib,
    );
    assert!(rules_of(&[core]).is_empty());
}

#[test]
fn time_source_fixture_flags_clock_reads() {
    let f = fixture(
        "time_source.rs",
        "crates/core/src/time_source.rs",
        "ppbench-core",
        FileKind::Lib,
    );
    let rules = rules_of(&[f]);
    assert!(count(&rules, "time-source") >= 2, "{rules:?}");
    assert!(rules.iter().all(|r| *r == "time-source"), "{rules:?}");

    // The same source is sanctioned when it IS the timing module.
    let timing = fixture(
        "time_source.rs",
        "crates/core/src/timing.rs",
        "ppbench-core",
        FileKind::Lib,
    );
    assert!(rules_of(&[timing]).is_empty());
}

#[test]
fn hash_iteration_fixture_flags_randomized_containers() {
    let f = fixture(
        "hash_iteration.rs",
        "crates/serve/src/hash_iteration.rs",
        "ppbench-serve",
        FileKind::Lib,
    );
    let rules = rules_of(&[f]);
    assert!(count(&rules, "hash-iteration") >= 2, "{rules:?}");
    assert!(rules.iter().all(|r| *r == "hash-iteration"), "{rules:?}");
}

#[test]
fn env_dependence_fixture_flags_machine_inputs() {
    let f = fixture(
        "env_dependence.rs",
        "crates/core/src/env_dependence.rs",
        "ppbench-core",
        FileKind::Lib,
    );
    let rules = rules_of(&[f]);
    assert!(
        count(&rules, "env-dependence") >= 2,
        "env::var and available_parallelism: {rules:?}"
    );
}

#[test]
fn lock_order_cycle_spans_files() {
    let a = fixture(
        "lock_order_a.rs",
        "crates/serve/src/lock_order_a.rs",
        "ppbench-serve",
        FileKind::Lib,
    );
    let b = fixture(
        "lock_order_b.rs",
        "crates/serve/src/lock_order_b.rs",
        "ppbench-serve",
        FileKind::Lib,
    );
    // Each file alone is a consistent order — no cycle, no finding.
    assert!(rules_of(&[fixture(
        "lock_order_a.rs",
        "crates/serve/src/lock_order_a.rs",
        "ppbench-serve",
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
        "ppbench-serve",
        FileKind::Lib,
    );
    let rules = rules_of(&[f]);
    assert_eq!(count(&rules, "lock-panic"), 1, "{rules:?}");
    // The `.unwrap()` itself is independently a panic finding.
    assert_eq!(count(&rules, "panic"), 1, "{rules:?}");
}

#[test]
fn crate_root_without_forbid_unsafe_is_flagged() {
    let f = fixture(
        "missing_forbid_unsafe.rs",
        "crates/fixture/src/lib.rs",
        "ppbench-fixture",
        FileKind::Lib,
    );
    let rules = rules_of(&[f]);
    assert_eq!(rules, vec!["forbid-unsafe"]);

    // The same text off the crate root carries no obligation.
    let inner = fixture(
        "missing_forbid_unsafe.rs",
        "crates/fixture/src/inner.rs",
        "ppbench-fixture",
        FileKind::Lib,
    );
    assert!(rules_of(&[inner]).is_empty());
}

#[test]
fn discarded_result_fixture_flags_let_underscore() {
    let f = fixture(
        "discarded_result.rs",
        "crates/core/src/discarded.rs",
        "ppbench-core",
        FileKind::Lib,
    );
    assert_eq!(rules_of(&[f]), vec!["discarded-result"]);
}

#[test]
fn well_formed_waivers_suppress_their_findings() {
    let f = fixture(
        "waived.rs",
        "crates/core/src/waived.rs",
        "ppbench-core",
        FileKind::Lib,
    );
    assert!(rules_of(&[f]).is_empty());
}

#[test]
fn malformed_waivers_are_findings_and_do_not_suppress() {
    let f = fixture(
        "bad_waiver.rs",
        "crates/core/src/bad_waiver.rs",
        "ppbench-core",
        FileKind::Lib,
    );
    let rules = rules_of(&[f]);
    assert_eq!(
        count(&rules, "waiver"),
        2,
        "unknown rule + missing reason: {rules:?}"
    );
    assert_eq!(
        count(&rules, "panic"),
        1,
        "a reason-less waiver must not suppress the unwrap: {rules:?}"
    );
}

#[test]
fn clean_fixture_produces_zero_diagnostics() {
    // Strings, comments, doc text, unwrap_or* family, and cfg(test) code
    // are the false-positive surface; all must stay silent.
    let f = fixture(
        "clean.rs",
        "crates/core/src/clean.rs",
        "ppbench-core",
        FileKind::Lib,
    );
    assert_eq!(rules_of(&[f]), Vec::<&str>::new());
}

#[test]
fn test_like_fixtures_are_exempt_wholesale() {
    // The worst fixture, classified as a test file: nothing fires.
    let f = fixture(
        "panic_unwrap.rs",
        "crates/core/tests/panic_unwrap.rs",
        "ppbench-core",
        FileKind::TestLike,
    );
    assert!(rules_of(&[f]).is_empty());
}

#[test]
fn condvar_wait_fixture_pair() {
    let bad = fixture(
        "condvar_wait_bad.rs",
        "crates/serve/src/condvar_wait_bad.rs",
        "ppbench-serve",
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
        "ppbench-serve",
        FileKind::Lib,
    );
    assert!(rules_of(&[ok]).is_empty());
}

#[test]
fn join_order_fixture_pair() {
    let bad = fixture(
        "join_order_bad.rs",
        "crates/sort/src/join_order_bad.rs",
        "ppbench-sort",
        FileKind::Lib,
    );
    let rules = rules_of(&[bad]);
    assert_eq!(count(&rules, "join-order"), 1, "{rules:?}");

    let ok = fixture(
        "join_order_ok.rs",
        "crates/sort/src/join_order_ok.rs",
        "ppbench-sort",
        FileKind::Lib,
    );
    assert!(rules_of(&[ok]).is_empty());
}

#[test]
fn shared_accumulator_fixture_pair() {
    let bad = fixture(
        "shared_accum_bad.rs",
        "crates/core/src/shared_accum_bad.rs",
        "ppbench-core",
        FileKind::Lib,
    );
    let rules = rules_of(&[bad]);
    assert_eq!(
        count(&rules, "shared-accumulator"),
        2,
        "spawn closure + par_iter for_each: {rules:?}"
    );
    // A heuristic rule must never be error-severity.
    assert_eq!(severity_of("shared-accumulator"), Severity::Warning);

    let ok = fixture(
        "shared_accum_ok.rs",
        "crates/core/src/shared_accum_ok.rs",
        "ppbench-core",
        FileKind::Lib,
    );
    assert!(rules_of(&[ok]).is_empty());
}

#[test]
fn config_drift_fixture_pair_spans_crates() {
    let core = || {
        fixture(
            "config_drift_core.rs",
            "crates/core/src/config.rs",
            "ppbench-core",
            FileKind::Lib,
        )
    };
    // Lockstep serve side: silent.
    let ok = fixture(
        "config_drift_serve_ok.rs",
        "crates/serve/src/request.rs",
        "ppbench-serve",
        FileKind::Lib,
    );
    assert!(rules_of(&[core(), ok]).is_empty());

    // Drifted serve side: one finding per direction, one per key.
    let bad = fixture(
        "config_drift_serve_bad.rs",
        "crates/serve/src/request.rs",
        "ppbench-serve",
        FileKind::Lib,
    );
    let diags = analyze(&[core(), bad]);
    let drift: Vec<_> = diags.iter().filter(|d| d.rule == "config-drift").collect();
    assert_eq!(drift.len(), 2, "{diags:?}");
    // The missing canonical key anchors core-side; the unknown accepted
    // key anchors serve-side.
    assert!(drift
        .iter()
        .any(|d| d.message.contains("`seed`") && d.path.ends_with("config.rs")));
    assert!(drift
        .iter()
        .any(|d| d.message.contains("`turbo`") && d.path.ends_with("request.rs")));
}

#[test]
fn stale_waiver_fixture_flags_only_the_dead_waiver() {
    let f = fixture(
        "stale_waiver.rs",
        "crates/core/src/stale_waiver.rs",
        "ppbench-core",
        FileKind::Lib,
    );
    let diags = analyze(&[f]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "stale-waiver");
    assert_eq!(diags[0].line, 11, "anchors at the dead waiver comment");
}

#[test]
fn lexer_edge_cases_stay_silent() {
    // Raw strings, lifetimes vs chars, nested block comments, escaped
    // quotes, line-continuation escapes: all panic-looking text is inert.
    let f = fixture(
        "lexer_edges.rs",
        "crates/core/src/lexer_edges.rs",
        "ppbench-core",
        FileKind::Lib,
    );
    assert_eq!(rules_of(&[f]), Vec::<&str>::new());
}

#[test]
fn the_workspace_itself_is_clean() {
    // The invariant the CI job enforces: the real tree, scanned with the
    // real walker, carries zero error-severity violations. (Warnings —
    // today only the `shared-accumulator` heuristic — are ratcheted by
    // the committed baseline instead.)
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = ppbench_analyze::walk::find_workspace_root(&manifest)
        .expect("workspace root above crates/analyze");
    let files = ppbench_analyze::walk::load_workspace(&root).expect("workspace loads");
    let errors: Vec<_> = analyze(&files)
        .into_iter()
        .filter(|d| severity_of(d.rule) == Severity::Error)
        .collect();
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

#[test]
fn workspace_drift_anchors_exist() {
    // `config-drift` stays silent when its anchor symbols are missing, so
    // a rename could disable it without a failure anywhere. Pin the
    // anchors to the real tree.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = ppbench_analyze::walk::find_workspace_root(&manifest)
        .expect("workspace root above crates/analyze");
    let files = ppbench_analyze::walk::load_workspace(&root).expect("workspace loads");
    let structures: Vec<_> = files
        .iter()
        .map(|f| f.is_production().then(|| Structure::build(f)))
        .collect();
    let index = SymbolIndex::build(&files, &structures);
    assert!(index.find_fn("ppbench-core", "canonical_fields").is_some());
    assert!(index.find_fn("ppbench-core", "canonical_hash").is_some());
    assert!(index
        .find_const("ppbench-serve", "ACCEPTED_FIELDS")
        .is_some());
}
