//! The lint budget: production code may step around a workspace lint only
//! through a local `#[expect(lint, reason = "...")]`, and the number of
//! those exceptions only goes down.
//!
//! rustc already rejects an `#[expect]` whose lint no longer fires
//! (`unfulfilled_lint_expectations` under `cargo clippy -- -D warnings`),
//! so every counted attribute still excuses a live site. What this test
//! adds is the ratchet: a new exception fails here until the table below
//! is raised in review, and removing one fails until the table is lowered.
//! It also checks that no package escapes the workspace lint table, which
//! is where `unsafe_code = "forbid"` lives.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Live `#[expect(clippy::<lint>, …)]` attributes per lint, over
/// `crates/*/src` and `src/`.
const BUDGET: &[(&str, usize)] = &[
    ("clippy::disallowed_methods", 1),
    ("clippy::disallowed_types", 2),
    ("clippy::expect_used", 8),
    ("clippy::indexing_slicing", 2),
    ("clippy::let_underscore_untyped", 19),
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `crates/<name>` directory, sorted.
fn member_crates() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source dir is readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The lint named by an `expect` attribute opening at `rest` (the text
/// after `expect(`), or an error when the attribute names more than one
/// lint or gives no reason.
fn single_lint(rest: &str) -> Result<&str, String> {
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(rest.len());
    let (lint, tail) = rest.split_at(end);
    let tail = tail.trim_start();
    match tail.strip_prefix(',').map(str::trim_start) {
        Some(t) if t.starts_with("reason") => Ok(lint),
        _ => Err(format!(
            "`expect({lint}…` must name one lint followed by its reason"
        )),
    }
}

/// Counts `#[expect(` and `#![expect(` attributes per lint. Only lines that
/// start with the attribute count, so doc text that shows the syntax does
/// not; rustfmt puts every attribute at the start of its line.
fn expect_counts() -> BTreeMap<String, usize> {
    let mut files = Vec::new();
    collect_rs(&root().join("src"), &mut files);
    for krate in member_crates() {
        collect_rs(&krate.join("src"), &mut files);
    }
    let mut counts = BTreeMap::new();
    let mut errors = Vec::new();
    for path in files {
        let text = fs::read_to_string(&path).expect("source file is readable");
        for (at, _) in text.match_indices("expect(") {
            let line_start = text[..at].rfind('\n').map_or(0, |i| i + 1);
            let prefix = text[line_start..at].trim_start();
            if prefix != "#[" && prefix != "#![" {
                continue;
            }
            match single_lint(&text[at + "expect(".len()..]) {
                Ok(lint) => *counts.entry(lint.to_string()).or_insert(0) += 1,
                Err(e) => errors.push(format!("{}: {e}", path.display())),
            }
        }
    }
    assert!(errors.is_empty(), "{}", errors.join("\n"));
    counts
}

#[test]
fn expect_attributes_match_the_budget() {
    let want: BTreeMap<String, usize> = BUDGET.iter().map(|&(l, n)| (l.to_string(), n)).collect();
    assert_eq!(
        expect_counts(),
        want,
        "the count of `#[expect]` exceptions changed: lower BUDGET when one \
         goes away; a new one needs its reason reviewed before BUDGET grows"
    );
}

/// True when `manifest` has a `[lints]` table with `workspace = true`.
fn opts_into_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

#[test]
fn every_package_opts_into_the_workspace_lints() {
    let mut manifests = vec![root().join("Cargo.toml")];
    manifests.extend(member_crates().iter().map(|d| d.join("Cargo.toml")));
    for manifest in &manifests {
        let text = fs::read_to_string(manifest).expect("manifest is readable");
        assert!(
            opts_into_workspace_lints(&text),
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
    }
    let root_manifest = fs::read_to_string(root().join("Cargo.toml")).expect("root manifest");
    assert!(
        root_manifest.contains("unsafe_code = \"forbid\""),
        "the workspace lint table must forbid unsafe code"
    );
}

#[test]
fn attribute_parsing() {
    assert_eq!(
        single_lint("\n    clippy::expect_used,\n    reason = \"x\"\n)]"),
        Ok("clippy::expect_used")
    );
    assert_eq!(
        single_lint("clippy::disallowed_types, reason = \"x\")]"),
        Ok("clippy::disallowed_types")
    );
    assert!(single_lint("clippy::panic, clippy::todo, reason = \"x\")]").is_err());
    assert!(single_lint("clippy::panic)]").is_err());
    assert!(opts_into_workspace_lints(
        "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"
    ));
    assert!(!opts_into_workspace_lints("[package]\nname = \"x\"\n"));
    assert!(!opts_into_workspace_lints(
        "[lints]\n[lints.clippy]\nworkspace = true\n"
    ));
}
