//! Workspace discovery: find the root, enumerate crates, load sources.
//!
//! The walk covers the root package's `src/` and every `crates/*/src/`.
//! `shims/` is excluded by design: those crates are vendored stand-ins
//! for third-party APIs (rayon, parking_lot, …) and mirror upstream
//! idioms rather than project invariants. `target/` and hidden
//! directories are never entered.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::source::{classify, FileKind, SourceFile};

/// Walks up from `start` to the nearest directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> io::Result<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest)?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no workspace Cargo.toml found above the current directory",
            ));
        }
    }
}

/// Loads every production-relevant `.rs` file in the workspace. Paths in
/// the returned files are workspace-relative (for stable diagnostics).
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    // The root package.
    load_crate(root, root, &mut files)?;
    // Member crates under crates/.
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        entries.sort();
        for crate_dir in entries {
            load_crate(root, &crate_dir, &mut files)?;
        }
    }
    Ok(files)
}

/// Loads one crate's `src/` tree.
fn load_crate(root: &Path, crate_dir: &Path, files: &mut Vec<SourceFile>) -> io::Result<()> {
    let src = crate_dir.join("src");
    if !src.is_dir() {
        return Ok(());
    }
    let mut paths = Vec::new();
    collect_rs(&src, &mut paths)?;
    paths.sort();
    for path in paths {
        let rel_to_crate = path.strip_prefix(crate_dir).unwrap_or(&path);
        let kind = classify(rel_to_crate);
        if kind == FileKind::TestLike {
            continue;
        }
        let rel_to_root = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let text = fs::read_to_string(&path)?;
        files.push(SourceFile::new(rel_to_root, text, kind));
    }
    Ok(())
}

/// Recursively collects `.rs` files, skipping hidden and build dirs.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Loads explicitly named files or directories, classified by their
/// path shape.
pub fn load_paths(paths: &[PathBuf]) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for path in paths {
        if path.is_dir() {
            let mut found = Vec::new();
            collect_rs(path, &mut found)?;
            found.sort();
            for f in found {
                files.push(load_one(&f)?);
            }
        } else {
            files.push(load_one(path)?);
        }
    }
    Ok(files)
}

fn load_one(path: &Path) -> io::Result<SourceFile> {
    let text = fs::read_to_string(path)?;
    Ok(SourceFile::new(path.to_path_buf(), text, classify(path)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_workspace_root() {
        let cwd = std::env::current_dir().expect("cwd");
        let root = find_workspace_root(&cwd).expect("workspace root");
        assert!(root.join("Cargo.toml").is_file());
        assert!(root.join("crates").is_dir());
    }

    #[test]
    fn workspace_walk_excludes_shims_and_tests() {
        let cwd = std::env::current_dir().expect("cwd");
        let root = find_workspace_root(&cwd).expect("workspace root");
        let files = load_workspace(&root).expect("walk");
        assert!(files.len() > 50, "found {} files", files.len());
        for f in &files {
            let p = f.path.to_string_lossy().into_owned();
            assert!(!p.starts_with("shims"), "shims excluded: {p}");
            assert!(!p.contains("/tests/"), "tests excluded: {p}");
        }
        assert!(
            files
                .iter()
                .any(|f| f.path.starts_with("crates/analyze/src")),
            "the analyzer scans itself"
        );
        assert!(files.iter().any(|f| f.path == Path::new("src/lib.rs")));
    }
}
