//! A tiny scoped temporary-directory helper (no external crates).
//!
//! Used by tests, examples and the benchmark harness for kernel scratch
//! space. The directory is removed when the handle drops.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A uniquely named directory under the system temp dir, deleted on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh directory named after `prefix`, the process id and a
    /// global counter, so concurrent tests never collide.
    pub fn new(prefix: &str) -> std::io::Result<Self> {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Joins a file name onto the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }

    /// Consumes the handle without deleting the directory.
    pub fn into_path(mut self) -> PathBuf {
        std::mem::take(&mut self.path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !self.path.as_os_str().is_empty() {
            #[expect(
                clippy::let_underscore_untyped,
                reason = "best-effort cleanup in Drop; a failed removal must not panic the unwinder"
            )]
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_and_removes() {
        let path;
        {
            let td = TempDir::new("ppbench-io-test").unwrap();
            path = td.path().to_path_buf();
            assert!(path.is_dir());
            std::fs::write(td.join("x.txt"), "hello").unwrap();
        }
        assert!(!path.exists(), "dir should be removed on drop");
    }

    #[test]
    fn two_tempdirs_are_distinct() {
        let a = TempDir::new("ppbench-io-test").unwrap();
        let b = TempDir::new("ppbench-io-test").unwrap();
        assert_ne!(a.path(), b.path());
    }

    #[test]
    fn into_path_keeps_directory() {
        let td = TempDir::new("ppbench-io-test").unwrap();
        let path = td.into_path();
        assert!(path.is_dir());
        std::fs::remove_dir_all(&path).unwrap();
    }
}
