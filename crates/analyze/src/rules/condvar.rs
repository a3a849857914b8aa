//! `condvar-wait` — a `Condvar::wait` outside a loop is a latent hang.
//!
//! Condition variables wake spuriously and a `notify_all` can race the
//! predicate change, so the only sound shape is `while !pred { guard =
//! cv.wait(guard); }` (or `wait_timeout` with the same re-check). A bare
//! `if`-guarded or straight-line `wait` compiles fine and passes light
//! tests, then wedges a worker the first time a wakeup arrives early.
//!
//! Detection is structural, not type-based; the wait sites are picked out
//! by shape:
//!
//! * `.wait(guard)` with exactly **one** argument — both std and
//!   parking_lot condvars. `Barrier::wait()` takes zero arguments and the
//!   service's public `wait(id, timeout)` helper takes two, so arity
//!   alone separates the APIs this workspace actually uses.
//! * `.wait_timeout(…)` by name, any arity — nothing else in the tree is
//!   called that.
//!
//! `wait_while` and `wait_timeout_while` are exempt: they re-check the
//! predicate internally.

use crate::diag::Diagnostic;
use crate::parse::Structure;
use crate::source::SourceFile;

/// Scans one file's wait sites against its loop structure.
pub fn check(file: &SourceFile, structure: &Structure, out: &mut Vec<Diagnostic>) {
    let n = file.code_len();
    for i in 0..n {
        let name = file.code_text(i);
        let is_wait = name == "wait";
        let is_wait_timeout = name == "wait_timeout";
        if !is_wait && !is_wait_timeout {
            continue;
        }
        // Must be a method call: `.name(`.
        if i == 0 || file.code_text(i - 1) != "." || i + 1 >= n || file.code_text(i + 1) != "(" {
            continue;
        }
        if file.in_test_code(i) {
            continue;
        }
        if is_wait && arg_count(file, structure, i + 1) != Some(1) {
            continue;
        }
        if !structure.in_loop(i) {
            let tok = file.code_token(i);
            out.push(Diagnostic {
                rule: "condvar-wait",
                path: file.path.clone(),
                line: tok.line,
                col: tok.col,
                message: format!(
                    "`.{name}(…)` outside a loop: condvar wakeups are spurious and \
                     notifications race the predicate — re-check the condition in a \
                     `while` loop around the wait"
                ),
            });
        }
    }
}

/// Number of top-level arguments inside the paren group opening at code
/// index `open` (0 for `()`, commas counted at depth 1 only).
fn arg_count(file: &SourceFile, structure: &Structure, open: usize) -> Option<usize> {
    let close = structure.matching(open)?;
    if close == open + 1 {
        return Some(0);
    }
    let mut commas = 0usize;
    let mut i = open + 1;
    while i < close {
        match file.code_text(i) {
            "," => {
                commas += 1;
                i += 1;
            }
            "(" | "[" | "{" => i = structure.matching(i)? + 1,
            _ => i += 1,
        }
    }
    Some(commas + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new(
            PathBuf::from("crates/x/src/lib.rs"),
            src.to_string(),
            FileKind::Lib,
        );
        let s = Structure::build(&f);
        let mut out = Vec::new();
        check(&f, &s, &mut out);
        out
    }

    #[test]
    fn wait_inside_while_loop_is_clean() {
        let out = run("fn f(&self) { let mut state = self.m.lock(); \
             while !state.ready { state = self.cv.wait(state); } }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn bare_wait_is_flagged() {
        let out = run("fn f(&self) { let state = self.m.lock(); let _g = self.cv.wait(state); }");
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "condvar-wait");
    }

    #[test]
    fn if_guarded_wait_is_still_flagged() {
        let out = run("fn f(&self) { let state = self.m.lock(); \
             if !state.ready { let _g = self.cv.wait(state); } }");
        assert_eq!(out.len(), 1, "an `if` is not a re-check loop: {out:?}");
    }

    #[test]
    fn barrier_wait_zero_args_is_exempt() {
        let out = run("fn f(&self) { self.barrier.wait(); }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn two_arg_wait_helper_is_exempt() {
        let out = run("fn f(&self) { let job = service.wait(id, timeout); use_(job); }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn wait_timeout_outside_loop_is_flagged() {
        let out = run("fn f(&self) { let s = self.m.lock(); \
             let (n, t) = self.cv.wait_timeout(s, dur); use_(n, t); }");
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn wait_timeout_inside_loop_is_clean() {
        let out = run("fn f(&self) { let mut s = self.m.lock(); loop { \
             let (n, t) = self.cv.wait_timeout(s, dur); s = n; if t.timed_out() { return; } } }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn wait_while_is_exempt() {
        let out = run(
            "fn f(&self) { let g = self.cv.wait_while(self.m.lock(), |s| !s.ready); use_(g); }",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let out =
            run("#[cfg(test)] mod tests { fn f(&self) { let g = self.cv.wait(state); use_(g); } }");
        assert!(out.is_empty(), "{out:?}");
    }
}
