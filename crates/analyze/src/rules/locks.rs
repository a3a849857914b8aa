//! Lock discipline: an approximate lock-acquisition graph.
//!
//! The scanner tracks `.lock()` calls per file with brace-depth scoping:
//! a guard bound by a simple `let` lives to the end of its block (or an
//! explicit `drop(name)`), an unbound guard lives to the end of its
//! statement. Lock identity is the last path segment of the receiver
//! (`self.inner.state.lock()` and `inner.state.lock()` are both lock
//! `state`), which unifies call sites across functions well enough to
//! build a workspace-wide acquisition graph. Two findings come out:
//!
//! * **lock-order** — acquiring B while holding A adds edge A→B; any
//!   cycle in the graph (including A→A re-acquisition) is a potential
//!   deadlock and every edge on the cycle is reported.
//! * **lock-panic** — `.lock().unwrap()` / `.lock().expect(…)` while
//!   already holding a lock: a poisoned inner mutex would panic the
//!   thread with the outer guard held, wedging everyone queued on it.
//!
//! This is deliberately approximate (no types, no inter-procedural guard
//! flow); the unit tests pin down the idioms the serving crates actually
//! use, and a false positive is fixed here rather than excused.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// One observed nested acquisition: `held` was locked when `acquired`
/// was locked at `path:line:col`.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Lock already held.
    pub held: String,
    /// Lock acquired under it.
    pub acquired: String,
    /// File of the inner acquisition.
    pub path: std::path::PathBuf,
    /// 1-based line of the inner acquisition.
    pub line: u32,
    /// 1-based column of the inner acquisition.
    pub col: u32,
}

#[derive(Debug)]
struct Guard {
    /// Binding name for `drop(name)` matching; `None` for temporaries.
    binding: Option<String>,
    /// Normalized lock name.
    lock: String,
    /// Brace depth the guard was created at.
    depth: usize,
    /// True when the guard dies at the next statement boundary.
    temporary: bool,
}

/// Scans one file, appending `lock-panic` diagnostics and the lock edges
/// observed (cycle detection runs workspace-wide in [`cycles`]).
pub fn check(file: &SourceFile, edges: &mut Vec<LockEdge>, out: &mut Vec<Diagnostic>) {
    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();
    // Pending simple-`let` binding for the current statement, consumed by
    // the first `.lock()` in it.
    let mut pending_let: Option<String> = None;
    let mut statement_start = true;

    let n = file.code_len();
    let mut i = 0;
    while i < n {
        let text = file.code_text(i);
        match text {
            "{" => {
                depth += 1;
                guards.retain(|g| !g.temporary);
                statement_start = true;
                pending_let = None;
            }
            "}" => {
                guards.retain(|g| g.depth < depth && !g.temporary);
                depth = depth.saturating_sub(1);
                statement_start = true;
                pending_let = None;
            }
            ";" => {
                guards.retain(|g| !g.temporary);
                statement_start = true;
                pending_let = None;
            }
            "let" if statement_start => {
                // `let [mut] name =` / `let [mut] name :` — anything more
                // structured (tuple or enum patterns) is treated as not
                // binding a guard.
                let mut j = i + 1;
                if j < n && file.code_text(j) == "mut" {
                    j += 1;
                }
                if j + 1 < n
                    && file.code_token(j).kind == crate::lexer::TokenKind::Ident
                    && matches!(file.code_text(j + 1), "=" | ":")
                {
                    pending_let = Some(file.code_text(j).to_string());
                }
                statement_start = false;
            }
            "drop" if i + 2 < n && file.code_text(i + 1) == "(" => {
                let name = file.code_text(i + 2).to_string();
                guards.retain(|g| g.binding.as_deref() != Some(name.as_str()));
                statement_start = false;
            }
            "lock"
                if i > 0
                    && file.code_text(i - 1) == "."
                    && i + 2 < n
                    && file.code_text(i + 1) == "("
                    && file.code_text(i + 2) == ")" =>
            {
                let in_test = file.in_test_code(i);
                let tok = *file.code_token(i);
                let lock_name = receiver_name(file, i);
                if !in_test {
                    for g in &guards {
                        if g.lock == lock_name {
                            out.push(Diagnostic {
                                rule: "lock-order",
                                path: file.path.clone(),
                                line: tok.line,
                                col: tok.col,
                                message: format!(
                                    "re-acquiring lock `{lock_name}` while a guard for it \
                                     is still alive: self-deadlock"
                                ),
                            });
                        } else {
                            edges.push(LockEdge {
                                held: g.lock.clone(),
                                acquired: lock_name.clone(),
                                path: file.path.clone(),
                                line: tok.line,
                                col: tok.col,
                            });
                        }
                    }
                    // `.lock().unwrap()` / `.lock().expect(` under a held lock.
                    if !guards.is_empty()
                        && i + 4 < n
                        && file.code_text(i + 3) == "."
                        && matches!(file.code_text(i + 4), "unwrap" | "expect")
                    {
                        out.push(Diagnostic {
                            rule: "lock-panic",
                            path: file.path.clone(),
                            line: tok.line,
                            col: tok.col,
                            message: format!(
                                "`.lock().{}()` while holding `{}`: a poison panic here \
                                 wedges every thread queued on the outer lock",
                                file.code_text(i + 4),
                                guards
                                    .last()
                                    .map(|g| g.lock.as_str())
                                    .unwrap_or("another lock"),
                            ),
                        });
                    }
                    guards.push(Guard {
                        binding: pending_let.take(),
                        lock: lock_name,
                        depth,
                        temporary: false,
                    });
                    // A guard not captured by a simple let is statement-scoped.
                    if let Some(last) = guards.last_mut() {
                        last.temporary = last.binding.is_none();
                    }
                }
                i += 2; // skip the `(` `)` we already consumed
                statement_start = false;
            }
            _ => {
                statement_start = false;
            }
        }
        i += 1;
    }
}

/// Normalized name of the receiver of the `.` at code position `at - 1`
/// (where `at` is the `lock` ident): the nearest path segment, with `()`
/// appended when it is a call.
fn receiver_name(file: &SourceFile, at: usize) -> String {
    if at < 2 {
        return "<expr>".into();
    }
    let j = at - 2;
    let text = file.code_text(j);
    if file.code_token(j).kind == crate::lexer::TokenKind::Ident {
        return text.to_string();
    }
    if text == ")" {
        // Walk back over the call's parens to the callee ident.
        let mut depth = 0usize;
        let mut k = j;
        loop {
            match file.code_text(k) {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if k == 0 {
                return "<expr>".into();
            }
            k -= 1;
        }
        if k > 0 && file.code_token(k - 1).kind == crate::lexer::TokenKind::Ident {
            return format!("{}()", file.code_text(k - 1));
        }
    }
    "<expr>".into()
}

/// Workspace-wide cycle detection over the collected edges. Every edge
/// that participates in a cycle gets a diagnostic at its site, naming a
/// witness edge for the reverse direction.
pub fn cycles(edges: &[LockEdge]) -> Vec<Diagnostic> {
    // Adjacency over unique (held → acquired) pairs.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.held.as_str())
            .or_default()
            .insert(e.acquired.as_str());
    }
    let reachable = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if !seen.insert(x) {
                continue;
            }
            if let Some(next) = adj.get(x) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    let mut out = Vec::new();
    for e in edges {
        if reachable(&e.acquired, &e.held) {
            let witness = edges
                .iter()
                .find(|w| w.held == e.acquired && reachable(&w.acquired, &e.held))
                .map(|w| format!(" (reverse order at {}:{})", w.path.display(), w.line))
                .unwrap_or_default();
            out.push(Diagnostic {
                rule: "lock-order",
                path: e.path.clone(),
                line: e.line,
                col: e.col,
                message: format!(
                    "acquiring `{}` while holding `{}` completes a lock cycle{witness}; \
                     pick one acquisition order",
                    e.acquired, e.held
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};
    use std::path::PathBuf;

    fn run(src: &str) -> (Vec<LockEdge>, Vec<Diagnostic>) {
        let f = SourceFile::new(
            PathBuf::from("crates/x/src/lib.rs"),
            src.to_string(),
            FileKind::Lib,
        );
        let mut edges = Vec::new();
        let mut out = Vec::new();
        check(&f, &mut edges, &mut out);
        (edges, out)
    }

    #[test]
    fn nested_lock_records_an_edge() {
        let (edges, out) = run(
            "fn f(&self) { let a = self.state.lock(); let b = self.cache.lock(); use_(a, b); }",
        );
        assert_eq!(edges.len(), 1);
        assert_eq!(
            (edges[0].held.as_str(), edges[0].acquired.as_str()),
            ("state", "cache")
        );
        assert!(out.is_empty());
    }

    #[test]
    fn sequential_blocks_do_not_overlap() {
        let (edges, _) = run("fn f(&self) { { let a = self.state.lock(); touch(a); } \
             let b = self.workers.lock(); touch(b); }");
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn drop_releases_the_guard() {
        let (edges, _) = run("fn f(&self) { let a = self.state.lock(); drop(a); \
             let b = self.workers.lock(); touch(b); }");
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let (edges, _) = run(
            "fn f(&self) { *self.slot(0, 1).lock() = 1; let b = self.other.lock(); touch(b); }",
        );
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn receiver_normalization_unifies_paths() {
        let (edges, _) = run(
            "fn f(&self) { let a = self.inner.state.lock(); let b = inner.cache.lock(); \
             touch(a, b); }",
        );
        assert_eq!(
            (edges[0].held.as_str(), edges[0].acquired.as_str()),
            ("state", "cache")
        );
    }

    #[test]
    fn call_receiver_gets_parens_suffix() {
        let (edges, _) = run(
            "fn f(&self) { let a = self.state.lock(); let b = self.slot(1, 2).lock(); \
             touch(a, b); }",
        );
        assert_eq!(edges[0].acquired, "slot()");
    }

    #[test]
    fn reacquisition_is_flagged() {
        let (_, out) = run(
            "fn f(&self) { let a = self.state.lock(); let b = self.state.lock(); touch(a, b); }",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("re-acquiring"));
    }

    #[test]
    fn lock_unwrap_while_holding_is_flagged() {
        let (_, out) = run(
            "fn f(&self) { let a = self.state.lock(); let b = self.cache.lock().unwrap(); \
             touch(a, b); }",
        );
        assert!(out.iter().any(|d| d.rule == "lock-panic"), "{out:?}");
    }

    #[test]
    fn lock_unwrap_with_nothing_held_is_not_lock_panic() {
        let (_, out) = run("fn f(&self) { let a = self.state.lock().unwrap(); touch(a); }");
        assert!(out.iter().all(|d| d.rule != "lock-panic"), "{out:?}");
    }

    #[test]
    fn condvar_wait_reassignment_keeps_guard_held() {
        let (edges, _) = run("fn f(&self) { let mut state = self.state.lock(); \
             while go() { state = self.cv.wait(state); } \
             let b = self.cache.lock(); touch(state, b); }");
        assert_eq!(edges.len(), 1, "{edges:?}");
        assert_eq!(edges[0].acquired, "cache");
    }

    #[test]
    fn cycle_detection_reports_both_edges() {
        let (mut e1, _) = run(
            "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); touch(a, b); }",
        );
        let (e2, _) = run(
            "fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); touch(a, b); }",
        );
        e1.extend(e2);
        let diags = cycles(&e1);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "lock-order"));
        assert!(diags[0].message.contains("reverse order at"));
    }

    #[test]
    fn acyclic_graph_is_clean() {
        let (mut e1, _) = run(
            "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); touch(a, b); }",
        );
        let (e2, _) = run(
            "fn g(&self) { let b = self.beta.lock(); let c = self.gamma.lock(); touch(b, c); }",
        );
        e1.extend(e2);
        assert!(cycles(&e1).is_empty());
    }

    #[test]
    fn locks_in_test_modules_are_ignored() {
        let (edges, out) = run(
            "#[cfg(test)]\nmod tests { fn f(&self) { let a = self.x.lock(); \
             let b = self.y.lock(); touch(a, b); } }",
        );
        assert!(edges.is_empty());
        assert!(out.is_empty());
    }
}
