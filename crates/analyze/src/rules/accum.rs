//! `shared-accumulator` — the false-sharing shape suspected behind
//! ROADMAP item 1 (parallel variants losing to serial).
//!
//! Inside a parallel closure, a compound assignment **through an index**
//! (`out[v] += …`, `hist[d] |= …`) means neighbouring iterations from
//! different threads write adjacent elements of one shared buffer: every
//! such write invalidates the cache line for every other core, and the
//! "parallel" kernel serializes on coherence traffic. The fix this
//! workspace uses everywhere it matters is per-chunk local accumulators
//! merged after the join (see `sparse/src/spmv.rs::step_fused`).
//!
//! Two shapes count as a parallel closure region:
//!
//! * the argument list of a call whose callee ident is `spawn`
//!   (`thread::spawn`, `scope.spawn`, builder `.spawn`);
//! * the argument list of a combinator (`map`, `for_each`, `fold`,
//!   `reduce`, `filter`, `inspect`) whose receiver chain mentions a
//!   `par_`-prefixed iterator source (`into_par_iter`, `par_chunks_mut`,
//!   …) earlier in the same statement.
//!
//! Inside such a region the trigger is the token shape `] op=` (the `]`
//! closing an index expression, immediately followed by a compound
//! assignment operator). Plain `=` through `iter_mut` and compound
//! assignment to scalar locals (`delta += …`) stay silent — those are the
//! sanctioned patterns. It is a heuristic, but the workspace has no
//! finding, so like every rule it reports as an error.

use crate::diag::Diagnostic;
use crate::parse::Structure;
use crate::source::SourceFile;

/// Combinators that run a user closure per element.
const PAR_COMBINATORS: &[&str] = &["map", "for_each", "fold", "reduce", "filter", "inspect"];

/// Scans one file for indexed compound assignments inside parallel
/// closure regions.
pub fn check(file: &SourceFile, structure: &Structure, out: &mut Vec<Diagnostic>) {
    let n = file.code_len();
    for i in 0..n {
        let text = file.code_text(i);
        let is_spawn = text == "spawn";
        let is_combinator = PAR_COMBINATORS.contains(&text);
        if !is_spawn && !is_combinator {
            continue;
        }
        if i + 1 >= n || file.code_text(i + 1) != "(" {
            continue;
        }
        if file.in_test_code(i) {
            continue;
        }
        if is_combinator && !(is_method_call(file, i) && par_chain_before(file, i)) {
            continue;
        }
        let Some(close) = structure.matching(i + 1) else {
            continue;
        };
        scan_region(file, i + 2, close, out);
    }
}

/// True when the ident at `i` is called as a method (`.name(`).
fn is_method_call(file: &SourceFile, i: usize) -> bool {
    i > 0 && file.code_text(i - 1) == "."
}

/// Walks the receiver chain backwards from the `.` before code index `i`
/// to the start of the statement, looking for a `par_`-style iterator
/// source. Matched delimiter groups are stepped over token-by-token (their
/// contents cannot start the chain, but idents inside argument lists are
/// harmless to inspect — `par_iter` appearing anywhere in the statement's
/// receiver expression is evidence enough for a heuristic).
fn par_chain_before(file: &SourceFile, i: usize) -> bool {
    let mut j = i - 1; // the `.`
    while j > 0 {
        j -= 1;
        let t = file.code_text(j);
        if matches!(t, ";" | "{" | "}") {
            return false;
        }
        if t.starts_with("par_") || t == "into_par_iter" {
            return true;
        }
    }
    false
}

/// Reports every `] op=` inside `[from, to)`.
fn scan_region(file: &SourceFile, from: usize, to: usize, out: &mut Vec<Diagnostic>) {
    for i in from..to {
        if file.code_text(i) != "]" || i + 2 >= to {
            continue;
        }
        let op = file.code_token(i + 1);
        let eq = file.code_token(i + 2);
        let op_text = op.text(&file.text);
        // Compound assignment: the operator and `=` must be adjacent bytes
        // (`+` `=` from `+=`), distinguishing `out[v] += x` from
        // `a[i] + b = …`-style accidents and from `m[k] == x` comparisons.
        if matches!(op_text, "+" | "-" | "*" | "/" | "%" | "|" | "&" | "^")
            && eq.text(&file.text) == "="
            && op.end == eq.start
            && (i + 3 >= to || file.code_text(i + 3) != "=")
        {
            out.push(Diagnostic {
                rule: "shared-accumulator",
                path: file.path.clone(),
                line: op.line,
                col: op.col,
                message: format!(
                    "indexed `{op_text}=` inside a parallel closure: adjacent indices \
                     written from different threads share cache lines and the kernel \
                     serializes on coherence traffic — accumulate into a per-chunk \
                     local and merge after the join"
                ),
            });
        }
    }
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
    fn indexed_add_assign_in_spawn_is_flagged() {
        let out = run("fn f(out: &mut [f64]) { scope.spawn(move || { \
             for v in lo..hi { out[v] += gather(v); } }); }");
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "shared-accumulator");
    }

    #[test]
    fn indexed_or_assign_in_par_for_each_is_flagged() {
        let out = run(
            "fn f(bits: &mut [u64]) { (0..n).into_par_iter().for_each(|i| { \
             bits[i / 64] |= 1 << (i % 64); }); }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn serial_indexed_add_assign_is_clean() {
        let out = run("fn f(out: &mut [f64]) { for v in 0..n { out[v] += gather(v); } }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn local_scalar_accumulator_in_par_map_is_clean() {
        // The sanctioned shape: chunk-local scalars, `*o =` writes.
        let out = run(
            "fn f(out: &mut [f64]) { let p: Vec<f64> = chunks(out).into_par_iter().map(|(s, lo)| { \
             let mut delta = 0.0; for (k, o) in s.iter_mut().enumerate() { \
             let next = gather(lo + k); delta += next; *o = next; } delta }).collect(); use_(p); }",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn serial_map_combinator_is_clean() {
        let out = run("fn f(a: &mut [u64]) { (0..n).map(|i| { a[i] += 1; }).count(); }");
        assert!(
            out.is_empty(),
            "a serial map is not a parallel region: {out:?}"
        );
    }

    #[test]
    fn index_comparison_in_par_closure_is_clean() {
        let out = run("fn f(a: &[u64]) { (0..n).into_par_iter().for_each(|i| { \
             if a[i] == 0 { mark(i); } }); }");
        assert!(out.is_empty(), "`==` is not a compound assignment: {out:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let out = run("#[cfg(test)] mod tests { fn f(out: &mut [f64]) { \
             scope.spawn(move || { out[0] += 1.0; }); } }");
        assert!(out.is_empty(), "{out:?}");
    }
}
