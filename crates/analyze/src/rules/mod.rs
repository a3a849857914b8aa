//! The rule set: identifiers, descriptions, and per-rule entry points.
//!
//! Each rule scans a [`SourceFile`]'s code-token view (comments, strings,
//! and `#[cfg(test)]` modules already excluded by the lexer/source
//! layers), the structural ones through the file's
//! [`Structure`](crate::parse::Structure). Every finding is an error: the
//! rules state invariants of concurrent code that clippy cannot express,
//! and a false positive is fixed in the rule or the code, not waived.

pub mod accum;
pub mod condvar;
pub mod joins;
pub mod locks;

/// Every rule with its one-line description, in the order
/// `--list-rules` prints them.
pub const RULES: &[(&str, &str)] = &[
    (
        "lock-order",
        "no lock-acquisition cycles or same-lock re-acquisition",
    ),
    (
        "lock-panic",
        "no .lock().unwrap()/expect() while already holding a lock",
    ),
    (
        "condvar-wait",
        "Condvar::wait / wait_timeout only inside a predicate re-check loop",
    ),
    (
        "join-order",
        "drop channel endpoints before joining the threads that drain them",
    ),
    (
        "shared-accumulator",
        "no indexed compound assignment inside a parallel closure (false sharing)",
    ),
];
