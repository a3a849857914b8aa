//! The rule set: identifiers, crate scopes, and per-rule entry points.
//!
//! Each rule is a lexical pass over a [`SourceFile`]'s code-token view
//! (comments, strings, and `#[cfg(test)]` modules already excluded by
//! the lexer/source layers). Scopes confine a rule to the crates where
//! its invariant is load-bearing — e.g. wall-clock reads are the whole
//! point of the serving and bench crates, but a determinism hazard in a
//! kernel crate.

pub mod accum;
pub mod condvar;
pub mod determinism;
pub mod drift;
pub mod hygiene;
pub mod joins;
pub mod locks;
pub mod panics;

use crate::source::SourceFile;

/// Every rule id, in the order `--list-rules` prints them. `waiver` is
/// the meta-rule for malformed waivers and `stale-waiver` for waivers
/// that no longer suppress anything; neither can itself be waived.
pub const ALL_RULES: &[&str] = &[
    "panic",
    "indexing",
    "time-source",
    "hash-iteration",
    "env-dependence",
    "lock-order",
    "lock-panic",
    "condvar-wait",
    "join-order",
    "shared-accumulator",
    "config-drift",
    "forbid-unsafe",
    "discarded-result",
    "waiver",
    "stale-waiver",
];

/// How severe a rule's findings are. Errors gate CI; warnings are
/// heuristic findings budgeted by the committed baseline (they may only
/// ratchet downward).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Heuristic finding: review it, budget it in the baseline if sound.
    Warning,
    /// Hard invariant: fails the analyzer run.
    Error,
}

impl Severity {
    /// Lowercase label used in text and SARIF output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The intrinsic severity of a rule. `shared-accumulator` is a heuristic
/// (a compound assignment through an index inside a parallel closure is
/// *suspicious*, not proven wrong), so it warns; everything else states
/// an invariant and errors.
pub fn severity_of(rule: &str) -> Severity {
    match rule {
        "shared-accumulator" => Severity::Warning,
        _ => Severity::Error,
    }
}

/// One-line description per rule, aligned with [`ALL_RULES`].
pub const RULE_DESCRIPTIONS: &[(&str, &str)] = &[
    (
        "panic",
        "no unwrap/expect/panic!/todo!/unimplemented! in library code",
    ),
    (
        "indexing",
        "no panicking slice indexing in the serving crates",
    ),
    (
        "time-source",
        "no Instant/SystemTime in kernel crates outside timing.rs",
    ),
    (
        "hash-iteration",
        "no HashMap/HashSet where iteration order could leak into results",
    ),
    (
        "env-dependence",
        "no environment or thread-count reads in kernel result paths",
    ),
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
    (
        "config-drift",
        "canonical config fields, the serve parser, and the config hash stay in lockstep",
    ),
    (
        "forbid-unsafe",
        "every crate root carries #![forbid(unsafe_code)]",
    ),
    (
        "discarded-result",
        "no `let _ =` discarding a value in library code",
    ),
    (
        "waiver",
        "waivers must name a known rule and carry a reason",
    ),
    (
        "stale-waiver",
        "a waiver whose rule no longer fires on its line must be deleted",
    ),
];

/// Crates on the kernel result path: anything here that reads a clock,
/// iterates a randomized-order container, or consults the environment
/// can break bit-reproducibility (the paper's Table II checksums).
pub const KERNEL_CRATES: &[&str] = &[
    "ppbench",
    "ppbench-algo",
    "ppbench-core",
    "ppbench-dist",
    "ppbench-frame",
    "ppbench-gen",
    "ppbench-io",
    "ppbench-prng",
    "ppbench-sort",
    "ppbench-sparse",
];

/// Crates whose output is hashed or serialized: the kernel crates plus
/// the service (cache identity) and the bench harness (figures/tables).
pub const HASHED_OUTPUT_CRATES: &[&str] = &[
    "ppbench",
    "ppbench-algo",
    "ppbench-bench",
    "ppbench-core",
    "ppbench-dist",
    "ppbench-frame",
    "ppbench-gen",
    "ppbench-io",
    "ppbench-prng",
    "ppbench-serve",
    "ppbench-sort",
    "ppbench-sparse",
];

/// Long-running crates where an out-of-bounds panic takes down a worker
/// under load; elsewhere slice indexing with proven bounds is idiomatic
/// kernel code.
pub const INDEXING_CRATES: &[&str] = &["ppbench-serve", "ppbench-dist"];

/// True when `rule` applies to `file` at all (scope check only; the
/// production-surface and cfg(test) checks happen elsewhere).
pub fn in_scope(rule: &str, file: &SourceFile) -> bool {
    let name = file.crate_name.as_str();
    match rule {
        "indexing" => INDEXING_CRATES.contains(&name),
        "time-source" => {
            KERNEL_CRATES.contains(&name)
                && file
                    .path
                    .file_name()
                    .map(|f| f != "timing.rs")
                    .unwrap_or(true)
        }
        "hash-iteration" => HASHED_OUTPUT_CRATES.contains(&name),
        "env-dependence" => {
            KERNEL_CRATES.contains(&name) || name == "ppbench-serve" || name == "ppbench-bench"
        }
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;
    use std::path::PathBuf;

    fn file(path: &str, crate_name: &str) -> SourceFile {
        SourceFile::new(
            PathBuf::from(path),
            String::new(),
            crate_name.into(),
            FileKind::Lib,
        )
    }

    #[test]
    fn descriptions_cover_every_rule() {
        assert_eq!(ALL_RULES.len(), RULE_DESCRIPTIONS.len());
        for (rule, (desc_rule, _)) in ALL_RULES.iter().zip(RULE_DESCRIPTIONS) {
            assert_eq!(rule, desc_rule);
        }
    }

    #[test]
    fn timing_rs_is_out_of_time_source_scope() {
        let f = file("crates/core/src/timing.rs", "ppbench-core");
        assert!(!in_scope("time-source", &f));
        let g = file("crates/core/src/model.rs", "ppbench-core");
        assert!(in_scope("time-source", &g));
    }

    #[test]
    fn serve_is_out_of_time_scope_but_in_hash_scope() {
        let f = file("crates/serve/src/service.rs", "ppbench-serve");
        assert!(!in_scope("time-source", &f));
        assert!(in_scope("hash-iteration", &f));
        assert!(in_scope("indexing", &f));
        assert!(in_scope("panic", &f));
    }

    #[test]
    fn kernel_crate_indexing_is_out_of_scope() {
        let f = file("crates/sparse/src/csr.rs", "ppbench-sparse");
        assert!(!in_scope("indexing", &f));
        assert!(in_scope("time-source", &f));
    }
}
