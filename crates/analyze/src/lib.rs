//! `ppbench-analyze` — a from-scratch workspace lint pass for the
//! concurrency invariants of the serving stack and the parallel kernels:
//! **no deadlock, no lost wakeup, no false sharing under load**. These
//! are the rules rustc and clippy cannot express.
//!
//! Everything else the benchmark relies on is enforced by the toolchain
//! (see DESIGN.md §8):
//!
//! | Invariant | Enforced by |
//! |---|---|
//! | no `unsafe` anywhere | `[workspace.lints.rust] unsafe_code = "forbid"` |
//! | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` | `[workspace.lints.clippy]` |
//! | no `let _ =` discards | `[workspace.lints.clippy] let_underscore_untyped` |
//! | no panicking indexing in `ppbench-serve`/`ppbench-dist` | `#![warn(clippy::indexing_slicing)]` in their crate roots |
//! | no clock, `HashMap`/`HashSet` or environment reads on the result path | `disallowed-types`/`disallowed-methods` in `clippy.toml` |
//!
//! Every package but the vendored shims opts into the lint table with
//! `[lints] workspace = true`. The escape hatch is a local
//! `#[expect(lint, reason = "...")]`: rustc reports it once nothing
//! fires under it, and a root integration test holds the count per lint.
//!
//! No rustc plumbing, no syn: a hand-rolled comment/string/lifetime-aware
//! [`lexer`] feeds two analysis layers. The token layer sees the code
//! token stream; the structure layer ([`parse`]) adds a delimiter match
//! map, `fn` items, and loop ranges per file. Rules:
//!
//! | Rule | Layer | Invariant |
//! |---|---|---|
//! | `lock-order` | token | no cycles in the workspace lock-acquisition graph |
//! | `lock-panic` | token | no `.lock().unwrap()` while already holding a lock |
//! | `condvar-wait` | structure | every single-guard `Condvar::wait` sits inside a loop (spurious wakeups) |
//! | `join-order` | structure | channel endpoints drop before the consuming thread is joined |
//! | `shared-accumulator` | structure | no indexed compound-assign into shared buffers inside parallel closures |
//!
//! Every finding is an error. There is no waiver: a false positive is
//! fixed in the rule or the code. Findings can also be rendered as SARIF
//! 2.1.0 ([`sarif`]) for code-scanning upload.
//!
//! Tests, benches, examples, and `#[cfg(test)]` modules are exempt, here
//! as in the clippy gate. The vendored `shims/` crates are excluded:
//! they mirror third-party APIs, not project invariants.
//!
//! Run it exactly as CI does:
//!
//! ```text
//! cargo run -p ppbench-analyze -- --workspace --format sarif --out analyze.sarif
//! ```

#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod sarif;
pub mod source;
pub mod walk;

pub use diag::Diagnostic;
pub use engine::analyze;
pub use source::{FileKind, SourceFile};
