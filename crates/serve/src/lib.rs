//! Benchmark-as-a-service: a long-lived HTTP service over
//! [`ppbench_core::Pipeline`](ppbench_core).
//!
//! The paper frames the pipeline as a batch program; this crate turns it
//! into infrastructure. A [`Service`] owns a bounded submission queue, a
//! worker pool executing pipeline runs, and a result cache keyed by the
//! canonical hash of the configuration (the pipeline is deterministic, so
//! an identical config needs no re-run). An [`HttpServer`] exposes it
//! over a hand-rolled HTTP/1.1 API:
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /runs` | Submit a config (JSON); 429 when the queue is full |
//! | `GET /runs/{id}` | Job state, timings, validation outcome |
//! | `GET /runs/{id}/ranks?top=K` | Top-K PageRank vertices, bit-exact |
//! | `DELETE /runs/{id}` | Cancel a queued job |
//! | `GET /healthz` | Liveness and drain state |
//! | `GET /metrics` | Prometheus text metrics |
//! | `POST /shutdown` | Graceful drain: finish accepted jobs, then stop |
//!
//! The front end is a single-threaded nonblocking event loop (see
//! [`http`]) that multiplexes thousands of connections; identical configs
//! submitted while a run is in flight coalesce onto it (one pipeline run,
//! N waiters); the result cache is tiered, with a byte-budgeted in-memory
//! LRU over an on-disk canonical-JSON store ([`cache::DiskCache`]) that
//! survives restarts; and per-client admission control caps in-flight
//! jobs per source IP. The [`loadgen`] module is the matching open-loop
//! load driver.
//!
//! Everything is `std`-only: no async runtime, no serde, no HTTP
//! framework. The `ppserved` binary wires a service to a listener;
//! `examples/loadgen.rs` exercises one over the wire.

#![deny(unreachable_pub)]
#![warn(missing_docs)]
// Long-running serving code must not die on an out-of-bounds index
// (test code indexes freely, as everywhere else).
#![cfg_attr(not(test), warn(clippy::indexing_slicing))]

pub mod cache;
pub mod client;
pub mod http;
pub mod job;
pub mod loadgen;
pub mod metrics;
pub mod service;

pub use cache::{DiskCache, ResultCache};
pub use client::{http_request, HttpResponse};
pub use http::{HttpServer, ServerConfig};
pub use job::{Job, JobId, JobState, RunSummary};
pub use loadgen::{run_load, LoadConfig, LoadReport};
pub use metrics::{Gauges, Metrics};
pub use service::{CancelOutcome, Service, ServiceConfig, SubmitError, SubmitReceipt};
