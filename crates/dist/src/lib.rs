//! Simulated distributed-memory execution of the PageRank pipeline.
//!
//! The paper describes, for each timed kernel, how a parallel
//! implementation would decompose (§IV.B–D):
//!
//! * kernel 1: "the communication required to sort the data" dominates —
//!   a distributed sort shuffles every edge to the worker that owns its
//!   start vertex;
//! * kernel 2: "each processor hold\[s\] a set of rows … the in-degree info
//!   will need to be aggregated and the selected vertices for elimination
//!   broadcast. This part of this kernel can characterize the relevant
//!   network communication capabilities of a big-data system";
//! * kernel 3: "each processor would compute its own value of r that would
//!   be summed across all processors and broadcast back to every
//!   processor. This is … likely to be limited by network communication."
//!
//! This crate executes exactly that decomposition on an in-process
//! "cluster":
//! one OS thread per worker, a BSP-style [`fabric`] whose collectives
//! (all-to-all, all-reduce, broadcast) count every byte they move, and a
//! row-block [`partition`] of the vertex space. The result is (a) a
//! correctness check — the distributed pipeline must reproduce the serial
//! ranks — and (b) the paper's promised communication-volume measurements
//! for the parallel-computation models.

//!
//! # Example
//!
//! ```
//! use ppbench_core::{PipelineConfig, ValidationLevel};
//! use ppbench_dist::{run_distributed, DistConfig};
//!
//! let pipeline = PipelineConfig::builder()
//!     .scale(6)
//!     .edge_factor(4)
//!     .validation(ValidationLevel::None)
//!     .build();
//! let out = run_distributed(&DistConfig { pipeline, workers: 3 });
//! assert_eq!(out.ranks.len(), 64);
//! assert!(out.comm_k3.bytes > 0, "rank reductions cross rank boundaries");
//! ```

#![deny(unreachable_pub)]
#![warn(missing_docs)]
// Long-running cluster code must not die on an out-of-bounds index
// (test code indexes freely, as everywhere else).
#![cfg_attr(not(test), warn(clippy::indexing_slicing))]

pub mod fabric;
pub mod partition;
mod pipeline;

pub use fabric::{CommStats, Fabric};
pub use partition::Partition;
pub use pipeline::{run_distributed, DistConfig, DistResult};

#[cfg(test)]
mod tests {
    // Integration-style tests live in pipeline.rs and the workspace tests.
}
