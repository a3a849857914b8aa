//! # ppbench — PageRank Pipeline Benchmark
//!
//! Facade crate for the PageRank Pipeline Benchmark workspace, a Rust
//! reproduction of Dreher et al., *"PageRank Pipeline Benchmark: Proposal for
//! a Holistic System Benchmark for Big-Data Platforms"* (IPPS 2016).
//!
//! The benchmark is four mathematically specified kernels run as a pipeline:
//!
//! | Kernel | Stage | Metric |
//! |---|---|---|
//! | K0 | generate a Graph500 power-law edge list and write it to files | untimed (measured for Fig. 4) |
//! | K1 | read, sort by start vertex, rewrite | edges/second |
//! | K2 | read, build sparse adjacency, filter, normalize | edges/second |
//! | K3 | 20 PageRank iterations via sparse matrix–vector multiply | 20·edges/second |
//!
//! This crate re-exports the whole substrate stack; see each sub-crate for
//! the details:
//!
//! * [`prng`] — deterministic random number generation
//! * [`gen`] — graph generators (Kronecker / perfect-power-law / Erdős–Rényi)
//! * [`io`] — tab-separated edge files, manifests, checksums
//! * [`sort`] — in-memory, external and parallel edge sorting
//! * [`frame`] — a minimal columnar dataframe (the "Pandas" execution style)
//! * [`sparse`] — sparse matrices, GraphBLAS-style ops, the eigensolver
//! * [`algo`] — GAP-style analytics workloads (BFS, CC, SSSP, TC)
//! * [`core`] — the four kernels, pipeline backends, timing and validation
//! * [`dist`] — simulated distributed-memory execution with communication accounting
//! * [`serve`] — benchmark-as-a-service: job queue, result cache, HTTP API
//!
//! # Quickstart
//!
//! ```
//! use ppbench::core::{Pipeline, PipelineConfig};
//!
//! let cfg = PipelineConfig::builder()
//!     .scale(8)          // 2^8 = 256 vertices, 4096 edges
//!     .seed(1)
//!     .build();
//! let tmp = std::env::temp_dir().join(format!("ppbench-doc-{}", std::process::id()));
//! let result = Pipeline::new(cfg, &tmp).run().unwrap();
//! println!("{}", result.summary());
//! assert_eq!(result.kernel3.as_ref().unwrap().ranks.len(), 256);
//! std::fs::remove_dir_all(&tmp).ok();
//! ```

#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub use ppbench_algo as algo;
pub use ppbench_core as core;
pub use ppbench_dist as dist;
pub use ppbench_frame as frame;
pub use ppbench_gen as gen;
pub use ppbench_io as io;
pub use ppbench_prng as prng;
pub use ppbench_serve as serve;
pub use ppbench_sort as sort;
pub use ppbench_sparse as sparse;
