//! Kernel-3 microbench driver: sweeps the SpMV variants (serial scatter
//! and gather, the nnz-balanced fused kernel over narrow indices) over
//! thread counts and scales and writes `BENCH_k3.json`.
//!
//! ```text
//! cargo run --release -p ppbench-bench --bin k3bench -- --scales 10:12 --threads 1,2
//! cargo run -p ppbench-bench --bin k3bench -- --check BENCH_k3.json
//! ```

use std::process::ExitCode;

use ppbench_bench::cli::{self, Flag};
use ppbench_bench::k3::SweepConfig;
use ppbench_bench::{parse_positive, parse_scale_list, parse_thread_list};

const FLAGS: &[Flag<SweepConfig>] = &[
    Flag::value("--scales", "LO:HI,N,...", |c, v| {
        parse_scale_list(v).map(|n| c.scales = n)
    }),
    Flag::value("--threads", "N,N,...", |c, v| {
        parse_thread_list(v).map(|n| c.threads = n)
    }),
    Flag::value("--edge-factor", "K", |c, v| {
        v.parse().ok().map(|n| c.edge_factor = n)
    }),
    Flag::value("--seed", "N", |c, v| v.parse().ok().map(|n| c.seed = n)),
    Flag::value("--iterations", "N", |c, v| {
        v.parse().ok().map(|n| c.iterations = n)
    }),
    Flag::value("--damping", "C", |c, v| {
        v.parse().ok().map(|n| c.damping = n)
    }),
    Flag::value("--trials", "N", |c, v| {
        parse_positive(v).map(|n| c.trials = n)
    }),
];

fn main() -> ExitCode {
    cli::main("k3bench", FLAGS)
}
