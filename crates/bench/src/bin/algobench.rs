//! Analytics-workload microbench driver: sweeps BFS, CC, SSSP and TC
//! (serial oracle plus the optimized kernel at each thread count) over
//! the kernel-2 matrices the pipeline produces and writes
//! `BENCH_algo.json`.
//!
//! ```text
//! cargo run --release -p ppbench-bench --bin algobench -- --scales 8:9 --threads 1,2
//! cargo run -p ppbench-bench --bin algobench -- --check BENCH_algo.json
//! ```

use std::process::ExitCode;

use ppbench_bench::algo::SweepConfig;
use ppbench_bench::cli::{self, Flag};
use ppbench_bench::{parse_scale_list, parse_thread_list};

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
];

fn main() -> ExitCode {
    cli::main("algobench", FLAGS)
}
