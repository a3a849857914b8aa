//! Staged-vs-fused end-to-end pipeline bench driver: measures the K1→K2
//! data path, the staged serial baseline against the fused path at each
//! thread count, with every repetition gated on a bit-identical matrix,
//! filter stats and sorted-stream digest, and writes
//! `BENCH_pipeline.json`.
//!
//! ```text
//! cargo run --release -p ppbench-bench --bin pipebench -- --scales 10:11 --threads 1,2
//! cargo run -p ppbench-bench --bin pipebench -- --check BENCH_pipeline.json
//! ```

use std::process::ExitCode;

use ppbench_bench::cli::{self, Flag};
use ppbench_bench::pipe::SweepConfig;
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
    Flag::value("--num-files", "N", |c, v| {
        v.parse().ok().map(|n| c.num_files = n)
    }),
    Flag::value("--trials", "N", |c, v| {
        parse_positive(v).map(|n| c.trials = n)
    }),
];

fn main() -> ExitCode {
    cli::main("pipebench", FLAGS)
}
