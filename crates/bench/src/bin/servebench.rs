//! Serving-layer bench driver: starts a server (in-process by default;
//! `--spawn` runs the sibling `ppserved` binary in its own process so
//! driver and server each get their own fd budget, which 10k+ connection
//! bursts need), prewarms one pipeline config, measures open-loop rows at
//! each offered rate and burst rows at each connection count, and writes
//! `BENCH_serve.json`.
//!
//! ```text
//! cargo run --release -p ppbench-bench --bin servebench -- --rates 500,1000 --bursts 256
//! cargo run -p ppbench-bench --bin servebench -- --check BENCH_serve.json
//! ```

use std::process::ExitCode;

use ppbench_bench::cli::{self, Flag};
use ppbench_bench::serve::SweepConfig;
use ppbench_bench::{parse_positive, parse_rate_list, parse_thread_list};

const FLAGS: &[Flag<SweepConfig>] = &[
    Flag::value("--scale", "N", |c, v| v.parse().ok().map(|n| c.scale = n)),
    Flag::value("--edge-factor", "K", |c, v| {
        v.parse().ok().map(|n| c.edge_factor = n)
    }),
    Flag::value("--seed", "N", |c, v| v.parse().ok().map(|n| c.seed = n)),
    Flag::value("--workers", "N", |c, v| {
        parse_positive(v).map(|n| c.workers = n)
    }),
    Flag::value("--rates", "R,R,...", |c, v| {
        parse_rate_list(v).map(|n| c.rates = n)
    }),
    Flag::value("--requests", "N", |c, v| {
        parse_positive(v).map(|n| c.requests = n)
    }),
    Flag::value("--bursts", "N,N,...", |c, v| {
        parse_thread_list(v).map(|n| c.bursts = n)
    }),
    Flag::switch("--spawn", |c, _| {
        c.spawn = true;
        Some(())
    }),
];

fn main() -> ExitCode {
    cli::main("servebench", FLAGS)
}
