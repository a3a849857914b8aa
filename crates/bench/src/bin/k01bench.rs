//! K0→K1 front-end microbench driver: sweeps the kernel-0 write
//! strategies (materialize, stream, sharded) under each R-MAT sampler and
//! the kernel-1 sort paths (in-memory, external, pipelined) over thread
//! counts and scales and writes `BENCH_k01.json`. The max-scale caps let
//! one sweep mix a full comparison matrix at moderate scales with
//! linear-only kernel-0 stress points at the top end.
//!
//! ```text
//! cargo run --release -p ppbench-bench --bin k01bench -- --scales 16:18,22 --threads 1,2
//! cargo run -p ppbench-bench --bin k01bench -- --check BENCH_k01.json
//! ```

use std::process::ExitCode;

use ppbench_bench::cli::{self, Flag};
use ppbench_bench::k01::SweepConfig;
use ppbench_bench::{parse_list, parse_positive, parse_scale_list, parse_thread_list};
use ppbench_gen::RmatSampler;

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
    Flag::value("--budget-divisor", "D", |c, v| {
        parse_positive(v).map(|n| c.budget_divisor = n)
    }),
    Flag::value("--trials", "N", |c, v| {
        parse_positive(v).map(|n| c.trials = n)
    }),
    Flag::value("--gens", "faithful,linear", |c, v| {
        parse_list(v, RmatSampler::parse).map(|n| c.gens = n)
    }),
    Flag::value("--faithful-max-scale", "S", |c, v| {
        v.parse().ok().map(|n| c.faithful_max_scale = Some(n))
    }),
    Flag::value("--k1-max-scale", "S", |c, v| {
        v.parse().ok().map(|n| c.k1_max_scale = Some(n))
    }),
];

fn main() -> ExitCode {
    cli::main("k01bench", FLAGS)
}
