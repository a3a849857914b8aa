//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pipeline-fused|pipeline-staged> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` it prints the end-to-end
//! metrics, with `--trace 1` the per-layer ones (including a probe of the
//! `ppserved` service); each as a `metric` line with unit and sample count,
//! then one JSON result line. It exits non-zero
//! when any correctness check fails. See `README.md` beside this crate.

mod host;
mod http;
mod layers;
mod load;
mod pipe;
mod report;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use host::Host;
use report::Outcome;

/// The workloads, by name.
const WORKLOADS: [&pipe::PipeSpec; 2] = [&pipe::FUSED, &pipe::STAGED];

struct Args {
    workload: &'static pipe::PipeSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = WORKLOADS.into_iter().find(|w| w.name == value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return Err(format!("bad argument {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload must be pipeline-fused or pipeline-staged")?,
        seed: seed.ok_or("--seed must be a non-negative integer")?,
        seconds: seconds.ok_or("--seconds must be a positive number")?,
        trace: trace.ok_or("--trace must be 0 or 1")?,
    })
}

/// Builds `ppserved` from the checkout with the same cargo and target
/// directory as the benchmark. Done by every invocation, so the compile
/// time falls on the first one in a fresh checkout.
fn build_server() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "ppbench-serve",
            "--bin",
            "ppserved",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ppserved failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("ppserved");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after build", bin.display()))
    }
}

fn run(args: &Args, host: &Host, root: &Path) -> Result<Outcome, String> {
    let spec = args.workload;
    if spec.threads > host.parallelism {
        return Err(format!(
            "{} needs {} threads but only {} are available",
            spec.name, spec.threads, host.parallelism
        ));
    }
    let server = build_server()?;
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;
    let mut out = Outcome::default();
    pipe::workload(
        spec,
        args.seed,
        args.seconds,
        args.trace,
        root,
        host,
        &server,
        &mut out,
    );
    if args.trace {
        out.check_names(&report::PER_LAYER);
    } else {
        let ok_frac = out.ok_frac();
        let attempted = out.attempted as usize;
        out.metric("ok_frac", ok_frac, "ratio", attempted);
        out.check_names(&report::END_TO_END);
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let host = Host::read();
    println!("host {}", host.to_json());
    let root = PathBuf::from(".bench_work").join(args.workload.name);
    let outcome = run(&args, &host, &root);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(".bench_work");
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for failure in &out.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    print!("{}", out.table());
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
