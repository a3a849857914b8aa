//! `ppserved` — the PageRank-pipeline benchmark service daemon.
//!
//! Binds an HTTP listener in front of a worker pool and serves until a
//! `POST /shutdown` drains it. See `ppbench-serve`'s crate docs for the
//! API.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use ppbench_serve::{HttpServer, ServerConfig, Service, ServiceConfig};

const USAGE: &str = "\
ppserved - PageRank pipeline benchmark service

USAGE:
    ppserved [OPTIONS]

OPTIONS:
    --addr <HOST:PORT>       Listen address [default: 127.0.0.1:7878]
    --workers <N>            Worker threads running pipelines [default: 2]
    --queue-depth <N>        Max queued jobs before 429 [default: 64]
    --cache-bytes <N>        In-memory result-cache byte budget
                             [default: 67108864]
    --cache-dir <DIR>        Enable the on-disk result tier in DIR
                             (results survive restarts) [default: off]
    --disk-cache-bytes <N>   On-disk result-tier byte budget
                             [default: 268435456]
    --max-scale <N>          Largest accepted scale factor; also caps the
                             edge count at 2^N x 16 [default: 22]
    --max-jobs <N>           Finished job records retained before the
                             oldest are evicted [default: 1024]
    --client-quota <N>       Max in-flight jobs per client IP; 0 = no
                             limit [default: 0]
    --max-connections <N>    Concurrent connections before new arrivals
                             get 503 [default: 16384]
    --work-root <DIR>        Scratch directory for kernel files
                             [default: <tmp>/ppbench-serve]
    -h, --help               Show this help
";

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut cfg = ServiceConfig::default();
    let mut server_cfg = ServerConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let outcome = match flag.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--addr" => value("--addr").map(|v| addr = v),
            "--workers" => parse_into(value("--workers"), &mut cfg.workers),
            "--queue-depth" => parse_into(value("--queue-depth"), &mut cfg.queue_depth),
            "--cache-bytes" => parse_into(value("--cache-bytes"), &mut cfg.cache_bytes),
            "--cache-dir" => value("--cache-dir").map(|v| cfg.cache_dir = Some(PathBuf::from(v))),
            "--disk-cache-bytes" => {
                parse_into(value("--disk-cache-bytes"), &mut cfg.disk_cache_bytes)
            }
            "--max-scale" => parse_into(value("--max-scale"), &mut cfg.max_scale),
            "--max-jobs" => parse_into(value("--max-jobs"), &mut cfg.max_terminal_jobs),
            "--client-quota" => parse_into(value("--client-quota"), &mut cfg.max_jobs_per_client),
            "--max-connections" => {
                parse_into(value("--max-connections"), &mut server_cfg.max_connections)
            }
            "--work-root" => value("--work-root").map(|v| cfg.work_root = PathBuf::from(v)),
            other => Err(format!("unknown flag {other:?} (try --help)")),
        };
        if let Err(message) = outcome {
            eprintln!("ppserved: {message}");
            return ExitCode::FAILURE;
        }
    }
    if cfg.workers == 0 {
        eprintln!("ppserved: --workers must be at least 1");
        return ExitCode::FAILURE;
    }

    let service = match Service::start(cfg.clone()) {
        Ok(service) => Arc::new(service),
        Err(e) => {
            eprintln!("ppserved: cannot start worker pool: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match HttpServer::bind_with(&addr, Arc::clone(&service), server_cfg.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("ppserved: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(bound) => println!(
            "ppserved listening on http://{bound} ({} workers, queue depth {}, cache {} MiB{}, max scale {}, max connections {})",
            cfg.workers,
            cfg.queue_depth,
            cfg.cache_bytes >> 20,
            match &cfg.cache_dir {
                Some(dir) => format!(" + disk tier at {}", dir.display()),
                None => String::new(),
            },
            cfg.max_scale,
            server_cfg.max_connections
        ),
        Err(_) => println!("ppserved listening on http://{addr}"),
    }
    server.run();
    println!("ppserved drained and stopped");
    ExitCode::SUCCESS
}

fn parse_into<T: std::str::FromStr>(
    value: Result<String, String>,
    slot: &mut T,
) -> Result<(), String> {
    let text = value?;
    *slot = text
        .parse()
        .map_err(|_| format!("cannot parse {text:?} as a number"))?;
    Ok(())
}
