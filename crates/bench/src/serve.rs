//! Serving-layer bench: latency and saturation of the event-loop front
//! end.
//!
//! The tentpole question this sweep answers: once the pipeline is
//! infrastructure (a long-lived `ppserved` with a nonblocking event
//! loop, request coalescing, and a tiered result cache), what does a
//! request actually cost? One pipeline config is prewarmed to `Done`, so
//! the measured load exercises the serving path — parse, admission,
//! cache hit, render — rather than re-running kernels. Two load shapes
//! are measured:
//!
//! * **open** rows offer a fixed arrival rate (`offered_rps`) open-loop,
//!   with each request's latency measured from its *scheduled* arrival —
//!   coordinated omission cannot hide a stall. Sweeping the rate maps
//!   the latency/throughput curve up to saturation.
//! * **burst** rows open every connection before releasing any request,
//!   demonstrating concurrent-connection capacity (`max_concurrent`) far
//!   beyond the old thread-per-connection cap of 64.
//!
//! The server under test is in-process by default (good for CI smoke);
//! `spawn` runs the sibling `ppserved` binary in its own process so the
//! driver and server each get their own file-descriptor budget — which
//! is what the 10k-connection burst row needs on a 20k-fd rlimit.
//!
//! Results land in `BENCH_serve.json` through [`crate::table`], whose
//! check also holds every row's `achieved_rps` to its own
//! `requests / seconds`, so stale or hand-edited rates cannot survive CI.

use std::io::BufRead;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppbench_core::json::Json;
use ppbench_core::PipelineConfig;
use ppbench_serve::loadgen::{run_load, LoadConfig, LoadReport};
use ppbench_serve::{http_request, HttpServer, Service, ServiceConfig};

use crate::table::{Cells, Rate, Sweep};

/// What to sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Graph scale of the prewarmed config (vertices = 2^scale).
    pub scale: u32,
    /// Edges per vertex of the prewarmed config.
    pub edge_factor: u64,
    /// Seed of the prewarmed config.
    pub seed: u64,
    /// Worker threads in the service under test.
    pub workers: usize,
    /// Offered arrival rates (req/s) for the open-loop rows.
    pub rates: Vec<f64>,
    /// Requests per open-loop row.
    pub requests: usize,
    /// Connection counts for the burst rows.
    pub bursts: Vec<usize>,
    /// Run the sibling `ppserved` binary in its own process instead of
    /// an in-process server (separate fd budgets; needed for 10k+
    /// bursts).
    pub spawn: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            scale: 10,
            edge_factor: 8,
            seed: 1,
            workers: 2,
            rates: vec![500.0, 1000.0, 2000.0, 4000.0],
            requests: 2000,
            bursts: vec![256, 4096],
            spawn: false,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Default)]
pub struct SweepRow {
    /// `"open"` (fixed-rate arrivals) or `"burst"` (all at once).
    pub mode: &'static str,
    /// Offered arrival rate for open rows; 0 for burst rows.
    pub offered_rps: f64,
    /// Requests that completed with a response.
    pub requests: u64,
    /// Requests that errored or timed out.
    pub errors: u64,
    /// Wall-clock seconds for the whole row.
    pub seconds: f64,
    /// `requests / seconds`.
    pub achieved_rps: f64,
    /// Median latency, milliseconds (from scheduled arrival for open
    /// rows — coordinated-omission-safe).
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Peak concurrently-open connections observed by the driver.
    pub max_concurrent: u64,
}

/// The server under test: in-process, or a spawned `ppserved` child.
enum Server {
    InProcess {
        addr: String,
        thread: Option<std::thread::JoinHandle<()>>,
    },
    Spawned {
        addr: String,
        child: std::process::Child,
    },
}

impl Server {
    fn addr(&self) -> &str {
        match self {
            Server::InProcess { addr, .. } | Server::Spawned { addr, .. } => addr,
        }
    }

    /// Graceful drain: `POST /shutdown`, then join/wait.
    fn stop(mut self) -> Result<(), String> {
        let addr = self.addr().to_string();
        let response = http_request(addr.as_str(), "POST", "/shutdown", Some(""))
            .map_err(|e| format!("shutdown request to {addr}: {e}"))?;
        if response.status != 202 {
            return Err(format!("shutdown returned {}", response.status));
        }
        match &mut self {
            Server::InProcess { thread, .. } => {
                if let Some(thread) = thread.take() {
                    thread
                        .join()
                        .map_err(|_| "server thread panicked".to_string())?;
                }
            }
            Server::Spawned { child, .. } => {
                let status = child
                    .wait()
                    .map_err(|e| format!("waiting for ppserved: {e}"))?;
                if !status.success() {
                    return Err(format!("ppserved exited with {status}"));
                }
            }
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Server::Spawned { child, .. } = self {
            // Best-effort: don't leave an orphan daemon if the sweep
            // failed before the graceful stop. A kill error means the
            // child already exited; either way it still needs reaping,
            // and the exit status of a killed child is noise.
            let _killed = child.kill();
            let _reaped = child.wait();
        }
    }
}

fn start_in_process(cfg: &SweepConfig) -> Result<Server, String> {
    let service = Service::start(ServiceConfig {
        workers: cfg.workers,
        queue_depth: 64,
        work_root: std::env::temp_dir().join(format!("ppbench-servebench-{}", std::process::id())),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("cannot start service: {e}"))?;
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(service))
        .map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("no bound address: {e}"))?
        .to_string();
    let thread = std::thread::spawn(move || server.run());
    Ok(Server::InProcess {
        addr,
        thread: Some(thread),
    })
}

/// Locates the `ppserved` binary next to the running executable
/// (`target/<profile>/`), stepping out of `deps/` when invoked from a
/// test harness.
fn ppserved_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut dir = exe
        .parent()
        .ok_or_else(|| "executable has no parent directory".to_string())?
        .to_path_buf();
    if dir.file_name().is_some_and(|f| f == "deps") {
        dir.pop();
    }
    let path = dir.join("ppserved");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found — build it first (cargo build --release -p ppbench-serve)",
            path.display()
        ))
    }
}

fn start_spawned(cfg: &SweepConfig) -> Result<Server, String> {
    let path = ppserved_path()?;
    let mut child = std::process::Command::new(&path)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &cfg.workers.to_string(),
            "--queue-depth",
            "64",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", path.display()))?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| "ppserved stdout was not captured".to_string())?;
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .ok_or_else(|| "ppserved exited before printing its address".to_string())?
        .map_err(|e| format!("reading ppserved stdout: {e}"))?;
    let addr = banner
        .split_once("http://")
        .map(|(_, rest)| rest)
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or_else(|| format!("cannot parse ppserved banner: {banner:?}"))?
        .to_string();
    // Keep draining the child's stdout so a full pipe can never block it.
    std::thread::spawn(move || lines.for_each(drop));
    Ok(Server::Spawned { addr, child })
}

/// Submits the sweep's pipeline config once and polls it to `Done`, so
/// every measured request afterwards is a cache hit.
fn prewarm(addr: &str, body: &str) -> Result<(), String> {
    let response = http_request(addr, "POST", "/runs", Some(body))
        .map_err(|e| format!("prewarm submit to {addr}: {e}"))?;
    if response.status != 202 {
        return Err(format!(
            "prewarm submit returned {}: {}",
            response.status, response.body
        ));
    }
    let id = Json::parse(&response.body)
        .ok()
        .and_then(|v| v.get("id").and_then(Json::as_u64))
        .ok_or_else(|| format!("prewarm receipt has no id: {}", response.body))?;
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        let poll = http_request(addr, "GET", &format!("/runs/{id}"), None)
            .map_err(|e| format!("prewarm poll: {e}"))?;
        let state = Json::parse(&poll.body)
            .ok()
            .and_then(|v| v.get("state").and_then(Json::as_str).map(str::to_string));
        match state.as_deref() {
            Some("done") => return Ok(()),
            Some("failed") => return Err(format!("prewarm run failed: {}", poll.body)),
            _ if Instant::now() > deadline => {
                return Err("prewarm did not finish within 600 s".to_string())
            }
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

fn to_row(mode: &'static str, offered_rps: f64, report: &LoadReport) -> Result<SweepRow, String> {
    if report.completed == 0 {
        return Err(format!(
            "{mode} row completed no requests ({} attempted, {} errors)",
            report.attempted, report.errors
        ));
    }
    Ok(SweepRow {
        mode,
        offered_rps,
        requests: report.completed as u64,
        errors: report.errors as u64,
        seconds: report.seconds,
        achieved_rps: report.achieved_rps,
        p50_ms: report.p50_ms,
        p99_ms: report.p99_ms,
        max_concurrent: report.max_concurrent as u64,
    })
}

impl Sweep for SweepConfig {
    type Row = SweepRow;
    const VERSION: &'static str = "ppbench-serve-v1";
    const FILE: &'static str = "BENCH_serve.json";
    const RATES: &'static [Rate] = &[Rate {
        key: "achieved_rps",
        size: &["requests"],
        factor: 1.0,
    }];

    fn header(&self) -> Cells {
        vec![
            ("edge_factor", Json::Uint(self.edge_factor)),
            ("scale", Json::Uint(u64::from(self.scale))),
            ("seed", Json::Uint(self.seed)),
            ("workers", Json::Uint(self.workers as u64)),
        ]
    }

    fn cells(row: &SweepRow) -> Cells {
        vec![
            ("mode", Json::String(row.mode.to_string())),
            ("offered_rps", Json::Number(row.offered_rps)),
            ("requests", Json::Uint(row.requests)),
            ("errors", Json::Uint(row.errors)),
            ("seconds", Json::Number(row.seconds)),
            ("achieved_rps", Json::Number(row.achieved_rps)),
            ("p50_ms", Json::Number(row.p50_ms)),
            ("p99_ms", Json::Number(row.p99_ms)),
            ("max_concurrent", Json::Uint(row.max_concurrent)),
        ]
    }

    fn scales(&self) -> &[u32] {
        std::slice::from_ref(&self.scale)
    }

    /// Runs the full sweep: start a server (in-process or spawned), prewarm
    /// the config, measure every open-loop rate, then every burst size, and
    /// stop the server gracefully. Row order is deterministic: open rows in
    /// rate order, then burst rows in size order. Every request submits
    /// the one point's JSON object, which the driver has already checked.
    fn run(&self, _points: &[PipelineConfig]) -> Result<Vec<SweepRow>, String> {
        let server = if self.spawn {
            start_spawned(self)?
        } else {
            start_in_process(self)?
        };
        let body = crate::table::point_json(self, self.scale);
        prewarm(server.addr(), &body)?;

        let load = |requests: usize, rate: f64| -> Result<LoadReport, String> {
            run_load(&LoadConfig {
                addr: server.addr().to_string(),
                method: "POST".to_string(),
                path: "/runs".to_string(),
                body: body.clone(),
                requests,
                rate,
                timeout: Duration::from_secs(30),
                max_open: 16 * 1024,
            })
            .map_err(|e| format!("load run failed: {e}"))
        };

        let mut rows = Vec::new();
        for &rate in &self.rates {
            if rate <= 0.0 {
                return Err(format!("open-loop rate must be positive, got {rate}"));
            }
            rows.push(to_row("open", rate, &load(self.requests, rate)?)?);
        }
        for &burst in &self.bursts {
            if burst == 0 {
                return Err("burst size must be positive".to_string());
            }
            rows.push(to_row("burst", 0.0, &load(burst, 0.0)?)?);
        }
        server.stop()?;
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SweepConfig {
        SweepConfig {
            scale: 7,
            edge_factor: 4,
            seed: 1,
            workers: 1,
            rates: vec![400.0],
            requests: 80,
            bursts: vec![48],
            spawn: false,
        }
    }

    #[test]
    fn sweep_measures_every_point_and_passes_its_own_schema_check() {
        let cfg = tiny_cfg();
        let rows = cfg.run(&crate::table::points(&cfg).unwrap()).unwrap();
        assert_eq!(rows.len(), 2, "one open row + one burst row");
        assert_eq!(rows[0].mode, "open");
        assert_eq!(rows[0].offered_rps, 400.0);
        assert_eq!(rows[1].mode, "burst");
        assert_eq!(rows[1].offered_rps, 0.0);
        for row in &rows {
            assert!(row.requests > 0, "{row:?}");
            assert!(row.seconds > 0.0, "{row:?}");
            assert!(row.p99_ms >= row.p50_ms, "{row:?}");
        }
        assert!(
            rows[1].max_concurrent >= 48,
            "burst must hold every connection open at once: {:?}",
            rows[1]
        );
        crate::table::check::<SweepConfig>(&crate::table::render(&cfg, &rows)).unwrap();
    }
}
