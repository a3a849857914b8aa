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
//! Results land in `BENCH_serve.json` as canonical JSON; `--check`
//! re-validates the committed file's schema and cross-checks every row's
//! `achieved_rps` against its own `requests`/`seconds` so stale or
//! hand-edited rates cannot survive CI.

use std::io::BufRead;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppbench_core::json::{Json, JsonArray, JsonObject};
use ppbench_serve::loadgen::{run_load, LoadConfig, LoadReport};
use ppbench_serve::{http_request, HttpServer, Service, ServiceConfig};

/// Version tag written into the JSON so schema changes are explicit.
pub const SCHEMA_VERSION: &str = "ppbench-serve-v1";

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

/// Runs the full sweep: start a server (in-process or spawned), prewarm
/// the config, measure every open-loop rate, then every burst size, and
/// stop the server gracefully. Row order is deterministic: open rows in
/// rate order, then burst rows in size order.
pub fn run_sweep(cfg: &SweepConfig) -> Result<Vec<SweepRow>, String> {
    let server = if cfg.spawn {
        start_spawned(cfg)?
    } else {
        start_in_process(cfg)?
    };
    let body = format!(
        "{{\"scale\":{},\"edge_factor\":{},\"seed\":{}}}",
        cfg.scale, cfg.edge_factor, cfg.seed
    );
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
    for &rate in &cfg.rates {
        if rate <= 0.0 {
            return Err(format!("open-loop rate must be positive, got {rate}"));
        }
        rows.push(to_row("open", rate, &load(cfg.requests, rate)?)?);
    }
    for &burst in &cfg.bursts {
        if burst == 0 {
            return Err("burst size must be positive".to_string());
        }
        rows.push(to_row("burst", 0.0, &load(burst, 0.0)?)?);
    }
    server.stop()?;
    Ok(rows)
}

/// Renders the sweep as the canonical `BENCH_serve.json` document.
pub fn to_json(cfg: &SweepConfig, rows: &[SweepRow]) -> String {
    let mut results = JsonArray::new();
    for row in rows {
        let mut entry = JsonObject::new();
        entry
            .set_str("mode", row.mode)
            .set_f64("offered_rps", row.offered_rps)
            .set_u64("requests", row.requests)
            .set_u64("errors", row.errors)
            .set_f64("seconds", row.seconds)
            .set_f64("achieved_rps", row.achieved_rps)
            .set_f64("p50_ms", row.p50_ms)
            .set_f64("p99_ms", row.p99_ms)
            .set_u64("max_concurrent", row.max_concurrent);
        results.push_obj(&entry);
    }
    let mut obj = JsonObject::new();
    obj.set_str("benchmark", SCHEMA_VERSION)
        .set_u64("edge_factor", cfg.edge_factor)
        .set_raw("results", results.render())
        .set_u64("scale", u64::from(cfg.scale))
        .set_u64("seed", cfg.seed)
        .set_u64("workers", cfg.workers as u64);
    obj.render()
}

/// Validates a `BENCH_serve.json` document: it must parse, carry this sweep's
/// version tag and at least one row, and have exactly the top-level and
/// row keys [`to_json`] emits for a default config and row.
/// Every row's `achieved_rps` must also agree with its own
/// `requests / seconds` (stale or hand-edited rates are rejected).
pub fn check_schema(text: &str) -> Result<(), String> {
    let reference = to_json(&SweepConfig::default(), &[SweepRow::default()]);
    let doc = crate::schema::check_flat_schema(text, &reference)?;
    crate::schema::check_rate_consistency(
        &doc,
        "requests",
        "seconds",
        &[("achieved_rps", 1.0)],
        0.01,
    )
}

/// Parses a comma-separated list of positive rates, e.g. `500,1000,2000`.
pub fn parse_rate_list(s: &str) -> Option<Vec<f64>> {
    let mut out = Vec::new();
    for part in s.split(',') {
        let r: f64 = part.trim().parse().ok()?;
        if !r.is_finite() || r <= 0.0 {
            return None;
        }
        out.push(r);
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
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
        let rows = run_sweep(&cfg).unwrap();
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
        let json = to_json(&cfg, &rows);
        check_schema(&json).unwrap();
    }

    #[test]
    fn schema_check_rejects_drift_and_inconsistent_rates() {
        let cfg = tiny_cfg();
        let row = SweepRow {
            mode: "open",
            offered_rps: 400.0,
            requests: 100,
            errors: 0,
            seconds: 0.25,
            achieved_rps: 400.0,
            p50_ms: 1.0,
            p99_ms: 2.0,
            max_concurrent: 10,
        };
        let json = to_json(&cfg, std::slice::from_ref(&row));
        check_schema(&json).unwrap();
        // Missing row key.
        let missing = json.replacen("\"p99_ms\":", "\"p99\":", 1);
        assert!(check_schema(&missing).is_err());
        // Extra top-level key.
        let extra = json.replacen("{\"benchmark\"", "{\"bonus\":1,\"benchmark\"", 1);
        assert!(check_schema(&extra).is_err());
        // Wrong version tag.
        let wrong = json.replace(SCHEMA_VERSION, "ppbench-serve-v9");
        assert!(check_schema(&wrong).is_err());
        // A rate that disagrees with requests/seconds.
        let drifted = json.replace("\"achieved_rps\":400", "\"achieved_rps\":500");
        assert!(check_schema(&drifted).is_err());
        // Empty results.
        assert!(check_schema(&to_json(&cfg, &[])).is_err());
    }

    #[test]
    fn rate_list_parses_strictly() {
        assert_eq!(parse_rate_list("500"), Some(vec![500.0]));
        assert_eq!(
            parse_rate_list("500,1000,2500.5"),
            Some(vec![500.0, 1000.0, 2500.5])
        );
        assert_eq!(parse_rate_list("0"), None);
        assert_eq!(parse_rate_list("-5"), None);
        assert_eq!(parse_rate_list("junk"), None);
        assert_eq!(parse_rate_list(""), None);
    }
}
