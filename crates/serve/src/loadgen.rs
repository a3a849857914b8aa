//! Load generator for the serve layer: open-loop arrivals or a single
//! connection burst, driven nonblocking so one thread multiplexes
//! thousands of client sockets (mirroring the server's event loop).
//!
//! Open-loop mode schedules arrival *i* at `t0 + i/rate` and measures
//! latency from the scheduled arrival, not from when the connection
//! happened to be serviced — so a saturated server shows up as growing
//! tail latency instead of silently slowing the offered load (the
//! coordinated-omission trap). Burst mode opens every connection first,
//! then releases all requests at once; it exists to demonstrate concurrent
//! connection capacity rather than steady-state throughput.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// What load to offer, and where.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// HTTP method for every request.
    pub method: String,
    /// Request path (with query string if any).
    pub path: String,
    /// Request body (empty for GET-style probes).
    pub body: String,
    /// Total requests to issue.
    pub requests: usize,
    /// Offered arrival rate in requests/second; `<= 0` selects burst mode
    /// (all connections opened up front, requests released together).
    pub rate: f64,
    /// Per-request deadline (scheduled arrival → full response); a
    /// request past it counts as an error and its socket is dropped.
    pub timeout: Duration,
    /// Cap on concurrently open sockets in open-loop mode; arrivals that
    /// would exceed it are counted as errors (the file-descriptor budget
    /// is finite even when the offered rate is not).
    pub max_open: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            method: "GET".to_string(),
            path: "/healthz".to_string(),
            body: String::new(),
            requests: 100,
            rate: 0.0,
            timeout: Duration::from_secs(30),
            max_open: 16 * 1024,
        }
    }
}

/// What happened: counts, wall clock, latency percentiles, and the status
/// codes observed.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests the driver tried to issue.
    pub attempted: usize,
    /// Requests that produced a complete HTTP response.
    pub completed: usize,
    /// Requests that failed (connect error, reset, or deadline).
    pub errors: usize,
    /// Wall-clock seconds from first release to last completion.
    pub seconds: f64,
    /// `completed / seconds`.
    pub achieved_rps: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile latency, milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Worst latency, milliseconds.
    pub max_ms: f64,
    /// Most sockets simultaneously open.
    pub max_concurrent: usize,
    /// Response count per HTTP status code.
    pub statuses: BTreeMap<u16, usize>,
}

impl LoadReport {
    /// Responses with the given status.
    pub fn status_count(&self, status: u16) -> usize {
        self.statuses.get(&status).copied().unwrap_or(0)
    }
}

/// Runs the configured load to completion. Fails only if the address does
/// not resolve; per-request failures are counted in the report.
pub fn run_load(cfg: &LoadConfig) -> std::io::Result<LoadReport> {
    let addr = cfg.addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(ErrorKind::InvalidInput, "address resolved to nothing")
    })?;
    let request = format!(
        "{} {} HTTP/1.1\r\nHost: ppbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        cfg.method,
        cfg.path,
        cfg.body.len(),
        cfg.body
    );
    let request = request.into_bytes();

    let mut report = LoadReport {
        attempted: cfg.requests,
        ..LoadReport::default()
    };
    let mut latencies: Vec<f64> = Vec::with_capacity(cfg.requests);
    let mut active: Vec<LoadConn> = Vec::new();

    let t0;
    if cfg.rate <= 0.0 {
        // Burst: open every connection before releasing any request, so
        // the peak concurrency equals the request count.
        let pre = Instant::now();
        for _ in 0..cfg.requests {
            match open_conn(&addr, &request, pre, pre + cfg.timeout) {
                Some(conn) => active.push(conn),
                None => report.errors += 1,
            }
        }
        t0 = Instant::now();
        for conn in &mut active {
            conn.started = t0;
            conn.deadline = t0 + cfg.timeout;
        }
        report.max_concurrent = active.len();
        drain(&mut active, &mut report, &mut latencies, None);
    } else {
        t0 = Instant::now();
        let mut launched = 0usize;
        while launched < cfg.requests || !active.is_empty() {
            let now = Instant::now();
            while launched < cfg.requests {
                let scheduled = t0 + Duration::from_secs_f64(launched as f64 / cfg.rate);
                if now < scheduled {
                    break;
                }
                launched += 1;
                if active.len() >= cfg.max_open {
                    report.errors += 1;
                    continue;
                }
                match open_conn(&addr, &request, scheduled, scheduled + cfg.timeout) {
                    Some(conn) => active.push(conn),
                    None => report.errors += 1,
                }
            }
            report.max_concurrent = report.max_concurrent.max(active.len());
            drain(&mut active, &mut report, &mut latencies, Some(1));
            if launched < cfg.requests || !active.is_empty() {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
    }
    report.seconds = t0.elapsed().as_secs_f64();
    report.completed = latencies.len();
    report.achieved_rps = if report.seconds > 0.0 {
        report.completed as f64 / report.seconds
    } else {
        0.0
    };
    latencies.sort_by(f64::total_cmp);
    report.p50_ms = percentile(&latencies, 0.50) * 1e3;
    report.p90_ms = percentile(&latencies, 0.90) * 1e3;
    report.p99_ms = percentile(&latencies, 0.99) * 1e3;
    report.max_ms = latencies.last().copied().unwrap_or(0.0) * 1e3;
    Ok(report)
}

fn open_conn(
    addr: &std::net::SocketAddr,
    request: &[u8],
    started: Instant,
    deadline: Instant,
) -> Option<LoadConn> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nonblocking(true).ok()?;
    #[expect(
        clippy::let_underscore_untyped,
        reason = "nodelay is advisory; latency is still measured correctly without it"
    )]
    let _ = stream.set_nodelay(true);
    Some(LoadConn {
        stream,
        out: request.to_vec(),
        written: 0,
        inbuf: Vec::new(),
        started,
        deadline,
    })
}

/// Drives every active connection once (or until all complete when
/// `passes` is `None`), recording completions and errors.
fn drain(
    active: &mut Vec<LoadConn>,
    report: &mut LoadReport,
    latencies: &mut Vec<f64>,
    passes: Option<usize>,
) {
    let mut remaining = passes;
    loop {
        let now = Instant::now();
        let mut progressed = false;
        active.retain_mut(|conn| match conn.drive(now) {
            None => true,
            Some(outcome) => {
                progressed = true;
                match outcome {
                    Ok((status, latency)) => {
                        latencies.push(latency);
                        *report.statuses.entry(status).or_insert(0) += 1;
                    }
                    Err(()) => report.errors += 1,
                }
                false
            }
        });
        match &mut remaining {
            Some(n) => {
                *n -= 1;
                if *n == 0 {
                    return;
                }
            }
            None => {
                if active.is_empty() {
                    return;
                }
                if !progressed {
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
        }
    }
}

/// One in-flight request: write the request, then read to EOF (the server
/// closes after each response).
struct LoadConn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
    started: Instant,
    deadline: Instant,
}

impl LoadConn {
    /// `None` = still in flight; `Some(Ok((status, latency_seconds)))` on
    /// a complete response; `Some(Err(()))` on failure or deadline.
    fn drive(&mut self, now: Instant) -> Option<Result<(u16, f64), ()>> {
        while self.written < self.out.len() {
            let pending = self.out.get(self.written..).unwrap_or(&[]);
            match self.stream.write(pending) {
                Ok(0) => return Some(Err(())),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Some(Err(())),
            }
        }
        if self.written >= self.out.len() {
            let mut buf = [0u8; 4096];
            loop {
                match self.stream.read(&mut buf) {
                    Ok(0) => {
                        let latency = self.started.elapsed().as_secs_f64();
                        return Some(match parse_status(&self.inbuf) {
                            Some(status) => Ok((status, latency)),
                            None => Err(()),
                        });
                    }
                    Ok(n) => {
                        self.inbuf.extend_from_slice(buf.get(..n).unwrap_or(&buf));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return Some(Err(())),
                }
            }
        }
        if now >= self.deadline {
            return Some(Err(()));
        }
        None
    }
}

/// Status code from `HTTP/1.x NNN ...`, if a full status line arrived.
fn parse_status(response: &[u8]) -> Option<u16> {
    let text = std::str::from_utf8(response.get(..64.min(response.len()))?).ok()?;
    let mut parts = text.split_whitespace();
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    parts.next()?.parse().ok()
}

/// Nearest-rank percentile over an ascending-sorted slice of seconds.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted.get(rank - 1).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.50), 50.0);
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn status_line_parses() {
        assert_eq!(parse_status(b"HTTP/1.1 200 OK\r\n..."), Some(200));
        assert_eq!(
            parse_status(b"HTTP/1.1 429 Too Many Requests\r\n"),
            Some(429)
        );
        assert_eq!(parse_status(b"garbage"), None);
        assert_eq!(parse_status(b""), None);
    }
}
