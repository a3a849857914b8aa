//! Hand-rolled nonblocking HTTP/1.1 server on `std::net::TcpListener`.
//!
//! One thread multiplexes every socket: the listener and all accepted
//! streams are in `set_nonblocking` mode and the event loop drives a
//! per-connection state machine (read head → read body → dispatch → write
//! response) each tick, so thousands of concurrent connections cost one
//! thread and a few KB each instead of a thread apiece. Pipeline execution
//! stays on the service worker pool; the loop only parses, dispatches, and
//! shuttles bytes. Scope is deliberately narrow: one request per
//! connection (`Connection: close`), bounded head and body sizes, and
//! per-phase read/write deadlines so a slow or dead peer can never pin the
//! loop. That is all a benchmark-service API needs, and it keeps the
//! crate std-only — readiness is a level-triggered scan (every registered
//! socket is polled each tick), which at benchmark scales costs microseconds
//! per tick and needs no platform epoll/kqueue bindings.

use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppbench_core::json::{escape_string, Json};
use ppbench_core::PipelineConfig;

use crate::job::{Job, JobState};
use crate::metrics::Metrics;
use crate::service::{CancelOutcome, Service, SubmitError};

/// Maximum bytes of request line + headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum request-body bytes (a config object is well under 1 KB).
const MAX_BODY_BYTES: usize = 64 * 1024;
/// How long the event loop sleeps when no socket made progress.
const IDLE_SLEEP: Duration = Duration::from_millis(1);
/// Per-`read` scratch buffer size.
const READ_CHUNK: usize = 4 * 1024;

/// Tunables for the event loop.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections registered at once before new arrivals are answered
    /// 503 (and, beyond twice this, dropped outright).
    pub max_connections: usize,
    /// Deadline for a complete request (head + body) to arrive.
    pub read_timeout: Duration,
    /// Deadline for the peer to accept the full response.
    pub write_timeout: Duration,
    /// After shutdown is requested, how long in-flight connections get to
    /// finish before the loop exits anyway.
    pub drain_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 16 * 1024,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            drain_grace: Duration::from_secs(5),
        }
    }
}

/// The HTTP front end for a [`Service`].
pub struct HttpServer {
    listener: TcpListener,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    cfg: ServerConfig,
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) in front of
    /// `service` with default [`ServerConfig`] tunables.
    pub fn bind<A: ToSocketAddrs>(addr: A, service: Arc<Service>) -> std::io::Result<Self> {
        Self::bind_with(addr, service, ServerConfig::default())
    }

    /// Binds `addr` with explicit tunables.
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        service: Arc<Service>,
        cfg: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self {
            listener,
            service,
            shutdown: Arc::new(AtomicBool::new(false)),
            cfg,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A flag that stops the event loop when set (the same flag
    /// `POST /shutdown` sets), for embedding the server in tests.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Runs the event loop until shutdown is requested, gives in-flight
    /// connections `drain_grace` to finish, then drains the service
    /// (finishing all accepted jobs) and returns.
    pub fn run(self) {
        let metrics = self.service.metrics();
        let dispatch_service = Arc::clone(&self.service);
        let dispatch_shutdown = Arc::clone(&self.shutdown);
        let dispatch = move |request: &Request, peer: Option<IpAddr>| {
            route(request, peer, &dispatch_service, &dispatch_shutdown)
        };
        let mut conns: Vec<Conn<TcpStream>> = Vec::new();
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let now = Instant::now();
            let draining = self.shutdown.load(Ordering::SeqCst);
            let mut progressed = false;
            if !draining {
                progressed |= self.accept_burst(&mut conns, now, metrics);
            } else if drain_deadline.is_none() {
                drain_deadline = Some(now + self.cfg.drain_grace);
            }
            conns.retain_mut(|conn| {
                match conn.drive(now, self.cfg.write_timeout, metrics, &dispatch) {
                    Drive::Keep { progressed: p } => {
                        progressed |= p;
                        true
                    }
                    Drive::Close => {
                        progressed = true;
                        false
                    }
                }
            });
            metrics
                .open_connections
                .store(conns.len() as u64, Ordering::Relaxed);
            if draining && (conns.is_empty() || drain_deadline.is_some_and(|d| now >= d)) {
                break;
            }
            if !progressed {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        metrics.open_connections.store(0, Ordering::Relaxed);
        self.service.drain();
    }

    /// Accepts every connection the listener has ready. Returns whether
    /// anything was accepted (progress for the idle-sleep heuristic).
    fn accept_burst(
        &self,
        conns: &mut Vec<Conn<TcpStream>>,
        now: Instant,
        metrics: &Metrics,
    ) -> bool {
        let mut any = false;
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    any = true;
                    Metrics::inc(&metrics.conns_accepted);
                    // `accept` returns a *blocking* stream even from a
                    // nonblocking listener; a stream we cannot switch would
                    // stall the whole loop, so it is dropped instead.
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    if conns.len() >= self.cfg.max_connections {
                        Metrics::inc(&metrics.rejected_over_capacity);
                        if conns.len() < self.cfg.max_connections.saturating_mul(2) {
                            conns.push(Conn::preloaded(
                                stream,
                                Response::error(503, "too many connections; retry later"),
                                now,
                                self.cfg.write_timeout,
                                metrics,
                            ));
                        }
                        continue;
                    }
                    #[expect(
                        clippy::let_underscore_untyped,
                        reason = "socket tuning is advisory; a request on an untuned socket is still served correctly"
                    )]
                    let _ = stream.set_nodelay(true);
                    conns.push(Conn::new(
                        stream,
                        Some(peer.ip()),
                        now + self.cfg.read_timeout,
                    ));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        any
    }
}

/// What the loop should do with a connection after one drive.
enum Drive {
    /// Keep it registered; `progressed` reports whether any bytes moved.
    Keep {
        /// Whether this drive made progress (suppresses the idle sleep).
        progressed: bool,
    },
    /// Done (or dead): deregister and drop the stream.
    Close,
}

/// Where a connection is in its request/response lifecycle.
enum Phase {
    /// Accumulating request line + headers.
    ReadHead,
    /// Head parsed; accumulating `Content-Length` body bytes.
    ReadBody,
    /// Response rendered; flushing it out.
    Write,
}

/// Parsed request head.
struct Head {
    method: String,
    path: String,
    query: String,
    content_length: usize,
}

/// One connection's state machine. Generic over the stream so the
/// timeout / half-request / error paths are unit-testable with scripted
/// streams instead of real (racy) sockets.
struct Conn<S> {
    stream: S,
    peer: Option<IpAddr>,
    phase: Phase,
    inbuf: Vec<u8>,
    /// Byte offset just past the head terminator, once found.
    head_end: usize,
    head: Option<Head>,
    out: Vec<u8>,
    written: usize,
    /// Read deadline while reading, write deadline while writing.
    deadline: Instant,
}

impl<S: Read + Write> Conn<S> {
    fn new(stream: S, peer: Option<IpAddr>, read_deadline: Instant) -> Self {
        Self {
            stream,
            peer,
            phase: Phase::ReadHead,
            inbuf: Vec::new(),
            head_end: 0,
            head: None,
            out: Vec::new(),
            written: 0,
            deadline: read_deadline,
        }
    }

    /// A connection that skips straight to writing `response` (the
    /// over-capacity 503 path).
    fn preloaded(
        stream: S,
        response: Response,
        now: Instant,
        write_timeout: Duration,
        metrics: &Metrics,
    ) -> Self {
        let mut conn = Self::new(stream, None, now);
        conn.respond(response, now, write_timeout, metrics);
        conn
    }

    /// Queues `response` and switches to the write phase.
    fn respond(
        &mut self,
        response: Response,
        now: Instant,
        write_timeout: Duration,
        metrics: &Metrics,
    ) {
        Metrics::inc(&metrics.http_requests);
        self.out = response.render().into_bytes();
        self.written = 0;
        self.phase = Phase::Write;
        self.deadline = now + write_timeout;
    }

    /// Advances the state machine as far as the socket allows right now.
    fn drive(
        &mut self,
        now: Instant,
        write_timeout: Duration,
        metrics: &Metrics,
        dispatch: &dyn Fn(&Request, Option<IpAddr>) -> Response,
    ) -> Drive {
        match self.phase {
            Phase::ReadHead | Phase::ReadBody => {
                self.drive_read(now, write_timeout, metrics, dispatch)
            }
            Phase::Write => self.drive_write(now, metrics),
        }
    }

    fn drive_read(
        &mut self,
        now: Instant,
        write_timeout: Duration,
        metrics: &Metrics,
        dispatch: &dyn Fn(&Request, Option<IpAddr>) -> Response,
    ) -> Drive {
        let mut progressed = false;
        let mut buf = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    // Peer closed before sending a complete request.
                    Metrics::inc(&metrics.http_half_requests);
                    return Drive::Close;
                }
                Ok(n) => {
                    progressed = true;
                    self.inbuf.extend_from_slice(buf.get(..n).unwrap_or(&buf));
                    self.advance(now, write_timeout, metrics, dispatch);
                    if matches!(self.phase, Phase::Write) {
                        // Try to flush in the same tick; most responses fit
                        // the socket buffer and the connection retires now.
                        return self.drive_write(now, metrics);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    Metrics::inc(&metrics.http_half_requests);
                    return Drive::Close;
                }
            }
        }
        if now >= self.deadline {
            Metrics::inc(&metrics.http_read_timeouts);
            self.respond(
                Response::error(408, "timed out reading request"),
                now,
                write_timeout,
                metrics,
            );
            return self.drive_write(now, metrics);
        }
        Drive::Keep { progressed }
    }

    /// Consumes whatever is in `inbuf`: finds/parses the head, then
    /// dispatches once the full body has arrived. Ends in `Phase::Write`
    /// when a response (success or error) is ready.
    fn advance(
        &mut self,
        now: Instant,
        write_timeout: Duration,
        metrics: &Metrics,
        dispatch: &dyn Fn(&Request, Option<IpAddr>) -> Response,
    ) {
        if matches!(self.phase, Phase::ReadHead) {
            let Some(end) = find_head_end(&self.inbuf) else {
                if self.inbuf.len() > MAX_HEAD_BYTES {
                    self.respond(
                        Response::error(413, "request head too large"),
                        now,
                        write_timeout,
                        metrics,
                    );
                }
                return;
            };
            if end > MAX_HEAD_BYTES {
                self.respond(
                    Response::error(413, "request head too large"),
                    now,
                    write_timeout,
                    metrics,
                );
                return;
            }
            let parsed = parse_head(self.inbuf.get(..end).unwrap_or(&self.inbuf));
            match parsed {
                Ok(head) if head.content_length > MAX_BODY_BYTES => {
                    self.respond(
                        Response::error(413, "request body too large"),
                        now,
                        write_timeout,
                        metrics,
                    );
                    return;
                }
                Ok(head) => {
                    self.head_end = end;
                    self.head = Some(head);
                    self.phase = Phase::ReadBody;
                }
                Err(problem) => {
                    self.respond(problem, now, write_timeout, metrics);
                    return;
                }
            }
        }
        if matches!(self.phase, Phase::ReadBody) {
            let want = self.head.as_ref().map_or(0, |h| h.content_length);
            if self.inbuf.len().saturating_sub(self.head_end) < want {
                return;
            }
            let Some(head) = self.head.take() else {
                return;
            };
            let body_bytes = self
                .inbuf
                .get(self.head_end..self.head_end + want)
                .unwrap_or(&[]);
            let response = match std::str::from_utf8(body_bytes) {
                Err(_) => Response::error(400, "request body is not UTF-8"),
                Ok(body) => {
                    let request = Request {
                        method: head.method,
                        path: head.path,
                        query: head.query,
                        body: body.to_string(),
                    };
                    dispatch(&request, self.peer)
                }
            };
            self.respond(response, now, write_timeout, metrics);
        }
    }

    fn drive_write(&mut self, now: Instant, metrics: &Metrics) -> Drive {
        let mut progressed = false;
        loop {
            let remaining = self.out.get(self.written..).unwrap_or(&[]);
            if remaining.is_empty() {
                // Fully flushed; one request per connection, so retire it.
                return Drive::Close;
            }
            match self.stream.write(remaining) {
                Ok(0) => {
                    Metrics::inc(&metrics.http_write_errors);
                    return Drive::Close;
                }
                Ok(n) => {
                    progressed = true;
                    self.written += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if now >= self.deadline {
                        // Peer is reading too slowly to take the response.
                        Metrics::inc(&metrics.http_write_timeouts);
                        return Drive::Close;
                    }
                    return Drive::Keep { progressed };
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    Metrics::inc(&metrics.http_write_errors);
                    return Drive::Close;
                }
            }
        }
    }
}

/// Index just past the first blank line (`\r\n\r\n` or `\n\n`), i.e. the
/// length of the head including its terminator.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while let Some(&b) = buf.get(i) {
        if b == b'\n' {
            match (buf.get(i + 1), buf.get(i + 2)) {
                (Some(&b'\n'), _) => return Some(i + 2),
                (Some(&b'\r'), Some(&b'\n')) => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Parses the request line and the headers we care about. Malformed input
/// gets a 400 whose message quotes the (truncated, escaped) offending
/// request line, so a client can see exactly what the server objected to.
fn parse_head(bytes: &[u8]) -> Result<Head, Response> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| Response::error(400, "request head is not UTF-8"))?;
    let mut lines = text.lines();
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default();
    let target = parts.next().unwrap_or_default();
    let version = parts.next().unwrap_or_default();
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
        let snippet: String = request_line.chars().take(80).collect();
        return Err(Response::error(
            400,
            &format!("malformed request line: {snippet:?}"),
        ));
    }
    let mut content_length = 0usize;
    for header in lines {
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| Response::error(400, "bad Content-Length"))?;
            }
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok(Head {
        method: method.to_string(),
        path,
        query,
        content_length,
    })
}

struct Request {
    method: String,
    /// Path without the query string.
    path: String,
    /// Raw query string (no leading `?`), empty if none.
    query: String,
    body: String,
}

/// A response under construction.
#[derive(Debug)]
struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
    retry_after: bool,
}

impl Response {
    fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body,
            retry_after: false,
        }
    }

    fn text(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; version=0.0.4",
            body,
            retry_after: false,
        }
    }

    fn error(status: u16, message: &str) -> Self {
        Self::json(status, format!("{{\"error\":{}}}", escape_string(message)))
    }

    fn render(&self) -> String {
        let reason = match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        };
        let retry = if self.retry_after {
            "Retry-After: 1\r\n"
        } else {
            ""
        };
        format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n{}",
            self.status,
            reason,
            self.content_type,
            self.body.len(),
            retry,
            self.body
        )
    }
}

fn route(
    request: &Request,
    peer: Option<IpAddr>,
    service: &Service,
    shutdown: &AtomicBool,
) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"draining\":{}}}",
                service.is_draining()
            ),
        ),
        ("GET", ["metrics"]) => Response::text(200, service.metrics().render(&service.gauges())),
        ("POST", ["runs"]) => post_run(request, peer, service),
        ("GET", ["runs", id]) => match parse_id(id) {
            Some(id) => match service.job(id) {
                Some(job) => Response::json(200, job_json(&job)),
                None => Response::error(404, "no such job"),
            },
            None => Response::error(400, "job id must be an integer"),
        },
        ("GET", ["runs", id, "ranks"]) => get_ranks(id, &request.query, service),
        ("DELETE", ["runs", id]) => match parse_id(id) {
            Some(id) => match service.cancel(id) {
                CancelOutcome::Cancelled => {
                    Response::json(200, format!("{{\"id\":{id},\"state\":\"cancelled\"}}"))
                }
                CancelOutcome::NotCancellable(state) => Response::error(
                    409,
                    &format!("job is {} and can no longer be cancelled", state.name()),
                ),
                CancelOutcome::NotFound => Response::error(404, "no such job"),
            },
            None => Response::error(400, "job id must be an integer"),
        },
        ("POST", ["shutdown"]) => {
            shutdown.store(true, Ordering::SeqCst);
            Response::json(202, "{\"status\":\"draining\"}".to_string())
        }
        (_, ["healthz" | "metrics" | "shutdown"]) | (_, ["runs", ..]) => {
            Response::error(405, "method not allowed for this path")
        }
        _ => Response::error(404, "unknown path"),
    }
}

fn parse_id(text: &str) -> Option<u64> {
    text.parse().ok()
}

fn post_run(request: &Request, peer: Option<IpAddr>, service: &Service) -> Response {
    let body = if request.body.trim().is_empty() {
        "{}".to_string()
    } else {
        request.body.clone()
    };
    let parsed = match Json::parse(&body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("invalid JSON: {e}")),
    };
    let config = match PipelineConfig::from_json(&parsed) {
        Ok(c) => c,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    match service.submit_from(config, peer) {
        Ok(receipt) => {
            let state = if receipt.cached { "done" } else { "queued" };
            Response::json(
                202,
                format!(
                    "{{\"id\":{},\"state\":\"{}\",\"cached\":{},\"coalesced\":{},\"config_hash\":\"{:016x}\"}}",
                    receipt.id, state, receipt.cached, receipt.coalesced, receipt.config_hash
                ),
            )
        }
        Err(SubmitError::QueueFull) => {
            let mut r = Response::error(429, "submission queue is full; retry later");
            r.retry_after = true;
            r
        }
        Err(SubmitError::QuotaExceeded) => {
            let mut r = Response::error(429, "client has too many jobs in flight; retry later");
            r.retry_after = true;
            r
        }
        Err(SubmitError::Draining) => Response::error(503, "service is draining"),
        Err(e @ (SubmitError::ScaleTooLarge { .. } | SubmitError::TooManyEdges { .. })) => {
            Response::error(400, &e.to_string())
        }
    }
}

fn get_ranks(id: &str, query: &str, service: &Service) -> Response {
    let Some(id) = parse_id(id) else {
        return Response::error(400, "job id must be an integer");
    };
    let mut top = 10usize;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some(("top", value)) => match value.parse::<usize>() {
                Ok(k) if k >= 1 => top = k,
                _ => return Response::error(400, "top must be a positive integer"),
            },
            _ => return Response::error(400, &format!("unknown query parameter {pair:?}")),
        }
    }
    let Some(job) = service.job(id) else {
        return Response::error(404, "no such job");
    };
    let Some(summary) = (match job.state {
        JobState::Done => job.summary,
        _ => None,
    }) else {
        return Response::error(
            409,
            &format!(
                "job is {}; ranks exist only once it is done",
                job.state.name()
            ),
        );
    };
    let entries: Vec<String> = summary
        .top_k(top)
        .into_iter()
        .map(|(vertex, rank)| {
            // `{rank}` is Rust's shortest round-trip formatting, so parsing
            // the value back yields the identical f64; `rank_bits` makes
            // bit-level comparison possible without any parsing at all.
            format!(
                "{{\"vertex\":{vertex},\"rank\":{rank},\"rank_bits\":\"{:016x}\"}}",
                rank.to_bits()
            )
        })
        .collect();
    Response::json(
        200,
        format!(
            "{{\"id\":{id},\"top\":{top},\"vertices\":{},\"ranks\":[{}]}}",
            summary.ranks.len(),
            entries.join(",")
        ),
    )
}

fn job_json(job: &Job) -> String {
    let mut out = format!(
        "{{\"id\":{},\"state\":\"{}\",\"cached\":{},\"config_hash\":\"{:016x}\"",
        job.id,
        job.state.name(),
        job.from_cache,
        job.config_hash
    );
    if let JobState::Running(kernel) = job.state {
        out.push_str(&format!(",\"kernel\":{kernel}"));
    }
    if let Some(summary) = &job.summary {
        out.push_str(&format!(
            ",\"result\":{},\"total_seconds\":{}",
            summary.record.to_json(),
            summary.total_seconds
        ));
    }
    if let Some(error) = &job.error {
        out.push_str(&format!(",\"error\":{}", escape_string(error)));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::Arc;
    use std::time::Instant;

    use ppbench_core::{PipelineConfig, RunRecord};

    use crate::job::RunSummary;

    fn job(state: JobState) -> Job {
        let config = PipelineConfig::builder().scale(4).build();
        let config_hash = config.canonical_hash();
        Job {
            id: 7,
            config,
            config_hash,
            state,
            summary: None,
            error: None,
            from_cache: false,
            submitted_at: Instant::now(),
            client: None,
        }
    }

    #[test]
    fn job_json_reflects_state() {
        let queued = job_json(&job(JobState::Queued));
        assert!(queued.contains("\"state\":\"queued\""), "{queued}");
        let running = job_json(&job(JobState::Running(2)));
        assert!(running.contains("\"kernel\":2"), "{running}");
        let mut failed = job(JobState::Failed);
        failed.error = Some("kernel \"3\" exploded".to_string());
        let failed_json = job_json(&failed);
        assert!(
            failed_json.contains("\\\"3\\\""),
            "error must be escaped: {failed_json}"
        );
    }

    #[test]
    fn job_json_embeds_the_run_record() {
        let mut done = job(JobState::Done);
        done.summary = Some(Arc::new(RunSummary {
            record: RunRecord {
                variant: "optimized".to_string(),
                workload: "pagerank".to_string(),
                scale: 4,
                edges: 64,
                kernels: [Some((0.5, 128.0)), None, None, None],
                validation_passed: Some(true),
                threads: None,
                checksum: None,
            },
            ranks: vec![0.25; 16],
            total_seconds: 1.5,
        }));
        let text = job_json(&done);
        assert!(text.contains("\"record\":\"ppbench-run-v1\""), "{text}");
        assert!(text.contains("\"total_seconds\":1.5"), "{text}");
        assert!(Json::parse(&text).is_ok(), "job json must parse: {text}");
    }

    #[test]
    fn response_render_is_valid_http() {
        let r = Response::json(200, "{}".to_string());
        let text = r.render();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }

    #[test]
    fn retry_after_header_present_on_429() {
        let mut r = Response::error(429, "full");
        r.retry_after = true;
        assert!(r.render().contains("Retry-After: 1\r\n"));
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\n"), Some(16));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\nHost: x\r\n"), None);
        assert_eq!(find_head_end(b""), None);
    }

    #[test]
    fn malformed_request_line_diagnostic_quotes_the_line() {
        let err = parse_head(b"BOGUS\r\n\r\n").err().expect("must reject");
        assert_eq!(err.status, 400);
        assert!(err.body.contains("malformed request line"), "{}", err.body);
        assert!(
            err.body.contains("BOGUS"),
            "diagnostic names the line: {}",
            err.body
        );
        // An empty request line is also a 400, not a 404.
        let err = parse_head(b"\r\n\r\n").err().expect("must reject");
        assert_eq!(err.status, 400);
        // Wrong protocol version.
        let err = parse_head(b"GET / SPDY/9\r\n\r\n")
            .err()
            .expect("must reject");
        assert!(err.body.contains("SPDY/9"), "{}", err.body);
    }

    #[test]
    fn head_parses_target_and_content_length() {
        let head = parse_head(b"POST /runs?x=1 HTTP/1.1\r\nContent-Length: 12\r\n\r\n").unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/runs");
        assert_eq!(head.query, "x=1");
        assert_eq!(head.content_length, 12);
        let err = parse_head(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
            .err()
            .expect("must reject");
        assert!(err.body.contains("Content-Length"), "{}", err.body);
    }

    // --- scripted-stream state machine tests ---

    /// Deterministic in-memory stream: each `read` yields the next chunk
    /// (then `WouldBlock`, or EOF once `eof`); writes follow `sink`.
    struct Scripted {
        reads: VecDeque<Vec<u8>>,
        eof: bool,
        written: Vec<u8>,
        sink: Sink,
    }

    enum Sink {
        Accept,
        Block,
    }

    impl Scripted {
        fn new(reads: &[&[u8]], eof: bool, sink: Sink) -> Self {
            Self {
                reads: reads.iter().map(|c| c.to_vec()).collect(),
                eof,
                written: Vec::new(),
                sink,
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.reads.pop_front() {
                Some(chunk) => {
                    assert!(chunk.len() <= buf.len(), "test chunks fit the read buffer");
                    buf[..chunk.len()].copy_from_slice(&chunk);
                    Ok(chunk.len())
                }
                None if self.eof => Ok(0),
                None => Err(ErrorKind::WouldBlock.into()),
            }
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            match self.sink {
                Sink::Accept => {
                    self.written.extend_from_slice(buf);
                    Ok(buf.len())
                }
                Sink::Block => Err(ErrorKind::WouldBlock.into()),
            }
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn echo_dispatch(request: &Request, _peer: Option<IpAddr>) -> Response {
        Response::json(
            200,
            format!(
                "{{\"path\":\"{}\",\"body_len\":{}}}",
                request.path,
                request.body.len()
            ),
        )
    }

    #[test]
    fn complete_request_dispatches_and_flushes_in_one_tick() {
        let metrics = Metrics::default();
        let stream = Scripted::new(
            &[b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"],
            false,
            Sink::Accept,
        );
        let now = Instant::now();
        let mut conn = Conn::new(stream, None, now + Duration::from_secs(5));
        let drive = conn.drive(now, Duration::from_secs(5), &metrics, &echo_dispatch);
        assert!(matches!(drive, Drive::Close), "served and retired");
        let written = String::from_utf8(conn.stream.written).unwrap();
        assert!(written.starts_with("HTTP/1.1 200 OK\r\n"), "{written}");
        assert!(written.contains("\"path\":\"/healthz\""), "{written}");
        assert_eq!(metrics.http_requests.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn request_split_across_reads_is_reassembled() {
        let metrics = Metrics::default();
        let stream = Scripted::new(
            &[
                b"POST /runs HTT",
                b"P/1.1\r\nContent-Length: 4\r\n\r\n",
                b"ab",
            ],
            false,
            Sink::Accept,
        );
        let now = Instant::now();
        let mut conn = Conn::new(stream, None, now + Duration::from_secs(5));
        // First drive consumes all three chunks but the body is short.
        let drive = conn.drive(now, Duration::from_secs(5), &metrics, &echo_dispatch);
        assert!(matches!(drive, Drive::Keep { progressed: true }));
        // The last body bytes arrive on a later tick.
        conn.stream.reads.push_back(b"cd".to_vec());
        let drive = conn.drive(now, Duration::from_secs(5), &metrics, &echo_dispatch);
        assert!(matches!(drive, Drive::Close));
        let written = String::from_utf8(conn.stream.written).unwrap();
        assert!(written.contains("\"body_len\":4"), "{written}");
    }

    #[test]
    fn slow_request_times_out_with_408() {
        let metrics = Metrics::default();
        let stream = Scripted::new(&[b"GET /healthz HT"], false, Sink::Accept);
        let t0 = Instant::now();
        let mut conn = Conn::new(stream, None, t0 + Duration::from_secs(5));
        let drive = conn.drive(t0, Duration::from_secs(5), &metrics, &echo_dispatch);
        assert!(matches!(drive, Drive::Keep { .. }), "before the deadline");
        let late = t0 + Duration::from_secs(6);
        let drive = conn.drive(late, Duration::from_secs(5), &metrics, &echo_dispatch);
        assert!(matches!(drive, Drive::Close));
        assert_eq!(metrics.http_read_timeouts.load(Ordering::Relaxed), 1);
        let written = String::from_utf8(conn.stream.written).unwrap();
        assert!(written.starts_with("HTTP/1.1 408"), "{written}");
    }

    #[test]
    fn half_request_then_eof_is_counted_and_closed() {
        let metrics = Metrics::default();
        let stream = Scripted::new(&[b"GET /healthz"], true, Sink::Accept);
        let now = Instant::now();
        let mut conn = Conn::new(stream, None, now + Duration::from_secs(5));
        let drive = conn.drive(now, Duration::from_secs(5), &metrics, &echo_dispatch);
        assert!(matches!(drive, Drive::Close));
        assert_eq!(metrics.http_half_requests.load(Ordering::Relaxed), 1);
        assert!(conn.stream.written.is_empty(), "nothing to answer");
    }

    #[test]
    fn slow_reader_hits_the_write_timeout() {
        let metrics = Metrics::default();
        let stream = Scripted::new(&[b"GET /healthz HTTP/1.1\r\n\r\n"], false, Sink::Block);
        let t0 = Instant::now();
        let mut conn = Conn::new(stream, None, t0 + Duration::from_secs(5));
        let drive = conn.drive(t0, Duration::from_secs(5), &metrics, &echo_dispatch);
        assert!(
            matches!(drive, Drive::Keep { .. }),
            "response queued, peer not reading yet"
        );
        let late = t0 + Duration::from_secs(6);
        let drive = conn.drive(late, Duration::from_secs(5), &metrics, &echo_dispatch);
        assert!(matches!(drive, Drive::Close));
        assert_eq!(metrics.http_write_timeouts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn oversized_head_is_rejected_mid_stream() {
        let metrics = Metrics::default();
        let chunk = [b'a'; READ_CHUNK];
        let chunks: Vec<&[u8]> = (0..(MAX_HEAD_BYTES / READ_CHUNK) + 2)
            .map(|_| &chunk[..])
            .collect();
        let stream = Scripted::new(&chunks, false, Sink::Accept);
        let now = Instant::now();
        let mut conn = Conn::new(stream, None, now + Duration::from_secs(5));
        let drive = conn.drive(now, Duration::from_secs(5), &metrics, &echo_dispatch);
        assert!(matches!(drive, Drive::Close));
        let written = String::from_utf8(conn.stream.written).unwrap();
        assert!(written.starts_with("HTTP/1.1 413"), "{written}");
    }
}
