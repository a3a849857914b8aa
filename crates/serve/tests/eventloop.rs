//! Event-loop front-end behavior over real sockets: concurrency beyond
//! the old thread-per-connection cap, slow-client timeouts, half-request
//! accounting, malformed-line diagnostics, and shutdown draining.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppbench_serve::loadgen::{run_load, LoadConfig};
use ppbench_serve::{http_request, HttpServer, ServerConfig, Service, ServiceConfig};

struct TestServer {
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(server_cfg: ServerConfig) -> Self {
        let service = Arc::new(
            Service::start(ServiceConfig {
                workers: 1,
                queue_depth: 16,
                work_root: std::env::temp_dir().join(format!(
                    "ppbench-eventloop-{}-{:?}",
                    std::process::id(),
                    std::thread::current().id()
                )),
                ..ServiceConfig::default()
            })
            .expect("service starts"),
        );
        let server =
            HttpServer::bind_with("127.0.0.1:0", service, server_cfg).expect("bind ephemeral");
        let addr = server.local_addr().expect("bound address");
        let thread = std::thread::spawn(move || server.run());
        Self {
            addr,
            thread: Some(thread),
        }
    }

    fn metrics(&self) -> String {
        http_request(self.addr, "GET", "/metrics", None)
            .expect("GET /metrics")
            .body
    }

    fn counter(&self, name: &str) -> u64 {
        self.metrics()
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("counter {name} missing"))
    }

    fn shutdown(&mut self) {
        let r = http_request(self.addr, "POST", "/shutdown", Some("")).expect("POST /shutdown");
        assert_eq!(r.status, 202);
        if let Some(thread) = self.thread.take() {
            thread.join().expect("server thread exits");
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        if self.thread.is_some() {
            let _ = http_request(self.addr, "POST", "/shutdown", Some(""));
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

/// Read until EOF with a generous client-side timeout.
fn read_reply(stream: &mut TcpStream) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    let mut reply = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => reply.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    String::from_utf8_lossy(&reply).into_owned()
}

#[test]
fn burst_of_256_connections_is_served_concurrently() {
    // The old thread-per-connection front end hard-capped at 64 concurrent
    // connections; the event loop must hold a 4x burst open at once and
    // answer every request.
    let mut server = TestServer::start(ServerConfig::default());
    let report = run_load(&LoadConfig {
        addr: server.addr.to_string(),
        requests: 256,
        ..LoadConfig::default()
    })
    .expect("burst load");
    assert_eq!(report.attempted, 256);
    assert_eq!(report.errors, 0, "no connection may be dropped: {report:?}");
    assert_eq!(report.completed, 256);
    assert_eq!(report.status_count(200), 256, "{report:?}");
    assert!(
        report.max_concurrent >= 256,
        "burst mode must hold all connections open together: {report:?}"
    );
    server.shutdown();
}

#[test]
fn slow_client_is_timed_out_with_408() {
    let mut server = TestServer::start(ServerConfig {
        read_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let started = Instant::now();
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    // A head with no terminating blank line: the server must not wait
    // forever for the rest.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nX-Slow: yes\r\n")
        .expect("partial head");
    let reply = read_reply(&mut stream);
    assert!(
        reply.starts_with("HTTP/1.1 408"),
        "expected a 408 for the stalled request: {reply:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the timeout must be prompt"
    );
    assert!(server.counter("ppbench_http_errors_total{kind=\"read_timeout\"} ") >= 1);
    // The event loop keeps serving other clients afterwards.
    let r = http_request(server.addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(r.status, 200);
    server.shutdown();
}

#[test]
fn half_request_then_disconnect_is_counted_not_fatal() {
    let mut server = TestServer::start(ServerConfig::default());
    {
        let mut stream = TcpStream::connect(server.addr).expect("connect");
        stream
            .write_all(b"POST /runs HTTP/1.1\r\nCont")
            .expect("half");
        // Dropping the stream closes it mid-request.
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if server.counter("ppbench_http_errors_total{kind=\"half_request\"} ") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "half request was never accounted: {}",
            server.metrics()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let r = http_request(server.addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(r.status, 200, "server survives abandoned connections");
    server.shutdown();
}

#[test]
fn malformed_request_line_gets_a_quoted_400_diagnostic() {
    let mut server = TestServer::start(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream.write_all(b"BOGUS\r\n\r\n").expect("write");
    let reply = read_reply(&mut stream);
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply:?}");
    assert!(
        reply.contains("malformed request line") && reply.contains("BOGUS"),
        "the diagnostic must quote the offending line: {reply:?}"
    );

    // A bogus protocol version is malformed too.
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream.write_all(b"GET / SPDY/9\r\n\r\n").expect("write");
    let reply = read_reply(&mut stream);
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply:?}");
    assert!(reply.contains("SPDY/9"), "{reply:?}");
    server.shutdown();
}

#[test]
fn deeply_nested_body_is_a_400_and_the_server_lives_on() {
    let mut server = TestServer::start(ServerConfig::default());
    // Under the body-size cap, but far deeper than the parser's nesting cap.
    let body = "[".repeat(60_000);
    let reply = http_request(server.addr, "POST", "/runs", Some(&body)).expect("POST /runs");
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(reply.body.contains("nesting"), "{}", reply.body);
    let health = http_request(server.addr, "GET", "/healthz", None).expect("GET /healthz");
    assert_eq!(health.status, 200, "{}", health.body);
    server.shutdown();
}

#[test]
fn connections_in_flight_at_shutdown_still_get_their_response() {
    let mut server = TestServer::start(ServerConfig::default());
    // Open a connection and send only part of the request.
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\n")
        .expect("partial head");

    // Trigger the drain from a second connection.
    let r = http_request(server.addr, "POST", "/shutdown", Some("")).expect("shutdown");
    assert_eq!(r.status, 202);

    // Complete the stalled request within the drain grace period: the
    // event loop must still answer it before exiting.
    stream.write_all(b"\r\n").expect("finish head");
    let reply = read_reply(&mut stream);
    assert!(
        reply.starts_with("HTTP/1.1 200"),
        "in-flight request must be served during drain: {reply:?}"
    );
    if let Some(thread) = server.thread.take() {
        thread.join().expect("server drains and exits");
    }
}
