//! End-to-end tests: a real `Service` behind a real `HttpServer` on an
//! ephemeral port, driven over TCP with the crate's own client — the
//! same path `ppserved` and the CI smoke job use.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppbench_core::json::Json;
use ppbench_core::{Pipeline, PipelineConfig};
use ppbench_serve::{http_request, HttpServer, Service, ServiceConfig};

struct TestServer {
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(workers: usize, queue_depth: usize) -> Self {
        let service = Arc::new(
            Service::start(ServiceConfig {
                workers,
                queue_depth,
                cache_bytes: 16 << 20,
                max_scale: 10,
                max_terminal_jobs: 256,
                work_root: std::env::temp_dir().join(format!(
                    "ppbench-serve-e2e-{}-{:?}",
                    std::process::id(),
                    std::thread::current().id()
                )),
                ..ServiceConfig::default()
            })
            .expect("service starts"),
        );
        let server = HttpServer::bind("127.0.0.1:0", service).expect("bind ephemeral port");
        let addr = server.local_addr().expect("bound address");
        let thread = std::thread::spawn(move || server.run());
        Self {
            addr,
            thread: Some(thread),
        }
    }

    fn get(&self, path: &str) -> (u16, String) {
        let r = http_request(self.addr, "GET", path, None).expect("GET");
        (r.status, r.body)
    }

    fn post(&self, path: &str, body: &str) -> (u16, String) {
        let r = http_request(self.addr, "POST", path, Some(body)).expect("POST");
        (r.status, r.body)
    }

    fn submit(&self, body: &str) -> (u16, Json) {
        let (status, text) = self.post("/runs", body);
        (status, Json::parse(&text).expect("JSON response"))
    }

    fn wait_done(&self, id: u64) -> Json {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (status, body) = self.get(&format!("/runs/{id}"));
            assert_eq!(status, 200, "{body}");
            let parsed = Json::parse(&body).expect("job JSON");
            match parsed.get("state").and_then(Json::as_str) {
                Some("done") => return parsed,
                Some("failed") => panic!("job {id} failed: {body}"),
                _ => {
                    assert!(Instant::now() < deadline, "job {id} did not finish");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    fn shutdown(&mut self) {
        let (status, _) = self.post("/shutdown", "");
        assert_eq!(status, 202);
        if let Some(thread) = self.thread.take() {
            thread.join().expect("server thread exits cleanly");
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        if self.thread.is_some() {
            // Best-effort shutdown if a test forgot (or panicked).
            let _ = http_request(self.addr, "POST", "/shutdown", Some(""));
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

#[test]
fn healthz_and_metrics_respond() {
    let server = TestServer::start(1, 4);
    let (status, body) = server.get("/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    let (status, metrics) = server.get("/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("ppbench_queue_depth"), "{metrics}");
    assert!(
        metrics.contains("ppbench_kernel_seconds_bucket"),
        "{metrics}"
    );
}

#[test]
fn submit_poll_and_fetch_ranks_end_to_end() {
    let server = TestServer::start(2, 8);
    let (status, receipt) = server.submit(r#"{"scale": 8, "edge_factor": 4, "seed": 42}"#);
    assert_eq!(status, 202, "{receipt:?}");
    let id = receipt.get("id").and_then(Json::as_u64).expect("id");
    assert_eq!(receipt.get("cached"), Some(&Json::Bool(false)));

    let job = server.wait_done(id);
    let result = job.get("result").expect("done job embeds the run record");
    assert_eq!(
        result.get("record").and_then(Json::as_str),
        Some("ppbench-run-v1")
    );
    assert_eq!(result.get("scale").and_then(Json::as_u64), Some(8));
    assert_eq!(
        result.get("validation_passed"),
        Some(&Json::Bool(true)),
        "default validation level must pass"
    );

    let (status, body) = server.get(&format!("/runs/{id}/ranks?top=5"));
    assert_eq!(status, 200, "{body}");
    let ranks = Json::parse(&body).expect("ranks JSON");
    let Json::Array(entries) = ranks.get("ranks").expect("ranks array") else {
        panic!("ranks is not an array: {body}");
    };
    assert_eq!(entries.len(), 5);

    // Bit-identical to a serial in-process run of the same config.
    let work = std::env::temp_dir().join(format!("ppbench-serve-serial-{}", std::process::id()));
    let config = PipelineConfig::builder()
        .scale(8)
        .edge_factor(4)
        .seed(42)
        .build();
    let serial = Pipeline::new(config, &work).run().expect("serial run");
    let _ = std::fs::remove_dir_all(&work);
    let expected = serial.kernel3.expect("kernel 3 ran").top_k(5);
    for (entry, (vertex, rank)) in entries.iter().zip(expected) {
        assert_eq!(entry.get("vertex").and_then(Json::as_u64), Some(vertex));
        let bits = entry
            .get("rank_bits")
            .and_then(Json::as_str)
            .expect("rank_bits");
        assert_eq!(
            bits,
            format!("{:016x}", rank.to_bits()),
            "served rank must be bit-identical to the serial run"
        );
    }
}

#[test]
fn duplicate_config_is_served_from_cache() {
    let server = TestServer::start(1, 8);
    let body = r#"{"scale": 7, "edge_factor": 4, "seed": 9}"#;
    let (_, first) = server.submit(body);
    let first_id = first.get("id").and_then(Json::as_u64).unwrap();
    server.wait_done(first_id);

    // Field order must not defeat the cache.
    let (_, second) = server.submit(r#"{"seed": 9, "edge_factor": 4, "scale": 7}"#);
    assert_eq!(second.get("cached"), Some(&Json::Bool(true)), "{second:?}");
    assert_eq!(
        first.get("config_hash"),
        second.get("config_hash"),
        "same config must hash the same regardless of field order"
    );
    let second_id = second.get("id").and_then(Json::as_u64).unwrap();
    let (status, cached_ranks) = server.get(&format!("/runs/{second_id}/ranks?top=3"));
    assert_eq!(status, 200);
    let (_, fresh_ranks) = server.get(&format!("/runs/{first_id}/ranks?top=3"));
    assert_eq!(
        cached_ranks.replace(&format!("\"id\":{second_id}"), ""),
        fresh_ranks.replace(&format!("\"id\":{first_id}"), ""),
        "cached ranks must be identical to the original run's"
    );

    let (_, metrics) = server.get("/metrics");
    assert!(
        metrics.lines().any(|l| l == "ppbench_cache_hits_total 1"),
        "{metrics}"
    );

    // A different seed is a different config: cache miss.
    let (_, third) = server.submit(r#"{"scale": 7, "edge_factor": 4, "seed": 10}"#);
    assert_eq!(third.get("cached"), Some(&Json::Bool(false)));
    assert_ne!(first.get("config_hash"), third.get("config_hash"));
}

#[test]
fn full_queue_returns_429_with_retry_after() {
    // One worker, zero queue slots: while the worker is busy, any
    // further submission must be rejected with 429.
    let server = TestServer::start(1, 0);
    let mut saw_429 = false;
    for attempt in 0..20 {
        let body = format!(r#"{{"scale": 8, "edge_factor": 8, "seed": {attempt}}}"#);
        let response = http_request(server.addr, "POST", "/runs", Some(&body)).unwrap();
        if response.status == 429 {
            assert_eq!(response.header("retry-after"), Some("1"));
            assert!(response.body.contains("queue"), "{}", response.body);
            saw_429 = true;
            break;
        }
        assert_eq!(response.status, 202, "{}", response.body);
    }
    assert!(
        saw_429,
        "a zero-depth queue must reject a concurrent submission"
    );
}

#[test]
fn cancel_queued_job_and_reject_cancel_of_done_job() {
    let server = TestServer::start(1, 8);
    // Occupy the single worker, then queue another job behind it.
    let (_, busy) = server.submit(r#"{"scale": 9, "edge_factor": 8, "seed": 1}"#);
    let busy_id = busy.get("id").and_then(Json::as_u64).unwrap();
    let (_, queued) = server.submit(r#"{"scale": 9, "edge_factor": 8, "seed": 2}"#);
    let queued_id = queued.get("id").and_then(Json::as_u64).unwrap();

    let r = http_request(server.addr, "DELETE", &format!("/runs/{queued_id}"), None).unwrap();
    if r.status == 200 {
        let (status, body) = server.get(&format!("/runs/{queued_id}"));
        assert_eq!(status, 200);
        assert!(body.contains("\"state\":\"cancelled\""), "{body}");
    } else {
        // The worker may have grabbed the second job already (tiny runs);
        // then cancellation must be refused as a conflict.
        assert_eq!(r.status, 409, "{}", r.body);
    }

    server.wait_done(busy_id);
    let r = http_request(server.addr, "DELETE", &format!("/runs/{busy_id}"), None).unwrap();
    assert_eq!(r.status, 409, "done jobs cannot be cancelled: {}", r.body);

    let r = http_request(server.addr, "DELETE", "/runs/99999", None).unwrap();
    assert_eq!(r.status, 404);
}

#[test]
fn bad_requests_get_400s_not_500s() {
    let server = TestServer::start(1, 4);
    let (status, body) = server.post("/runs", "{not json");
    assert_eq!(status, 400, "{body}");
    let (status, body) = server.post("/runs", r#"{"scal": 10}"#);
    assert_eq!(status, 400);
    assert!(body.contains("scal"), "{body}");
    let (status, body) = server.post("/runs", r#"{"scale": 11}"#);
    assert_eq!(status, 400, "over max_scale: {body}");
    assert!(body.contains("exceeds"), "{body}");
    let (status, _) = server.get("/runs/not-a-number");
    assert_eq!(status, 400);
    let (status, _) = server.get("/nope");
    assert_eq!(status, 404);
    let (status, _) = server.post("/healthz", "");
    assert_eq!(status, 405);
    let (status, _) = server.get("/runs/1/ranks?top=0");
    assert_eq!(status, 400);
}

#[test]
fn generator_limit_violations_get_400_not_a_dropped_connection() {
    // These configs would panic GraphSpec::new if they reached the
    // builder; the server must answer 400 and stay healthy.
    let server = TestServer::start(1, 4);
    for body in [
        r#"{"scale": 60}"#,
        r#"{"edge_factor": 1000000000000000000}"#,
        r#"{"scale": 57, "edge_factor": 1024}"#,
    ] {
        let (status, reply) = server.post("/runs", body);
        assert_eq!(status, 400, "{body} -> {reply}");
    }
    let (status, _) = server.get("/healthz");
    assert_eq!(status, 200, "server must survive hostile configs");
}

#[test]
fn endless_header_line_is_rejected_not_buffered() {
    use std::io::{Read, Write};
    let server = TestServer::start(1, 4);
    let mut stream = std::net::TcpStream::connect(server.addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nX-Junk: ")
        .expect("head");
    // Stream far more than the 16 KiB head budget with no newline; the
    // server must answer 413 mid-line instead of buffering forever.
    let chunk = [b'a'; 4096];
    let mut rejected = false;
    for _ in 0..32 {
        if stream.write_all(&chunk).is_err() {
            // The server already responded and closed; that's a pass too.
            rejected = true;
            break;
        }
    }
    let mut reply = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => reply.extend_from_slice(&buf[..n]),
            // A reset is the server slamming the door on our junk: fine.
            Err(_) => break,
        }
    }
    let reply = String::from_utf8_lossy(&reply);
    if !rejected && !reply.is_empty() {
        assert!(
            reply.starts_with("HTTP/1.1 413"),
            "expected 413, not a timeout or buffered read: {reply}"
        );
    }
    let (status, _) = server.get("/healthz");
    assert_eq!(status, 200, "server must keep serving afterwards");
}

#[test]
fn ranks_of_unfinished_job_is_a_conflict() {
    let server = TestServer::start(1, 8);
    let (_, first) = server.submit(r#"{"scale": 9, "edge_factor": 8, "seed": 77}"#);
    let first_id = first.get("id").and_then(Json::as_u64).unwrap();
    let (_, second) = server.submit(r#"{"scale": 9, "edge_factor": 8, "seed": 78}"#);
    let second_id = second.get("id").and_then(Json::as_u64).unwrap();
    // The second job is queued or at best running; its ranks don't exist.
    let r = http_request(
        server.addr,
        "GET",
        &format!("/runs/{second_id}/ranks"),
        None,
    )
    .unwrap();
    assert!(
        r.status == 409 || r.status == 200,
        "unexpected status {}: {}",
        r.status,
        r.body
    );
    server.wait_done(first_id);
    server.wait_done(second_id);
}

#[test]
fn graceful_shutdown_finishes_accepted_jobs() {
    let mut server = TestServer::start(2, 16);
    let ids: Vec<u64> = (0..4)
        .map(|seed| {
            let (status, receipt) = server.submit(&format!(
                r#"{{"scale": 8, "edge_factor": 4, "seed": {seed}}}"#
            ));
            assert_eq!(status, 202);
            receipt.get("id").and_then(Json::as_u64).unwrap()
        })
        .collect();
    server.shutdown();
    // The server thread has joined: every accepted job must have finished.
    // The listener is gone, so verify through a fresh service? No — the
    // drain contract is observable precisely because join returned only
    // after Service::drain completed, which waits for queue + running to
    // empty. Reaching this line is the assertion; ids documents intent.
    assert_eq!(ids.len(), 4);
}

#[test]
fn mixed_concurrent_load_all_reach_done_with_cache_hits() {
    // The ISSUE's E2E shape, scaled for a unit-test budget: ≥20 concurrent
    // submissions with duplicates, two workers, everything reaches Done,
    // and every duplicate is deduplicated — either by a cache hit (the
    // original already finished) or by coalescing onto the in-flight run.
    let server = TestServer::start(2, 32);
    let mut ids = Vec::new();
    for i in 0..20u64 {
        let seed = i % 6; // guarantees duplicates
        let body = format!(r#"{{"scale": 7, "edge_factor": 4, "seed": {seed}}}"#);
        let (status, receipt) = server.submit(&body);
        assert_eq!(status, 202, "submission {i} rejected: {receipt:?}");
        ids.push(receipt.get("id").and_then(Json::as_u64).unwrap());
    }
    for id in ids {
        server.wait_done(id);
    }
    let (_, metrics) = server.get("/metrics");
    let counter = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("{name} counter present:\n{metrics}"))
    };
    let deduped = counter("ppbench_cache_hits_total ") + counter("ppbench_jobs_coalesced_total ");
    assert!(
        deduped > 0,
        "duplicate configs must hit the cache or coalesce:\n{metrics}"
    );
    assert!(
        counter("ppbench_pipeline_runs_total ") <= 6,
        "at most one pipeline run per distinct config:\n{metrics}"
    );
    let done: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("ppbench_jobs_total{state=\"done\"} "))
        .and_then(|v| v.parse().ok())
        .expect("done counter present");
    assert_eq!(done, 20, "{metrics}");
}
