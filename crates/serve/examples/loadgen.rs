//! Load driver for a running `ppserved`: prewarms one pipeline config to
//! `Done`, then offers open-loop (or burst) load of identical `POST /runs`
//! submissions — which the server answers from the result cache or by
//! coalescing — and reports latency percentiles, achieved throughput, and
//! the server's own cache/coalescing counters.
//!
//! Usage:
//!     cargo run --release -p ppbench-serve --example loadgen -- \
//!         [--addr 127.0.0.1:7878] [--runs 200] [--scale 10] \
//!         [--rate 0] [--no-prewarm]
//!
//! `--rate 0` (the default) is burst mode: every connection opens before
//! any request is released, demonstrating concurrent-connection capacity.
//! A positive `--rate` offers that many requests per second open-loop,
//! with latency measured from each request's *scheduled* arrival.

use std::time::{Duration, Instant};

use ppbench_core::json::Json;
use ppbench_serve::http_request;
use ppbench_serve::loadgen::{run_load, LoadConfig};

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut runs = 200usize;
    let mut scale = 10u32;
    let mut rate = 0.0f64;
    let mut prewarm = true;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--no-prewarm" {
            prewarm = false;
            continue;
        }
        let value = args.next().unwrap_or_else(|| {
            eprintln!("loadgen: {flag} requires a value");
            std::process::exit(2);
        });
        match flag.as_str() {
            "--addr" => addr = value,
            "--runs" => runs = value.parse().expect("--runs takes a number"),
            "--scale" => scale = value.parse().expect("--scale takes a number"),
            "--rate" => rate = value.parse().expect("--rate takes a number"),
            other => {
                eprintln!("loadgen: unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }

    let body = format!("{{\"scale\":{scale},\"edge_factor\":8,\"seed\":1}}");
    if prewarm {
        // Run the config once so the measured load hits the result cache
        // (serve-layer latency) instead of queueing pipeline runs.
        let response = http_request(&addr, "POST", "/runs", Some(&body))
            .unwrap_or_else(|e| panic!("cannot reach {addr}: {e}"));
        assert_eq!(response.status, 202, "prewarm submit: {}", response.body);
        let parsed = Json::parse(&response.body).expect("submit response is JSON");
        let id = parsed.get("id").and_then(Json::as_u64).expect("id");
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let poll = http_request(&addr, "GET", &format!("/runs/{id}"), None).expect("poll job");
            let state = Json::parse(&poll.body)
                .ok()
                .and_then(|v| v.get("state").and_then(Json::as_str).map(str::to_string));
            match state.as_deref() {
                Some("done") => break,
                Some("failed") => panic!("prewarm job failed: {}", poll.body),
                _ if Instant::now() > deadline => panic!("prewarm timed out"),
                _ => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }

    let mode = if rate > 0.0 {
        format!("open-loop at {rate} req/s")
    } else {
        "burst".to_string()
    };
    println!("loadgen: {runs} POST /runs (scale {scale}, {mode}) against {addr}");
    let report = run_load(&LoadConfig {
        addr: addr.clone(),
        method: "POST".to_string(),
        path: "/runs".to_string(),
        body,
        requests: runs,
        rate,
        timeout: Duration::from_secs(30),
        max_open: 16 * 1024,
    })
    .expect("load run");

    println!(
        "  completed        {}/{} ({} errors)",
        report.completed, report.attempted, report.errors
    );
    println!(
        "  wall time        {:.3} s ({:.0} req/s achieved)",
        report.seconds, report.achieved_rps
    );
    println!("  max concurrent   {}", report.max_concurrent);
    println!("  latency p50      {:.3} ms", report.p50_ms);
    println!("  latency p90      {:.3} ms", report.p90_ms);
    println!("  latency p99      {:.3} ms", report.p99_ms);
    println!("  latency max      {:.3} ms", report.max_ms);
    for (status, count) in &report.statuses {
        println!("  status {status}     {count}");
    }

    let metrics = http_request(&addr, "GET", "/metrics", None).expect("fetch metrics");
    for line in metrics.body.lines() {
        if line.starts_with("ppbench_cache_hits_total")
            || line.starts_with("ppbench_cache_misses_total")
            || line.starts_with("ppbench_disk_cache_hits_total")
            || line.starts_with("ppbench_jobs_coalesced_total")
            || line.starts_with("ppbench_pipeline_runs_total")
            || line.starts_with("ppbench_jobs_total")
        {
            println!("  {line}");
        }
    }
}
