//! The serve-layer probe of a traced invocation: `ppserved` as its own
//! process, driven over HTTP by a single-threaded open-loop client on at
//! most two connections. Most requests resubmit a warm set (cache hits);
//! the rest are new small configurations (real misses), a few of them
//! resubmitted while in flight (coalescing).

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use ppbench_core::{PipelineConfig, Variant, Workload};
use ppbench_prng::{Rng64, SplitMix64};

use crate::host::{peak_rss_mb, reset_peak_rss};
use crate::http::{self, all_u64, counter_delta, field, Conn, Response};
use crate::layers::set_threads;
use crate::load::{OpenLoop, Timing};
use crate::pipe::{self, top_ids};
use crate::report::Outcome;
use crate::stats::{median, percentile, tail};

/// Scale of every submitted configuration.
const SCALE: u32 = 12;
/// Configurations submitted during set-up and resubmitted as hits.
const WARM: usize = 8;
/// Offered arrivals per second.
const RATE: f64 = 150.0;
/// Every this many arrivals, one is a new configuration (5%, 7.5 per
/// second): with scale-12 jobs of about 47 ms on a 2-core host the worker
/// pool is busy about a third of the time, leaving headroom for a slower
/// host before misses queue. Misses are evenly spaced, so how often two
/// overlap does not depend on the seed.
const MISS_EVERY: usize = 20;
/// Every this many misses, one is resubmitted while in flight.
const DUP_EVERY: usize = 6;
/// How long after its original a resubmission falls due.
const DUP_AFTER: Duration = Duration::from_millis(10);
/// Gap between polls. One poll is outstanding at a time, cycling over the
/// misses not yet done, so poll traffic stays bounded when misses queue up.
const POLL: Duration = Duration::from_millis(5);
/// Every this many hits, the hit's result is fetched and checked.
const VERIFY_HIT_EVERY: usize = 25;
/// Every this many misses, the miss's result is checked in process.
const VERIFY_MISS_EVERY: usize = 10;
/// Latency limits per class.
const HIT_SLO: Duration = Duration::from_millis(10);
const MISS_SLO: Duration = Duration::from_millis(250);
/// Connections the client may hold open at once.
const CONNS: usize = 2;
/// A request not answered within this fails.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// Times the server is set up per invocation; the median is reported and
/// the last one serves the load.
const SETUPS: usize = 5;
/// Length of the windows the server's peak RSS is read over.
const RSS_WINDOW: Duration = Duration::from_secs(1);
/// The workloads misses cycle through.
const CYCLE: [Workload; 4] = [
    Workload::PageRank,
    Workload::Bfs,
    Workload::Cc,
    Workload::Sssp,
];

/// One submittable configuration and what the server must report for it.
struct Cfg {
    body: String,
    hash: String,
    config: PipelineConfig,
}

impl Cfg {
    fn new(seed: u64, workload: Workload) -> Self {
        let config = PipelineConfig::builder()
            .scale(SCALE)
            .seed(seed)
            .variant(Variant::Parallel)
            .workload(workload)
            .build();
        Self {
            body: format!(
                "{{\"scale\":{SCALE},\"seed\":{seed},\"variant\":\"parallel\",\"workload\":\"{}\"}}",
                workload.name()
            ),
            hash: format!("{:016x}", config.canonical_hash()),
            config,
        }
    }

    fn is_pagerank(&self) -> bool {
        self.config.workload == Workload::PageRank
    }
}

/// A spawned `ppserved`; killed and reaped on drop if not shut down.
struct Server {
    child: Child,
    // Held open so the server's last log line does not hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    fn spawn(bin: &Path, work_root: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--work-root"])
            .arg(work_root)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let mut server = Self {
            child,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => server.addr = addr,
            _ => return Err(format!("ppserved did not report its address: {line:?}")),
        }
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn get(&self, path: &str) -> Result<Response, String> {
        http::request(self.addr, "GET", path, "", REQUEST_TIMEOUT)
            .map_err(|e| format!("GET {path}: {e}"))
    }

    fn post(&self, path: &str, body: &str) -> Result<Response, String> {
        http::request(self.addr, "POST", path, body, REQUEST_TIMEOUT)
            .map_err(|e| format!("POST {path}: {e}"))
    }

    /// Drains the server and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let _ = self.post("/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("ppserved exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("cannot wait for ppserved: {e}")),
            }
        }
        Err("ppserved did not drain within 10 s".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Spawns a server and brings the warm set to `done`; returns it with the
/// set-up time (spawn to healthy to warm).
fn set_up(bin: &Path, work_root: &Path, warm: &[Cfg]) -> Result<(Server, f64), String> {
    let _ = std::fs::remove_dir_all(work_root);
    let t = Instant::now();
    let server = Server::spawn(bin, work_root)?;
    let healthy_by = Instant::now() + Duration::from_secs(10);
    while !server.get("/healthz").is_ok_and(|r| r.status == 200) {
        if Instant::now() > healthy_by {
            return Err("ppserved never became healthy".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut ids = Vec::new();
    for cfg in warm {
        let r = server.post("/runs", &cfg.body)?;
        let fresh = r.status == 202 && field(&r.body, "cached") == Some("false");
        let id = field(&r.body, "id").and_then(|v| v.parse::<u64>().ok());
        match id {
            Some(id) if fresh && field(&r.body, "config_hash") == Some(cfg.hash.as_str()) => {
                ids.push(id)
            }
            _ => {
                return Err(format!(
                    "warm-set submission rejected: {} {}",
                    r.status, r.body
                ))
            }
        }
    }
    while let Some(&id) = ids.first() {
        let r = server.get(&format!("/runs/{id}"))?;
        match field(&r.body, "state") {
            Some("done") => {
                ids.remove(0);
            }
            Some("queued" | "running") => std::thread::sleep(Duration::from_millis(2)),
            _ => return Err(format!("warm-set job {id} failed: {}", r.body)),
        }
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Class {
    Hit,
    Miss,
    Dup,
}

/// One arrival and everything observed about it.
struct Req {
    class: Class,
    cfg: usize,
    due: Duration,
    sent: Duration,
    done: Option<Duration>,
    id: Option<u64>,
    polls: u32,
    run_s: Option<f64>,
    error: Option<String>,
    /// Whether its result is checked against an in-process run.
    verify: bool,
    /// The result the server gave: top-10 ids or checksum.
    served: Option<String>,
}

#[derive(Debug, Clone, Copy)]
enum Action {
    Post(usize),
    /// Poll whichever miss is next in turn.
    PollNext,
    Poll(usize),
    Fetch(usize),
}

/// Builds the arrival schedule: requests, and the configurations they name
/// (the warm set first).
fn plan(seed: u64, seconds: f64) -> (Vec<Cfg>, Vec<Req>) {
    let mut rng = SplitMix64::new(seed);
    let mut cfgs: Vec<Cfg> = (0..WARM)
        .map(|i| Cfg::new(rng.next_u64(), CYCLE[i % CYCLE.len()]))
        .collect();
    let mut reqs = Vec::new();
    let arrivals = (RATE * seconds).round().max(1.0) as usize;
    let (mut hits, mut misses) = (0usize, 0usize);
    let req = |class, cfg, due, verify| Req {
        class,
        cfg,
        due,
        sent: due,
        done: None,
        id: None,
        polls: 0,
        run_s: None,
        error: None,
        verify,
        served: None,
    };
    for i in 0..arrivals {
        let due = Duration::from_secs_f64(i as f64 / RATE);
        if i % MISS_EVERY == MISS_EVERY / 2 {
            cfgs.push(Cfg::new(rng.next_u64(), CYCLE[misses % CYCLE.len()]));
            reqs.push(req(
                Class::Miss,
                cfgs.len() - 1,
                due,
                misses % VERIFY_MISS_EVERY == 0,
            ));
            misses += 1;
            if misses % DUP_EVERY == 0 {
                reqs.push(req(Class::Dup, cfgs.len() - 1, due + DUP_AFTER, false));
            }
        } else {
            let cfg = (rng.next_u64() % WARM as u64) as usize;
            reqs.push(req(Class::Hit, cfg, due, hits % VERIFY_HIT_EVERY == 0));
            hits += 1;
        }
    }
    (cfgs, reqs)
}

/// What the open-loop client saw.
struct LoadResult {
    reqs: Vec<Req>,
    http_errors: usize,
    /// The server's peak RSS in each window, MiB.
    window_peaks_mb: Vec<f64>,
}

/// Offers the planned arrivals to the server and follows every miss to
/// `done`, reading the server's peak RSS once per window.
fn drive(server: &Server, cfgs: &[Cfg], mut reqs: Vec<Req>, seconds: f64) -> LoadResult {
    let addr = server.addr;
    let mut window_peaks_mb = Vec::new();
    let mut window_end = RSS_WINDOW;
    let _ = reset_peak_rss(server.pid());
    let mut lp = OpenLoop::new(CONNS);
    for (i, r) in reqs.iter().enumerate() {
        lp.schedule(r.due, Action::Post(i));
    }
    let give_up = Duration::from_secs_f64(seconds) + Duration::from_secs(30);
    let mut conns: Vec<(Action, Conn, Duration)> = Vec::new();
    let mut http_errors = 0usize;
    // Misses not yet seen `done`, in polling order, and whether a poll is
    // queued or in flight.
    let mut awaiting: VecDeque<usize> = VecDeque::new();
    let mut poll_armed = false;
    let start = Instant::now();
    let fail = |r: &mut Req, why: String| {
        r.error.get_or_insert(why);
    };
    loop {
        let now = start.elapsed();
        if now >= window_end {
            if let Ok(peak) = peak_rss_mb(server.pid()) {
                window_peaks_mb.push(peak);
            }
            let _ = reset_peak_rss(server.pid());
            window_end += RSS_WINDOW;
        }
        let mut moved = false;
        while let Some((_, action)) = lp.start(now) {
            moved = true;
            let action = match action {
                Action::PollNext => match awaiting.pop_front() {
                    Some(i) => Action::Poll(i),
                    None => {
                        lp.finish();
                        poll_armed = false;
                        continue;
                    }
                },
                other => other,
            };
            let (method, path, body) = match action {
                Action::PollNext => unreachable!("resolved to a miss above"),
                Action::Post(i) => ("POST", "/runs".to_string(), cfgs[reqs[i].cfg].body.as_str()),
                Action::Poll(i) => ("GET", format!("/runs/{}", reqs[i].id.unwrap_or(0)), ""),
                Action::Fetch(i) if cfgs[reqs[i].cfg].is_pagerank() => (
                    "GET",
                    format!("/runs/{}/ranks?top=10", reqs[i].id.unwrap_or(0)),
                    "",
                ),
                Action::Fetch(i) => ("GET", format!("/runs/{}", reqs[i].id.unwrap_or(0)), ""),
            };
            let i = action_req(action);
            if let Action::Post(_) = action {
                reqs[i].sent = now;
            }
            match Conn::open(addr, method, &path, body) {
                Ok(conn) => conns.push((action, conn, now)),
                Err(e) => {
                    lp.finish();
                    fail(&mut reqs[i], format!("connect: {e}"));
                    if let Action::Poll(_) = action {
                        rearm_poll(&mut lp, &awaiting, &mut poll_armed, now);
                    }
                }
            }
        }
        let mut k = 0;
        while k < conns.len() {
            let (action, conn, opened) = &mut conns[k];
            let (action, opened) = (*action, *opened);
            let i = action_req(action);
            let outcome = conn.drive();
            let t = start.elapsed();
            let response = match outcome {
                Ok((Some(r), _)) => Ok(r),
                Ok((None, m)) if t.saturating_sub(opened) < REQUEST_TIMEOUT => {
                    moved |= m;
                    k += 1;
                    continue;
                }
                Ok((None, _)) => Err("request timed out".to_string()),
                Err(e) => Err(format!("transport: {e}")),
            };
            conns.swap_remove(k);
            lp.finish();
            moved = true;
            let response = response.and_then(|r| {
                if r.is_success() {
                    Ok(r)
                } else {
                    http_errors += 1;
                    Err(format!("HTTP {}: {}", r.status, r.body))
                }
            });
            let response = match response {
                Ok(r) => r,
                Err(why) => {
                    fail(&mut reqs[i], why);
                    if let Action::Poll(_) = action {
                        rearm_poll(&mut lp, &awaiting, &mut poll_armed, t);
                    }
                    continue;
                }
            };
            let cfg = &cfgs[reqs[i].cfg];
            let r = &mut reqs[i];
            let body = response.body.as_str();
            let hash_ok = || field(body, "config_hash") == Some(cfg.hash.as_str());
            match action {
                Action::Post(_) => {
                    let cached = field(body, "cached") == Some("true");
                    let coalesced = field(body, "coalesced") == Some("true");
                    r.id = field(body, "id").and_then(|v| v.parse().ok());
                    match r.class {
                        Class::Hit if cached && hash_ok() => {
                            r.done = Some(t);
                            if r.verify {
                                lp.schedule(t, Action::Fetch(i));
                            }
                        }
                        Class::Miss if !cached && !coalesced && hash_ok() => {
                            awaiting.push_back(i);
                            if !poll_armed {
                                rearm_poll(&mut lp, &awaiting, &mut poll_armed, t);
                            }
                        }
                        Class::Dup if (cached || coalesced) && hash_ok() => r.done = Some(t),
                        class => fail(r, format!("{class:?} answered {body}")),
                    }
                }
                Action::Poll(_) => {
                    r.polls += 1;
                    match field(body, "state") {
                        Some("done") => {
                            r.done = Some(t);
                            r.run_s = field(body, "total_seconds").and_then(|v| v.parse().ok());
                            if r.verify {
                                if cfg.is_pagerank() {
                                    lp.schedule(t, Action::Fetch(i));
                                } else {
                                    r.served = field(body, "checksum").map(str::to_string);
                                }
                            }
                        }
                        Some("queued" | "running") => awaiting.push_back(i),
                        _ => fail(r, format!("miss job ended: {body}")),
                    }
                    rearm_poll(&mut lp, &awaiting, &mut poll_armed, t);
                }
                Action::PollNext => unreachable!("never in flight"),
                Action::Fetch(_) => {
                    r.served = if cfg.is_pagerank() {
                        Some(ids_key(&all_u64(body, "vertex")))
                    } else {
                        field(body, "checksum").map(str::to_string)
                    };
                }
            }
        }
        if lp.is_idle() {
            break;
        }
        let now = start.elapsed();
        if now > give_up {
            for r in reqs.iter_mut().filter(|r| r.done.is_none()) {
                fail(r, "never completed".to_string());
            }
            break;
        }
        if !moved {
            let idle = lp
                .next_due()
                .map_or(Duration::from_millis(1), |d| d.saturating_sub(now));
            // With requests in flight, nap briefly: the wait for a
            // response is then timed to within 250 µs without the client
            // taking CPU the server needs.
            let nap = if conns.is_empty() {
                idle
            } else {
                Duration::from_micros(250)
            };
            std::thread::sleep(nap.clamp(Duration::from_micros(20), Duration::from_millis(1)));
        }
    }
    LoadResult {
        reqs,
        http_errors,
        window_peaks_mb,
    }
}

fn action_req(action: Action) -> usize {
    match action {
        Action::Post(i) | Action::Poll(i) | Action::Fetch(i) => i,
        Action::PollNext => unreachable!("resolved before it is sent"),
    }
}

/// Queues the next poll after one finished at `now`, if any miss is still
/// awaited.
fn rearm_poll(
    lp: &mut OpenLoop<Action>,
    awaiting: &VecDeque<usize>,
    armed: &mut bool,
    now: Duration,
) {
    *armed = !awaiting.is_empty();
    if *armed {
        lp.schedule(now + POLL, Action::PollNext);
    }
}

/// Top-k vertex ids as one comparable string.
fn ids_key(ids: &[u64]) -> String {
    ids.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
}

/// What one mixed load showed, server side and client side.
#[derive(Debug, Default)]
pub struct ServeFigures {
    setup_s: f64,
    peak_rss_mb: f64,
    cache_hit_ratio: f64,
    coalesced: f64,
    rejected: f64,
    http_errors: f64,
    run_ms_p50: f64,
    queue_wait_ms_p50: f64,
    polls_per_miss: f64,
    hit_p50_ms: f64,
    hit_tail_ms: f64,
    miss_p50_ms: f64,
    miss_tail_ms: f64,
    slo_frac: f64,
    late_ms_p99: f64,
    achieved_rps: f64,
}

impl ServeFigures {
    /// Records the `serve.*` and `load.*` metrics.
    pub fn record(&self, out: &mut Outcome) {
        out.metric("serve.setup_s", self.setup_s, "s", SETUPS);
        out.metric("serve.peak_rss_mb", self.peak_rss_mb, "MiB", 1);
        out.metric("serve.cache_hit_ratio", self.cache_hit_ratio, "ratio", 1);
        out.metric("serve.coalesced", self.coalesced, "count", 1);
        out.metric("serve.rejected", self.rejected, "count", 1);
        out.metric("serve.http_errors", self.http_errors, "count", 1);
        out.metric("serve.run_ms_p50", self.run_ms_p50, "ms", 1);
        out.metric("serve.queue_wait_ms_p50", self.queue_wait_ms_p50, "ms", 1);
        out.metric("serve.polls_per_miss", self.polls_per_miss, "count", 1);
        out.metric("load.hit_p50_ms", self.hit_p50_ms, "ms", 1);
        out.metric("load.hit_tail_ms", self.hit_tail_ms, "ms", 1);
        out.metric("load.miss_p50_ms", self.miss_p50_ms, "ms", 1);
        out.metric("load.miss_tail_ms", self.miss_tail_ms, "ms", 1);
        out.metric("load.slo_frac", self.slo_frac, "ratio", 1);
        out.metric("load.late_ms_p99", self.late_ms_p99, "ms", 1);
        out.metric("load.achieved_rps", self.achieved_rps, "1/s", 1);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Spawns `bin` (ppserved) with default settings, offers the mixed load for
/// `seconds`, checks every answer, and returns what it showed. Zeros when
/// no server could be set up (the failure is recorded in `out`).
pub fn probe(bin: &Path, seed: u64, seconds: f64, root: &Path, out: &mut Outcome) -> ServeFigures {
    let (cfgs, reqs) = plan(seed, seconds);
    let work_root = root.join("serve");

    let mut setups = Vec::new();
    let mut server = None;
    for round in 0..SETUPS {
        match set_up(bin, &work_root, &cfgs[..WARM]) {
            Ok((s, secs)) => {
                out.op(true, String::new);
                setups.push(secs);
                if round + 1 < SETUPS {
                    if let Err(e) = s.shutdown() {
                        out.op(false, || e);
                    }
                } else {
                    server = Some(s);
                }
            }
            Err(e) => {
                out.op(false, || format!("set-up: {e}"));
            }
        }
    }
    let Some(server) = server else {
        return ServeFigures::default();
    };
    let before = server.get("/metrics").map(|r| http::parse_metrics(&r.body));
    let load = drive(&server, &cfgs, reqs, seconds);
    let after = server.get("/metrics").map(|r| http::parse_metrics(&r.body));
    if let Err(e) = server.shutdown() {
        out.op(false, || e);
    }
    let _ = std::fs::remove_dir_all(&work_root);

    // Every arrival is one operation; it fails on any error or if it never
    // completed.
    let mut hits = Vec::new();
    let mut misses: Vec<(f64, Option<f64>, u32)> = Vec::new();
    let mut slo_met = 0usize;
    let mut late = Vec::new();
    for r in &load.reqs {
        let done = r.done.filter(|_| r.error.is_none());
        let ok = out.op(done.is_some(), || {
            format!(
                "{:?} {}: {}",
                r.class,
                r.id.unwrap_or(0),
                r.error.as_deref().unwrap_or("incomplete")
            )
        });
        let Some(done) = done.filter(|_| ok) else {
            continue;
        };
        let timing = Timing {
            due: r.due,
            sent: r.sent,
            done,
        };
        let latency = timing.latency();
        late.push(ms(timing.late()));
        let limit = if r.class == Class::Miss {
            MISS_SLO
        } else {
            HIT_SLO
        };
        slo_met += usize::from(latency <= limit);
        match r.class {
            Class::Hit => hits.push(ms(latency)),
            Class::Miss => misses.push((ms(latency), r.run_s, r.polls)),
            Class::Dup => {}
        }
    }

    // Results checked against in-process runs of the same configurations,
    // on the pool size the server uses (the host's parallelism).
    set_threads(0);
    let ref_dir = root.join("reference");
    let mut reference: HashMap<usize, Result<String, String>> = HashMap::new();
    for r in load.reqs.iter().filter(|r| r.verify && r.done.is_some()) {
        let expected = &*reference
            .entry(r.cfg)
            .or_insert_with(|| in_process(&cfgs[r.cfg].config, &ref_dir));
        let ok = matches!((expected, &r.served), (Ok(e), Some(s)) if e == s);
        out.op(ok, || {
            format!(
                "{:?} result {:?} differs from in-process {:?}",
                r.class, r.served, expected
            )
        });
    }
    let _ = std::fs::remove_dir_all(&ref_dir);

    let (before, after) = (before.unwrap_or_default(), after.unwrap_or_default());
    let cache_hits = counter_delta(&before, &after, "ppbench_cache_hits_total");
    let cache_misses = counter_delta(&before, &after, "ppbench_cache_misses_total");
    let miss_ms: Vec<f64> = misses.iter().map(|m| m.0).collect();
    let run_ms: Vec<f64> = misses.iter().filter_map(|m| m.1).map(|s| s * 1e3).collect();
    let waits: Vec<f64> = misses
        .iter()
        .filter_map(|m| m.1.map(|s| m.0 - s * 1e3))
        .collect();
    ServeFigures {
        setup_s: median(&setups).unwrap_or(0.0),
        peak_rss_mb: median(&load.window_peaks_mb).unwrap_or(0.0),
        cache_hit_ratio: cache_hits / (cache_hits + cache_misses).max(1.0),
        coalesced: counter_delta(&before, &after, "ppbench_jobs_coalesced_total"),
        rejected: counter_delta(&before, &after, "ppbench_rejected_total"),
        http_errors: load.http_errors as f64,
        run_ms_p50: median(&run_ms).unwrap_or(0.0),
        queue_wait_ms_p50: median(&waits).unwrap_or(0.0),
        polls_per_miss: misses.iter().map(|m| f64::from(m.2)).sum::<f64>()
            / misses.len().max(1) as f64,
        hit_p50_ms: median(&hits).unwrap_or(0.0),
        hit_tail_ms: tail(&hits).map_or(0.0, |t| t.0),
        miss_p50_ms: median(&miss_ms).unwrap_or(0.0),
        miss_tail_ms: tail(&miss_ms).map_or(0.0, |t| t.0),
        slo_frac: slo_met as f64 / load.reqs.len().max(1) as f64,
        late_ms_p99: percentile(&late, 99.0).unwrap_or(0.0),
        achieved_rps: (hits.len() + misses.len()) as f64 / seconds,
    }
}

/// The value the server must report for `config`, from an in-process run:
/// top-10 ids for PageRank, the checksum otherwise.
fn in_process(config: &PipelineConfig, dir: &Path) -> Result<String, String> {
    let run = pipe::run(config, dir, false)?;
    Ok(match &run.result.algo {
        Some(algo) => format!("{:016x}", algo.checksum),
        None => ids_key(&top_ids(&run.result, 10)),
    })
}
