//! The pipeline workloads: whole K0→K3 runs through `Pipeline::run`, timed
//! end to end, and a traced variant that times each kernel at the
//! `PipelineObserver` callbacks.

use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ppbench_core::kernel2::FilterStats;
use ppbench_core::{
    KernelTiming, Pipeline, PipelineConfig, PipelineObserver, PipelineResult, Variant,
};
use ppbench_gen::RmatSampler;
use ppbench_io::checksum::EdgeDigest;

use crate::host::{dir_bytes, peak_rss_mb, reset_peak_rss, Host};
use crate::layers::{self, set_threads, LayerFigures};
use crate::report::Outcome;
use crate::stats::median;

/// PageRank iterations the spec fixes; K3 is also traced at one iteration
/// to split its setup from its per-iteration cost.
const ITERATIONS: u32 = 20;

/// One pipeline workload.
#[derive(Debug)]
pub struct PipeSpec {
    pub name: &'static str,
    pub scale: u32,
    pub threads: usize,
    pub variant: Variant,
    pub gen: RmatSampler,
    pub fused: bool,
    /// Kernel 1's sort budget as a fraction of the edges' in-memory bytes;
    /// below 1 forces the spill path.
    pub budget_frac: Option<f64>,
}

/// The production fast path: parallel backend, linear sampler, fused K1→K2.
pub const FUSED: PipeSpec = PipeSpec {
    name: "pipeline-fused",
    scale: 20,
    threads: 2,
    variant: Variant::Parallel,
    gen: RmatSampler::Linear,
    fused: true,
    budget_frac: None,
};

/// The paper's serial reference path: `PipelineConfig` defaults (optimized
/// backend, faithful sampler, staged files) at one thread, with K1 forced to
/// spill.
pub const STAGED: PipeSpec = PipeSpec {
    name: "pipeline-staged",
    scale: 19,
    threads: 1,
    variant: Variant::Optimized,
    gen: RmatSampler::Faithful,
    fused: false,
    budget_frac: Some(0.25),
};

impl PipeSpec {
    /// The run's configuration for `seed` at `iterations`.
    pub fn config(&self, seed: u64, iterations: u32) -> PipelineConfig {
        let mut b = PipelineConfig::builder()
            .scale(self.scale)
            .edge_factor(16)
            .seed(seed)
            .num_files(4)
            .variant(self.variant)
            .gen(self.gen)
            .fused(self.fused)
            .iterations(iterations);
        if let Some(frac) = self.budget_frac {
            let bytes = (16u64 << self.scale) * ppbench_io::BYTES_PER_EDGE as u64;
            b = b.sort_budget_bytes((bytes as f64 * frac) as u64);
        }
        b.build()
    }
}

/// What must repeat exactly between runs of one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub k0: EdgeDigest,
    pub k2: Option<FilterStats>,
    pub top10: Vec<u64>,
}

impl Fingerprint {
    pub fn of(result: &PipelineResult) -> Option<Self> {
        Some(Self {
            k0: result.kernel0.as_ref()?.digest,
            k2: result.kernel2.as_ref().map(|k| k.stats),
            top10: top_ids(result, 10),
        })
    }
}

/// The `k` highest-ranked vertex ids (empty for a non-PageRank run).
pub fn top_ids(result: &PipelineResult, k: usize) -> Vec<u64> {
    result
        .kernel3
        .as_ref()
        .map(|k3| k3.top_k(k).into_iter().map(|(v, _)| v).collect())
        .unwrap_or_default()
}

/// Kernel spans of one traced run, seconds, on the benchmark's clock.
#[derive(Debug, Default)]
pub struct Spans {
    pub kernel: [f64; 4],
    /// Kernel 1 start to kernel 2 end (the fused K1+K2 as one span).
    pub k12: f64,
    /// Kernel 3 end to the return of the run call.
    pub validate: f64,
    /// Peak RSS within each kernel, MiB.
    pub peak_mb: [f64; 4],
    /// Wall time no span covers.
    pub gap: f64,
}

/// A kernel's start and end stamps and its peak RSS in MiB.
type Mark = (Option<Instant>, Option<Instant>, f64);

/// `PipelineObserver` that stamps each kernel boundary and reads peak RSS
/// per kernel from `/proc`.
struct Tracer {
    pid: u32,
    marks: Mutex<[Mark; 4]>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            pid: std::process::id(),
            marks: Mutex::new([(None, None, 0.0); 4]),
        }
    }

    fn spans(&self, begin: Instant, end: Instant) -> Spans {
        let marks = *self.marks.lock().expect("tracer lock poisoned");
        let secs = |a: Option<Instant>, b: Option<Instant>| match (a, b) {
            (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
            _ => 0.0,
        };
        let mut s = Spans::default();
        for (k, &(start, stop, peak)) in marks.iter().enumerate() {
            s.kernel[k] = secs(start, stop);
            s.peak_mb[k] = peak;
        }
        s.k12 = secs(marks[1].0, marks[2].1);
        s.validate = secs(marks[3].1, Some(end));
        let covered: f64 = s.kernel.iter().sum::<f64>() + s.validate;
        s.gap = end.duration_since(begin).as_secs_f64() - covered;
        s
    }
}

impl PipelineObserver for Tracer {
    fn kernel_started(&self, kernel: u8) {
        let _ = reset_peak_rss(self.pid);
        let mut marks = self.marks.lock().expect("tracer lock poisoned");
        marks[usize::from(kernel)].0 = Some(Instant::now());
    }

    fn kernel_finished(&self, kernel: u8, _timing: &KernelTiming) {
        let now = Instant::now();
        let peak = peak_rss_mb(self.pid).unwrap_or(0.0);
        let mut marks = self.marks.lock().expect("tracer lock poisoned");
        marks[usize::from(kernel)].1 = Some(now);
        marks[usize::from(kernel)].2 = peak;
    }
}

/// One completed pipeline run.
pub struct Run {
    pub wall_s: f64,
    pub peak_mb: f64,
    pub result: PipelineResult,
    pub spans: Option<Spans>,
    pub k0_bytes: u64,
    pub k1_bytes: u64,
}

/// Runs `cfg` once in a fresh `dir`, traced or not, with this process's
/// peak RSS reset first. The kernel files are left for the caller.
pub fn run(cfg: &PipelineConfig, dir: &Path, traced: bool) -> Result<Run, String> {
    let _ = std::fs::remove_dir_all(dir);
    let pid = std::process::id();
    reset_peak_rss(pid).map_err(|e| format!("cannot reset peak RSS: {e}"))?;
    let pipeline = Pipeline::new(cfg.clone(), dir);
    let tracer = Tracer::new();
    let begin = Instant::now();
    let result = if traced {
        pipeline.run_through_with(3, &tracer)
    } else {
        pipeline.run()
    };
    let end = Instant::now();
    let peak_mb = peak_rss_mb(pid).map_err(|e| format!("cannot read peak RSS: {e}"))?;
    let result = result.map_err(|e| format!("pipeline run failed: {e}"))?;
    if !result.validation.as_ref().is_some_and(|v| v.passed()) {
        return Err("pipeline run returned without passing validation".to_string());
    }
    Ok(Run {
        wall_s: end.duration_since(begin).as_secs_f64(),
        peak_mb,
        spans: traced.then(|| tracer.spans(begin, end)),
        k0_bytes: dir_bytes(&pipeline.k0_dir()),
        k1_bytes: dir_bytes(&pipeline.k1_dir()),
        result,
    })
}

/// Median of `f` over `items`, or 0 when there are none.
fn med<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Runs a pipeline workload and records its metrics into `out`. A traced
/// run also probes the serve layer with `server` (the `ppserved` binary).
#[allow(clippy::too_many_arguments)]
pub fn workload(
    spec: &PipeSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    root: &Path,
    host: &Host,
    server: &Path,
    out: &mut Outcome,
) {
    set_threads(spec.threads);
    let cfg = spec.config(seed, ITERATIONS);
    let dir = root.join("pipeline");

    // Set-up: one untimed run that faults in code and page cache and fixes
    // what every timed run must reproduce. For a parallel workload it runs
    // on the serial optimized backend, so each timed run is also checked
    // against the serial ranks.
    let mut reference_cfg = cfg.clone();
    if spec.variant == Variant::Parallel {
        reference_cfg.variant = Variant::Optimized;
        set_threads(1);
    }
    let t = Instant::now();
    let first = run(&reference_cfg, &dir, false);
    let setup_s = t.elapsed().as_secs_f64();
    set_threads(spec.threads);
    let first = match first {
        Ok(r) => r,
        Err(e) => {
            out.op(false, || format!("set-up run: {e}"));
            return;
        }
    };
    let Some(reference) = Fingerprint::of(&first.result) else {
        out.op(false, || "set-up run has no kernel-0 result".to_string());
        return;
    };
    out.op(true, String::new);
    print_working_set(spec.name, &first.result, host);
    let serial_ranks = (spec.variant == Variant::Parallel)
        .then(|| first.result.kernel3.as_ref().map(|k| k.ranks.clone()))
        .flatten();
    drop(first);
    let tolerance = l1_tolerance(1u64 << spec.scale);
    let mut worst_l1: f64 = 0.0;

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut plain: Vec<Run> = Vec::new();
    let mut traced_runs: Vec<Run> = Vec::new();
    let mut check = |r: Result<Run, String>, out: &mut Outcome| -> Option<Run> {
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                out.op(false, || e);
                return None;
            }
        };
        let same = Fingerprint::of(&r.result).as_ref() == Some(&reference);
        if !out.op(same, || {
            "run differs from the set-up run (digest, filter stats or top-10)".to_string()
        }) {
            return None;
        }
        if let Some(serial) = &serial_ranks {
            let ranks = r
                .result
                .kernel3
                .as_ref()
                .map_or(&[][..], |k| k.ranks.as_slice());
            let l1 = l1_distance(ranks, serial);
            worst_l1 = worst_l1.max(l1);
            if !out.op(ranks.len() == serial.len() && l1 <= tolerance, || {
                format!(
                    "parallel ranks are L1 {l1:e} from serial optimized (tolerance {tolerance:e})"
                )
            }) {
                return None;
            }
        }
        // Checked: free the rank vector so it does not raise the next
        // run's peak-RSS baseline.
        let mut r = r;
        if let Some(k3) = r.result.kernel3.as_mut() {
            k3.ranks = Vec::new();
        }
        Some(r)
    };
    loop {
        if let Some(r) = check(run(&cfg, &dir, false), out) {
            plain.push(r);
        }
        if traced {
            if let Some(r) = check(run(&cfg, &dir, true), out) {
                traced_runs.push(r);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let m = cfg.spec.num_edges() as f64;
    if traced {
        let one_iter = run(&spec.config(seed, 1), &dir, true);
        let _ = std::fs::remove_dir_all(&dir);
        let k3_one = match one_iter {
            Ok(r) => {
                let fp = Fingerprint::of(&r.result);
                let same = fp
                    .as_ref()
                    .is_some_and(|f| f.k0 == reference.k0 && f.k2 == reference.k2);
                out.op(same, || {
                    "one-iteration run differs from the set-up run".to_string()
                });
                r.spans.map(|s| s.kernel[3])
            }
            Err(e) => {
                out.op(false, || format!("one-iteration run: {e}"));
                None
            }
        };
        let figures = layers::probe(&cfg, reference.k0, &dir, out);
        let _ = std::fs::remove_dir_all(&dir);
        let rayon_us = layers::rayon_region_us(spec.threads);
        let nnz = reference.k2.map_or(0, |s| s.nnz_after) as f64;
        let core = CoreFigures::of(&traced_runs, &plain, k3_one, nnz, m);
        core.record(out);
        record_layers(out, &figures, rayon_us);
        crate::serve::probe(server, seed, seconds, root, out).record(out);
    }
    if serial_ranks.is_some() {
        println!(
            "{}: worst L1 from serial optimized ranks {worst_l1:e} (tolerance {tolerance:e})",
            spec.name
        );
    }
    if traced {
        return;
    }
    let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let n = walls.len();
    println!("{}: timed runs {walls:?} s", spec.name);
    out.metric(
        "pipeline_edges_per_s",
        med(&plain, |r| m / r.wall_s),
        "edges/s",
        n,
    );
    out.metric("peak_rss_mb", med(&plain, |r| r.peak_mb), "MiB", n);
    out.metric("setup_s", setup_s, "s", 1);
}

/// Largest L1 distance allowed between parallel and serial ranks of `n`
/// vertices. The parallel backend agrees with the serial ones only up to
/// floating-point reassociation; the repository's cross-backend tests
/// allow 1e-12 over 256 vertices, and this keeps that mean gap per vertex.
fn l1_tolerance(n: u64) -> f64 {
    1e-12 * n as f64 / 256.0
}

fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Per-kernel figures from traced runs.
struct CoreFigures {
    spans: Spans,
    overhead_s: f64,
    bytes_per_edge: f64,
    k2_nnz: f64,
    k3_setup_s: f64,
    k3_iter_ms: f64,
    k3_gflops: f64,
    k0_bytes: f64,
    k1_bytes: f64,
}

impl CoreFigures {
    /// Medians over `traced` runs, tracing overhead against `plain` runs,
    /// and K3 split by `k3_one` (K3 seconds at one iteration; derived).
    fn of(traced: &[Run], plain: &[Run], k3_one: Option<f64>, nnz: f64, m: f64) -> Self {
        let span = |f: &dyn Fn(&Spans) -> f64| med(traced, |r| r.spans.as_ref().map_or(0.0, f));
        let spans = Spans {
            kernel: [0, 1, 2, 3].map(|k| span(&|s| s.kernel[k])),
            k12: span(&|s| s.k12),
            validate: span(&|s| s.validate),
            peak_mb: [0, 1, 2, 3].map(|k| span(&|s| s.peak_mb[k])),
            gap: span(&|s| s.gap),
        };
        let k3 = spans.kernel[3];
        let iter_s = k3_one.map_or(0.0, |one| (k3 - one) / f64::from(ITERATIONS - 1));
        let peak = spans.peak_mb.iter().copied().fold(0.0, f64::max);
        Self {
            overhead_s: med(traced, |r| r.wall_s) - med(plain, |r| r.wall_s),
            bytes_per_edge: peak * 1024.0 * 1024.0 / m,
            k2_nnz: nnz,
            k3_setup_s: k3_one.map_or(0.0, |one| one - iter_s),
            k3_iter_ms: iter_s * 1e3,
            k3_gflops: if iter_s > 0.0 {
                2.0 * nnz / iter_s / 1e9
            } else {
                0.0
            },
            k0_bytes: med(traced, |r| r.k0_bytes as f64),
            k1_bytes: med(traced, |r| r.k1_bytes as f64),
            spans,
        }
    }

    /// Records the `core.*` and `io.k*_bytes` metrics.
    fn record(&self, out: &mut Outcome) {
        let n = 1;
        let s = &self.spans;
        out.metric("core.k0_s", s.kernel[0], "s", n);
        out.metric("core.k1_s", s.kernel[1], "s", n);
        out.metric("core.k2_s", s.kernel[2], "s", n);
        out.metric("core.k12_s", s.k12, "s", n);
        out.metric("core.k3_s", s.kernel[3], "s", n);
        out.metric("core.validate_s", s.validate, "s", n);
        out.metric("core.span_gap_s", s.gap, "s", n);
        out.metric("core.trace_overhead_s", self.overhead_s, "s", n);
        out.metric("core.k0_peak_rss_mb", s.peak_mb[0], "MiB", n);
        out.metric("core.k1_peak_rss_mb", s.peak_mb[1], "MiB", n);
        out.metric("core.k2_peak_rss_mb", s.peak_mb[2], "MiB", n);
        out.metric("core.k3_peak_rss_mb", s.peak_mb[3], "MiB", n);
        out.metric("core.bytes_per_edge_peak", self.bytes_per_edge, "B/edge", n);
        out.metric("core.k2_nnz", self.k2_nnz, "count", n);
        out.metric("core.k3_setup_s", self.k3_setup_s, "s", n);
        out.metric("core.k3_iter_ms", self.k3_iter_ms, "ms", n);
        out.metric("core.k3_gflops", self.k3_gflops, "GFLOP/s", n);
        out.metric("io.k0_bytes", self.k0_bytes, "bytes", n);
        out.metric("io.k1_bytes", self.k1_bytes, "bytes", n);
    }
}

/// Records the `gen.*`, `io.*` rate, `sort.*` and `rayon.*` metrics.
fn record_layers(out: &mut Outcome, f: &LayerFigures, rayon_us: f64) {
    out.metric("gen.ns_per_edge", f.gen_ns_per_edge, "ns/edge", 1);
    out.metric("io.write_mb_per_s", f.io_write_mb_per_s, "MiB/s", 1);
    out.metric("io.parse_mb_per_s", f.io_parse_mb_per_s, "MiB/s", 1);
    out.metric("sort.run_s", f.sort_run_s, "s", 1);
    out.metric("sort.merge_s", f.sort_merge_s, "s", 1);
    out.metric("sort.runs", f.sort_runs, "count", 1);
    out.metric("sort.spill_bytes", f.sort_spill_bytes, "bytes", 1);
    out.metric("rayon.region_us", rayon_us, "us", 21);
}

/// Prints the run's array sizes against the last-level cache. The K3
/// matrix size is computed (u32 column + f64 value per stored entry, u64
/// row pointers), not measured.
fn print_working_set(workload: &str, result: &PipelineResult, host: &Host) {
    const MIB: f64 = 1024.0 * 1024.0;
    let n = (1u64 << result.scale) as f64;
    let m = result.edges as f64;
    let nnz = result.kernel2.as_ref().map_or(0, |k| k.stats.nnz_after) as f64;
    let matrix = nnz * 12.0 + (n + 1.0) * 8.0;
    let ranks = n * 8.0;
    let l3 = host.l3_bytes as f64;
    let over = |b: f64| if l3 > 0.0 { b / l3 } else { 0.0 };
    println!(
        "working-set {workload}: N={n} M={m} nnz={nnz} edges={:.1}MiB k3_matrix={:.1}MiB ({:.2}x L3) \
         rank_vector={:.1}MiB ({:.2}x L3) l3={:.1}MiB",
        m * 16.0 / MIB,
        matrix / MIB,
        over(matrix),
        ranks / MIB,
        over(ranks),
        l3 / MIB
    );
}
