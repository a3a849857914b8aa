//! Kernel-3 microbench: SpMV variant × thread count × scale.
//!
//! The paper's compute-bound kernel is the one expected to "show a wider
//! dispersion in performance" once parallelized (§IV.D), so this module
//! measures exactly that axis: the serial scatter and gather forms and the
//! nnz-balanced fused kernel over narrow indices that the parallel backend
//! runs — the parallel one swept over explicit thread counts, keeping the
//! fastest of `trials` repetitions per point so one scheduler hiccup
//! cannot masquerade as a scaling regression.
//! Results land in `BENCH_k3.json` as
//! canonical JSON (sorted keys, shortest-roundtrip floats, rendered by
//! `ppbench_core::json`), giving later PRs a baseline to beat; the
//! `--check` mode re-validates that file's schema so CI catches drift in
//! either direction.
//!
//! Thread counts are always explicit — this crate holds to the
//! env-dependence rule, so nothing here consults the machine; pass the
//! counts you want to measure.

use ppbench_core::json::{JsonArray, JsonObject};
use ppbench_core::kernel3::{self, DanglingInfo, DanglingStrategy, PageRankOptions, PageRankRun};
use ppbench_core::Stopwatch;
use ppbench_gen::{EdgeGenerator, GraphSpec, Kronecker};
use ppbench_sort::SortKey;
use ppbench_sparse::{ops, spmv, vector, Csr, Csr32};

/// Version tag written into the JSON so schema changes are explicit.
pub const SCHEMA_VERSION: &str = "ppbench-k3-v2";

/// The kernel-3 implementations under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum K3Variant {
    /// Serial CSR scatter (`vxm_into`) — the reference implementation.
    Scatter,
    /// Serial gather over the precomputed transpose.
    Gather,
    /// nnz-balanced fused kernel over narrow (`u32`) column indices — the
    /// parallel backend's kernel.
    BalancedFusedU32,
}

impl K3Variant {
    /// Every variant, measurement order.
    pub const ALL: [K3Variant; 3] = [
        K3Variant::Scatter,
        K3Variant::Gather,
        K3Variant::BalancedFusedU32,
    ];

    /// Stable name used in the JSON.
    pub fn name(self) -> &'static str {
        match self {
            K3Variant::Scatter => "scatter",
            K3Variant::Gather => "gather",
            K3Variant::BalancedFusedU32 => "balanced_fused_u32",
        }
    }

    /// Whether the variant uses the thread pool (serial variants are
    /// measured once, at `threads = 1`).
    pub fn is_parallel(self) -> bool {
        matches!(self, K3Variant::BalancedFusedU32)
    }
}

/// What to sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Graph scales (vertices = 2^scale).
    pub scales: Vec<u32>,
    /// Thread counts for the parallel variants.
    pub threads: Vec<usize>,
    /// Edges per vertex.
    pub edge_factor: u64,
    /// Master seed for generation and rank init.
    pub seed: u64,
    /// PageRank iterations per measurement.
    pub iterations: u32,
    /// Damping factor.
    pub damping: f64,
    /// Measurement repetitions per point; the fastest trial is kept
    /// (best-of-N damps scheduler and page-cache noise).
    pub trials: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            scales: vec![12],
            threads: vec![1, 2, 4, 8],
            edge_factor: 16,
            seed: 1,
            iterations: ppbench_core::ITERATIONS,
            damping: ppbench_core::DAMPING,
            trials: 1,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Default)]
pub struct SweepRow {
    /// Variant name (see [`K3Variant::name`]).
    pub variant: &'static str,
    /// Graph scale.
    pub scale: u32,
    /// Thread count the pool was sized to (1 for serial variants).
    pub threads: usize,
    /// Vertex count.
    pub vertices: u64,
    /// Stored nonzeros after filtering/normalization.
    pub nnz: u64,
    /// Wall-clock seconds for the whole kernel-3 run.
    pub seconds: f64,
    /// `2 · nnz · iterations / seconds / 1e9` — the paper's FLOP model.
    pub gflops: f64,
    /// L1 distance of this variant's ranks from the serial scatter ranks.
    pub l1_vs_serial: f64,
}

/// Builds the normalized scale-`s` matrix the same way the pipeline does:
/// Kronecker edges, radix sort by start vertex, sorted-input CSR
/// construction, row normalization.
pub fn build_matrix(scale: u32, edge_factor: u64, seed: u64) -> Csr<f64> {
    let spec = GraphSpec::new(scale, edge_factor);
    let mut edges = Kronecker::new(spec, seed).edges();
    ppbench_sort::radix_sort(&mut edges, SortKey::Start);
    let counts =
        Csr::<u64>::from_sorted_edges(spec.num_vertices(), edges.iter().map(|e| (e.u, e.v)));
    ops::normalize_rows(&counts)
}

/// Sizes the global thread pool, surfacing the error as a string (the
/// shim never fails; real rayon could).
pub(crate) fn size_pool(threads: usize) -> Result<(), String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .map_err(|e| format!("failed to size thread pool to {threads}: {e}"))
}

/// Everything shared by every variant measured at one scale.
struct ScaleFixture {
    a: Csr<f64>,
    at: Csr<f64>,
    narrow: Option<Csr32>,
    dangling: DanglingInfo,
    opts: PageRankOptions,
    seed: u64,
}

/// Runs one variant once and returns the result plus wall seconds.
fn run_variant(
    fx: &ScaleFixture,
    variant: K3Variant,
    threads: usize,
) -> Option<(PageRankRun, f64)> {
    let r0 = kernel3::init_ranks(fx.a.rows(), fx.seed);
    let boundaries = spmv::balanced_boundaries(fx.at.row_ptr(), threads);
    let sw = Stopwatch::start();
    let run = match variant {
        K3Variant::Scatter => kernel3::run_into(
            r0,
            |r, next, coeffs| {
                spmv::vxm_into(r, &fx.a, next);
                kernel3::apply_epilogue(r, next, coeffs)
            },
            &fx.dangling,
            &fx.opts,
        ),
        K3Variant::Gather => kernel3::run_into(
            r0,
            kernel3::serial_stepper(|x: &[f64]| spmv::mxv(&fx.at, x)),
            &fx.dangling,
            &fx.opts,
        ),
        K3Variant::BalancedFusedU32 => {
            let narrow = fx.narrow.as_ref()?;
            kernel3::run_into(
                r0,
                |r, next, coeffs| spmv::step_fused(r, &narrow.view(), next, coeffs, &boundaries),
                &fx.dangling,
                &fx.opts,
            )
        }
    };
    Some((run, sw.elapsed_secs()))
}

/// Runs the full sweep. For each scale the serial variants run once at
/// one thread; the parallel variants run once per requested thread count
/// (the global pool is resized between points). Each point is measured
/// [`SweepConfig::trials`] times and the fastest repetition is kept. Row
/// order is deterministic: scale-major, then [`K3Variant::ALL`] order,
/// then thread order as given.
pub fn run_sweep(cfg: &SweepConfig) -> Result<Vec<SweepRow>, String> {
    let mut rows = Vec::new();
    for &scale in &cfg.scales {
        let a = build_matrix(scale, cfg.edge_factor, cfg.seed);
        let at = a.transpose();
        let narrow = Csr32::try_from_wide(&at);
        let dangling = DanglingInfo::from_mask(&ops::empty_rows(&a));
        let fx = ScaleFixture {
            at,
            narrow,
            dangling,
            opts: PageRankOptions {
                damping: cfg.damping,
                max_iterations: cfg.iterations,
                dangling: DanglingStrategy::Omit,
                tolerance: None,
            },
            seed: cfg.seed,
            a,
        };
        let flops = 2.0 * fx.a.nnz() as f64 * f64::from(cfg.iterations);
        // Serial scatter is both a measurement and the accuracy reference.
        size_pool(1)?;
        let Some((reference, _)) = run_variant(&fx, K3Variant::Scatter, 1) else {
            return Err("scatter reference did not run".to_string());
        };
        for variant in K3Variant::ALL {
            let thread_counts: &[usize] = if variant.is_parallel() {
                &cfg.threads
            } else {
                &[1]
            };
            for &threads in thread_counts {
                size_pool(threads)?;
                let mut best: Option<(PageRankRun, f64)> = None;
                for _trial in 0..cfg.trials.max(1) {
                    let Some(measured) = run_variant(&fx, variant, threads) else {
                        // u32 variant on a >2^32-column matrix: nothing
                        // to measure.
                        break;
                    };
                    if best.as_ref().is_none_or(|(_, b)| measured.1 < *b) {
                        best = Some(measured);
                    }
                }
                let Some((run, seconds)) = best else {
                    continue;
                };
                rows.push(SweepRow {
                    variant: variant.name(),
                    scale,
                    threads,
                    vertices: fx.a.rows(),
                    nnz: fx.a.nnz() as u64,
                    seconds,
                    gflops: flops / seconds.max(1e-15) / 1e9,
                    l1_vs_serial: vector::l1_distance(&run.ranks, &reference.ranks),
                });
            }
        }
        // Leave the pool unpinned for whatever runs next in this process.
        size_pool(0)?;
    }
    Ok(rows)
}

/// Renders the sweep as the canonical `BENCH_k3.json` document.
pub fn to_json(cfg: &SweepConfig, rows: &[SweepRow]) -> String {
    let mut results = JsonArray::new();
    for row in rows {
        let mut entry = JsonObject::new();
        entry
            .set_str("variant", row.variant)
            .set_u64("scale", u64::from(row.scale))
            .set_u64("threads", row.threads as u64)
            .set_u64("vertices", row.vertices)
            .set_u64("nnz", row.nnz)
            .set_f64("seconds", row.seconds)
            .set_f64("gflops", row.gflops)
            .set_f64("l1_vs_serial", row.l1_vs_serial);
        results.push_obj(&entry);
    }
    let mut obj = JsonObject::new();
    obj.set_str("benchmark", SCHEMA_VERSION)
        .set_f64("damping", cfg.damping)
        .set_u64("edge_factor", cfg.edge_factor)
        .set_u64("iterations", u64::from(cfg.iterations))
        .set_raw("results", results.render())
        .set_u64("seed", cfg.seed)
        .set_u64("trials", cfg.trials as u64);
    obj.render()
}

/// Validates a `BENCH_k3.json` document: it must parse, carry this sweep's
/// version tag and at least one row, and have exactly the top-level and
/// row keys [`to_json`] emits for a default config and row.
pub fn check_schema(text: &str) -> Result<(), String> {
    let reference = to_json(&SweepConfig::default(), &[SweepRow::default()]);
    crate::schema::check_flat_schema(text, &reference).map(drop)
}

/// Parses a comma-separated thread list (`"1,2,4,8"`), requiring every
/// entry to be a positive integer.
pub fn parse_thread_list(s: &str) -> Option<Vec<usize>> {
    let mut out = Vec::new();
    for part in s.split(',') {
        let n: usize = part.trim().parse().ok()?;
        if n == 0 {
            return None;
        }
        out.push(n);
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
            scales: vec![6],
            threads: vec![1, 2],
            edge_factor: 8,
            seed: 7,
            iterations: 5,
            ..Default::default()
        }
    }

    #[test]
    fn sweep_covers_every_variant_and_agrees_with_serial() {
        let cfg = tiny_cfg();
        let rows = run_sweep(&cfg).unwrap();
        // 2 serial rows + the parallel variant × 2 thread counts.
        assert_eq!(rows.len(), 2 + 2);
        for v in K3Variant::ALL {
            assert!(
                rows.iter().any(|r| r.variant == v.name()),
                "missing {}",
                v.name()
            );
        }
        for row in &rows {
            assert!(row.gflops > 0.0, "{row:?}");
            assert!(
                row.l1_vs_serial < 1e-12,
                "{} diverged from serial: {}",
                row.variant,
                row.l1_vs_serial
            );
        }
    }

    #[test]
    fn json_roundtrip_passes_schema_check() {
        let cfg = tiny_cfg();
        let rows = run_sweep(&cfg).unwrap();
        let json = to_json(&cfg, &rows);
        check_schema(&json).unwrap();
    }

    #[test]
    fn best_of_n_trials_still_yields_one_row_per_point() {
        let cfg = SweepConfig {
            trials: 3,
            ..tiny_cfg()
        };
        let rows = run_sweep(&cfg).unwrap();
        assert_eq!(rows.len(), 2 + 2);
        for row in &rows {
            assert!(row.l1_vs_serial < 1e-12, "{row:?}");
        }
    }

    #[test]
    fn schema_check_rejects_drift_in_both_directions() {
        let cfg = tiny_cfg();
        let rows = run_sweep(&cfg).unwrap();
        let json = to_json(&cfg, &rows);
        // Missing row key.
        let missing = json.replacen("\"gflops\":", "\"gfl0ps\":", 1);
        assert!(check_schema(&missing).is_err());
        // Extra top-level key.
        let extra = json.replacen("{\"benchmark\"", "{\"bonus\":1,\"benchmark\"", 1);
        assert!(check_schema(&extra).is_err());
        // Wrong version tag.
        let wrong = json.replace(SCHEMA_VERSION, "ppbench-k3-v9");
        assert!(check_schema(&wrong).is_err());
        // Empty results.
        assert!(check_schema(&to_json(&cfg, &[])).is_err());
    }

    #[test]
    fn thread_list_parses() {
        assert_eq!(parse_thread_list("1,2,4,8"), Some(vec![1, 2, 4, 8]));
        assert_eq!(parse_thread_list("4"), Some(vec![4]));
        assert_eq!(parse_thread_list("0"), None);
        assert_eq!(parse_thread_list(""), None);
        assert_eq!(parse_thread_list("two"), None);
    }
}
