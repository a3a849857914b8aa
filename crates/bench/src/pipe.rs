//! End-to-end pipeline bench: staged vs. fused K1→K2 data path.
//!
//! The tentpole question this sweep answers: does building the CSR
//! matrix straight from the sorted-run merge stream (one pass, parallel
//! by vertex range, no intermediate sorted file set) beat the staged
//! path that writes kernel 1's output to disk and re-reads it for
//! kernel 2? Each scale generates one kernel-0 file set, then measures
//! the staged path (serial reference, one thread) and the fused path at
//! each requested thread count, keeping the fastest of `trials`
//! repetitions per point.
//!
//! Speed without sameness is a failed sweep, not a benchmark result:
//! every measured repetition's matrix and [`FilterStats`] must equal the
//! staged reference bit for bit, and its sorted-stream digest (the
//! concatenation of the fused path's per-bucket digests) must equal the
//! staged `(start, end)`-sorted stream digest — chain component
//! included. A mismatch anywhere aborts the sweep.
//!
//! Results land in `BENCH_pipeline.json` through [`crate::table`], whose
//! check also holds every row's `edges_per_s` to its own
//! `edges / seconds`.

use std::path::Path;

use ppbench_core::backend::{Backend, OptimizedBackend};
use ppbench_core::json::Json;
use ppbench_core::kernel2::FilterStats;
use ppbench_core::{PipelineConfig, Stopwatch};
use ppbench_io::checksum::EdgeDigest;
use ppbench_io::tempdir::TempDir;
use ppbench_sort::SortKey;
use ppbench_sparse::Csr;

use crate::size_pool;
use crate::table::{Cells, Rate, Sweep};

/// The two K1→K2 data paths under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeMode {
    /// The legacy path: kernel 1 sorts to a file set on disk, kernel 2
    /// re-reads it and builds the matrix — the serial reference.
    Staged,
    /// The fused path: CSR built straight from the merge stream, one
    /// worker per contiguous vertex range.
    Fused,
}

impl PipeMode {
    /// Every mode, measurement order (the first is the reference).
    pub const ALL: [PipeMode; 2] = [PipeMode::Staged, PipeMode::Fused];

    /// Stable name used in the JSON.
    pub fn name(self) -> &'static str {
        match self {
            PipeMode::Staged => "staged",
            PipeMode::Fused => "fused",
        }
    }

    /// Whether the mode uses the thread pool (the staged path is the
    /// serial baseline, measured once at `threads = 1`).
    pub fn is_parallel(self) -> bool {
        matches!(self, PipeMode::Fused)
    }
}

/// What to sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Graph scales (vertices = 2^scale).
    pub scales: Vec<u32>,
    /// Thread counts for the fused path.
    pub threads: Vec<usize>,
    /// Edges per vertex.
    pub edge_factor: u64,
    /// Master seed for generation.
    pub seed: u64,
    /// Output files per edge file set.
    pub num_files: usize,
    /// Measurement repetitions per point; the fastest trial is kept
    /// (best-of-N damps scheduler and page-cache noise).
    pub trials: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            scales: vec![12],
            threads: crate::host_threads(),
            edge_factor: 16,
            seed: 1,
            num_files: 4,
            trials: 1,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Default)]
pub struct SweepRow {
    /// Mode name (see [`PipeMode::name`]).
    pub mode: &'static str,
    /// Graph scale.
    pub scale: u32,
    /// Thread count the pool was sized to (1 for the staged baseline).
    pub threads: usize,
    /// Edges in the input file set.
    pub edges: u64,
    /// Wall-clock seconds of the kernel-1 portion (sort / route+spill).
    pub k1_seconds: f64,
    /// Wall-clock seconds of the kernel-2 portion (read+build / merge+build).
    pub k2_seconds: f64,
    /// End-to-end K1→K2 wall-clock seconds.
    pub seconds: f64,
    /// `edges / seconds` — the headline end-to-end throughput.
    pub edges_per_s: f64,
}

/// One measured repetition, before the identity gate.
struct Measured {
    k1_seconds: f64,
    k2_seconds: f64,
    digest: EdgeDigest,
    stats: FilterStats,
    matrix: Csr<f64>,
}

/// What every later repetition must reproduce (the staged run at one
/// thread, the first point measured).
struct Reference {
    digest: EdgeDigest,
    stats: FilterStats,
    matrix: Csr<f64>,
}

/// Runs the staged path once: kernel 1 to a scratch file set, kernel 2
/// re-reading it. The intermediate file set is deleted before returning
/// so repeated trials cannot fill the disk.
fn run_staged(cfg: &PipelineConfig, k0_dir: &Path, work: &Path) -> Result<Measured, String> {
    let backend = OptimizedBackend;
    let k1_dir = work.join("k1");
    let sw = Stopwatch::start();
    let manifest = backend
        .kernel1(cfg, k0_dir, &k1_dir)
        .map_err(|e| format!("staged kernel 1: {e}"))?;
    let k1_seconds = sw.elapsed_secs();
    let sw = Stopwatch::start();
    let out = backend
        .kernel2(cfg, &k1_dir)
        .map_err(|e| format!("staged kernel 2: {e}"))?;
    let k2_seconds = sw.elapsed_secs();
    std::fs::remove_dir_all(&k1_dir)
        .map_err(|e| format!("cannot clean {}: {e}", k1_dir.display()))?;
    Ok(Measured {
        k1_seconds,
        k2_seconds,
        digest: manifest.digest,
        stats: out.stats,
        matrix: out.matrix,
    })
}

/// Runs the fused path once. The kernel splits its own timing at the
/// routing/merge boundary, so the K1/K2 attribution comes from the
/// kernel itself rather than an outer stopwatch.
fn run_fused(cfg: &PipelineConfig, k0_dir: &Path, work: &Path) -> Result<Measured, String> {
    let got = OptimizedBackend
        .kernel12_fused(cfg, k0_dir, &work.join("scratch"))
        .map_err(|e| format!("fused kernel 1+2: {e}"))?;
    Ok(Measured {
        k1_seconds: got.k1.timing.seconds,
        k2_seconds: got.k2.timing.seconds,
        digest: got.k1.digest,
        stats: got.k2.stats,
        matrix: got.output.matrix,
    })
}

impl Sweep for SweepConfig {
    type Row = SweepRow;
    const VERSION: &'static str = "ppbench-pipeline-v1";
    const FILE: &'static str = "BENCH_pipeline.json";
    const RATES: &'static [Rate] = &[Rate {
        key: "edges_per_s",
        size: &["edges"],
        factor: 1.0,
    }];

    fn header(&self) -> Cells {
        vec![
            ("edge_factor", Json::Uint(self.edge_factor)),
            ("num_files", Json::Uint(self.num_files as u64)),
            ("seed", Json::Uint(self.seed)),
            ("trials", Json::Uint(self.trials as u64)),
        ]
    }

    fn cells(row: &SweepRow) -> Cells {
        vec![
            ("scale", Json::Uint(u64::from(row.scale))),
            ("mode", Json::String(row.mode.to_string())),
            ("threads", Json::Uint(row.threads as u64)),
            ("edges", Json::Uint(row.edges)),
            ("k1_seconds", Json::Number(row.k1_seconds)),
            ("k2_seconds", Json::Number(row.k2_seconds)),
            ("seconds", Json::Number(row.seconds)),
            ("edges_per_s", Json::Number(row.edges_per_s)),
        ]
    }

    fn scales(&self) -> &[u32] {
        &self.scales
    }

    /// Runs the full sweep. For each scale, kernel 0 writes one input file
    /// set (unmeasured), the staged baseline runs at one thread, and the
    /// fused path runs at every requested thread count; each point keeps the
    /// fastest of [`SweepConfig::trials`] repetitions. Every repetition —
    /// not just the kept one — must match the staged reference's matrix,
    /// filter stats, and sorted-stream digest exactly. Row order is
    /// deterministic: scale-major, staged before fused, then thread order as
    /// given.
    fn run(&self, points: &[PipelineConfig]) -> Result<Vec<SweepRow>, String> {
        let td =
            TempDir::new("pipebench").map_err(|e| format!("cannot create scratch dir: {e}"))?;
        let mut rows = Vec::new();
        for point in points {
            // `StartEnd` sorting, so the staged sorted stream is
            // byte-comparable to the fused path's concatenated per-bucket
            // digests.
            let pcfg = PipelineConfig {
                sort_key: SortKey::StartEnd,
                ..point.clone()
            };
            let scale = pcfg.spec.scale();
            let k0_dir = td.join(&format!("s{scale}-k0"));
            let k0_manifest = OptimizedBackend
                .kernel0(&pcfg, &k0_dir)
                .map_err(|e| format!("kernel 0: {e}"))?;

            let mut reference: Option<Reference> = None;
            for mode in PipeMode::ALL {
                let thread_counts: &[usize] = if mode.is_parallel() {
                    &self.threads
                } else {
                    &[1]
                };
                for &threads in thread_counts {
                    size_pool(threads)?;
                    let mut best: Option<(f64, f64)> = None;
                    for trial in 0..self.trials.max(1) {
                        let work =
                            td.join(&format!("s{scale}-{}-t{threads}-r{trial}", mode.name()));
                        let measured = match mode {
                            PipeMode::Staged => run_staged(&pcfg, &k0_dir, &work),
                            PipeMode::Fused => run_fused(&pcfg, &k0_dir, &work),
                        }?;
                        match &reference {
                            None => {
                                reference = Some(Reference {
                                    digest: measured.digest,
                                    stats: measured.stats,
                                    matrix: measured.matrix,
                                });
                            }
                            Some(r) => {
                                let point = format!(
                                    "{} (t{threads}, trial {trial}, scale {scale})",
                                    mode.name()
                                );
                                if !measured.digest.same_stream(&r.digest) {
                                    return Err(format!(
                                        "{point}: sorted-stream digest differs from the \
                                         staged reference"
                                    ));
                                }
                                if measured.stats != r.stats {
                                    return Err(format!(
                                        "{point}: filter stats differ from the staged reference"
                                    ));
                                }
                                if measured.matrix != r.matrix {
                                    return Err(format!(
                                        "{point}: matrix differs from the staged reference"
                                    ));
                                }
                            }
                        }
                        let total = measured.k1_seconds + measured.k2_seconds;
                        if best.is_none_or(|(k1, k2)| total < k1 + k2) {
                            best = Some((measured.k1_seconds, measured.k2_seconds));
                        }
                    }
                    let Some((k1_seconds, k2_seconds)) = best else {
                        return Err(format!("{} measured no trials", mode.name()));
                    };
                    let seconds = k1_seconds + k2_seconds;
                    rows.push(SweepRow {
                        mode: mode.name(),
                        scale,
                        threads,
                        edges: k0_manifest.edges,
                        k1_seconds,
                        k2_seconds,
                        seconds,
                        edges_per_s: k0_manifest.edges as f64 / seconds.max(1e-15),
                    });
                }
            }
            std::fs::remove_dir_all(&k0_dir)
                .map_err(|e| format!("cannot clean {}: {e}", k0_dir.display()))?;
            // Leave the pool unpinned for whatever runs next in this process.
            size_pool(0)?;
        }
        Ok(rows)
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
            num_files: 2,
            trials: 1,
        }
    }

    #[test]
    fn sweep_covers_both_modes_and_stays_bit_identical() {
        let cfg = tiny_cfg();
        let rows = cfg.run(&crate::table::points(&cfg).unwrap()).unwrap();
        // Measured rows satisfy their own shape and rate checks.
        crate::table::check::<SweepConfig>(&crate::table::render(&cfg, &rows)).unwrap();
        // Staged once + fused × 2 thread counts.
        assert_eq!(rows.len(), 1 + 2);
        for mode in PipeMode::ALL {
            assert!(
                rows.iter().any(|r| r.mode == mode.name()),
                "missing {}",
                mode.name()
            );
        }
        for row in &rows {
            assert!(row.edges > 0, "{row:?}");
            assert!(row.edges_per_s > 0.0, "{row:?}");
            assert!(row.seconds >= row.k1_seconds.max(row.k2_seconds), "{row:?}");
        }
    }

    #[test]
    fn best_of_n_trials_still_yields_one_row_per_point() {
        let cfg = SweepConfig {
            trials: 2,
            ..tiny_cfg()
        };
        let rows = cfg.run(&crate::table::points(&cfg).unwrap()).unwrap();
        assert_eq!(rows.len(), 1 + 2);
    }
}
