//! K0→K1 front-end microbench: gen × write/sort variant × threads × scale.
//!
//! The paper's I/O-bound kernels are the front of the pipeline: kernel 0
//! writes the generated edge list "to files on non-volatile storage as
//! pairs of tab separated numeric strings", and kernel 1 reads it back,
//! sorts by start vertex, and writes it again. This module measures the
//! three kernel-0 write strategies (full materialization, serial
//! streaming, sharded parallel streaming) under each requested R-MAT
//! sampler (`faithful` per-level recursion vs the `linear` block-table
//! sampler) and the three kernel-1 sort paths (in-memory, plain external
//! merge, pipelined external merge), each swept over explicit thread
//! counts and scales. Results land in `BENCH_k01.json` through
//! [`crate::table`], whose check also holds every row's `mb_per_s` and
//! `gb_per_s` to its own `mbytes / seconds` within 1%.
//!
//! Generation is interleaved with writing on the streaming paths, so every
//! kernel-0 measurement times generate+write as one unit — the same work
//! for every variant, which keeps the comparison fair even though the
//! paper's Figure 4 nominally times only the write.
//!
//! Every variant's output is digest-verified against the first-measured
//! variant of its kernel before the row is accepted: a fast wrong answer
//! is a failed sweep, not a benchmark result.

use std::path::Path;

use ppbench_core::json::Json;
use ppbench_core::{kernel0, kernel1, PipelineConfig, Stopwatch};
use ppbench_gen::RmatSampler;
use ppbench_io::tempdir::TempDir;
use ppbench_io::{EdgeReader, EdgeWriter, Manifest, SortState, BYTES_PER_EDGE};
use ppbench_sort::{Algorithm, ExternalSorter, SortKey};

use crate::size_pool;
use crate::table::{Cells, Rate, Sweep};

/// The kernel-0 write strategies under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum K0Variant {
    /// The historical path: generate the whole edge vector in parallel,
    /// then hand it to the writer — peak resident memory is the full list.
    Materialize,
    /// Serial chunked streaming through one writer ([`kernel0::write_streamed`]).
    Stream,
    /// One parallel writer per output file, each streaming its contiguous
    /// slice of the stream ([`kernel0::write_sharded`]).
    Sharded,
}

impl K0Variant {
    /// Every variant, measurement order (the first is the reference).
    pub const ALL: [K0Variant; 3] = [
        K0Variant::Materialize,
        K0Variant::Stream,
        K0Variant::Sharded,
    ];

    /// Stable name used in the JSON.
    pub fn name(self) -> &'static str {
        match self {
            K0Variant::Materialize => "materialize",
            K0Variant::Stream => "stream",
            K0Variant::Sharded => "sharded",
        }
    }

    /// Whether the variant uses the thread pool (serial variants are
    /// measured once, at `threads = 1`).
    pub fn is_parallel(self) -> bool {
        matches!(self, K0Variant::Materialize | K0Variant::Sharded)
    }
}

/// The kernel-1 sort paths under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum K1Variant {
    /// Whole list in RAM, stable LSD radix sort (budget `None`).
    InMem,
    /// Plain external merge sort: read runs, sort, merge — the merge only
    /// starts after the last run is written.
    External,
    /// The pipelined external sort kernel 1 now spills through: parsing,
    /// run sorting, and output writing overlap on separate threads.
    Pipelined,
}

impl K1Variant {
    /// Every variant, measurement order (the first is the reference).
    pub const ALL: [K1Variant; 3] = [K1Variant::InMem, K1Variant::External, K1Variant::Pipelined];

    /// Stable name used in the JSON.
    pub fn name(self) -> &'static str {
        match self {
            K1Variant::InMem => "inmem",
            K1Variant::External => "external",
            K1Variant::Pipelined => "pipelined",
        }
    }

    /// Whether the variant uses the thread pool (the external sorters
    /// parallelize run sorting; the in-memory radix sort is serial).
    pub fn is_parallel(self) -> bool {
        matches!(self, K1Variant::External | K1Variant::Pipelined)
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
    /// Master seed for generation.
    pub seed: u64,
    /// Output files per edge file set.
    pub num_files: usize,
    /// The spill variants run with a memory budget of
    /// `input_bytes / budget_divisor`, so the external paths always spill
    /// (into roughly `budget_divisor` runs) regardless of scale.
    pub budget_divisor: u64,
    /// Measurement repetitions per point; the fastest trial is kept
    /// (best-of-N damps scheduler and page-cache noise, which dominates
    /// the I/O-bound kernels at small scales).
    pub trials: usize,
    /// R-MAT samplers to sweep on kernel 0 (the `gen` axis). Kernel 1
    /// runs once per scale, from the first swept sampler's output.
    pub gens: Vec<RmatSampler>,
    /// Skip the faithful sampler above this scale. Its per-edge recursion
    /// is `scale`-fold slower than the linear block-table sampler, so the
    /// largest scales sweep linear-only instead of dropping the scale.
    pub faithful_max_scale: Option<u32>,
    /// Skip kernel 1 above this scale (the sort paths are measured at the
    /// comparison scale; the top-end rows are a kernel-0 stress point).
    pub k1_max_scale: Option<u32>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            scales: vec![12],
            threads: crate::host_threads(),
            edge_factor: 16,
            seed: 1,
            num_files: 4,
            budget_divisor: 4,
            trials: 1,
            gens: vec![RmatSampler::Faithful, RmatSampler::Linear],
            faithful_max_scale: None,
            k1_max_scale: None,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Default)]
pub struct SweepRow {
    /// `"k0"` or `"k1"`.
    pub kernel: &'static str,
    /// Variant name (see [`K0Variant::name`] / [`K1Variant::name`]).
    pub variant: &'static str,
    /// R-MAT sampler name (see [`RmatSampler::name`]). Kernel-1 rows
    /// carry the sampler whose output they sorted.
    pub gen: &'static str,
    /// Graph scale.
    pub scale: u32,
    /// Thread count the pool was sized to (1 for serial variants).
    pub threads: usize,
    /// Edges in the file set.
    pub edges: u64,
    /// On-disk megabytes of the file set written (decimal MB).
    pub mbytes: f64,
    /// Wall-clock seconds for the whole kernel.
    pub seconds: f64,
    /// `mbytes / seconds` — the paper's Figure-4 axis.
    pub mb_per_s: f64,
    /// `mb_per_s / 1000` — the same rate in decimal GB/s, for reading
    /// the large-scale rows against device bandwidth.
    pub gb_per_s: f64,
}

/// Sums the on-disk bytes of a manifest's files.
fn dir_bytes(dir: &Path, manifest: &Manifest) -> Result<u64, String> {
    let mut total = 0u64;
    for f in &manifest.files {
        let path = dir.join(&f.name);
        let meta =
            std::fs::metadata(&path).map_err(|e| format!("cannot stat {}: {e}", path.display()))?;
        total += meta.len();
    }
    Ok(total)
}

/// Runs one kernel-0 variant into `dir` and returns its manifest.
fn run_k0(cfg: &PipelineConfig, variant: K0Variant, dir: &Path) -> Result<Manifest, String> {
    let err = |e: ppbench_core::Error| format!("k0 {}: {e}", variant.name());
    let generator = kernel0::build_generator(cfg);
    match variant {
        K0Variant::Materialize => {
            let m = cfg.spec.num_edges();
            let edges = generator.edges_parallel(kernel0::GENERATION_CHUNK);
            let io_err = |e: ppbench_io::Error| format!("k0 materialize: {e}");
            let mut writer = EdgeWriter::create(dir, "edges", cfg.num_files, m).map_err(io_err)?;
            writer.write_all(&edges).map_err(io_err)?;
            writer
                .finish(
                    Some(cfg.spec.scale()),
                    Some(cfg.spec.num_vertices()),
                    SortState::Unsorted,
                )
                .map_err(io_err)
        }
        K0Variant::Stream => kernel0::write_streamed(&generator, cfg, dir).map_err(err),
        K0Variant::Sharded => kernel0::write_sharded(&generator, cfg, dir).map_err(err),
    }
}

/// Runs one kernel-1 variant from `in_dir` into `out_dir` and returns the
/// output manifest. `budget_bytes` applies to the spill variants only.
fn run_k1(
    in_dir: &Path,
    out_dir: &Path,
    num_files: usize,
    variant: K1Variant,
    budget_bytes: u64,
) -> Result<Manifest, String> {
    let err = |e: ppbench_core::Error| format!("k1 {}: {e}", variant.name());
    let io_err = |e: ppbench_io::Error| format!("k1 external: {e}");
    match variant {
        K1Variant::InMem => kernel1::sort_file_set(
            in_dir,
            out_dir,
            num_files,
            SortKey::Start,
            Algorithm::Radix,
            None,
        )
        .map_err(err),
        K1Variant::Pipelined => kernel1::sort_file_set(
            in_dir,
            out_dir,
            num_files,
            SortKey::Start,
            Algorithm::Radix,
            Some(budget_bytes),
        )
        .map_err(err),
        K1Variant::External => {
            // The pre-pipeline spill path, preserved as the baseline: one
            // thread reads, sorts runs, merges, and writes, strictly in
            // sequence.
            let (in_manifest, iter) = EdgeReader::open_dir(in_dir).map_err(io_err)?;
            let budget_edges = usize::try_from(budget_bytes / BYTES_PER_EDGE as u64)
                .unwrap_or(usize::MAX)
                .max(1);
            let mut writer = EdgeWriter::create(out_dir, "edges", num_files, in_manifest.edges)
                .map_err(io_err)?;
            let scratch = out_dir.join("sort-scratch");
            let sorter =
                ExternalSorter::new(&scratch, budget_edges, SortKey::Start).map_err(io_err)?;
            let _stats = sorter.sort(iter, |e| writer.write(e)).map_err(io_err)?;
            #[expect(
                clippy::let_underscore_untyped,
                reason = "best-effort scratch cleanup; the sorted output is already written and a leftover dir is harmless"
            )]
            let _ = std::fs::remove_dir_all(&scratch);
            writer
                .finish(
                    in_manifest.scale,
                    in_manifest.vertex_bound,
                    SortKey::Start.sort_state(),
                )
                .map_err(io_err)
        }
    }
}

/// Derives a row's `(mbytes, mb_per_s, gb_per_s)` from raw bytes and
/// seconds, so every rate in the document is computed in exactly one
/// place (the schema gate cross-checks them against the raw fields).
fn rates(bytes: u64, seconds: f64) -> (f64, f64, f64) {
    let mbytes = bytes as f64 / 1e6;
    let mb_per_s = mbytes / seconds.max(1e-15);
    (mbytes, mb_per_s, mb_per_s / 1e3)
}

impl Sweep for SweepConfig {
    type Row = SweepRow;
    /// v3 added the `gen` axis (R-MAT sampler per kernel-0 row), the
    /// `gb_per_s` rate column, and the `faithful_max_scale`/`k1_max_scale`
    /// sweep caps.
    const VERSION: &'static str = "ppbench-k01-v3";
    const FILE: &'static str = "BENCH_k01.json";
    const RATES: &'static [Rate] = &[
        Rate {
            key: "mb_per_s",
            size: &["mbytes"],
            factor: 1.0,
        },
        Rate {
            key: "gb_per_s",
            size: &["mbytes"],
            factor: 1e-3,
        },
    ];

    fn header(&self) -> Cells {
        // An uncapped sweep records its cap as the string "none".
        let cap = |cap: Option<u32>| match cap {
            Some(scale) => Json::Uint(u64::from(scale)),
            None => Json::String("none".to_string()),
        };
        let gens: Vec<&str> = self.gens.iter().map(|g| g.name()).collect();
        vec![
            ("budget_divisor", Json::Uint(self.budget_divisor)),
            ("edge_factor", Json::Uint(self.edge_factor)),
            ("faithful_max_scale", cap(self.faithful_max_scale)),
            ("gens", Json::String(gens.join(","))),
            ("k1_max_scale", cap(self.k1_max_scale)),
            ("num_files", Json::Uint(self.num_files as u64)),
            ("seed", Json::Uint(self.seed)),
            ("trials", Json::Uint(self.trials as u64)),
        ]
    }

    fn cells(row: &SweepRow) -> Cells {
        vec![
            ("scale", Json::Uint(u64::from(row.scale))),
            ("kernel", Json::String(row.kernel.to_string())),
            ("gen", Json::String(row.gen.to_string())),
            ("variant", Json::String(row.variant.to_string())),
            ("threads", Json::Uint(row.threads as u64)),
            ("edges", Json::Uint(row.edges)),
            ("mbytes", Json::Number(row.mbytes)),
            ("seconds", Json::Number(row.seconds)),
            ("mb_per_s", Json::Number(row.mb_per_s)),
            ("gb_per_s", Json::Number(row.gb_per_s)),
        ]
    }

    fn scales(&self) -> &[u32] {
        &self.scales
    }

    /// Runs the full sweep. For each scale, kernel 0 runs once per requested
    /// sampler (the `gen` axis; the faithful sampler is skipped above
    /// [`SweepConfig::faithful_max_scale`]); within a sampler the serial
    /// variants run once at one thread and the parallel variants once per
    /// requested thread count (the global pool is resized between points).
    /// Kernel 1 then runs once per scale from the first sampler's verified
    /// kernel-0 output, unless the scale exceeds [`SweepConfig::k1_max_scale`].
    /// Each point is measured [`SweepConfig::trials`] times and the fastest
    /// repetition is kept, with every repetition digest-checked against its
    /// first. Row order is deterministic: scale-major, kernel 0 before
    /// kernel 1, then `gens` order, then `ALL` order, then thread order as
    /// given. Every measurement's output digest is checked against its
    /// kernel's first-measured variant under the same sampler; a mismatch
    /// fails the sweep.
    fn run(&self, points: &[PipelineConfig]) -> Result<Vec<SweepRow>, String> {
        let td = TempDir::new("k01bench").map_err(|e| format!("cannot create scratch dir: {e}"))?;
        if self.gens.is_empty() {
            return Err("no samplers to sweep (gens is empty)".to_string());
        }
        let mut rows = Vec::new();
        for point in points {
            let scale = point.spec.scale();
            let gens: Vec<RmatSampler> = self
                .gens
                .iter()
                .copied()
                .filter(|g| {
                    *g != RmatSampler::Faithful
                        || self.faithful_max_scale.is_none_or(|cap| scale <= cap)
                })
                .collect();
            if gens.is_empty() {
                continue;
            }
            // Kernel 1's input: the first sampler's verified kernel-0 output.
            let mut k1_input: Option<(Manifest, std::path::PathBuf, &'static str)> = None;

            // --- Kernel 0: generate + write, once per sampler ---
            for &gen in &gens {
                let pcfg = PipelineConfig {
                    gen,
                    ..point.clone()
                };
                // The first variant measured under each sampler doubles as
                // that sampler's byte-level reference (the two samplers emit
                // different — equally distributed — streams, so references
                // are per-(scale, gen)).
                let mut k0_ref: Option<(Manifest, std::path::PathBuf)> = None;
                for variant in K0Variant::ALL {
                    let thread_counts: &[usize] = if variant.is_parallel() {
                        &self.threads
                    } else {
                        &[1]
                    };
                    for &threads in thread_counts {
                        size_pool(threads)?;
                        // Best-of-N: the first trial's output is kept (for
                        // the digest reference and as kernel 1's input);
                        // every later trial must reproduce its byte stream
                        // and is deleted.
                        let mut kept: Option<(Manifest, std::path::PathBuf)> = None;
                        let mut seconds = f64::INFINITY;
                        for trial in 0..self.trials.max(1) {
                            let dir = td.join(&format!(
                                "s{scale}-{}-k0-{}-t{threads}-r{trial}",
                                gen.name(),
                                variant.name()
                            ));
                            let sw = Stopwatch::start();
                            let manifest = run_k0(&pcfg, variant, &dir)?;
                            seconds = seconds.min(sw.elapsed_secs());
                            match &kept {
                                None => kept = Some((manifest, dir)),
                                Some((first, _)) => {
                                    if !manifest.digest.same_stream(&first.digest) {
                                        return Err(format!(
                                            "k0 {} {} trial {trial} (t{threads}, scale {scale}) \
                                             wrote a different edge stream than its first trial",
                                            gen.name(),
                                            variant.name()
                                        ));
                                    }
                                    std::fs::remove_dir_all(&dir).map_err(|e| {
                                        format!("cannot clean {}: {e}", dir.display())
                                    })?;
                                }
                            }
                        }
                        let Some((manifest, dir)) = kept else {
                            return Err(format!("k0 {} measured no trials", variant.name()));
                        };
                        let bytes = dir_bytes(&dir, &manifest)?;
                        let (mbytes, mb_per_s, gb_per_s) = rates(bytes, seconds);
                        rows.push(SweepRow {
                            kernel: "k0",
                            variant: variant.name(),
                            gen: gen.name(),
                            scale,
                            threads,
                            edges: manifest.edges,
                            mbytes,
                            seconds,
                            mb_per_s,
                            gb_per_s,
                        });
                        match &k0_ref {
                            None => k0_ref = Some((manifest, dir)),
                            Some((reference, _)) => {
                                if !manifest.digest.same_stream(&reference.digest) {
                                    return Err(format!(
                                        "k0 {} {} (t{threads}, scale {scale}) wrote a different \
                                         edge stream than the reference",
                                        gen.name(),
                                        variant.name()
                                    ));
                                }
                                std::fs::remove_dir_all(&dir)
                                    .map_err(|e| format!("cannot clean {}: {e}", dir.display()))?;
                            }
                        }
                    }
                }
                let Some((k0_manifest, k0_dir)) = k0_ref else {
                    return Err("kernel 0 measured no variants".to_string());
                };
                if k1_input.is_none() {
                    k1_input = Some((k0_manifest, k0_dir, gen.name()));
                } else {
                    std::fs::remove_dir_all(&k0_dir)
                        .map_err(|e| format!("cannot clean {}: {e}", k0_dir.display()))?;
                }
            }
            let Some((k0_manifest, k0_dir, k1_gen)) = k1_input else {
                return Err("kernel 0 measured no samplers".to_string());
            };

            // --- Kernel 1: read + sort + write, once per scale ---
            if self.k1_max_scale.is_none_or(|cap| scale <= cap) {
                let in_bytes = k0_manifest.edges.saturating_mul(BYTES_PER_EDGE as u64);
                let budget_bytes =
                    (in_bytes / self.budget_divisor.max(1)).max(BYTES_PER_EDGE as u64);
                let mut k1_ref: Option<Manifest> = None;
                for variant in K1Variant::ALL {
                    let thread_counts: &[usize] = if variant.is_parallel() {
                        &self.threads
                    } else {
                        &[1]
                    };
                    for &threads in thread_counts {
                        size_pool(threads)?;
                        // Best-of-N mirrors kernel 0: keep the first trial's
                        // output, require every repetition to reproduce it.
                        let mut kept: Option<(Manifest, std::path::PathBuf)> = None;
                        let mut seconds = f64::INFINITY;
                        for trial in 0..self.trials.max(1) {
                            let dir = td.join(&format!(
                                "s{scale}-k1-{}-t{threads}-r{trial}",
                                variant.name()
                            ));
                            let sw = Stopwatch::start();
                            let manifest =
                                run_k1(&k0_dir, &dir, self.num_files, variant, budget_bytes)?;
                            seconds = seconds.min(sw.elapsed_secs());
                            match &kept {
                                None => kept = Some((manifest, dir)),
                                Some((first, _)) => {
                                    if !manifest.digest.same_stream(&first.digest) {
                                        return Err(format!(
                                            "k1 {} trial {trial} (t{threads}, scale {scale}) \
                                             produced a different sorted stream than its first trial",
                                            variant.name()
                                        ));
                                    }
                                    std::fs::remove_dir_all(&dir).map_err(|e| {
                                        format!("cannot clean {}: {e}", dir.display())
                                    })?;
                                }
                            }
                        }
                        let Some((manifest, dir)) = kept else {
                            return Err(format!("k1 {} measured no trials", variant.name()));
                        };
                        let bytes = dir_bytes(&dir, &manifest)?;
                        if !manifest.sort_state.is_sorted_by_start() {
                            return Err(format!("k1 {} output is not sorted", variant.name()));
                        }
                        // All three paths are stable sorts, so their output
                        // streams must be byte-identical.
                        match &k1_ref {
                            None => k1_ref = Some(manifest.clone()),
                            Some(reference) => {
                                if !manifest.digest.same_stream(&reference.digest) {
                                    return Err(format!(
                                        "k1 {} (t{threads}, scale {scale}) produced a different \
                                         sorted stream than the reference",
                                        variant.name()
                                    ));
                                }
                            }
                        }
                        let (mbytes, mb_per_s, gb_per_s) = rates(bytes, seconds);
                        rows.push(SweepRow {
                            kernel: "k1",
                            variant: variant.name(),
                            gen: k1_gen,
                            scale,
                            threads,
                            edges: manifest.edges,
                            mbytes,
                            seconds,
                            mb_per_s,
                            gb_per_s,
                        });
                        std::fs::remove_dir_all(&dir)
                            .map_err(|e| format!("cannot clean {}: {e}", dir.display()))?;
                    }
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
            budget_divisor: 4,
            trials: 1,
            gens: vec![RmatSampler::Faithful, RmatSampler::Linear],
            faithful_max_scale: None,
            k1_max_scale: None,
        }
    }

    /// K0: (stream once + 2 parallel variants × 2 thread counts) per
    /// sampler; K1: inmem once + 2 parallel variants × 2 thread counts,
    /// once per scale.
    const TINY_ROWS: usize = (1 + 2 * 2) * 2 + (1 + 2 * 2);

    #[test]
    fn best_of_n_trials_still_yields_one_row_per_point() {
        let cfg = SweepConfig {
            trials: 2,
            ..tiny_cfg()
        };
        let rows = cfg.run(&crate::table::points(&cfg).unwrap()).unwrap();
        assert_eq!(rows.len(), TINY_ROWS);
    }

    #[test]
    fn sweep_covers_every_variant_and_streams_agree() {
        let cfg = tiny_cfg();
        let rows = cfg.run(&crate::table::points(&cfg).unwrap()).unwrap();
        // Measured rows satisfy their own shape and rate checks.
        crate::table::check::<SweepConfig>(&crate::table::render(&cfg, &rows)).unwrap();
        assert_eq!(rows.len(), TINY_ROWS);
        for v in K0Variant::ALL {
            for g in RmatSampler::ALL {
                assert!(
                    rows.iter()
                        .any(|r| r.kernel == "k0" && r.variant == v.name() && r.gen == g.name()),
                    "missing k0 {} under {}",
                    v.name(),
                    g.name()
                );
            }
        }
        for v in K1Variant::ALL {
            assert!(
                rows.iter()
                    .any(|r| r.kernel == "k1" && r.variant == v.name()),
                "missing k1 {}",
                v.name()
            );
        }
        for row in &rows {
            assert!(row.mb_per_s > 0.0, "{row:?}");
            assert!(row.edges > 0, "{row:?}");
            assert!(row.mbytes > 0.0, "{row:?}");
            assert!(
                (row.gb_per_s - row.mb_per_s / 1e3).abs() <= row.mb_per_s * 1e-12,
                "{row:?}"
            );
        }
        // Kernel 1 sorts the first swept sampler's output and says so.
        assert!(rows
            .iter()
            .filter(|r| r.kernel == "k1")
            .all(|r| r.gen == "faithful"));
    }

    #[test]
    fn sweep_caps_limit_faithful_and_k1_scales() {
        let cfg = SweepConfig {
            scales: vec![5, 6],
            faithful_max_scale: Some(5),
            k1_max_scale: Some(5),
            ..tiny_cfg()
        };
        let rows = cfg.run(&crate::table::points(&cfg).unwrap()).unwrap();
        // Scale 5 runs the full matrix; scale 6 is linear-only with no k1.
        assert!(rows
            .iter()
            .any(|r| r.scale == 5 && r.gen == "faithful" && r.kernel == "k0"));
        assert!(rows.iter().any(|r| r.scale == 5 && r.kernel == "k1"));
        assert!(!rows.iter().any(|r| r.scale == 6 && r.gen == "faithful"));
        assert!(!rows.iter().any(|r| r.scale == 6 && r.kernel == "k1"));
        assert!(rows
            .iter()
            .any(|r| r.scale == 6 && r.gen == "linear" && r.kernel == "k0"));
        assert_eq!(rows.len(), TINY_ROWS + 5);
    }
}
