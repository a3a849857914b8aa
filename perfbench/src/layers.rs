//! Single-layer probes run in a traced invocation: the generator, the edge
//! file format, the spill sorter and a parallel region, each timed on the
//! benchmark's clock around the layer's public entry points and checked
//! against the pipeline's own digest of the same edges.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use ppbench_core::PipelineConfig;
use ppbench_gen::{chunk_ranges, EdgeGenerator, Kronecker, LinearKronecker, RmatSampler};
use ppbench_io::checksum::EdgeDigest;
use ppbench_io::{Edge, EdgeReader, EdgeWriter, SortState};
use ppbench_sort::{ExternalSorter, SortKey};
use rayon::prelude::*;

use crate::host::dir_bytes;
use crate::report::Outcome;
use crate::stats::median;

/// Edges generated per `edges_into` call, as kernel 0 streams them.
const CHUNK: u64 = 1 << 16;

/// Per-layer figures of one probe pass.
#[derive(Debug, Default)]
pub struct LayerFigures {
    pub gen_ns_per_edge: f64,
    pub io_write_mb_per_s: f64,
    pub io_parse_mb_per_s: f64,
    pub sort_run_s: f64,
    pub sort_merge_s: f64,
    pub sort_runs: f64,
    pub sort_spill_bytes: f64,
}

/// The generator kernel 0 uses for `cfg` (Kronecker with either sampler).
fn generator(cfg: &PipelineConfig) -> Box<dyn EdgeGenerator> {
    match cfg.gen {
        RmatSampler::Faithful => Box::new(Kronecker::new(cfg.spec, cfg.seed)),
        RmatSampler::Linear => Box::new(LinearKronecker::new(cfg.spec, cfg.seed)),
    }
}

/// Runs the gen, io and sort probes on `cfg`'s edge stream in `dir`,
/// checking every stage against `k0_digest`, the pipeline's kernel-0
/// digest of the same stream.
pub fn probe(
    cfg: &PipelineConfig,
    k0_digest: EdgeDigest,
    dir: &Path,
    out: &mut Outcome,
) -> LayerFigures {
    let m = cfg.spec.num_edges();
    let gen = generator(cfg);
    let mut buf: Vec<Edge> = Vec::with_capacity(CHUNK as usize);

    // gen: edges_into over the full range, no I/O.
    let t = Instant::now();
    for (lo, hi) in chunk_ranges(0, m, CHUNK) {
        gen.edges_into(&mut buf, lo, hi);
        black_box(&buf);
    }
    let gen_s = t.elapsed().as_secs_f64();

    // io write: the same stream through a durable EdgeWriter, timing only
    // the writer calls.
    let files = dir.join("io");
    let mut write_s = 0.0;
    let mut digest = EdgeDigest::new();
    let written = (|| {
        let mut writer = EdgeWriter::create(&files, "edges", cfg.num_files, m)?;
        for (lo, hi) in chunk_ranges(0, m, CHUNK) {
            gen.edges_into(&mut buf, lo, hi);
            buf.iter().for_each(|&e| digest.update(e));
            let t = Instant::now();
            writer.write_all(&buf)?;
            write_s += t.elapsed().as_secs_f64();
        }
        let t = Instant::now();
        let manifest = writer.finish(Some(cfg.spec.scale()), None, SortState::Unsorted)?;
        write_s += t.elapsed().as_secs_f64();
        Ok::<_, ppbench_io::Error>(manifest)
    })();
    let mut figures = LayerFigures {
        gen_ns_per_edge: gen_s * 1e9 / m as f64,
        ..LayerFigures::default()
    };
    let manifest = match written {
        Ok(manifest) => manifest,
        Err(e) => {
            out.op(false, || format!("io probe write failed: {e}"));
            return figures;
        }
    };
    out.op(
        digest.same_stream(&k0_digest) && manifest.digest.same_stream(&k0_digest),
        || "gen/io probe stream differs from the pipeline's kernel-0 stream".to_string(),
    );
    let file_bytes = dir_bytes(&files) as f64;
    figures.io_write_mb_per_s = file_bytes / MB / write_s;

    // io parse: read the set back into memory (the sort probe's input).
    let t = Instant::now();
    let mut edges: Vec<Edge> = Vec::with_capacity(m as usize);
    let parsed = EdgeReader::open_dir(&files).and_then(|(_, iter)| {
        for e in iter {
            edges.push(e?);
        }
        Ok(())
    });
    figures.io_parse_mb_per_s = file_bytes / MB / t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&files);
    let parsed_ok = parsed.is_ok() && EdgeDigest::of_edges(&edges).same_stream(&k0_digest);
    if !out.op(parsed_ok, || {
        "io probe parse differs from what was written".to_string()
    }) {
        return figures;
    }

    // sort: RunWriter/MergeStream under the workload's kernel-1 budget.
    let key = if cfg.fused {
        SortKey::StartEnd
    } else {
        cfg.sort_key
    };
    let budget_edges = cfg.sort_budget_bytes.map_or(usize::MAX, |b| {
        (b as usize / ppbench_io::BYTES_PER_EDGE).max(1)
    });
    let scratch = dir.join("sort");
    let sorted = (|| {
        let t = Instant::now();
        let mut writer = ExternalSorter::new(&scratch, budget_edges, key)?.run_writer()?;
        for &e in &edges {
            writer.push(e)?;
        }
        let set = writer.finish()?;
        figures.sort_run_s = t.elapsed().as_secs_f64();
        figures.sort_runs = set.stats().runs as f64;
        figures.sort_spill_bytes = dir_bytes(&scratch) as f64;
        let t = Instant::now();
        let mut merged = EdgeDigest::new();
        let mut prev: Option<Edge> = None;
        let mut in_order = true;
        for e in set.into_stream()? {
            let e = e?;
            in_order &= prev.is_none_or(|p| key.cmp(&p, &e).is_le());
            merged.update(e);
            prev = Some(e);
        }
        figures.sort_merge_s = t.elapsed().as_secs_f64();
        Ok::<_, ppbench_io::Error>(in_order && merged.same_multiset(&k0_digest))
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    match sorted {
        Ok(ok) => out.op(ok, || {
            "sort probe output is not the sorted input".to_string()
        }),
        Err(e) => out.op(false, || format!("sort probe failed: {e}")),
    };
    figures
}

const MB: f64 = 1024.0 * 1024.0;

/// Median cost of one near-empty parallel region at 2 threads, in µs.
/// Leaves the global pool at `restore_threads`.
pub fn rayon_region_us(restore_threads: usize) -> f64 {
    const REGIONS: usize = 200;
    set_threads(2);
    let batches: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            for i in 0..REGIONS {
                let v: Vec<usize> = vec![i, i + 1].into_par_iter().map(|x| x + 1).collect();
                black_box(v);
            }
            t.elapsed().as_secs_f64() * 1e6 / REGIONS as f64
        })
        .collect();
    set_threads(restore_threads);
    median(&batches).unwrap_or(0.0)
}

/// Sizes the global parallel pool.
pub fn set_threads(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("the pool shim's build_global is infallible");
}
