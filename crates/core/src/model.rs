//! Simple hardware performance models for the four kernels.
//!
//! The paper argues that "the computations are simple enough that
//! performance predictions can be made based on simple computing hardware
//! models" and promises "a more detailed analysis of each of the kernels
//! with respect to standard models of parallel computation and
//! communication" as future work (§V). This module is that analysis for the
//! serial pipeline: each kernel is decomposed into streaming, parsing,
//! formatting, random-access and storage phases; a [`HardwareModel`] holds
//! the machine's sustained rate for each phase; and [`predict_all`] combines
//! them into a per-kernel time prediction with the dominant term named.
//!
//! The model deliberately stays first-order (no cache hierarchy, no
//! overlap): its purpose is the paper's — sanity-check measured numbers
//! against what the hardware should deliver, and expose which resource each
//! kernel actually stresses. `HardwareModel::calibrate()` measures the
//! rates on the running machine with sub-second microbenchmarks.

use ppbench_gen::GraphSpec;

/// Sustained hardware rates, all in units per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareModel {
    /// Sequential memory streaming (bytes/s) — large copies.
    pub stream_bytes_per_s: f64,
    /// Decimal text parsing (bytes/s of input text).
    pub parse_bytes_per_s: f64,
    /// Decimal text formatting (bytes/s of output text).
    pub format_bytes_per_s: f64,
    /// Dependent random memory accesses (accesses/s) — hash/scatter work.
    pub random_access_per_s: f64,
    /// File write throughput (bytes/s), page-cache included.
    pub storage_write_bytes_per_s: f64,
    /// File read throughput (bytes/s), page-cache included.
    pub storage_read_bytes_per_s: f64,
}

impl HardwareModel {
    /// A conservative 2015-era workstation (the paper's Xeon E5-2650 with a
    /// Lustre filesystem), for offline predictions.
    pub fn paper_era() -> Self {
        Self {
            stream_bytes_per_s: 8e9,
            parse_bytes_per_s: 300e6,
            format_bytes_per_s: 400e6,
            random_access_per_s: 30e6,
            storage_write_bytes_per_s: 500e6,
            storage_read_bytes_per_s: 1e9,
        }
    }

    /// Measures the rates on the running machine. Costs well under a
    /// second; rates are rough (±2×) by design — this is a *simple* model.
    pub fn calibrate() -> Self {
        Self {
            stream_bytes_per_s: measure_stream(),
            parse_bytes_per_s: measure_parse(),
            format_bytes_per_s: measure_format(),
            random_access_per_s: measure_random_access(),
            storage_write_bytes_per_s: measure_storage_write(),
            // Reads of just-written files come from page cache; model them
            // as streaming.
            storage_read_bytes_per_s: measure_stream(),
        }
    }
}

/// Average encoded bytes per edge line at a given scale (two decimal ids of
/// roughly `log10(2^scale)` digits, tab, newline).
pub fn avg_line_bytes(spec: &GraphSpec) -> f64 {
    // Vertex ids are roughly uniform in digit count near the top of the
    // range; approximate by the digit count of N.
    let digits = (spec.num_vertices() as f64).log10().ceil().max(1.0);
    2.0 * digits + 2.0
}

/// A predicted kernel cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Kernel number (0–3).
    pub kernel: u8,
    /// Predicted wall-clock seconds.
    pub seconds: f64,
    /// Predicted edges/second in the paper's metric (kernel 3 counts
    /// iterations × M).
    pub edges_per_second: f64,
    /// Cost breakdown: phase name → seconds.
    pub breakdown: Vec<(&'static str, f64)>,
}

impl Prediction {
    fn from_breakdown(kernel: u8, work_items: f64, breakdown: Vec<(&'static str, f64)>) -> Self {
        let seconds: f64 = breakdown.iter().map(|(_, s)| s).sum();
        Self {
            kernel,
            seconds,
            edges_per_second: work_items / seconds,
            breakdown,
        }
    }

    /// The phase dominating the prediction.
    pub fn dominant(&self) -> &'static str {
        self.breakdown
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, _)| *n)
            .unwrap_or("none")
    }
}

/// Predicts kernel 0 (generate + format + write).
pub fn predict_kernel0(spec: &GraphSpec, hw: &HardwareModel) -> Prediction {
    let m = spec.num_edges() as f64;
    let text_bytes = m * avg_line_bytes(spec);
    // Generation: 2 uniform draws per scale bit per edge; a draw plus bit
    // twiddling is a handful of streaming-speed operations — model as 32
    // streamed bytes per draw.
    let gen_bytes = m * 2.0 * spec.scale() as f64 * 32.0;
    Prediction::from_breakdown(
        0,
        m,
        vec![
            ("generate", gen_bytes / hw.stream_bytes_per_s),
            ("format", text_bytes / hw.format_bytes_per_s),
            ("write", text_bytes / hw.storage_write_bytes_per_s),
        ],
    )
}

/// Predicts kernel 1 (read + parse + radix sort + format + write).
pub fn predict_kernel1(spec: &GraphSpec, hw: &HardwareModel) -> Prediction {
    let m = spec.num_edges() as f64;
    let text_bytes = m * avg_line_bytes(spec);
    // LSD radix: one histogram pass plus ceil(scale/8) permute passes, each
    // moving 16 bytes per edge in and out.
    let passes = 1.0 + (spec.scale() as f64 / 8.0).ceil();
    let sort_bytes = m * 16.0 * 2.0 * passes;
    Prediction::from_breakdown(
        1,
        m,
        vec![
            ("read", text_bytes / hw.storage_read_bytes_per_s),
            ("parse", text_bytes / hw.parse_bytes_per_s),
            ("sort", sort_bytes / hw.stream_bytes_per_s),
            ("format", text_bytes / hw.format_bytes_per_s),
            ("write", text_bytes / hw.storage_write_bytes_per_s),
        ],
    )
}

/// Predicts kernel 2 (read + parse + matrix build + degree/normalize).
///
/// `nnz` is the distinct-edge count (≤ M); pass the measured value or an
/// estimate such as `0.8 × M`.
pub fn predict_kernel2(spec: &GraphSpec, nnz: f64, hw: &HardwareModel) -> Prediction {
    let m = spec.num_edges() as f64;
    let text_bytes = m * avg_line_bytes(spec);
    // Sorted-input construction streams the edges once (group/dedup) and
    // writes nnz entries; column sums then do one *random* access per
    // stored entry (the in-degree scatter).
    let build_bytes = m * 16.0 + nnz * 16.0;
    Prediction::from_breakdown(
        2,
        m,
        vec![
            ("read", text_bytes / hw.storage_read_bytes_per_s),
            ("parse", text_bytes / hw.parse_bytes_per_s),
            ("build", build_bytes / hw.stream_bytes_per_s),
            ("degree-scatter", nnz / hw.random_access_per_s),
            ("normalize", nnz * 16.0 / hw.stream_bytes_per_s),
        ],
    )
}

/// Predicts kernel 3 (`iterations` scatter SpMVs).
pub fn predict_kernel3(
    spec: &GraphSpec,
    nnz: f64,
    iterations: u32,
    hw: &HardwareModel,
) -> Prediction {
    let it = iterations as f64;
    // Each SpMV entry is one random write into the output vector plus a
    // streamed read of the entry (12–16 bytes).
    Prediction::from_breakdown(
        3,
        spec.num_edges() as f64 * it,
        vec![
            ("spmv-scatter", it * nnz / hw.random_access_per_s),
            ("spmv-stream", it * nnz * 16.0 / hw.stream_bytes_per_s),
            (
                "teleport",
                it * spec.num_vertices() as f64 * 16.0 / hw.stream_bytes_per_s,
            ),
        ],
    )
}

/// Predicts all four kernels at once.
pub fn predict_all(
    spec: &GraphSpec,
    nnz: f64,
    iterations: u32,
    hw: &HardwareModel,
) -> [Prediction; 4] {
    [
        predict_kernel0(spec, hw),
        predict_kernel1(spec, hw),
        predict_kernel2(spec, nnz, hw),
        predict_kernel3(spec, nnz, iterations, hw),
    ]
}

/// Predicted communication volume (bytes) for the distributed
/// decomposition the paper sketches in §IV, per kernel:
///
/// * kernel 1 — all-to-all shuffle: `(W−1)/W` of the `M` 16-byte edges
///   cross rank boundaries in expectation (hash/range partition of a
///   well-mixed stream);
/// * kernel 2 — in-degree aggregation: a gather + broadcast all-reduce of
///   `N` 8-byte counters (`2·(W−1)·8N`), plus the `N`-byte elimination
///   mask broadcast to `W−1` ranks;
/// * kernel 3 — the same all-reduce over `N` doubles, once per iteration.
///
/// `ppbench-dist` measures the real volumes; its tests pin them to these
/// formulas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommPrediction {
    /// Kernel-1 shuffle bytes.
    pub k1_shuffle: f64,
    /// Kernel-2 aggregation + broadcast bytes.
    pub k2_aggregate: f64,
    /// Kernel-3 reduction bytes across all iterations.
    pub k3_reduce: f64,
}

/// Predicts the communication volume of a `workers`-rank run.
///
/// # Panics
///
/// Panics if `workers == 0`.
pub fn predict_comm(spec: &GraphSpec, iterations: u32, workers: usize) -> CommPrediction {
    assert!(workers > 0, "need at least one worker");
    let w = workers as f64;
    let m = spec.num_edges() as f64;
    let n = spec.num_vertices() as f64;
    let allreduce = |elem_bytes: f64| 2.0 * (w - 1.0) * n * elem_bytes;
    CommPrediction {
        k1_shuffle: (w - 1.0) / w * m * 16.0,
        k2_aggregate: allreduce(8.0) + (w - 1.0) * n,
        k3_reduce: iterations as f64 * allreduce(8.0),
    }
}

// --- calibration microbenchmarks -----------------------------------------

/// Wall-clock budget per calibration probe.
const BUDGET_SECS: f64 = 0.05;

fn measure_stream() -> f64 {
    let n = 16 << 20; // 16 MiB
    let src = vec![0xA5u8; n];
    let mut dst = vec![0u8; n];
    let sw = crate::timing::Stopwatch::start();
    let mut reps = 0u32;
    while sw.elapsed_secs() < BUDGET_SECS {
        dst.copy_from_slice(&src);
        std::hint::black_box(&dst);
        reps += 1;
    }
    (n as f64 * reps as f64 * 2.0) / sw.elapsed_secs()
}

fn measure_parse() -> f64 {
    let lines: Vec<Vec<u8>> = (0..4096u64)
        .map(|i| format!("{}\t{}", i * 7919 % 1_000_000, i * 104729 % 1_000_000).into_bytes())
        .collect();
    let bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
    let sw = crate::timing::Stopwatch::start();
    let mut reps = 0u32;
    let mut acc = 0u64;
    while sw.elapsed_secs() < BUDGET_SECS {
        for l in &lines {
            // The probe lines were formatted two statements up, so a
            // decode failure is unreachable; skipping keeps the loop hot.
            let Ok(e) = ppbench_io::format::decode_line(l) else {
                continue;
            };
            acc = acc.wrapping_add(e.u);
        }
        reps += 1;
    }
    std::hint::black_box(acc);
    (bytes as f64 * reps as f64) / sw.elapsed_secs()
}

fn measure_format() -> f64 {
    let mut out = Vec::with_capacity(4096 * 16);
    let sw = crate::timing::Stopwatch::start();
    let mut reps = 0u32;
    let mut bytes = 0usize;
    while sw.elapsed_secs() < BUDGET_SECS {
        out.clear();
        for i in 0..4096u64 {
            ppbench_io::format::encode_line(
                ppbench_io::Edge::new(i * 7919 % 1_000_000, i),
                &mut out,
            );
        }
        bytes = out.len();
        std::hint::black_box(&out);
        reps += 1;
    }
    (bytes as f64 * reps as f64) / sw.elapsed_secs()
}

fn measure_random_access() -> f64 {
    // Pointer-chase through a shuffled permutation bigger than L2.
    let n = 1 << 21; // 2M u32 = 8 MiB
    let mut next: Vec<u32> = (0..n as u32).collect();
    // Deterministic shuffle via an LCG walk.
    let mut j = 0usize;
    for i in (1..n).rev() {
        j = (j
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407))
            % (i + 1);
        next.swap(i, j);
    }
    let sw = crate::timing::Stopwatch::start();
    let mut idx = 0u32;
    let mut hops = 0u64;
    while sw.elapsed_secs() < BUDGET_SECS {
        for _ in 0..4096 {
            idx = next[idx as usize];
        }
        hops += 4096;
    }
    std::hint::black_box(idx);
    hops as f64 / sw.elapsed_secs()
}

fn measure_storage_write() -> f64 {
    let Ok(td) = ppbench_io::tempdir::TempDir::new("ppbench-calibrate") else {
        return 500e6; // fall back to the paper-era default
    };
    let chunk = vec![0x42u8; 1 << 20];
    let path = td.join("probe.bin");
    let sw = crate::timing::Stopwatch::start();
    let mut written = 0u64;
    {
        use std::io::Write;
        let Ok(mut f) = std::fs::File::create(&path) else {
            return 500e6;
        };
        while sw.elapsed_secs() < BUDGET_SECS {
            if f.write_all(&chunk).is_err() {
                break;
            }
            written += chunk.len() as u64;
        }
        #[expect(
            clippy::let_underscore_untyped,
            reason = "calibration probe; a failed flush only blurs a rate that is ±2x by design"
        )]
        let _ = f.flush();
    }
    (written as f64).max(1.0) / sw.elapsed_secs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GraphSpec {
        GraphSpec::with_scale(16)
    }

    #[test]
    fn predictions_are_finite_and_positive() {
        let hw = HardwareModel::paper_era();
        for p in predict_all(&spec(), 0.8 * spec().num_edges() as f64, 20, &hw) {
            assert!(
                p.seconds.is_finite() && p.seconds > 0.0,
                "kernel {}",
                p.kernel
            );
            assert!(p.edges_per_second > 0.0);
            assert!(!p.breakdown.is_empty());
            assert!(!p.dominant().is_empty());
        }
    }

    #[test]
    fn predicted_time_grows_with_scale() {
        let hw = HardwareModel::paper_era();
        let small = predict_kernel1(&GraphSpec::with_scale(16), &hw);
        let large = predict_kernel1(&GraphSpec::with_scale(20), &hw);
        assert!(
            large.seconds > 10.0 * small.seconds,
            "16x data should cost >10x"
        );
    }

    #[test]
    fn kernel3_rate_exceeds_file_kernel_rates() {
        // The paper's figures show K3 running ~100x faster in edges/sec than
        // the file kernels; the model must reproduce that ordering.
        let hw = HardwareModel::paper_era();
        let nnz = 0.8 * spec().num_edges() as f64;
        let k1 = predict_kernel1(&spec(), &hw);
        let k3 = predict_kernel3(&spec(), nnz, 20, &hw);
        assert!(
            k3.edges_per_second > 3.0 * k1.edges_per_second,
            "K3 {:.2e} should beat K1 {:.2e}",
            k3.edges_per_second,
            k1.edges_per_second
        );
    }

    #[test]
    fn file_kernels_are_io_or_parse_bound() {
        let hw = HardwareModel::paper_era();
        let k1 = predict_kernel1(&spec(), &hw);
        assert!(
            ["read", "parse", "write", "format"].contains(&k1.dominant()),
            "kernel 1 dominated by {}",
            k1.dominant()
        );
        let k3 = predict_kernel3(&spec(), 0.8 * spec().num_edges() as f64, 20, &hw);
        assert_eq!(k3.dominant(), "spmv-scatter", "kernel 3 is latency bound");
    }

    #[test]
    fn breakdown_sums_to_total() {
        let hw = HardwareModel::paper_era();
        let p = predict_kernel2(&spec(), 1e6, &hw);
        let sum: f64 = p.breakdown.iter().map(|(_, s)| s).sum();
        assert!((sum - p.seconds).abs() < 1e-12);
    }

    #[test]
    fn calibration_runs_and_returns_positive_rates() {
        let hw = HardwareModel::calibrate();
        assert!(
            hw.stream_bytes_per_s > 1e8,
            "stream {:.2e}",
            hw.stream_bytes_per_s
        );
        assert!(
            hw.parse_bytes_per_s > 1e6,
            "parse {:.2e}",
            hw.parse_bytes_per_s
        );
        assert!(
            hw.format_bytes_per_s > 1e6,
            "format {:.2e}",
            hw.format_bytes_per_s
        );
        assert!(
            hw.random_access_per_s > 1e5,
            "random {:.2e}",
            hw.random_access_per_s
        );
        assert!(hw.storage_write_bytes_per_s > 1e6);
    }

    #[test]
    fn comm_prediction_shapes() {
        let spec = GraphSpec::with_scale(12);
        let single = predict_comm(&spec, 20, 1);
        assert_eq!(single.k1_shuffle, 0.0);
        assert_eq!(single.k3_reduce, 0.0);
        let four = predict_comm(&spec, 20, 4);
        assert!(four.k1_shuffle > 0.0);
        // K3 traffic dominates K2 by roughly the iteration count.
        assert!(four.k3_reduce > 10.0 * four.k2_aggregate);
        // More workers, more traffic.
        let eight = predict_comm(&spec, 20, 8);
        assert!(eight.k3_reduce > four.k3_reduce);
    }

    #[test]
    fn avg_line_bytes_tracks_digits() {
        // Scale 16: N = 65536 (5 digits) → 12 bytes/line.
        assert_eq!(avg_line_bytes(&GraphSpec::with_scale(16)), 12.0);
        // Scale 20: N = 1,048,576 (7 digits) → 16.
        assert_eq!(avg_line_bytes(&GraphSpec::with_scale(20)), 16.0);
    }
}
