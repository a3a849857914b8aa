//! What one invocation found: operations attempted and failed, the
//! failures' reasons, and the named metrics with unit and sample count.

/// End-to-end metrics, printed with `--trace 0`; `BENCHMARK.json` lists
/// the same names.
pub const END_TO_END: [&str; 4] = ["pipeline_edges_per_s", "ok_frac", "peak_rss_mb", "setup_s"];

/// Per-layer metrics, printed with `--trace 1`; `BENCHMARK.json` lists the
/// same names. Every workload reports all of them.
pub const PER_LAYER: [&str; 43] = [
    "core.k0_s",
    "core.k1_s",
    "core.k2_s",
    "core.k12_s",
    "core.k3_s",
    "core.validate_s",
    "core.span_gap_s",
    "core.trace_overhead_s",
    "core.k0_peak_rss_mb",
    "core.k1_peak_rss_mb",
    "core.k2_peak_rss_mb",
    "core.k3_peak_rss_mb",
    "core.bytes_per_edge_peak",
    "core.k2_nnz",
    "core.k3_setup_s",
    "core.k3_iter_ms",
    "core.k3_gflops",
    "io.k0_bytes",
    "io.k1_bytes",
    "gen.ns_per_edge",
    "io.write_mb_per_s",
    "io.parse_mb_per_s",
    "sort.run_s",
    "sort.merge_s",
    "sort.runs",
    "sort.spill_bytes",
    "rayon.region_us",
    "serve.setup_s",
    "serve.peak_rss_mb",
    "serve.cache_hit_ratio",
    "serve.coalesced",
    "serve.rejected",
    "serve.http_errors",
    "serve.run_ms_p50",
    "serve.queue_wait_ms_p50",
    "serve.polls_per_miss",
    "load.hit_p50_ms",
    "load.hit_tail_ms",
    "load.miss_p50_ms",
    "load.miss_tail_ms",
    "load.slo_frac",
    "load.late_ms_p99",
    "load.achieved_rps",
];

/// A named figure with its unit and the number of samples behind it.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Running tally of one invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one operation; a failed one is counted and its reason kept.
    /// Returns `ok`.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
        ok
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Checks that exactly `expected` metrics were recorded, once each.
    pub fn check_names(&mut self, expected: &[&str]) {
        let mut got: Vec<&str> = self.metrics.iter().map(|m| m.name).collect();
        let mut want = expected.to_vec();
        got.sort_unstable();
        want.sort_unstable();
        let same = got == want;
        self.op(same, || {
            format!("recorded metrics {got:?} are not the listed {want:?}")
        });
    }

    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// `1 - failed / attempted`: the share of operations that succeeded.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed as f64 / self.attempted as f64
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// One human-readable line per metric: name, value, unit, samples.
    pub fn table(&self) -> String {
        self.metrics
            .iter()
            .map(|m| {
                format!(
                    "metric {:<28} {:>16} {:<8} n={}\n",
                    m.name,
                    json_number(m.value),
                    m.unit,
                    m.samples
                )
            })
            .collect()
    }
}

/// A finite number in JSON's shortest round-trip form; non-finite values
/// (which no metric should produce) become 0 so the line stays JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        out.op(true, String::new);
        out.op(false, || "broken".to_string());
        out.metric("setup_s", 0.8127, "s", 3);
        assert_eq!(
            out.json(),
            "{\"correct\":false,\"attempted\":2,\"failed\":1,\
             \"metrics\":{\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
        assert_eq!(out.failures, vec!["broken".to_string()]);
        assert_eq!(out.ok_frac(), 0.5);
    }

    /// The `"name"` values of one top-level list in `BENCHMARK.json`.
    fn listed(benchmark: &str, list: &str) -> Vec<String> {
        let start = benchmark
            .find(&format!("\"{list}\""))
            .expect("list present");
        let end = benchmark[start..].find(']').expect("list closed") + start;
        benchmark[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name closed")].to_string())
            .collect()
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let benchmark = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        assert_eq!(listed(&benchmark, "end_to_end"), END_TO_END);
        assert_eq!(listed(&benchmark, "per_layer"), PER_LAYER);
    }

    #[test]
    fn a_missing_or_extra_metric_fails_the_name_check() {
        let mut out = Outcome::default();
        out.metric("setup_s", 1.0, "s", 1);
        out.check_names(&["setup_s", "p50_ms"]);
        assert_eq!(out.failed, 1);
        let mut out = Outcome::default();
        out.metric("setup_s", 1.0, "s", 1);
        out.check_names(&["setup_s"]);
        assert_eq!(out.failed, 0);
    }

    #[test]
    fn nothing_attempted_is_not_correct() {
        assert!(!Outcome::default().correct());
    }
}
