//! Evaluation harness for the PageRank Pipeline Benchmark.
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | Artifact | Binary | Library pieces |
//! |---|---|---|
//! | Table I (source lines of code) | `table1` | [`sloc`] |
//! | Table II (run sizes) | `table2` | `ppbench_core::table` |
//! | Figures 4–7 (kernel throughput vs. edges, per variant) | `figures` | [`sweep`], [`plot`] |
//!
//! plus Criterion microbenches (`cargo bench`) for each kernel and the
//! ablations DESIGN.md calls out (sort algorithm, SpMV form, generator,
//! file count), the kernel-3 variant sweep (`k3bench` / [`k3`]) that
//! produces `BENCH_k3.json`, the K0→K1 front-end sweep (`k01bench` /
//! [`k01`]) that produces `BENCH_k01.json`, the analytics-workload
//! sweep (`algobench` / [`algo`]) that produces `BENCH_algo.json`, the
//! staged-vs-fused end-to-end pipeline sweep (`pipebench` / [`pipe`])
//! that produces `BENCH_pipeline.json`, and the serving-layer
//! latency/saturation sweep (`servebench` / [`serve`]) that produces
//! `BENCH_serve.json`. Those five sweeps share one output layer
//! ([`table`]: renderer, checker and text table) and one command-line
//! driver ([`cli`]); their binaries hold only a flag table.

#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod algo;
pub mod cli;
pub mod k01;
pub mod k3;
pub mod pipe;
pub mod plot;
pub mod serve;
pub mod sloc;
pub mod sweep;
pub mod table;

/// Parses a `lo:hi` (inclusive) scale-range CLI argument.
pub fn parse_scale_range(s: &str) -> Option<std::ops::RangeInclusive<u32>> {
    let (lo, hi) = s.split_once(':')?;
    let lo: u32 = lo.parse().ok()?;
    let hi: u32 = hi.parse().ok()?;
    if lo > hi || hi > 40 {
        return None;
    }
    Some(lo..=hi)
}

/// Parses a scale-list CLI argument: comma-separated entries, each either
/// a single scale (`22`) or an inclusive `lo:hi` range (`16:20`), e.g.
/// `16:18,22,24`. Sparse lists let a sweep mix a dense comparison band
/// with isolated stress points.
pub fn parse_scale_list(s: &str) -> Option<Vec<u32>> {
    let parts = parse_list(s, |part| match part.split_once(':') {
        Some(_) => Some(parse_scale_range(part)?.collect()),
        None => part.parse().ok().filter(|&v| v <= 40).map(|v| vec![v]),
    })?;
    Some(parts.concat())
}

/// Parses a comma-separated list, requiring every entry to parse with
/// `item` (surrounding whitespace ignored) and the list to be non-empty.
pub fn parse_list<T>(s: &str, item: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
    let out: Vec<T> = s
        .split(',')
        .map(|part| item(part.trim()))
        .collect::<Option<_>>()?;
    (!out.is_empty()).then_some(out)
}

/// Parses a positive integer (`0` and non-numbers are rejected).
pub fn parse_positive<T: std::str::FromStr + PartialOrd + From<u8>>(s: &str) -> Option<T> {
    s.trim().parse().ok().filter(|n| *n >= T::from(1))
}

/// Parses a comma-separated list of positive counts (`"1,2,4,8"`): thread
/// counts, burst sizes.
pub fn parse_thread_list(s: &str) -> Option<Vec<usize>> {
    parse_list(s, parse_positive)
}

/// Parses a comma-separated list of positive, finite rates, e.g.
/// `500,1000,2500.5`.
pub fn parse_rate_list(s: &str) -> Option<Vec<f64>> {
    parse_list(s, |part| {
        part.parse()
            .ok()
            .filter(|r: &f64| r.is_finite() && *r > 0.0)
    })
}

/// The default `--threads` sweep: every power of two below `cores`, then
/// `cores` itself, so a sweep never oversubscribes the host it runs on.
fn thread_list_up_to(cores: usize) -> Vec<usize> {
    let cores = cores.max(1);
    let mut out: Vec<usize> = std::iter::successors(Some(1usize), |n| n.checked_mul(2))
        .take_while(|&n| n < cores)
        .collect();
    out.push(cores);
    out
}

/// [`thread_list_up_to`] the cores this host offers.
pub(crate) fn host_threads() -> Vec<usize> {
    #[expect(
        clippy::disallowed_methods,
        reason = "only the default --threads list reads the host; every row records the thread count it ran at, and explicit lists are honoured"
    )]
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    thread_list_up_to(cores)
}

/// Sizes the global thread pool, surfacing the error as a string (the
/// shim never fails; real rayon could). `0` unpins it.
pub(crate) fn size_pool(threads: usize) -> Result<(), String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .map_err(|e| format!("failed to size thread pool to {threads}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_range_parses() {
        assert_eq!(parse_scale_range("16:22"), Some(16..=22));
        assert_eq!(parse_scale_range("5:5"), Some(5..=5));
        assert_eq!(parse_scale_range("9:4"), None);
        assert_eq!(parse_scale_range("junk"), None);
        assert_eq!(parse_scale_range("1:99"), None);
    }

    #[test]
    fn scale_list_parses_singles_ranges_and_mixes() {
        assert_eq!(parse_scale_list("22"), Some(vec![22]));
        assert_eq!(parse_scale_list("16:18"), Some(vec![16, 17, 18]));
        assert_eq!(
            parse_scale_list("16:18,22,24"),
            Some(vec![16, 17, 18, 22, 24])
        );
        assert_eq!(parse_scale_list("junk"), None);
        assert_eq!(parse_scale_list("5,99"), None);
        assert_eq!(parse_scale_list("9:4"), None);
        assert_eq!(parse_scale_list("1:99"), None);
        assert_eq!(parse_scale_list(""), None);
    }

    #[test]
    fn thread_list_parses() {
        assert_eq!(parse_thread_list("1,2,4,8"), Some(vec![1, 2, 4, 8]));
        assert_eq!(parse_thread_list("4"), Some(vec![4]));
        assert_eq!(parse_thread_list(" 2 , 3"), Some(vec![2, 3]));
        assert_eq!(parse_thread_list("0"), None);
        assert_eq!(parse_thread_list("1,0"), None);
        assert_eq!(parse_thread_list(""), None);
        assert_eq!(parse_thread_list("two"), None);
        assert_eq!(parse_thread_list("-1"), None);
    }

    #[test]
    fn rate_list_parses_strictly() {
        assert_eq!(parse_rate_list("500"), Some(vec![500.0]));
        assert_eq!(
            parse_rate_list("500,1000,2500.5"),
            Some(vec![500.0, 1000.0, 2500.5])
        );
        assert_eq!(parse_rate_list("0"), None);
        assert_eq!(parse_rate_list("-5"), None);
        assert_eq!(parse_rate_list("inf"), None);
        assert_eq!(parse_rate_list("junk"), None);
        assert_eq!(parse_rate_list(""), None);
    }

    #[test]
    fn default_threads_are_powers_of_two_capped_at_the_host() {
        assert_eq!(thread_list_up_to(1), vec![1]);
        assert_eq!(thread_list_up_to(2), vec![1, 2]);
        assert_eq!(thread_list_up_to(6), vec![1, 2, 4, 6]);
        assert_eq!(thread_list_up_to(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_list_up_to(0), vec![1]);
        let host = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(host_threads(), thread_list_up_to(host));
    }
}
