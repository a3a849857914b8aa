//! Order statistics for reported timings.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, so a tail figure is
//! never read off one or two outliers.

/// Percentiles a tail may be reported at, lowest first.
const TAIL_CANDIDATES: [f64; 5] = [90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest candidate percentile with at least [`MIN_BEYOND`] of `n`
/// samples beyond it, or `None` when even p90 is not supported.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// How many of `n` sorted samples lie strictly above the nearest-rank
/// `p`-th percentile.
fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
///
/// Computed in integer hundredths of a percent, so `p = 99.9` of 10 000
/// samples is rank 9990 exactly rather than whatever the float product
/// rounds to.
fn nearest_rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round().clamp(0.0, 10_000.0) as usize;
    (hundredths * n).div_ceil(10_000).clamp(1, n.max(1))
}

/// Nearest-rank `p`-th percentile of `values` (any order); `None` when
/// empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// Median of `values`: the mean of the two middle samples for an even
/// count. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// The tail of `values`: the [`tail_percentile`] when the sample supports
/// one, otherwise the worst sample. Returns the value and the percentile
/// it was read at (100 for the worst sample).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    match tail_percentile(values.len()) {
        Some(p) => percentile(values, p).map(|v| (v, p)),
        None => percentile(values, 100.0).map(|v| (v, 100.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 99 samples: p90 leaves 9 beyond, so nothing qualifies.
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        // 200 samples: p95 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn the_chosen_tail_really_has_ten_samples_beyond() {
        for n in [100usize, 150, 200, 457, 1000, 4321, 10_000] {
            let values: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let (v, p) = tail(&values).unwrap();
            let beyond = values.iter().filter(|&&x| x > v).count();
            assert!(beyond >= MIN_BEYOND, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn small_samples_report_the_worst_case() {
        assert_eq!(tail(&[3.0, 1.0, 2.0]), Some((3.0, 100.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), Some(50.0));
        assert_eq!(percentile(&values, 99.0), Some(99.0));
        assert_eq!(percentile(&values, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 1.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
