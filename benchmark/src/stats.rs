//! Order statistics for latency samples and repeated measurements.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Latency samples a run collects at least, so that p95 has
/// [`TAIL_SAMPLES`] beyond it.
pub const MIN_SAMPLES: usize = 200;

/// Percentiles the tail rule chooses from, highest first.
const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Nearest-rank percentile `p` (0–100] of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples, in exact
/// integer arithmetic on tenths of a percent (`99.9 / 100 * 10_000`
/// is not 9990 in floating point).
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// The highest percentile of the ladder with at least
/// [`TAIL_SAMPLES`] samples beyond it, or `None` when even the median
/// lacks them.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&p| n >= 1 && n - rank(n, p) >= TAIL_SAMPLES)
}

/// Median of unsorted values (mean of the middle two for even counts);
/// 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_reports_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        // 200 samples: p99 has 2 beyond, p95 exactly 10.
        assert_eq!(tail_percentile(MIN_SAMPLES), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn nearest_rank_and_median() {
        let sorted: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 95.0), 190.0);
        assert_eq!(percentile(&sorted, 50.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
