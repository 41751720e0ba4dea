//! Exact quantiles over raw samples.
//!
//! Percentiles are taken by nearest rank from the sorted samples, never
//! from histogram buckets: a bucketed quantile reads as the bucket's bound,
//! so distinct quantiles can collapse onto one value. A percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it; below that
//! one slow sample would decide it.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first, by [`tail`].
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank percentile `p` of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it. The median (`p = 50`)
/// is exempt: it is reported for any non-empty sample.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let r = rank(sorted.len(), p);
    (p <= 50.0 || sorted.len() - r >= MIN_BEYOND).then(|| sorted[r - 1])
}

/// The median of unsorted samples (nearest rank), or `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples), 50.0)
}

/// Interquartile range divided by the median (nearest rank), the spread
/// measure `compare` judges against a bound. `None` for fewer than two
/// samples or a zero median.
#[must_use]
pub fn relative_iqr(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 {
        return None;
    }
    let s = sorted(samples);
    let at = |p: f64| s[rank(s.len(), p) - 1];
    let m = at(50.0);
    (m != 0.0).then(|| (at(75.0) - at(25.0)) / m.abs())
}

/// A copy of `samples` sorted ascending (NaN-free input assumed).
#[must_use]
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The highest tail percentile `samples` support, as `(percentile,
/// value)`; `None` when not even p90 has [`MIN_BEYOND`] samples beyond it.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(samples);
    TAIL_LADDER
        .iter()
        .find_map(|&p| percentile(&s, p).map(|v| (p, v)))
}

/// The metric-name suffix of a percentile: `90.0` → `p90`, `99.9` → `p99.9`.
#[must_use]
pub fn pct_name(p: f64) -> String {
    if p.fract() == 0.0 {
        format!("p{p:.0}")
    } else {
        format!("p{p}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let s = one_to(1000);
        assert_eq!(percentile(&s, 50.0), Some(500.0));
        assert_eq!(percentile(&s, 95.0), Some(950.0));
        assert_eq!(percentile(&s, 99.0), Some(990.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 has exactly 10 samples above it; of 999, only 9.
        assert_eq!(percentile(&one_to(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&one_to(999), 99.0), None);
        assert_eq!(percentile(&one_to(100), 90.0), Some(90.0));
        assert_eq!(percentile(&one_to(99), 90.0), None);
        // The median is always reported.
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        assert_eq!(tail(&one_to(2000)), Some((99.0, 1980.0)));
        assert_eq!(tail(&one_to(450)), Some((95.0, 428.0)));
        assert_eq!(tail(&one_to(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn distinct_samples_give_distinct_quantiles() {
        // The bucketed histogram once reported p50 = p95 = p99 for a run
        // whose samples all fell in one bucket; raw samples cannot.
        let samples: Vec<f64> = (0..2000).map(|i| 20_000.0 + f64::from(i) * 7.0).collect();
        let s = sorted(&samples);
        let (p50, p95, p99) = (
            percentile(&s, 50.0).unwrap(),
            percentile(&s, 95.0).unwrap(),
            percentile(&s, 99.0).unwrap(),
        );
        assert!(p50 < p95 && p95 < p99, "{p50} {p95} {p99}");
    }

    #[test]
    fn relative_iqr_and_names() {
        assert_eq!(relative_iqr(&[1.0]), None);
        assert_eq!(relative_iqr(&[1.0, 2.0, 3.0]), Some(1.0));
        let r = relative_iqr(&[10.0, 10.0, 11.0, 12.0, 9.0, 10.0, 10.0, 10.0]).unwrap();
        assert!((r - 0.0).abs() < 1e-12, "{r}");
        let r = relative_iqr(&one_to(8)).unwrap();
        assert!((r - (6.0 - 2.0) / 4.0).abs() < 1e-12, "{r}");
        assert_eq!(pct_name(99.0), "p99");
        assert_eq!(pct_name(99.9), "p99.9");
    }
}
