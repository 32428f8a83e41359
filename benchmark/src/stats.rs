//! The harness's own arithmetic: medians, quartiles and percentiles.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is how the spread of a metric
//! across runs is judged: `(q3 - q1) / median` against the metric's bound.

/// Summary of one metric's samples (reps of a run, or runs of a set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// `None` for an empty sample. With a single sample the quartiles
    /// collapse onto it (no spread can be claimed from one value).
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, q3) = if v.len() >= 2 {
            (quantile_exclusive(&v, 1, 4), quantile_exclusive(&v, 3, 4))
        } else {
            (v[0], v[0])
        };
        Some(Summary { n: v.len(), median: quantile_exclusive(&v, 1, 2), q1, q3 })
    }

    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Cut point `i` of `n` over sorted `v`, exclusive method: position
/// `i·(len+1)/n` (1-based) with linear interpolation, clamped to the ends.
fn quantile_exclusive(v: &[f64], i: usize, n: usize) -> f64 {
    let m = v.len();
    if m == 1 {
        return v[0];
    }
    let j = (i * (m + 1) / n).clamp(1, m - 1);
    let delta = (i * (m + 1)) as f64 - (j * n) as f64;
    (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(f64::NAN, |s| s.median)
}

/// Nearest-rank percentile `p` in (0, 1] over unsorted samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A percentile is reportable only with at least ten samples beyond it:
/// p95 needs 200 samples, p99 needs 1000.
pub fn has_ten_beyond(n: usize, p: f64) -> bool {
    (n as f64 * (1.0 - p)).floor() >= 10.0
}

/// [`percentile`] when the ten-samples-beyond rule allows it.
pub fn percentile_if_supported(values: &[f64], p: f64) -> Option<f64> {
    has_ten_beyond(values.len(), p).then(|| percentile(values, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[20.0, 10.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert!((s.rel_iqr() - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_no_spread_and_empty_has_no_summary() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3, s.rel_iqr()), (1, 7.0, 7.0, 7.0, 0.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(!has_ten_beyond(199, 0.95));
        assert!(has_ten_beyond(200, 0.95));
        assert!(!has_ten_beyond(999, 0.99));
        assert!(has_ten_beyond(1000, 0.99));
        assert!(has_ten_beyond(20, 0.5));
        assert!(!has_ten_beyond(5, 0.5));
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(percentile_if_supported(&v, 0.95), None);
        assert_eq!(percentile_if_supported(&v, 0.90), Some(135.0));
    }
}
