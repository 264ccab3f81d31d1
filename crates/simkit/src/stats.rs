//! Summary statistics over experiment samples.
//!
//! The benchmark harness reports latency/throughput distributions; this
//! module provides the few estimators it needs without pulling in a stats
//! dependency.

/// Summary of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// Population standard deviation (0.0 when empty).
    pub std_dev: f64,
    /// Minimum (0.0 when empty).
    pub min: f64,
    /// Maximum (0.0 when empty).
    pub max: f64,
    /// Median (interpolated).
    pub p50: f64,
    /// 95th percentile (interpolated).
    pub p95: f64,
    /// 99th percentile (interpolated).
    pub p99: f64,
}

/// Compute a [`Summary`] of `samples` (order irrelevant).
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary {
            count: 0,
            mean: 0.0,
            std_dev: 0.0,
            min: 0.0,
            max: 0.0,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
        };
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = sorted.len();
    let mean = sorted.iter().sum::<f64>() / n as f64;
    let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    Summary {
        count: n,
        mean,
        std_dev: var.sqrt(),
        min: sorted[0],
        max: sorted[n - 1],
        p50: percentile_sorted(&sorted, 0.50),
        p95: percentile_sorted(&sorted, 0.95),
        p99: percentile_sorted(&sorted, 0.99),
    }
}

/// Interpolated percentile of an ascending-sorted slice; `q` in `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroed() {
        let s = summarize(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn single_sample() {
        let s = summarize(&[7.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.p50, 7.0);
        assert_eq!(s.p99, 7.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn known_distribution() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = summarize(&xs);
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p95 - 95.05).abs() < 1e-9);
    }

    #[test]
    fn unsorted_input_ok() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.p50, 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(percentile_sorted(&v, 0.5), 5.0);
        assert_eq!(percentile_sorted(&v, 0.0), 0.0);
        assert_eq!(percentile_sorted(&v, 1.0), 10.0);
    }
}
