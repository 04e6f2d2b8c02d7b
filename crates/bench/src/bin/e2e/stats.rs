//! Order statistics for timing samples.

/// Median and the highest percentile the sample count supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    /// `(percentile, value)` of the highest percentile with at least
    /// [`BEYOND`] samples above it; `None` when that percentile would not
    /// lie above the median.
    pub hi: Option<(f64, f64)>,
    pub n: usize,
}

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// Summarises `samples`; `None` when empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    };
    // Index i has n-1-i samples beyond it; the highest index that keeps
    // BEYOND of them is n-1-BEYOND, which is the (i+1)/n quantile.
    let hi = n.checked_sub(BEYOND + 1).and_then(|i| {
        let pct = 100.0 * (i + 1) as f64 / n as f64;
        (pct > 50.0).then_some((pct, sorted[i]))
    });
    Some(Summary { median, hi, n })
}

/// Median of `samples`, or 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_percentile_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.5);
        let (pct, value) = s.hi.unwrap();
        assert_eq!(value, 990.0, "exactly ten samples (991..=1000) lie beyond");
        assert!((pct - 99.0).abs() < 1e-9);
    }

    #[test]
    fn too_few_samples_report_no_high_percentile() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(summarize(&ten).unwrap().hi, None);
        // 20 samples: ten beyond index 9, but that is the 50th percentile.
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(summarize(&twenty).unwrap().hi, None);
        let twenty_one: Vec<f64> = (0..21).map(f64::from).collect();
        let (pct, value) = summarize(&twenty_one).unwrap().hi.unwrap();
        assert_eq!(value, 10.0);
        assert!(pct > 50.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
