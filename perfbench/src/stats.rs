//! Order statistics with an honest sample-count rule.
//!
//! A percentile above the median is only reported when at least
//! [`MIN_TAIL`] samples lie beyond it; below that it is a statement about
//! one or two samples, not about the distribution. Medians always carry
//! their sample count.

use std::fmt;

/// Fewest samples that must lie beyond a reported upper percentile.
pub const MIN_TAIL: usize = 10;

/// A median together with the number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Median {
    /// The median (mean of the two middle samples for an even count).
    pub value: f64,
    /// Samples it summarises.
    pub n: usize,
}

/// The median of `xs`, or `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<Median> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let value = match n {
        0 => return None,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    };
    Some(Median { value, n })
}

/// The smallest of `xs`, or `None` when `xs` is empty.
///
/// Timings of one deterministic unit of work differ only by what the host
/// adds, so the fastest repetition is the reading least disturbed by it.
pub fn fastest(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().min_by(f64::total_cmp)
}

/// Why an upper percentile was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples available.
    pub n: usize,
    /// Samples that would lie beyond the percentile.
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refused: {} samples, {} beyond, needs {MIN_TAIL}",
            self.n, self.beyond
        )
    }
}

/// The nearest-rank `q`-quantile of `xs` for `0.5 < q < 1`, refused when
/// fewer than [`MIN_TAIL`] samples lie beyond it.
///
/// # Errors
///
/// [`TooFewSamples`] when the tail beyond the percentile is too thin.
pub fn upper_percentile(xs: &[f64], q: f64) -> Result<f64, TooFewSamples> {
    assert!(q > 0.5 && q < 1.0, "upper percentiles only");
    let n = xs.len();
    // Nearest rank: the smallest sample with at least q·n samples at or
    // below it.
    let rank = (q * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < MIN_TAIL {
        return Err(TooFewSamples { n, beyond });
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

/// Geometric mean of positive values (`None` when empty or any value is
/// not a positive finite number).
pub fn geometric_mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| !(x.is_finite() && *x > 0.0)) {
        return None;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    Some((log_sum / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_counts_its_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(Median { value: 3.0, n: 1 }));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap().value, 2.5);
        assert_eq!(
            median(&[5.0, 1.0, 9.0]).unwrap(),
            Median { value: 5.0, n: 3 }
        );
    }

    #[test]
    fn fastest_is_the_smallest_sample() {
        assert_eq!(fastest(&[]), None);
        assert_eq!(fastest(&[2.5, 0.5, 1.5]), Some(0.5));
    }

    #[test]
    fn upper_percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 samples has 9 beyond it: refused.
        assert_eq!(
            upper_percentile(&xs, 0.9),
            Err(TooFewSamples { n: 99, beyond: 9 })
        );
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(upper_percentile(&xs, 0.9), Ok(90.0));
        // PR-12-style single-sample "percentiles" cannot come back.
        assert!(upper_percentile(&[1.0], 0.9).is_err());
        assert!(upper_percentile(&xs, 0.99).is_err());
    }

    #[test]
    fn geometric_mean_rejects_non_positive_values() {
        assert!((geometric_mean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_mean(&[1.0, 0.0]), None);
    }
}
