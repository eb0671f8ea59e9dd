//! Order statistics for the reported metrics.

/// A timing distribution summarised the way the benchmark reports it:
/// median, 99th percentile and the number of samples behind both.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p99: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `samples` (any order). An empty sample gives NaN values
    /// with `n == 0`, so a missing measurement cannot pass for a zero.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            median: percentile(&sorted, 50.0),
            p99: percentile(&sorted, 99.0),
            n: sorted.len(),
        }
    }
}

/// The `p`-th percentile (0..=100) of an ascending sample, linearly
/// interpolated between the two nearest ranks. NaN for an empty sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Mean of a sample; NaN when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        // rank 0.99 * 3 = 2.97 → 3 + 0.97
        assert!((percentile(&s, 99.0) - 3.97).abs() < 1e-12);
    }

    #[test]
    fn summary_counts_samples_and_ignores_order() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.median, s.n), (3.0, 3));
        // rank 0.99 * 2 = 1.98 → 3 + 0.98 * 2
        assert!((s.p99 - 4.96).abs() < 1e-12);
    }

    #[test]
    fn p99_of_a_large_sample_sits_in_the_tail() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 1000);
        assert!((s.median - 500.5).abs() < 1e-9);
        // rank 0.99 * 999 = 989.01 → between 990 and 991.
        assert!((s.p99 - 990.01).abs() < 1e-9);
    }

    #[test]
    fn empty_and_single_samples() {
        let e = Summary::of(&[]);
        assert_eq!(e.n, 0);
        assert!(e.median.is_nan() && e.p99.is_nan());
        let one = Summary::of(&[7.0]);
        assert_eq!((one.median, one.p99, one.n), (7.0, 7.0, 1));
        assert!(mean(&[]).is_nan());
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
