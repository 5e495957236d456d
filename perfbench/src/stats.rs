//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly
/// between the two closest ranks (the "R-7" definition, as in NumPy's
/// default). Sorts `samples` in place. Returns `NaN` for an empty slice.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    samples[low] + (samples[high] - samples[low]) * (rank - low as f64)
}

/// The median of `samples` (sorts in place).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Nanoseconds as `u32`, saturating: latency samples are kept compactly.
pub fn saturating_ns(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// Percentiles of compact nanosecond samples, in microseconds.
pub fn percentile_us(samples: &[u32], q: f64) -> f64 {
    let mut values: Vec<f64> = samples.iter().map(|&ns| f64::from(ns) / 1000.0).collect();
    percentile(&mut values, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let mut values = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut values), 2.5);
        assert_eq!(percentile(&mut values, 0.0), 1.0);
        assert_eq!(percentile(&mut values, 1.0), 4.0);
        let mut ten: Vec<f64> = (1..=10).map(f64::from).collect();
        // Rank 0.9 × 9 = 8.1: between the 9th and 10th value.
        assert!((percentile(&mut ten, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn percentile_of_nothing_is_nan() {
        assert!(percentile(&mut [], 0.5).is_nan());
    }

    #[test]
    fn percentile_selection_ignores_input_order() {
        let mut sorted: Vec<f64> = (0..101).map(f64::from).collect();
        let mut reversed: Vec<f64> = sorted.iter().rev().copied().collect();
        assert_eq!(percentile(&mut sorted, 0.9), 90.0);
        assert_eq!(percentile(&mut reversed, 0.9), 90.0);
        assert_eq!(percentile_us(&[1_000, 3_000, 2_000], 0.5), 2.0);
    }
}
