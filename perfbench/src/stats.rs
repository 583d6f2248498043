//! Order statistics over measured samples.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `values` by linear
/// interpolation between the closest ranks (the same rule as
/// `numpy.percentile`'s default). `None` for an empty slice. Infinite
/// values are allowed: a failed request counts as infinitely late, which
/// is why this is not `ultravc_stats::summary::QuantileSketch` (its
/// interpolation turns `∞ × 0` into NaN).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    if sorted[lo] == sorted[hi] {
        return Some(sorted[lo]);
    }
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `values`; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Mean of `values`; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        // rank 0.9 × 3 = 2.7 → 3 + 0.7 × (4 − 3)
        let p90 = percentile(&v, 90.0).expect("test input is valid");
        assert!((p90 - 3.7).abs() < 1e-12, "{p90}");
    }

    #[test]
    fn percentile_of_one_sample_is_that_sample() {
        for p in [0.0, 37.0, 50.0, 90.0, 100.0] {
            assert_eq!(percentile(&[7.5], p), Some(7.5));
        }
    }

    #[test]
    fn empty_input_has_no_order_statistics() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn failures_count_as_infinitely_late() {
        let inf = f64::INFINITY;
        let v = [1.0, 2.0, inf, inf];
        assert_eq!(percentile(&v, 100.0), Some(inf));
        assert_eq!(percentile(&v, 90.0), Some(inf));
        // Between a finite rank and an infinite one.
        assert_eq!(percentile(&v, 50.0), Some(inf));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
    }

    #[test]
    fn out_of_range_percentiles_clamp() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, -5.0), Some(1.0));
        assert_eq!(percentile(&v, 250.0), Some(3.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[10.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
