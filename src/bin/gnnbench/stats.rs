//! Order statistics over timing samples.

/// `values` sorted ascending (samples are finite; NaN would be a bug
/// upstream and sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of ascending `sorted`, linearly
/// interpolated between the two closest ranks; `p = 0.5` is the usual
/// median (mean of the middle pair for an even count). `NaN` for an
/// empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return f64::NAN;
    };
    let h = p.clamp(0.0, 1.0) * last as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
}

/// Median of unsorted `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());

        let v = sorted(&[50.0, 10.0, 40.0, 20.0, 30.0]);
        assert_eq!(v, [10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&v, 0.75), 40.0);
        // Between ranks: 0.9 · 4 = 3.6 → 40 + 0.6 · 10.
        assert!((percentile(&v, 0.9) - 46.0).abs() < 1e-12);
        // Out-of-range quantiles clamp instead of indexing out of bounds.
        assert_eq!(percentile(&v, 1.5), 50.0);
        assert_eq!(percentile(&v, -0.5), 10.0);
    }
}
