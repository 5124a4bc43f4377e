//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks (the "R-7" rule, as numpy's default), or
/// `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`, `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// `num / den`, or `0.0` when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), Some(1.75));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p99_of_a_hundred_samples_sits_near_the_top() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p99 = quantile(&v, 0.99).expect("non-empty");
        assert!((p99 - 99.01).abs() < 1e-9, "{p99}");
    }

    #[test]
    fn ratio_guards_empty_denominators() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
