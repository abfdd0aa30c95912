//! Order statistics over timing samples.

/// The `q`-th quantile (`0.0..=1.0`) of `xs` by linear interpolation
/// between closest ranks (the "R-7" rule numpy uses by default); `None`
/// for an empty slice. Non-finite samples sort last.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(v[lo] + (v[hi] - v[lo]) * frac)
}

/// The median of `xs`; `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_percentile() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            assert_eq!(percentile(&[7.5], q), Some(7.5));
        }
    }

    #[test]
    fn interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0]; // unsorted on purpose
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        // pos = 0.9 * 3 = 2.7 → 3 + 0.7 * (4 - 3)
        let p90 = percentile(&xs, 0.9).unwrap();
        assert!((p90 - 3.7).abs() < 1e-12, "{p90}");
    }

    #[test]
    fn odd_count_median_is_middle_sample() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
    }

    #[test]
    fn quantile_is_clamped() {
        let xs = [1.0, 2.0];
        assert_eq!(percentile(&xs, -1.0), Some(1.0));
        assert_eq!(percentile(&xs, 2.0), Some(2.0));
    }

    #[test]
    fn p90_of_one_to_hundred() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&xs, 0.9).unwrap();
        assert!((p90 - 90.1).abs() < 1e-9, "{p90}");
    }
}
