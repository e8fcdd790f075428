//! Order statistics used for every reported number.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the acceptance check
//! computes over a set of runs; `compare` must agree with it.

/// Median of `values` (mean of the two middle elements for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between closest
/// ranks over the sorted sample — used for in-run percentiles (p50/p99).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

/// Largest value, `NaN` for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

/// Arithmetic mean, `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`:
/// position `i·(n+1)/4` (1-based) clamped into the sample, linear
/// interpolation between neighbours. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let s = sorted(values);
    let n = s.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Inter-quartile range as a share of the median: the spread the
/// acceptance check bounds. `0` when fewer than two values.
pub fn iqr_ratio(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q2, q3)) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// Coefficient of variation (sample standard deviation ÷ mean).
pub fn cv(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64;
    if m == 0.0 {
        0.0
    } else {
        var.sqrt() / m.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    if s.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert_eq!(quantile(&v, 0.25), 20.0);
        assert!((quantile(&v, 0.9) - 46.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q2, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert_eq!((q1, q2, q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]).unwrap(), (4.5, 6.0, 7.5));
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn spread_helpers() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_ratio(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_ratio(&[7.0]), 0.0);
        assert_eq!(cv(&[2.0, 2.0, 2.0]), 0.0);
        assert!((cv(&[1.0, 3.0]) - (2.0f64.sqrt() / 2.0)).abs() < 1e-12);
        assert_eq!(max(&[1.0, 9.0, 3.0]), 9.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
