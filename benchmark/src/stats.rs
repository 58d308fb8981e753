//! Order statistics for reporting timings.

/// Sorts a copy of `values` ascending (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `values`: the
/// smallest sample with at least `p`% of the samples at or below it.
/// `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let rank = nearest_rank(v.len(), p)?;
    Some(v[rank - 1])
}

fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    Some(((p / 100.0 * n as f64).ceil() as usize).clamp(1, n))
}

/// Whether the nearest-rank `p`-th percentile of `n` samples has at least
/// ten samples beyond it — the rule for reporting a tail percentile at all.
pub fn reportable(n: usize, p: f64) -> bool {
    nearest_rank(n, p).is_some_and(|rank| n - rank >= 10)
}

/// The median as the nearest-rank 50th percentile. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// First and third quartiles by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so spreads read here match
/// the ones Python computes from the same records. `None` below two
/// samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread a bound is compared against. `None` below two samples or with
/// a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = python_median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// The interpolating median Python's `statistics.median` returns.
pub fn python_median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean. `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
    }

    #[test]
    fn ten_beyond_rule() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert!(reportable(1000, 99.0));
        assert!(!reportable(999, 99.0));
        assert!(!reportable(20, 99.0));
        // With 20 samples the median has ten beyond, p55 does not.
        assert!(reportable(20, 50.0));
        assert!(!reportable(20, 55.0));
        assert!(!reportable(0, 50.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] after
        // clamping j to 1.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(python_median(&[1.0, 2.0, 4.0, 3.0]), Some(2.5));
    }
}
