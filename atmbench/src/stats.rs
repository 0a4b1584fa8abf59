//! Order statistics over wall-time samples.

/// A tail percentile is reported only with at least this many samples
/// beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs`, interpolating linearly
/// between the closest ranks. `None` for an empty slice or `q` outside
/// `[0, 1]`.
#[must_use]
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Some(v[lo] + (h - lo as f64) * (v[hi] - v[lo]))
}

/// The median of `xs`.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 0.5)
}

/// The `pct`-th percentile, refused unless at least
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it (p90 needs 100 samples).
#[must_use]
pub fn tail_percentile(xs: &[f64], pct: u32) -> Option<f64> {
    if pct > 100 || xs.len() * (100 - pct as usize) < 100 * MIN_TAIL_SAMPLES {
        return None;
    }
    percentile(xs, f64::from(pct) / 100.0)
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(xs, n=4)` (its default, "exclusive" method)
/// computes them. `None` with fewer than two samples.
#[must_use]
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_of_known_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(percentile(&[10.0, 20.0], 0.25), Some(12.5));
        assert_eq!(median(&[]), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 0.9).unwrap() - 90.1).abs() < 1e-9);
    }

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail_percentile(&ninety_nine, 90), None);
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(tail_percentile(&hundred, 90).is_some());
        assert!(tail_percentile(&hundred, 99).is_none());
        assert!(tail_percentile(&hundred, 50).is_some());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }
}
