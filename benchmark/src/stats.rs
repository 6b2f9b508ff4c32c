//! Order statistics over repeated measurements.

/// Median of unsorted samples (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(q, value)`. `None` below twenty samples, where that percentile
/// would not lie above the median.
pub fn supported_tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 20 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - 10;
    Some((rank as f64 / n as f64, v[rank - 1]))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the default "exclusive" method); `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread: the distance between the quartiles as a share of
/// the median. 0 when there are too few samples or the median is 0.
pub fn spread(samples: &[f64]) -> f64 {
    let med = median(samples);
    match quartiles(samples) {
        Some((q1, q3)) if med != 0.0 => ((q3 - q1) / med).abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(supported_tail(&[1.0; 19]), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (q, value) = supported_tail(&v).unwrap();
        assert_eq!(q, 0.99);
        assert_eq!(value, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 50], n=4) == [10.0, 20.0, 50.0]
        assert_eq!(quartiles(&[50.0, 10.0, 20.0]), Some((10.0, 50.0)));
        assert_eq!(quartiles(&[7.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0; 10]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
