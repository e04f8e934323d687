//! Order statistics used by every reported number: nearest-rank
//! percentiles, median, MAD, and the quartiles the noise procedure
//! compares against a metric's bound.

/// Sorts a sample in place (total order, NaN last).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `pct` percent of the sample at or below it. Empty sample → NaN.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `pct` percentile of an
/// `n`-sample. A tail percentile is only reported with at least ten.
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Median (mean of the two middle values for even sizes). Sorts its input.
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Median absolute deviation around `center`.
pub fn mad(values: &[f64], center: f64) -> f64 {
    let mut dev: Vec<f64> = values.iter().map(|v| (v - center).abs()).collect();
    median(&mut dev)
}

/// The three quartile cut points, exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them — the
/// method the acceptance procedure uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    sort(&mut data);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the "spread" of the
/// noise procedure. Fewer than two values have no spread (0).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn beyond_counts_the_tail() {
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(1200, 99.0), 12);
        assert_eq!(beyond(4000, 99.0), 40);
        assert_eq!(beyond(10, 50.0), 5);
    }

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
        // deviations from 3: 2 1 0 1 6 -> median 1
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 9.0], 3.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 40.0, 20.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), 5.5 / 5.5);
        assert_eq!(spread(&[3.0]), 0.0);
    }
}
