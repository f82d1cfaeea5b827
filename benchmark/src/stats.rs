//! Order statistics over small samples: the median that aggregates
//! episodes and quiet sets, the percentile that summarises latency
//! samples, and the quartile spread the noise checks are stated in.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: every caller aggregates at least
/// one measured, finite number.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `share` of `items` with the highest `key`, at least `at_least` of
/// them (all of them when there are fewer), best first.
pub fn top_share<T: Copy>(
    items: &[T],
    share: f64,
    at_least: usize,
    key: impl Fn(&T) -> f64,
) -> Vec<T> {
    let mut v = items.to_vec();
    v.sort_by(|a, b| key(b).partial_cmp(&key(a)).expect("NaN key"));
    let n = ((v.len() as f64 * share).ceil() as usize).max(at_least);
    v.truncate(n);
    v
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) so the figure matches what the driver computes.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let quartile = |k: usize| {
        // Exclusive method: position k(n+1)/4 on a 1-based axis.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quartile(3) - quartile(1)) / median(&v)
}

/// Coefficient of variation (population standard deviation ÷ mean).
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// By how much `candidate` is worse than `base`, as a share of `base`
/// (negative when it is better). `higher_is_better` flips the direction.
pub fn worsening(base: f64, candidate: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (base - candidate) / base
    } else {
        (candidate - base) / base
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn median_ignores_one_outlying_episode() {
        // Five episodes, one hit by a noisy neighbour.
        assert_eq!(median(&[1.00, 1.02, 0.40, 0.99, 1.01]), 1.00);
    }

    #[test]
    fn top_share_keeps_the_best_and_at_least_the_floor() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            top_share(&v, 0.05, 1, |x| *x),
            [100.0, 99.0, 98.0, 97.0, 96.0]
        );
        assert_eq!(top_share(&v, 0.01, 3, |x| *x), [100.0, 99.0, 98.0]);
        assert_eq!(top_share(&[2.0, 7.0], 0.5, 8, |x| *x), [7.0, 2.0]);
        // Ranked by the key, whatever else the items carry.
        let pairs = [(1.0, 'a'), (3.0, 'b'), (2.0, 'c')];
        assert_eq!(top_share(&pairs, 0.5, 1, |p| p.0), [(3.0, 'b'), (2.0, 'c')]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let w = [16.0, 1.0, 4.0, 2.0, 8.0];
        assert!((quartile_spread(&w) - (12.0 - 1.5) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn cv_of_constant_series_is_zero() {
        assert_eq!(coefficient_of_variation(&[2.0, 2.0, 2.0]), 0.0);
        assert!((coefficient_of_variation(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
    }
}
