//! The benchmark's own statistics: order statistics over per-op samples,
//! the geometric mean of simulated throughputs, the layer remainder, and
//! the metric-name grammar.

/// Samples sorted ascending (NaNs are rejected by the caller's checks;
/// `total_cmp` keeps the order total regardless).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; the mean of the two middle samples for an even count.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) — a sample value, never an
/// interpolation — provided at least `min_beyond` samples lie strictly
/// above its rank. `None` when the run is too short to support `q`.
pub fn tail_percentile(xs: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n); // 1-based
    (n - rank >= min_beyond).then(|| v[rank - 1])
}

/// The nearest-rank `q`-quantile (`0 <= q < 1`) from below: `q = 0` is
/// the minimum. Unlike [`tail_percentile`] it needs no samples beyond it.
pub fn low_percentile(xs: &[f64], q: f64) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).max(1); // 1-based
    Some(v[rank - 1])
}

/// Quartiles `(q1, q2, q3)` by the "exclusive" method — the same cut
/// points as Python's `statistics.quantiles(xs, n=4)`. Needs two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Geometric mean of strictly positive values; `None` for an empty input
/// or any value that is not a positive finite number.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| !(x.is_finite() && x > 0.0)) {
        return None;
    }
    let mean_ln = xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64;
    Some(mean_ln.exp())
}

/// The part of an op's end-to-end time no layer span covers. Spans timed
/// separately can add up to slightly more than the op under noise; the
/// remainder is clamped at zero instead of going negative.
pub fn other_ms(total_ms: f64, layer_ms: &[f64]) -> f64 {
    (total_ms - layer_ms.iter().sum::<f64>()).max(0.0)
}

/// Metric names: 1 to 64 characters of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n so the functions must sort.
        (0..n).map(|i| ((i * 37) % n + 1) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples: rank 90 leaves exactly 10 above.
        assert_eq!(tail_percentile(&ramp(100), 0.90, 10), Some(90.0));
        // 99 samples: rank 90 leaves only 9 above.
        assert_eq!(tail_percentile(&ramp(99), 0.90, 10), None);
        // A longer run keeps the nearest rank.
        assert_eq!(tail_percentile(&ramp(1000), 0.90, 10), Some(900.0));
        assert_eq!(tail_percentile(&[], 0.5, 0), None);
        assert_eq!(tail_percentile(&[1.0], 0.0, 0), None);
    }

    #[test]
    fn low_percentile_takes_the_nearest_rank_from_below() {
        assert_eq!(low_percentile(&ramp(100), 0.0), Some(1.0));
        assert_eq!(low_percentile(&ramp(100), 0.10), Some(10.0));
        assert_eq!(low_percentile(&ramp(15), 0.10), Some(2.0));
        assert_eq!(low_percentile(&[7.0], 0.10), Some(7.0));
        assert_eq!(low_percentile(&[], 0.10), None);
        assert_eq!(low_percentile(&[1.0], 1.0), None);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of short samples.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let share = iqr_share(&ramp(10)).unwrap();
        assert!((share - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn geometric_mean() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]).unwrap() - 5.0).abs() < 1e-12);
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
    }

    #[test]
    fn other_is_the_non_negative_remainder() {
        assert!((other_ms(10.0, &[3.0, 4.0]) - 3.0).abs() < 1e-12);
        assert_eq!(other_ms(10.0, &[]), 10.0);
        assert_eq!(other_ms(10.0, &[6.0, 5.0]), 0.0);
        assert_eq!(other_ms(0.0, &[0.0]), 0.0);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "op_ms_p90",
            "exec.warmup.ms",
            "sim.exposed.data_io",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "slash/x",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }
}
