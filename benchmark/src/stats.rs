//! Order statistics for timing samples.

/// Samples that must lie strictly beyond a percentile before it is reported.
const MIN_TAIL: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); `None` for
/// no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile, reported only when at least
/// [`MIN_TAIL`] samples lie beyond it — a tail estimate resting on fewer
/// samples is noise, so it is withheld rather than printed.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    (n - 1 - idx >= MIN_TAIL).then(|| v[idx])
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones an external checker computes.
/// `None` for fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
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

/// Interquartile range as a share of the median.
pub fn relative_spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let med = median(samples)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 100 samples: p90 is the 90th value with exactly 10 above it.
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        // 99 samples leave only 9 beyond the p90 rank: withheld.
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&ramp(4)), Some((1.25, 3.75)));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), Some((0.0, 6.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let s = relative_spread(&ramp(10)).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0]), None);
    }
}
