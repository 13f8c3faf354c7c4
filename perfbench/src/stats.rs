//! Summary statistics and the per-round arithmetic every workload shares.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartiles, by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method, which
/// extrapolates for very small samples), so the spreads printed here match
/// the ones the steadiness check computes.
///
/// # Panics
///
/// Panics with fewer than two values or on a NaN value.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two values");
    let v = sorted(xs);
    let len = v.len() as i64;
    let at = |i: i64| {
        // Integer arithmetic of CPython's implementation, with n = 4 cuts.
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The `p`-th percentile (nearest rank), or `None` when fewer than ten
/// samples lie beyond it: a tail read from fewer points is noise.
///
/// # Panics
///
/// Panics unless `0 < p < 100`, or on a NaN value.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of range");
    let v = sorted(xs);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    if rank == 0 || v.len() - rank < 10 {
        return None;
    }
    Some(v[rank - 1])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
    v
}

/// `total` spread over `rounds` rounds (0 when no round ran).
pub fn per_round(total: f64, rounds: u64) -> f64 {
    if rounds == 0 {
        0.0
    } else {
        total / rounds as f64
    }
}

/// What the named parts leave unexplained of `total` (may be negative when
/// the parts were measured apart and overlap).
pub fn residual(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Honest-server rounds a run failed to complete: each server that
/// reached `reached[i]` of `steps` rounds failed the rest. Sends dropped
/// to peers that had already shut down are not rounds and never count.
pub fn failed_rounds(reached: &[u64], steps: u64) -> u64 {
    reached.iter().map(|&r| steps.saturating_sub(r)).sum()
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
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]),
            (1.25, 5.75)
        );
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        // 99 samples: p90 is rank 90 with 9 beyond it — refused.
        assert_eq!(percentile(&xs, 90.0), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&[1.0; 5], 50.0), None);
    }

    #[test]
    fn per_round_and_residual_arithmetic() {
        assert_eq!(per_round(120.0, 40), 3.0);
        assert_eq!(per_round(5.0, 0), 0.0);
        assert_eq!(residual(10.0, &[2.0, 3.0, 1.5]), 3.5);
        assert_eq!(residual(1.0, &[0.75, 0.5]), -0.25);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }

    #[test]
    fn failed_rounds_count_rounds_not_sends() {
        assert_eq!(failed_rounds(&[40, 40, 40], 40), 0);
        assert_eq!(failed_rounds(&[40, 37, 0], 40), 43);
        // A server reporting past the horizon never goes negative.
        assert_eq!(failed_rounds(&[41], 40), 0);
    }
}
