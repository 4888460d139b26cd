//! Order statistics over in-run samples.

/// The `q`-quantile (nearest rank) of `xs`; sorts in place. NaN when
/// empty, so a metric with no samples fails the run's not-measured
/// check instead of reading 0.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// The median of `xs` (mean of the middle pair for even lengths); NaN
/// when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        let mut xs = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&mut xs), 3.0);
        assert_eq!(median(&mut [1.0, 2.0]), 1.5);
        let mut ys: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut ys, 0.99), 99.0);
    }

    #[test]
    fn empty_samples_are_not_a_measurement() {
        assert!(median(&mut []).is_nan());
        assert!(quantile(&mut [], 0.5).is_nan());
    }
}
