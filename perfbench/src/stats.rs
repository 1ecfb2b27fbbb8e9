//! Order statistics over a run's samples.

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for no samples).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest of p50/p90/p95/p99/p99.9 that leaves at least ten samples
/// above it, with its value; `None` when fewer than 20 samples exist.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|p| xs.len() as f64 * (1.0 - p / 100.0) >= 10.0)
        .map(|p| (p, quantile(xs, p / 100.0)))
}

/// One summary line: median, quartiles, tail percentile and sample count.
pub fn describe(name: &str, unit: &str, xs: &[f64]) -> String {
    let tail = match tail(xs) {
        Some((p, v)) => format!("p{p}={v:.6}"),
        None => "tail=n/a (<20 samples)".to_string(),
    };
    format!(
        "{name:<26} median={:.6} q1={:.6} q3={:.6} {tail} n={} [{unit}]",
        median(xs),
        quantile(xs, 0.25),
        quantile(xs, 0.75),
        xs.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(99.0));
        assert_eq!(tail(&xs[..19]), None);
        assert_eq!(tail(&xs[..20]).map(|t| t.0), Some(50.0));
    }
}
