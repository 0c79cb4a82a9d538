//! Small order-statistics helpers shared by the untraced and traced modes.

/// `values` sorted ascending (NaN-free input assumed; `total_cmp` keeps the
/// sort total either way).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Exact nearest-rank percentile of unsorted `values` through the
/// library's own [`mikpoly::percentile`] (0 for an empty slice).
pub fn pct(values: &[f64], p: f64) -> f64 {
    mikpoly::percentile(&sorted(values), p)
}

/// The median of `values`: the mean of the two middle elements for an
/// even count (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Interquartile mean: the mean of `values` without their lowest and
/// highest quarters. Robust to outliers like the median, but it moves
/// smoothly when host noise makes the values bimodal, where the median
/// jumps between the modes.
pub fn iq_mean(values: &[f64]) -> f64 {
    let s = sorted(values);
    let cut = s.len() / 4;
    mean(&s[cut..s.len() - cut])
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(pct(&v, 0.99), 99.0);
        assert_eq!(pct(&v, 0.5), 51.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(iq_mean(&[100.0, 2.0, 1.0, 3.0, -50.0, 2.0, 3.0, 1.0]), 2.0);
        assert_eq!(iq_mean(&[5.0]), 5.0);
    }
}
