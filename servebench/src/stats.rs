//! Order statistics.

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by linear interpolation
/// between closest ranks; `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5).unwrap_or(0.0)
}

/// First and third quartile as Python's
/// `statistics.quantiles(xs, n=4)` computes them (the default
/// "exclusive" method), which is how steadiness is judged.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v: Vec<f64> = xs.to_vec();
    if v.len() < 2 {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let at = |j: f64| {
        // Position j (1-based) over n + 1 "exclusive" slots.
        let pos = j * (n + 1.0) / 4.0;
        let k = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - k as f64;
        v[k - 1] + (v[k] - v[k - 1]) * frac
    };
    Some((at(1.0), at(3.0)))
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&xs) - 5.5).abs() < 1e-12);
        assert!((spread(&xs).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(quantile(&[0.0, 10.0], 0.9), Some(9.0));
    }
}
