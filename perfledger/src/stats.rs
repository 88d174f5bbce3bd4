//! Order statistics for the ledger's reports.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by linear interpolation
/// between closest ranks (the "inclusive" method). `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of `xs`; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, with its value: with `n` samples, percentile `p`
/// qualifies when `n · (1 − p/100) ≥ 10`. `None` below twenty samples,
/// where even p50 has fewer than ten samples above it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    const CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    let n = xs.len() as f64;
    CANDIDATES
        .iter()
        .find(|&&p| n * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .and_then(|&p| quantile(xs, p / 100.0).map(|v| (p, v)))
}

/// One line summarising a within-run sample set: count, median, and the
/// qualifying tail percentile when there is one.
pub fn summary(xs: &[f64]) -> String {
    let mut s = format!("n={}", xs.len());
    if let Some(m) = median(xs) {
        s.push_str(&format!(" p50={m:.6}"));
    }
    if let Some((p, v)) = tail(xs) {
        s.push_str(&format!(" p{p}={v:.6}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&twenty).map(|t| t.0), Some(50.0));
        let eighty: Vec<f64> = (0..80).map(f64::from).collect();
        assert_eq!(tail(&eighty).map(|t| t.0), Some(75.0));
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&thousand).map(|t| t.0), Some(99.0));
    }
}
