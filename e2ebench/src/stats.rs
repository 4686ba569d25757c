//! Order statistics and process measurements.

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A tail quantile that one passing host stall cannot move on its own:
/// the `q`-quantile of each third of `samples` (in the order they were
/// taken), and the median of the three. Fewer than three samples fall back
/// to the plain quantile.
pub fn tail_quantile(samples: &[f64], q: f64) -> f64 {
    let n = samples.len();
    if n < 3 {
        return quantile(samples, q);
    }
    let thirds: Vec<f64> = (0..3)
        .map(|i| quantile(&samples[i * n / 3..(i + 1) * n / 3], q))
        .collect();
    median(&thirds)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`) in megabytes (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("malformed {line:?}"))?;
    Ok(kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        // A stall in one third does not move the tail.
        let mut stalled: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        stalled[150..200].iter_mut().for_each(|v| *v *= 10.0);
        assert_eq!(tail_quantile(&stalled, 0.99), 98.0);
        assert_eq!(tail_quantile(&[1.0, 5.0], 0.99), 5.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
