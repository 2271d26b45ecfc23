//! Order statistics over latency samples.

/// Nearest-rank percentile `q` in `[0, 1]` of `v` (sorted in place).
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// The highest of p99/p95/p90/p75/p50 that leaves at least ten samples
/// above it, as (percentile, value).
pub fn tail(v: &mut [f64]) -> (f64, f64) {
    let q = [0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|q| (1.0 - q) * v.len() as f64 >= 10.0)
        .unwrap_or(0.5);
    (q, percentile(v, q))
}
