//! Order statistics the benchmark reports: medians, quartiles and tail
//! percentiles under the "ten samples beyond it" rule.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; otherwise it would be an extrapolation from a handful of
/// outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
/// spreads printed here match the ones the acceptance rule computes.
///
/// # Panics
/// Panics with fewer than two samples or on a NaN sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let len = v.len();
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Nearest-rank percentile `p` (0 < p < 1) of an ascending `sorted` slice,
/// or `None` when fewer than [`MIN_SAMPLES_BEYOND`] samples lie above it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    (rank <= n && n - rank >= MIN_SAMPLES_BEYOND).then(|| sorted[rank - 1])
}

/// Sorts latency samples ascending (in place) for [`percentile`].
pub fn sort_samples(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
}
