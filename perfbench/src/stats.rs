//! Order statistics the benchmark reports.

/// Sorted copy of `values` (total order, so NaN cannot panic the sort).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle value, or the mean of the two middle values.
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" rule (Python's
/// `statistics.quantiles(values, n=4)`), so the benchmark's own spread figure
/// matches the one its acceptance check computes. Needs two or more values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median (`None` when undefined).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The `q`-quantile (`q` in `[0, 1]`) by linear interpolation between
/// closest ranks (type 7, the rule the simulator's own latency summary
/// uses). `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let h = (n - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Some(v[lo] + (h - lo as f64) * (v[hi] - v[lo]))
}

/// Samples that lie strictly above the type-7 `q`-quantile's upper rank in
/// a population of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let upper = ((n - 1) as f64 * q).ceil() as usize;
    n - 1 - upper.min(n - 1)
}

/// Tail quantiles the benchmark may report, highest first.
pub const TAIL_QUANTILES: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// The highest quantile in [`TAIL_QUANTILES`] with at least ten samples
/// beyond it, or `None` when even the median has fewer.
pub fn highest_supported_quantile(n: usize) -> Option<f64> {
    TAIL_QUANTILES
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}
