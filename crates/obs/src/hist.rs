//! Log-bucketed latency histograms (HDR-histogram style).
//!
//! The seed implementation of percentiles kept every sample and sorted them
//! at report time — O(n log n) time and O(n) memory per phase, per run. A
//! [`LogHistogram`] stores counts in geometrically spaced buckets instead:
//! O(buckets) memory however long the run, O(buckets) percentile queries, and
//! quantiles exact to within one bucket width (a bounded *relative* error,
//! which is the right error model for latencies spanning microseconds to
//! minutes).

/// A histogram over positive values with geometrically spaced buckets.
///
/// Bucket `0` covers `(0, lo]`; bucket `i ≥ 1` covers
/// `(lo·g^(i-1), lo·g^i]` where `g = 10^(1/buckets_per_decade)`. Values above
/// the configured ceiling clamp into the last bucket (their exact maximum is
/// still tracked separately).
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    lo: f64,
    growth: f64,
    ln_growth: f64,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LogHistogram {
    /// Creates a histogram resolving `(0, hi]` with `buckets_per_decade`
    /// buckets per factor of ten, anchored at smallest-resolvable value `lo`.
    ///
    /// # Panics
    /// Panics unless `0 < lo < hi` and `buckets_per_decade ≥ 1`.
    pub fn new(lo: f64, hi: f64, buckets_per_decade: u32) -> Self {
        assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
        assert!(
            buckets_per_decade >= 1,
            "need at least one bucket per decade"
        );
        let growth = 10f64.powf(1.0 / buckets_per_decade as f64);
        let decades = (hi / lo).log10();
        let buckets = (decades * buckets_per_decade as f64).ceil() as usize + 1;
        LogHistogram {
            lo,
            growth,
            ln_growth: growth.ln(),
            counts: vec![0; buckets],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    /// A latency histogram resolving 1 µs .. 1 h at 20 buckets per decade
    /// (≈12 % worst-case relative quantile error).
    pub fn latency() -> Self {
        LogHistogram::new(1e-6, 3600.0, 20)
    }

    fn bucket_of(&self, v: f64) -> usize {
        if v <= self.lo {
            return 0;
        }
        let i = ((v / self.lo).ln() / self.ln_growth).ceil() as usize;
        i.min(self.counts.len() - 1)
    }

    /// Records one sample (negative, NaN and infinite samples are rejected).
    ///
    /// # Panics
    /// Panics on a non-finite or negative sample.
    pub fn record(&mut self, v: f64) {
        assert!(v.is_finite() && v >= 0.0, "invalid histogram sample: {v}");
        let idx = self.bucket_of(v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Worst-case multiplicative quantile error: a reported quantile `h` and
    /// the exact sample `x` it stands for satisfy `x/g ≤ h ≤ x·g` with `g`
    /// this factor (one bucket width).
    pub fn relative_error_bound(&self) -> f64 {
        self.growth
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) by the nearest-rank rule over buckets,
    /// reported as the geometric midpoint of the winning bucket and clamped
    /// to the exact observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0.0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        let mut idx = self.counts.len() - 1;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                idx = i;
                break;
            }
        }
        let mid = if idx == 0 {
            // (0, lo]: midpoint in log space is not defined down to 0; use lo.
            self.lo
        } else {
            let upper = self.lo * self.growth.powi(idx as i32);
            upper / self.growth.sqrt()
        };
        mid.clamp(self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricsim_des::RngStream;

    /// Exact nearest-rank quantile over a sorted sample vector.
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn quantiles_match_exact_within_one_bucket_on_10k_random_samples() {
        let mut rng = RngStream::derive(7, "hist-accuracy");
        let hist_template = LogHistogram::latency();
        // Exercise three very different shapes: light-tailed exponential,
        // uniform, and a heavy bimodal mix (fast path + stragglers).
        type Draw = Box<dyn Fn(&mut RngStream) -> f64>;
        let draws: Vec<Draw> = vec![
            Box::new(|r| r.exp(0.25)),
            Box::new(|r| r.uniform(0.001, 2.0)),
            Box::new(|r| {
                if r.next_below(10) < 9 {
                    r.exp(0.05)
                } else {
                    5.0 + r.exp(3.0)
                }
            }),
        ];
        for draw in draws {
            let mut hist = hist_template.clone();
            let mut samples = Vec::with_capacity(10_000);
            for _ in 0..10_000 {
                let v = draw(&mut rng).max(1e-9);
                samples.push(v);
                hist.record(v);
            }
            samples.sort_by(|a, b| a.total_cmp(b));
            let g = hist.relative_error_bound();
            for q in [0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 1.0] {
                let exact = exact_quantile(&samples, q);
                let approx = hist.quantile(q);
                assert!(
                    approx <= exact * g + 1e-12 && approx >= exact / g - 1e-12,
                    "q={q}: approx {approx} vs exact {exact} outside one bucket (g={g})"
                );
            }
            assert!((hist.mean() - samples.iter().sum::<f64>() / 10_000.0).abs() < 1e-9);
            assert_eq!(hist.min(), samples[0]);
            assert_eq!(hist.max(), samples[9_999]);
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LogHistogram::latency();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn out_of_range_values_clamp_not_crash() {
        let mut h = LogHistogram::new(1e-3, 10.0, 5);
        h.record(1e-9); // below lo -> bucket 0
        h.record(1e9); // above hi -> last bucket
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 1e9);
        // p100 clamps to the exact max even though the bucket saturates.
        assert_eq!(h.quantile(1.0), 1e9);
    }

    #[test]
    #[should_panic(expected = "invalid histogram sample")]
    fn nan_samples_panic() {
        LogHistogram::latency().record(f64::NAN);
    }
}
