//! Measurement collection: summaries, histograms, time series.
//!
//! Every experiment in the paper reports a mean, a latency distribution
//! or a sampled time series (the power traces in Fig. 12). This module
//! provides small, allocation-light collectors for each.

use crate::time::{Duration, Time};

/// Running summary of a stream of `f64` samples: count, mean, min, max and
/// variance (Welford's algorithm).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Records a [`Duration`] sample in microseconds.
    pub fn record_micros(&mut self, d: Duration) {
        self.record(d.as_micros_f64());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Population standard deviation; zero when fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A log₂-bucketed latency histogram over [`Duration`] samples.
///
/// Bucket `i` covers durations in `[2^i, 2^(i+1))` nanoseconds, with bucket
/// 0 also absorbing sub-nanosecond samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    summary: Summary,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; 64],
            summary: Summary::new(),
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: Duration) {
        let ns = d.as_ns();
        let bucket = if ns <= 1 {
            0
        } else {
            (63 - ns.leading_zeros()) as usize
        };
        self.buckets[bucket.min(63)] += 1;
        self.summary.record(d.as_micros_f64());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    /// Mean latency in microseconds.
    pub fn mean_micros(&self) -> f64 {
        self.summary.mean()
    }

    /// Approximate p-th percentile (0 < p <= 100) in microseconds, using
    /// the geometric midpoint of the containing bucket. `None` when empty.
    pub fn percentile_micros(&self, p: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let lo = (1u64 << i) as f64;
                let mid_ns = lo * std::f64::consts::SQRT_2;
                return Some(mid_ns / 1e3);
            }
        }
        None
    }

    /// Approximate median in microseconds; `None` when empty.
    pub fn p50_micros(&self) -> Option<f64> {
        self.percentile_micros(50.0)
    }

    /// Approximate 99th percentile in microseconds; `None` when empty.
    pub fn p99_micros(&self) -> Option<f64> {
        self.percentile_micros(99.0)
    }

    /// Approximate 99.9th percentile in microseconds; `None` when empty.
    fn p999_micros(&self) -> Option<f64> {
        self.percentile_micros(99.9)
    }

    /// The underlying summary.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))` ns.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Merges another histogram into this one, bucket- and sample-exact:
    /// merging two halves of a sample stream yields the same histogram
    /// as recording the whole stream.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.summary.merge(&other.summary);
    }
}

/// Publishes the histogram as deterministic gauges — the one shared way
/// latency percentiles reach a [`MetricsRegistry`](crate::MetricsRegistry),
/// so every caller exports the same shape instead of extracting
/// percentiles ad hoc:
///
/// * `{prefix}.count` — samples recorded (counter);
/// * `{prefix}.mean_us`, `{prefix}.p50_us`, `{prefix}.p99_us`,
///   `{prefix}.p999_us`, `{prefix}.max_us` — gauges in microseconds,
///   `0` when the histogram is empty.
///
/// Percentiles come from the log₂ bucket midpoints and the mean/max from
/// the exact running summary, so two histograms fed the same samples
/// export byte-identical values.
impl crate::telemetry::Instrumented for LatencyHistogram {
    fn export_metrics(&self, prefix: &str, registry: &mut crate::telemetry::MetricsRegistry) {
        registry.counter_set(&format!("{prefix}.count"), self.count());
        registry.gauge_set(&format!("{prefix}.mean_us"), self.mean_micros());
        registry.gauge_set(
            &format!("{prefix}.p50_us"),
            self.p50_micros().unwrap_or(0.0),
        );
        registry.gauge_set(
            &format!("{prefix}.p99_us"),
            self.p99_micros().unwrap_or(0.0),
        );
        registry.gauge_set(
            &format!("{prefix}.p999_us"),
            self.p999_micros().unwrap_or(0.0),
        );
        registry.gauge_set(
            &format!("{prefix}.max_us"),
            self.summary().max().unwrap_or(0.0),
        );
    }
}

/// A time-stamped series of `f64` samples, e.g. a power rail trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(Time, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last recorded sample; a time series is
    /// monotone by construction.
    pub fn push(&mut self, at: Time, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(at >= last, "time series must be appended in time order");
        }
        self.points.push((at, value));
    }

    /// The recorded samples in time order.
    pub fn points(&self) -> &[(Time, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Largest sample value, `None` when empty.
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Mean of the sample values over a closed time window.
    pub fn mean_in(&self, from: Time, to: Time) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0u64;
        for &(t, v) in &self.points {
            if t >= from && t <= to {
                sum += v;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Trapezoidal integral of the series over its full span. For a power
    /// trace in watts over time this yields energy in joules.
    pub fn integral(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| {
                let dt = w[1].0.since(w[0].0).as_secs_f64();
                0.5 * (w[0].1 + w[1].1) * dt
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn summary_merge_matches_bulk() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.std_dev() - whole.std_dev()).abs() < 1e-9);
    }

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(Duration::from_ns(i));
        }
        let p50 = h.percentile_micros(50.0).unwrap();
        // Median of 1..=1000 ns is ~0.5 us; bucket resolution is 2x.
        assert!(p50 > 0.2 && p50 < 1.1, "p50 = {p50}");
        let p99 = h.percentile_micros(99.0).unwrap();
        assert!(p99 >= p50);
    }

    #[test]
    fn time_series_integral_is_energy() {
        let mut ts = TimeSeries::new();
        // 100 W for 2 seconds = 200 J.
        ts.push(Time::ZERO, 100.0);
        ts.push(Time::ZERO + Duration::from_secs(2), 100.0);
        assert!((ts.integral() - 200.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn time_series_rejects_out_of_order() {
        let mut ts = TimeSeries::new();
        ts.push(Time::ZERO + Duration::from_ns(5), 1.0);
        ts.push(Time::ZERO, 2.0);
    }

    #[test]
    fn histogram_exports_deterministic_percentile_gauges() {
        use crate::telemetry::{Instrumented, MetricsRegistry};
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(Duration::from_ns(i * 10));
        }
        let mut reg = MetricsRegistry::new();
        h.export_metrics("svc.get", &mut reg);
        assert_eq!(reg.counter("svc.get.count"), 1000);
        let p50 = reg.gauge("svc.get.p50_us").unwrap();
        let p99 = reg.gauge("svc.get.p99_us").unwrap();
        let p999 = reg.gauge("svc.get.p999_us").unwrap();
        assert!(p50 > 0.0 && p99 >= p50 && p999 >= p99);
        assert_eq!(reg.gauge("svc.get.max_us"), Some(10.0));
        // Two identical streams export byte-identical registries.
        let mut h2 = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h2.record(Duration::from_ns(i * 10));
        }
        let mut reg2 = MetricsRegistry::new();
        h2.export_metrics("svc.get", &mut reg2);
        assert_eq!(reg.export_json(), reg2.export_json());
    }

    #[test]
    fn empty_histogram_exports_zero_gauges() {
        use crate::telemetry::{Instrumented, MetricsRegistry};
        let mut reg = MetricsRegistry::new();
        LatencyHistogram::new().export_metrics("x", &mut reg);
        assert_eq!(reg.counter("x.count"), 0);
        assert_eq!(reg.gauge("x.p999_us"), Some(0.0));
        assert_eq!(reg.gauge("x.max_us"), Some(0.0));
    }

    #[test]
    fn empty_collectors_are_well_behaved() {
        assert_eq!(Summary::new().mean(), 0.0);
        assert_eq!(Summary::new().min(), None);
        assert_eq!(LatencyHistogram::new().percentile_micros(50.0), None);
        assert_eq!(TimeSeries::new().max_value(), None);
    }
}
