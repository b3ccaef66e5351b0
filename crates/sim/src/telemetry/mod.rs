//! Cross-crate telemetry: a metrics registry plus structured tracing.
//!
//! Every layer of the simulated platform (DES kernel, ECI link and
//! directory, TCP stacks, PMU) implements the [`Instrumented`] trait,
//! whose `export_metrics(prefix, &mut MetricsRegistry)` hook publishes
//! its counters into one shared, hierarchically-named
//! [`MetricsRegistry`]. The registry reuses
//! the [`stats`](crate::stats) collectors ([`Summary`],
//! [`LatencyHistogram`]) for distribution-valued metrics and pairs them
//! with a bounded [`TraceRing`] of structured [`TraceEvent`]s.
//!
//! Everything here is deterministic by construction: metric names sort
//! lexicographically in every export, floats render in shortest
//! round-trip form, and only simulated [`Time`](crate::Time) ever
//! appears — the wall clock is banned from the sim path. Two runs with
//! the same seed therefore export byte-identical text and JSON.
//!
//! # Example
//!
//! ```
//! use enzian_sim::telemetry::MetricsRegistry;
//! use enzian_sim::Duration;
//!
//! let mut reg = MetricsRegistry::new();
//! reg.counter_add("eci.link.messages", 3);
//! reg.record("net.tcp.goodput_gbps", 92.5);
//! reg.record_latency("mem.read", Duration::from_ns(120));
//! assert_eq!(reg.counter("eci.link.messages"), 3);
//! assert!(reg.export_json().contains("\"eci.link.messages\":3"));
//! ```

pub mod json;
pub mod trace;

use std::collections::BTreeMap;

pub use json::Json;
pub use trace::{FieldValue, TraceEvent, TraceRing, DEFAULT_TRACE_CAPACITY};

use crate::stats::{LatencyHistogram, Summary};
use crate::time::Duration;

/// A component that publishes its counters into a shared
/// [`MetricsRegistry`] under a hierarchical name prefix.
///
/// Every instrumented layer of the platform — the DES kernel, ECI links
/// and directories, the L2 and its PMU, memory controllers, TCP stacks,
/// fault injectors — implements this one trait, so machine- and
/// cluster-level aggregation can walk a slice of
/// `(name, &dyn Instrumented)` pairs instead of hand-wiring per-type
/// calls.
///
/// Implementations must stay deterministic: metric names may depend only
/// on `prefix` and component structure, values only on simulated state —
/// never on the wall clock or allocation addresses.
pub trait Instrumented {
    /// Publishes this component's metrics into `registry`, every metric
    /// name starting with `prefix` followed by a `.` separator.
    fn export_metrics(&self, prefix: &str, registry: &mut MetricsRegistry);
}

/// One metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotone event count.
    Counter(u64),
    /// A point-in-time measurement (last write wins).
    Gauge(f64),
    /// A distribution of `f64` samples.
    Summary(Summary),
    /// A distribution of latency samples.
    Histogram(LatencyHistogram),
}

impl MetricValue {
    fn kind_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Summary(_) => "summary",
            MetricValue::Histogram(_) => "histogram",
        }
    }

    fn to_json(&self) -> Json {
        match self {
            MetricValue::Counter(n) => Json::U64(*n),
            MetricValue::Gauge(x) => Json::F64(*x),
            MetricValue::Summary(s) => Json::obj(vec![
                ("count", Json::U64(s.count())),
                ("mean", Json::F64(s.mean())),
                ("std_dev", Json::F64(s.std_dev())),
                ("min", s.min().map_or(Json::Null, Json::F64)),
                ("max", s.max().map_or(Json::Null, Json::F64)),
            ]),
            MetricValue::Histogram(h) => Json::obj(vec![
                ("count", Json::U64(h.count())),
                ("mean_us", Json::F64(h.mean_micros())),
                (
                    "p50_us",
                    h.percentile_micros(50.0).map_or(Json::Null, Json::F64),
                ),
                (
                    "p99_us",
                    h.percentile_micros(99.0).map_or(Json::Null, Json::F64),
                ),
            ]),
        }
    }

    fn render_text(&self) -> String {
        match self {
            MetricValue::Counter(n) => n.to_string(),
            MetricValue::Gauge(x) => json::fmt_f64(*x),
            MetricValue::Summary(s) => format!(
                "count={} mean={} std_dev={}",
                s.count(),
                json::fmt_f64(s.mean()),
                json::fmt_f64(s.std_dev())
            ),
            MetricValue::Histogram(h) => format!(
                "count={} mean_us={} p99_us={}",
                h.count(),
                json::fmt_f64(h.mean_micros()),
                json::fmt_f64(h.percentile_micros(99.0).unwrap_or(0.0))
            ),
        }
    }
}

/// A registry of hierarchically-named metrics plus an event trace.
///
/// Names are dotted paths (`layer.component.metric`); the registry keeps
/// them sorted so every export is deterministic. A name is bound to one
/// metric kind on first use; re-using it with a different kind is a
/// programming error and panics.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, MetricValue>,
    trace: TraceRing,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry with the default trace capacity.
    pub fn new() -> Self {
        MetricsRegistry {
            metrics: BTreeMap::new(),
            trace: TraceRing::new(DEFAULT_TRACE_CAPACITY),
        }
    }

    // --- counters ----------------------------------------------------

    /// Adds `by` to the counter `name`, creating it at zero first.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already bound to a non-counter metric.
    pub fn counter_add(&mut self, name: &str, by: u64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(n) => *n += by,
            other => panic!("metric {name} is a {}, not a counter", other.kind_name()),
        }
    }

    /// Sets the counter `name` to an absolute value (used by components
    /// exporting totals they accumulated internally).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already bound to a non-counter metric.
    pub fn counter_set(&mut self, name: &str, value: u64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(n) => *n = value,
            other => panic!("metric {name} is a {}, not a counter", other.kind_name()),
        }
    }

    /// Current value of counter `name`; zero when absent.
    ///
    /// # Panics
    ///
    /// Panics if `name` is bound to a non-counter metric.
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            None => 0,
            Some(MetricValue::Counter(n)) => *n,
            Some(other) => panic!("metric {name} is a {}, not a counter", other.kind_name()),
        }
    }

    // --- gauges ------------------------------------------------------

    /// Sets the gauge `name` (last write wins).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already bound to a non-gauge metric.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(MetricValue::Gauge(0.0))
        {
            MetricValue::Gauge(x) => *x = value,
            other => panic!("metric {name} is a {}, not a gauge", other.kind_name()),
        }
    }

    /// Current value of gauge `name`; `None` when absent.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(x)) => Some(*x),
            _ => None,
        }
    }

    // --- distributions -----------------------------------------------

    /// Records a sample into the summary `name`, creating it on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already bound to a non-summary metric.
    pub fn record(&mut self, name: &str, sample: f64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::Summary(Summary::new()))
        {
            MetricValue::Summary(s) => s.record(sample),
            other => panic!("metric {name} is a {}, not a summary", other.kind_name()),
        }
    }

    /// Merges a whole [`Summary`] into the summary `name`.
    pub fn merge_summary(&mut self, name: &str, summary: &Summary) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::Summary(Summary::new()))
        {
            MetricValue::Summary(s) => s.merge(summary),
            other => panic!("metric {name} is a {}, not a summary", other.kind_name()),
        }
    }

    /// Records a latency sample into the histogram `name`, creating it
    /// on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already bound to a non-histogram metric.
    pub fn record_latency(&mut self, name: &str, latency: Duration) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::Histogram(LatencyHistogram::new()))
        {
            MetricValue::Histogram(h) => h.record(latency),
            other => panic!("metric {name} is a {}, not a histogram", other.kind_name()),
        }
    }

    /// Merges a whole [`LatencyHistogram`] into the histogram `name`.
    fn merge_histogram(&mut self, name: &str, histogram: &LatencyHistogram) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::Histogram(LatencyHistogram::new()))
        {
            MetricValue::Histogram(h) => h.merge(histogram),
            other => panic!("metric {name} is a {}, not a histogram", other.kind_name()),
        }
    }

    /// The summary bound to `name`, if any.
    pub fn summary(&self, name: &str) -> Option<&Summary> {
        match self.metrics.get(name) {
            Some(MetricValue::Summary(s)) => Some(s),
            _ => None,
        }
    }

    // --- inspection --------------------------------------------------

    /// The raw value bound to `name`, if any.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// All `(name, value)` pairs in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` when no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    // --- tracing -----------------------------------------------------

    /// The event trace (read-only).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Records a trace event.
    pub fn trace_event(&mut self, event: TraceEvent) {
        self.trace.record(event);
    }

    // --- aggregation -------------------------------------------------

    /// Merges another registry into this one: counters add, gauges take
    /// the other's value, summaries and histograms merge sample-exactly.
    /// Trace events are *not* merged (they belong to their run).
    ///
    /// # Panics
    ///
    /// Panics if a name is bound to different metric kinds in the two
    /// registries.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in &other.metrics {
            match value {
                MetricValue::Counter(n) => self.counter_add(name, *n),
                MetricValue::Gauge(x) => self.gauge_set(name, *x),
                MetricValue::Summary(s) => self.merge_summary(name, s),
                MetricValue::Histogram(h) => self.merge_histogram(name, h),
            }
        }
    }

    // --- exporters ---------------------------------------------------

    /// Renders every metric as `name = value` lines in sorted name
    /// order, followed by a one-line trace summary when any events were
    /// recorded.
    pub fn export_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            out.push_str(&format!("{name} = {}\n", value.render_text()));
        }
        if self.trace.recorded() > 0 {
            out.push_str(&format!(
                "trace: {} events recorded, {} retained, {} dropped\n",
                self.trace.recorded(),
                self.trace.len(),
                self.trace.dropped()
            ));
        }
        out
    }

    /// The metrics as a JSON object, names in sorted order.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        )
    }

    /// Renders the metrics plus a trace summary as one compact JSON
    /// document. Deterministic: identical registries render to identical
    /// bytes.
    pub fn export_json(&self) -> String {
        Json::obj(vec![
            ("metrics", self.to_json()),
            ("trace", self.trace.to_json_summary()),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    #[test]
    fn counters_and_gauges() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("a.b", 1);
        reg.counter_add("a.b", 4);
        reg.gauge_set("a.g", 2.5);
        reg.gauge_set("a.g", 3.5);
        assert_eq!(reg.counter("a.b"), 5);
        assert_eq!(reg.gauge("a.g"), Some(3.5));
        assert_eq!(reg.counter("absent"), 0);
        assert_eq!(reg.gauge("absent"), None);
    }

    #[test]
    fn distributions_accumulate() {
        let mut reg = MetricsRegistry::new();
        for x in [1.0, 2.0, 3.0] {
            reg.record("s", x);
        }
        assert_eq!(reg.summary("s").unwrap().count(), 3);
        assert!((reg.summary("s").unwrap().mean() - 2.0).abs() < 1e-12);
        reg.record_latency("h", Duration::from_ns(100));
        assert!(matches!(reg.get("h"), Some(MetricValue::Histogram(h)) if h.count() == 1));
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_mismatch_panics() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("x", 1);
        reg.gauge_set("x", 1.0);
    }

    #[test]
    fn merge_combines_every_kind() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.counter_add("c", 2);
        b.counter_add("c", 3);
        a.gauge_set("g", 1.0);
        b.gauge_set("g", 9.0);
        a.record("s", 1.0);
        b.record("s", 3.0);
        a.record_latency("h", Duration::from_ns(10));
        b.record_latency("h", Duration::from_ns(1000));
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.gauge("g"), Some(9.0));
        assert_eq!(a.summary("s").unwrap().count(), 2);
        assert!(matches!(a.get("h"), Some(MetricValue::Histogram(h)) if h.count() == 2));
    }

    #[test]
    fn exports_are_sorted_and_deterministic() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            reg.counter_add("z.last", 1);
            reg.counter_add("a.first", 2);
            reg.gauge_set("m.mid", 0.5);
            reg.trace_event(TraceEvent::new(Time::from_ps(10), "t", "k"));
            reg
        };
        let one = build();
        let two = build();
        assert_eq!(one.export_json(), two.export_json());
        assert_eq!(one.export_text(), two.export_text());
        let json = one.export_json();
        let a = json.find("a.first").unwrap();
        let m = json.find("m.mid").unwrap();
        let z = json.find("z.last").unwrap();
        assert!(a < m && m < z, "names not sorted in {json}");
    }

    #[test]
    fn export_shapes() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("c", 7);
        reg.record("s", 2.0);
        let json = reg.export_json();
        assert!(json.starts_with("{\"metrics\":{"), "{json}");
        assert!(json.contains("\"c\":7"), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
        assert!(json.contains("\"trace\":{\"recorded\":0"), "{json}");
        let text = reg.export_text();
        assert!(text.contains("c = 7"), "{text}");
    }
}
