//! Bounded structured event tracing.
//!
//! A [`TraceRing`] keeps the most recent N [`TraceEvent`]s recorded by
//! instrumented components. Events carry simulated time only — never the
//! wall clock — so a trace is a pure function of the simulation inputs
//! and two same-seed runs export byte-identical traces. When the ring is
//! full the oldest events are dropped and counted, so exporters can
//! report the truncation honestly.

use std::collections::VecDeque;

use super::json::Json;
use crate::time::{Duration, Time};

/// One typed field value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer (counters, sizes, ids).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (rates, fractions).
    F64(f64),
    /// A short text value (names, states).
    Text(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Text(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Text(v)
    }
}

impl From<Duration> for FieldValue {
    fn from(v: Duration) -> Self {
        FieldValue::U64(v.as_ps())
    }
}

impl FieldValue {
    fn render_text(&self) -> String {
        match self {
            FieldValue::U64(v) => v.to_string(),
            FieldValue::I64(v) => v.to_string(),
            FieldValue::F64(v) => super::json::fmt_f64(*v),
            FieldValue::Text(v) => v.clone(),
        }
    }
}

/// One structured trace event: what happened, where, and when (in
/// simulated time).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at: Time,
    /// Dotted component path, e.g. `eci.link` or `net.tcp`.
    pub component: String,
    /// Event kind within the component, e.g. `credit_stall`.
    pub kind: String,
    /// Typed key/value payload, in recording order.
    pub fields: Vec<(String, FieldValue)>,
}

impl TraceEvent {
    /// Creates an event with no fields.
    pub fn new(at: Time, component: impl Into<String>, kind: impl Into<String>) -> Self {
        TraceEvent {
            at,
            component: component.into(),
            kind: kind.into(),
            fields: Vec::new(),
        }
    }

    /// Attaches a field (builder style).
    pub fn field(mut self, name: impl Into<String>, value: impl Into<FieldValue>) -> Self {
        self.fields.push((name.into(), value.into()));
        self
    }
}

/// A bounded ring of trace events with a truncation counter.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRing {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    recorded: u64,
}

/// Default ring capacity; enough for the hot window of any one
/// experiment without letting long runs grow without bound.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be positive");
        TraceRing {
            capacity,
            events: VecDeque::with_capacity(capacity.min(1024)),
            recorded: 0,
        }
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
        self.recorded += 1;
    }

    /// Events currently retained, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.events.len() as u64
    }

    /// Discards all retained events and resets the counters.
    pub fn clear(&mut self) {
        self.events.clear();
        self.recorded = 0;
    }

    /// Renders the retained events as human-readable lines, one per
    /// event, plus a trailing truncation note when events were dropped.
    pub fn export_text(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&format!(
                "[{:>12} ps] {} {}",
                ev.at.as_ps(),
                ev.component,
                ev.kind
            ));
            for (k, v) in &ev.fields {
                out.push_str(&format!(" {k}={}", v.render_text()));
            }
            out.push('\n');
        }
        if self.dropped() > 0 {
            out.push_str(&format!("... {} earlier events dropped\n", self.dropped()));
        }
        out
    }

    /// Summarises the ring as a JSON object (counts only, not events).
    pub fn to_json_summary(&self) -> Json {
        Json::obj(vec![
            ("recorded", Json::U64(self.recorded)),
            ("retained", Json::U64(self.events.len() as u64)),
            ("dropped", Json::U64(self.dropped())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ps: u64) -> TraceEvent {
        TraceEvent::new(Time::from_ps(ps), "test.comp", "tick").field("n", ps)
    }

    #[test]
    fn ring_truncates_oldest_and_counts_drops() {
        let mut ring = TraceRing::new(3);
        for i in 0..5 {
            ring.record(ev(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 2);
        let kept: Vec<u64> = ring.iter().map(|e| e.at.as_ps()).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn text_export_mentions_truncation() {
        let mut ring = TraceRing::new(2);
        for i in 0..4 {
            ring.record(ev(i));
        }
        let text = ring.export_text();
        assert!(text.contains("2 earlier events dropped"), "{text}");
        assert!(text.contains("test.comp tick n=3"), "{text}");
    }

    #[test]
    fn clear_resets_counters() {
        let mut ring = TraceRing::new(2);
        ring.record(ev(1));
        ring.record(ev(2));
        ring.record(ev(3));
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.recorded(), 0);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        TraceRing::new(0);
    }
}
