//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Unit-level spans (one search, one ECI batch, one traffic leg, one
//! service run and the calls they make once) are kept individually.
//! Hot per-call boundaries — the `ProtocolModel` callbacks, ECI `issue`
//! and `take_completion` — are aggregated as a count and total
//! nanoseconds per (name, parent span), so ten million calls stay ten
//! numbers. A span's self time is its duration minus the time its
//! children cover; the children of one span never overlap because every
//! call is made from one thread.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One individually kept span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `eci.system.run`.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The unit of work (search, batch, leg or run) the span belongs to.
    pub unit: u64,
}

impl Span {
    /// Wall-clock duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count and total time of one hot call boundary under one parent.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Calls made.
    pub count: u64,
    /// Nanoseconds spent in them.
    pub total_ns: u64,
}

impl Agg {
    /// Times one call of `f` into the aggregate.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(t.elapsed().as_nanos() as u64);
        r
    }

    /// Adds one call of `ns` nanoseconds.
    pub fn add(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
    }
}

/// The in-memory span store of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    aggs: BTreeMap<(&'static str, usize), Agg>,
    open: Vec<usize>,
    unit: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            aggs: BTreeMap::new(),
            open: Vec::new(),
            unit: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new unit of work; spans opened from here on carry its id.
    pub fn next_unit(&mut self) {
        self.unit += 1;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span. `f` gets the tracer back to open children and the
    /// span's index to aggregate hot calls under.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer, usize) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(id);
        let r = f(self, id);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Adds an aggregated hot call boundary under span `parent`.
    pub fn aggregate(&mut self, name: &'static str, parent: usize, agg: Agg) {
        let a = self.aggs.entry((name, parent)).or_default();
        a.count += agg.count;
        a.total_ns += agg.total_ns;
    }

    /// The kept spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds of span `id` covered by its children, kept or
    /// aggregated.
    pub fn children_ns(&self, id: usize) -> u64 {
        let kept: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        let hot: u64 = self
            .aggs
            .iter()
            .filter(|((_, p), _)| *p == id)
            .map(|(_, a)| a.total_ns)
            .sum();
        kept + hot
    }

    /// Span `id`'s duration minus the time its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        self.spans[id].dur_ns().saturating_sub(self.children_ns(id))
    }

    /// Total seconds of every kept span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        ns_to_s(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::dur_ns)
                .sum(),
        )
    }

    /// Total self seconds of every kept span named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        ns_to_s(
            (0..self.spans.len())
                .filter(|&i| self.spans[i].name == name)
                .map(|i| self.self_ns(i))
                .sum(),
        )
    }

    /// Total seconds and calls of the hot boundary `name`, all parents.
    pub fn hot(&self, name: &str) -> (f64, u64) {
        let (ns, n) = self
            .aggs
            .iter()
            .filter(|((k, _), _)| *k == name)
            .fold((0, 0), |(ns, n), (_, a)| (ns + a.total_ns, n + a.count));
        (ns_to_s(ns), n)
    }

    /// The trace as a JSON document: every kept span with its self
    /// time, then every aggregate.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::U64(id as u64)),
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::U64(s.start_ns)),
                    ("end_ns", Json::U64(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    ),
                    ("unit", Json::U64(s.unit)),
                    ("self_ns", Json::U64(self.self_ns(id))),
                ])
            })
            .collect();
        let aggs = self
            .aggs
            .iter()
            .map(|((name, parent), a)| {
                Json::obj(vec![
                    ("name", Json::Str((*name).to_string())),
                    ("parent", Json::U64(*parent as u64)),
                    ("count", Json::U64(a.count)),
                    ("total_ns", Json::U64(a.total_ns)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::Str(workload.to_string())),
            ("seed", Json::U64(seed)),
            ("spans", Json::Arr(spans)),
            ("aggregates", Json::Arr(aggs)),
        ])
    }
}

/// Nanoseconds as seconds.
fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_kept_and_aggregated_children() {
        let mut t = Tracer::default();
        t.span("outer", |t, id| {
            t.span("inner", |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            let mut hot = Agg::default();
            hot.time(|| std::thread::sleep(std::time::Duration::from_millis(1)));
            t.aggregate("hot", id, hot);
        });
        let outer = &t.spans()[0];
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.children_ns(0) >= 3_000_000);
        assert!(t.children_ns(0) <= outer.dur_ns());
        assert_eq!(t.self_ns(0), outer.dur_ns() - t.children_ns(0));
        assert_eq!(t.hot("hot").1, 1);
        assert!(t.total_s("outer") >= t.self_s("outer"));
    }
}
