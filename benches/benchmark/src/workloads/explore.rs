//! `explore_tcp` and `explore_moesi`: exhaustive searches on the generic
//! explorer (`enzian_sim::explore`) through its two in-tree models.
//!
//! One slice is one pass over a fixed list of searches, so every slice
//! does the same work and throughput is total states over total search
//! time. The inputs are model configurations, not random draws: the seed
//! does not change them, and every search is checked against its golden
//! statistics and counterexample digest on every run.

use std::cell::Cell;
use std::time::Instant;

use enzian_eci::{ExploreConfig, ExploreOutcome, Explorer, ALL_MUTATIONS};
use enzian_net::tcp::{TcpModel, TcpModelConfig, TcpViolationKind, ALL_TCP_MUTATIONS};
use enzian_sim::alloc_count;
use enzian_sim::explore::{self, ProtocolModel, SearchOutcome, SearchStats, Succ};

use super::{digest_str, snake, Checks, Layers, Scale, Slice, Workload};
use crate::json::{hex, Json};
use crate::stats::proc_status_bytes;
use crate::trace::{Agg, Tracer};

/// A search's golden: its statistics, and the violation kind plus a
/// digest of the rendered counterexample when it found one.
fn outcome_json(stats: &SearchStats, violation: Option<(String, u64)>) -> Json {
    let (kind, cx) = violation.map_or((Json::Null, Json::Null), |(k, d)| (Json::Str(k), hex(d)));
    Json::obj(vec![
        ("states", Json::U64(stats.states)),
        ("transitions", Json::U64(stats.transitions)),
        ("frontier_peak", Json::U64(stats.frontier_peak)),
        ("max_depth", Json::U64(stats.max_depth)),
        ("violation", kind),
        ("counterexample", cx),
    ])
}

/// What a search returns once reduced to its checked outputs.
type Found = (SearchStats, Option<(String, u64)>);

/// Exact counters over the untraced searches of one explore workload.
#[derive(Default)]
struct Counters {
    /// Searches finished.
    searches: u64,
    states: u64,
    allocs: u64,
    /// The largest single search, which sets the resident peak.
    max_states: u64,
    /// Resident bytes once set-up finished, before any timed search.
    rss_base: u64,
}

impl Counters {
    /// Times, verifies and counts one untraced search.
    fn search(
        &mut self,
        checks: &mut Checks,
        name: &str,
        run: impl FnOnce() -> Result<Found, String>,
    ) -> Slice {
        let a0 = alloc_count::allocations();
        let t = Instant::now();
        let out = Checks::guard(run).and_then(|r| r);
        let secs = t.elapsed().as_secs_f64();
        let allocs = alloc_count::allocations() - a0;
        let mut work = 0.0;
        let verdict = out.and_then(|(stats, violation)| {
            self.searches += 1;
            self.states += stats.states;
            self.allocs += allocs;
            self.max_states = self.max_states.max(stats.states);
            work = stats.states as f64;
            checks.golden(name, outcome_json(&stats, violation))
        });
        checks.unit(name, verdict);
        Slice { work, secs }
    }

    fn shape(&self) -> Layers {
        let hwm = proc_status_bytes("VmHWM");
        vec![
            (
                "sim.explore.allocs_per_state".into(),
                self.allocs as f64 / self.states.max(1) as f64,
            ),
            (
                "sim.explore.rss_bytes_per_state".into(),
                hwm.saturating_sub(self.rss_base) as f64 / self.max_states.max(1) as f64,
            ),
        ]
    }
}

fn tcp_found(out: SearchOutcome<TcpViolationKind>) -> Found {
    (
        out.stats,
        out.violation
            .map(|cx| (cx.violation.to_string(), digest_str(&cx.to_string()))),
    )
}

fn moesi_found(out: ExploreOutcome) -> Found {
    (
        out.stats,
        out.violation
            .map(|v| (v.kind.to_string(), digest_str(&v.to_string()))),
    )
}

// ---------------------------------------------------------------------
// explore_tcp
// ---------------------------------------------------------------------

/// The TCP connection-FSM model with every callback timed, so the
/// explorer's own time is the `explore()` span minus these children.
struct TracedTcp<'a> {
    model: &'a TcpModel,
    calls: [Cell<Agg>; 5],
    key_bytes: Cell<u64>,
}

/// Aggregate names, in `TracedTcp::calls` order.
const TCP_CALLS: [&str; 5] = [
    "net.tcp.model.successors",
    "net.tcp.model.canonical",
    "net.tcp.model.check",
    "net.tcp.model.quiescent",
    "net.tcp.model.render_path",
];

impl TracedTcp<'_> {
    fn time<R>(&self, call: usize, f: impl FnOnce() -> R) -> R {
        let mut agg = self.calls[call].get();
        let r = agg.time(f);
        self.calls[call].set(agg);
        r
    }
}

impl ProtocolModel for TracedTcp<'_> {
    type State = <TcpModel as ProtocolModel>::State;
    type Action = <TcpModel as ProtocolModel>::Action;
    type Kind = <TcpModel as ProtocolModel>::Kind;

    fn initial(&self) -> Self::State {
        self.model.initial()
    }

    fn successors(&self, state: &Self::State) -> Vec<Succ<Self::State, Self::Action>> {
        self.time(0, || self.model.successors(state))
    }

    fn quiescent(&self, state: &Self::State) -> bool {
        self.time(3, || self.model.quiescent(state))
    }

    fn canonical(&self, state: &Self::State) -> Vec<u8> {
        let key = self.time(1, || self.model.canonical(state));
        self.key_bytes.set(self.key_bytes.get() + key.len() as u64);
        key
    }

    fn check(&self, state: &Self::State) -> Option<(Self::Kind, String)> {
        self.time(2, || self.model.check(state))
    }

    fn render_path(&self, path: &[Self::Action]) -> String {
        self.time(4, || self.model.render_path(path))
    }
}

/// `explore_tcp`: `one_way`, `duplex` and `deep`, then the four
/// mutations on `duplex`.
pub struct ExploreTcp {
    searches: Vec<(String, TcpModelConfig)>,
    counters: Counters,
}

impl Workload for ExploreTcp {
    fn setup(_seed: u64, scale: Scale, _threads: usize, checks: &mut Checks) -> Self {
        let mut searches = vec![("one_way".to_string(), TcpModelConfig::one_way())];
        if scale == Scale::Full {
            searches.push(("duplex".into(), TcpModelConfig::duplex()));
            searches.push(("deep".into(), TcpModelConfig::deep()));
            for m in ALL_TCP_MUTATIONS {
                searches.push((
                    format!("duplex_{}", snake(&format!("{m:?}"))),
                    TcpModelConfig::duplex().with_mutation(Some(m)),
                ));
            }
        }
        // Warm-up: the one-way space without loss, a small search.
        let warm = TcpModelConfig::one_way()
            .with_loss_budget(0)
            .with_retransmit_budget(0);
        let verdict = Checks::guard(|| TcpModel::new(warm).run_exhaustive())
            .and_then(|r| r.map_err(|e| e.to_string()))
            .and_then(|o| o.violation.map_or(Ok(()), |cx| Err(cx.to_string())));
        checks.unit("explore_tcp warm-up", verdict);
        ExploreTcp {
            searches,
            counters: Counters {
                rss_base: proc_status_bytes("VmRSS"),
                ..Counters::default()
            },
        }
    }

    fn prefix_done(&self) -> bool {
        self.counters.searches > 0
    }

    fn slice(&mut self, checks: &mut Checks) -> Slice {
        let mut slice = Slice::default();
        for (name, cfg) in &self.searches {
            let model = TcpModel::new(*cfg);
            slice.add(self.counters.search(checks, name, || {
                model
                    .run_exhaustive()
                    .map(tcp_found)
                    .map_err(|e| e.to_string())
            }));
        }
        slice
    }

    fn traced(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> (Slice, Layers) {
        let mut slice = Slice::default();
        let (mut key_bytes, mut keys) = (0u64, 0u64);
        for (name, cfg) in &self.searches {
            let model = TcpModel::new(*cfg);
            let traced = TracedTcp {
                model: &model,
                calls: Default::default(),
                key_bytes: Cell::new(0),
            };
            tracer.next_unit();
            let out = tracer.span("sim.explore", |tr, id| {
                let out = Checks::guard(|| explore::explore(&traced, cfg.max_states))
                    .and_then(|r| r.map(tcp_found).map_err(|e| e.to_string()));
                for (call, agg) in TCP_CALLS.iter().zip(&traced.calls) {
                    tr.aggregate(call, id, agg.get());
                }
                out
            });
            key_bytes += traced.key_bytes.get();
            keys += traced.calls[1].get().count;
            let verdict = out.and_then(|(stats, violation)| {
                slice.work += stats.states as f64;
                checks.golden(name, outcome_json(&stats, violation))
            });
            checks.unit(name, verdict);
        }
        slice.secs = tracer.total_s("sim.explore");
        let mut layers: Layers = vec![("sim.explore.self_s".into(), tracer.self_s("sim.explore"))];
        for (call, metric) in
            TCP_CALLS[..4]
                .iter()
                .zip(["successors_s", "canonical_s", "check_s", "quiescent_s"])
        {
            layers.push((format!("net.tcp.model.{metric}"), tracer.hot(call).0));
        }
        layers.push((
            "net.tcp.model.key_bytes_per_state".into(),
            key_bytes as f64 / keys.max(1) as f64,
        ));
        (slice, layers)
    }

    fn shape(&self) -> Layers {
        self.counters.shape()
    }
}

// ---------------------------------------------------------------------
// explore_moesi
// ---------------------------------------------------------------------

/// `explore_moesi`: MOESI with two agents over two lines, then the
/// `modelcheck` experiment's four clean configurations and its four
/// mutations.
pub struct ExploreMoesi {
    searches: Vec<(String, ExploreConfig)>,
    counters: Counters,
}

/// The MOESI searches of the full workload, by golden and metric name.
pub fn moesi_searches(scale: Scale) -> Vec<(String, ExploreConfig)> {
    let two = ExploreConfig::two_agent;
    if scale == Scale::Mini {
        return vec![("two_agent".into(), two())];
    }
    let mut searches = vec![
        ("two_agent_2lines".to_string(), two().with_lines(2)),
        ("two_agent".into(), two()),
        ("two_agent_no_e".into(), two().with_e_grant(false)),
        ("three_agent".into(), ExploreConfig::three_agent()),
        (
            "two_agent_2lines_1write".into(),
            two().with_lines(2).with_max_writes(1),
        ),
    ];
    for m in ALL_MUTATIONS {
        searches.push((
            format!("mut_{}", snake(&format!("{m:?}"))),
            two().with_mutation(Some(m)),
        ));
    }
    searches
}

impl Workload for ExploreMoesi {
    fn setup(_seed: u64, scale: Scale, _threads: usize, checks: &mut Checks) -> Self {
        let warm = ExploreConfig::two_agent().with_max_writes(1);
        let verdict = Checks::guard(|| Explorer::new(warm).run_exhaustive())
            .and_then(|r| r.map_err(|e| e.to_string()))
            .and_then(|o| o.violation.map_or(Ok(()), |v| Err(v.to_string())));
        checks.unit("explore_moesi warm-up", verdict);
        ExploreMoesi {
            searches: moesi_searches(scale),
            counters: Counters {
                rss_base: proc_status_bytes("VmRSS"),
                ..Counters::default()
            },
        }
    }

    fn prefix_done(&self) -> bool {
        self.counters.searches > 0
    }

    fn slice(&mut self, checks: &mut Checks) -> Slice {
        let mut slice = Slice::default();
        for (name, cfg) in &self.searches {
            let explorer = Explorer::new(*cfg);
            slice.add(self.counters.search(checks, name, || {
                explorer
                    .run_exhaustive()
                    .map(moesi_found)
                    .map_err(|e| e.to_string())
            }));
        }
        slice
    }

    /// `MoesiModel` is private, so MOESI is traced only at the
    /// `Explorer::run_exhaustive` boundary.
    fn traced(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> (Slice, Layers) {
        let mut slice = Slice::default();
        let mut layers = Layers::new();
        for (name, cfg) in &self.searches {
            let explorer = Explorer::new(*cfg);
            let span = format!("eci.explore.{name}.run");
            tracer.next_unit();
            let out = tracer.span(&span, |_, _| {
                Checks::guard(|| explorer.run_exhaustive())
                    .and_then(|r| r.map_err(|e| e.to_string()))
            });
            let secs = tracer.total_s(&span);
            slice.secs += secs;
            layers.push((format!("{span}_s"), secs));
            let verdict = out.and_then(|o| {
                let (stats, violation) = moesi_found(o);
                slice.work += stats.states as f64;
                checks.golden(name, outcome_json(&stats, violation))
            });
            checks.unit(name, verdict);
        }
        (slice, layers)
    }

    fn shape(&self) -> Layers {
        self.counters.shape()
    }
}
