//! TCP model check: bounded exploration of the connection FSM.
//!
//! The generic exploration core ([`enzian_sim::explore`]) that proves
//! the ECI coherence protocol safe (`modelcheck`) is aimed here at the
//! *other* protocol the platform implements: the TCP connection state
//! machine. [`TcpModel`] drives the real [`enzian_net::tcp::Connection`]
//! transition relation — not a copy of it — over an abstract channel
//! with bounded loss, reordering, and duplication, and the sweep proves
//! that no illegal transition is reachable, no configuration deadlocks
//! short of `Closed`, and both endpoints converge after a FIN exchange
//! even when the adversary retransmits or drops teardown segments.
//!
//! A mutation battery then re-runs the duplex configuration with four
//! seeded FSM bugs (dropping TimeWait, accepting data in SYN_SENT,
//! skipping the FIN ack, swapping the close ordering) and demands each
//! one is caught with a counterexample rendered through the real
//! 28-byte segment codec — the self-test that keeps the checker honest.
//!
//! Every row is fully deterministic (canonicalized BFS, seeded walk),
//! so two runs render byte-identical `BENCH_tcp_explore.json` files —
//! which CI asserts with a byte compare.

use enzian_net::tcp::{TcpModel, TcpModelConfig, TcpViolationKind, ALL_TCP_MUTATIONS};
use enzian_sim::explore::SearchOutcome;
use enzian_sim::MetricsRegistry;

pub use super::model_sweep::ModelCheckRow;

/// The sweep through the [`Experiment`](super::Experiment) trait.
pub static DRIVER: super::model_sweep::Driver = super::model_sweep::Driver {
    name: "tcp_explore",
    title: "TCP model check — bounded exploration of the connection FSM + mutation self-test",
    run: run_instrumented,
};

/// Seed for the random-walk row (any value works; fixed for CI).
const WALK_SEED: u64 = 7;
/// Steps of the random-walk row.
const WALK_STEPS: u64 = 4_000;

/// The acceptance bar: the primary clean configuration must exhaust a
/// space of at least this many states with zero violations.
const MIN_CLEAN_STATES: u64 = 10_000;

/// The sweep: clean configurations that must explore violation-free,
/// then the mutation battery that must trip.
fn sweep() -> Vec<(String, TcpModelConfig, bool)> {
    let mut configs = vec![
        (
            "one-way data, 1 loss".to_string(),
            TcpModelConfig::one_way(),
            false,
        ),
        (
            "duplex data, 1 loss".to_string(),
            TcpModelConfig::duplex(),
            false,
        ),
        (
            "one-way data, 1 loss, 1 dup".to_string(),
            TcpModelConfig::deep(),
            false,
        ),
    ];
    for m in ALL_TCP_MUTATIONS {
        configs.push((
            format!("duplex + {m:?}"),
            TcpModelConfig::duplex().with_mutation(Some(m)),
            true,
        ));
    }
    configs
}

/// Runs the whole sweep.
///
/// # Panics
///
/// Panics if a clean configuration reports a violation, a mutated one
/// fails to, an exploration hits its state budget, or the primary clean
/// space shrinks below the 10⁴-state acceptance bar — each of those is
/// a protocol (or checker) bug this experiment exists to surface.
pub fn run() -> Vec<ModelCheckRow> {
    run_instrumented(&mut MetricsRegistry::new())
}

/// [`run`], publishing each row's deterministic search statistics into
/// `reg` under `tcp_explore.*`.
pub fn run_instrumented(reg: &mut MetricsRegistry) -> Vec<ModelCheckRow> {
    let mut rows = Vec::new();
    for (name, cfg, expect_violation) in sweep() {
        let outcome = TcpModel::new(cfg)
            .run_exhaustive()
            .unwrap_or_else(|e| panic!("{name}: exploration failed: {e}"));
        rows.push(row(name, "exhaustive", expect_violation, outcome));
    }

    // A long seeded random walk over the configuration too large to
    // exhaust here (duplex data under loss *and* duplication): same
    // determinism, different coverage profile.
    let walk_cfg = TcpModelConfig::deep().with_data_b(1);
    let outcome = TcpModel::new(walk_cfg).random_walk(WALK_SEED, WALK_STEPS);
    rows.push(row(
        format!("duplex + dup walk (seed {WALK_SEED})"),
        "walk",
        false,
        outcome,
    ));

    assert!(
        rows[0].stats.states >= MIN_CLEAN_STATES,
        "the one-way space collapsed to {} states (bar: {MIN_CLEAN_STATES})",
        rows[0].stats.states
    );
    DRIVER.publish(&rows, reg);
    rows
}

fn row(
    name: String,
    mode: &'static str,
    expect_violation: bool,
    outcome: SearchOutcome<TcpViolationKind>,
) -> ModelCheckRow {
    ModelCheckRow {
        name,
        mode,
        stats: outcome.stats,
        violation: outcome.violation.map(|c| c.violation.to_string()),
        expect_violation,
    }
}

/// Renders the sweep as a table.
pub fn render(rows: &[ModelCheckRow]) -> String {
    DRIVER.render(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full sweep (duplex exhausts ~1.2M states) only runs in
    // release through `reproduce tcp_explore`; here we audit the axes
    // so a sizing regression fails fast without paying for the search.
    #[test]
    fn sweep_covers_clean_budgets_and_every_mutation() {
        let sweep = sweep();
        let clean: Vec<_> = sweep.iter().filter(|(_, _, v)| !v).collect();
        let mutated: Vec<_> = sweep.iter().filter(|(_, _, v)| *v).collect();
        assert_eq!(clean.len(), 3, "one-way, duplex, and duplication budgets");
        assert_eq!(mutated.len(), ALL_TCP_MUTATIONS.len());
        for m in ALL_TCP_MUTATIONS {
            assert!(
                mutated
                    .iter()
                    .any(|(n, _, _)| n.contains(&format!("{m:?}"))),
                "mutation battery missing {m:?}"
            );
        }
    }

    // The cheapest full row end-to-end: the one-way configuration must
    // clear the acceptance bar clean, deterministically.
    #[test]
    fn one_way_row_clears_the_acceptance_bar() {
        let (name, cfg, _) = sweep().remove(0);
        let a = TcpModel::new(cfg)
            .run_exhaustive()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(a.violation.is_none(), "{name} must be clean");
        assert!(a.stats.states >= MIN_CLEAN_STATES);
        let b = TcpModel::new(cfg).run_exhaustive().unwrap();
        assert_eq!(a.stats, b.stats, "exploration must be deterministic");
    }
}
