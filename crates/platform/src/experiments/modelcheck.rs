//! Model-checking sweep: exhaustive exploration of the ECI protocol.
//!
//! The paper validates its protocol implementation with *"assertion
//! checkers generated from the specification"* (§4.6); this experiment
//! runs the complementary static check: `enzian-eci`'s state-space
//! explorer enumerates **every** interleaving of small configurations
//! and proves the SWMR and data-value invariants hold, no state gets
//! stuck, and no credit deadlock exists. A mutation battery then
//! re-runs the smallest configuration with four known protocol bugs
//! injected and demands each one is caught with a decoded
//! counterexample — the self-test that keeps the checker honest.
//!
//! Every row is fully deterministic (canonicalized BFS, seeded walk),
//! so two runs render byte-identical `BENCH_modelcheck.json` files —
//! which CI asserts with a byte compare.

use enzian_eci::{ExploreConfig, ExploreOutcome, Explorer, ALL_MUTATIONS};
use enzian_sim::MetricsRegistry;

pub use super::model_sweep::ModelCheckRow;

/// The sweep through the [`Experiment`](super::Experiment) trait.
pub static DRIVER: super::model_sweep::Driver = super::model_sweep::Driver {
    name: "modelcheck",
    title: "Model check — exhaustive ECI protocol exploration + mutation self-test (§4.6)",
    run: run_instrumented,
};

/// Seed for the random-walk row (any value works; fixed for CI).
const WALK_SEED: u64 = 7;
/// Steps of the random-walk row.
const WALK_STEPS: u64 = 4_000;

/// The sweep: clean configurations that must explore violation-free,
/// then the mutation battery that must trip.
fn sweep() -> Vec<(String, ExploreConfig, bool)> {
    let mut configs = vec![
        (
            "2 agents, 1 line".to_string(),
            ExploreConfig::two_agent(),
            false,
        ),
        (
            "2 agents, 1 line, no E grant".to_string(),
            ExploreConfig::two_agent().with_e_grant(false),
            false,
        ),
        (
            "3 agents, 1 line".to_string(),
            ExploreConfig::three_agent(),
            false,
        ),
        (
            "2 agents, 2 lines, 1 write".to_string(),
            ExploreConfig::two_agent().with_lines(2).with_max_writes(1),
            false,
        ),
    ];
    for m in ALL_MUTATIONS {
        configs.push((
            format!("2 agents, 1 line + {m:?}"),
            ExploreConfig::two_agent().with_mutation(Some(m)),
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
/// fails to, or an exploration hits its state budget — each of those is
/// a protocol (or checker) bug this experiment exists to surface.
pub fn run() -> Vec<ModelCheckRow> {
    run_instrumented(&mut MetricsRegistry::new())
}

/// [`run`], publishing each row's deterministic search statistics into
/// `reg` under `modelcheck.*`.
pub fn run_instrumented(reg: &mut MetricsRegistry) -> Vec<ModelCheckRow> {
    let mut rows = Vec::new();
    for (name, cfg, expect_violation) in sweep() {
        let outcome = Explorer::new(cfg)
            .run_exhaustive()
            .unwrap_or_else(|e| panic!("{name}: exploration failed: {e}"));
        rows.push(row(name, "exhaustive", expect_violation, outcome));
    }

    // A long seeded random walk over a configuration too large to
    // exhaust: same determinism, different coverage profile.
    let walk_cfg = ExploreConfig::three_agent().with_lines(2);
    let outcome = Explorer::new(walk_cfg).random_walk(WALK_SEED, WALK_STEPS);
    rows.push(row(
        format!("3 agents, 2 lines walk (seed {WALK_SEED})"),
        "walk",
        false,
        outcome,
    ));

    DRIVER.publish(&rows, reg);
    rows
}

fn row(
    name: String,
    mode: &'static str,
    expect_violation: bool,
    outcome: ExploreOutcome,
) -> ModelCheckRow {
    ModelCheckRow {
        name,
        mode,
        stats: outcome.stats,
        violation: outcome.violation.map(|v| v.kind.to_string()),
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

    #[test]
    fn sweep_explores_clean_and_catches_every_mutation() {
        let rows = run();
        // 4 clean exhaustive + 4 mutations + 1 walk.
        assert_eq!(rows.len(), 9);
        for r in &rows {
            assert_eq!(r.violation.is_some(), r.expect_violation, "{}", r.name);
            assert!(r.stats.states > 0 && r.stats.transitions > 0, "{}", r.name);
        }
        // The exhaustive spaces have known sizes; pin the smallest so a
        // silently shrunken search can't masquerade as a clean one.
        assert!(rows[0].stats.states > 500, "2-agent space collapsed");
        let caught: Vec<_> = rows.iter().filter_map(|r| r.violation.as_deref()).collect();
        assert!(caught.contains(&"SWMR invariant"));
        assert!(caught.contains(&"data-value invariant"));
        assert!(caught.contains(&"deadlock"));
    }

    #[test]
    fn sweep_is_deterministic() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        assert_eq!(run_instrumented(&mut a), run_instrumented(&mut b));
        assert_eq!(a.export_text(), b.export_text());
        assert_eq!(a.export_json(), b.export_json());
    }

    #[test]
    fn render_lists_every_configuration() {
        let rows = run();
        let s = render(&rows);
        for r in &rows {
            assert!(s.contains(&r.name), "{} missing from table", r.name);
        }
    }
}
