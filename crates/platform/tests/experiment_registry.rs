//! Registry-wide invariants for the unified `Experiment` API.

use enzian_platform::experiments::{self, ExperimentCtx};
use enzian_sim::MetricsRegistry;

/// Every registered experiment must be documented in
/// `docs/BENCH_SCHEMA.md`: the schema index is the contract downstream
/// tooling reads, so an experiment without a `BENCH_<name>.json` entry
/// is unreviewable telemetry.
#[test]
fn every_experiment_has_a_bench_schema_entry() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/BENCH_SCHEMA.md");
    let schema =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    for e in experiments::registry() {
        let entry = format!("BENCH_{}.json", e.name());
        assert!(
            schema.contains(&entry),
            "docs/BENCH_SCHEMA.md has no entry for {entry}"
        );
    }
}

/// `find()` resolves every registered name and rejects unknown ones
/// with an error that lists the whole registry.
#[test]
fn find_round_trips_every_name() {
    for e in experiments::registry() {
        assert_eq!(experiments::find(e.name()).unwrap().name(), e.name());
    }
    let err = experiments::find("no_such_figure")
        .err()
        .expect("must fail");
    for e in experiments::registry() {
        assert!(err.contains(e.name()), "error does not list {}", e.name());
    }
}

/// The trait contract on a real (cheap) experiment: tables are
/// rectangular against their headers, and run returns the rendered
/// text.
#[test]
fn fig3_runs_through_the_trait_with_rectangular_tables() {
    let e = experiments::find("fig3").unwrap();
    assert!(!e.needs_threads());
    let mut reg = MetricsRegistry::new();
    let rows = e.run(&mut ExperimentCtx {
        reg: &mut reg,
        threads: 1,
    });
    assert_eq!(rows.tables.len(), 1);
    let t = &rows.tables[0];
    assert_eq!(t.name, "fig3");
    assert!(!t.rows.is_empty());
    for row in &t.rows {
        assert_eq!(row.len(), t.header.len(), "ragged row in {}", t.name);
    }
    assert!(rows.text.contains("Fig. 3"), "run lost the title");
    assert!(
        reg.export_json().contains("fig3.sim_time_ps"),
        "run did not publish the standard header counters"
    );
}
