//! Output helpers for the [`reproduce`](../src/bin/reproduce.rs) binary,
//! which regenerates every evaluation series as text, CSV, and
//! machine-readable `BENCH_<figure>.json` snapshots of the telemetry
//! registry. Every BENCH file and CSV is a pure function of the seed:
//! `scripts/determinism.sh` checks both byte for byte across reruns and
//! thread counts. Host time is measured by the separate benchmark under
//! `benches/benchmark`.

use enzian_sim::telemetry::{Json, MetricsRegistry};

/// Renders one experiment's telemetry snapshot as the machine-readable
/// `BENCH_<figure>.json` document (schema 1; see `docs/BENCH_SCHEMA.md`).
///
/// The document carries only simulated quantities — figure id, sim time,
/// the driver-defined component-event count, the full metric registry,
/// and a trace-ring summary — so two same-seed runs render byte-identical
/// output.
pub fn bench_json(figure: &str, reg: &MetricsRegistry) -> String {
    Json::obj(vec![
        ("figure", Json::Str(figure.into())),
        ("schema", Json::U64(1)),
        (
            "sim_time_ps",
            Json::U64(reg.counter(&format!("{figure}.sim_time_ps"))),
        ),
        (
            "events_executed",
            Json::U64(reg.counter(&format!("{figure}.events_executed"))),
        ),
        ("metrics", reg.to_json()),
        ("trace", reg.trace().to_json_summary()),
    ])
    .render_pretty()
}

/// Writes rows as CSV (header + records) into a string.
pub fn to_csv<R: AsRef<[String]>>(header: &[&str], rows: &[R]) -> String {
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.as_ref().join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_shape() {
        let rows = vec![vec!["1".to_string(), "2".to_string()]];
        let s = to_csv(&["a", "b"], &rows);
        assert_eq!(s, "a,b\n1,2\n");
    }

    #[test]
    fn bench_json_carries_figure_header_and_metrics() {
        let mut reg = MetricsRegistry::new();
        reg.counter_set("figx.sim_time_ps", 1_234);
        reg.counter_set("figx.events_executed", 99);
        reg.gauge_set("figx.bandwidth_gib", 2.5);
        let s = bench_json("figx", &reg);
        assert!(s.contains("\"figure\": \"figx\""));
        assert!(s.contains("\"schema\": 1"));
        assert!(s.contains("\"sim_time_ps\": 1234"));
        assert!(s.contains("\"events_executed\": 99"));
        assert!(s.contains("\"figx.bandwidth_gib\": 2.5"));
        assert!(s.ends_with('\n'));
        // Determinism: rendering the same registry twice is byte-identical.
        assert_eq!(s, bench_json("figx", &reg));
    }
}
