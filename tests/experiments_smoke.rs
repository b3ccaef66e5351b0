//! Smoke tests over the experiment drivers: every table/figure driver
//! produces the full set of series and renders non-empty output. (Deep
//! shape assertions live in `enzian-platform`'s unit tests; these keep
//! the `reproduce` binary's surface healthy.)

use enzian::platform::experiments::{self, fig11, fig12, fig3, fig9, ExperimentCtx};
use enzian::sim::MetricsRegistry;

#[test]
fn fig3_produces_all_platforms() {
    let points = fig3::run();
    assert_eq!(points.len(), 8);
    let rendered = fig3::render(&points);
    assert!(rendered.contains("Enzian (full ECI)"));
    assert!(rendered.contains("CAPI"));
}

#[test]
fn fig9_produces_all_bars() {
    let rows = fig9::run();
    assert_eq!(rows.len(), 8);
    let rendered = fig9::render(&rows);
    assert!(rendered.contains("Enzian"));
    assert!(rendered.contains("VCU118"));
    // The paper reference column is populated for every bar.
    for line in rendered.lines().skip(2) {
        assert!(!line.trim().is_empty());
    }
}

#[test]
fn fig11_and_table1_cover_all_modes() {
    let rows = fig11::run();
    assert_eq!(rows.len(), 3 * 48);
    let t1 = fig11::run_table1();
    assert_eq!(t1.len(), 3);
    let rendered = fig11::render(&rows, &t1);
    assert!(rendered.contains("Table 1"));
    assert!(rendered.contains("8bpp"));
    assert!(rendered.contains("4bpp"));
}

/// `Experiment::run` returns the same text the module's own `render`
/// makes of its typed `run()`: the registry path adds nothing and drops
/// nothing.
#[test]
fn registry_text_is_the_module_render() {
    let via_registry = |name: &str| {
        experiments::find(name)
            .unwrap()
            .run(&mut ExperimentCtx {
                reg: &mut MetricsRegistry::new(),
                threads: 1,
            })
            .text
    };
    assert_eq!(via_registry("fig3"), fig3::render(&fig3::run()));
    assert_eq!(via_registry("fig9"), fig9::render(&fig9::run()));
    assert_eq!(via_registry("fig12"), fig12::render(&fig12::run()));
}
