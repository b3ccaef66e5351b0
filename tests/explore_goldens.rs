//! Explorer goldens: the state counts and counterexamples of the
//! benchmark's `explore_moesi` and `explore_tcp` searches
//! (`benches/benchmark/golden.json`), pinned in the default test run.
//!
//! Every number here is a property of the models, not of the search
//! machinery: changing how keys are encoded, hashed or stored must move
//! none of them. A digest is FNV-1a over the rendered counterexample.

use enzian::eci::explore::{ExploreConfig, Explorer, Mutation};
use enzian::net::tcp::{
    TcpModel, TcpModelConfig, TcpMutation, TcpViolationKind, ALL_TCP_MUTATIONS,
};
use enzian::sim::explore::{self, SearchOutcome, SearchStats};
use enzian::sim::Fnv;

/// (states, transitions, frontier peak, max depth)
type Stats = (u64, u64, u64, u64);

fn stats(s: SearchStats) -> Stats {
    (s.states, s.transitions, s.frontier_peak, s.max_depth)
}

fn digest(rendered: &str) -> u64 {
    let mut d = Fnv::new();
    d.bytes(rendered.as_bytes());
    d.finish()
}

#[test]
fn clean_moesi_searches_keep_their_state_counts() {
    let cases = [
        (
            "two_agent",
            ExploreConfig::two_agent(),
            (557, 1_150, 68, 23),
        ),
        (
            "two_agent_no_e",
            ExploreConfig::two_agent().with_e_grant(false),
            (468, 961, 51, 23),
        ),
        (
            "three_agent",
            ExploreConfig::three_agent(),
            (3_648, 10_932, 384, 32),
        ),
    ];
    for (name, cfg, golden) in cases {
        let out = Explorer::new(cfg).run_exhaustive().expect("within budget");
        assert!(
            out.violation.is_none(),
            "{name}: {}",
            out.violation.unwrap()
        );
        assert_eq!(stats(out.stats), golden, "{name}");
    }
}

#[test]
fn moesi_mutations_keep_their_counterexamples() {
    let cases = [
        (
            Mutation::GrantSharedWhileOwned,
            (42, 68, 15, 6),
            "SWMR invariant",
            0x2fa9_38a0_1f9c_249d,
        ),
        (
            Mutation::SkipInvalidateOnUpgrade,
            (220, 366, 57, 11),
            "SWMR invariant",
            0x69ac_0a84_2d66_296f,
        ),
        (
            Mutation::ForgetVictimData,
            (103, 159, 31, 8),
            "data-value invariant",
            0x95c0_d6e8_036d_c218,
        ),
        (
            Mutation::DropProbeAck,
            (81, 127, 26, 8),
            "deadlock",
            0x8ea4_6589_b57c_4fd0,
        ),
    ];
    for (m, golden, kind, cx) in cases {
        let cfg = ExploreConfig::two_agent().with_mutation(Some(m));
        let out = Explorer::new(cfg).run_exhaustive().expect("within budget");
        let v = out.violation.unwrap_or_else(|| panic!("{m:?} not caught"));
        assert_eq!(stats(out.stats), golden, "{m:?}");
        assert_eq!(v.kind.to_string(), kind, "{m:?}");
        assert_eq!(digest(&v.to_string()), cx, "{m:?}:\n{v}");
    }
}

#[test]
fn one_way_tcp_search_keeps_its_state_count() {
    let out = TcpModel::new(TcpModelConfig::one_way())
        .run_exhaustive()
        .expect("within budget");
    assert!(out.violation.is_none(), "{}", out.violation.unwrap());
    assert_eq!(stats(out.stats), (129_835, 673_631, 18_683, 26));
}

#[test]
fn tcp_mutations_keep_their_counterexamples() {
    let cases = [
        (
            TcpMutation::DataInSynSent,
            (9, 9, 5, 3),
            "protocol legality",
            0xc663_759b_1fc2_7e5b,
        ),
        (
            TcpMutation::SkipFinAck,
            (6_384, 17_169, 3_333, 10),
            "deadlock",
            0x7d66_3aa3_0df2_9ff2,
        ),
        (
            TcpMutation::SkipTimeWait,
            (32_631, 101_433, 15_791, 12),
            "deadlock",
            0x977d_0a1b_6234_fd84,
        ),
        (
            TcpMutation::SwapCloseOrder,
            (17_253, 49_080, 9_007, 11),
            "deadlock",
            0xed31_3c75_f303_ad97,
        ),
    ];
    for (m, golden, kind, cx) in cases {
        let cfg = TcpModelConfig::duplex().with_mutation(Some(m));
        let out = TcpModel::new(cfg).run_exhaustive().expect("within budget");
        let v = out.violation.unwrap_or_else(|| panic!("{m:?} not caught"));
        assert_eq!(stats(out.stats), golden, "{m:?}");
        assert_eq!(v.violation.to_string(), kind, "{m:?}");
        assert_eq!(digest(&v.to_string()), cx, "{m:?}:\n{v}");
    }
}

#[test]
fn tcp_searches_match_the_serial_explorer() {
    // `run_exhaustive` may expand on a second thread; the serial search
    // must find the same statistics and the same counterexamples.
    fn seen(out: SearchOutcome<TcpViolationKind>) -> (SearchStats, Option<String>) {
        (out.stats, out.violation.map(|cx| cx.to_string()))
    }
    let mut configs = vec![TcpModelConfig::one_way()];
    configs.extend(ALL_TCP_MUTATIONS.map(|m| TcpModelConfig::duplex().with_mutation(Some(m))));
    for cfg in configs {
        let model = TcpModel::new(cfg);
        let serial = explore::explore(&model, cfg.max_states).expect("within budget");
        let run = model.run_exhaustive().expect("within budget");
        assert_eq!(seen(serial), seen(run), "{:?}", cfg.mutation);
    }
}
