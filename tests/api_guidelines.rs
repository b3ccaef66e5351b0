//! API-guideline conformance checks (C-SEND-SYNC, C-DEBUG): the types
//! users will move across threads stay `Send`/`Sync`, and public types
//! render a non-empty `Debug`.

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

#[test]
fn core_model_types_are_send() {
    // Everything a user would run on a worker thread.
    assert_send::<enzian::eci::EciSystem>();
    assert_send::<enzian::eci::message::Message>();
    assert_send::<enzian::eci::checker::ProtocolChecker>();
    assert_send::<enzian::mem::MemoryController>();
    assert_send::<enzian::mem::Store>();
    assert_send::<enzian::cache::L2Cache>();
    assert_send::<enzian::pcie::DmaEngine>();
    assert_send::<enzian::net::EthLink>();
    assert_send::<enzian::net::TcpEngine>();
    assert_send::<enzian::apps::Ensemble>();
    assert_send::<enzian::apps::KvStore>();
    assert_send::<enzian::platform::EnzianCluster>();
    assert_send::<enzian::sim::SimRng>();
    assert_send::<enzian::eci::Explorer>();
    assert_send::<enzian::eci::ExploreOutcome>();
    assert_send::<enzian::eci::ViolationReport>();
}

#[test]
fn value_types_are_sync() {
    assert_sync::<enzian::sim::Time>();
    assert_sync::<enzian::sim::Duration>();
    assert_sync::<enzian::mem::Addr>();
    assert_sync::<enzian::cache::LineState>();
    assert_sync::<enzian::bmc::RailId>();
    assert_sync::<enzian::eci::message::TxnId>();
    assert_sync::<enzian::eci::ExploreConfig>();
    assert_sync::<enzian::eci::ExploreStats>();
    assert_sync::<enzian::eci::Mutation>();
    assert_sync::<enzian::net::CongestionController>();
}

#[test]
fn debug_is_never_empty() {
    // A sample across crates; Debug must produce useful text.
    let samples: Vec<String> = vec![
        format!("{:?}", enzian::sim::Time::ZERO),
        format!("{:?}", enzian::mem::Addr(0)),
        format!("{:?}", enzian::cache::LineState::Invalid),
        format!("{:?}", enzian::bmc::RailId::CpuVdd),
        format!("{:?}", enzian::eci::EciSystemConfig::enzian()),
        format!("{:?}", enzian::net::tcp::TcpStackConfig::fpga_coyote()),
        format!(
            "{:?}",
            enzian::net::CcAlgorithm::Cubic.build(&enzian::net::tcp::TcpStackConfig::fpga_coyote())
        ),
        format!("{:?}", enzian::apps::reduction::ReductionMode::Y8),
        format!("{:?}", enzian::eci::ExploreConfig::two_agent()),
        format!("{:?}", enzian::eci::ALL_MUTATIONS),
    ];
    for s in samples {
        assert!(!s.is_empty(), "empty Debug representation");
    }
}

#[test]
fn errors_implement_std_error() {
    fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
    assert_error::<enzian::eci::WireError>();
    assert_error::<enzian::bmc::i2c::I2cError>();
    assert_error::<enzian::bmc::smbus::SmbusError>();
    assert_error::<enzian::bmc::SequenceError>();
    assert_error::<enzian::bmc::boot::BootError>();
    assert_error::<enzian::shell::MmuError>();
    assert_error::<enzian::shell::ShellError>();
    assert_error::<enzian::apps::kvs::KvError>();
    assert_error::<enzian::platform::bdk::BdkError>();
    assert_error::<enzian::sim::LivelockError>();
    assert_error::<enzian::eci::DirStepError>();
    assert_error::<enzian::eci::ExploreError>();
    assert_error::<enzian::net::LossyMultiFlow>();
}

/// The `Instrumented` trait is object-safe, so heterogeneous component
/// collections can export into one registry; the builder-style configs
/// keep their `with_*` chain usable from outside the crate.
#[test]
fn instrumented_is_object_safe_and_builders_chain() {
    use enzian::sim::Instrumented;
    let sys = enzian::eci::EciSystem::new(enzian::eci::EciSystemConfig::enzian());
    let cache = enzian::cache::L2Cache::new(enzian::cache::L2Config::thunderx1());
    let components: Vec<(&str, &dyn Instrumented)> = vec![("eci", &sys), ("l2", &cache)];
    let mut reg = enzian::sim::MetricsRegistry::new();
    for (name, c) in components {
        c.export_metrics(name, &mut reg);
    }
    assert!(!reg.export_text().is_empty());

    let cfg = enzian::eci::EciSystemConfig::enzian()
        .with_capture_trace(true)
        .with_mshr_entries(4);
    assert!(cfg.capture_trace);
    assert_eq!(cfg.mshr_entries, 4);
    let ex = enzian::eci::ExploreConfig::two_agent()
        .with_lines(2)
        .with_max_writes(1);
    assert_eq!((ex.lines, ex.max_writes), (2, 1));
}
