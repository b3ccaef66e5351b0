//! `service`: the replicated KV service under every fault scenario,
//! over a stream of seeds, each run audited.
//!
//! Units are `(seed, scenario)` runs of `ServiceConfig::standard()`
//! through `run_parallel`, each followed by `verify_linearizable` and
//! `audit_zero_lost_acks`. The first four units use the standard seed,
//! so their digests are the `BENCH_service.json` ones and are checked
//! against the goldens on every run; after them the seeds are
//! `seed · 2^16 + i`. At the default seed a digest over the first 64
//! derived seeds' runs is pinned too.
//!
//! `audit_zero_lost_acks` fails for some seeds under `RollingCrashes`
//! and, more rarely, `PartitionHeal` — a known, unfixed service bug
//! (see `README.md` for the reproducers). Those runs are counted in
//! `platform.service.<scenario>.audit_failures`, not as failed units;
//! at the default seed the set of seeds that fail is pinned by the
//! goldens, so a change to it fails the run. A lost acknowledged write
//! in any other scenario, or a non-linearizable log anywhere, fails the
//! unit.

use std::time::Instant;

use enzian_platform::{FaultScenario, ServiceConfig, ServiceRunReport};

use super::{Checks, Fnv, Layers, ParTotals, Scale, Slice, Workload};
use crate::json::{hex, Json};
use crate::trace::Tracer;

const SCENARIOS: usize = 4;

/// `service` workload state.
pub struct Service {
    base: ServiceConfig,
    seed: u64,
    threads: usize,
    scale: Scale,
    /// Units every run does first: the standard seed, then the derived
    /// seeds the goldens cover.
    prefix_units: u64,
    slice_s: f64,
    next: u64,
    /// Digest over the prefix's derived-seed runs.
    prefix_digest: Fnv,
    /// Per scenario, the derived seeds of the prefix whose run lost an
    /// acknowledged write.
    lost_ack_seeds: [Vec<u64>; SCENARIOS],
}

/// What one audited run produced.
struct Audited {
    report: ServiceRunReport,
    linearizable: Result<(), String>,
    lost_acks: Result<(), String>,
}

impl Service {
    /// Unit `k`'s scenario and configuration.
    fn unit(&self, k: u64) -> (FaultScenario, ServiceConfig) {
        let scenario = FaultScenario::all()[(k % SCENARIOS as u64) as usize];
        let cfg = if k < SCENARIOS as u64 {
            self.base
        } else {
            let i = (k - SCENARIOS as u64) / SCENARIOS as u64;
            self.base
                .with_seed(self.seed.wrapping_mul(1 << 16).wrapping_add(i))
        };
        (scenario, cfg.with_scenario(scenario))
    }

    fn audit(cfg: &ServiceConfig, report: ServiceRunReport) -> Audited {
        Audited {
            linearizable: report.verify_linearizable(cfg.store),
            lost_acks: report.audit_zero_lost_acks(),
            report,
        }
    }

    /// Judges unit `k`. Returns whether it lost an acknowledged write
    /// in a scenario known to expose that bug.
    fn verify(
        checks: &mut Checks,
        k: u64,
        cfg: &ServiceConfig,
        a: &Audited,
    ) -> Result<bool, String> {
        a.linearizable.clone()?;
        let prone = matches!(
            cfg.scenario,
            FaultScenario::RollingCrashes | FaultScenario::PartitionHeal
        );
        let known_defect = match &a.lost_acks {
            Ok(()) => false,
            Err(_) if prone && k >= SCENARIOS as u64 => true,
            Err(e) => return Err(e.clone()),
        };
        if k < SCENARIOS as u64 {
            checks.golden(
                &format!("standard.{}.digest", cfg.scenario.label()),
                hex(a.report.digest),
            )?;
        }
        Ok(known_defect)
    }

    /// Folds a prefix unit into the prefix record, and checks the record
    /// once the prefix is complete: a digest over every derived-seed
    /// run, and per scenario the seeds that lost an acknowledged write.
    fn prefix(
        &mut self,
        checks: &mut Checks,
        k: u64,
        cfg: &ServiceConfig,
        a: &Audited,
        defect: bool,
    ) -> Result<(), String> {
        if k >= SCENARIOS as u64 {
            self.prefix_digest.u64(a.report.digest);
        }
        if defect {
            self.lost_ack_seeds[(k % SCENARIOS as u64) as usize].push(cfg.seed);
        }
        if k + 1 < self.prefix_units {
            return Ok(());
        }
        let (seed, scale) = (self.seed, self.scale);
        checks.seeded(
            seed,
            scale,
            "derived.prefix_digest",
            hex(self.prefix_digest.0),
        )?;
        for (scenario, seeds) in FaultScenario::all().iter().zip(&self.lost_ack_seeds) {
            let seeds = Json::Arr(seeds.iter().map(|&s| hex(s)).collect());
            checks.seeded(
                seed,
                scale,
                &format!("{}.lost_ack_seeds", scenario.label()),
                seeds,
            )?;
        }
        Ok(())
    }

    /// Runs, audits and counts unit `k`.
    fn step(&mut self, checks: &mut Checks, k: u64) -> Slice {
        let (scenario, cfg) = self.unit(k);
        let t = Instant::now();
        let out = Checks::guard(|| Self::audit(&cfg, cfg.run_parallel(self.threads)));
        let secs = t.elapsed().as_secs_f64();
        let mut work = 0.0;
        let verdict = out.and_then(|a| {
            work = a.report.total_client_ops as f64;
            let defect = Self::verify(checks, k, &cfg, &a)?;
            if k < self.prefix_units {
                self.prefix(checks, k, &cfg, &a, defect)?;
            }
            Ok(())
        });
        checks.unit(
            &format!("service {} seed {:#x}", scenario.label(), cfg.seed),
            verdict,
        );
        Slice { work, secs }
    }
}

impl Workload for Service {
    fn setup(seed: u64, scale: Scale, threads: usize, checks: &mut Checks) -> Self {
        let (base, seeds, slice_s) = match scale {
            Scale::Full => (ServiceConfig::standard(), 64, 0.5),
            Scale::Mini => (ServiceConfig::small(), 2, 0.0),
        };
        let warm = ServiceConfig::small();
        let verdict = Checks::guard(|| {
            let a = Self::audit(&warm, warm.run_parallel(threads));
            a.linearizable.and(a.lost_acks)
        })
        .and_then(|r| r);
        checks.unit("service warm-up", verdict);
        Service {
            base,
            seed,
            threads,
            scale,
            prefix_units: (1 + seeds) * SCENARIOS as u64,
            slice_s,
            next: 0,
            prefix_digest: Fnv::default(),
            lost_ack_seeds: Default::default(),
        }
    }

    fn prefix_done(&self) -> bool {
        self.next >= self.prefix_units
    }

    fn slice(&mut self, checks: &mut Checks) -> Slice {
        let mut slice = Slice::default();
        loop {
            let k = self.next;
            self.next += 1;
            slice.add(self.step(checks, k));
            if slice.secs >= self.slice_s {
                return slice;
            }
        }
    }

    /// The prefix again, traced, with `run_reference` on the same inputs
    /// for `sim.par.overhead`.
    fn traced(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> (Slice, Layers) {
        let mut slice = Slice::default();
        let mut par = ParTotals::default();
        let mut failures = [0u64; SCENARIOS];
        for k in 0..self.prefix_units {
            let (scenario, cfg) = self.unit(k);
            let label = scenario.label();
            tracer.next_unit();
            let (audited, reference) = tracer.span("platform.service.unit", |tr, _| {
                let report = tr.span(&format!("platform.service.{label}.run"), |_, _| {
                    Checks::guard(|| cfg.run_parallel(self.threads))
                });
                let audited = tr.span("platform.service.audit", |_, _| {
                    report.map(|r| Self::audit(&cfg, r))
                });
                let reference = tr.span(&format!("platform.service.{label}.reference"), |_, _| {
                    Checks::guard(|| cfg.run_reference())
                });
                (audited, reference)
            });
            let verdict = audited.and_then(|a| {
                slice.work += a.report.total_client_ops as f64;
                par.add(a.report.epochs, a.report.epochs_skipped, a.report.messages);
                reference
                    .and_then(|r| Checks::guard(|| a.report.assert_matches(&r)))
                    .and_then(|()| Self::verify(checks, k, &cfg, &a))
                    .map(|defect| failures[(k % SCENARIOS as u64) as usize] += u64::from(defect))
            });
            checks.unit(
                &format!("service traced {label} seed {:#x}", cfg.seed),
                verdict,
            );
        }
        let mut layers = Layers::new();
        let (mut par_s, mut ref_s) = (0.0, 0.0);
        for (scenario, failed) in FaultScenario::all().iter().zip(failures) {
            let label = scenario.label();
            let run_s = tracer.total_s(&format!("platform.service.{label}.run"));
            par_s += run_s;
            ref_s += tracer.total_s(&format!("platform.service.{label}.reference"));
            layers.push((format!("platform.service.{label}.run_s"), run_s));
            layers.push((
                format!("platform.service.{label}.audit_failures"),
                failed as f64,
            ));
        }
        let audit_s = tracer.total_s("platform.service.audit");
        slice.secs = par_s + audit_s;
        layers.push(("platform.service.audit_s".into(), audit_s));
        layers.extend(par.layers(par_s, ref_s));
        (slice, layers)
    }

    fn shape(&self) -> Layers {
        Layers::new()
    }
}
