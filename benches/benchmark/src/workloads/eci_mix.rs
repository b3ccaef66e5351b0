//! `eci_mix`: `EciSystem`s driven by batches of transactions through
//! the async API (`issue`, `run_to_idle_bounded`, `take_completion`).
//!
//! Each batch is a seed-drawn mix issued one FPGA clock apart:
//!
//! * 40 % streaming FPGA reads walking a 64 Ki-line CPU-homed footprint;
//! * 15 % FPGA writes and 20 % CPU reads and writes on random footprint
//!   lines;
//! * 5 % CPU reads and writes of FPGA-homed lines (the remote home);
//! * 20 % FPGA acquire→release pairs on a 512-line hot set. Each release
//!   queues behind its own acquire on the MSHR entry and writes back
//!   dirty data, so every batch has same-line conflicts and victims.
//!
//! One slice is one system's life: built and warmed up with one untimed
//! batch, then 64 timed batches. A system's resident memory grows with
//! every FPGA-initiated transaction it has served, so a fixed life per
//! system keeps `peak_rss_mib` a property of fixed work, not of how many
//! slices the host managed to run.
//!
//! Every batch is verified untimed: all transactions complete, the
//! protocol checker stays clean, and every read returns the latest
//! preceding write to its line in issue order (the MSHR serialises a
//! line FIFO). At the default seed a digest over the first system's
//! first batches must equal its golden.

use std::collections::HashMap;
use std::time::Instant;

use enzian_eci::{EciSystem, EciSystemConfig, TxnCompletion, TxnOp};
use enzian_mem::Addr;
use enzian_sim::{Duration, SimRng, Time};

use super::{mix, Checks, Fnv, Layers, Scale, Slice, Workload};
use crate::json::hex;
use crate::trace::{Agg, Tracer};

const LINE: u64 = 128;
const HOT_LINES: u64 = 512;
const FOOTPRINT_LINES: u64 = 64 * 1024;
const REMOTE_LINES: u64 = 4 * 1024;
/// Generous event budget per transaction: a livelock fails the batch
/// instead of hanging the run.
const EVENTS_PER_TXN_BUDGET: u64 = 1_000;

/// Sizes of one scale of the workload.
struct Sizes {
    txns_per_batch: u64,
    /// Timed batches in one system's life (one slice, or the traced pass).
    batches_per_system: u64,
    /// Batches of the first system, warm-up included, that the golden
    /// digest and the shape counters cover.
    prefix_batches: u64,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            txns_per_batch: 5_000,
            batches_per_system: 64,
            prefix_batches: 8,
        },
        Scale::Mini => Sizes {
            txns_per_batch: 1_000,
            batches_per_system: 1,
            prefix_batches: 2,
        },
    }
}

/// The shipping Enzian system with an MSHR table that never fills.
///
/// With the stock 256 entries a full table parks transactions in an
/// overflow queue, and a younger same-line transaction can then join
/// the live entry's waiters ahead of an older one still parked there:
/// same-line order breaks (an acquire is granted while the line is
/// still owned, or a read returns a later write). Sizing the table
/// above the batch keeps every run on the ordered path; see the
/// ignored `stock_mshr_table_keeps_same_line_order` test and
/// `README.md`.
fn config(sizes: &Sizes) -> EciSystemConfig {
    EciSystemConfig::enzian().with_mshr_entries(2 * sizes.txns_per_batch as usize + 2)
}

/// Counters of the prefix batches: the workload's shape, identical on
/// every run of one seed whatever the host speed.
#[derive(Debug, Clone, Copy, Default)]
struct Shape {
    txns: u64,
    events: u64,
    mshr_conflicts: u64,
    mshr_full_stalls: u64,
    vc_queue_stalls: u64,
    victims: u64,
    link_messages: u64,
}

/// One system under test with its input stream and the shadow memory
/// that checks it.
struct System {
    sys: EciSystem,
    rng: SimRng,
    stream: u64,
    seq: u64,
    batches: u64,
    events: u64,
    shadow: HashMap<u64, [u8; 128]>,
    digest: Fnv,
}

/// One batch's inputs, in issue order.
type Batch = Vec<(Time, Addr, TxnOp)>;

/// Per-batch host time split by call boundary.
#[derive(Default)]
struct BatchTimes {
    issue: Agg,
    run_s: f64,
    take: Agg,
}

impl System {
    fn new(cfg: EciSystemConfig, seed: u64) -> Self {
        System {
            sys: EciSystem::new(cfg),
            rng: SimRng::seed_from(seed),
            stream: 0,
            seq: 0,
            batches: 0,
            events: 0,
            shadow: HashMap::new(),
            digest: Fnv::default(),
        }
    }

    fn payload(&self) -> [u8; 128] {
        let mut d = [(self.seq & 0xff) as u8; 128];
        d[..8].copy_from_slice(&self.seq.to_le_bytes());
        d
    }

    fn cpu_line(line: u64) -> Addr {
        Addr(line * LINE)
    }

    /// Draws the next batch from the system's seed stream.
    fn next_batch(&mut self, txns: u64) -> Batch {
        let gap = Duration::from_hz(self.sys.config().fpga_clock_hz);
        let remote = self.sys.config().map.fpga_base();
        let mut batch = Batch::with_capacity(txns as usize + 1);
        while (batch.len() as u64) < txns {
            let at = Time::ZERO + gap * batch.len() as u64;
            let foot =
                |rng: &mut SimRng| Self::cpu_line(HOT_LINES + rng.next_below(FOOTPRINT_LINES));
            let r = self.rng.next_below(100);
            let (addr, op) = match r {
                0..=39 => {
                    self.stream = (self.stream + 1) % FOOTPRINT_LINES;
                    (Self::cpu_line(HOT_LINES + self.stream), TxnOp::FpgaRead)
                }
                40..=54 => (foot(&mut self.rng), TxnOp::FpgaWrite(self.payload())),
                55..=64 => (foot(&mut self.rng), TxnOp::CpuRead),
                65..=74 => (foot(&mut self.rng), TxnOp::CpuWrite(self.payload())),
                75..=79 => {
                    let addr = remote.offset(self.rng.next_below(REMOTE_LINES) * LINE);
                    let op = if r < 78 {
                        TxnOp::CpuRead
                    } else {
                        TxnOp::CpuWrite(self.payload())
                    };
                    (addr, op)
                }
                _ => {
                    let addr = Self::cpu_line(self.rng.next_below(HOT_LINES));
                    batch.push((at, addr, TxnOp::FpgaAcquire { exclusive: true }));
                    self.seq += 1;
                    (addr, TxnOp::FpgaRelease(Some(self.payload())))
                }
            };
            batch.push((Time::ZERO + gap * batch.len() as u64, addr, op));
            self.seq += 1;
        }
        batch
    }

    /// Issues, runs and collects one batch; only these calls are timed.
    fn drive(
        &mut self,
        batch: &Batch,
        times: &mut BatchTimes,
        traced: bool,
    ) -> Result<(Vec<Option<TxnCompletion>>, u64), String> {
        let sys = &mut self.sys;
        let handles: Vec<_> = if traced {
            batch
                .iter()
                .map(|&(at, addr, op)| times.issue.time(|| sys.issue(at, addr, op)))
                .collect()
        } else {
            batch
                .iter()
                .map(|&(at, addr, op)| sys.issue(at, addr, op))
                .collect()
        };
        let t = Instant::now();
        let events = sys
            .run_to_idle_bounded(EVENTS_PER_TXN_BUDGET * batch.len() as u64)
            .map_err(|e| format!("livelock: {e}"))?;
        times.run_s = t.elapsed().as_secs_f64();
        let done = if traced {
            handles
                .iter()
                .map(|&h| times.take.time(|| sys.take_completion(h)))
                .collect()
        } else {
            handles.iter().map(|&h| sys.take_completion(h)).collect()
        };
        Ok((done, events))
    }

    /// Checks one batch's completions against the shadow memory and
    /// folds them into the digest.
    fn verify(&mut self, batch: &Batch, done: &[Option<TxnCompletion>]) -> Result<(), String> {
        let first_seq = self.seq - batch.len() as u64;
        for (i, ((_, addr, op), c)) in batch.iter().zip(done).enumerate() {
            let c = c
                .as_ref()
                .ok_or_else(|| format!("txn {i} ({}) never completed", op.name()))?;
            if c.addr != *addr || c.op != op.name() || c.completed < c.issued {
                return Err(format!(
                    "txn {i}: completion {c:?} does not match its issue"
                ));
            }
            let line = self.shadow.entry(addr.0).or_insert([0; 128]);
            let expect_data = match op {
                TxnOp::FpgaRead | TxnOp::CpuRead | TxnOp::FpgaAcquire { .. } => Some(*line),
                TxnOp::FpgaWrite(d) | TxnOp::CpuWrite(d) | TxnOp::FpgaRelease(Some(d)) => {
                    *line = *d;
                    None
                }
                TxnOp::FpgaRelease(None) | TxnOp::FpgaUpgrade => None,
            };
            if c.data != expect_data {
                return Err(format!(
                    "txn {i} ({}) at {addr}: stale or missing data",
                    op.name()
                ));
            }
            self.digest.u64(first_seq + i as u64);
            self.digest.u64(c.completed.as_ps());
            if let Some(d) = &c.data {
                self.digest.bytes(d);
            }
        }
        let violations = self.sys.checker().violations();
        if !violations.is_empty() {
            return Err(format!(
                "{} protocol checker violations, first: {}",
                violations.len(),
                violations[0]
            ));
        }
        Ok(())
    }

    fn shape(&self) -> Shape {
        let e = self.sys.engine_stats();
        Shape {
            txns: self.seq,
            events: self.events,
            mshr_conflicts: e.mshr_conflicts,
            mshr_full_stalls: e.mshr_full_stalls,
            vc_queue_stalls: e.vc_queue_stalls,
            victims: self.sys.stats().victims,
            link_messages: self.sys.links().messages_sent(),
        }
    }
}

/// `eci_mix` workload state.
pub struct EciMix {
    sys: System,
    /// Systems built so far; system `k` draws its inputs from
    /// `mix(seed, k)`.
    systems: u64,
    sizes: Sizes,
    seed: u64,
    scale: Scale,
    prefix: Shape,
    broken: bool,
}

impl EciMix {
    /// Replaces the system with a fresh one and runs its untimed warm-up
    /// batch.
    fn fresh(&mut self, checks: &mut Checks) {
        self.sys = System::new(config(&self.sizes), mix(self.seed, self.systems));
        self.systems += 1;
        self.batch(checks, &mut BatchTimes::default(), false);
    }

    /// Runs, verifies and counts one batch; returns its timed slice.
    fn batch(&mut self, checks: &mut Checks, times: &mut BatchTimes, traced: bool) -> Slice {
        let batch = self.sys.next_batch(self.sizes.txns_per_batch);
        let t = Instant::now();
        let out = Checks::guard(|| self.sys.drive(&batch, times, traced)).and_then(|r| r);
        let secs = t.elapsed().as_secs_f64();
        self.sys.batches += 1;
        let verdict = out.and_then(|(done, events)| {
            self.sys.events += events;
            self.sys.verify(&batch, &done)
        });
        let ok = verdict.is_ok();
        checks.unit(
            &format!(
                "eci_mix system {} batch {}",
                self.systems - 1,
                self.sys.batches - 1
            ),
            verdict,
        );
        if !ok {
            // The system's state no longer matches the shadow; stop here.
            self.broken = true;
            return Slice::default();
        }
        if self.systems == 1 && self.sys.batches == self.sizes.prefix_batches {
            self.prefix = self.sys.shape();
            let verdict = checks.seeded(
                self.seed,
                self.scale,
                "prefix_digest",
                hex(self.sys.digest.0),
            );
            checks.unit("eci_mix prefix digest", verdict);
        }
        Slice {
            work: batch.len() as f64,
            secs,
        }
    }

    /// The timed batches of one system's life.
    fn life(&mut self, checks: &mut Checks, traced: Option<&mut Tracer>) -> Slice {
        let mut slice = Slice::default();
        let mut tracer = traced;
        for _ in 0..self.sizes.batches_per_system {
            if self.broken {
                break;
            }
            let Some(tr) = tracer.as_deref_mut() else {
                slice.add(self.batch(checks, &mut BatchTimes::default(), false));
                continue;
            };
            tr.next_unit();
            tr.span("eci_mix.batch", |tr, id| {
                let mut times = BatchTimes::default();
                slice.add(self.batch(checks, &mut times, true));
                tr.aggregate("eci.system.issue", id, times.issue);
                tr.aggregate("eci.system.take", id, times.take);
                // `run_to_idle_bounded` is one call per batch: kept as an
                // aggregate of one so it nests like the others.
                let mut run = Agg::default();
                run.add((times.run_s * 1e9) as u64);
                tr.aggregate("eci.system.run", id, run);
            });
        }
        slice
    }
}

impl Workload for EciMix {
    fn setup(seed: u64, scale: Scale, _threads: usize, checks: &mut Checks) -> Self {
        let sizes = sizes(scale);
        let mut w = EciMix {
            sys: System::new(config(&sizes), mix(seed, 0)),
            systems: 1,
            sizes,
            seed,
            scale,
            prefix: Shape::default(),
            broken: false,
        };
        w.batch(checks, &mut BatchTimes::default(), false);
        w
    }

    fn prefix_done(&self) -> bool {
        self.broken || self.systems > 1 || self.sys.batches >= self.sizes.prefix_batches
    }

    fn slice(&mut self, checks: &mut Checks) -> Slice {
        if self.sys.batches > 1 {
            self.fresh(checks);
        }
        self.life(checks, None)
    }

    fn traced(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> (Slice, Layers) {
        self.fresh(checks);
        let events0 = self.sys.events;
        let slice = self.life(checks, Some(tracer));
        let run_s = tracer.hot("eci.system.run").0;
        let events = (self.sys.events - events0) as f64;
        let layers = vec![
            (
                "eci.system.issue_s".into(),
                tracer.hot("eci.system.issue").0,
            ),
            ("eci.system.run_s".into(), run_s),
            ("eci.system.take_s".into(), tracer.hot("eci.system.take").0),
            (
                "sim.des.events_per_s".into(),
                if run_s > 0.0 { events / run_s } else { 0.0 },
            ),
        ];
        (slice, layers)
    }

    fn shape(&self) -> Layers {
        let p = self.prefix;
        vec![
            (
                "sim.des.events_per_txn".into(),
                p.events as f64 / p.txns.max(1) as f64,
            ),
            ("eci.txn.mshr_conflicts".into(), p.mshr_conflicts as f64),
            ("eci.txn.mshr_full_stalls".into(), p.mshr_full_stalls as f64),
            ("eci.txn.vc_queue_stalls".into(), p.vc_queue_stalls as f64),
            ("eci.victims".into(), p.victims as f64),
            ("eci.link.messages".into(), p.link_messages as f64),
        ]
    }
}
