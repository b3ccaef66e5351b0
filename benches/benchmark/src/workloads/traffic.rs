//! `traffic`: every leg of the `traffic` experiment (churn on three
//! stacks × {2, 4, 8} boards, the 10⁵-flow storm, the loss twins and the
//! proxy chain) through `TrafficWorkload::run_parallel`.
//!
//! One slice is one pass over the legs. Pass 0 keeps the legs' own
//! seeds, so its digests are the `BENCH_traffic.json` ones and are
//! checked against the goldens on every run; later passes re-seed the
//! legs from the run seed, which redraws the loss plans (at the default
//! seed a digest over pass 1 is pinned too). Every run is
//! also checked by the generator's own accounting (every session opened
//! completes, every payload byte arrives), which panics on a mismatch.

use std::time::Instant;

use enzian_platform::experiments::traffic::legs;
use enzian_platform::{TrafficRunReport, TrafficWorkload};

use super::{mix, Checks, Fnv, Layers, ParTotals, Scale, Slice, Workload};
use crate::json::hex;
use crate::trace::Tracer;

/// The leg families the per-layer times are grouped by.
pub const LEG_FAMILIES: [&str; 4] = ["churn", "flows", "loss", "proxy"];

/// `traffic` workload state.
pub struct Traffic {
    legs: Vec<(&'static str, TrafficWorkload)>,
    seed: u64,
    scale: Scale,
    threads: usize,
    passes: u64,
}

/// The golden key of a leg, as in `BENCH_traffic.json`.
fn key(leg: &str, w: &TrafficWorkload) -> String {
    format!("{leg}.{}.b{}.loss{}", w.stack.label(), w.boards, w.loss_bp)
}

impl Traffic {
    /// The legs of pass `pass`: their own seeds on pass 0, re-seeded
    /// from the run seed after.
    fn pass_legs(&self, pass: u64) -> Vec<(&'static str, TrafficWorkload)> {
        self.legs
            .iter()
            .map(|&(leg, w)| {
                let w = if pass == 0 {
                    w
                } else {
                    w.with_seed(w.seed ^ mix(self.seed, pass))
                };
                (leg, w)
            })
            .collect()
    }

    /// Verifies one leg's report; pass 0 is checked against the goldens.
    fn verify(
        checks: &mut Checks,
        pass: u64,
        leg: &str,
        w: &TrafficWorkload,
        r: &TrafficRunReport,
    ) -> Result<(), String> {
        if r.completed != w.total_sessions() {
            return Err(format!(
                "{} of {} sessions completed",
                r.completed,
                w.total_sessions()
            ));
        }
        if pass == 0 {
            checks.golden(&format!("{}.digest", key(leg, w)), hex(r.digest))?;
        }
        Ok(())
    }
}

impl Workload for Traffic {
    fn setup(seed: u64, scale: Scale, threads: usize, checks: &mut Checks) -> Self {
        let legs = match scale {
            Scale::Full => legs(),
            Scale::Mini => vec![("loss", TrafficWorkload::small().with_loss_bp(100))],
        };
        let warm = TrafficWorkload::small();
        let verdict = Checks::guard(|| warm.run_parallel(threads)).map(|_| ());
        checks.unit("traffic warm-up", verdict);
        Traffic {
            legs,
            seed,
            scale,
            threads,
            passes: 0,
        }
    }

    fn prefix_done(&self) -> bool {
        self.passes > 1
    }

    fn slice(&mut self, checks: &mut Checks) -> Slice {
        let pass = self.passes;
        self.passes += 1;
        let mut slice = Slice::default();
        let mut digest = Fnv::default();
        for (leg, w) in self.pass_legs(pass) {
            let t = Instant::now();
            let out = Checks::guard(|| w.run_parallel(self.threads));
            slice.secs += t.elapsed().as_secs_f64();
            let verdict = out.and_then(|r| {
                slice.work += r.completed as f64;
                digest.u64(r.digest);
                Self::verify(checks, pass, leg, &w, &r)
            });
            checks.unit(&format!("traffic pass {pass} {}", key(leg, &w)), verdict);
        }
        if pass == 1 {
            let verdict = checks.seeded(self.seed, self.scale, "pass1.digest", hex(digest.0));
            checks.unit("traffic pass 1 digest", verdict);
        }
        slice
    }

    /// Pass 0 again, traced, with `run_reference` on the same inputs for
    /// `sim.par.overhead`.
    fn traced(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> (Slice, Layers) {
        let mut slice = Slice::default();
        let (mut segments, mut peak_flows, mut table_slots) = (0u64, 0u64, 0u64);
        let mut par = ParTotals::default();
        for (leg, w) in self.pass_legs(0) {
            tracer.next_unit();
            let out = tracer.span(&format!("platform.traffic.{leg}.run"), |_, _| {
                Checks::guard(|| w.run_parallel(self.threads))
            });
            let reference = tracer.span(&format!("platform.traffic.{leg}.reference"), |_, _| {
                Checks::guard(|| w.run_reference())
            });
            let verdict = out.and_then(|r| {
                slice.work += r.completed as f64;
                segments += r.segments_tx;
                peak_flows = peak_flows.max(r.peak_flows);
                table_slots = table_slots.max(r.table_slots);
                par.add(r.epochs, r.epochs_skipped, r.messages);
                reference
                    .and_then(|rr| Checks::guard(|| r.assert_matches(&rr)))
                    .and_then(|()| Self::verify(checks, 0, leg, &w, &r))
            });
            checks.unit(&format!("traffic traced {}", key(leg, &w)), verdict);
        }
        let mut layers = Layers::new();
        let mut ref_s = 0.0;
        for leg in LEG_FAMILIES {
            let run_s = tracer.total_s(&format!("platform.traffic.{leg}.run"));
            slice.secs += run_s;
            ref_s += tracer.total_s(&format!("platform.traffic.{leg}.reference"));
            layers.push((format!("platform.traffic.{leg}.run_s"), run_s));
        }
        layers.extend([
            (
                "net.traffic.segments_per_s".into(),
                segments as f64 / slice.secs.max(f64::MIN_POSITIVE),
            ),
            ("net.traffic.peak_flows".into(), peak_flows as f64),
            ("net.traffic.table_slots".into(), table_slots as f64),
        ]);
        layers.extend(par.layers(slice.secs, ref_s));
        (slice, layers)
    }

    fn shape(&self) -> Layers {
        Layers::new()
    }
}
