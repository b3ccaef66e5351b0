//! Congestion control: the policy module deciding how much data may be
//! in flight, decoupled from reliability and flow control.
//!
//! The mlwip design argument (see `docs/ARCHITECTURE.md`): congestion
//! control is pure *policy* — it consumes ack/loss events and produces a
//! window — so it is the natural module to move across the CPU/FPGA
//! boundary independently of the data path. [`CongestionController`]
//! is that policy as a plain `Copy` value, an enum over three policies
//! that span that space:
//!
//! * [`CongestionController::Fixed`] — the single-pipeline FPGA stack's
//!   behaviour: the hardware buffer is the window and never moves. This
//!   is what the monolithic engine always did implicitly, so the
//!   `fpga_coyote` and `linux_kernel` presets select it and reproduce
//!   the pre-split numbers bit for bit.
//! * [`Reno`] — slow start plus AIMD congestion avoidance with timeout
//!   collapse, the classic software policy.
//! * [`CubicShaped`] — concave/convex window growth around the last
//!   loss point, shaped like CUBIC's `W(t) = C·(t−K)³ + W_max`.
//!
//! A controller holds only what moves per connection. Constants of the
//! stack — the MSS, and the fixed policy's window, which is the stack's
//! `window` — come from the [`TcpStackConfig`] each call takes, so a
//! controller is at most 48 bytes and no heap allocation, and `Fixed`
//! holds nothing at all: the session mux stores controllers only for
//! the policies that have state. Controllers see simulated [`Time`]
//! only, so every
//! trajectory is a pure function of the workload and the seed.

use enzian_sim::Time;

use super::TcpStackConfig;

/// Which controller a [`TcpStackConfig`] composes into the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcAlgorithm {
    /// Fixed window: the FPGA pipeline's buffer-sized, immobile window.
    Fixed,
    /// Reno: slow start + AIMD, timeout collapses to one segment.
    Reno,
    /// CUBIC-shaped: cubic growth around the last loss point.
    Cubic,
}

impl CcAlgorithm {
    /// Short stable label for telemetry and experiment labels.
    pub fn label(&self) -> &'static str {
        match self {
            CcAlgorithm::Fixed => "fixed",
            CcAlgorithm::Reno => "reno",
            CcAlgorithm::Cubic => "cubic",
        }
    }

    /// Builds the controller for one connection of `cfg`.
    pub fn build(&self, cfg: &TcpStackConfig) -> CongestionController {
        match self {
            CcAlgorithm::Fixed => CongestionController::Fixed,
            CcAlgorithm::Reno => CongestionController::Reno(Reno::new(cfg)),
            CcAlgorithm::Cubic => CongestionController::Cubic(CubicShaped::new(cfg)),
        }
    }
}

/// One connection's congestion controller: a window in bytes, updated
/// by ack and timeout events. Every method takes the stack config the
/// controller was built from, which supplies the MSS and the fixed
/// window. Deterministic — no wall clock, no global state — so
/// transfers replay bit-identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CongestionController {
    /// The FPGA pipeline's "congestion control": a window fixed at the
    /// hardware buffer size, the stack's `window`. Ack and timeout
    /// events never move it — loss recovery is purely the reliability
    /// module's go-back-N rewind, exactly as the pre-split monolith
    /// behaved.
    Fixed,
    /// Slow start plus AIMD.
    Reno(Reno),
    /// Cubic growth around the last loss point.
    Cubic(CubicShaped),
}

impl CongestionController {
    /// Current congestion window in bytes. The engine sends while
    /// `in_flight < min(cwnd, receive_window)`.
    pub fn cwnd(&self, cfg: &TcpStackConfig) -> u64 {
        match self {
            CongestionController::Fixed => cfg.window,
            CongestionController::Reno(r) => r.cwnd,
            CongestionController::Cubic(c) => c.cwnd as u64,
        }
    }

    /// `newly_acked` bytes were cumulatively acknowledged at `now`
    /// (zero for duplicate acks from discarded out-of-order segments).
    pub fn on_ack(&mut self, cfg: &TcpStackConfig, newly_acked: u64, now: Time) {
        match self {
            CongestionController::Fixed => {}
            CongestionController::Reno(r) => r.on_ack(mss(cfg), newly_acked),
            CongestionController::Cubic(c) => c.on_ack(mss(cfg), newly_acked, now),
        }
    }

    /// The reliability module's retransmission timeout fired at `now`
    /// with `in_flight` unacknowledged bytes outstanding.
    pub fn on_rto(&mut self, cfg: &TcpStackConfig, in_flight: u64, now: Time) {
        match self {
            CongestionController::Fixed => {}
            CongestionController::Reno(r) => r.on_rto(mss(cfg), in_flight),
            CongestionController::Cubic(c) => c.on_rto(mss(cfg), now),
        }
    }
}

fn mss(cfg: &TcpStackConfig) -> u64 {
    cfg.mss as u64
}

/// Reno: exponential slow start to `ssthresh`, then additive increase of
/// one MSS per window of acks; a retransmission timeout halves
/// `ssthresh` (against the bytes in flight) and collapses the window to
/// one segment for a fresh slow start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reno {
    cwnd: u64,
    ssthresh: u64,
    /// Bytes acked since the last additive increase.
    acked_accum: u64,
}

/// Initial window in segments (RFC 6928's IW10).
const INITIAL_WINDOW_SEGMENTS: u64 = 10;

impl Reno {
    /// A fresh connection: IW10 initial window, slow-start threshold at
    /// the receive window.
    fn new(cfg: &TcpStackConfig) -> Self {
        Reno {
            cwnd: mss(cfg) * INITIAL_WINDOW_SEGMENTS,
            ssthresh: cfg.window,
            acked_accum: 0,
        }
    }

    fn on_ack(&mut self, mss: u64, newly_acked: u64) {
        if newly_acked == 0 {
            return;
        }
        if self.cwnd < self.ssthresh {
            // Slow start: one MSS per ack (bounded by what it covers).
            self.cwnd += newly_acked.min(mss);
        } else {
            // Congestion avoidance: one MSS per cwnd of acked bytes.
            self.acked_accum += newly_acked;
            while self.acked_accum >= self.cwnd {
                self.acked_accum -= self.cwnd;
                self.cwnd += mss;
            }
        }
    }

    fn on_rto(&mut self, mss: u64, in_flight: u64) {
        self.ssthresh = (in_flight / 2).max(2 * mss);
        self.cwnd = mss;
        self.acked_accum = 0;
    }
}

/// CUBIC's scale constant `C` (RFC 8312's 0.4), in windows per
/// millisecond³ here: the simulator's RTTs are microseconds, not the
/// wide-area milliseconds RFC 8312 assumes, so the epoch clock runs in
/// milliseconds to keep `K` on the same scale as the simulated RTOs.
const CUBIC_C: f64 = 0.4;

/// CUBIC's multiplicative-decrease factor `β`.
const CUBIC_BETA: f64 = 0.7;

/// CUBIC-shaped growth: after a loss epoch starts, the window follows
/// `W(t) = C·(t−K)³ + W_max` in segments — concave up to the previous
/// loss point `W_max`, then convex beyond it — clamped so one ack never
/// grows the window by more than the bytes it acknowledged. Timeouts
/// apply multiplicative decrease by `β` and start a new epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CubicShaped {
    cwnd: f64,
    ssthresh: f64,
    /// Window (segments) at the last loss event.
    w_max_segments: f64,
    /// Start of the current growth epoch, set at the first post-loss ack.
    epoch: Option<Time>,
    /// Time (milliseconds into the epoch) at which `W(t)` reaches
    /// `W_max`.
    k: f64,
}

impl CubicShaped {
    /// A fresh connection: IW10, slow-start threshold at the receive
    /// window.
    fn new(cfg: &TcpStackConfig) -> Self {
        CubicShaped {
            cwnd: (mss(cfg) * INITIAL_WINDOW_SEGMENTS) as f64,
            ssthresh: cfg.window as f64,
            w_max_segments: 0.0,
            epoch: None,
            k: 0.0,
        }
    }

    fn on_ack(&mut self, mss: u64, newly_acked: u64, now: Time) {
        if newly_acked == 0 {
            return;
        }
        if self.cwnd < self.ssthresh {
            self.cwnd += (newly_acked.min(mss)) as f64;
            return;
        }
        let mss_f = mss as f64;
        let epoch = *self.epoch.get_or_insert(now);
        let t = now.since(epoch).as_secs_f64() * 1e3; // epoch clock in ms
        let target_segments = CUBIC_C * (t - self.k).powi(3) + self.w_max_segments;
        let target = (target_segments * mss_f).max(mss_f);
        if target > self.cwnd {
            // Grow toward the cubic target, paced by acked bytes.
            self.cwnd += (target - self.cwnd).min(newly_acked as f64);
        } else {
            // Below-target plateau: creep additively like Reno's floor.
            self.cwnd += mss_f * mss_f / self.cwnd;
        }
    }

    fn on_rto(&mut self, mss: u64, now: Time) {
        let mss_f = mss as f64;
        self.w_max_segments = self.cwnd / mss_f;
        self.cwnd = (self.cwnd * CUBIC_BETA).max(mss_f);
        self.ssthresh = self.cwnd;
        self.k = (self.w_max_segments * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
        self.epoch = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enzian_sim::{Duration, SimRng};

    /// The policies as they were before the controller became a value:
    /// one boxed trait object per connection, each carrying its own MSS
    /// and fixed window. Kept only as the oracle the inline controller
    /// is compared against.
    mod boxed {
        use super::super::{CUBIC_BETA, CUBIC_C, INITIAL_WINDOW_SEGMENTS};
        use crate::tcp::{CcAlgorithm, TcpStackConfig};
        use enzian_sim::Time;

        pub trait Policy {
            fn name(&self) -> &'static str;
            fn cwnd(&self) -> u64;
            fn on_ack(&mut self, newly_acked: u64, now: Time);
            fn on_rto(&mut self, in_flight: u64, now: Time);
        }

        pub fn build(alg: CcAlgorithm, cfg: &TcpStackConfig) -> Box<dyn Policy> {
            let mss = cfg.mss as u64;
            match alg {
                CcAlgorithm::Fixed => Box::new(FixedWindow { cwnd: cfg.window }),
                CcAlgorithm::Reno => Box::new(Reno {
                    mss,
                    cwnd: mss * INITIAL_WINDOW_SEGMENTS,
                    ssthresh: cfg.window,
                    acked_accum: 0,
                }),
                CcAlgorithm::Cubic => Box::new(CubicShaped {
                    mss,
                    cwnd: (mss * INITIAL_WINDOW_SEGMENTS) as f64,
                    ssthresh: cfg.window as f64,
                    w_max_segments: 0.0,
                    epoch: None,
                    k: 0.0,
                }),
            }
        }

        struct FixedWindow {
            cwnd: u64,
        }

        impl Policy for FixedWindow {
            fn name(&self) -> &'static str {
                "fixed"
            }
            fn cwnd(&self) -> u64 {
                self.cwnd
            }
            fn on_ack(&mut self, _newly_acked: u64, _now: Time) {}
            fn on_rto(&mut self, _in_flight: u64, _now: Time) {}
        }

        struct Reno {
            mss: u64,
            cwnd: u64,
            ssthresh: u64,
            acked_accum: u64,
        }

        impl Policy for Reno {
            fn name(&self) -> &'static str {
                "reno"
            }
            fn cwnd(&self) -> u64 {
                self.cwnd
            }
            fn on_ack(&mut self, newly_acked: u64, _now: Time) {
                if newly_acked == 0 {
                    return;
                }
                if self.cwnd < self.ssthresh {
                    self.cwnd += newly_acked.min(self.mss);
                } else {
                    self.acked_accum += newly_acked;
                    while self.acked_accum >= self.cwnd {
                        self.acked_accum -= self.cwnd;
                        self.cwnd += self.mss;
                    }
                }
            }
            fn on_rto(&mut self, in_flight: u64, _now: Time) {
                self.ssthresh = (in_flight / 2).max(2 * self.mss);
                self.cwnd = self.mss;
                self.acked_accum = 0;
            }
        }

        struct CubicShaped {
            mss: u64,
            cwnd: f64,
            ssthresh: f64,
            w_max_segments: f64,
            epoch: Option<Time>,
            k: f64,
        }

        impl CubicShaped {
            fn mss_f(&self) -> f64 {
                self.mss as f64
            }
        }

        impl Policy for CubicShaped {
            fn name(&self) -> &'static str {
                "cubic"
            }
            fn cwnd(&self) -> u64 {
                self.cwnd as u64
            }
            fn on_ack(&mut self, newly_acked: u64, now: Time) {
                if newly_acked == 0 {
                    return;
                }
                if self.cwnd < self.ssthresh {
                    self.cwnd += (newly_acked.min(self.mss)) as f64;
                    return;
                }
                let epoch = *self.epoch.get_or_insert(now);
                let t = now.since(epoch).as_secs_f64() * 1e3;
                let target_segments = CUBIC_C * (t - self.k).powi(3) + self.w_max_segments;
                let target = (target_segments * self.mss_f()).max(self.mss_f());
                if target > self.cwnd {
                    self.cwnd += (target - self.cwnd).min(newly_acked as f64);
                } else {
                    self.cwnd += self.mss_f() * self.mss_f() / self.cwnd;
                }
            }
            fn on_rto(&mut self, _in_flight: u64, now: Time) {
                self.w_max_segments = self.cwnd / self.mss_f();
                self.cwnd = (self.cwnd * CUBIC_BETA).max(self.mss_f());
                self.ssthresh = self.cwnd;
                self.k = (self.w_max_segments * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
                self.epoch = Some(now);
            }
        }
    }

    const ALL: [CcAlgorithm; 3] = [CcAlgorithm::Fixed, CcAlgorithm::Reno, CcAlgorithm::Cubic];

    /// A stack config with the given MSS and receive window.
    fn stack(mss: usize, window: u64) -> TcpStackConfig {
        let mut cfg = TcpStackConfig::fpga_coyote();
        cfg.mss = mss;
        cfg.window = window;
        cfg
    }

    /// Every algorithm, on every preset and on a small-window stack,
    /// through seeded random sequences of acks (duplicates, partial and
    /// multi-segment) and timeouts at nondecreasing times: the inline
    /// controller's window equals the boxed policy's after every event.
    #[test]
    fn inline_controllers_track_the_boxed_policies_bit_for_bit() {
        let stacks = [
            TcpStackConfig::fpga_coyote(),
            TcpStackConfig::linux_kernel(),
            TcpStackConfig::hybrid_offload(),
            stack(1448, 64 * 1024),
        ];
        for (s, cfg) in stacks.iter().enumerate() {
            for alg in ALL {
                for seed in 0..8 {
                    let mut rng = SimRng::seed_from(0xCC_0000 + 64 * s as u64 + seed);
                    let mut cc = alg.build(cfg);
                    let mut oracle = boxed::build(alg, cfg);
                    assert_eq!(alg.label(), oracle.name());
                    let mut now = Time::ZERO;
                    for step in 0..2_000 {
                        now += Duration::from_ns(rng.next_below(200_000));
                        if rng.next_below(16) == 0 {
                            let in_flight = rng.next_below(4 * cfg.window);
                            cc.on_rto(cfg, in_flight, now);
                            oracle.on_rto(in_flight, now);
                        } else {
                            let newly = match rng.next_below(4) {
                                0 => 0,
                                1 => rng.next_below(cfg.mss as u64),
                                _ => rng.next_below(16 * cfg.mss as u64),
                            };
                            cc.on_ack(cfg, newly, now);
                            oracle.on_ack(newly, now);
                        }
                        assert_eq!(
                            cc.cwnd(cfg),
                            oracle.cwnd(),
                            "{} on stack {s}, seed {seed}, step {step}",
                            alg.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fixed_window_never_moves() {
        let cfg = stack(2048, 256 * 1024);
        let mut cc = CcAlgorithm::Fixed.build(&cfg);
        assert_eq!(cc.cwnd(&cfg), 256 * 1024);
        cc.on_ack(&cfg, 10_000, Time::from_ns(100));
        cc.on_rto(&cfg, 200_000, Time::from_ns(200));
        assert_eq!(cc.cwnd(&cfg), 256 * 1024);
    }

    #[test]
    fn reno_slow_starts_then_grows_linearly() {
        let mss = 1448;
        let cfg = stack(1448, 64 * 1024);
        let mut cc = CcAlgorithm::Reno.build(&cfg);
        assert_eq!(cc.cwnd(&cfg), mss * INITIAL_WINDOW_SEGMENTS);
        // Slow start: each full-MSS ack adds one MSS.
        let before = cc.cwnd(&cfg);
        cc.on_ack(&cfg, mss, Time::from_us(1));
        assert_eq!(cc.cwnd(&cfg), before + mss);
        // Push past ssthresh, then growth becomes ~1 MSS per window.
        while cc.cwnd(&cfg) < 64 * 1024 {
            cc.on_ack(&cfg, mss, Time::from_us(2));
        }
        let at_thresh = cc.cwnd(&cfg);
        cc.on_ack(&cfg, mss, Time::from_us(3));
        assert!(
            cc.cwnd(&cfg) - at_thresh < mss,
            "avoidance must be slower than slow start"
        );
    }

    #[test]
    fn reno_timeout_collapses_to_one_segment() {
        let mss = 2048;
        let cfg = stack(2048, 256 * 1024);
        let mut cc = CcAlgorithm::Reno.build(&cfg);
        for _ in 0..40 {
            cc.on_ack(&cfg, mss, Time::from_us(5));
        }
        let flight = cc.cwnd(&cfg);
        cc.on_rto(&cfg, flight, Time::from_us(6));
        assert_eq!(cc.cwnd(&cfg), mss);
        // ssthresh remembers half the flight.
        let mut grown = cc;
        for _ in 0..200 {
            grown.on_ack(&cfg, mss, Time::from_us(7));
        }
        assert!(grown.cwnd(&cfg) > mss);
    }

    #[test]
    fn cubic_recovers_concavely_toward_w_max() {
        let mss = 2048u64;
        let cfg = stack(2048, 512 * 1024);
        let mut cc = CcAlgorithm::Cubic.build(&cfg);
        // Reach avoidance, then take a loss at a known window.
        while cc.cwnd(&cfg) < 512 * 1024 {
            cc.on_ack(&cfg, mss, Time::from_us(1));
        }
        let w_loss = cc.cwnd(&cfg);
        cc.on_rto(&cfg, w_loss, Time::from_us(10));
        let floor = cc.cwnd(&cfg);
        assert!(floor < w_loss, "decrease must shrink the window");
        assert!(floor >= (w_loss as f64 * CUBIC_BETA) as u64 - mss);
        // Growth right after the loss is concave: early acks move the
        // window faster than acks near the plateau at W_max.
        let mut t = Time::from_us(10);
        let mut deltas = Vec::new();
        for _ in 0..50 {
            t += Duration::from_us(100);
            let before = cc.cwnd(&cfg);
            // Cumulative acks cover several segments, so the clamp never
            // hides the curve's shape.
            cc.on_ack(&cfg, 8 * mss, t);
            deltas.push(cc.cwnd(&cfg) as i64 - before as i64);
        }
        let early: i64 = deltas[..5].iter().sum();
        let late: i64 = deltas[45..].iter().sum();
        assert!(
            early > late,
            "cubic must decelerate near W_max: early {early}, late {late}"
        );
        assert!(cc.cwnd(&cfg) <= w_loss + mss, "plateau holds near W_max");
    }

    #[test]
    fn duplicate_acks_move_nothing() {
        let cfg = stack(1448, 64 * 1024);
        for alg in ALL {
            let mut cc = alg.build(&cfg);
            let before = cc;
            cc.on_ack(&cfg, 0, Time::from_us(1));
            assert_eq!(cc, before, "{}", alg.label());
        }
    }
}
