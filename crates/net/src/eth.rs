//! Frame-level Ethernet links and a store-and-forward switch.

use enzian_sim::{Channel, ChannelConfig, Duration, Time};

/// Per-frame overhead on the wire: preamble+SFD (8) + MAC header (14) +
/// FCS (4) + minimum inter-packet gap (12).
pub const FRAME_OVERHEAD_BYTES: u64 = 38;

/// Static parameters of one Ethernet link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EthLinkConfig {
    /// Line rate in bits per second.
    pub bits_per_sec: u64,
    /// One-way propagation (cable + PHY).
    pub propagation: Duration,
}

impl EthLinkConfig {
    /// A 100GBASE link with a short DAC cable.
    pub fn hundred_gig() -> Self {
        EthLinkConfig {
            bits_per_sec: 100_000_000_000,
            propagation: Duration::from_ns(450),
        }
    }

    /// A 40GBASE link (the ThunderX-1 SoC NICs).
    pub fn forty_gig() -> Self {
        EthLinkConfig {
            bits_per_sec: 40_000_000_000,
            propagation: Duration::from_ns(450),
        }
    }
}

/// A full-duplex Ethernet link between two endpoints, `a` and `b`.
#[derive(Debug, Clone)]
pub struct EthLink {
    a_to_b: Channel,
    b_to_a: Channel,
}

impl EthLink {
    /// Creates an idle link.
    pub fn new(config: EthLinkConfig) -> Self {
        let ch = ChannelConfig {
            bits_per_sec: config.bits_per_sec,
            coding_efficiency: 1.0, // rate already quoted post-coding
            propagation: config.propagation,
            frame_overhead_bytes: FRAME_OVERHEAD_BYTES,
        };
        EthLink {
            a_to_b: Channel::new(ch),
            b_to_a: Channel::new(ch),
        }
    }

    /// Sends one frame of `payload` bytes from a to b; returns last-byte
    /// arrival.
    pub fn send_a_to_b(&mut self, now: Time, payload: u64) -> Time {
        self.a_to_b.send(now, payload).done
    }

    /// Sends one frame of `payload` bytes from b to a; returns last-byte
    /// arrival.
    pub fn send_b_to_a(&mut self, now: Time, payload: u64) -> Time {
        self.b_to_a.send(now, payload).done
    }
}

/// A store-and-forward switch hop: adds a fixed forwarding latency per
/// frame plus output-port serialization.
#[derive(Debug, Clone)]
pub struct Switch {
    forwarding: Duration,
}

impl Switch {
    /// Creates a switch with the given per-frame forwarding latency
    /// (~1 µs for the datacenter switches in the experiment).
    pub fn new(forwarding: Duration) -> Self {
        Switch { forwarding }
    }

    /// A typical 100G top-of-rack switch.
    pub fn tor() -> Self {
        Switch::new(Duration::from_us(1))
    }

    /// The added latency for one frame traversal.
    pub fn forwarding_latency(&self) -> Duration {
        self.forwarding
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hundred_gig_wire_rate() {
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let n = 10_000u64;
        let mtu = 2048u64;
        let mut done = Time::ZERO;
        for _ in 0..n {
            done = done.max(link.send_a_to_b(Time::ZERO, mtu));
        }
        let gb_s = (n * mtu * 8) as f64 / done.as_secs_f64() / 1e9;
        // 2048/(2048+38) of 100 Gb/s ≈ 98.2 Gb/s of payload.
        assert!((95.0..100.0).contains(&gb_s), "payload rate {gb_s:.1} Gb/s");
    }

    #[test]
    fn duplex_directions_are_independent() {
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let big = link.send_a_to_b(Time::ZERO, 1 << 20);
        let ack = link.send_b_to_a(Time::ZERO, 64);
        assert!(ack < big, "reverse direction blocked by forward traffic");
    }

    #[test]
    fn small_frames_pay_relatively_more() {
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let n = 1000u64;
        let mut done = Time::ZERO;
        for _ in 0..n {
            done = done.max(link.send_a_to_b(Time::ZERO, 64));
        }
        let gb_s = (n * 64 * 8) as f64 / done.as_secs_f64() / 1e9;
        // 64/(64+38) ≈ 63% efficiency.
        assert!(gb_s < 70.0, "64 B frames too efficient: {gb_s:.1} Gb/s");
    }

    #[test]
    fn forty_gig_is_slower() {
        let mut h = EthLink::new(EthLinkConfig::hundred_gig());
        let mut f = EthLink::new(EthLinkConfig::forty_gig());
        let th = h.send_a_to_b(Time::ZERO, 1 << 20);
        let tf = f.send_a_to_b(Time::ZERO, 1 << 20);
        assert!(tf > th);
    }
}
