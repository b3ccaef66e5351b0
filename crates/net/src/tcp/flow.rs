//! Flow control: receive-window accounting and the in-flight
//! cumulative-ack ledger.
//!
//! Flow control answers one question — may the sender put another
//! segment on the wire? — by bounding unacknowledged bytes to the
//! receiver's advertised window. It is deliberately separate from
//! congestion control ([`super::congestion`]): the receive window
//! protects the *receiver's* buffer (a hardware constant on the FPGA
//! presets), while the congestion window is *network* policy. The
//! engine sends while `in_flight < min(rwnd, cwnd)`.

use std::collections::VecDeque;

use enzian_sim::Time;

/// The sender-side view of the receiver's advertised window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendWindow {
    rwnd: u64,
}

impl SendWindow {
    /// A window of `rwnd` bytes (the preset's receive buffer).
    pub fn new(rwnd: u64) -> Self {
        SendWindow { rwnd }
    }

    /// The advertised receive window in bytes.
    pub fn rwnd(&self) -> u64 {
        self.rwnd
    }

    /// Applies a new window advertisement from the receiver. A shrink to
    /// zero closes the window entirely (the sender stalls on flow
    /// control until a reopening advertisement arrives); TCP permits
    /// this when the receive buffer fills faster than the application
    /// drains it.
    pub fn set_rwnd(&mut self, rwnd: u64) {
        self.rwnd = rwnd;
    }

    /// The effective send window: the tighter of flow control's receive
    /// window and congestion control's `cwnd`.
    pub fn effective(&self, cwnd: u64) -> u64 {
        self.rwnd.min(cwnd)
    }

    /// Which module closed the window at `in_flight` outstanding bytes:
    /// `true` when the receive window is the binding constraint (a flow
    /// control stall), `false` when `cwnd` is tighter (a congestion
    /// stall).
    pub fn rwnd_is_binding(&self, cwnd: u64) -> bool {
        self.rwnd <= cwnd
    }
}

/// In-flight cumulative acknowledgements: (arrival time at the sender,
/// cumulative ack value), in wire order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AckLedger {
    acks: VecDeque<(Time, u64)>,
}

impl AckLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        AckLedger::default()
    }

    /// Queues an ack arriving at `at` carrying cumulative value `upto`.
    pub fn push(&mut self, at: Time, upto: u64) {
        self.acks.push_back((at, upto));
    }

    /// Consumes the oldest in-flight ack.
    pub fn pop(&mut self) -> Option<(Time, u64)> {
        self.acks.pop_front()
    }

    /// `true` when no acks are in flight.
    pub fn is_empty(&self) -> bool {
        self.acks.is_empty()
    }

    /// Arrival time of the oldest in-flight ack.
    pub fn next_arrival(&self) -> Option<Time> {
        self.acks.front().map(|&(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_window_is_the_tighter_bound() {
        let w = SendWindow::new(256 * 1024);
        assert_eq!(w.effective(u64::MAX), 256 * 1024);
        assert_eq!(w.effective(10_240), 10_240);
        assert!(w.rwnd_is_binding(u64::MAX));
        assert!(!w.rwnd_is_binding(4096));
    }

    #[test]
    fn shrink_to_zero_closes_and_reopen_restores() {
        let mut w = SendWindow::new(64 * 1024);
        w.set_rwnd(0);
        assert_eq!(w.rwnd(), 0);
        assert_eq!(w.effective(u64::MAX), 0, "zero window admits nothing");
        assert!(w.rwnd_is_binding(1), "a zero window is always binding");
        w.set_rwnd(64 * 1024);
        assert_eq!(
            w.effective(u64::MAX),
            64 * 1024,
            "reopen restores the bound"
        );
    }

    #[test]
    fn ledger_is_fifo() {
        let mut l = AckLedger::new();
        assert!(l.is_empty());
        l.push(Time::from_us(2), 1000);
        l.push(Time::from_us(3), 2000);
        assert_eq!(l.next_arrival(), Some(Time::from_us(2)));
        assert_eq!(l.pop(), Some((Time::from_us(2), 1000)));
        assert_eq!(l.pop(), Some((Time::from_us(3), 2000)));
        assert_eq!(l.pop(), None);
    }
}
