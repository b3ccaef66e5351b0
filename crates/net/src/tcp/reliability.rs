//! Reliability: segmentation, integrity, retransmission, and in-order
//! reassembly — the data-path module of the split stack.
//!
//! Everything here is mechanism, not policy: given an MSS the
//! [`segment_len`] schedule carves the byte stream, [`internet_checksum`]
//! guards each segment, [`GoBackN`] tracks first transmissions and the
//! pending retransmission-timeout [`Rewind`], and [`Reassembler`] delivers
//! the stream in order with cumulative acknowledgement. This is the
//! module every stack preset keeps on the FPGA side of the offload
//! boundary (the hybrid preset included) because it touches every
//! payload byte.
//!
//! The module is drivable in isolation — no engine, no link — which is
//! what the property tests below exploit: under any scripted drop
//! pattern, every dropped segment is retransmitted exactly once and the
//! receiver sees the stream in order.

use enzian_sim::Time;

/// The RFC 1071 Internet checksum over a byte slice (odd-length buffers
/// are virtually padded with a zero byte).
pub fn internet_checksum(data: &[u8]) -> u16 {
    !(ones_complement_sum(data) as u16)
}

/// The folded ones'-complement sum of `data` read as big-endian 16-bit
/// words, an odd trailing byte padded with zero; always `<= 0xFFFF`.
///
/// Sums big-endian 32-bit words into a `u64` and folds the carries once
/// at the end (RFC 1071 §2): 2^16 ≡ 1 modulo 0xFFFF, so a 32-bit word
/// adds the same as its two 16-bit halves, and a fold keeps the sum's
/// residue and whether it is zero. The `u64` cannot overflow below
/// 2^32 words (16 GiB).
fn ones_complement_sum(data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(4);
    let mut sum: u64 = words
        .by_ref()
        .map(|w| u64::from(u32::from_be_bytes([w[0], w[1], w[2], w[3]])))
        .sum();
    let mut tail = [0u8; 4];
    let rest = words.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    sum += u64::from(u32::from_be_bytes(tail));
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum as u32
}

/// Verifies `data` against a checksum computed by [`internet_checksum`]:
/// summing the (zero-padded) data plus the checksum word must yield
/// zero. This is how a receiver checks a segment whose trailer carries
/// the transmitted checksum; the checksum word is folded into the
/// running sum, so nothing is copied.
pub fn checksum_verifies(data: &[u8], checksum: u16) -> bool {
    let sum = ones_complement_sum(data) + u32::from(checksum);
    !(((sum & 0xFFFF) + (sum >> 16)) as u16) == 0
}

/// Payload length of the segment starting at offset `sent` of a
/// `len`-byte stream under `mss`.
pub fn segment_len(mss: usize, len: u64, sent: u64) -> usize {
    usize::min(mss, (len - sent) as usize)
}

/// A pending retransmission-timeout rewind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rewind {
    /// When the timer fires.
    pub at: Time,
    /// The offset the sender rewinds to.
    pub seq: u64,
    /// The fault target whose loss scheduled the rewind, so the recovery
    /// is noted on the ledger that injected it.
    pub cause: &'static str,
}

/// Go-back-N retransmission state: how far first transmissions have
/// reached (loss injection applies only to those), the pending RTO
/// rewind, and the retransmission ledger.
///
/// This ledger is the **single source of truth** for retransmission
/// counts: the engine copies it into [`FlowStats`](super::FlowStats)
/// once per transfer and every telemetry view (per-flow counters, the
/// `reliability.rto_fires` export, the fault plan's recovery ledger)
/// derives from the same events, so nothing is double-counted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GoBackN {
    /// End of the furthest segment sent so far.
    first_tx_high: u64,
    pending: Option<Rewind>,
    retransmissions: u64,
}

impl GoBackN {
    /// Fresh per-transfer state.
    pub fn new() -> Self {
        GoBackN::default()
    }

    /// Records that the segment `[seq, end)` is being transmitted;
    /// returns `true` iff this is its first transmission (the only
    /// copies offered to loss injection).
    ///
    /// A high-water mark stands in for the set of offsets sent: every
    /// send, rewind and acknowledgement edge is a segment boundary of
    /// the one MSS schedule, so a segment starting below the mark was
    /// sent before.
    pub fn first_transmission(&mut self, seq: u64, end: u64) -> bool {
        let first = seq >= self.first_tx_high;
        self.first_tx_high = self.first_tx_high.max(end);
        first
    }

    /// The segment at `seq` was lost to `cause` and its timer fires at
    /// `at = tx_done + rto`; arrange the rewind unless one is already
    /// pending for an earlier offset.
    pub fn schedule_rewind(&mut self, at: Time, seq: u64, cause: &'static str) {
        if self.pending.is_none_or(|p| p.seq >= seq) {
            self.pending = Some(Rewind { at, seq, cause });
        }
    }

    /// The pending rewind, if any.
    pub fn pending(&self) -> Option<Rewind> {
        self.pending
    }

    /// Cancels the pending rewind if a cumulative acknowledgement has
    /// covered its offset (`seq < acked`): the timer's data is known
    /// delivered, so firing it would only retransmit acknowledged bytes.
    /// Returns the cancelled entry, or `None` if nothing was pending or
    /// the pending offset is still unacknowledged. A rewind scheduled
    /// for a *dropped* segment can never be cancelled this way — the
    /// receiver's in-order edge (and therefore every cumulative ack)
    /// stops at the dropped offset until the retransmission lands.
    pub fn cancel_covered(&mut self, acked: u64) -> Option<Rewind> {
        match self.pending {
            Some(p) if p.seq < acked => self.pending.take(),
            _ => None,
        }
    }

    /// Fires the pending rewind, counting one retransmission event.
    ///
    /// # Panics
    ///
    /// Panics if no rewind is pending.
    pub fn fire(&mut self) -> Rewind {
        let fired = self.pending.take().expect("no pending rewind to fire");
        self.retransmissions += 1;
        fired
    }

    /// Retransmission events fired so far (go-back-N rewinds; equal to
    /// RTO fires in this engine).
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }
}

/// In-order stream reassembly with cumulative acknowledgement:
/// go-back-N discards anything but the next expected byte and re-acks
/// the current edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reassembler {
    rcv_next: u64,
}

impl Reassembler {
    /// Fresh per-transfer state expecting byte 0.
    pub fn new() -> Self {
        Reassembler::default()
    }

    /// Next in-order byte expected — the cumulative-ack value every
    /// arriving segment elicits.
    pub fn rcv_next(&self) -> u64 {
        self.rcv_next
    }

    /// Offers the segment at `seq`; delivers into `out` and advances the
    /// in-order edge iff it is the next expected segment. Out-of-order
    /// segments are discarded (go-back-N) and `false` is returned.
    pub fn deliver_in_order(&mut self, seq: u64, payload: &[u8], out: &mut [u8]) -> bool {
        if seq != self.rcv_next {
            return false;
        }
        out[seq as usize..seq as usize + payload.len()].copy_from_slice(payload);
        self.rcv_next = seq + payload.len() as u64;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enzian_sim::{Duration, SimRng};
    use std::collections::HashSet;

    #[test]
    fn checksum_known_values() {
        // All zeros checksums to 0xFFFF; RFC 1071 example.
        assert_eq!(internet_checksum(&[0, 0, 0, 0]), 0xFFFF);
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2u16);
    }

    #[test]
    fn checksum_round_trips_on_odd_length_buffers() {
        let mut rng = SimRng::seed_from(0xC4EC_0001);
        for case in 0..64 {
            let n = 2 * case + 1; // every odd length 1..=127
            let mut data = vec![0u8; n];
            rng.fill_bytes(&mut data);
            let sum = internet_checksum(&data);
            assert!(
                checksum_verifies(&data, sum),
                "odd-length round trip failed at n={n}"
            );
            // A corrupted byte must break verification (checksum is not
            // position-sensitive, so flip a value, not a swap).
            let mut bad = data.clone();
            bad[n / 2] ^= 0x5A;
            assert!(
                !checksum_verifies(&bad, sum),
                "corruption undetected at n={n}"
            );
        }
    }

    #[test]
    fn checksum_round_trips_on_all_ff_buffers() {
        // All-0xFF buffers are the carry-heavy worst case: every word
        // wraps, exercising the end-around carry fold.
        for n in [1usize, 2, 3, 64, 127, 128] {
            let data = vec![0xFFu8; n];
            let sum = internet_checksum(&data);
            assert!(checksum_verifies(&data, sum), "all-0xFF failed at n={n}");
        }
        // Even-length all-ones sums to 0xFFFF, so the checksum is 0.
        assert_eq!(internet_checksum(&[0xFF; 8]), 0);
    }

    /// The sum folded after every 16-bit word: the oracle for the
    /// 32-bit-word kernel.
    fn ones_complement_sum_by_word(data: &[u8]) -> u32 {
        let mut sum = 0u32;
        for chunk in data.chunks(2) {
            let word = if chunk.len() == 2 {
                u16::from_be_bytes([chunk[0], chunk[1]])
            } else {
                u16::from_be_bytes([chunk[0], 0])
            };
            sum += u32::from(word);
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        sum
    }

    #[test]
    fn word_sum_matches_the_folding_oracle_at_every_length() {
        let mut rng = SimRng::seed_from(0xC4EC_0004);
        let mut random = vec![0u8; 600];
        rng.fill_bytes(&mut random);
        let ones = [0xFFu8; 600];
        let zeros = [0u8; 600];
        for data in [&random[..], &ones, &zeros] {
            for len in 0..=data.len() {
                let data = &data[..len];
                assert_eq!(
                    ones_complement_sum(data),
                    ones_complement_sum_by_word(data),
                    "len {len}: {:02x?}",
                    &data[..len.min(8)]
                );
            }
        }
        // Every alignment of the four-byte words, too.
        for start in 1..4 {
            assert_eq!(
                ones_complement_sum(&random[start..]),
                ones_complement_sum_by_word(&random[start..])
            );
        }
    }

    #[test]
    fn segment_schedule_covers_the_stream_exactly() {
        for (mss, len) in [(2048usize, 100_000u64), (1448, 1), (1448, 1448), (512, 513)] {
            let mut sent = 0u64;
            let mut segs = 0u64;
            while sent < len {
                let s = segment_len(mss, len, sent);
                assert!(s > 0 && s <= mss);
                sent += s as u64;
                segs += 1;
            }
            assert_eq!(sent, len);
            assert_eq!(segs, len.div_ceil(mss as u64));
        }
    }

    #[test]
    fn checksum_verifies_matches_the_copying_definition() {
        // The definition before the checksum word was folded in place:
        // copy the segment, pad it to even length, append the word, and
        // checksum the whole buffer.
        fn copying(data: &[u8], checksum: u16) -> bool {
            let mut framed = data.to_vec();
            if framed.len() % 2 == 1 {
                framed.push(0);
            }
            framed.extend_from_slice(&checksum.to_be_bytes());
            internet_checksum(&framed) == 0
        }
        let mut rng = SimRng::seed_from(0xC4EC_0003);
        for case in 0..2_000u64 {
            let len = rng.range(0, 64) as usize;
            let fill = rng.range(0, 2);
            let data: Vec<u8> = (0..len)
                .map(|_| match fill {
                    0 => 0,
                    1 => 0xFF,
                    _ => rng.next_u64() as u8,
                })
                .collect();
            let good = internet_checksum(&data);
            for sum in [good, rng.next_u64() as u16, !good, 0, 0xFFFF] {
                assert_eq!(
                    checksum_verifies(&data, sum),
                    copying(&data, sum),
                    "case {case}: len {len}, checksum {sum:#06x}"
                );
            }
            assert!(checksum_verifies(&data, good));
        }
    }

    /// Drives the reliability module in isolation — no engine, no link —
    /// through a scripted drop set, and checks the go-back-N contract:
    /// every dropped segment is eventually retransmitted **exactly
    /// once**, retransmissions happen **in order**, and the receiver
    /// reassembles the stream intact.
    fn run_isolated(len: u64, mss: usize, rto: Duration, drop_seqs: &[u64]) {
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let mut out = vec![0u8; len as usize];
        let mut gbn = GoBackN::new();
        let mut rsm = Reassembler::new();
        let mut dropped: HashSet<u64> = drop_seqs.iter().copied().collect();
        let mut retransmitted: Vec<u64> = Vec::new();
        let mut sent = 0u64;
        let mut now = Time::ZERO;

        while rsm.rcv_next() < len {
            if let Some(pending) = gbn.pending() {
                // No window in this harness: fire as soon as scheduled.
                assert_eq!(gbn.fire(), pending);
                retransmitted.push(pending.seq);
                sent = pending.seq.min(sent);
                now = now.max(pending.at);
            }
            let seg = segment_len(mss, len, sent);
            let seq = sent;
            now += Duration::from_ns(10);
            sent = seq + seg as u64;
            let first = gbn.first_transmission(seq, sent);
            if first && dropped.remove(&seq) {
                gbn.schedule_rewind(now + rto, seq, "drop");
                continue;
            }
            let payload = &data[seq as usize..seq as usize + seg];
            let sum = internet_checksum(payload);
            assert!(checksum_verifies(payload, sum));
            rsm.deliver_in_order(seq, payload, &mut out);
        }

        assert_eq!(out, data, "stream corrupted");
        assert_eq!(rsm.rcv_next(), len);
        // Exactly one retransmission event per dropped segment, fired in
        // stream order.
        let mut expected: Vec<u64> = drop_seqs.to_vec();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(
            retransmitted, expected,
            "each drop must be retransmitted exactly once, in order"
        );
        assert_eq!(gbn.retransmissions(), expected.len() as u64);
    }

    #[test]
    fn every_dropped_segment_is_retransmitted_exactly_once_in_order() {
        let mss = 1000usize;
        run_isolated(10_000, mss, Duration::from_us(50), &[0]);
        run_isolated(10_000, mss, Duration::from_us(50), &[3000, 7000]);
        run_isolated(10_000, mss, Duration::from_us(50), &[9000]);
        // Every segment dropped once: the harshest pattern.
        let all: Vec<u64> = (0..10).map(|i| i * 1000).collect();
        run_isolated(10_000, mss, Duration::from_us(50), &all);
    }

    #[test]
    fn randomized_drop_sets_hold_the_contract() {
        let mut rng = SimRng::seed_from(0xC4EC_0002);
        for _case in 0..32 {
            let segs = rng.range(1, 40);
            let mss = 512usize;
            let len = segs * 512;
            let drops: Vec<u64> = (0..segs)
                .filter(|_| rng.chance(0.3))
                .map(|i| i * 512)
                .collect();
            run_isolated(len, mss, Duration::from_us(20), &drops);
        }
    }

    #[test]
    fn rewind_keeps_the_earliest_offset() {
        let mut gbn = GoBackN::new();
        gbn.schedule_rewind(Time::from_us(30), 5000, "a");
        gbn.schedule_rewind(Time::from_us(10), 9000, "b");
        // The earlier *offset* wins, keeping go-back-N monotone, and
        // carries its own cause.
        let earliest = Rewind {
            at: Time::from_us(30),
            seq: 5000,
            cause: "a",
        };
        assert_eq!(gbn.pending(), Some(earliest));
        // An earlier offset replaces the pending rewind, cause and all.
        gbn.schedule_rewind(Time::from_us(40), 1000, "c");
        let replaced = Rewind {
            at: Time::from_us(40),
            seq: 1000,
            cause: "c",
        };
        assert_eq!(gbn.fire(), replaced);
        assert_eq!(gbn.pending(), None);
        assert_eq!(gbn.retransmissions(), 1);
    }

    #[test]
    fn ack_coverage_cancels_a_pending_rewind_without_counting() {
        let mut gbn = GoBackN::new();
        gbn.schedule_rewind(Time::from_us(10), 4000, "x");
        // Acks up to (but not past) the offset leave the timer armed.
        assert_eq!(gbn.cancel_covered(4000), None);
        assert!(gbn.pending().is_some());
        // A cumulative ack past the offset voids the timer, and the
        // cancellation is not a retransmission event.
        assert_eq!(
            gbn.cancel_covered(4001).map(|r| (r.at, r.seq, r.cause)),
            Some((Time::from_us(10), 4000, "x"))
        );
        assert_eq!(gbn.pending(), None);
        assert_eq!(gbn.retransmissions(), 0);
    }

    #[test]
    fn reassembler_discards_out_of_order() {
        let mut rsm = Reassembler::new();
        let mut out = vec![0u8; 8];
        assert!(!rsm.deliver_in_order(4, &[9, 9, 9, 9], &mut out));
        assert_eq!(rsm.rcv_next(), 0);
        assert!(rsm.deliver_in_order(0, &[1, 2, 3, 4], &mut out));
        assert!(rsm.deliver_in_order(4, &[5, 6, 7, 8], &mut out));
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    /// The high-water mark answers "first transmission?" exactly as the
    /// set of every offset sent would, over random schedules of sends,
    /// go-back-N rewinds and cumulative acks on one MSS schedule.
    #[test]
    fn the_first_transmission_watermark_matches_a_set_of_sent_offsets() {
        let mut rng = SimRng::seed_from(0xC4EC_0005);
        for case in 0..200 {
            let mss = 1 + rng.next_below(64) as usize;
            let len = 1 + rng.next_below(4_000);
            let mut gbn = GoBackN::new();
            let mut oracle = HashSet::new();
            let (mut sent, mut acked) = (0u64, 0u64);
            let mut firsts = 0;
            while acked < len {
                match rng.next_below(8) {
                    // Rewind to a segment boundary at or after the ack edge.
                    0 if sent > acked => {
                        let back = rng.next_below((sent - acked).div_ceil(mss as u64));
                        sent = (acked + back * mss as u64).min(sent);
                    }
                    // A cumulative ack up to a boundary already sent.
                    1 if sent > acked => {
                        let segs = (sent - acked).div_ceil(mss as u64);
                        acked = (acked + (1 + rng.next_below(segs)) * mss as u64).min(sent);
                        sent = sent.max(acked);
                    }
                    _ if sent < len => {
                        let seq = sent;
                        sent += segment_len(mss, len, sent) as u64;
                        let first = gbn.first_transmission(seq, sent);
                        assert_eq!(first, oracle.insert(seq), "case {case}: seq {seq}");
                        firsts += u64::from(first);
                    }
                    _ => {}
                }
            }
            assert_eq!(firsts, len.div_ceil(mss as u64), "case {case}");
        }
    }
}
