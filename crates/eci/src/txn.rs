//! Transaction-layer types for the event-driven ECI engine.
//!
//! The protocol engine in [`crate::system`] runs every coherence operation
//! as a chain of discrete events over an MSHR-style transaction table,
//! the shape BedRock-like coherence engines use in hardware. This module
//! holds the pieces of that machinery that know nothing of events: the
//! public issue/poll surface ([`TxnHandle`], [`TxnOp`], [`TxnStatus`],
//! [`TxnCompletion`]) and the MSHR table itself (`MshrTable`), which
//! bounds the number of concurrently outstanding transactions and queues
//! same-line conflicts per entry so conflicting transactions serialize.

use enzian_mem::Addr;
use enzian_sim::{FxHashMap, Time};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Opaque handle to a transaction issued through the async API
/// ([`crate::EciSystem::issue`] and friends). Poll it with
/// [`crate::EciSystem::poll`] or block on it with
/// [`crate::EciSystem::run_until_complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnHandle(pub(crate) u64);

/// A coherence operation, as carried by the transaction engine. The
/// variants mirror the synchronous facade operations one-to-one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOp {
    /// Uncached coherent read of a CPU-homed line by the FPGA.
    FpgaRead,
    /// Uncached coherent write of a CPU-homed line by the FPGA.
    FpgaWrite([u8; 128]),
    /// FPGA acquires a cached copy (`exclusive` for a writable one).
    FpgaAcquire {
        /// Request a writable (owned) copy instead of a shared one.
        exclusive: bool,
    },
    /// FPGA upgrades a previously acquired Shared copy to ownership.
    FpgaUpgrade,
    /// FPGA releases a previously acquired line, writing back dirty data.
    FpgaRelease(Option<[u8; 128]>),
    /// CPU reads one line through the L2 (local or remote home).
    CpuRead,
    /// CPU writes one line through the L2.
    CpuWrite([u8; 128]),
}

impl TxnOp {
    /// The operation name used in completions and error reports.
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// The operation without its line payload.
    pub(crate) fn kind(&self) -> OpKind {
        match *self {
            TxnOp::FpgaRead => OpKind::FpgaRead,
            TxnOp::FpgaWrite(_) => OpKind::FpgaWrite,
            TxnOp::FpgaAcquire { exclusive } => OpKind::FpgaAcquire { exclusive },
            TxnOp::FpgaUpgrade => OpKind::FpgaUpgrade,
            TxnOp::FpgaRelease(d) => OpKind::FpgaRelease { dirty: d.is_some() },
            TxnOp::CpuRead => OpKind::CpuRead,
            TxnOp::CpuWrite(_) => OpKind::CpuWrite,
        }
    }

    /// The line the operation writes, if it carries one.
    pub(crate) fn payload(&self) -> Option<&[u8; 128]> {
        match self {
            TxnOp::FpgaWrite(d) | TxnOp::CpuWrite(d) | TxnOp::FpgaRelease(Some(d)) => Some(d),
            _ => None,
        }
    }
}

/// A [`TxnOp`] without its line payload: two bytes the engine keeps in
/// every transaction's record, while the payload waits apart until the
/// step that writes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    FpgaRead,
    FpgaWrite,
    FpgaAcquire { exclusive: bool },
    FpgaUpgrade,
    FpgaRelease { dirty: bool },
    CpuRead,
    CpuWrite,
}

impl OpKind {
    /// [`TxnOp::name`] of the operation.
    pub(crate) fn name(self) -> &'static str {
        match self {
            OpKind::FpgaRead => "fpga_read_line",
            OpKind::FpgaWrite => "fpga_write_line",
            OpKind::FpgaAcquire { .. } => "fpga_acquire_line",
            OpKind::FpgaUpgrade => "fpga_upgrade_line",
            OpKind::FpgaRelease { .. } => "fpga_release_line",
            OpKind::CpuRead => "cpu_read_line",
            OpKind::CpuWrite => "cpu_write_line",
        }
    }
}

/// Where an issued transaction currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// Issued but not yet complete (possibly still queued behind an MSHR
    /// conflict or a full transaction table).
    InFlight,
    /// Complete; the result waits in the completion table.
    Completed,
    /// Unknown handle: never issued, or its completion was already taken.
    Retired,
}

/// The result of one completed transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnCompletion {
    /// The handle this completion belongs to.
    pub handle: TxnHandle,
    /// The line-aligned address the operation targeted.
    pub addr: Addr,
    /// The operation name (matches [`TxnOp::name`]).
    pub op: &'static str,
    /// When the transaction left the MSHR admission queue and began
    /// service (equals the issue time unless it queued on a conflict or a
    /// full table).
    pub issued: Time,
    /// When the requester observed completion.
    pub completed: Time,
    /// Line data, for operations that return data.
    pub data: Option<[u8; 128]>,
}

/// Outcome of presenting a transaction to the MSHR table.
pub(crate) enum Admitted {
    /// A free entry was allocated; start the transaction now.
    Start(u32),
    /// Same-line conflict: queued on the existing entry; it starts when
    /// the predecessor retires.
    Conflict,
    /// Table full: queued on the overflow queue; it starts when an entry
    /// frees up.
    Full,
}

/// The MSHR-style transaction table: at most `capacity` lines have a
/// transaction in flight; same-line requests queue per entry (FIFO), and
/// requests arriving with the table full queue FIFO in an overflow queue.
///
/// A transaction is the slot of its record in the engine, presented with
/// its line key. An entry is a line key and the index of its waiter
/// queue, if it ever had a waiter; most never do. Waiter queues of freed
/// entries are kept for reuse, so once the table has seen its peak the
/// admit/retire cycle allocates nothing.
#[derive(Debug)]
pub(crate) struct MshrTable {
    capacity: usize,
    /// Keyed by line base address: the entry's waiter queue in `queues`,
    /// or [`NO_WAITERS`]. The in-flight head transaction lives in the
    /// event chain itself.
    entries: FxHashMap<u64, u32>,
    /// Waiter queues, named by index from `entries` or listed in `spare`.
    queues: Vec<VecDeque<u32>>,
    /// Indices of empty waiter queues, capacity retained.
    spare: Vec<u32>,
    overflow: VecDeque<(u64, u32)>,
}

/// An [`MshrTable`] entry that has no waiter queue.
const NO_WAITERS: u32 = u32::MAX;

/// An empty waiter queue: a spare one, or a new one.
fn waiter_queue(queues: &mut Vec<VecDeque<u32>>, spare: &mut Vec<u32>) -> u32 {
    spare.pop().unwrap_or_else(|| {
        queues.push(VecDeque::new());
        u32::try_from(queues.len() - 1).expect("waiter queue index overflow")
    })
}

impl MshrTable {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR table needs at least one entry");
        MshrTable {
            capacity,
            entries: FxHashMap::default(),
            queues: Vec::new(),
            spare: Vec::new(),
            overflow: VecDeque::new(),
        }
    }

    /// Transactions currently holding an MSHR entry.
    pub(crate) fn in_flight(&self) -> usize {
        self.entries.len()
    }

    /// Transactions queued (same-line waiters plus overflow).
    pub(crate) fn queued(&self) -> usize {
        let waiting = self.entries.values().filter(|&&q| q != NO_WAITERS);
        waiting
            .map(|&q| self.queues[q as usize].len())
            .sum::<usize>()
            + self.overflow.len()
    }

    /// Presents transaction `t` on line `key` to the table.
    pub(crate) fn admit(&mut self, key: u64, t: u32) -> Admitted {
        if let Some(q) = self.entries.get_mut(&key) {
            if *q == NO_WAITERS {
                *q = waiter_queue(&mut self.queues, &mut self.spare);
            }
            self.queues[*q as usize].push_back(t);
            Admitted::Conflict
        } else if self.entries.len() >= self.capacity {
            self.overflow.push_back((key, t));
            Admitted::Full
        } else {
            self.entries.insert(key, NO_WAITERS);
            Admitted::Start(t)
        }
    }

    /// Retires the in-flight transaction on `line_key` and returns the
    /// transaction to start next, if any: the oldest same-line waiter
    /// (the entry stays allocated), or — once the entry frees — the
    /// oldest overflow transaction, in the freed slot.
    ///
    /// A transaction overflows only when its line has no entry, and an
    /// entry started from the overflow queue takes every younger
    /// same-line overflow transaction as its waiters, in order. So no
    /// overflow transaction ever has a live entry, and a later same-line
    /// admission queues behind all of them instead of overtaking one.
    pub(crate) fn retire(&mut self, line_key: u64) -> Option<u32> {
        let Entry::Occupied(entry) = self.entries.entry(line_key) else {
            panic!("retire of a line with no MSHR entry");
        };
        let q = *entry.get();
        if q != NO_WAITERS {
            if let Some(next) = self.queues[q as usize].pop_front() {
                return Some(next);
            }
            self.spare.push(q);
        }
        entry.remove();
        let (key, t) = self.overflow.pop_front()?;
        debug_assert!(!self.entries.contains_key(&key));
        let (queues, spare) = (&mut self.queues, &mut self.spare);
        let mut waiters = NO_WAITERS;
        self.overflow.retain(|&(k, w)| {
            if k != key {
                return true;
            }
            if waiters == NO_WAITERS {
                waiters = waiter_queue(queues, spare);
            }
            queues[waiters as usize].push_back(w);
            false
        });
        self.entries.insert(key, waiters);
        Some(t)
    }
}

/// Counters of the transaction engine itself (the MSHR/VC layer; the
/// protocol-level counters stay in [`crate::system::EciSystemStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Transactions that began service.
    pub started: u64,
    /// Transactions that completed.
    pub completed: u64,
    /// Admissions queued behind a same-line MSHR conflict.
    pub mshr_conflicts: u64,
    /// Admissions queued because the transaction table was full.
    pub mshr_full_stalls: u64,
    /// Sends queued because the engine-level VC queue was out of credits.
    pub vc_queue_stalls: u64,
    /// High-water mark of concurrently in-flight transactions.
    pub max_inflight: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Presents transaction `t` on the line holding `addr`.
    fn admit(table: &mut MshrTable, t: u32, addr: u64) -> Admitted {
        table.admit(Addr(addr).line().base().0, t)
    }

    #[test]
    fn same_line_conflicts_queue_on_the_entry() {
        let mut t = MshrTable::new(4);
        assert!(matches!(admit(&mut t, 1, 0), Admitted::Start(_)));
        assert!(matches!(admit(&mut t, 2, 64), Admitted::Conflict));
        assert!(matches!(admit(&mut t, 3, 0), Admitted::Conflict));
        assert_eq!(t.in_flight(), 1);
        assert_eq!(t.queued(), 2);
        // Retire releases waiters strictly FIFO, entry stays allocated.
        assert_eq!(t.retire(0).unwrap(), 2);
        assert_eq!(t.retire(0).unwrap(), 3);
        assert!(t.retire(0).is_none());
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn full_table_overflows_and_refills_fifo() {
        let mut t = MshrTable::new(2);
        assert!(matches!(admit(&mut t, 1, 0), Admitted::Start(_)));
        assert!(matches!(admit(&mut t, 2, 128), Admitted::Start(_)));
        assert!(matches!(admit(&mut t, 3, 256), Admitted::Full));
        assert!(matches!(admit(&mut t, 4, 384), Admitted::Full));
        assert_eq!(t.in_flight(), 2);
        // Retiring a line starts the oldest overflow transaction.
        assert_eq!(t.retire(0).unwrap(), 3);
        assert_eq!(t.in_flight(), 2);
        assert_eq!(t.retire(256).unwrap(), 4);
    }

    #[test]
    fn same_line_admits_queue_on_the_entry_even_when_full() {
        let mut t = MshrTable::new(2);
        assert!(matches!(admit(&mut t, 1, 0), Admitted::Start(_)));
        assert!(matches!(admit(&mut t, 2, 128), Admitted::Start(_)));
        // A same-line request with the table full still queues on its
        // live entry (it needs no new entry); unrelated lines overflow.
        assert!(matches!(admit(&mut t, 3, 128 + 4), Admitted::Conflict));
        assert!(matches!(admit(&mut t, 4, 256), Admitted::Full));
        // Retiring line 0 walks the overflow queue: txn 4 starts in the
        // freed slot.
        assert_eq!(t.retire(0).unwrap(), 4);
        // Txn 3 starts when its line retires.
        assert_eq!(t.retire(128).unwrap(), 3);
    }

    #[test]
    fn overflowed_same_line_transactions_keep_their_order() {
        let mut t = MshrTable::new(1);
        assert!(matches!(admit(&mut t, 1, 0), Admitted::Start(_)));
        // Line 128 has no entry and the table is full: both of its
        // transactions park in the overflow queue, behind one on 256.
        assert!(matches!(admit(&mut t, 2, 128), Admitted::Full));
        assert!(matches!(admit(&mut t, 3, 256), Admitted::Full));
        assert!(matches!(admit(&mut t, 4, 128), Admitted::Full));
        // Retiring line 0 starts txn 2; txn 4 moves onto its entry.
        assert_eq!(t.retire(0).unwrap(), 2);
        assert_eq!((t.in_flight(), t.queued()), (1, 2));
        // A younger same-line admission queues behind txn 4, not ahead.
        assert!(matches!(admit(&mut t, 5, 128), Admitted::Conflict));
        assert_eq!(t.retire(128).unwrap(), 4);
        assert_eq!(t.retire(128).unwrap(), 5);
        // Only then does the line free its slot for txn 3.
        assert_eq!(t.retire(128).unwrap(), 3);
        assert!(t.retire(256).is_none());
        assert_eq!((t.in_flight(), t.queued()), (0, 0));
    }
}
