//! The replicated key-value service: shard/replica/client state machines.
//!
//! This module is the *logic* of `enzian-apps::service` — the sharded,
//! primary-backup replicated KV store that `enzian-platform::service`
//! runs across a multi-board cluster. Everything transport-shaped
//! (channels, bridge frames, timers, the parallel engine) lives in the
//! platform crate; here live the pieces that must be correct and
//! deterministic regardless of how messages move:
//!
//! * [`ShardMap`] — which boards host a shard and who is primary at a
//!   given epoch (epoch parity alternates between the two hosts, so a
//!   promotion is always `epoch + 1`);
//! * [`SvcPayload`] — the service wire payloads (requests, responses,
//!   replication, heartbeats, catch-up) carried inside bridge frames;
//! * [`Replica`] — one shard replica: a [`KvStore`] plus the applied-op
//!   log, the per-client dedup table (exactly-once retries), and the
//!   catch-up/rebuild path;
//! * [`ClientState`] — a seeded client issuing mixed get/put/delete
//!   traffic with timeouts, bounded exponential backoff, retry budgets
//!   and stale-read degradation, every failure surfacing a typed
//!   [`SvcError`];
//! * [`SloRecorder`] — per-op-class latency histograms, availability
//!   inside/outside the fault window, and the failover-recovery
//!   histogram, exported through the shared
//!   [`enzian_sim::Instrumented`] histogram helper;
//! * [`verify_log`] — the linearizability shadow check: replay a
//!   shard's committed-op log against a fresh sequential [`KvStore`]
//!   and demand identical results.

use std::collections::BTreeMap;

use enzian_mem::{MemoryController, MemoryControllerConfig};
use enzian_sim::stats::LatencyHistogram;
use enzian_sim::{mix64, Duration, Fnv, Instrumented, MetricsRegistry, SimRng, Time};

use crate::kvs::{KvStore, KvStoreConfig, MAX_VALUE_BYTES};

// -------------------------------------------------------------------
// Shard placement
// -------------------------------------------------------------------

/// Static placement of shards onto boards, and the epoch → primary rule.
///
/// Shard `s` is hosted by boards `s % n` and `(s + 1) % n`; at epoch `e`
/// the primary is the first host when `e` is even and the second when
/// odd. A failover is therefore always "bump the epoch by one", and a
/// board can check `primary_at(shard, epoch) == me` locally — no
/// configuration service in the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    /// Number of shards.
    pub shards: u16,
    /// Number of boards.
    pub boards: u8,
}

impl ShardMap {
    /// Creates the map.
    ///
    /// # Panics
    ///
    /// Panics with fewer than 2 boards or zero shards (a shard needs a
    /// primary and a backup on distinct boards).
    pub fn new(shards: u16, boards: u8) -> Self {
        assert!(boards >= 2, "replication needs at least two boards");
        assert!(shards > 0, "a service needs at least one shard");
        ShardMap { shards, boards }
    }

    /// The two boards hosting `shard`: `[first, second]`, distinct.
    pub fn hosts(&self, shard: u16) -> [u8; 2] {
        let n = u16::from(self.boards);
        [(shard % n) as u8, ((shard + 1) % n) as u8]
    }

    /// The primary board of `shard` at `epoch`.
    pub fn primary_at(&self, shard: u16, epoch: u32) -> u8 {
        self.hosts(shard)[(epoch % 2) as usize]
    }

    /// The non-primary host of `shard` at `epoch`.
    pub fn backup_at(&self, shard: u16, epoch: u32) -> u8 {
        self.hosts(shard)[((epoch + 1) % 2) as usize]
    }

    /// `true` when `board` hosts `shard` (as primary or backup).
    pub fn is_host(&self, board: u8, shard: u16) -> bool {
        self.hosts(shard).contains(&board)
    }

    /// The shards `board` hosts, in ascending order.
    pub fn shards_of(&self, board: u8) -> Vec<u16> {
        (0..self.shards)
            .filter(|&s| self.is_host(board, s))
            .collect()
    }

    /// The shard owning `key` (the salted splitmix64 finaliser, so
    /// shards load-balance even for sequential or structured keys —
    /// one multiply round leaves `uid<<32 | small` keys clustered on a
    /// few residues).
    pub fn shard_of(&self, key: u64) -> u16 {
        (mix64(key ^ 0xA076_1D64_78BD_642F) % u64::from(self.shards)) as u16
    }
}

// -------------------------------------------------------------------
// Operations, results, errors
// -------------------------------------------------------------------

/// One client operation against the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Read `key`.
    Get {
        /// Key to read.
        key: u64,
    },
    /// Insert or overwrite `key`.
    Put {
        /// Key to write.
        key: u64,
        /// Value, at most [`MAX_VALUE_BYTES`] bytes.
        value: Vec<u8>,
    },
    /// Remove `key`.
    Delete {
        /// Key to remove.
        key: u64,
    },
}

impl KvOp {
    /// The key the operation addresses.
    pub fn key(&self) -> u64 {
        match self {
            KvOp::Get { key } | KvOp::Put { key, .. } | KvOp::Delete { key } => *key,
        }
    }

    /// The operation's class, for SLO accounting.
    pub fn class(&self) -> OpClass {
        match self {
            KvOp::Get { .. } => OpClass::Get,
            KvOp::Put { .. } => OpClass::Put,
            KvOp::Delete { .. } => OpClass::Delete,
        }
    }

    /// `true` for operations that change the store.
    pub fn is_mutation(&self) -> bool {
        !matches!(self, KvOp::Get { .. })
    }
}

/// Operation classes the SLO telemetry distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Reads.
    Get,
    /// Inserts/overwrites.
    Put,
    /// Deletions.
    Delete,
}

/// The functional result of a committed operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvResult {
    /// GET found the value.
    Found(Vec<u8>),
    /// GET missed.
    Missing,
    /// PUT committed.
    PutOk,
    /// DELETE outcome: `true` when the key was present.
    Deleted(bool),
    /// The store rejected the operation (see [`store_err_code`]).
    StoreErr(u8),
}

/// Wire code for a [`crate::kvs::KvError`] inside [`KvResult::StoreErr`].
pub fn store_err_code(e: &crate::kvs::KvError) -> u8 {
    match e {
        crate::kvs::KvError::ValueTooLarge { .. } => 1,
        crate::kvs::KvError::TableFull => 2,
        crate::kvs::KvError::ReservedKey => 3,
    }
}

/// Typed failures a client observes. Server-side rejections (the first
/// three) travel on the wire and are retried; the rest are terminal
/// client-side outcomes — a request **always** ends in a [`KvResult`]
/// or one of these within its retry budget, never a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvcError {
    /// The addressed replica is not the primary at its current epoch.
    NotPrimary {
        /// The responder's current epoch for the shard.
        epoch: u32,
        /// The board the responder believes is primary.
        primary: u8,
    },
    /// The responder cannot see a board majority and refuses to serve.
    NoQuorum,
    /// The replica is rebuilding its state (crash rejoin / fencing).
    Recovering,
    /// No response arrived within the per-attempt timeout.
    Timeout {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The retry budget (including any stale-read fallback) is spent.
    Unavailable {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The client's own board crashed while the request was in flight.
    ClientCrashed,
}

impl std::fmt::Display for SvcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvcError::NotPrimary { epoch, primary } => {
                write!(f, "not primary (epoch {epoch}, primary board {primary})")
            }
            SvcError::NoQuorum => write!(f, "no board majority visible"),
            SvcError::Recovering => write!(f, "replica recovering"),
            SvcError::Timeout { attempts } => {
                write!(f, "request timed out after {attempts} attempts")
            }
            SvcError::Unavailable { attempts } => {
                write!(f, "shard unavailable after {attempts} attempts")
            }
            SvcError::ClientCrashed => write!(f, "client board crashed mid-request"),
        }
    }
}

impl std::error::Error for SvcError {}

// -------------------------------------------------------------------
// Wire payloads
// -------------------------------------------------------------------

/// A service message, carried as the payload of a bridge `Svc*` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvcPayload {
    /// Client → replica: execute `op` on `shard`.
    Request {
        /// Issuing client uid (globally unique).
        client: u32,
        /// Per-attempt id; the matching response echoes it.
        req_id: u32,
        /// Per-client operation sequence number (dedup key).
        op_seq: u32,
        /// Target shard.
        shard: u16,
        /// The epoch the client believes current (fencing hint).
        epoch: u32,
        /// Allow any replica to answer from possibly-stale state.
        stale_ok: bool,
        /// The operation.
        op: KvOp,
    },
    /// Replica → client: the outcome.
    Response {
        /// Echoed client uid.
        client: u32,
        /// Echoed request id.
        req_id: u32,
        /// Shard concerned.
        shard: u16,
        /// Responder's current epoch for the shard.
        epoch: u32,
        /// Result or server-side rejection.
        body: Result<RespOk, RespErr>,
    },
    /// Primary → backup: apply log entry `index`.
    Replicate {
        /// Shard concerned.
        shard: u16,
        /// Primary's epoch (backup fences lower epochs).
        epoch: u32,
        /// Log index of the entry.
        index: u32,
        /// Originating client uid (rebuilds the dedup table).
        client: u32,
        /// Originating per-client sequence number.
        op_seq: u32,
        /// The operation.
        op: KvOp,
    },
    /// Backup → primary: entry `index` applied.
    RepAck {
        /// Shard concerned.
        shard: u16,
        /// Acker's epoch.
        epoch: u32,
        /// Acked log index.
        index: u32,
    },
    /// Backup → primary: your epoch is stale — stop serving.
    RepNack {
        /// Shard concerned.
        shard: u16,
        /// The responder's (higher) epoch.
        epoch: u32,
    },
    /// Board → board: liveness beacon plus per-hosted-shard epochs, so
    /// a healed stale primary learns it was fenced within one interval.
    Heartbeat {
        /// Per-sender heartbeat sequence number.
        seq: u32,
        /// `(shard, epoch)` for every shard the sender hosts.
        epochs: Vec<(u16, u32)>,
    },
    /// Rejoining replica → peer host: send me your full log.
    CatchupReq {
        /// Shard to rebuild.
        shard: u16,
    },
    /// Peer → rejoining replica: snapshot header; `len` [`SvcPayload::Replicate`]
    /// entries (indices `0..len`) follow on the same in-order flow.
    CatchupStart {
        /// Shard being rebuilt.
        shard: u16,
        /// Responder's epoch.
        epoch: u32,
        /// Entries in the snapshot.
        len: u32,
    },
}

/// Successful response body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RespOk {
    /// The committed result.
    pub result: KvResult,
    /// `true` when served from possibly-stale (non-primary) state.
    pub stale: bool,
}

/// Server-side rejection body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RespErr {
    /// The rejection (only the server-side [`SvcError`] variants).
    pub error: SvcError,
}

/// Decoding failures for service payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvcWireError {
    /// Fewer bytes than the field being read requires.
    Truncated,
    /// Unknown tag/kind byte at the given offset.
    BadTag(u8),
    /// Trailing bytes after a complete payload.
    TrailingBytes(usize),
}

impl std::fmt::Display for SvcWireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvcWireError::Truncated => write!(f, "truncated service payload"),
            SvcWireError::BadTag(t) => write!(f, "unknown service payload tag {t}"),
            SvcWireError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for SvcWireError {}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, SvcWireError> {
        let b = *self.buf.get(self.at).ok_or(SvcWireError::Truncated)?;
        self.at += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, SvcWireError> {
        Ok(u16::from_le_bytes([self.u8()?, self.u8()?]))
    }

    fn u32(&mut self) -> Result<u32, SvcWireError> {
        Ok(u32::from_le_bytes([
            self.u8()?,
            self.u8()?,
            self.u8()?,
            self.u8()?,
        ]))
    }

    fn u64(&mut self) -> Result<u64, SvcWireError> {
        let lo = self.u32()?;
        let hi = self.u32()?;
        Ok(u64::from(lo) | (u64::from(hi) << 32))
    }

    fn slice(&mut self, n: usize) -> Result<&'a [u8], SvcWireError> {
        let end = self.at.checked_add(n).ok_or(SvcWireError::Truncated)?;
        let s = self.buf.get(self.at..end).ok_or(SvcWireError::Truncated)?;
        self.at = end;
        Ok(s)
    }

    fn bytes(&mut self, n: usize) -> Result<Vec<u8>, SvcWireError> {
        Ok(self.slice(n)?.to_vec())
    }

    /// Demands the whole buffer was read.
    fn finish(&self) -> Result<(), SvcWireError> {
        match self.buf.len() - self.at {
            0 => Ok(()),
            n => Err(SvcWireError::TrailingBytes(n)),
        }
    }
}

/// Wire tag of [`SvcPayload::Heartbeat`].
const HEARTBEAT_TAG: u8 = 6;

/// Bytes of one `(shard, epoch)` heartbeat entry.
const HEARTBEAT_ENTRY_BYTES: usize = 6;

/// A heartbeat read in place from its payload bytes: the sequence
/// number, and the `(shard, epoch)` entries decoded one by one as
/// [`HeartbeatView::epochs`] yields them. A board acts on a heartbeat
/// through this view without building a `Vec`; [`decode_svc`] builds
/// [`SvcPayload::Heartbeat`] from it, so both accept and reject exactly
/// the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatView<'a> {
    /// Per-sender heartbeat sequence number.
    pub seq: u32,
    /// The entries, [`HEARTBEAT_ENTRY_BYTES`] each.
    entries: &'a [u8],
}

impl<'a> HeartbeatView<'a> {
    /// Reads a whole heartbeat payload, tag byte included.
    ///
    /// # Errors
    ///
    /// Returns [`SvcWireError::BadTag`] for any other message kind, and
    /// otherwise exactly the error [`decode_svc`] returns for `buf`.
    pub fn parse(buf: &'a [u8]) -> Result<Self, SvcWireError> {
        let mut r = Reader { buf, at: 0 };
        match r.u8()? {
            HEARTBEAT_TAG => {}
            t => return Err(SvcWireError::BadTag(t)),
        }
        let view = Self::read(&mut r)?;
        r.finish()?;
        Ok(view)
    }

    /// Reads the heartbeat body that follows its tag. The entry count
    /// is checked against the bytes left before anything else is read.
    fn read(r: &mut Reader<'a>) -> Result<Self, SvcWireError> {
        let seq = r.u32()?;
        let n = usize::from(r.u16()?);
        let entries = r.slice(n * HEARTBEAT_ENTRY_BYTES)?;
        Ok(HeartbeatView { seq, entries })
    }

    /// The `(shard, epoch)` entries, in wire order.
    pub fn epochs(&self) -> impl ExactSizeIterator<Item = (u16, u32)> + 'a {
        self.entries.chunks_exact(HEARTBEAT_ENTRY_BYTES).map(|e| {
            (
                u16::from_le_bytes([e[0], e[1]]),
                u32::from_le_bytes([e[2], e[3], e[4], e[5]]),
            )
        })
    }
}

/// Appends the encoding of a heartbeat carrying `seq` and `epochs`: the
/// bytes [`encode_svc_into`] writes for the equivalent
/// [`SvcPayload::Heartbeat`], without building its `Vec`.
pub fn encode_heartbeat_into(
    seq: u32,
    epochs: impl ExactSizeIterator<Item = (u16, u32)>,
    out: &mut Vec<u8>,
) {
    out.push(HEARTBEAT_TAG);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(epochs.len() as u16).to_le_bytes());
    for (shard, epoch) in epochs {
        out.extend_from_slice(&shard.to_le_bytes());
        out.extend_from_slice(&epoch.to_le_bytes());
    }
}

fn put_op(out: &mut Vec<u8>, op: &KvOp) {
    match op {
        KvOp::Get { key } => {
            out.push(1);
            out.extend_from_slice(&key.to_le_bytes());
        }
        KvOp::Put { key, value } => {
            out.push(2);
            out.extend_from_slice(&key.to_le_bytes());
            out.push(value.len() as u8);
            out.extend_from_slice(value);
        }
        KvOp::Delete { key } => {
            out.push(3);
            out.extend_from_slice(&key.to_le_bytes());
        }
    }
}

fn get_op(r: &mut Reader<'_>) -> Result<KvOp, SvcWireError> {
    match r.u8()? {
        1 => Ok(KvOp::Get { key: r.u64()? }),
        2 => {
            let key = r.u64()?;
            let len = r.u8()? as usize;
            Ok(KvOp::Put {
                key,
                value: r.bytes(len)?,
            })
        }
        3 => Ok(KvOp::Delete { key: r.u64()? }),
        t => Err(SvcWireError::BadTag(t)),
    }
}

/// Appends the encoding of a [`SvcPayload::Replicate`] from borrowed
/// parts, so a caller holding a log entry need not clone its op.
fn put_replicate(
    out: &mut Vec<u8>,
    shard: u16,
    epoch: u32,
    index: u32,
    client: u32,
    op_seq: u32,
    op: &KvOp,
) {
    out.push(3);
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(&client.to_le_bytes());
    out.extend_from_slice(&op_seq.to_le_bytes());
    put_op(out, op);
}

fn put_result(out: &mut Vec<u8>, res: &KvResult) {
    match res {
        KvResult::Found(v) => {
            out.push(1);
            out.push(v.len() as u8);
            out.extend_from_slice(v);
        }
        KvResult::Missing => out.push(2),
        KvResult::PutOk => out.push(3),
        KvResult::Deleted(found) => {
            out.push(4);
            out.push(u8::from(*found));
        }
        KvResult::StoreErr(code) => {
            out.push(5);
            out.push(*code);
        }
    }
}

fn get_result(r: &mut Reader<'_>) -> Result<KvResult, SvcWireError> {
    match r.u8()? {
        1 => {
            let len = r.u8()? as usize;
            Ok(KvResult::Found(r.bytes(len)?))
        }
        2 => Ok(KvResult::Missing),
        3 => Ok(KvResult::PutOk),
        4 => Ok(KvResult::Deleted(r.u8()? != 0)),
        5 => Ok(KvResult::StoreErr(r.u8()?)),
        t => Err(SvcWireError::BadTag(t)),
    }
}

/// Appends the encoding of `p` to `out`: how a board writes a service
/// message straight into the bridge frame that carries it.
pub fn encode_svc_into(p: &SvcPayload, out: &mut Vec<u8>) {
    match p {
        SvcPayload::Request {
            client,
            req_id,
            op_seq,
            shard,
            epoch,
            stale_ok,
            op,
        } => {
            out.push(1);
            out.extend_from_slice(&client.to_le_bytes());
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&op_seq.to_le_bytes());
            out.extend_from_slice(&shard.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
            out.push(u8::from(*stale_ok));
            put_op(out, op);
        }
        SvcPayload::Response {
            client,
            req_id,
            shard,
            epoch,
            body,
        } => {
            out.push(2);
            out.extend_from_slice(&client.to_le_bytes());
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&shard.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
            match body {
                Ok(ok) => {
                    out.push(1);
                    out.push(u8::from(ok.stale));
                    put_result(out, &ok.result);
                }
                Err(e) => {
                    out.push(2);
                    match e.error {
                        SvcError::NotPrimary { epoch, primary } => {
                            out.push(1);
                            out.extend_from_slice(&epoch.to_le_bytes());
                            out.push(primary);
                        }
                        SvcError::NoQuorum => out.push(2),
                        SvcError::Recovering => out.push(3),
                        // Client-terminal variants never travel.
                        _ => unreachable!("client-side error on the wire"),
                    }
                }
            }
        }
        SvcPayload::Replicate {
            shard,
            epoch,
            index,
            client,
            op_seq,
            op,
        } => put_replicate(out, *shard, *epoch, *index, *client, *op_seq, op),
        SvcPayload::RepAck {
            shard,
            epoch,
            index,
        } => {
            out.push(4);
            out.extend_from_slice(&shard.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&index.to_le_bytes());
        }
        SvcPayload::RepNack { shard, epoch } => {
            out.push(5);
            out.extend_from_slice(&shard.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
        }
        SvcPayload::Heartbeat { seq, epochs } => {
            encode_heartbeat_into(*seq, epochs.iter().copied(), out);
        }
        SvcPayload::CatchupReq { shard } => {
            out.push(7);
            out.extend_from_slice(&shard.to_le_bytes());
        }
        SvcPayload::CatchupStart { shard, epoch, len } => {
            out.push(8);
            out.extend_from_slice(&shard.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
    }
}

/// Decodes one service payload.
///
/// # Errors
///
/// Returns a [`SvcWireError`] on truncation, unknown tags, or trailing
/// bytes.
pub fn decode_svc(buf: &[u8]) -> Result<SvcPayload, SvcWireError> {
    let mut r = Reader { buf, at: 0 };
    let payload = match r.u8()? {
        1 => {
            let client = r.u32()?;
            let req_id = r.u32()?;
            let op_seq = r.u32()?;
            let shard = r.u16()?;
            let epoch = r.u32()?;
            let stale_ok = r.u8()? != 0;
            SvcPayload::Request {
                client,
                req_id,
                op_seq,
                shard,
                epoch,
                stale_ok,
                op: get_op(&mut r)?,
            }
        }
        2 => {
            let client = r.u32()?;
            let req_id = r.u32()?;
            let shard = r.u16()?;
            let epoch = r.u32()?;
            let body = match r.u8()? {
                1 => {
                    let stale = r.u8()? != 0;
                    Ok(RespOk {
                        result: get_result(&mut r)?,
                        stale,
                    })
                }
                2 => {
                    let error = match r.u8()? {
                        1 => SvcError::NotPrimary {
                            epoch: r.u32()?,
                            primary: r.u8()?,
                        },
                        2 => SvcError::NoQuorum,
                        3 => SvcError::Recovering,
                        t => return Err(SvcWireError::BadTag(t)),
                    };
                    Err(RespErr { error })
                }
                t => return Err(SvcWireError::BadTag(t)),
            };
            SvcPayload::Response {
                client,
                req_id,
                shard,
                epoch,
                body,
            }
        }
        3 => {
            let shard = r.u16()?;
            let epoch = r.u32()?;
            let index = r.u32()?;
            let client = r.u32()?;
            let op_seq = r.u32()?;
            SvcPayload::Replicate {
                shard,
                epoch,
                index,
                client,
                op_seq,
                op: get_op(&mut r)?,
            }
        }
        4 => SvcPayload::RepAck {
            shard: r.u16()?,
            epoch: r.u32()?,
            index: r.u32()?,
        },
        5 => SvcPayload::RepNack {
            shard: r.u16()?,
            epoch: r.u32()?,
        },
        HEARTBEAT_TAG => {
            // A count the buffer cannot hold is a cut frame, caught
            // before it sizes an allocation.
            let view = HeartbeatView::read(&mut r)?;
            SvcPayload::Heartbeat {
                seq: view.seq,
                epochs: view.epochs().collect(),
            }
        }
        7 => SvcPayload::CatchupReq { shard: r.u16()? },
        8 => SvcPayload::CatchupStart {
            shard: r.u16()?,
            epoch: r.u32()?,
            len: r.u32()?,
        },
        t => return Err(SvcWireError::BadTag(t)),
    };
    r.finish()?;
    Ok(payload)
}

// -------------------------------------------------------------------
// Replica
// -------------------------------------------------------------------

/// A replica's role for its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Serves client operations and replicates to the backup.
    Primary,
    /// Applies the primary's replication stream.
    Backup,
    /// State discarded (crash rejoin or epoch fencing); rebuilding via
    /// catch-up, serving nothing.
    Recovering,
}

/// One committed log entry: the operation as executed, in order, with
/// the result the store returned. The per-shard log is the service's
/// ground truth — [`verify_log`] replays it against a fresh sequential
/// store, and catch-up streams it to rebuild a rejoined replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Issuing client uid.
    pub client: u32,
    /// The client's operation sequence number (dedup key).
    pub op_seq: u32,
    /// The operation.
    pub op: KvOp,
    /// What the store returned when the entry was applied.
    pub result: KvResult,
}

/// Outcome of applying one replicated entry at a backup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Applied {
    /// Entry was fresh and is now applied; carries the recomputed
    /// result and the store completion time.
    Fresh(KvResult, Time),
    /// Entry index already applied (duplicate delivery) — ack again.
    Duplicate,
    /// Entry index is beyond the log tail: deliveries were lost (e.g.
    /// a partition) and the replica must re-replicate via catch-up.
    Gap {
        /// The replica's current log length.
        have: u32,
    },
}

/// One shard replica: the store, the applied-op log, and the dedup
/// table mapping each client to its latest `(op_seq, log index)` so
/// retried requests are answered exactly once.
#[derive(Debug)]
pub struct Replica {
    /// The shard this replica holds.
    pub shard: u16,
    /// Current epoch (fences all lower epochs).
    pub epoch: u32,
    /// Current role.
    pub role: Role,
    /// The store.
    pub store: KvStore,
    /// Applied operations, in order.
    pub log: Vec<LogEntry>,
    /// client uid → (latest op_seq, its log index).
    pub dedup: BTreeMap<u32, (u32, u32)>,
    store_config: KvStoreConfig,
}

/// Builds the per-shard store: FPGA-DRAM timing, enough buckets for the
/// workloads the service experiments run.
fn shard_store(cfg: KvStoreConfig) -> KvStore {
    KvStore::new(
        cfg,
        MemoryController::new(MemoryControllerConfig::enzian_fpga()),
    )
}

impl Replica {
    /// A fresh replica in `role` at epoch 0.
    pub fn new(shard: u16, role: Role, store_config: KvStoreConfig) -> Self {
        Replica {
            shard,
            epoch: 0,
            role,
            store: shard_store(store_config),
            log: Vec::new(),
            dedup: BTreeMap::new(),
            store_config,
        }
    }

    /// Executes `op` against the store at `now` without logging —
    /// the stale-read path and the replay helper.
    pub fn execute(&mut self, now: Time, op: &KvOp) -> (KvResult, Time) {
        match op {
            KvOp::Get { key } => {
                let out = self.store.get(now, *key);
                let res = match out.value {
                    Some(v) => KvResult::Found(v),
                    None => KvResult::Missing,
                };
                (res, out.done)
            }
            KvOp::Put { key, value } => match self.store.put(now, *key, value) {
                Ok(out) => (KvResult::PutOk, out.done),
                Err(e) => (KvResult::StoreErr(store_err_code(&e)), now),
            },
            KvOp::Delete { key } => {
                let out = self.store.delete(now, *key);
                (KvResult::Deleted(out.value), out.done)
            }
        }
    }

    /// Looks up a retried request: `Some((index, result))` when
    /// `(client, op_seq)` is already in the log.
    pub fn dedup_lookup(&self, client: u32, op_seq: u32) -> Option<(u32, KvResult)> {
        let &(seq, index) = self.dedup.get(&client)?;
        (seq == op_seq).then(|| (index, self.log[index as usize].result.clone()))
    }

    /// Primary path: executes a fresh client operation, appends it to
    /// the log, and records it in the dedup table. Returns the new
    /// entry's index, the result, and the store completion time.
    pub fn apply_fresh(
        &mut self,
        now: Time,
        client: u32,
        op_seq: u32,
        op: KvOp,
    ) -> (u32, KvResult, Time) {
        let (result, done) = self.execute(now, &op);
        let index = self.log.len() as u32;
        self.log.push(LogEntry {
            client,
            op_seq,
            op,
            result: result.clone(),
        });
        self.dedup.insert(client, (op_seq, index));
        (index, result, done)
    }

    /// Backup path: applies replicated entry `index` idempotently.
    pub fn apply_replicated(
        &mut self,
        now: Time,
        index: u32,
        client: u32,
        op_seq: u32,
        op: KvOp,
    ) -> Applied {
        let have = self.log.len() as u32;
        if index < have {
            return Applied::Duplicate;
        }
        if index > have {
            return Applied::Gap { have };
        }
        let (_, result, done) = self.apply_fresh(now, client, op_seq, op);
        let _ = result;
        let entry = self.log.last().expect("just pushed");
        Applied::Fresh(entry.result.clone(), done)
    }

    /// Discards all volatile state (crash rejoin or fencing) and enters
    /// [`Role::Recovering`]; the epoch is kept as a floor for fencing.
    pub fn reset_for_recovery(&mut self) {
        self.store = shard_store(self.store_config);
        self.log.clear();
        self.dedup.clear();
        self.role = Role::Recovering;
    }

    /// Folds the replica's externally observable state into an FNV
    /// digest (used by the cross-thread determinism battery).
    pub fn digest_into(&self, fold: &mut impl FnMut(u64)) {
        fold(u64::from(self.shard));
        fold(u64::from(self.epoch));
        fold(match self.role {
            Role::Primary => 1,
            Role::Backup => 2,
            Role::Recovering => 3,
        });
        fold(self.log.len() as u64);
        // Each entry's hash covers its encoding as an epoch-0, index-0
        // replication message, written into one reused buffer.
        let mut entry = Vec::new();
        for e in &self.log {
            fold(u64::from(e.client));
            fold(u64::from(e.op_seq));
            fold(e.op.key());
            entry.clear();
            put_replicate(&mut entry, self.shard, 0, 0, e.client, e.op_seq, &e.op);
            let mut h = Fnv::new();
            h.bytes(&entry);
            fold(h.finish());
        }
    }
}

/// Replays `log` against a fresh sequential [`KvStore`] and demands the
/// recorded result of every entry — the linearizability shadow check.
/// Acknowledged operations committed through failovers, catch-ups and
/// retries must read exactly like one sequential history.
///
/// # Errors
///
/// Returns a description of the first diverging entry.
pub fn verify_log(log: &[LogEntry], store_config: KvStoreConfig) -> Result<(), String> {
    let mut shadow = Replica::new(0, Role::Primary, store_config);
    for (i, entry) in log.iter().enumerate() {
        let (result, _) = shadow.execute(Time::ZERO, &entry.op);
        if result != entry.result {
            return Err(format!(
                "log entry {i} (client {} op_seq {}) diverged: service returned {:?}, \
                 sequential shadow returned {result:?}",
                entry.client, entry.op_seq, entry.result
            ));
        }
    }
    Ok(())
}

// -------------------------------------------------------------------
// Clients
// -------------------------------------------------------------------

/// Client workload/robustness parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientPlan {
    /// Distinct keys per client (its private working set).
    pub keys_per_client: u64,
    /// Operations to complete before retiring.
    pub ops: u64,
    /// Basis points (of 10 000) of GETs.
    pub get_bp: u64,
    /// Basis points of PUTs (the rest are DELETEs).
    pub put_bp: u64,
    /// Think time between completed operations.
    pub think: Duration,
    /// Per-attempt response timeout.
    pub timeout: Duration,
    /// First-retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff cap.
    pub backoff_max: Duration,
    /// Attempts before declaring the op failed (≥ 1).
    pub retry_budget: u32,
    /// Degrade timed-out GETs to a one-shot stale read before failing.
    pub stale_reads: bool,
}

impl ClientPlan {
    /// Defaults tuned for the service experiment's timescales.
    pub fn standard() -> Self {
        ClientPlan {
            keys_per_client: 8,
            ops: 40,
            get_bp: 5_000,
            put_bp: 4_000,
            think: Duration::from_us(2),
            backoff_base: Duration::from_us(5),
            backoff_max: Duration::from_us(40),
            timeout: Duration::from_us(25),
            retry_budget: 4,
            stale_reads: true,
        }
    }
}

/// What the client wants done after a timeout fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryDecision {
    /// Resend (possibly as a stale read) after `backoff`.
    Retry {
        /// Delay before the next attempt.
        backoff: Duration,
        /// The next attempt is a stale read.
        stale: bool,
    },
    /// Budget exhausted: give up with this terminal error.
    Fail(SvcError),
}

/// A request in flight (one logical op, possibly several attempts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingReq {
    /// Current attempt's request id.
    pub req_id: u32,
    /// The op's dedup sequence number (stable across attempts).
    pub op_seq: u32,
    /// The operation.
    pub op: KvOp,
    /// Target shard.
    pub shard: u16,
    /// First-attempt issue time (client-observed latency base).
    pub issued: Time,
    /// Attempts made so far (≥ 1).
    pub attempts: u32,
    /// Currently in the stale-read fallback phase.
    pub stale_phase: bool,
}

/// Last acknowledged mutation per key: `None` = outcome indeterminate
/// (a mutation attempt failed mid-flight), `Some(None)` = deleted,
/// `Some(Some(v))` = value `v`.
pub type AckState = Option<Option<Vec<u8>>>;

/// One seeded client: issues mixed traffic against its private key set,
/// tracks the request in flight, and remembers the last acknowledged
/// mutation per key for the end-of-run durability audit.
#[derive(Debug)]
pub struct ClientState {
    /// Globally unique client id (dedup key at the replicas).
    pub uid: u32,
    /// Operations left to complete.
    pub remaining: u64,
    /// The request in flight, if any.
    pub pending: Option<PendingReq>,
    /// key → last acknowledged mutation (see [`AckState`]).
    pub acked: BTreeMap<u64, AckState>,
    rng: SimRng,
    plan: ClientPlan,
    op_seq: u32,
    next_req_id: u32,
}

impl ClientState {
    /// Creates the client; its op stream derives from `seed` and `uid`.
    pub fn new(uid: u32, seed: u64, plan: ClientPlan) -> Self {
        ClientState {
            uid,
            remaining: plan.ops,
            pending: None,
            acked: BTreeMap::new(),
            rng: SimRng::seed_from(seed ^ (u64::from(uid) + 1).wrapping_mul(0x2545_F491_4F6C_DD1D)),
            plan,
            op_seq: 0,
            next_req_id: 0,
        }
    }

    /// The client's plan.
    pub fn plan(&self) -> &ClientPlan {
        &self.plan
    }

    /// One of the client's private keys (nonzero, disjoint between
    /// clients: the uid occupies the high bits).
    fn draw_key(&mut self) -> u64 {
        let k = self.rng.next_below(self.plan.keys_per_client);
        (u64::from(self.uid) + 1) << 32 | (k + 1)
    }

    /// Draws and registers the next operation; `None` when the client
    /// has retired. The caller routes it and schedules the timeout.
    pub fn start_op(&mut self, map: &ShardMap, now: Time) -> Option<PendingReq> {
        if self.remaining == 0 || self.pending.is_some() {
            return None;
        }
        let key = self.draw_key();
        let class = self.rng.next_below(10_000);
        let op = if class < self.plan.get_bp {
            KvOp::Get { key }
        } else if class < self.plan.get_bp + self.plan.put_bp {
            let len = 1 + self.rng.next_below(MAX_VALUE_BYTES as u64 - 1) as usize;
            let mut value = vec![0u8; len];
            self.rng.fill_bytes(&mut value);
            KvOp::Put { key, value }
        } else {
            KvOp::Delete { key }
        };
        self.op_seq += 1;
        self.next_req_id += 1;
        let pending = PendingReq {
            req_id: self.next_req_id,
            op_seq: self.op_seq,
            op,
            shard: map.shard_of(key),
            issued: now,
            attempts: 1,
            stale_phase: false,
        };
        self.pending = Some(pending.clone());
        Some(pending)
    }

    /// Re-arms the pending request for its next attempt (fresh req_id,
    /// same op_seq) and returns the refreshed copy.
    ///
    /// # Panics
    ///
    /// Panics when no request is pending.
    pub fn rearm(&mut self, stale: bool) -> PendingReq {
        self.next_req_id += 1;
        let p = self.pending.as_mut().expect("rearm without a pending op");
        p.req_id = self.next_req_id;
        p.attempts += 1;
        p.stale_phase = stale;
        p.clone()
    }

    /// Decides what to do after the pending attempt timed out or was
    /// rejected: retry with bounded exponential backoff, degrade a GET
    /// to one stale read, or fail with a typed error. Never unbounded.
    pub fn on_attempt_failed(&self) -> RetryDecision {
        let p = self.pending.as_ref().expect("no pending op");
        if p.stale_phase {
            // The stale fallback was the last resort.
            return RetryDecision::Fail(SvcError::Unavailable {
                attempts: p.attempts,
            });
        }
        if p.attempts >= self.plan.retry_budget {
            if self.plan.stale_reads && matches!(p.op, KvOp::Get { .. }) {
                return RetryDecision::Retry {
                    backoff: self.backoff_after(p.attempts),
                    stale: true,
                };
            }
            return RetryDecision::Fail(SvcError::Timeout {
                attempts: p.attempts,
            });
        }
        RetryDecision::Retry {
            backoff: self.backoff_after(p.attempts),
            stale: false,
        }
    }

    /// Bounded exponential backoff after `attempts` tries.
    pub fn backoff_after(&self, attempts: u32) -> Duration {
        let factor = 1u64 << (attempts - 1).min(16);
        self.plan
            .backoff_max
            .min(self.plan.backoff_base.saturating_mul(factor))
    }

    /// Completes the pending op with a definitive response: updates the
    /// acked map (mutations only) and retires the op. `effective` is
    /// `false` when the store rejected the op ([`KvResult::StoreErr`]) —
    /// a definitive *no-op*, so the previous acked state stays valid —
    /// and for stale-read serves, which never touch the acked map.
    ///
    /// # Panics
    ///
    /// Panics when no request is pending.
    pub fn complete_ok(&mut self, stale: bool, effective: bool) {
        let p = self.pending.take().expect("no pending op");
        if !stale && effective {
            match &p.op {
                KvOp::Put { key, value } => {
                    self.acked.insert(*key, Some(Some(value.clone())));
                }
                KvOp::Delete { key } => {
                    self.acked.insert(*key, Some(None));
                }
                KvOp::Get { .. } => {}
            }
        }
        self.remaining -= 1;
    }

    /// Completes the pending op with a terminal failure: a mutation's
    /// outcome is now indeterminate, so its key is poisoned for the
    /// durability audit.
    ///
    /// # Panics
    ///
    /// Panics when no request is pending.
    pub fn complete_failed(&mut self) {
        let p = self.pending.take().expect("no pending op");
        if p.op.is_mutation() {
            self.acked.insert(p.op.key(), None);
        }
        self.remaining -= 1;
    }

    /// `true` when the client has finished its workload.
    pub fn done(&self) -> bool {
        self.remaining == 0 && self.pending.is_none()
    }
}

// -------------------------------------------------------------------
// SLO telemetry
// -------------------------------------------------------------------

/// Collects the service-level objectives: client-observed latency per
/// op class, availability inside vs outside the configured fault
/// window, stale/degraded serves, and failover recovery latency.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRecorder {
    /// GET latency (first issue → final response, retries included).
    pub get: LatencyHistogram,
    /// PUT latency.
    pub put: LatencyHistogram,
    /// DELETE latency.
    pub delete: LatencyHistogram,
    /// Failover recovery latency (last heartbeat from the failed
    /// primary → promotion of its backup).
    pub failover: LatencyHistogram,
    /// GETs answered from possibly-stale state (degraded successes).
    pub stale_served: u64,
    /// Ops that ended in a terminal typed error.
    pub failures: u64,
    /// Retransmitted attempts.
    pub retries: u64,
    /// Attempt timeouts fired.
    pub timeouts: u64,
    /// Successful ops issued inside the fault window.
    pub ok_in_window: u64,
    /// Ops issued inside the fault window.
    pub total_in_window: u64,
    /// Successful ops issued outside the fault window.
    pub ok_out_window: u64,
    /// Ops issued outside the fault window.
    pub total_out_window: u64,
    window: Option<(Time, Time)>,
}

impl Default for SloRecorder {
    fn default() -> Self {
        SloRecorder::new(None)
    }
}

impl SloRecorder {
    /// Creates the recorder; ops issued in `[from, until)` of `window`
    /// count as "inside the fault window".
    pub fn new(window: Option<(Time, Time)>) -> Self {
        SloRecorder {
            get: LatencyHistogram::new(),
            put: LatencyHistogram::new(),
            delete: LatencyHistogram::new(),
            failover: LatencyHistogram::new(),
            stale_served: 0,
            failures: 0,
            retries: 0,
            timeouts: 0,
            ok_in_window: 0,
            total_in_window: 0,
            ok_out_window: 0,
            total_out_window: 0,
            window,
        }
    }

    fn in_window(&self, at: Time) -> bool {
        self.window
            .is_some_and(|(from, until)| at >= from && at < until)
    }

    /// Records one completed operation.
    pub fn record_op(
        &mut self,
        class: OpClass,
        issued: Time,
        finished: Time,
        ok: bool,
        stale: bool,
    ) {
        if ok {
            let latency = finished.since(issued);
            match class {
                OpClass::Get => self.get.record(latency),
                OpClass::Put => self.put.record(latency),
                OpClass::Delete => self.delete.record(latency),
            }
            if stale {
                self.stale_served += 1;
            }
        } else {
            self.failures += 1;
        }
        if self.in_window(issued) {
            self.total_in_window += 1;
            self.ok_in_window += u64::from(ok);
        } else {
            self.total_out_window += 1;
            self.ok_out_window += u64::from(ok);
        }
    }

    /// Records a completed failover.
    pub fn record_failover(&mut self, latency: Duration) {
        self.failover.record(latency);
    }

    /// Availability fraction for ops issued inside the fault window
    /// (`1.0` when no op was issued there).
    pub fn availability_in_window(&self) -> f64 {
        if self.total_in_window == 0 {
            1.0
        } else {
            self.ok_in_window as f64 / self.total_in_window as f64
        }
    }

    /// Availability fraction for ops issued outside the fault window.
    pub fn availability_out_window(&self) -> f64 {
        if self.total_out_window == 0 {
            1.0
        } else {
            self.ok_out_window as f64 / self.total_out_window as f64
        }
    }

    /// Total completed client operations recorded.
    pub fn completed(&self) -> u64 {
        self.total_in_window + self.total_out_window
    }

    /// Merges another recorder (per-board recorders fold into one).
    pub fn merge(&mut self, other: &SloRecorder) {
        self.get.merge(&other.get);
        self.put.merge(&other.put);
        self.delete.merge(&other.delete);
        self.failover.merge(&other.failover);
        self.stale_served += other.stale_served;
        self.failures += other.failures;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.ok_in_window += other.ok_in_window;
        self.total_in_window += other.total_in_window;
        self.ok_out_window += other.ok_out_window;
        self.total_out_window += other.total_out_window;
    }
}

/// Publishes the SLO tree: `{prefix}.latency.{get,put,delete}.*` and
/// `{prefix}.failover_recovery.*` through the shared histogram gauges,
/// plus availability fractions and the degradation counters.
impl Instrumented for SloRecorder {
    fn export_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        self.get
            .export_metrics(&format!("{prefix}.latency.get"), registry);
        self.put
            .export_metrics(&format!("{prefix}.latency.put"), registry);
        self.delete
            .export_metrics(&format!("{prefix}.latency.delete"), registry);
        self.failover
            .export_metrics(&format!("{prefix}.failover_recovery"), registry);
        registry.gauge_set(
            &format!("{prefix}.availability.in_window"),
            self.availability_in_window(),
        );
        registry.gauge_set(
            &format!("{prefix}.availability.out_window"),
            self.availability_out_window(),
        );
        registry.counter_set(&format!("{prefix}.ops.in_window"), self.total_in_window);
        registry.counter_set(&format!("{prefix}.ops.out_window"), self.total_out_window);
        registry.counter_set(&format!("{prefix}.stale_served"), self.stale_served);
        registry.counter_set(&format!("{prefix}.failures"), self.failures);
        registry.counter_set(&format!("{prefix}.retries"), self.retries);
        registry.counter_set(&format!("{prefix}.timeouts"), self.timeouts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(p: &SvcPayload) -> Vec<u8> {
        let mut out = Vec::new();
        encode_svc_into(p, &mut out);
        out
    }

    fn tiny_cfg() -> KvStoreConfig {
        KvStoreConfig {
            buckets: 64,
            ..KvStoreConfig::tiny()
        }
    }

    #[test]
    fn shard_map_places_and_alternates() {
        let m = ShardMap::new(16, 8);
        for s in 0..16 {
            let [a, b] = m.hosts(s);
            assert_ne!(a, b);
            assert_eq!(m.primary_at(s, 0), a);
            assert_eq!(m.primary_at(s, 1), b);
            assert_eq!(m.primary_at(s, 2), a);
            assert_eq!(m.backup_at(s, 1), a);
            assert!(m.is_host(a, s) && m.is_host(b, s));
        }
        // Every board hosts some shards; keys spread over all shards.
        for b in 0..8 {
            assert!(!m.shards_of(b).is_empty());
        }
        let mut hit = [false; 16];
        for k in 1..2000u64 {
            hit[m.shard_of(k) as usize] = true;
        }
        assert!(hit.iter().all(|&h| h), "keys must reach every shard");
    }

    #[test]
    fn payloads_round_trip() {
        let corpus = vec![
            SvcPayload::Request {
                client: 7,
                req_id: 42,
                op_seq: 3,
                shard: 5,
                epoch: 2,
                stale_ok: false,
                op: KvOp::Put {
                    key: 0xDEAD_BEEF,
                    value: b"enzian".to_vec(),
                },
            },
            SvcPayload::Request {
                client: 1,
                req_id: 1,
                op_seq: 1,
                shard: 0,
                epoch: 0,
                stale_ok: true,
                op: KvOp::Get { key: 9 },
            },
            SvcPayload::Response {
                client: 7,
                req_id: 42,
                shard: 5,
                epoch: 2,
                body: Ok(RespOk {
                    result: KvResult::Found(b"xyz".to_vec()),
                    stale: true,
                }),
            },
            SvcPayload::Response {
                client: 7,
                req_id: 43,
                shard: 5,
                epoch: 3,
                body: Err(RespErr {
                    error: SvcError::NotPrimary {
                        epoch: 3,
                        primary: 6,
                    },
                }),
            },
            SvcPayload::Response {
                client: 2,
                req_id: 9,
                shard: 1,
                epoch: 0,
                body: Err(RespErr {
                    error: SvcError::NoQuorum,
                }),
            },
            SvcPayload::Replicate {
                shard: 5,
                epoch: 2,
                index: 17,
                client: 7,
                op_seq: 3,
                op: KvOp::Delete { key: 11 },
            },
            SvcPayload::RepAck {
                shard: 5,
                epoch: 2,
                index: 17,
            },
            SvcPayload::RepNack { shard: 5, epoch: 4 },
            SvcPayload::Heartbeat {
                seq: 99,
                epochs: vec![(0, 1), (7, 4)],
            },
            SvcPayload::CatchupReq { shard: 3 },
            SvcPayload::CatchupStart {
                shard: 3,
                epoch: 4,
                len: 120,
            },
        ];
        for p in corpus {
            let bytes = encode(&p);
            assert_eq!(decode_svc(&bytes).unwrap(), p, "round trip failed");
            // Encoding in place after other bytes writes the same bytes.
            let mut framed = vec![0xEE; 5];
            encode_svc_into(&p, &mut framed);
            assert_eq!(framed[5..], bytes[..]);
            // Truncations are always detected.
            for cut in 0..bytes.len() {
                assert!(decode_svc(&bytes[..cut]).is_err(), "cut {cut} accepted");
            }
            // Trailing garbage is rejected.
            let mut long = bytes.clone();
            long.push(0);
            assert!(matches!(
                decode_svc(&long),
                Err(SvcWireError::TrailingBytes(1))
            ));
        }
    }

    #[test]
    fn heartbeats_read_in_place_match_the_owned_decoder() {
        let epochs = vec![(0, 1), (7, 4), (65_535, u32::MAX)];
        let owned = encode(&SvcPayload::Heartbeat {
            seq: 99,
            epochs: epochs.clone(),
        });
        let mut written = Vec::new();
        encode_heartbeat_into(99, epochs.iter().copied(), &mut written);
        assert_eq!(written, owned);
        let view = HeartbeatView::parse(&owned).unwrap();
        assert_eq!(view.seq, 99);
        assert_eq!(view.epochs().len(), 3);
        assert_eq!(view.epochs().collect::<Vec<_>>(), epochs);
        let empty = encode(&SvcPayload::Heartbeat {
            seq: 0,
            epochs: Vec::new(),
        });
        assert_eq!(HeartbeatView::parse(&empty).unwrap().epochs().len(), 0);
        // Other kinds are refused by tag; a count past the end is a cut.
        let ack = encode(&SvcPayload::RepAck {
            shard: 1,
            epoch: 2,
            index: 3,
        });
        assert_eq!(HeartbeatView::parse(&ack), Err(SvcWireError::BadTag(4)));
        let mut overrun = owned.clone();
        overrun[5] = 4;
        assert_eq!(HeartbeatView::parse(&overrun), Err(SvcWireError::Truncated));
        assert_eq!(decode_svc(&overrun), Err(SvcWireError::Truncated));
    }

    #[test]
    fn replica_dedups_retries_exactly_once() {
        let mut r = Replica::new(0, Role::Primary, tiny_cfg());
        let op = KvOp::Put {
            key: 5,
            value: b"v1".to_vec(),
        };
        let (i0, res0, _) = r.apply_fresh(Time::ZERO, 1, 1, op.clone());
        assert_eq!(res0, KvResult::PutOk);
        // A retried delete executes once; the retry returns the cache.
        let del = KvOp::Delete { key: 5 };
        let (i1, res1, _) = r.apply_fresh(Time::ZERO, 1, 2, del);
        assert_eq!(res1, KvResult::Deleted(true));
        assert_eq!(r.dedup_lookup(1, 2), Some((i1, KvResult::Deleted(true))));
        assert_eq!(r.dedup_lookup(1, 1), None, "only the latest op is cached");
        assert_eq!(r.log.len(), 2);
        assert_eq!(i0, 0);
        assert_eq!(i1, 1);
    }

    #[test]
    fn backup_applies_in_order_and_reports_gaps() {
        let mut b = Replica::new(0, Role::Backup, tiny_cfg());
        let op = KvOp::Put {
            key: 3,
            value: b"x".to_vec(),
        };
        match b.apply_replicated(Time::ZERO, 0, 9, 1, op.clone()) {
            Applied::Fresh(KvResult::PutOk, _) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            b.apply_replicated(Time::ZERO, 0, 9, 1, op.clone()),
            Applied::Duplicate
        );
        assert_eq!(
            b.apply_replicated(Time::ZERO, 5, 9, 6, op),
            Applied::Gap { have: 1 }
        );
    }

    #[test]
    fn recovery_reset_drops_state_but_keeps_epoch() {
        let mut r = Replica::new(2, Role::Primary, tiny_cfg());
        r.epoch = 3;
        r.apply_fresh(
            Time::ZERO,
            1,
            1,
            KvOp::Put {
                key: 1,
                value: b"a".to_vec(),
            },
        );
        r.reset_for_recovery();
        assert_eq!(r.role, Role::Recovering);
        assert_eq!(r.epoch, 3);
        assert!(r.log.is_empty() && r.dedup.is_empty());
        assert!(r.store.is_empty());
    }

    #[test]
    fn shadow_replay_accepts_real_logs_and_catches_tampering() {
        let mut r = Replica::new(0, Role::Primary, tiny_cfg());
        let mut rng = SimRng::seed_from(11);
        for seq in 1..=200u32 {
            let key = 1 + rng.next_below(20);
            let op = match rng.next_below(3) {
                0 => KvOp::Get { key },
                1 => {
                    let mut v = vec![0u8; 1 + rng.next_below(16) as usize];
                    rng.fill_bytes(&mut v);
                    KvOp::Put { key, value: v }
                }
                _ => KvOp::Delete { key },
            };
            r.apply_fresh(Time::ZERO, 1, seq, op);
        }
        verify_log(&r.log, tiny_cfg()).expect("honest log must replay");
        // Losing an acknowledged write is caught.
        let mut tampered = r.log.clone();
        let put_at = tampered
            .iter()
            .position(|e| matches!(e.op, KvOp::Put { .. }))
            .unwrap();
        tampered.remove(put_at);
        assert!(
            verify_log(&tampered, tiny_cfg()).is_err()
                || tampered
                    .iter()
                    .all(|e| e.op.key() != r.log[put_at].op.key()),
            "dropping a write must eventually diverge"
        );
        // Flipping a recorded result is caught immediately.
        let mut flipped = r.log.clone();
        flipped[0].result = KvResult::StoreErr(9);
        assert!(verify_log(&flipped, tiny_cfg()).is_err());
    }

    #[test]
    fn client_draws_bounded_ops_and_tracks_acks() {
        let map = ShardMap::new(8, 4);
        let mut c = ClientState::new(3, 42, ClientPlan::standard());
        let p = c.start_op(&map, Time::ZERO).expect("first op");
        assert_eq!(p.attempts, 1);
        assert!(c.start_op(&map, Time::ZERO).is_none(), "one op at a time");
        // Key is private to the client and nonzero.
        assert_eq!(p.op.key() >> 32, u64::from(c.uid) + 1);
        match c.pending.as_ref().unwrap().op.clone() {
            KvOp::Put { key, value } => {
                c.complete_ok(false, true);
                assert_eq!(c.acked.get(&key), Some(&Some(Some(value))));
            }
            KvOp::Delete { key } => {
                c.complete_ok(false, true);
                assert_eq!(c.acked.get(&key), Some(&Some(None)));
            }
            KvOp::Get { .. } => {
                c.complete_ok(false, true);
                assert!(c.acked.is_empty());
            }
        }
        assert_eq!(c.remaining, c.plan().ops - 1);
    }

    #[test]
    fn retry_decisions_are_bounded_and_degrade_gets() {
        let map = ShardMap::new(8, 4);
        let mut c = ClientState::new(0, 7, ClientPlan::standard());
        // Find a GET op.
        loop {
            let p = c.start_op(&map, Time::ZERO).expect("ops left");
            if matches!(p.op, KvOp::Get { .. }) {
                break;
            }
            c.complete_ok(false, true);
        }
        // Exhaust the budget: backoffs double then cap.
        let mut last = Duration::from_ns(0);
        for _ in 1..c.plan().retry_budget {
            match c.on_attempt_failed() {
                RetryDecision::Retry { backoff, stale } => {
                    assert!(!stale);
                    assert!(backoff >= last);
                    assert!(backoff <= c.plan().backoff_max);
                    last = backoff;
                    c.rearm(false);
                }
                RetryDecision::Fail(_) => panic!("failed inside budget"),
            }
        }
        // Budget spent: a GET degrades to one stale attempt...
        match c.on_attempt_failed() {
            RetryDecision::Retry { stale, .. } => assert!(stale),
            RetryDecision::Fail(_) => panic!("GET must degrade first"),
        }
        c.rearm(true);
        // ...and the stale attempt failing is terminal and typed.
        match c.on_attempt_failed() {
            RetryDecision::Fail(SvcError::Unavailable { attempts }) => {
                assert_eq!(attempts, c.plan().retry_budget + 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        c.complete_failed();
        assert!(c.acked.is_empty(), "failed GET poisons nothing");
    }

    #[test]
    fn failed_mutations_poison_their_key() {
        let map = ShardMap::new(8, 4);
        let mut c = ClientState::new(1, 9, ClientPlan::standard());
        loop {
            let p = c.start_op(&map, Time::ZERO).expect("ops left");
            if p.op.is_mutation() {
                let key = p.op.key();
                c.complete_failed();
                assert_eq!(c.acked.get(&key), Some(&None), "indeterminate outcome");
                break;
            }
            c.complete_ok(false, true);
        }
    }

    #[test]
    fn slo_recorder_buckets_by_window_and_exports() {
        let w = Some((Time::from_ns(1_000), Time::from_ns(2_000)));
        let mut slo = SloRecorder::new(w);
        slo.record_op(
            OpClass::Get,
            Time::from_ns(500),
            Time::from_ns(600),
            true,
            false,
        );
        slo.record_op(
            OpClass::Put,
            Time::from_ns(1_500),
            Time::from_ns(1_900),
            false,
            false,
        );
        slo.record_op(
            OpClass::Get,
            Time::from_ns(1_600),
            Time::from_ns(1_700),
            true,
            true,
        );
        assert_eq!(slo.availability_out_window(), 1.0);
        assert_eq!(slo.availability_in_window(), 0.5);
        assert_eq!(slo.stale_served, 1);
        assert_eq!(slo.failures, 1);
        assert_eq!(slo.completed(), 3);
        let mut reg = MetricsRegistry::new();
        slo.export_metrics("svc", &mut reg);
        assert_eq!(reg.counter("svc.latency.get.count"), 2);
        assert_eq!(reg.gauge("svc.availability.in_window"), Some(0.5));
        assert_eq!(reg.counter("svc.failures"), 1);
        // Merge matches bulk.
        let mut a = SloRecorder::new(w);
        let mut b = SloRecorder::new(w);
        a.record_op(
            OpClass::Get,
            Time::from_ns(500),
            Time::from_ns(600),
            true,
            false,
        );
        b.record_op(
            OpClass::Put,
            Time::from_ns(1_500),
            Time::from_ns(1_900),
            false,
            false,
        );
        b.record_op(
            OpClass::Get,
            Time::from_ns(1_600),
            Time::from_ns(1_700),
            true,
            true,
        );
        a.merge(&b);
        assert_eq!(a, slo);
    }
}
