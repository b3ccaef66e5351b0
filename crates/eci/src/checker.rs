//! Protocol assertion checkers.
//!
//! Paper §4.1: *"We also formally specified several layers of the
//! protocol, and generated formatters and assertion checkers from the
//! specifications."* This module is the runtime half of that tooling: an
//! online checker that observes every line-state transition and every
//! message the [`crate::system::EciSystem`] engine produces and validates
//! them against the MOESI specification:
//!
//! 1. per-cache transitions must be in the legal transition relation;
//! 2. the global single-writer invariant must hold across both nodes
//!    after every transition;
//! 3. responses must match an outstanding request of the same
//!    transaction (no unsolicited data), and each request is answered at
//!    most once.

use enzian_cache::moesi::{check_global_invariant, LineState};
use enzian_mem::{CacheLine, NodeId};
use enzian_sim::FxHashMap;

use crate::message::{Message, Opcode, TxnId};

/// A specification violation found by the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckerError {
    /// A cache performed a transition outside the legal relation.
    IllegalTransition {
        /// Node whose cache transitioned.
        node: NodeId,
        /// Line involved.
        line: CacheLine,
        /// State before.
        from: LineState,
        /// State after.
        to: LineState,
    },
    /// The global MOESI invariant was violated for a line.
    InvariantViolation {
        /// Line involved.
        line: CacheLine,
        /// Description from the invariant checker.
        detail: String,
    },
    /// A response arrived with no matching outstanding request.
    UnsolicitedResponse {
        /// Transaction id of the stray response.
        txn: TxnId,
        /// Mnemonic of the response kind.
        mnemonic: &'static str,
    },
    /// A request was issued with a transaction id already in flight.
    DuplicateTransaction {
        /// The reused transaction id.
        txn: TxnId,
    },
}

impl std::fmt::Display for CheckerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckerError::IllegalTransition {
                node,
                line,
                from,
                to,
            } => {
                write!(f, "illegal transition on {node} for {line}: {from} -> {to}")
            }
            CheckerError::InvariantViolation { line, detail } => {
                write!(f, "global invariant violated for {line}: {detail}")
            }
            CheckerError::UnsolicitedResponse { txn, mnemonic } => {
                write!(f, "unsolicited {mnemonic} for {txn}")
            }
            CheckerError::DuplicateTransaction { txn } => {
                write!(f, "duplicate in-flight transaction {txn}")
            }
        }
    }
}

impl std::error::Error for CheckerError {}

fn node_index(n: NodeId) -> usize {
    match n {
        NodeId::Cpu => 0,
        NodeId::Fpga => 1,
    }
}

/// The online protocol checker.
///
/// # Example
///
/// ```
/// use enzian_eci::ProtocolChecker;
/// use enzian_cache::LineState;
/// use enzian_mem::{CacheLine, NodeId};
///
/// let mut chk = ProtocolChecker::new();
/// chk.observe_transition(NodeId::Cpu, CacheLine(1), LineState::Invalid, LineState::Shared)
///     .expect("legal fill");
/// assert_eq!(chk.violations().len(), 0);
/// ```
#[derive(Debug, Default)]
pub struct ProtocolChecker {
    // Last-known state of each line in each node's cache.
    states: FxHashMap<CacheLine, [LineState; 2]>,
    // Outstanding request transactions awaiting a response.
    outstanding: FxHashMap<TxnId, Opcode>,
    violations: Vec<CheckerError>,
    transitions_checked: u64,
    messages_checked: u64,
}

impl ProtocolChecker {
    /// Creates a checker with no recorded state.
    pub fn new() -> Self {
        ProtocolChecker::default()
    }

    /// Observes a cache-line transition on `node`. Records the violation
    /// (and returns it) if the transition or resulting global state is
    /// illegal.
    pub fn observe_transition(
        &mut self,
        node: NodeId,
        line: CacheLine,
        from: LineState,
        to: LineState,
    ) -> Result<(), CheckerError> {
        self.transitions_checked += 1;
        if !from.can_transition(to) {
            let e = CheckerError::IllegalTransition {
                node,
                line,
                from,
                to,
            };
            self.violations.push(e.clone());
            return Err(e);
        }
        let entry = self.states.entry(line).or_insert([LineState::Invalid; 2]);
        entry[node_index(node)] = to;
        if let Err(detail) = check_global_invariant(&entry[..]) {
            let e = CheckerError::InvariantViolation { line, detail };
            self.violations.push(e.clone());
            return Err(e);
        }
        Ok(())
    }

    /// Observes a protocol message, enforcing request/response pairing.
    pub fn observe_message(&mut self, msg: &Message) -> Result<(), CheckerError> {
        self.observe(msg.txn, msg.kind.opcode())
    }

    /// [`ProtocolChecker::observe_message`] from the parts pairing
    /// reads: the message's transaction id and opcode.
    pub(crate) fn observe(&mut self, txn: TxnId, op: Opcode) -> Result<(), CheckerError> {
        self.messages_checked += 1;
        use Opcode::*;
        match op {
            // Requests open a transaction.
            ReadShared | ReadExclusive | Upgrade | ReadOnce | WriteLine | IoRead | IoWrite => {
                if self.outstanding.insert(txn, op).is_some() {
                    let e = CheckerError::DuplicateTransaction { txn };
                    self.violations.push(e.clone());
                    return Err(e);
                }
            }
            // Responses close it.
            DataShared | DataExclusive | Ack | IoData | IoAck => {
                if self.outstanding.remove(&txn).is_none() {
                    let e = CheckerError::UnsolicitedResponse {
                        txn,
                        mnemonic: op.mnemonic(),
                    };
                    self.violations.push(e.clone());
                    return Err(e);
                }
            }
            // Probes and their acks pair within the home transaction;
            // victims and IPIs are fire-and-forget.
            ProbeShared | ProbeInvalidate | ProbeAckData | ProbeAck | VictimDirty | VictimClean
            | Ipi => {}
        }
        Ok(())
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> &[CheckerError] {
        &self.violations
    }

    /// Transactions currently awaiting a response.
    pub fn outstanding_requests(&self) -> usize {
        self.outstanding.len()
    }

    /// `(transitions, messages)` checked so far.
    pub fn checked_counts(&self) -> (u64, u64) {
        (self.transitions_checked, self.messages_checked)
    }

    /// Panics if any violation has been recorded; used at the end of
    /// experiments to assert a clean run.
    ///
    /// # Panics
    ///
    /// Panics with the first violation's description.
    pub fn assert_clean(&self) {
        if let Some(first) = self.violations.first() {
            panic!(
                "protocol checker found {} violation(s); first: {first}",
                self.violations.len()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageKind;
    use enzian_mem::Addr;

    fn line() -> CacheLine {
        CacheLine(0x40)
    }

    #[test]
    fn legal_sequence_is_clean() {
        let mut c = ProtocolChecker::new();
        c.observe_transition(NodeId::Cpu, line(), LineState::Invalid, LineState::Shared)
            .unwrap();
        c.observe_transition(NodeId::Cpu, line(), LineState::Shared, LineState::Modified)
            .unwrap();
        c.observe_transition(NodeId::Cpu, line(), LineState::Modified, LineState::Owned)
            .unwrap();
        c.assert_clean();
        assert_eq!(c.states[&line()][node_index(NodeId::Cpu)], LineState::Owned);
    }

    #[test]
    fn illegal_transition_detected() {
        let mut c = ProtocolChecker::new();
        let err = c
            .observe_transition(NodeId::Cpu, line(), LineState::Shared, LineState::Exclusive)
            .unwrap_err();
        assert!(matches!(err, CheckerError::IllegalTransition { .. }));
        assert_eq!(c.violations().len(), 1);
    }

    #[test]
    fn global_invariant_detected_across_nodes() {
        let mut c = ProtocolChecker::new();
        c.observe_transition(NodeId::Cpu, line(), LineState::Invalid, LineState::Shared)
            .unwrap();
        c.observe_transition(NodeId::Cpu, line(), LineState::Shared, LineState::Modified)
            .unwrap();
        // FPGA now claims Shared without the CPU being downgraded.
        let err = c
            .observe_transition(NodeId::Fpga, line(), LineState::Invalid, LineState::Shared)
            .unwrap_err();
        assert!(matches!(err, CheckerError::InvariantViolation { .. }));
    }

    #[test]
    #[should_panic(expected = "violation")]
    fn assert_clean_panics_on_violation() {
        let mut c = ProtocolChecker::new();
        let _ = c.observe_transition(NodeId::Cpu, line(), LineState::Shared, LineState::Owned);
        c.assert_clean();
    }

    #[test]
    fn request_response_pairing() {
        let mut c = ProtocolChecker::new();
        let req = Message::new(
            NodeId::Fpga,
            NodeId::Cpu,
            TxnId(1),
            MessageKind::ReadOnce(line()),
        );
        let rsp = Message::new(
            NodeId::Cpu,
            NodeId::Fpga,
            TxnId(1),
            MessageKind::DataShared(line(), Box::new([0u8; 128])),
        );
        c.observe_message(&req).unwrap();
        assert_eq!(c.outstanding_requests(), 1);
        c.observe_message(&rsp).unwrap();
        assert_eq!(c.outstanding_requests(), 0);
        c.assert_clean();
    }

    #[test]
    fn unsolicited_response_detected() {
        let mut c = ProtocolChecker::new();
        let rsp = Message::new(
            NodeId::Cpu,
            NodeId::Fpga,
            TxnId(77),
            MessageKind::Ack(line()),
        );
        let err = c.observe_message(&rsp).unwrap_err();
        assert!(matches!(err, CheckerError::UnsolicitedResponse { .. }));
    }

    #[test]
    fn duplicate_transaction_detected() {
        let mut c = ProtocolChecker::new();
        let req = Message::new(
            NodeId::Fpga,
            NodeId::Cpu,
            TxnId(5),
            MessageKind::IoRead {
                addr: Addr(0x10),
                size: 8,
            },
        );
        c.observe_message(&req).unwrap();
        let err = c.observe_message(&req).unwrap_err();
        assert!(matches!(err, CheckerError::DuplicateTransaction { .. }));
    }

    #[test]
    fn victims_and_ipis_are_fire_and_forget() {
        let mut c = ProtocolChecker::new();
        let v = Message::new(
            NodeId::Cpu,
            NodeId::Fpga,
            TxnId(8),
            MessageKind::VictimClean(line()),
        );
        let i = Message::new(
            NodeId::Cpu,
            NodeId::Fpga,
            TxnId(9),
            MessageKind::Ipi { vector: 1 },
        );
        c.observe_message(&v).unwrap();
        c.observe_message(&i).unwrap();
        assert_eq!(c.outstanding_requests(), 0);
        c.assert_clean();
    }
}
