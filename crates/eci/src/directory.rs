//! The home-node directory.
//!
//! Each node is home for the lines in its half of the statically
//! partitioned physical address space. The home's directory tracks what
//! copy, if any, the *remote* node holds of each home line — in a
//! two-node system this is a single compact state per line. Requests from
//! the remote node and local accesses that conflict with a remote copy
//! consult the directory to decide whether probes are needed.

use enzian_mem::CacheLine;
use enzian_sim::telemetry::{Instrumented, MetricsRegistry};
use enzian_sim::FxHashMap;

/// The remote node's copy of a home line, as the home tracks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RemoteCopy {
    /// The remote node holds no copy.
    #[default]
    None,
    /// The remote node holds a read-only (Shared) copy.
    Shared,
    /// The remote node owns the line (Exclusive/Modified/Owned); it may
    /// be dirty there and the home must probe before serving others.
    Owner,
}

/// A bookkeeping operation the home applies to its record of one remote
/// copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirOp {
    /// A Shared grant was sent to the remote.
    GrantShared,
    /// An ownership (Exclusive) grant was sent to the remote.
    GrantOwner,
    /// The remote copy was invalidated (probe ack, victim).
    Revoke,
    /// The remote owner was downgraded to Shared (read probe).
    Downgrade,
}

/// An illegal directory transition: applying [`DirOp`] in a state the
/// protocol forbids (e.g. granting Shared while the remote owns the
/// line without recalling ownership first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirStepError {
    /// The record the step was applied to.
    pub from: RemoteCopy,
    /// The offending operation.
    pub op: DirOp,
}

impl std::fmt::Display for DirStepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "illegal directory step {:?} from {:?}",
            self.op, self.from
        )
    }
}

impl std::error::Error for DirStepError {}

impl RemoteCopy {
    /// The record after applying `op`, computed without side effects.
    ///
    /// This is the pure core of the home-side protocol: the mutating
    /// [`Directory`] methods delegate to it (turning errors into the
    /// panics their contracts document), and the `explore` state-space
    /// explorer in this crate drives the same relation over every
    /// reachable interleaving.
    ///
    /// # Errors
    ///
    /// Returns [`DirStepError`] when the protocol forbids `op` in this
    /// state: a Shared or ownership grant while the remote already owns
    /// the line, or a downgrade of a non-owner.
    pub fn step(self, op: DirOp) -> Result<RemoteCopy, DirStepError> {
        use RemoteCopy::*;
        match (self, op) {
            (Owner, DirOp::GrantShared | DirOp::GrantOwner) => Err(DirStepError { from: self, op }),
            (_, DirOp::GrantShared) => Ok(Shared),
            (_, DirOp::GrantOwner) => Ok(Owner),
            (_, DirOp::Revoke) => Ok(None),
            (Owner, DirOp::Downgrade) => Ok(Shared),
            (_, DirOp::Downgrade) => Err(DirStepError { from: self, op }),
        }
    }
}

/// Directory entry for one line (public for inspection in tests/tools).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirectoryEntry {
    /// Remote copy state.
    pub remote: RemoteCopy,
}

/// A home node's directory over its lines.
///
/// # Example
///
/// ```
/// use enzian_eci::directory::{Directory, RemoteCopy};
/// use enzian_mem::CacheLine;
///
/// let mut dir = Directory::new();
/// let line = CacheLine(7);
/// assert_eq!(dir.remote_copy(line), RemoteCopy::None);
/// dir.grant_owner(line);
/// assert!(dir.needs_probe_for_read(line));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Directory {
    entries: FxHashMap<CacheLine, DirectoryEntry>,
    grants: u64,
    recalls: u64,
}

impl Directory {
    /// Creates an empty directory (no remote copies).
    pub fn new() -> Self {
        Directory::default()
    }

    /// The remote node's copy state for `line`.
    pub fn remote_copy(&self, line: CacheLine) -> RemoteCopy {
        self.entries
            .get(&line)
            .map_or(RemoteCopy::None, |e| e.remote)
    }

    /// Records a Shared grant to the remote node.
    ///
    /// # Panics
    ///
    /// Panics if the remote already owns the line: the home must recall
    /// ownership first, which is a protocol bug if skipped.
    pub fn grant_shared(&mut self, line: CacheLine) {
        let e = self.entries.entry(line).or_default();
        e.remote = e
            .remote
            .step(DirOp::GrantShared)
            .unwrap_or_else(|_| panic!("shared grant while remote owns {line}"));
        self.grants += 1;
    }

    /// Records an ownership grant (Exclusive) to the remote node.
    ///
    /// # Panics
    ///
    /// Panics if the remote already holds any copy (must upgrade/recall
    /// through the proper transitions).
    pub fn grant_owner(&mut self, line: CacheLine) {
        let e = self.entries.entry(line).or_default();
        e.remote = e
            .remote
            .step(DirOp::GrantOwner)
            .unwrap_or_else(|err| panic!("owner grant in state {:?} for {line}", err.from));
        self.grants += 1;
    }

    /// Records that the remote copy was invalidated (probe, victim).
    pub fn revoke(&mut self, line: CacheLine) {
        if let Some(e) = self.entries.get_mut(&line) {
            if e.remote != RemoteCopy::None {
                self.recalls += 1;
            }
            e.remote = e.remote.step(DirOp::Revoke).expect("revoke is total");
        }
    }

    /// Records that the remote owner was downgraded to Shared.
    ///
    /// # Panics
    ///
    /// Panics if the remote was not the owner.
    pub fn downgrade(&mut self, line: CacheLine) {
        let e = self.entries.entry(line).or_default();
        e.remote = e
            .remote
            .step(DirOp::Downgrade)
            .unwrap_or_else(|_| panic!("downgrade of non-owner for {line}"));
        self.recalls += 1;
    }

    /// Whether a *local* or third-party read of `line` requires probing
    /// the remote node (it might hold dirty data).
    pub fn needs_probe_for_read(&self, line: CacheLine) -> bool {
        self.remote_copy(line) == RemoteCopy::Owner
    }

    /// Whether a write to `line` requires probing/invalidating the remote.
    pub fn needs_probe_for_write(&self, line: CacheLine) -> bool {
        self.remote_copy(line) != RemoteCopy::None
    }

    /// Number of lines with an active remote copy.
    fn active_remote_copies(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.remote != RemoteCopy::None)
            .count()
    }

    /// `(grants, recalls)` issued over the directory's lifetime.
    pub fn stats(&self) -> (u64, u64) {
        (self.grants, self.recalls)
    }
}

/// Publishes the directory's counters.
impl Instrumented for Directory {
    fn export_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.counter_set(&format!("{prefix}.grants"), self.grants);
        registry.counter_set(&format!("{prefix}.recalls"), self.recalls);
        registry.counter_set(
            &format!("{prefix}.active_remote_copies"),
            self.active_remote_copies() as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_state_is_no_copy() {
        let d = Directory::new();
        assert_eq!(d.remote_copy(CacheLine(1)), RemoteCopy::None);
        assert!(!d.needs_probe_for_read(CacheLine(1)));
        assert!(!d.needs_probe_for_write(CacheLine(1)));
    }

    #[test]
    fn grant_and_revoke_lifecycle() {
        let mut d = Directory::new();
        let l = CacheLine(2);
        d.grant_shared(l);
        assert_eq!(d.remote_copy(l), RemoteCopy::Shared);
        assert!(!d.needs_probe_for_read(l));
        assert!(d.needs_probe_for_write(l));
        d.revoke(l);
        assert_eq!(d.remote_copy(l), RemoteCopy::None);
        assert_eq!(d.stats(), (1, 1));
    }

    #[test]
    fn ownership_requires_probes_for_reads() {
        let mut d = Directory::new();
        let l = CacheLine(3);
        d.grant_owner(l);
        assert!(d.needs_probe_for_read(l));
        d.downgrade(l);
        assert_eq!(d.remote_copy(l), RemoteCopy::Shared);
        assert!(!d.needs_probe_for_read(l));
    }

    #[test]
    fn shared_to_owner_upgrade_allowed() {
        let mut d = Directory::new();
        let l = CacheLine(4);
        d.grant_shared(l);
        d.grant_owner(l);
        assert_eq!(d.remote_copy(l), RemoteCopy::Owner);
    }

    #[test]
    #[should_panic(expected = "shared grant while remote owns")]
    fn shared_grant_over_owner_panics() {
        let mut d = Directory::new();
        let l = CacheLine(5);
        d.grant_owner(l);
        d.grant_shared(l);
    }

    #[test]
    #[should_panic(expected = "downgrade of non-owner")]
    fn downgrade_without_owner_panics() {
        let mut d = Directory::new();
        d.downgrade(CacheLine(6));
    }

    #[test]
    fn active_copy_census() {
        let mut d = Directory::new();
        d.grant_shared(CacheLine(1));
        d.grant_owner(CacheLine(2));
        d.grant_shared(CacheLine(3));
        d.revoke(CacheLine(3));
        assert_eq!(d.active_remote_copies(), 2);
    }

    #[test]
    fn pure_step_matches_the_mutating_api() {
        use RemoteCopy::*;
        // Legal lifecycle, as a fold over the pure relation.
        let s = None.step(DirOp::GrantShared).unwrap();
        let o = s.step(DirOp::GrantOwner).unwrap();
        let s2 = o.step(DirOp::Downgrade).unwrap();
        let n = s2.step(DirOp::Revoke).unwrap();
        assert_eq!((s, o, s2, n), (Shared, Owner, Shared, None));
        // The illegal edges are exactly the documented panics.
        assert!(Owner.step(DirOp::GrantShared).is_err());
        assert!(Owner.step(DirOp::GrantOwner).is_err());
        for from in [None, Shared] {
            assert!(from.step(DirOp::Downgrade).is_err());
        }
        // Revoke is total.
        for from in [None, Shared, Owner] {
            assert_eq!(from.step(DirOp::Revoke), Ok(None));
        }
        let err = Owner.step(DirOp::GrantShared).unwrap_err();
        assert_eq!(
            err,
            DirStepError {
                from: Owner,
                op: DirOp::GrantShared
            }
        );
        assert!(err.to_string().contains("GrantShared"));
    }

    #[test]
    fn revoke_of_absent_line_is_idempotent() {
        let mut d = Directory::new();
        d.revoke(CacheLine(9));
        d.revoke(CacheLine(9));
        assert_eq!(d.stats(), (0, 0));
    }
}
