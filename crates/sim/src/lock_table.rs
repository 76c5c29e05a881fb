//! Per-site lock tables: a thin simulator-facing wrapper over
//! [`kplock_dlm::QueueTable`].
//!
//! The table logic (modes, FIFO queues, grant-on-release, upgrades) lives
//! in `kplock-dlm`, where protocol violations are typed
//! [`kplock_dlm::LockError`]s a service caller can handle. *This* wrapper
//! is internal to the engine, whose message protocol guarantees it never
//! violates the locking protocol — so here violations are bugs, and the
//! wrapper turns them back into panics (see [`SiteTable::release`]).
//! Exclusive-only traffic is bit-identical to the original hand-rolled
//! FIFO table (pinned by `tests/sim_regression.rs` at the workspace root).

use crate::event::Instance;
use kplock_dlm::{
    Acquire, CancelOutcome, PreventionOutcome, PreventionScheme, Priority, QueueTable,
};
use kplock_model::{EntityId, LockMode};

/// A site's lock table: reader–writer locks, FIFO wait queues.
#[derive(Clone, Debug, Default)]
pub struct SiteTable(QueueTable<Instance>);

impl SiteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests the lock on `e` in `mode`. Returns `true` if granted
    /// immediately; otherwise the instance is queued.
    ///
    /// # Panics
    /// Panics if `inst` is already queued for `e` (a protocol bug: the
    /// engine never re-requests before the first request resolves).
    pub fn request(&mut self, e: EntityId, inst: Instance, mode: LockMode) -> bool {
        match self.0.request(e, inst, mode) {
            Ok(Acquire::Granted) => true,
            Ok(Acquire::Queued) => false,
            Err(err) => panic!("{err}"),
        }
    }

    /// Requests the lock on `e` in `mode` under a timestamp-ordering
    /// prevention scheme; `prio` maps any involved instance to its
    /// priority (the coordinator's birth stamp). See
    /// [`kplock_dlm::QueueTable::request_with_priority`].
    ///
    /// # Panics
    /// Panics if `inst` is already queued for `e` (a protocol bug, as in
    /// [`SiteTable::request`]).
    pub fn request_with_priority(
        &mut self,
        e: EntityId,
        inst: Instance,
        mode: LockMode,
        scheme: PreventionScheme,
        prio: impl Fn(Instance) -> Priority,
    ) -> PreventionOutcome<Instance> {
        match self.0.request_with_priority(e, inst, mode, scheme, prio) {
            Ok(outcome) => outcome,
            Err(err) => panic!("{err}"),
        }
    }

    /// Releases the lock held by `inst` on `e`; returns the instances the
    /// release unblocked, in FIFO grant order (the grants are performed
    /// here). Exclusive-only tables grant at most one.
    ///
    /// # Panics
    /// Panics if `inst` does not hold the lock (a protocol bug). The
    /// service-layer twin, [`kplock_dlm::QueueTable::release`], returns
    /// [`kplock_dlm::LockError::NotHolder`] instead.
    pub fn release(&mut self, e: EntityId, inst: Instance) -> Vec<(Instance, LockMode)> {
        match self.0.release(e, inst) {
            Ok(grants) => grants,
            Err(err) => panic!("release by non-holder: {err}"),
        }
    }

    /// The mode `inst` holds on `e`, if any.
    pub fn holds(&self, e: EntityId, inst: Instance) -> Option<LockMode> {
        self.0.holds(e, inst)
    }

    /// Current sole exclusive holder of `e` (compatibility accessor for
    /// exclusive-only callers).
    pub fn holder(&self, e: EntityId) -> Option<Instance> {
        self.0.exclusive_holder(e)
    }

    /// All holders of `e` with modes.
    pub fn holders(&self, e: EntityId) -> Vec<(Instance, LockMode)> {
        self.0.holders(e)
    }

    /// Entities currently held by `inst`, ascending.
    pub fn held_by(&self, inst: Instance) -> Vec<EntityId> {
        self.0.held_by(inst)
    }

    /// Removes `inst` from all wait queues (and pending upgrades); returns
    /// the entities it stopped waiting on plus any grants the cancellation
    /// unblocked (possible only with shared modes in play).
    pub fn cancel_waits(&mut self, inst: Instance) -> CancelOutcome<Instance> {
        self.0.cancel_waits(inst)
    }

    /// Releases everything `inst` holds; returns `(entity, grants)` pairs
    /// in ascending entity order.
    pub fn release_all(&mut self, inst: Instance) -> Vec<(EntityId, Vec<(Instance, LockMode)>)> {
        self.0.release_all(inst)
    }

    /// The waits-for edges at this site: `(waiter, holder)` pairs,
    /// ascending.
    pub fn waits_for(&self) -> Vec<(Instance, Instance)> {
        self.0.waits_for()
    }

    /// The waits-for edges contributed by `e` alone (incremental deadlock
    /// detection reads exactly the entity that changed).
    pub fn entity_waits_for(&self, e: EntityId) -> Vec<(Instance, Instance)> {
        self.0.entity_waits_for(e)
    }

    /// The holders `inst` waits on at this site, ascending and
    /// deduplicated — the site-local answer a Chandy–Misra–Haas probe
    /// needs ("is this instance blocked here, and on whom?"); see
    /// [`crate::probe`].
    pub fn waits_of(&self, inst: Instance) -> Vec<Instance> {
        self.0.waits_of(inst)
    }

    /// True when `inst` is queued (or upgrade-pending) on `e` — how the
    /// fault-injection engine recognizes a *retransmitted* request whose
    /// original is already waiting, where [`SiteTable::request`] would
    /// panic on the duplicate.
    pub fn is_waiting(&self, e: EntityId, inst: Instance) -> bool {
        self.0.is_waiting(e, inst)
    }

    /// Releases `inst`'s lock on `e` if it holds one, a no-op otherwise —
    /// the duplicated-release-safe twin of [`SiteTable::release`], used
    /// only on fault-injected runs where a release message can legally
    /// arrive twice (see [`kplock_dlm::QueueTable::release_idempotent`]).
    pub fn release_idempotent(&mut self, e: EntityId, inst: Instance) -> Vec<(Instance, LockMode)> {
        self.0.release_idempotent(e, inst)
    }

    /// The owners a re-submitted request on `e` by `inst` would be
    /// admitted against (holders and upgraders; queued waiters only when
    /// `inst` is not itself a pending upgrader), ascending — what a
    /// retransmitted wound-wait request re-derives its wound victims
    /// from (see [`kplock_dlm::QueueTable::conflicts_of`]).
    pub fn conflicts_of(&self, e: EntityId, inst: Instance) -> Vec<Instance> {
        self.0.conflicts_of(e, inst)
    }

    /// Structural invariant check (S/X exclusion, single exclusive
    /// holder, upgraders hold, no holder-and-waiter owners), forwarded
    /// from the backing table's `check_invariants` for the
    /// [`crate::SimConfig::invariant_audit`] harness.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.0.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_model::TxnId;

    fn inst(t: u32) -> Instance {
        Instance {
            txn: TxnId(t),
            epoch: 0,
        }
    }

    const X: LockMode = LockMode::Exclusive;

    #[test]
    fn grant_queue_release() {
        let mut lt = SiteTable::new();
        let e = EntityId(0);
        assert!(lt.request(e, inst(0), X));
        assert!(!lt.request(e, inst(1), X));
        assert!(!lt.request(e, inst(2), X));
        assert_eq!(lt.holder(e), Some(inst(0)));
        assert_eq!(lt.waits_for(), vec![(inst(1), inst(0)), (inst(2), inst(0))]);
        // FIFO: 1 gets it next.
        assert_eq!(lt.release(e, inst(0)), vec![(inst(1), X)]);
        assert_eq!(lt.holder(e), Some(inst(1)));
        assert_eq!(lt.release(e, inst(1)), vec![(inst(2), X)]);
        assert_eq!(lt.release(e, inst(2)), vec![]);
        assert_eq!(lt.holder(e), None);
    }

    #[test]
    #[should_panic(expected = "release by non-holder")]
    fn release_by_non_holder_panics() {
        let mut lt = SiteTable::new();
        let e = EntityId(0);
        lt.request(e, inst(0), X);
        lt.release(e, inst(1));
    }

    #[test]
    #[should_panic(expected = "duplicate lock request")]
    fn duplicate_request_panics() {
        let mut lt = SiteTable::new();
        let e = EntityId(0);
        lt.request(e, inst(0), X);
        lt.request(e, inst(1), X);
        lt.request(e, inst(1), X);
    }

    #[test]
    fn abort_helpers() {
        let mut lt = SiteTable::new();
        let (x, y) = (EntityId(0), EntityId(1));
        lt.request(x, inst(0), X);
        lt.request(y, inst(0), X);
        lt.request(x, inst(1), X);
        assert_eq!(lt.held_by(inst(0)), vec![x, y]);
        assert_eq!(lt.cancel_waits(inst(1)).cancelled, vec![x]);
        let released = lt.release_all(inst(0));
        assert_eq!(released, vec![(x, vec![]), (y, vec![])]);
        assert!(lt.holder(x).is_none());
    }

    #[test]
    fn shared_grants_coexist() {
        let mut lt = SiteTable::new();
        let e = EntityId(0);
        assert!(lt.request(e, inst(0), LockMode::Shared));
        assert!(lt.request(e, inst(1), LockMode::Shared));
        assert!(!lt.request(e, inst(2), X));
        assert_eq!(lt.holder(e), None, "no sole exclusive holder");
        assert_eq!(lt.holds(e, inst(1)), Some(LockMode::Shared));
        lt.release(e, inst(0));
        assert_eq!(lt.release(e, inst(1)), vec![(inst(2), X)]);
    }
}
