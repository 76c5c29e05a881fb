//! The lock table's protocol: what a request, a release and a cancellation
//! mean, and the result types they report. [`crate::QueueTable`] is the
//! implementation; this module is the contract its callers rely on, and
//! its tests exercise the contract rather than the data structure.
//!
//! The table generalizes the paper's exclusive-only per-site table to the
//! `IS`/`IX`/`S`/`SIX`/`X` mode lattice while keeping its grant discipline
//! *bit-identical* in the exclusive-only case: requests queue strictly
//! FIFO (no waiter is ever overtaken by a later request, so writers never
//! starve), and grants happen inside release so the caller can forward
//! them.
//!
//! # Invariants
//!
//! * Co-held modes are pairwise compatible under the one matrix on
//!   [`LockMode`]: at most one [`LockMode::Exclusive`] holder per entity,
//!   and never alongside any other holder.
//! * The wait queue is FIFO: a queued request is granted only when it is at
//!   the front and compatible with the current holders; runs of adjacent
//!   compatible requests are granted together.
//! * An upgrade (a holder requesting a stronger mode) takes priority over
//!   the queue but must wait until its lattice-join target is compatible
//!   with every other holder — for `S → X`, until it is the sole holder.
//!   Two concurrent upgraders deadlock by construction — that is the
//!   caller's problem to detect (see [`crate::WaitForGraph`]) and resolve
//!   by aborting one.
//! * Protocol violations return [`crate::LockError`]; nothing panics.

use kplock_model::{EntityId, LockMode};

/// Grants unblocked by one release/cancel at one entity: the granted
/// owners with their granted modes, in FIFO order.
pub type Grants<O> = Vec<(O, LockMode)>;

/// Per-entity grant lists, ascending by entity — what the bulk operations
/// (`release_all`, batch release) report.
pub type EntityGrants<O> = Vec<(EntityId, Grants<O>)>;

/// Outcome of a lock request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Acquire {
    /// The lock was granted immediately.
    Granted,
    /// The request was queued; it will appear in a later release's grant
    /// list (or be cancelled).
    Queued,
}

/// Result of cancelling an owner's waits: which entities it stopped waiting
/// on, and any grants the cancellation unblocked (e.g. a cancelled upgrade
/// letting queued readers through).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CancelOutcome<O> {
    /// Entities the owner was queued (or upgrade-pending) on, ascending.
    pub cancelled: Vec<EntityId>,
    /// Grants performed as a consequence, in ascending entity order.
    pub granted: EntityGrants<O>,
}

impl<O> Default for CancelOutcome<O> {
    fn default() -> Self {
        CancelOutcome {
            cancelled: Vec::new(),
            granted: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    //! The protocol, exercised through [`QueueTable`]. Tests of the data
    //! structure itself (arena, indexes, auditor) live next to it.

    use super::*;
    use crate::error::LockError;
    use crate::prevent::{PreventionOutcome, PreventionScheme, Priority};
    use crate::QueueTable;

    fn x() -> LockMode {
        LockMode::Exclusive
    }
    fn s() -> LockMode {
        LockMode::Shared
    }

    #[test]
    fn exclusive_fifo_grant_queue_release() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        assert_eq!(t.request(e, 0, x()).unwrap(), Acquire::Granted);
        assert_eq!(t.request(e, 1, x()).unwrap(), Acquire::Queued);
        assert_eq!(t.request(e, 2, x()).unwrap(), Acquire::Queued);
        assert_eq!(t.holds(e, 0), Some(x()));
        assert_eq!(t.waits_for(), vec![(1, 0), (2, 0)]);
        assert_eq!(t.release(e, 0).unwrap(), vec![(1, x())]);
        assert_eq!(t.release(e, 1).unwrap(), vec![(2, x())]);
        assert_eq!(t.release(e, 2).unwrap(), vec![]);
        assert!(t.is_idle());
    }

    #[test]
    fn shared_holders_coexist_and_block_writers() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        assert_eq!(t.request(e, 0, s()).unwrap(), Acquire::Granted);
        assert_eq!(t.request(e, 1, s()).unwrap(), Acquire::Granted);
        assert_eq!(t.request(e, 2, x()).unwrap(), Acquire::Queued);
        // FIFO: a reader arriving after the writer must not overtake it.
        assert_eq!(t.request(e, 3, s()).unwrap(), Acquire::Queued);
        t.check_invariants().unwrap();
        assert_eq!(t.release(e, 0).unwrap(), vec![]);
        // Last reader leaves: writer goes first, reader 3 still waits.
        assert_eq!(t.release(e, 1).unwrap(), vec![(2, x())]);
        assert_eq!(t.holds(e, 2), Some(x()));
        assert_eq!(t.release(e, 2).unwrap(), vec![(3, s())]);
        assert_eq!(t.release(e, 3).unwrap(), vec![]);
    }

    #[test]
    fn adjacent_readers_granted_together() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request(e, 0, x()).unwrap();
        t.request(e, 1, s()).unwrap();
        t.request(e, 2, s()).unwrap();
        t.request(e, 3, x()).unwrap();
        assert_eq!(t.release(e, 0).unwrap(), vec![(1, s()), (2, s())]);
        assert_eq!(t.release(e, 1).unwrap(), vec![]);
        assert_eq!(t.release(e, 2).unwrap(), vec![(3, x())]);
    }

    #[test]
    fn reentrant_covered_request_is_granted() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request(e, 0, x()).unwrap();
        assert_eq!(t.request(e, 0, s()).unwrap(), Acquire::Granted);
        assert_eq!(t.request(e, 0, x()).unwrap(), Acquire::Granted);
        assert_eq!(t.holds(e, 0), Some(x()));
    }

    #[test]
    fn sole_holder_upgrade_is_immediate() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request(e, 0, s()).unwrap();
        assert_eq!(t.request(e, 0, x()).unwrap(), Acquire::Granted);
        assert_eq!(t.holds(e, 0), Some(x()));
        assert_eq!(t.exclusive_holder(e), Some(0));
    }

    #[test]
    fn contended_upgrade_waits_for_other_readers() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request(e, 0, s()).unwrap();
        t.request(e, 1, s()).unwrap();
        assert_eq!(t.request(e, 0, x()).unwrap(), Acquire::Queued);
        // The upgrader waits on the other holder only.
        assert_eq!(t.waits_for(), vec![(0, 1)]);
        // A new reader must not sneak in past the pending upgrade.
        assert_eq!(t.request(e, 2, s()).unwrap(), Acquire::Queued);
        assert_eq!(t.release(e, 1).unwrap(), vec![(0, x())]);
        assert_eq!(t.holds(e, 0), Some(x()));
        assert_eq!(t.release(e, 0).unwrap(), vec![(2, s())]);
    }

    #[test]
    fn release_by_non_holder_is_a_typed_error() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        assert_eq!(
            t.release(e, 9).unwrap_err(),
            LockError::NotHolder { entity: e }
        );
        t.request(e, 0, x()).unwrap();
        assert_eq!(
            t.release(e, 1).unwrap_err(),
            LockError::NotHolder { entity: e }
        );
        // Waiters are not holders.
        t.request(e, 1, x()).unwrap();
        assert_eq!(
            t.release(e, 1).unwrap_err(),
            LockError::NotHolder { entity: e }
        );
    }

    #[test]
    fn duplicate_queued_request_is_an_error() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request(e, 0, x()).unwrap();
        t.request(e, 1, x()).unwrap();
        assert_eq!(
            t.request(e, 1, x()).unwrap_err(),
            LockError::AlreadyQueued { entity: e }
        );
    }

    #[test]
    fn cancel_waits_unblocks_readers_behind_cancelled_writer() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request(e, 0, s()).unwrap();
        t.request(e, 1, x()).unwrap();
        t.request(e, 2, s()).unwrap();
        let out = t.cancel_waits(1);
        assert_eq!(out.cancelled, vec![e]);
        assert_eq!(out.granted, vec![(e, vec![(2, s())])]);
        assert_eq!(t.holds(e, 2), Some(s()));
    }

    #[test]
    fn waits_of_is_the_per_owner_local_view() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let (a, b, c) = (EntityId(0), EntityId(1), EntityId(2));
        t.request(a, 0, x()).unwrap();
        t.request(b, 1, x()).unwrap();
        t.request(a, 2, x()).unwrap(); // 2 waits on 0
        t.request(b, 2, x()).unwrap(); // 2 waits on 1
        t.request(c, 2, x()).unwrap(); // granted, no wait
        assert_eq!(t.waits_of(2), vec![0, 1]);
        assert_eq!(t.waits_of(0), vec![]);
        // Shared holders: a waiter waits on all of them, deduplicated
        // against other entities.
        let mut t: QueueTable<u32> = QueueTable::new();
        t.request(a, 0, s()).unwrap();
        t.request(a, 1, s()).unwrap();
        t.request(a, 2, x()).unwrap();
        t.request(b, 1, x()).unwrap();
        t.request(b, 2, x()).unwrap();
        assert_eq!(t.waits_of(2), vec![0, 1]);
        // An upgrader waits on the other holders only.
        let mut t: QueueTable<u32> = QueueTable::new();
        t.request(a, 0, s()).unwrap();
        t.request(a, 1, s()).unwrap();
        t.request(a, 0, x()).unwrap(); // pending upgrade
        assert_eq!(t.waits_of(0), vec![1]);
    }

    /// Owner id doubles as age: smaller id = older transaction.
    fn by_id(o: u32) -> Priority {
        (o as u64, 0)
    }

    #[test]
    fn no_wait_rejects_any_conflict_without_queueing() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        assert_eq!(
            t.request_with_priority(e, 5, x(), PreventionScheme::NoWait, by_id)
                .unwrap(),
            PreventionOutcome::Granted
        );
        assert_eq!(
            t.request_with_priority(e, 1, x(), PreventionScheme::NoWait, by_id)
                .unwrap(),
            PreventionOutcome::Rejected,
            "older or not, nobody waits"
        );
        assert!(t.waits_for().is_empty(), "rejected requests leave no state");
        // Shared readers still coexist: no conflict, no rejection.
        let mut t: QueueTable<u32> = QueueTable::new();
        t.request_with_priority(e, 1, s(), PreventionScheme::NoWait, by_id)
            .unwrap();
        assert_eq!(
            t.request_with_priority(e, 2, s(), PreventionScheme::NoWait, by_id)
                .unwrap(),
            PreventionOutcome::Granted
        );
    }

    #[test]
    fn wait_die_admits_older_rejects_younger() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request_with_priority(e, 5, x(), PreventionScheme::WaitDie, by_id)
            .unwrap();
        // Older than the holder: may wait.
        assert_eq!(
            t.request_with_priority(e, 3, x(), PreventionScheme::WaitDie, by_id)
                .unwrap(),
            PreventionOutcome::Queued
        );
        // Younger than the holder: dies.
        assert_eq!(
            t.request_with_priority(e, 9, x(), PreventionScheme::WaitDie, by_id)
                .unwrap(),
            PreventionOutcome::Rejected
        );
        // Younger than the holder but older than the queued waiter is
        // still a death: the waiter is a future holder under FIFO.
        assert_eq!(
            t.request_with_priority(e, 4, x(), PreventionScheme::WaitDie, by_id)
                .unwrap(),
            PreventionOutcome::Rejected
        );
        // Older than holder *and* every waiter: admitted.
        assert_eq!(
            t.request_with_priority(e, 1, x(), PreventionScheme::WaitDie, by_id)
                .unwrap(),
            PreventionOutcome::Queued
        );
        assert_eq!(t.waits_for(), vec![(1, 5), (3, 5)]);
        // FIFO retargeting keeps the invariant: 5 releases, 3 holds, and
        // the remaining waiter 1 is older than the new holder.
        assert_eq!(t.release(e, 5).unwrap(), vec![(3, x())]);
        assert_eq!(t.waits_for(), vec![(1, 3)]);
    }

    #[test]
    fn wound_wait_wounds_younger_holders_and_waiters() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request_with_priority(e, 2, s(), PreventionScheme::WoundWait, by_id)
            .unwrap();
        t.request_with_priority(e, 8, s(), PreventionScheme::WoundWait, by_id)
            .unwrap();
        // Younger requester waits without wounding anybody.
        assert_eq!(
            t.request_with_priority(e, 9, x(), PreventionScheme::WoundWait, by_id)
                .unwrap(),
            PreventionOutcome::Queued
        );
        // Older requester wounds every younger owner — the shared holder 8
        // and the queued writer 9 — and waits behind the older holder 2.
        assert_eq!(
            t.request_with_priority(e, 5, x(), PreventionScheme::WoundWait, by_id)
                .unwrap(),
            PreventionOutcome::Wounded(vec![8, 9])
        );
        // Victims keep their state until the caller aborts them.
        assert_eq!(t.holds(e, 8), Some(s()));
        let co = t.cancel_waits(9);
        assert_eq!(co.cancelled, vec![e]);
        t.release(e, 8).unwrap();
        // Only the old holder is left ahead of the admitted waiter.
        assert_eq!(t.waits_for(), vec![(5, 2)]);
        assert_eq!(t.release(e, 2).unwrap(), vec![(5, x())]);
    }

    #[test]
    fn prevention_grants_without_conflict_never_consult_priorities() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        let panic_prio = |_: u32| -> Priority { panic!("no conflict, no timestamp") };
        for scheme in [
            PreventionScheme::WoundWait,
            PreventionScheme::WaitDie,
            PreventionScheme::NoWait,
        ] {
            let mut fresh: QueueTable<u32> = QueueTable::new();
            assert_eq!(
                fresh
                    .request_with_priority(e, 7, x(), scheme, panic_prio)
                    .unwrap(),
                PreventionOutcome::Granted
            );
        }
        // Re-entrant covered requests are also free.
        t.request_with_priority(e, 7, x(), PreventionScheme::WaitDie, by_id)
            .unwrap();
        assert_eq!(
            t.request_with_priority(e, 7, s(), PreventionScheme::WaitDie, panic_prio)
                .unwrap(),
            PreventionOutcome::Granted
        );
    }

    #[test]
    fn prevention_contended_upgrade_applies_the_scheme() {
        // Two shared holders; the older one upgrades: wound-wait wounds
        // the younger co-holder, wait-die admits the pending upgrade.
        for (scheme, expect) in [
            (
                PreventionScheme::WoundWait,
                PreventionOutcome::Wounded(vec![6]),
            ),
            (PreventionScheme::WaitDie, PreventionOutcome::Queued),
        ] {
            let mut t: QueueTable<u32> = QueueTable::new();
            let e = EntityId(0);
            t.request_with_priority(e, 2, s(), scheme, by_id).unwrap();
            t.request_with_priority(e, 6, s(), scheme, by_id).unwrap();
            assert_eq!(
                t.request_with_priority(e, 2, x(), scheme, by_id).unwrap(),
                expect
            );
            assert_eq!(
                t.waits_for(),
                vec![(2, 6)],
                "upgrade pending on the other holder"
            );
        }
        // The younger co-holder upgrading under wait-die dies instead.
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request_with_priority(e, 2, s(), PreventionScheme::WaitDie, by_id)
            .unwrap();
        t.request_with_priority(e, 6, s(), PreventionScheme::WaitDie, by_id)
            .unwrap();
        assert_eq!(
            t.request_with_priority(e, 6, x(), PreventionScheme::WaitDie, by_id)
                .unwrap(),
            PreventionOutcome::Rejected
        );
        // A sole holder upgrades in place under any scheme.
        let mut t: QueueTable<u32> = QueueTable::new();
        t.request_with_priority(e, 6, s(), PreventionScheme::NoWait, by_id)
            .unwrap();
        assert_eq!(
            t.request_with_priority(e, 6, x(), PreventionScheme::NoWait, by_id)
                .unwrap(),
            PreventionOutcome::Granted
        );
    }

    #[test]
    fn contended_upgrade_ignores_queued_waiters_it_outranks() {
        // Holders {2(S), 6(S)}, queue [1(X)] — the queued writer is older
        // than everyone. An upgrade by holder 2 only ever waits on the
        // *other holder* 6 (promote serves upgrades before the queue), so
        // under wait-die the older queued writer must not count as an
        // obstacle and the upgrade is admitted.
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request_with_priority(e, 2, s(), PreventionScheme::WaitDie, by_id)
            .unwrap();
        t.request_with_priority(e, 6, s(), PreventionScheme::WaitDie, by_id)
            .unwrap();
        assert_eq!(
            t.request_with_priority(e, 1, x(), PreventionScheme::WaitDie, by_id)
                .unwrap(),
            PreventionOutcome::Queued
        );
        assert_eq!(
            t.request_with_priority(e, 2, x(), PreventionScheme::WaitDie, by_id)
                .unwrap(),
            PreventionOutcome::Queued,
            "queued waiters are not upgrade obstacles"
        );
        // The upgrade is indeed served before the older queued writer.
        assert_eq!(t.release(e, 6).unwrap(), vec![(2, x())]);
        assert_eq!(t.release(e, 2).unwrap(), vec![(1, x())]);
        // Same shape under wound-wait: the upgrader wounds nobody in the
        // queue (it will never wait on them), only younger co-holders.
        let mut t: QueueTable<u32> = QueueTable::new();
        t.request_with_priority(e, 2, s(), PreventionScheme::WoundWait, by_id)
            .unwrap();
        t.request_with_priority(e, 6, s(), PreventionScheme::WoundWait, by_id)
            .unwrap();
        t.request_with_priority(e, 9, x(), PreventionScheme::WoundWait, by_id)
            .unwrap();
        assert_eq!(
            t.request_with_priority(e, 2, x(), PreventionScheme::WoundWait, by_id)
                .unwrap(),
            PreventionOutcome::Wounded(vec![6]),
            "only the younger co-holder is wounded, not the queued writer"
        );
    }

    #[test]
    fn prevention_duplicate_queued_request_is_an_error() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request_with_priority(e, 5, x(), PreventionScheme::WaitDie, by_id)
            .unwrap();
        t.request_with_priority(e, 3, x(), PreventionScheme::WaitDie, by_id)
            .unwrap();
        assert_eq!(
            t.request_with_priority(e, 3, x(), PreventionScheme::WaitDie, by_id)
                .unwrap_err(),
            LockError::AlreadyQueued { entity: e }
        );
    }

    #[test]
    fn wound_wait_wounds_a_pending_upgrader() {
        // Holders {2(S), 6(S)}; the younger co-holder 6 starts an upgrade
        // and goes pending on 2. Requester 3 — older than the upgrader,
        // younger than the other holder — arrives for X: its obstacle set
        // is both holders *and* the upgrader entry, so 6 is wounded
        // exactly once (obstacles are deduplicated, not once per role), 2
        // is spared, and 3 waits. Aborting 6 — cancel its upgrade,
        // release its hold — must leave 2 then 3 as the FIFO future.
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request_with_priority(e, 2, s(), PreventionScheme::WoundWait, by_id)
            .unwrap();
        t.request_with_priority(e, 6, s(), PreventionScheme::WoundWait, by_id)
            .unwrap();
        assert_eq!(
            t.request_with_priority(e, 6, x(), PreventionScheme::WoundWait, by_id)
                .unwrap(),
            PreventionOutcome::Queued,
            "younger upgrader waits on the older co-holder without wounding"
        );
        assert_eq!(
            t.request_with_priority(e, 3, x(), PreventionScheme::WoundWait, by_id)
                .unwrap(),
            PreventionOutcome::Wounded(vec![6]),
            "only the younger upgrader is wounded, and only once"
        );
        // Execute the wound: 6 loses its pending upgrade and its hold.
        let co = t.cancel_waits(6);
        assert_eq!(co.cancelled, vec![e]);
        assert_eq!(t.release(e, 6).unwrap(), vec![]);
        // 2 is sole holder; releasing it grants the admitted requester.
        assert_eq!(t.release(e, 2).unwrap(), vec![(3, x())]);
    }

    #[test]
    fn upgrader_dies_against_an_older_upgrader_under_wait_die() {
        // Two co-holders both upgrading is a genuine upgrade-vs-upgrade
        // cycle; prevention must refuse the one that would wait on an
        // older pending upgrader. 2 upgrades first (pending on 6); then 6
        // tries: its obstacles are the other holder 2 *and* upgrader 2 —
        // younger 6 dies rather than completing the cycle.
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request_with_priority(e, 2, s(), PreventionScheme::WaitDie, by_id)
            .unwrap();
        t.request_with_priority(e, 6, s(), PreventionScheme::WaitDie, by_id)
            .unwrap();
        assert_eq!(
            t.request_with_priority(e, 2, x(), PreventionScheme::WaitDie, by_id)
                .unwrap(),
            PreventionOutcome::Queued
        );
        assert_eq!(
            t.request_with_priority(e, 6, x(), PreventionScheme::WaitDie, by_id)
                .unwrap(),
            PreventionOutcome::Rejected,
            "the younger upgrader must die, or the upgrade cycle deadlocks"
        );
        // The dead upgrader aborts: its hold releases, 2 upgrades in place.
        assert_eq!(t.release(e, 6).unwrap(), vec![(2, x())]);
        assert_eq!(t.holds(e, 2), Some(x()));
    }

    #[test]
    fn co_holder_upgrade_conflicts_with_queued_waiter_it_cannot_outrank() {
        // Wound-wait upgrade by the *younger* co-holder: it waits on the
        // older co-holder (young → old, admissible) and wounds nobody —
        // in particular not the queued writer it will be served before.
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request_with_priority(e, 2, s(), PreventionScheme::WoundWait, by_id)
            .unwrap();
        t.request_with_priority(e, 6, s(), PreventionScheme::WoundWait, by_id)
            .unwrap();
        t.request_with_priority(e, 9, x(), PreventionScheme::WoundWait, by_id)
            .unwrap();
        assert_eq!(
            t.request_with_priority(e, 6, x(), PreventionScheme::WoundWait, by_id)
                .unwrap(),
            PreventionOutcome::Queued,
            "younger upgrader: waits on 2, wounds neither 2 nor the queue"
        );
        assert_eq!(t.waits_for(), vec![(6, 2), (9, 2), (9, 6)]);
        // FIFO future: 2 releases → 6 upgrades; 6 releases → 9 gets X.
        assert_eq!(t.release(e, 2).unwrap(), vec![(6, x())]);
        assert_eq!(t.release(e, 6).unwrap(), vec![(9, x())]);
    }

    #[test]
    fn is_waiting_sees_queued_and_upgrading_owners() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request(e, 0, s()).unwrap();
        t.request(e, 1, s()).unwrap();
        t.request(e, 0, x()).unwrap(); // pending upgrade
        t.request(e, 2, x()).unwrap(); // queued
        assert!(t.is_waiting(e, 0), "pending upgraders are waiting");
        assert!(t.is_waiting(e, 2), "queued requests are waiting");
        assert!(!t.is_waiting(e, 1), "plain holders are not");
        assert!(!t.is_waiting(EntityId(9), 0), "unknown entity: nobody");
    }

    #[test]
    fn release_idempotent_tolerates_duplicates_and_spares_new_holders() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request(e, 0, x()).unwrap();
        t.request(e, 1, x()).unwrap();
        // First copy releases and grants the waiter.
        assert_eq!(t.release_idempotent(e, 0), vec![(1, x())]);
        // The duplicate finds no hold by 0 — and must not evict 1.
        assert_eq!(t.release_idempotent(e, 0), vec![]);
        assert_eq!(t.holds(e, 1), Some(x()));
        // Releasing something never held is equally a no-op.
        assert_eq!(t.release_idempotent(EntityId(7), 0), vec![]);
    }

    #[test]
    fn conflicts_of_lists_the_admission_obstacle_set() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        assert_eq!(t.conflicts_of(e, 9), Vec::<u32>::new());
        t.request(e, 2, s()).unwrap();
        t.request(e, 6, s()).unwrap();
        t.request(e, 6, x()).unwrap(); // 6 also pending upgrade: deduped
        t.request(e, 9, x()).unwrap(); // queued
                                       // A fresh (or queued) requester is admitted against everyone.
        assert_eq!(t.conflicts_of(e, 5), vec![2, 6, 9]);
        assert_eq!(t.conflicts_of(e, 9), vec![2, 6]);
        // A pending *upgrader*'s obstacle set excludes the queue (the
        // upgrade is served first), exactly as the admission path does —
        // a re-derived wound-wait victim set must not wound the queued
        // writer 9, which was never an obstacle.
        assert_eq!(t.conflicts_of(e, 6), vec![2]);
    }

    #[test]
    fn abort_helpers_match_old_table_semantics() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let (a, b) = (EntityId(0), EntityId(1));
        t.request(a, 0, x()).unwrap();
        t.request(b, 0, x()).unwrap();
        t.request(a, 1, x()).unwrap();
        assert_eq!(t.held_by(0), vec![a, b]);
        assert_eq!(t.cancel_waits(1).cancelled, vec![a]);
        let released = t.release_all(0);
        assert_eq!(released, vec![(a, vec![]), (b, vec![])]);
        assert!(t.is_idle());
    }
}
