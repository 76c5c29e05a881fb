//! Timestamp-ordered deadlock *prevention* (Rosenkrantz–Stearns–Lewis).
//!
//! Detection ([`crate::WaitForGraph`], the simulator's scan/probe schemes)
//! lets wait-for cycles form and then finds and breaks them. Prevention
//! never lets them form: every owner carries a fixed [`Priority`] — its
//! birth timestamp, kept across restarts — and a request that would have
//! to wait is admitted, wounded through, or refused by comparing
//! timestamps **locally at the table**, with no wait-for graph, no scan,
//! and no cross-site protocol anywhere:
//!
//! * **Wound-Wait** — an *older* requester wounds (forces the abort of)
//!   every younger conflicting owner and then waits; a *younger* requester
//!   simply waits. Waits therefore only ever point young → old.
//! * **Wait-Die** — an *older* requester may wait; a *younger* one dies
//!   (aborts and retries with its original timestamp). Waits only ever
//!   point old → young.
//! * **No-Wait** — nobody waits: any conflict refuses the request and the
//!   requester retries after a backoff. The degenerate scheme, maximal
//!   restarts for zero waiting.
//!
//! In all three the waits-for relation is (a subset of) a strict order on
//! timestamps, so it cannot contain a cycle; and because a transaction
//! keeps its birth timestamp across restarts, it eventually becomes the
//! oldest in the system and cannot be wounded or refused — no livelock.
//!
//! One subtlety is owed to the FIFO queue: grants *retarget* the remaining
//! waiters onto new holders, so a wait admitted against today's holders
//! can face different holders tomorrow. [`QueueTable::request_with_priority`]
//! therefore applies the timestamp test against the holders **and** the
//! queued waiters (who are tomorrow's holders): under Wait-Die a waiter is
//! admitted only if older than everyone it could ever retarget onto, and
//! under Wound-Wait everyone younger — queued or holding — is wounded.
//! Both invariants are then stable under FIFO grant order (each grant
//! hands the lock to a front-of-queue owner that every remaining waiter
//! was already checked against), which is what makes the no-cycle
//! guarantee hold for the *lifetime* of a wait, not just its admission.
//! See `tests/prevention_props.rs` at the workspace root for the
//! property-based version of that argument.
//!
//! [`QueueTable::request_with_priority`]: crate::QueueTable::request_with_priority

/// A prevention priority: smaller is older is stronger. The first
/// component is a birth timestamp (ticks, a ticket counter, …) that must
/// survive restarts — or the schemes livelock by repeatedly killing
/// whichever transaction is about to finish — and the second breaks ties,
/// so every owner's priority is distinct.
pub type Priority = (u64, u64);

/// Which timestamp-ordering prevention scheme a table applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PreventionScheme {
    /// Older requesters wound younger conflicting owners and wait; younger
    /// requesters wait. Restarts are paid by the *holders*.
    WoundWait,
    /// Older requesters wait; younger requesters die and retry. Restarts
    /// are paid by the *requesters*.
    WaitDie,
    /// Any conflict dies. No waiting at all, maximal restart churn.
    NoWait,
}

/// Outcome of a [`crate::QueueTable::request_with_priority`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PreventionOutcome<O> {
    /// Granted immediately — no conflict, no timestamp consulted.
    Granted,
    /// The wait is permitted by the scheme; the request is queued exactly
    /// as a plain [`crate::QueueTable::request`] would queue it.
    Queued,
    /// Wound-Wait admitted the wait but the listed younger owners must be
    /// aborted by the caller (they are *not* removed here: a wound is an
    /// order to whoever owns the victims' lifecycle, and the victims keep
    /// their table state until that abort executes).
    Wounded(Vec<O>),
    /// The scheme refuses the wait: the requester was not queued and must
    /// abort and retry later, keeping its priority.
    Rejected,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_order_older_first() {
        let older: Priority = (5, 0);
        let younger: Priority = (9, 0);
        assert!(older < younger);
        // Ties on the timestamp break on the second component.
        assert!((5u64, 1u64) > older);
    }

    #[test]
    fn outcome_equality() {
        let a: PreventionOutcome<u32> = PreventionOutcome::Wounded(vec![3]);
        assert_eq!(a, PreventionOutcome::Wounded(vec![3]));
        assert_ne!(a, PreventionOutcome::Queued);
        assert_ne!(
            PreventionOutcome::<u32>::Rejected,
            PreventionOutcome::Granted
        );
    }
}
