//! The deterministic event queue.

use crate::probe::{ChaseId, ProbeMsg};
use kplock_dlm::Lease;
use kplock_model::{EntityId, LockMode, SiteId, StepId, TxnId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time, in abstract ticks.
pub type SimTime = u64;

/// A transaction *instance*: a transaction plus its restart epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Instance {
    /// The transaction.
    pub txn: TxnId,
    /// Restart count (0 for the first attempt).
    pub epoch: u32,
}

/// A delegated grant riding on [`Payload::LockGranted`]
/// ([`crate::Delegation::On`] only): the coordinator may cache it and
/// service later re-acquires and releases of the entity locally, with
/// zero messages, until the site revokes ([`Payload::Revoke`]) or the
/// lease expires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelegatedGrant {
    /// The delegated (held) mode — local re-acquires must be covered.
    pub mode: LockMode,
    /// The lease fencing the delegation; its clock keys off the
    /// *original* grant, so a duplicated grant message advertises the
    /// same expiry as the first.
    pub lease: Lease,
    /// The owning site's boot epoch at grant time. A coordinator only
    /// caches a grant from the site's **current** boot: a crash wipes the
    /// site's delegation ledger, so a delegated ack that was in flight
    /// across the outage must degrade to a plain grant — the rebuilt
    /// (or expired) hold follows the ordinary remote lifecycle.
    pub boot: u32,
}

/// Messages between coordinators and sites.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Coordinator asks the site to lock an entity for a step.
    LockRequest {
        /// Requesting instance.
        inst: Instance,
        /// Entity to lock.
        entity: EntityId,
        /// The lock step id.
        step: StepId,
    },
    /// Site notifies the coordinator that the lock was granted.
    LockGranted {
        /// Granted instance.
        inst: Instance,
        /// Locked entity.
        entity: EntityId,
        /// The lock step id.
        step: StepId,
        /// `Some` when the grant is *delegated* ([`crate::Delegation::On`],
        /// uncontested entity); see [`DelegatedGrant`]. `None` is a plain
        /// remote grant and *clears* any stale cache entry for `entity`
        /// (e.g. after a contested re-grant).
        delegated: Option<DelegatedGrant>,
    },
    /// Coordinator asks the site to apply an update step.
    UpdateRequest {
        /// Instance.
        inst: Instance,
        /// Updated entity.
        entity: EntityId,
        /// The update step id.
        step: StepId,
    },
    /// Site confirms an applied update.
    UpdateDone {
        /// Instance.
        inst: Instance,
        /// Step id.
        step: StepId,
    },
    /// Coordinator asks the site to release a lock.
    UnlockRequest {
        /// Instance.
        inst: Instance,
        /// Entity to unlock.
        entity: EntityId,
        /// The unlock step id.
        step: StepId,
    },
    /// Site confirms the release.
    UnlockDone {
        /// Instance.
        inst: Instance,
        /// Step id.
        step: StepId,
    },
    /// Site → site: a Chandy–Misra–Haas deadlock probe
    /// ([`crate::DeadlockDetection::Probe`] only) — the one message class
    /// no coordinator ever receives, and the only one a coordinator sends
    /// that is not about its own transaction (a re-chase after an abort
    /// order).
    Probe(ProbeMsg),
    /// Site → coordinator: a probe closed a wait-for cycle; the victim's
    /// coordinator must abort it.
    Abort {
        /// The chosen victim.
        victim: Instance,
        /// The full cycle the closing site assembled; the coordinator
        /// drops the abort if any member has already been aborted (its
        /// epoch moved on), since that cycle is broken.
        members: Vec<Instance>,
        /// When the cycle formed: the latest appearance tick among its
        /// traversed wait-edges (for detection-latency accounting).
        formed_at: SimTime,
        /// The search that found the cycle; `members[0]` is its
        /// initiator. Whatever the coordinator does with the order, it
        /// searches again from that initiator under this id's next
        /// generation (`probe.rs` module doc, rule 5).
        chase: ChaseId,
    },
    /// Site → coordinator ([`crate::DeadlockResolution::Prevent`] only):
    /// the prevention scheme refused the wait (wait-die saw a younger
    /// requester, no-wait saw any conflict). The requester was not queued;
    /// its coordinator must abort it and retry after a backoff — a restart
    /// decided from purely table-local knowledge, with no detection
    /// protocol anywhere.
    LockRejected {
        /// The refused instance.
        inst: Instance,
        /// The entity whose lock was refused.
        entity: EntityId,
        /// The lock step id (for diagnostics; the whole instance restarts).
        step: StepId,
    },
    /// Site → coordinator (wound-wait only): an older requester wounded
    /// this younger lock owner; its coordinator must abort it so the
    /// elder's wait cannot become a cycle. Dropped if the victim's epoch
    /// has already moved on (it committed or was wounded twice).
    Wound {
        /// The wounded instance.
        victim: Instance,
    },
    /// Site → coordinator ([`crate::Delegation::On`] only): another
    /// instance demands `entity`, so the delegated cache entry must
    /// drain back. Delivered like wounds — retransmitted while the
    /// demand persists under loss, idempotent on duplication (a
    /// coordinator with no matching entry acks anyway) — and epoch-free:
    /// revocation targets the cache slot, which outlives commits and
    /// restarts, so even a committed coordinator's residue must drain.
    Revoke {
        /// The delegate holding the cached grant.
        inst: Instance,
        /// The demanded entity.
        entity: EntityId,
    },
    /// Coordinator → site: the cache entry for `entity` is gone (drained
    /// on revocation, or never existed — the idempotent ack to a
    /// duplicated [`Payload::Revoke`]); the site may release the
    /// underlying hold and grant the demanding waiter.
    RevokeAck {
        /// The (former) delegate.
        inst: Instance,
        /// The drained entity.
        entity: EntityId,
    },
}

/// What happens at a point in simulated time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A message arrives at a site.
    ToSite(SiteId, Payload),
    /// A message arrives at a coordinator.
    ToCoordinator(TxnId, Payload),
    /// Periodic global deadlock scan.
    DeadlockScan,
    /// An aborted transaction restarts.
    Restart(TxnId),
    /// A scheduled site outage begins ([`crate::fault::FaultPlan`]): the
    /// site's volatile lock table is wiped and deliveries to it are
    /// dropped until the matching [`EventKind::SiteRecover`].
    SiteCrash(SiteId),
    /// A crashed site comes back: its table is rebuilt from the holders
    /// whose leases survived the outage, expired holders are aborted, and
    /// coordinators re-deliver their un-acknowledged requests.
    SiteRecover(SiteId),
    /// Coordinator retransmission timer (fault plans with
    /// [`crate::fault::FaultPlan::retransmit_after`] > 0): re-send every
    /// issued-but-unacknowledged step request of the tagged epoch. Fires
    /// only while the epoch is current and the transaction uncommitted.
    RetransmitCheck(TxnId, u32),
}

/// The queue: events ordered by `(time, seq)`, `seq` assigned at insertion
/// so ties resolve deterministically in insertion order.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, EventOrd)>>,
    next_seq: u64,
}

/// Wrapper giving `EventKind` an arbitrary (unused) ordering for the heap.
#[derive(Debug, PartialEq, Eq)]
struct EventOrd(EventKind);

impl Ord for EventOrd {
    fn cmp(&self, _other: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl PartialOrd for EventOrd {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq, EventOrd(kind))));
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        self.heap.pop().map(|Reverse((t, _, e))| (t, e.0))
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_payload_is_no_bigger_than_before_probes_carried_an_id() {
        // Every event in the heap carries a `Payload`, under all seven
        // resolution arms; six of them never send a probe and must not pay
        // for the one that does. 56 bytes is what it was when a probe held
        // two vectors and no id.
        assert!(std::mem::size_of::<Payload>() <= 56);
    }

    #[test]
    fn orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.push(10, EventKind::DeadlockScan);
        q.push(5, EventKind::Restart(TxnId(0)));
        q.push(10, EventKind::Restart(TxnId(1)));
        assert_eq!(q.len(), 3);
        let (t1, e1) = q.pop().unwrap();
        assert_eq!((t1, &e1), (5, &EventKind::Restart(TxnId(0))));
        let (t2, e2) = q.pop().unwrap();
        assert_eq!(t2, 10);
        assert_eq!(e2, EventKind::DeadlockScan); // inserted before the tie
        let (_, e3) = q.pop().unwrap();
        assert_eq!(e3, EventKind::Restart(TxnId(1)));
        assert!(q.is_empty());
    }
}
