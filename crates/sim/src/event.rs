//! The deterministic event queue, and the events and messages it carries.
//!
//! # Why a calendar pops in `(time, insertion)` order
//!
//! [`EventQueue`] promises what a binary heap keyed by `(time, seq)` —
//! `seq` stamped at insertion — delivers, and was one until the profile
//! put a quarter of an open-loop run inside its sift. Almost every event
//! is scheduled a few ticks ahead of the one being handled, so the queue
//! is now a ring of per-tick FIFO buckets covering the `WINDOW` (1 024)
//! ticks from `base`, the latest tick popped, with an occupancy bitmap to
//! find the next nonempty one. The buckets are linked lists through one
//! slab: a push inside the window takes a slot off the free list and links
//! it behind its bucket's tail, a pop unlinks the head and frees it, so a
//! queue costs one buffer however many ticks a run touches and a warm one
//! allocates nothing. Whatever falls outside the window when it is pushed
//! — an open-loop arrival, a scheduled crash, a tick already passed — goes
//! to the old heap with its `seq` and stays there until it is popped;
//! `pop` takes the earlier of the heap's top and the first occupied
//! bucket, **the heap's on a tie**.
//!
//! A bucket keeps no `seq`, so that rule has to reproduce `(time, seq)`
//! order, and it does because `base` only moves forward. For any tick `T`
//! the pushes sort themselves by when they happened: first those made
//! while `T` was beyond the window (to the heap), then those made while
//! the window covers it (to its bucket), last those made after `base`
//! passed `T` (to the heap again) — and `base` passes `T` only by popping
//! a later tick, which `pop` does only once nothing of `T` is left
//! anywhere. So when `T`'s turn comes the heap holds its earliest pushes,
//! in `seq` order, and the bucket the rest, in arrival order: heap first,
//! then bucket. Late pushes find both empty of `T`, and being earlier
//! than every occupied bucket they pop next, in heap order. Nothing ever
//! moves from the heap to the ring, so there is no migration to get
//! wrong; a configuration whose delays exceed the window loses only the
//! speed — it runs from the heap.

use crate::probe::{ChaseId, ProbeMsg};
use kplock_model::{EntityId, SiteId, StepId, TxnId};
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
/// serve the matching unlock locally, with zero messages; the hold stays
/// at the site until the site revokes it ([`Payload::Revoke`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelegatedGrant {
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

/// Ticks the calendar covers from its base: a constant, not a setting.
/// Every delay the engine draws — latency, local step time, restart
/// backoff and jitter, scan interval, retransmission timer, reorder
/// window — is far below it in every configuration the repository runs,
/// so only open-loop arrivals and scheduled crashes ever leave the ring.
const WINDOW: u64 = 1024;

/// Words of the occupancy bitmap, one bit per bucket.
const WORDS: usize = (WINDOW / 64) as usize;

/// The queue: events come out by `(time, insertion)`, ties at one tick
/// resolving deterministically in insertion order. Any tick may be pushed
/// at any time, including one behind the last tick popped.
///
/// A calendar (see the module docs for why its order is the heap's):
/// bucket `t % WINDOW` is tick `t`'s FIFO for every `t` in
/// `[base, base + WINDOW)`, `occupied` has a bit per nonempty bucket, and
/// `far` — the `(time, seq)` heap that used to be the whole queue — holds
/// what was pushed outside that window. `base` is the latest tick popped
/// and never moves back.
#[derive(Debug)]
pub struct EventQueue {
    /// Per bucket, the slab slot at the front of its FIFO (`NIL` when
    /// empty) and the one at the back (meaningful when nonempty).
    heads: [u32; WINDOW as usize],
    tails: [u32; WINDOW as usize],
    /// Every bucket's events, each linked to the next of its tick. One
    /// arena for the ring, not a buffer per bucket: a short run that
    /// touches a thousand ticks would otherwise pay a thousand
    /// allocations for a few events each.
    slab: Vec<Slot>,
    /// Head of the free list through `Slot::next` (`NIL` when empty).
    free: u32,
    occupied: [u64; WORDS],
    /// Events in the buckets.
    near: usize,
    base: SimTime,
    far: BinaryHeap<Reverse<(SimTime, u64, EventOrd)>>,
    /// Insertion stamp of the next event to enter `far`.
    next_seq: u64,
}

/// Null slab link.
const NIL: u32 = u32::MAX;

/// One slab slot: a queued event (`None` while on the free list) and the
/// slot after it.
#[derive(Debug)]
struct Slot {
    kind: Option<EventKind>,
    next: u32,
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

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            heads: [NIL; WINDOW as usize],
            tails: [NIL; WINDOW as usize],
            slab: Vec::new(),
            free: NIL,
            occupied: [0; WORDS],
            near: 0,
            base: 0,
            far: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        if self.covers(at) {
            let slot = (at % WINDOW) as usize;
            let entry = Slot {
                kind: Some(kind),
                next: NIL,
            };
            let id = if self.free == NIL {
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            } else {
                let id = self.free;
                self.free = std::mem::replace(&mut self.slab[id as usize], entry).next;
                id
            };
            if self.heads[slot] == NIL {
                self.heads[slot] = id;
                self.occupied[slot / 64] |= 1 << (slot % 64);
            } else {
                self.slab[self.tails[slot] as usize].next = id;
            }
            self.tails[slot] = id;
            self.near += 1;
        } else {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.far.push(Reverse((at, seq, EventOrd(kind))));
        }
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let far = self.far.peek().map(|Reverse((t, ..))| *t);
        let (t, kind) = match self.next_near_tick() {
            Some(t) if far.is_none_or(|far| t < far) => {
                let slot = (t % WINDOW) as usize;
                let id = self.heads[slot];
                let entry = &mut self.slab[id as usize];
                let kind = entry.kind.take().expect("a linked slot is full");
                self.heads[slot] = std::mem::replace(&mut entry.next, self.free);
                self.free = id;
                if self.heads[slot] == NIL {
                    self.occupied[slot / 64] &= !(1 << (slot % 64));
                }
                self.near -= 1;
                (t, kind)
            }
            // On a tie the heap's: it was pushed before the window
            // reached the tick, the bucket's since.
            _ => {
                let Reverse((t, _, EventOrd(kind))) = self.far.pop()?;
                (t, kind)
            }
        };
        self.base = self.base.max(t);
        Some((t, kind))
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near + self.far.len()
    }

    /// True when tick `at` has a bucket: `base <= at < base + WINDOW`,
    /// written so that a base near `u64::MAX` cannot overflow.
    fn covers(&self, at: SimTime) -> bool {
        at >= self.base && at - self.base < WINDOW
    }

    /// The earliest tick with a nonempty bucket: the first set bit at or
    /// after `base`'s slot, the bitmap read as a ring.
    fn next_near_tick(&self) -> Option<SimTime> {
        if self.near == 0 {
            return None;
        }
        let start = (self.base % WINDOW) as usize;
        let (word, bit) = (start / 64, start % 64);
        // `start`'s word comes up twice: first for its bits from `start`
        // up, and a lap later for the ones below — the window's last ticks.
        for i in 0..=WORDS {
            let w = (word + i) % WORDS;
            let mut bits = self.occupied[w];
            if i == 0 {
                bits &= !0 << bit;
            } else if i == WORDS {
                bits &= !(!0 << bit);
            }
            if bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                let ahead = (slot + WINDOW as usize - start) % WINDOW as usize;
                return Some(self.base + ahead as u64);
            }
        }
        unreachable!("`near` counts the events the bitmap marks")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn a_payload_is_no_bigger_than_before_probes_carried_an_id() {
        // Every message event carries a `Payload`, under all seven
        // resolution arms; six of them never send a probe and must not pay
        // for the one that does. 56 bytes is what it was when a probe held
        // two vectors and no id.
        assert!(std::mem::size_of::<Payload>() <= 56);
        // And a slab slot is one event (a cache line, the empty slot's
        // `None` in its niche) plus a link.
        assert!(std::mem::size_of::<EventKind>() <= 64);
        assert!(std::mem::size_of::<Slot>() <= 72);
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

    /// The queue this one replaced, kept as the reference model: every
    /// event in one heap keyed by `(time, seq)`.
    #[derive(Default)]
    struct AllHeap {
        heap: BinaryHeap<Reverse<(SimTime, u64, EventOrd)>>,
        next_seq: u64,
    }

    impl AllHeap {
        fn push(&mut self, at: SimTime, kind: EventKind) {
            self.heap.push(Reverse((at, self.next_seq, EventOrd(kind))));
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, EventKind)> {
            self.heap.pop().map(|Reverse((t, _, e))| (t, e.0))
        }
    }

    /// The calendar and the reference model, fed the same script; every
    /// pop and every length is compared on the spot.
    #[derive(Default)]
    struct Pair {
        calendar: EventQueue,
        model: AllHeap,
        /// Events pushed so far; each carries its number, so two events
        /// at one tick are told apart.
        pushed: u32,
        /// Tick of the last pop.
        now: SimTime,
    }

    impl Pair {
        fn push(&mut self, at: SimTime) {
            let kind = EventKind::Restart(TxnId(self.pushed));
            self.pushed += 1;
            self.calendar.push(at, kind.clone());
            self.model.push(at, kind);
            self.same_len();
        }

        /// Pops both; returns the tick and the event's number.
        fn pop_event(&mut self) -> Option<(SimTime, u32)> {
            let got = self.calendar.pop();
            assert_eq!(got, self.model.pop());
            self.same_len();
            let (t, kind) = got?;
            self.now = t;
            match kind {
                EventKind::Restart(TxnId(n)) => Some((t, n)),
                other => unreachable!("the script pushes restarts only: {other:?}"),
            }
        }

        fn pop(&mut self) -> Option<SimTime> {
            self.pop_event().map(|(t, _)| t)
        }

        fn same_len(&self) {
            assert_eq!(self.calendar.len(), self.model.heap.len());
            assert_eq!(self.calendar.is_empty(), self.model.heap.is_empty());
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
        }
    }

    #[test]
    fn one_tick_fills_and_drains_in_insertion_order() {
        let mut p = Pair::default();
        p.push(7);
        assert_eq!(p.pop(), Some(7));
        // Pushes at the tick being popped, interleaved with its pops.
        for round in 0..50 {
            for _ in 0..=round % 7 {
                p.push(7);
            }
            for _ in 0..round % 3 {
                assert_eq!(p.pop(), Some(7));
            }
        }
        p.drain();
    }

    #[test]
    fn a_far_event_pops_before_a_later_direct_push_at_its_tick() {
        let mut p = Pair::default();
        let target = 3 * WINDOW + 17;
        p.push(target); // far: event 0
        p.push(target); // far: event 1
        assert_eq!(p.calendar.far.len(), 2);
        // Walk the window up to it.
        let mut t = 0;
        while t + WINDOW <= target {
            t += WINDOW / 2;
            p.push(t);
            assert_eq!(p.pop(), Some(t));
        }
        assert!(p.calendar.covers(target));
        p.push(target); // direct
        let direct = p.pushed - 1;
        let order: Vec<EventKind> = std::iter::from_fn(|| p.calendar.pop())
            .map(|(_, e)| e)
            .collect();
        let restart = |n| EventKind::Restart(TxnId(n));
        assert_eq!(order, [restart(0), restart(1), restart(direct)]);
    }

    #[test]
    fn the_ring_wraps() {
        let mut p = Pair::default();
        // Timer chains — an event's pop pushes its successor one stride on
        // — at strides from one tick to just past the window, so every
        // bucket is reused lap after lap and some successors go far.
        let strides = [1, 3, 37, 64, 500, WINDOW - 1, WINDOW, WINDOW + 1];
        let mut stride_of: Vec<u64> = Vec::new();
        for &stride in &strides {
            p.push(0);
            stride_of.push(stride);
        }
        while p.now < 4 * WINDOW {
            let (t, n) = p.pop_event().expect("the chains keep it nonempty");
            let stride = stride_of[n as usize];
            p.push(t + stride);
            stride_of.push(stride);
        }
        assert_eq!(p.calendar.len(), strides.len());
        p.drain();
        assert!(p.now / WINDOW >= 4, "more than three laps");
    }

    #[test]
    fn an_event_behind_the_window_pops_first() {
        let mut p = Pair::default();
        p.push(2000);
        assert_eq!(p.pop(), Some(2000));
        // Far events the window will come to cover, then events behind the
        // last pop — which sit at the top of the heap, in front of them.
        p.push(2000 + WINDOW + 5);
        p.push(2000 + WINDOW + 5);
        p.push(2000 + 2 * WINDOW);
        p.push(10);
        p.push(1999);
        p.push(10);
        // They come out first, whatever the window holds.
        p.push(2003);
        assert_eq!(p.pop(), Some(10));
        assert_eq!(p.pop(), Some(10));
        p.push(5); // behind again, mid-drain
        assert_eq!(p.pop(), Some(5));
        assert_eq!(p.pop(), Some(1999));
        assert_eq!(p.pop(), Some(2003));
        // One more behind, on top of the heap with the far events under
        // it, and the window moving on over them once it is gone.
        p.push(2003 + WINDOW - 1);
        p.push(0);
        assert_eq!(p.calendar.far.len(), 4);
        assert_eq!(p.pop(), Some(0));
        assert_eq!(p.pop(), Some(2003 + WINDOW - 1));
        p.push(2000 + WINDOW + 5); // direct, behind the two far ones
        p.drain();
    }

    #[test]
    fn ticks_at_the_top_of_the_range_do_not_overflow() {
        let mut p = Pair::default();
        // A crash whose `at + down_for` saturated, and its neighbours.
        p.push(u64::MAX);
        p.push(u64::MAX - 1);
        p.push(u64::MAX - WINDOW);
        p.push(u64::MAX - WINDOW - 1);
        p.push(3);
        assert_eq!(p.pop(), Some(3));
        assert_eq!(p.pop(), Some(u64::MAX - WINDOW - 1));
        p.push(u64::MAX); // direct now: the window ends at the last tick
        p.push(u64::MAX - 1);
        assert_eq!(p.pop(), Some(u64::MAX - WINDOW));
        assert_eq!(p.pop(), Some(u64::MAX - 1));
        p.push(u64::MAX);
        p.push(u64::MAX - 1); // behind
        p.drain();
        assert_eq!(p.now, u64::MAX);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One random script of pushes and pops through both queues. The
        /// delays are the engine's (a few ticks), the window's edge, far
        /// beyond it, and behind the clock; `pops` in ten draws are pops,
        /// so scripts both pile up and run dry; and some scripts start
        /// next to `u64::MAX`.
        #[test]
        fn the_calendar_pops_what_the_heap_popped(
            seed in any::<u64>(),
            len in 0usize..1500,
            pops in 2u32..8,
            high in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = Pair::default();
            if high {
                p.push(u64::MAX - 6 * WINDOW);
                p.pop();
            }
            for _ in 0..len {
                if rng.gen_range(0..10u32) < pops {
                    p.pop();
                    continue;
                }
                let at = match rng.gen_range(0..20u32) {
                    0..=9 => p.now.saturating_add(rng.gen_range(0..12u64)),
                    10..=13 => p.now.saturating_add(rng.gen_range(0..300u64)),
                    14..=15 => p.now.saturating_add(WINDOW - 2 + rng.gen_range(0..4u64)),
                    16..=17 => p.now.saturating_add(rng.gen_range(0..4 * WINDOW)),
                    18 => p.now.saturating_sub(rng.gen_range(1..2 * WINDOW)),
                    _ => p.now,
                };
                p.push(at);
            }
            p.drain();
        }
    }
}
