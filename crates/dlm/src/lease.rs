//! Lock leases: the crash-recovery contract between a lock service and
//! its clients.
//!
//! A sharded lock manager that can *crash* needs an answer to the
//! question "who still holds what when the shard comes back?". The
//! classic answer (Gray's leases, and every production DLM since) is to
//! stamp each grant with a **lease**: the holder owns the lock for `ttl`
//! ticks past its last renewal, renewals are implicit while the service
//! is healthy, and a crash freezes renewal — so after an outage a grant
//! has survived exactly when the outage was shorter than its ttl. Holders
//! whose leases expired during the outage must be treated as having lost
//! the lock (the recovering shard will not re-grant it to them), and it
//! is the *caller's* job to abort or fence them.
//!
//! This module is deliberately mechanism-only: a [`Lease`] is arithmetic
//! over ticks, and a [`LeaseTable`] is the per-shard mirror of
//! grants — inserted on grant, removed on release, queried at recovery.
//! Policy (what to do with an expired holder) stays with the caller,
//! exactly like [`crate::prevent`] keeps wound delivery with the caller.

use kplock_model::{EntityId, IdMap, LockMode};
use std::hash::Hash;

/// A lock lease: granted at a tick, valid for `ttl` ticks past the last
/// renewal. `ttl == 0` means *unbounded* — the lease never expires and
/// every outage is survivable (the right default for simulations that
/// model crashes but not lease economics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lease {
    /// Tick the lock was granted (diagnostics; survival depends on the
    /// renewal clock, not the grant tick).
    pub granted_at: u64,
    /// Validity window past the last renewal; `0` = never expires.
    pub ttl: u64,
}

impl Lease {
    /// A lease granted at `granted_at` with validity `ttl`.
    pub fn new(granted_at: u64, ttl: u64) -> Self {
        Lease { granted_at, ttl }
    }

    /// Did this lease survive an outage that started at `crash_at` and
    /// ended at `recovery_at`? Renewal is implicit while the service is
    /// up, so the last renewal is the crash tick itself (but never before
    /// the grant): the lease survives iff the outage it actually sat
    /// through is no longer than its ttl.
    pub fn survives_outage(&self, crash_at: u64, recovery_at: u64) -> bool {
        if self.ttl == 0 {
            return true;
        }
        let last_renewal = crash_at.max(self.granted_at);
        recovery_at.saturating_sub(last_renewal) <= self.ttl
    }
}

/// The per-shard lease ledger: one entry per live grant, keyed by
/// `(owner, entity)`. Mirrors the shard's holder set — insert on grant,
/// remove on release, drop an owner wholesale on abort — so at recovery
/// the surviving holder state can be read back out without consulting the
/// (lost) lock table.
#[derive(Clone, Debug)]
pub struct LeaseTable<O> {
    grants: IdMap<(O, EntityId), (LockMode, Lease)>,
}

impl<O> Default for LeaseTable<O> {
    fn default() -> Self {
        LeaseTable {
            grants: IdMap::default(),
        }
    }
}

impl<O: Copy + Eq + Ord + Hash> LeaseTable<O> {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the lease backing `o`'s grant on `e`. An upgrade overwrites
    /// the *mode* of an existing entry (shared → exclusive), and a changed
    /// ttl takes effect — but the renewal clock keys off the **original**
    /// grant tick: a duplicated or retransmitted grant message re-landing
    /// here must not slide `granted_at` forward, or every duplication
    /// silently extends the holder's outage survival (see
    /// [`Lease::survives_outage`], whose last-renewal floor is the grant
    /// tick).
    pub fn grant(&mut self, o: O, e: EntityId, mode: LockMode, lease: Lease) {
        self.grants
            .entry((o, e))
            .and_modify(|(m, l)| {
                *m = mode;
                l.ttl = lease.ttl;
            })
            .or_insert((mode, lease));
    }

    /// The lease backing `o`'s grant on `e`, if one is recorded.
    pub fn lease_of(&self, o: O, e: EntityId) -> Option<Lease> {
        self.grants.get(&(o, e)).map(|&(_, l)| l)
    }

    /// Removes the lease backing `o`'s grant on `e` (a release). Missing
    /// entries are fine — duplicated release messages are idempotent.
    pub fn release(&mut self, o: O, e: EntityId) {
        self.grants.remove(&(o, e));
    }

    /// Drops every lease `o` holds (an abort scrubbing a dead owner).
    pub fn drop_owner(&mut self, o: O) {
        self.grants.retain(|&(h, _), _| h != o);
    }

    /// The full ledger in deterministic `(entity, owner)` order — what a
    /// recovering shard replays to rebuild its holder set. Each entry is
    /// `(owner, entity, mode, lease)`; the caller partitions by
    /// [`Lease::survives_outage`].
    pub fn entries(&self) -> Vec<(O, EntityId, LockMode, Lease)> {
        let mut v: Vec<(O, EntityId, LockMode, Lease)> = self
            .grants
            .iter()
            .map(|(&(o, e), &(m, l))| (o, e, m, l))
            .collect();
        v.sort_by_key(|&(o, e, _, _)| (e, o));
        v
    }

    /// Number of live leases.
    pub fn len(&self) -> usize {
        self.grants.len()
    }

    /// True when no lease is live.
    pub fn is_empty(&self) -> bool {
        self.grants.is_empty()
    }

    /// Forgets everything (a fresh run).
    pub fn clear(&mut self) {
        self.grants.clear();
    }
}

/// One delegated grant in a [`DelegationLedger`]: the lease the owner
/// handed out with the cached grant, and whether a revocation is in
/// flight for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelegationEntry {
    /// The lease stamped on the delegated grant — the fence a crashed or
    /// unresponsive delegate is bounded by. Preserved across re-grants
    /// like [`LeaseTable::grant`] preserves its clock: a duplicated grant
    /// message must not extend the delegation.
    pub lease: Lease,
    /// A revocation has been sent and its acknowledgement is pending; the
    /// entry drains when the ack lands (or the delegate aborts).
    pub revoking: bool,
}

/// The owning site's half of delegated lock ownership: which grants have
/// been handed to a remote cache under a [`Lease`], keyed by
/// `(delegate, entity)` like the [`LeaseTable`] it complements.
///
/// A delegated grant stays *held* in the owner's lock table (the hold is
/// the cache's collateral); this ledger records that the release
/// authority moved to the delegate, so a later conflicting request knows
/// to send a revocation — and a crash knows which holds are cache
/// residue nobody will ever release (see the engine's crash path). Like
/// [`LeaseTable`], this is mechanism only: *when* to delegate, revoke or
/// drain is the caller's policy.
#[derive(Clone, Debug)]
pub struct DelegationLedger<O> {
    entries: IdMap<(O, EntityId), DelegationEntry>,
}

impl<O> Default for DelegationLedger<O> {
    fn default() -> Self {
        DelegationLedger {
            entries: IdMap::default(),
        }
    }
}

impl<O: Copy + Eq + Ord + Hash> DelegationLedger<O> {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `o`'s grant on `e` is delegated under `lease`, and
    /// returns the lease actually in force. A fresh delegation stores
    /// `lease` as given; a re-delegation (a duplicated or retransmitted
    /// grant re-landing) keeps the **original** `granted_at` — the
    /// returned lease is what the grant message should carry, so every
    /// delivery of the same delegation advertises the same clock — and
    /// clears no revocation state (a revoke in flight stays in flight).
    pub fn delegate(&mut self, o: O, e: EntityId, lease: Lease) -> Lease {
        let entry = self
            .entries
            .entry((o, e))
            .and_modify(|d| d.lease.ttl = lease.ttl)
            .or_insert(DelegationEntry {
                lease,
                revoking: false,
            });
        entry.lease
    }

    /// True when `o`'s grant on `e` is delegated (revoking or not).
    pub fn is_delegated(&self, o: O, e: EntityId) -> bool {
        self.entries.contains_key(&(o, e))
    }

    /// True when a revocation for `o`'s delegation on `e` is in flight.
    pub fn is_revoking(&self, o: O, e: EntityId) -> bool {
        self.entries.get(&(o, e)).is_some_and(|d| d.revoking)
    }

    /// Marks `o`'s delegation on `e` as revoking. Returns `true` when
    /// this call newly started the revocation — the caller should send
    /// the revoke message exactly when it gets `true` (re-sends under
    /// loss are the caller's retransmission policy, keyed off
    /// [`DelegationLedger::is_revoking`]). `false` for an absent entry.
    pub fn start_revoke(&mut self, o: O, e: EntityId) -> bool {
        match self.entries.get_mut(&(o, e)) {
            Some(d) if !d.revoking => {
                d.revoking = true;
                true
            }
            _ => false,
        }
    }

    /// Removes `o`'s delegation on `e` (the drain: a revoke ack landed,
    /// the delegate aborted, or the owner re-granted without delegating).
    /// Returns whether an entry existed — duplicated acks are no-ops.
    pub fn remove(&mut self, o: O, e: EntityId) -> bool {
        self.entries.remove(&(o, e)).is_some()
    }

    /// Drops every delegation held by `o` (the delegate aborted, or a
    /// crash scrubbed it).
    pub fn drop_owner(&mut self, o: O) {
        self.entries.retain(|&(h, _), _| h != o);
    }

    /// The full ledger in deterministic `(entity, owner)` order, each
    /// entry `(owner, entity, lease, revoking)` — what a crash walks to
    /// clear both sides.
    pub fn entries(&self) -> Vec<(O, EntityId, Lease, bool)> {
        let mut v: Vec<(O, EntityId, Lease, bool)> = self
            .entries
            .iter()
            .map(|(&(o, e), &d)| (o, e, d.lease, d.revoking))
            .collect();
        v.sort_by_key(|&(o, e, _, _)| (e, o));
        v
    }

    /// Number of live delegations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is delegated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forgets everything (a crash wiping the owner's soft state).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: LockMode = LockMode::Exclusive;
    const S: LockMode = LockMode::Shared;

    #[test]
    fn unbounded_leases_survive_any_outage() {
        let l = Lease::new(5, 0);
        assert!(l.survives_outage(10, u64::MAX));
    }

    #[test]
    fn survival_is_outage_length_vs_ttl() {
        let l = Lease::new(5, 100);
        // Outage of exactly ttl ticks: survives.
        assert!(l.survives_outage(50, 150));
        // One tick longer: expired.
        assert!(!l.survives_outage(50, 151));
        // Renewal never predates the grant: a lock granted just before
        // the crash is charged only the time it actually sat through.
        let late = Lease::new(49, 100);
        assert!(late.survives_outage(40, 149));
        assert!(!late.survives_outage(40, 150));
    }

    #[test]
    fn ledger_mirrors_grant_release_abort() {
        let mut t: LeaseTable<u32> = LeaseTable::new();
        let (a, b) = (EntityId(0), EntityId(1));
        t.grant(1, a, X, Lease::new(0, 10));
        t.grant(1, b, S, Lease::new(2, 10));
        t.grant(2, b, S, Lease::new(3, 10));
        assert_eq!(t.len(), 3);
        // Deterministic (entity, owner) order.
        let owners: Vec<(u32, EntityId)> = t.entries().iter().map(|&(o, e, _, _)| (o, e)).collect();
        assert_eq!(owners, vec![(1, a), (1, b), (2, b)]);
        // Release is per (owner, entity); duplicates are no-ops.
        t.release(1, b);
        t.release(1, b);
        assert_eq!(t.len(), 2);
        // An upgrade re-modes in place but keeps the original grant tick:
        // the renewal clock never slides forward on a re-grant.
        t.grant(2, b, X, Lease::new(9, 10));
        assert_eq!(t.entries()[1], (2, b, X, Lease::new(3, 10)));
        assert_eq!(t.lease_of(2, b), Some(Lease::new(3, 10)));
        // Abort scrubs the owner everywhere.
        t.drop_owner(1);
        assert_eq!(t.entries(), vec![(2, b, X, Lease::new(3, 10))]);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.lease_of(2, b), None);
    }

    #[test]
    fn duplicated_grants_do_not_extend_the_lease() {
        // The outage-survival bug this guards: a grant at tick 0 with
        // ttl 100 is duplicated on the wire and the copy re-lands at
        // tick 90, *after* an outage began at 85. If the re-grant
        // re-stamped `granted_at`, the renewal floor would move to 90
        // and an outage of 85..190 (survival charged from the floor:
        // 100 ticks against a 100-tick ttl) would be survived — the
        // duplicate manufactured 5 ticks of validity out of thin air.
        // The renewal clock must key off the original grant.
        let mut t: LeaseTable<u32> = LeaseTable::new();
        let a = EntityId(0);
        t.grant(1, a, X, Lease::new(0, 100));
        t.grant(1, a, X, Lease::new(90, 100)); // the duplicate re-lands
        let lease = t.lease_of(1, a).unwrap();
        assert_eq!(lease, Lease::new(0, 100));
        assert!(
            Lease::new(90, 100).survives_outage(85, 190),
            "the slid clock would survive"
        );
        assert!(!lease.survives_outage(85, 190), "no manufactured renewal");
        // A release followed by a *fresh* grant is a new lease, though:
        // renewal by explicit re-acquire is the legitimate path.
        t.release(1, a);
        t.grant(1, a, X, Lease::new(90, 100));
        assert_eq!(t.lease_of(1, a), Some(Lease::new(90, 100)));
        assert!(t.lease_of(1, a).unwrap().survives_outage(85, 190));
    }

    #[test]
    fn delegation_ledger_lifecycle() {
        let mut d: DelegationLedger<u32> = DelegationLedger::new();
        let (a, b) = (EntityId(0), EntityId(1));
        assert!(d.is_empty());
        // Delegate: fresh entries store the given lease.
        assert_eq!(d.delegate(1, a, Lease::new(5, 50)), Lease::new(5, 50));
        assert_eq!(d.delegate(2, b, Lease::new(7, 50)), Lease::new(7, 50));
        assert!(d.is_delegated(1, a) && !d.is_revoking(1, a));
        assert!(!d.is_delegated(1, b));
        assert_eq!(d.len(), 2);
        // A re-delegation (duplicated grant) keeps the original clock and
        // hands it back for the wire.
        assert_eq!(d.delegate(1, a, Lease::new(40, 50)), Lease::new(5, 50));
        // Revocation: started exactly once; re-starts report false so the
        // caller knows the first send already happened.
        assert!(d.start_revoke(1, a));
        assert!(!d.start_revoke(1, a), "already revoking");
        assert!(d.is_revoking(1, a));
        assert!(!d.start_revoke(9, a), "absent entries cannot revoke");
        // A re-delegation mid-revoke does not cancel the revoke.
        d.delegate(1, a, Lease::new(45, 50));
        assert!(d.is_revoking(1, a));
        // Drain: removal is idempotent.
        assert!(d.remove(1, a));
        assert!(!d.remove(1, a));
        assert!(!d.is_delegated(1, a));
        // Deterministic (entity, owner) order.
        d.delegate(3, a, Lease::new(9, 0));
        assert_eq!(
            d.entries(),
            vec![
                (3, a, Lease::new(9, 0), false),
                (2, b, Lease::new(7, 50), false)
            ]
        );
        d.drop_owner(2);
        assert_eq!(d.len(), 1);
        d.clear();
        assert!(d.is_empty());
    }
}
