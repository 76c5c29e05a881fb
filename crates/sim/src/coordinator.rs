//! A transaction's coordinator and its handlers: step issue, the
//! acknowledgements, commit and restart, and the delegated-grant cache.
//! A handler takes `&mut self` and the engine's [`World`] and never sees
//! a site; what it cannot finish alone — a commit or an abort, whose
//! effects reach every site — it returns to the driver as a [`Fate`].

use crate::config::admission_priority;
use crate::engine::World;
use crate::event::{EventKind, Instance, Payload, SimTime};
use crate::probe::Stamp;
use crate::progress::Progress;
use crate::SimConfig;
use kplock_dlm::Priority;
use kplock_model::{
    ActionKind, EntityId, IdMap, IdSet, SiteId, Step, StepId, Transaction, TxnId, TxnSystem,
};
use rand::Rng;

/// Ticks a coordinator spends serving an unlock step from its delegated
/// cache.
const LOCAL_STEP_TIME: u64 = 1;

/// Backoff before an aborted instance restarts, and the range of the
/// jitter drawn on top of it.
const RESTART_BACKOFF: u64 = 25;

/// One transaction's coordinator: its progress through the current
/// epoch, its victim-policy stamps, and — all it knows beyond its own
/// steps — the static catalog of sites it locks at and its half of
/// delegated ownership.
pub(crate) struct Coordinator {
    txn: TxnId,
    epoch: u32,
    progress: Progress,
    pub(crate) committed: bool,
    /// Last (re)start time (metrics/diagnostics).
    started_at: SimTime,
    /// Original start time; survives restarts. Victim selection uses this
    /// timestamp, following Rosenkrantz, Stearns & Lewis: an aborted
    /// transaction keeps its age, or the oldest-victim policy livelocks by
    /// repeatedly killing whichever transaction is about to finish.
    birth: (SimTime, usize),
    /// Static catalog knowledge ([`crate::DeadlockDetection::Probe`]
    /// only; empty otherwise): the sites hosting any entity the
    /// transaction locks — where a probe chasing it might find it blocked.
    pub(crate) lock_sites: Vec<SiteId>,
    /// The delegated-grant cache (delegation only): the coordinator half
    /// of decoupled ownership, one entry per entity whose delegated grant
    /// the current instance holds. An abort drops it whole, so every
    /// entry belongs to the current instance.
    cache: IdMap<EntityId, CacheEntry>,
    /// Revocations that overtook their delegated grant ack on the wire
    /// (the revoke can draw a shorter latency than the earlier-sent
    /// grant), by entity: applied when the ack lands, so the entry is born
    /// `revoke_pending` and drains at the local unlock. Dropped at an
    /// abort with the cache.
    deferred_revokes: IdSet<EntityId>,
}

/// One entry in a coordinator's delegated-grant cache
/// ([`crate::Delegation::On`] only): a delegated grant on one entity,
/// whose unlock is served locally. The site-side hold stays in the
/// owner's table until revoked (the cache's collateral); this entry is
/// the *release authority*.
#[derive(Clone, Copy, Debug)]
struct CacheEntry {
    /// The lock section is open: its unlock not yet served. An in-use
    /// entry defers its revocation drain to the unlock.
    in_use: bool,
    /// A revocation arrived mid-use; the drain (entry removal +
    /// [`Payload::RevokeAck`]) rides the upcoming local unlock.
    revoke_pending: bool,
}

/// What a coordinator's handler leaves to the driver.
#[must_use]
pub(crate) enum Fate {
    /// Nothing.
    Running,
    /// The transaction just committed.
    Committed,
    /// The live instance must abort.
    Aborts,
}

impl Coordinator {
    /// `txn`'s coordinator, arriving at `arrival`; `probing` fills in the
    /// catalog of sites it locks at.
    pub(crate) fn new(sys: &TxnSystem, txn: TxnId, arrival: SimTime, probing: bool) -> Self {
        let mut lock_sites: Vec<SiteId> = Vec::new();
        if probing {
            let locked = sys.txn(txn).locked_entities();
            lock_sites.extend(locked.iter().map(|&e| sys.db().site_of(e)));
            lock_sites.sort_by_key(|s| s.idx());
            lock_sites.dedup();
        }
        Coordinator {
            txn,
            epoch: 0,
            progress: Progress::new(sys.txn(txn)),
            committed: false,
            started_at: arrival,
            birth: (arrival, txn.idx()),
            lock_sites,
            cache: IdMap::default(),
            deferred_revokes: IdSet::default(),
        }
    }

    /// The live instance.
    pub(crate) fn current(&self) -> Instance {
        Instance {
            txn: self.txn,
            epoch: self.epoch,
        }
    }

    /// True when `inst` belongs to an aborted epoch. Every message handler
    /// checks this first — messages from dead epochs (a release still in
    /// flight when its sender was chosen as a deadlock victim, a probe
    /// chasing an aborted instance) would corrupt state the abort already
    /// cleaned up (see the `stale_unlock_after_abort_is_ignored` test).
    pub(crate) fn stale(&self, inst: Instance) -> bool {
        self.epoch != inst.epoch
    }

    /// True when `inst` can no longer be deadlocked: it was aborted, or
    /// its transaction committed (which does not bump the epoch).
    pub(crate) fn moved_on(&self, inst: Instance) -> bool {
        self.stale(inst) || self.committed
    }

    /// True when `inst` is live and still awaits `step`'s acknowledgement.
    /// A request for which this is false is dropped whole: stale, or a
    /// duplicate of one whose ack was already consumed — modelling
    /// per-request sequence numbers, without which a late duplicate
    /// `LockRequest` would ghost-grant a lock nobody will ever release.
    pub(crate) fn awaits(&self, inst: Instance, step: StepId) -> bool {
        !self.stale(inst) && !self.progress.is_done(step.idx())
    }

    /// The victim-policy timestamps of the live instance, as piggybacked
    /// on probes.
    pub(crate) fn stamp(&self) -> Stamp {
        Stamp {
            started_at: self.started_at,
            birth: self.birth,
        }
    }

    /// The admission priority ([`admission_priority`] of the birth stamp,
    /// which survives restarts, so it holds for every instance).
    pub(crate) fn priority(&self, cfg: &SimConfig) -> Priority {
        let (t, idx) = self.birth;
        admission_priority(cfg.avoid_plan(), self.txn, (t, idx as u64))
    }

    /// The current epoch begins (an arrival, or the restart after an
    /// abort): issue its first steps and arm the retransmission timer for
    /// this epoch — the previous epoch's timer dies on its mismatch. A
    /// transaction with no steps commits here (the `committed` test keeps
    /// a restart that outlived its transaction's commit — two aborts
    /// before the first restart fired — from committing it twice).
    pub(crate) fn start(&mut self, world: &mut World) -> Fate {
        self.started_at = world.now;
        if self.progress.finished() && !self.committed {
            return self.commit(world);
        }
        let mut ready = std::mem::take(&mut world.ready);
        self.progress.start(&mut ready);
        self.send_steps(world, ready);
        let after = world.cfg.faults.retransmit_after;
        if after > 0 {
            let check = EventKind::RetransmitCheck(self.txn, self.epoch);
            world.queue.push(world.now + after, check);
        }
        Fate::Running
    }

    /// Commits the live instance. Under [`SimConfig::invariant_audit`] a
    /// commit that confirms an illegal history panics here, at the event
    /// that made it a committed one.
    fn commit(&mut self, world: &mut World) -> Fate {
        let fault = world.history.commit(self.current());
        if let Some(fault) = fault.filter(|_| world.cfg.invariant_audit) {
            panic!(
                "tick {}: the commit of {} confirms {fault}",
                world.now, self.txn
            );
        }
        self.committed = true;
        world.metrics.committed += 1;
        world.metrics.makespan = world.now;
        Fate::Committed
    }

    /// Sends the steps [`Progress`] just made ready, in the order given,
    /// and hands the emptied buffer back to the world.
    fn send_steps(&mut self, world: &mut World, mut ready: Vec<usize>) {
        for v in ready.drain(..) {
            self.send_step(world, v);
        }
        world.ready = ready;
    }

    /// Sends (or re-sends) the request for step `v` of the current epoch.
    fn send_step(&mut self, world: &mut World, v: usize) {
        let inst = self.current();
        let step = StepId::from_idx(v);
        let Step { kind, entity, .. } = world.sys.txn(self.txn).step(step);
        // The delegated fast path: a cached grant serves the unlock
        // locally — zero wire messages, no site table consulted. A lock
        // step never finds an entry: its own grant creates it.
        if world.delegation
            && kind == ActionKind::Unlock
            && self.unlock_from_cache(world, inst, entity, step)
        {
            return;
        }
        let payload = match kind {
            ActionKind::Lock => Payload::LockRequest { inst, entity, step },
            ActionKind::Update => Payload::UpdateRequest { inst, entity, step },
            ActionKind::Unlock => Payload::UnlockRequest { inst, entity, step },
        };
        world.transmit(EventKind::ToSite(world.sys.db().site_of(entity), payload));
    }

    /// Serves the unlock `step` of `entity` from the cache, if it holds an
    /// entry over the entity: the step is recorded and its ack
    /// self-delivered after [`LOCAL_STEP_TIME`]. The entry is left idle
    /// or, with a revocation pending, drained: removal plus a
    /// [`Payload::RevokeAck`] that releases the hold. A duplicate of a
    /// served unlock just re-acknowledges.
    fn unlock_from_cache(
        &mut self,
        world: &mut World,
        inst: Instance,
        entity: EntityId,
        step: StepId,
    ) -> bool {
        let Some(entry) = self.cache.get_mut(&entity) else {
            return false;
        };
        if !std::mem::take(&mut entry.in_use) {
            // A duplicate: nothing saved twice.
        } else if entry.revoke_pending {
            self.cache.remove(&entity);
            // Only the drain ack crosses the wire (and it doubles as the
            // release).
            world.metrics.messages_saved += 1;
            let drained = Payload::RevokeAck { inst, entity };
            world.transmit(EventKind::ToSite(world.sys.db().site_of(entity), drained));
        } else {
            world.metrics.messages_saved += 2;
        }
        world.record_step(inst, step);
        world.metrics.cache_hits += 1;
        let at = world.now + LOCAL_STEP_TIME;
        let done = Payload::UnlockDone { inst, step };
        world
            .queue
            .push(at, EventKind::ToCoordinator(self.txn, done));
        true
    }

    /// A message reached this coordinator ([`Payload::Abort`] is the
    /// driver's: its validation reads the cycle's other members). Inlined
    /// into its one caller, the event loop.
    #[inline]
    pub(crate) fn on_message(&mut self, world: &mut World, payload: &Payload) -> Fate {
        let (inst, step, granted_entity) = match *payload {
            // A wound for an instance that already moved on is dropped: an
            // earlier wound bumped its epoch, or it *committed* while the
            // order was in flight. Either way the wait the wound protected
            // has dissolved, and aborting would re-run a finished
            // transaction.
            Payload::Wound { victim } => return prevention_restart(world, !self.moved_on(victim)),
            Payload::LockRejected { inst, .. } => {
                return prevention_restart(world, !self.stale(inst))
            }
            Payload::Revoke { inst, entity } => {
                self.on_revoke(world, inst, entity);
                return Fate::Running;
            }
            Payload::LockGranted {
                inst,
                step,
                entity,
                delegated,
            } => (inst, step, Some((entity, delegated.is_some()))),
            Payload::UpdateDone { inst, step } | Payload::UnlockDone { inst, step } => {
                (inst, step, None)
            }
            _ => unreachable!("site payload at coordinator"),
        };
        if !self.awaits(inst, step) {
            // Stale, or a duplicated ack whose first copy's effects are in
            // (a duplicated *final* ack must not commit twice). Checked
            // before the cache upkeep: a duplicated delegated grant must
            // not resurrect an entry a revocation drained.
            return Fate::Running;
        }
        if let (true, Some((entity, delegated))) = (world.delegation, granted_entity) {
            self.note_cached_grant(entity, delegated);
        }
        let mut ready = std::mem::take(&mut world.ready);
        let t = world.sys.txn(self.txn);
        self.progress.ack(t, step.idx(), &mut ready);
        if self.progress.finished() {
            world.ready = ready; // empty: the last step has no successor
            return self.commit(world);
        }
        self.send_steps(world, ready);
        Fate::Running
    }

    /// Maintains the cache from a fresh acknowledgement of the lock on
    /// `e`: a delegated grant is cached, in use, and a revocation that
    /// overtook the ack is applied to it; after a plain grant the entity's
    /// lifecycle is remote, and a deferred revocation's premise is void.
    /// (A delegated grant from a boot its site has since left behind
    /// arrives plain: the driver fences it.)
    fn note_cached_grant(&mut self, e: EntityId, delegated: bool) {
        let revoke_pending = self.deferred_revokes.remove(&e);
        if delegated {
            let entry = CacheEntry {
                in_use: true,
                revoke_pending,
            };
            self.cache.insert(e, entry);
        }
    }

    /// True when the current epoch has an issued, unacknowledged lock
    /// step on `e` — a grant ack may be in flight.
    fn lock_in_flight(&self, t: &Transaction, e: EntityId) -> bool {
        t.lock_step(e)
            .is_some_and(|s| self.progress.in_flight(s.idx()))
    }

    /// True when the current epoch holds `e` through the *remote*
    /// protocol: its lock acknowledged, its unlock not yet.
    fn holds_remotely(&self, t: &Transaction, e: EntityId) -> bool {
        let acked = |s: Option<StepId>| s.is_some_and(|s| self.progress.is_done(s.idx()));
        acked(t.lock_step(e)) && !acked(t.unlock_step(e))
    }

    /// A revocation reached the delegate's coordinator. An old epoch's is
    /// dropped: its cache died with the abort, and every site dropped the
    /// epoch's delegations in the same tick, so none awaits an ack. There
    /// is no commit guard: an idle entry a commit left behind is residue
    /// that must still drain. The subtle arm is a revoke that **overtook
    /// its own grant ack** on the wire — answered by deferring, not acking,
    /// or the site would release a hold the late-arriving ack then caches.
    fn on_revoke(&mut self, world: &mut World, inst: Instance, entity: EntityId) {
        if self.stale(inst) {
            return;
        }
        let site = world.sys.db().site_of(entity);
        let ack = EventKind::ToSite(site, Payload::RevokeAck { inst, entity });
        let t = world.sys.txn(self.txn);
        if let Some(entry) = self.cache.get_mut(&entity) {
            if entry.in_use {
                // Mid-use: the drain rides the upcoming local unlock.
                entry.revoke_pending = true;
            } else {
                self.cache.remove(&entity);
                world.transmit(ack);
            }
        } else if self.lock_in_flight(t, entity) {
            // The revoke overtook the grant ack: the ack applies it.
            self.deferred_revokes.insert(entity);
        } else if !self.holds_remotely(t, entity) {
            // Nothing cached, in flight or held: a duplicated revoke whose
            // drain already completed. (Held remotely — a plain re-grant
            // superseded the delegation — the remote unlock releases it,
            // and an ack here would free a lock still in use.)
            world.transmit(ack);
        }
    }

    /// Re-sends every issued-but-unacknowledged request of the current
    /// epoch, or only those addressed to site `at`: the retransmission
    /// timer's re-send, and a recovered site's re-delivery — what a real
    /// client does when its server comes back, compressed into the
    /// recovery tick. Sites handle the duplicates idempotently.
    pub(crate) fn resend(&mut self, world: &mut World, at: Option<SiteId>) {
        let (t, db) = (world.sys.txn(self.txn), world.sys.db());
        let to = |v: usize| db.site_of(t.step(StepId::from_idx(v)).entity);
        let pending = self.progress.pending();
        let pending: Vec<usize> = pending.filter(|&v| at.is_none_or(|s| to(v) == s)).collect();
        for v in pending {
            self.send_step(world, v);
        }
    }

    /// The retransmission timer fired: if the tagged epoch is still
    /// current and uncommitted, re-send and re-arm; a stale epoch's timer
    /// dies here.
    pub(crate) fn on_retransmit(&mut self, world: &mut World, epoch: u32) {
        if self.epoch != epoch || self.committed {
            return;
        }
        self.resend(world, None);
        let at = world.now + world.cfg.faults.retransmit_after;
        world
            .queue
            .push(at, EventKind::RetransmitCheck(self.txn, epoch));
    }

    /// The coordinator's half of an abort, before the sites release the
    /// instance: counts it, tells the history, drops the whole cache and
    /// every deferred revocation (each site drops the instance's
    /// delegations in the same tick), and returns it.
    pub(crate) fn abort(&mut self, world: &mut World) -> Instance {
        // Every resolution path guards this (epoch checks, member
        // validation, commit checks); a violation is an engine bug.
        assert!(
            !self.committed,
            "aborting committed transaction {:?} at tick {}",
            self.txn, world.now
        );
        world.metrics.aborts += 1;
        world.history.abort(self.current());
        self.cache.clear();
        self.deferred_revokes.clear();
        self.current()
    }

    /// The coordinator's half of an abort, after the sites released the
    /// instance: a fresh epoch, restarted after a jittered backoff (seeded;
    /// without jitter, symmetric workloads can re-collide forever).
    pub(crate) fn back_off(&mut self, world: &mut World) {
        self.epoch += 1;
        self.progress.reset(world.sys.txn(self.txn));
        let at = world.now + RESTART_BACKOFF + world.rng.gen_range(0..=RESTART_BACKOFF);
        world.queue.push(at, EventKind::Restart(self.txn));
    }

    /// True when the cache holds an entry over `e`.
    #[cfg(test)]
    pub(crate) fn caches(&self, e: EntityId) -> bool {
        self.cache.contains_key(&e)
    }

    /// The site that delegated `e` to `inst` crashed and lost its ledger:
    /// the cache entry dies. Returns whether `inst`'s lock section may
    /// still be *open* — granted (and recorded) there, its unlock not yet
    /// recorded — so the site keeps the lease and recovery rebuilds the
    /// hold or aborts the expired owner. It is open when the entry is
    /// mid-use, when the grant ack (or a deferred revocation) is still in
    /// flight — a *lost* ack still granted there — or when a plain
    /// re-grant moved the hold's lifecycle remote; closed for idle residue
    /// and completed drains, whose unlock is already on record.
    pub(crate) fn on_delegating_site_crash(
        &mut self,
        t: &Transaction,
        inst: Instance,
        e: EntityId,
    ) -> bool {
        // A site's ledger, like the cache, holds no aborted instance: an
        // entry over `e` is `inst`'s.
        if let Some(entry) = self.cache.remove(&e) {
            return entry.in_use;
        }
        !self.moved_on(inst)
            && (self.lock_in_flight(t, e)
                || self.holds_remotely(t, e)
                || self.deferred_revokes.contains(&e))
    }

    /// Forgets every cache entry and deferred revocation over `site`'s
    /// entities: a crash must leave no cache claiming a wiped table.
    pub(crate) fn forget_site(&mut self, sys: &TxnSystem, site: SiteId) {
        self.cache.retain(|&e, _| sys.db().site_of(e) != site);
        self.deferred_revokes
            .retain(|&e| sys.db().site_of(e) != site);
    }
}

/// A wound or a rejection reached a coordinator: the instance restarts if
/// `live`.
fn prevention_restart(world: &mut World, live: bool) -> Fate {
    if !live {
        return Fate::Running;
    }
    world.metrics.prevention_restarts += 1;
    Fate::Aborts
}
