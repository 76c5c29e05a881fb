//! One site and its handlers: admission, grants and releases, probes,
//! leases and delegation, crash and recovery. A handler takes `&mut
//! self`, the engine's [`World`] and the coordinators, which it may read
//! but never write (ARCHITECTURE §2.3 lists what it reads); everything a
//! site tells a coordinator goes on the wire.

use crate::coordinator::Coordinator;
use crate::engine::World;
use crate::event::{DelegatedGrant, EventKind, Instance, Payload, SimTime};
use crate::probe::{self, ChaseId, Mark, ProbeMsg, SiteProbeState};
use crate::DeadlockDetection;
use kplock_dlm::{
    Acquire, DelegationLedger, Lease, LeaseTable, LockError, PreventionOutcome, PreventionScheme,
    QueueTable,
};
use kplock_model::{EntityId, SiteId, StepId, TxnId};

/// Everything one site owns: the local state the paper's question is
/// about.
pub(crate) struct Site {
    pub(crate) id: SiteId,
    /// The lock table. Volatile: a crash replaces it with an empty one.
    pub(crate) table: QueueTable<Instance>,
    /// When each queued request began to wait, inserted when the table
    /// queues it and removed at its grant or its instance's abort. Not
    /// wiped by a crash: a waiter that re-requests after recovery keeps
    /// its wait clock. (The step the grant acknowledges is the
    /// transaction's one lock step on the entity.)
    pub(crate) queued: Queued,
    /// Probe bookkeeping ([`DeadlockDetection::Probe`] only): the
    /// wait-edges of this site's own entities, to spot new ones.
    probe: SiteProbeState,
    /// Answer buffers for [`Site::waits_here`], one per probe examination
    /// in progress: an examination routes, and a route to this site
    /// examines again before the first is done.
    waits: Vec<Vec<Instance>>,
    /// Mid-outage: deliveries are dropped by the event loop.
    pub(crate) down: bool,
    /// Tick of the last crash (lease-survival anchor).
    crash_at: SimTime,
    /// Boot epoch, bumped at every crash. Delegated grants carry the
    /// grant-time boot ([`DelegatedGrant::boot`]); one from an older boot
    /// reaches its coordinator as a plain grant, since the crash cleared
    /// the ledger (see [`Site::crash`]).
    pub(crate) boot: u32,
    /// Lease ledger mirroring grants — the surviving holder state a
    /// recovery rebuilds from. Maintained only when the plan schedules
    /// crashes ([`World::track_leases`]).
    leases: LeaseTable<Instance>,
    /// Delegation ledger (delegation only): which holds have their
    /// release authority delegated — what a conflicting request consults
    /// to send revocations, and what a crash walks to clear both sides.
    delegations: DelegationLedger<Instance>,
}

impl Site {
    /// Site `id`, up, with empty tables.
    pub(crate) fn new(id: SiteId) -> Self {
        Site {
            id,
            table: QueueTable::new(),
            queued: Queued::default(),
            probe: SiteProbeState::default(),
            waits: Vec::new(),
            down: false,
            crash_at: 0,
            boot: 0,
            leases: LeaseTable::default(),
            delegations: DelegationLedger::default(),
        }
    }

    /// A message reached this (up) site. Inlined into its one caller, the
    /// event loop, which runs it once per event.
    #[inline]
    pub(crate) fn on_message(
        &mut self,
        world: &mut World,
        coords: &[Coordinator],
        payload: &Payload,
    ) {
        match *payload {
            Payload::LockRequest { inst, entity, step } => {
                if !coords[inst.txn.idx()].awaits(inst, step) {
                    return;
                }
                // The work a lock manager performs, and what hierarchical
                // locking exists to shrink.
                world.metrics.lock_requests += 1;
                let Some(outcome) = self.admit(world, coords, inst, entity, step) else {
                    self.on_retransmitted_while_queued(world, coords, inst, entity);
                    return;
                };
                match outcome {
                    PreventionOutcome::Granted => {
                        if world.track_leases {
                            // A waiter whose queue a crash wiped, granted
                            // at once on its re-request.
                            self.queued.remove(inst, entity);
                        }
                        self.grant(world, inst, entity, step)
                    }
                    PreventionOutcome::Rejected => {
                        // Wait-die / no-wait: the requester was not queued;
                        // its coordinator restarts it (birth stamp kept).
                        let rejected = Payload::LockRejected { inst, entity, step };
                        world.transmit(EventKind::ToCoordinator(inst.txn, rejected));
                        // Demanding now drains a delegated obstacle before
                        // the retry, which would otherwise spin forever.
                        self.demand(world, inst, entity);
                    }
                    waits @ (PreventionOutcome::Queued | PreventionOutcome::Wounded(_)) => {
                        self.queued.insert(inst, entity, world.now);
                        self.edges_changed(world, coords, entity);
                        if let PreventionOutcome::Wounded(victims) = waits {
                            // The elder queues; the younger owners' aborts
                            // will release the entity and grant it.
                            wound(world, victims);
                        }
                        // A delegated obstacle (older ones are not wounded)
                        // must drain before this wait can end.
                        self.demand(world, inst, entity);
                    }
                }
            }
            Payload::UpdateRequest { inst, step, .. } => {
                if coords[inst.txn.idx()].awaits(inst, step) {
                    world.record_step(inst, step);
                    let done = Payload::UpdateDone { inst, step };
                    world.transmit(EventKind::ToCoordinator(inst.txn, done));
                }
            }
            Payload::UnlockRequest { inst, entity, step } => {
                // A stale release's locks went with its abort, and someone
                // else may hold `entity` by now.
                if coords[inst.txn.idx()].awaits(inst, step) {
                    world.record_step(inst, step);
                    self.release_hold(world, coords, inst, entity, Some(step));
                }
            }
            Payload::RevokeAck { inst, entity } => {
                // Only an *awaited* drain releases: a duplicated or
                // outdated ack must not free a hold a cache still claims.
                if self.delegations.is_revoking(inst, entity) {
                    self.release_hold(world, coords, inst, entity, None);
                }
            }
            Payload::Probe(ref msg) => self.on_probe(world, coords, msg),
            _ => unreachable!("coordinator payload at site"),
        }
    }

    /// Submits a lock request to the table — the one place a request is
    /// admitted. Under an admission scheme (prevention, or the avoidance
    /// arm's wound-wait fallback) the table decides wait / wound / die from
    /// the owners' admission priorities; under detection a conflict
    /// queues. `None` when the table refuses a retransmission whose
    /// original still waits ([`LockError::AlreadyQueued`]).
    fn admit(
        &mut self,
        world: &mut World,
        coords: &[Coordinator],
        inst: Instance,
        entity: EntityId,
        step: StepId,
    ) -> Option<PreventionOutcome<Instance>> {
        let mode = world.sys.txn(inst.txn).step(step).mode;
        world.touch(self.id, entity);
        let cfg = world.cfg;
        let admitted = match cfg.admission_scheme() {
            None => self.table.request(entity, inst, mode).map(|a| match a {
                Acquire::Granted => PreventionOutcome::Granted,
                Acquire::Queued => PreventionOutcome::Queued,
            }),
            Some(scheme) => {
                let priority = |o: Instance| coords[o.txn.idx()].priority(cfg);
                self.table
                    .request_with_priority(entity, inst, mode, scheme, priority)
            }
        };
        match admitted {
            Ok(outcome) => Some(outcome),
            Err(LockError::AlreadyQueued { .. }) if cfg.faults.any() => None,
            Err(err) => panic!("the engine never re-requests a queued lock: {err}"),
        }
    }

    /// A retransmitted request found its original still queued: a no-op,
    /// but evidence the waiter is stuck, and what its original sent to get
    /// unstuck may have been lost. Each scheme re-sends its own, all
    /// idempotent at the receiving coordinator.
    fn on_retransmitted_while_queued(
        &mut self,
        world: &mut World,
        coords: &[Coordinator],
        inst: Instance,
        entity: EntityId,
    ) {
        let cfg = world.cfg;
        if cfg.detection() == Some(DeadlockDetection::Probe) {
            // Re-observe the entity so its live edges are chased again.
            self.probe.forget(entity);
            self.edges_changed(world, coords, entity);
        }
        if cfg.admission_scheme() == Some(PreventionScheme::WoundWait) {
            // Re-derive the victims: the conflicting owners younger now.
            let priority = |o: Instance| coords[o.txn.idx()].priority(cfg);
            let mine = priority(inst);
            let mut victims = self.table.conflicts_of(entity, inst);
            victims.retain(|&o| priority(o) > mine);
            wound(world, victims);
        }
        // Re-demand re-sends a still-pending revocation.
        self.demand(world, inst, entity);
    }

    /// `inst` was just granted `entity`, immediately or from the queue:
    /// mirror the lease, record the step, decide delegation and
    /// acknowledge — the one place a grant goes on the wire.
    ///
    /// A grant of an uncontested entity (no waiter, no pending upgrade,
    /// no revocation draining) is *delegated*: release authority goes to
    /// the coordinator, recorded in the ledger under a lease whose clock a
    /// re-grant keeps. A contested grant stays plain, so one authority
    /// holds it and the waiters' demand keeps its remote path.
    fn grant(&mut self, world: &mut World, inst: Instance, entity: EntityId, step: StepId) {
        self.note_grant(world, inst, entity);
        world.record_step(inst, step);
        let delegated = (world.delegation
            && !self.table.has_waiters(entity)
            && !self.delegations.is_revoking(inst, entity))
        .then(|| {
            let lease = Lease::new(world.now, world.cfg.faults.lease_ttl);
            self.delegations.delegate(inst, entity, lease);
            DelegatedGrant { boot: self.boot }
        });
        let granted = Payload::LockGranted {
            inst,
            entity,
            step,
            delegated,
        };
        world.transmit(EventKind::ToCoordinator(inst.txn, granted));
    }

    /// Mirrors a grant into the lease ledger (crash plans only), stamped
    /// now with the *held* mode (a covered re-request must not downgrade
    /// an exclusive lease).
    fn note_grant(&mut self, world: &World, inst: Instance, e: EntityId) {
        if !world.track_leases {
            return;
        }
        let mode = self.table.holds(e, inst).expect("a granted lock is held");
        let lease = Lease::new(world.now, world.cfg.faults.lease_ttl);
        self.leases.grant(inst, e, mode, lease);
    }

    /// A conflicting request by `inst` demands `entity`: revoke every
    /// delegated hold in its way. Under faults the requester's
    /// retransmissions re-send a pending revocation, as they do wounds.
    fn demand(&mut self, world: &mut World, inst: Instance, entity: EntityId) {
        if !world.delegation {
            return;
        }
        for h in self.table.conflicts_of(entity, inst) {
            let first = self.delegations.start_revoke(h, entity);
            if first {
                world.metrics.revocations += 1;
            }
            if first || (world.cfg.faults.any() && self.delegations.is_revoking(h, entity)) {
                let revoke = Payload::Revoke { inst: h, entity };
                world.transmit(EventKind::ToCoordinator(h.txn, revoke));
            }
        }
    }

    /// Releases `inst`'s hold on `entity` with everything that rides on
    /// it, in order: the lease, any delegation record (a later grant is a
    /// *fresh* delegation, and an ack in flight must find nothing to
    /// drain), the wait edges, the unlock ack if one is owed, and the
    /// grants the release unblocked.
    fn release_hold(
        &mut self,
        world: &mut World,
        coords: &[Coordinator],
        inst: Instance,
        entity: EntityId,
        ack: Option<StepId>,
    ) {
        world.touch(self.id, entity);
        // A retransmitted unlock whose ack was lost finds no hold: keyed
        // by owner, the idempotent release frees nobody else's lock.
        let grants = if world.cfg.faults.any() {
            self.table.release_idempotent(entity, inst)
        } else {
            self.table
                .release(entity, inst)
                .expect("the engine releases only what is held")
        };
        self.leases.release(inst, entity);
        self.delegations.remove(inst, entity);
        self.edges_changed(world, coords, entity);
        if let Some(step) = ack {
            let done = Payload::UnlockDone { inst, step };
            world.transmit(EventKind::ToCoordinator(inst.txn, done));
        }
        for (n, _) in grants {
            self.grant_queued(world, coords, n, entity);
        }
    }

    /// A queued instance just received the lock on `entity`.
    fn grant_queued(
        &mut self,
        world: &mut World,
        coords: &[Coordinator],
        inst: Instance,
        entity: EntityId,
    ) {
        let since = self
            .queued
            .remove(inst, entity)
            .expect("a queued lock has a record");
        world.metrics.lock_wait_ticks += world.now - since;
        // Aborted while it waited: release at once.
        if coords[inst.txn.idx()].stale(inst) {
            self.release_hold(world, coords, inst, entity, None);
        } else {
            let lock = world.sys.txn(inst.txn).lock_step(entity);
            self.grant(world, inst, entity, lock.expect("it queued one"));
        }
    }

    /// An abort reaches this site, in its tick: `old`'s ledger entries,
    /// probe searches and wait records go, its waits are cancelled and its
    /// holds released, and whoever waited behind them is granted.
    pub(crate) fn release_all(&mut self, world: &mut World, coords: &[Coordinator], old: Instance) {
        self.delegations.drop_owner(old);
        self.leases.drop_owner(old);
        self.probe.end_chases_of(old.txn);
        // Every record: a crash keeps `queued` and wipes the waits.
        self.queued.remove_all(old);
        let cancelled = self.table.cancel_waits(old);
        for &e in &cancelled.cancelled {
            world.touch(self.id, e);
            self.edges_changed(world, coords, e);
        }
        let granted = cancelled.granted.into_iter();
        for (entity, grants) in granted.chain(self.table.release_all(old)) {
            world.touch(self.id, entity);
            self.edges_changed(world, coords, entity);
            for (n, _) in grants {
                self.grant_queued(world, coords, n, entity);
            }
        }
    }

    /// A commit reaches this site: no search through `txn` can close.
    pub(crate) fn end_chases_of(&mut self, txn: TxnId) {
        self.probe.end_chases_of(txn);
    }

    /// Reacts to a change of `entity`'s wait-for edges: OnBlock schedules
    /// a scan if the entity is left with waiters, Probe chases the new
    /// edges, the other arms have nothing to do.
    fn edges_changed(&mut self, world: &mut World, coords: &[Coordinator], entity: EntityId) {
        match world.cfg.detection() {
            None | Some(DeadlockDetection::Periodic) => {}
            Some(DeadlockDetection::OnBlock) => {
                world.scan_due |= self.table.has_waiters(entity);
            }
            Some(DeadlockDetection::Probe) => self.chase_new_edges(world, coords, entity),
        }
    }

    /// Diffs `entity`'s wait-edges against the site's last view of them
    /// and launches a probe per new edge, one search per waiter. Kept out
    /// of line: [`Site::edges_changed`] runs at every grant and release
    /// under every arm, and its no-op arms should not pay for this one's
    /// frame (`sim_scan`'s median call reads 2–3 % slower with it inlined).
    #[inline(never)]
    fn chase_new_edges(&mut self, world: &mut World, coords: &[Coordinator], entity: EntityId) {
        let edges = self.table.entity_waits_for(entity);
        let fresh = self.probe.observe(entity, edges, world.now);
        // The edges come sorted by waiter: one search per waiter covers
        // all of its new edges.
        let mut search: Option<(Instance, ChaseId)> = None;
        for (w, h) in fresh {
            let chase = match search {
                Some((waiter, chase)) if waiter == w => chase,
                _ => {
                    world.metrics.probe_initiations += 1;
                    ChaseId {
                        origin: self.id,
                        boot: self.boot,
                        seq: self.probe.next_seq(),
                        generation: 0,
                    }
                }
            };
            search = Some((w, chase));
            // A live table's owners are never stale (aborts scrub them).
            self.probe.mark(chase, w.txn, h.txn, Mark::Routed);
            let stamp = |i: Instance| coords[i.txn.idx()].stamp();
            let msg = ProbeMsg::new(w, stamp(w), world.now, chase);
            self.route_probe(world, coords, msg.extend(h, stamp(h), world.now));
        }
    }

    /// Delivers a probe to every site where its target might be blocked:
    /// the sites hosting the target's lock set (static catalog knowledge).
    /// This site examines it for free; every other costs a message, whose
    /// path it shares.
    fn route_probe(&mut self, world: &mut World, coords: &[Coordinator], msg: ProbeMsg) {
        for &to in &coords[msg.target().txn.idx()].lock_sites {
            if to == self.id {
                self.on_probe(world, coords, &msg);
            } else {
                world.send_probe(to, msg.clone());
            }
        }
    }

    /// A probe arrived: unless this site has examined its target for this
    /// search, examine the target's local wait-edges, closing the cycle
    /// where one points back at the initiator and sending the search on
    /// along every other it has not sent it along yet.
    fn on_probe(&mut self, world: &mut World, coords: &[Coordinator], msg: &ProbeMsg) {
        let (w, t) = (msg.initiator(), msg.target());
        if coords[w.txn.idx()].moved_on(w) || coords[t.txn.idx()].stale(t) {
            return;
        }
        if !self.probe.mark(msg.chase, w.txn, t.txn, Mark::Examined) {
            return;
        }
        let mut waits = self.waits.pop().unwrap_or_default();
        self.waits_here(t, &mut waits);
        for &h in &waits {
            // The cycle dates from its *last-formed* edge, so the path
            // carries the latest appearance (now, if an edge re-forming
            // raced the probe).
            let appeared = self.probe.appeared_at(t, h).unwrap_or(world.now);
            if h == w {
                // A cycle, assembled from site-local views. Every site
                // closing it picks the same victim (rotation-invariant
                // policy), so duplicate detections collapse at the abort.
                let victim = probe::choose_victim(world.cfg.victim_policy, msg.path())
                    .expect("a probe path is never empty");
                world.metrics.probe_closes += 1;
                let order = Payload::Abort {
                    victim,
                    members: msg.path().iter().map(|&(m, _)| m).collect(),
                    formed_at: msg.formed_at.max(appeared),
                    chase: msg.chase,
                };
                world.transmit(EventKind::ToCoordinator(victim.txn, order));
            } else if self.probe.mark(msg.chase, w.txn, h.txn, Mark::Routed) {
                let next = msg.extend(h, coords[h.txn.idx()].stamp(), appeared);
                self.route_probe(world, coords, next);
            }
        }
        self.waits.push(waits);
    }

    /// Fills `out` with the holders `t` waits on at this site, ascending
    /// and deduplicated: [`QueueTable::waits_of`]'s answer, read from
    /// `t`'s own queued records instead of every contended entity. Each
    /// record is confirmed against the table, since a crash wipes the
    /// waits but keeps the records.
    fn waits_here(&self, t: Instance, out: &mut Vec<Instance>) {
        out.clear();
        for &(inst, e, _) in self.queued.row(t.txn) {
            if inst == t {
                self.table.waits_at_into(e, t, out);
            }
        }
        out.sort_unstable();
        out.dedup();
        debug_assert_eq!(*out, self.table.waits_of(t), "{t:?} at {}", self.id);
    }

    /// A scheduled outage begins: the lock table and probe memory are
    /// wiped, and deliveries dropped until recovery. The lease ledger
    /// (durable grant records) survives, except for delegated *cache
    /// residue*: the delegation ledger is cleared, and each delegation's
    /// lease released unless `open` (the coordinator's answer) says its
    /// lock section may still be open — so recovery neither rebuilds a
    /// hold only a dead cache claimed nor drops one still in use.
    pub(crate) fn crash(
        &mut self,
        world: &World,
        mut open: impl FnMut(Instance, EntityId) -> bool,
    ) {
        self.down = true;
        self.crash_at = world.now;
        self.boot = self.boot.wrapping_add(1);
        for (inst, e, _lease, _revoking) in self.delegations.entries() {
            if !open(inst, e) && world.track_leases {
                self.leases.release(inst, e);
            }
        }
        self.delegations.clear();
        // Removed edges cannot close a cycle: no detector has work here.
        self.table = QueueTable::new();
        self.probe.clear();
    }

    /// The outage ends: the table is rebuilt from the lease ledger, every
    /// live holder whose [`Lease`] survived re-granted (conflict-free: the
    /// ledger mirrors a consistent holder set). Returns, sorted, those
    /// whose lease lapsed: they lost a lock they think they hold, so the
    /// driver aborts them ([`crate::Metrics::leases_expired`]).
    pub(crate) fn recover(&mut self, world: &mut World, coords: &[Coordinator]) -> Vec<Instance> {
        self.down = false;
        world.metrics.recoveries += 1;
        let ledger = self.leases.entries();
        self.leases.clear();
        let mut expired: Vec<Instance> = Vec::new();
        for (inst, e, mode, lease) in ledger {
            if coords[inst.txn.idx()].moved_on(inst) {
                // The owner aborted or committed meanwhile: garbage.
                continue;
            }
            if lease.survives_outage(self.crash_at, world.now) {
                let granted = self
                    .table
                    .request(e, inst, mode)
                    .expect("a wiped table has no queue to be in");
                debug_assert_eq!(granted, Acquire::Granted, "the ledger is conflict-free");
                self.note_grant(world, inst, e);
            } else {
                world.metrics.leases_expired += 1;
                expired.push(inst);
            }
        }
        expired.sort();
        expired.dedup();
        expired
    }
}

/// A site's record of when each queued request began to wait, in rows
/// by transaction index: a waiter's records are its row, so an abort and
/// a probe examination read one row, not every waiter's.
#[derive(Default)]
pub(crate) struct Queued {
    rows: Vec<Vec<(Instance, EntityId, SimTime)>>,
}

impl Queued {
    /// Records that `inst` began waiting for `e` at `now`, unless it
    /// already has a record there: a crash-and-re-request must not reset
    /// the wait clock.
    fn insert(&mut self, inst: Instance, e: EntityId, now: SimTime) {
        let t = inst.txn.idx();
        if self.rows.len() <= t {
            self.rows.resize_with(t + 1, Vec::new);
        }
        let row = &mut self.rows[t];
        if !row.iter().any(|&(i, x, _)| (i, x) == (inst, e)) {
            row.push((inst, e, now));
        }
    }

    /// Removes `inst`'s record for `e`, returning when it began to wait.
    fn remove(&mut self, inst: Instance, e: EntityId) -> Option<SimTime> {
        let row = self.rows.get_mut(inst.txn.idx())?;
        let at = row.iter().position(|&(i, x, _)| (i, x) == (inst, e))?;
        Some(row.swap_remove(at).2)
    }

    /// Removes every record of `inst`.
    fn remove_all(&mut self, inst: Instance) {
        if let Some(row) = self.rows.get_mut(inst.txn.idx()) {
            row.retain(|&(i, _, _)| i != inst);
        }
    }

    /// `txn`'s records, in no promised order.
    fn row(&self, txn: TxnId) -> &[(Instance, EntityId, SimTime)] {
        self.rows.get(txn.idx()).map_or(&[], Vec::as_slice)
    }

    /// Every record's waiter and start, in no promised order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Instance, SimTime)> + '_ {
        self.rows.iter().flatten().map(|&(i, _, since)| (i, since))
    }

    /// The number of records.
    pub(crate) fn len(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.rows.iter().all(Vec::is_empty)
    }
}

/// Sends a wound order to each victim's coordinator.
fn wound(world: &mut World, victims: Vec<Instance>) {
    for victim in victims {
        world.transmit(EventKind::ToCoordinator(
            victim.txn,
            Payload::Wound { victim },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LatencyModel, SimConfig};
    use kplock_model::{Database, TxnBuilder, TxnSystem};

    /// A site driven through a hand-built [`World`], no engine: a grant,
    /// two queued requests, an abort's `release_all` that cancels the
    /// exclusive waiter and grants the shared one behind it, and unlocks
    /// whose last release grants the queue — every message in order.
    #[test]
    fn a_site_needs_only_a_world_and_the_coordinators() {
        let db = Database::from_spec(&[("x", 0)]);
        let txn = |name: &str, script: &str| {
            let mut b = TxnBuilder::new(&db, name);
            b.script(script).unwrap();
            b.build().unwrap()
        };
        let scripts = ["SLx rx Ux", "Lx x Ux", "SLx rx Ux", "Lx x Ux"];
        let txns = scripts.iter().enumerate();
        let sys = TxnSystem::new(
            db.clone(),
            txns.map(|(i, s)| txn(&format!("T{i}"), s)).collect(),
        );
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            ..Default::default()
        };
        let mut world = World::new(&sys, &cfg);
        let coords: Vec<Coordinator> = (0..sys.len())
            .map(|t| Coordinator::new(&sys, TxnId::from_idx(t), 0, false))
            .collect();
        let mut site = Site::new(SiteId(0));
        let (x, inst) = (EntityId(0), |t: usize| coords[t].current());
        let (lock, unlock) = (StepId(0), StepId(2));
        let request = |t| Payload::LockRequest {
            inst: inst(t),
            entity: x,
            step: lock,
        };
        let release = |t| Payload::UnlockRequest {
            inst: inst(t),
            entity: x,
            step: unlock,
        };

        let mut sent = Vec::new();
        let mut advance_to = |world: &mut World, tick: SimTime| {
            while let Some((_, ev)) = world.queue.pop() {
                sent.push(ev);
            }
            world.now = tick;
        };
        site.on_message(&mut world, &coords, &request(0));
        advance_to(&mut world, 1);
        site.on_message(&mut world, &coords, &request(1));
        advance_to(&mut world, 2);
        site.on_message(&mut world, &coords, &request(2));
        assert!(site.table.is_waiting(x, inst(1)) && site.table.is_waiting(x, inst(2)));
        advance_to(&mut world, 3);
        site.release_all(&mut world, &coords, inst(1));
        assert!(!site.table.is_waiting(x, inst(1)));
        advance_to(&mut world, 4);
        site.on_message(&mut world, &coords, &request(3));
        advance_to(&mut world, 5);
        site.on_message(&mut world, &coords, &release(0));
        advance_to(&mut world, 6);
        site.on_message(&mut world, &coords, &release(2));
        advance_to(&mut world, 7);

        let granted = |t| {
            let inst = inst(t);
            let step = lock;
            let delegated = None;
            let granted = Payload::LockGranted {
                inst,
                entity: x,
                step,
                delegated,
            };
            EventKind::ToCoordinator(inst.txn, granted)
        };
        let done = |t| {
            let (inst, step) = (inst(t), unlock);
            EventKind::ToCoordinator(inst.txn, Payload::UnlockDone { inst, step })
        };
        assert_eq!(sent, [granted(0), granted(2), done(0), done(2), granted(3)]);
        assert!(site.queued.is_empty());
        assert_eq!(world.metrics.lock_requests, 4);
        assert_eq!(world.metrics.lock_wait_ticks, (3 - 2) + (6 - 4));
    }

    /// A probe examination reads the waiter's own queued records and
    /// confirms each against the table: after a crash wiped the table the
    /// record stays (the re-request keeps its wait clock) but the answer is
    /// empty, as the table's own `waits_of` says (a debug build asserts
    /// the two agree at every examination).
    #[test]
    fn a_crash_empties_the_answer_but_keeps_the_queued_record() {
        let db = Database::from_spec(&[("x", 0), ("y", 0)]);
        let txn = |name: &str, script: &str| {
            let mut b = TxnBuilder::new(&db, name);
            b.script(script).unwrap();
            b.build().unwrap()
        };
        let scripts = ["SLx SLy rx ry Ux Uy", "SLx rx Ux", "Lx Ly x y Ux Uy"];
        let txns = scripts.iter().enumerate();
        let sys = TxnSystem::new(
            db.clone(),
            txns.map(|(i, s)| txn(&format!("T{i}"), s)).collect(),
        );
        let cfg = SimConfig::default();
        let mut world = World::new(&sys, &cfg);
        let coords: Vec<Coordinator> = (0..sys.len())
            .map(|t| Coordinator::new(&sys, TxnId::from_idx(t), 0, false))
            .collect();
        let mut site = Site::new(SiteId(0));
        let inst = |t: usize| coords[t].current();
        let request = |t: usize, e: u32, step: u32| Payload::LockRequest {
            inst: inst(t),
            entity: EntityId(e),
            step: StepId(step),
        };
        // T0 and T1 share x, T0 holds y; T2 queues at both.
        for msg in [request(0, 0, 0), request(0, 1, 1), request(1, 0, 0)] {
            site.on_message(&mut world, &coords, &msg);
        }
        world.now = 4;
        site.on_message(&mut world, &coords, &request(2, 0, 0));
        site.on_message(&mut world, &coords, &request(2, 1, 1));
        let mut answer = Vec::new();
        site.waits_here(inst(2), &mut answer);
        assert_eq!(answer, [inst(0), inst(1)]);
        // A holder waits on nobody; a stale answer is cleared first.
        site.waits_here(inst(0), &mut answer);
        assert!(answer.is_empty());

        site.crash(&world, |_, _| false);
        site.waits_here(inst(2), &mut answer);
        assert!(answer.is_empty());
        // Recovery re-grants a surviving hold before T2 re-requests: the
        // record names an entity T2 no longer waits at.
        let (x, shared) = (EntityId(0), kplock_model::LockMode::Shared);
        assert_eq!(site.table.request(x, inst(0), shared), Ok(Acquire::Granted));
        site.waits_here(inst(2), &mut answer);
        assert!(answer.is_empty());
        assert!(!site.table.is_waiting(x, inst(2)));
        let mut kept = site.queued.row(TxnId(2)).to_vec();
        kept.sort_by_key(|&(_, e, _)| e);
        assert_eq!(kept, [(inst(2), EntityId(0), 4), (inst(2), EntityId(1), 4)]);
    }
}
