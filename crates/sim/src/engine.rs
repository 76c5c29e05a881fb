//! The discrete-event simulation engine.
//!
//! Coordinators (one per transaction) exchange messages with sites over a
//! latency-modelled network; sites run reader–writer FIFO lock tables
//! ([`kplock_dlm::QueueTable`]), which are the engine's one record of who
//! waits for whom. Deadlocks are either *detected* — by a global scan of
//! those tables, on a timer (default, the paper-era scheme) or after
//! every site event that leaves a waiter behind
//! ([`crate::config::DeadlockDetection::OnBlock`]), or by distributed
//! Chandy–Misra–Haas probes travelling site-to-site
//! ([`crate::config::DeadlockDetection::Probe`], see [`crate::probe`]) —
//! and a victim aborted, or *prevented* outright
//! ([`crate::config::DeadlockResolution::Prevent`]): the coordinator's
//! birth timestamp rides on every lock request and the site answers from
//! table-local arithmetic alone — wait, wound the younger holders, or
//! reject — so no wait-for cycle ever forms and no detection protocol
//! runs (see [`kplock_dlm::prevent`]). Either way the aborted instance
//! releases its locks and restarts after a backoff, keeping its birth
//! stamp.
//!
//! Every wire message additionally crosses the fault-injection chokepoint
//! ([`crate::fault::FaultPlan`]): seeded loss, duplication and reordering
//! apply uniformly to data traffic, probes, abort orders, wounds and
//! rejections, and scheduled site crashes wipe volatile lock tables that
//! recovery rebuilds from surviving leases. Duplicated and retransmitted
//! messages are safe because every site- and coordinator-side handler is
//! idempotent (each handler documents its argument; the table side lives
//! in its [`kplock_dlm::LockError::AlreadyQueued`] refusal and
//! [`kplock_dlm::QueueTable::release_idempotent`]). The default
//! [`crate::fault::FaultPlan::none`] never touches any of it, so clean
//! runs stay bit-identical to the fault-free engine. All randomness comes
//! from two seeded RNGs (latency and faults), so runs are reproducible
//! either way.

use crate::config::{
    admission_priority, check_avoid_plan, ConfigError, DeadlockDetection, Delegation, SimConfig,
};
use crate::event::{DelegatedGrant, EventKind, EventQueue, Instance, Payload, SimTime};
use crate::fault::FaultPlanError;
use crate::history::{audit, Audit, History};
use crate::metrics::Metrics;
use crate::probe::{self, ChaseId, Mark, ProbeMsg, SiteProbeState, Stamp};
use crate::progress::Progress;
use kplock_dlm::{
    Acquire, DelegationLedger, Lease, LeaseTable, LockError, PreventionOutcome, PreventionScheme,
    Priority, QueueTable,
};
use kplock_graph::DiGraph;
use kplock_model::{ActionKind, EntityId, IdMap, LockMode, SiteId, StepId, TxnId, TxnSystem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every transaction committed.
    Completed,
    /// Simulated time hit [`SimConfig::max_time`] with work still pending
    /// (livelock, or simply too little time). Previously this was
    /// indistinguishable from a clean completion in the report.
    TimedOut,
    /// The event queue drained with uncommitted transactions and time to
    /// spare — an undetected deadlock, i.e. a detection-scheme bug.
    Stalled,
}

/// Final report of a run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Collected counters.
    pub metrics: Metrics,
    /// Serializability audit of the committed schedule.
    pub audit: Audit,
    /// Epoch at which each transaction committed, `None` for transactions
    /// still in flight when the run ended (timeout/stall) — exactly the
    /// commits the audit was told of, so an unfinished transaction's
    /// in-flight epoch can never be mistaken for a commit claim (the
    /// threaded runner's report follows the same shape).
    pub committed_epoch: Vec<Option<u32>>,
    /// How the run ended — distinguishes a clean completion from a
    /// [`SimConfig::max_time`] timeout or a stall. The single source of
    /// truth; [`SimReport::finished`] and [`SimReport::timed_out`] derive
    /// from it.
    pub outcome: RunOutcome,
}

impl SimReport {
    /// True when every transaction committed before `max_time`.
    pub fn finished(&self) -> bool {
        self.outcome == RunOutcome::Completed
    }

    /// True when the run was cut off by [`SimConfig::max_time`].
    pub fn timed_out(&self) -> bool {
        self.outcome == RunOutcome::TimedOut
    }

    /// The stall check every engine property test makes: panics if the
    /// run of `cfg` stalled — drained its events with transactions
    /// uncommitted and time to spare, an undetected deadlock or a lost
    /// message nobody re-sent — naming both seeds and the whole
    /// configuration. `context` names what `cfg` does not, such as the
    /// workload seed.
    #[track_caller]
    pub fn assert_not_stalled(&self, cfg: &SimConfig, context: impl std::fmt::Display) {
        assert!(
            self.outcome != RunOutcome::Stalled,
            "{context}: stalled at tick {} with {} of {} transactions committed \
             (seed {}, fault seed {}) under {cfg:?}",
            self.metrics.elapsed_ticks,
            self.metrics.committed,
            self.committed_epoch.len(),
            cfg.seed,
            cfg.faults.seed,
        );
    }
}

/// One transaction's coordinator: its progress through the current
/// epoch, its victim-policy stamps, and — all it knows beyond its own
/// steps — the static catalog of sites it locks at and its half of
/// delegated ownership.
struct Coordinator {
    epoch: u32,
    progress: Progress,
    committed: bool,
    /// Last (re)start time (metrics/diagnostics).
    started_at: SimTime,
    /// Original start time; survives restarts. Victim selection uses this
    /// timestamp, following Rosenkrantz, Stearns & Lewis: an aborted
    /// transaction keeps its age, or the oldest-victim policy livelocks by
    /// repeatedly killing whichever transaction is about to finish.
    birth: (SimTime, usize),
    /// Static catalog knowledge ([`DeadlockDetection::Probe`] only; empty
    /// otherwise): the sites hosting any entity the transaction locks —
    /// where a probe chasing it might find it blocked. Derived from the
    /// schema via `Database::site_of`, not from runtime state.
    lock_sites: Vec<SiteId>,
    /// The delegated-grant cache (delegation only): the coordinator half
    /// of decoupled ownership. Keyed by entity — one cached grant per
    /// entity.
    cache: IdMap<EntityId, CacheEntry>,
    /// Revocations that overtook their delegated grant ack on the wire
    /// (the revoke can draw a shorter latency than the earlier-sent
    /// grant): remembered here and applied when the ack lands — the entry
    /// is born `revoke_pending` and drains at the local unlock. Keyed by
    /// entity, valued by the revoked instance.
    deferred_revokes: IdMap<EntityId, Instance>,
}

/// The admission priority of instance `o` ([`admission_priority`] of its
/// coordinator's birth stamp). A free function so the table can consult
/// it while mutably borrowed. Owners in a live table are never stale
/// (aborts scrub synchronously), and birth survives restarts, so the
/// lookup is always current.
fn priority_of(cfg: &SimConfig, coords: &[Coordinator], o: Instance) -> Priority {
    let (t, idx) = coords[o.txn.idx()].birth;
    admission_priority(cfg.avoid_plan(), o.txn, (t, idx as u64))
}

/// One entry in a coordinator's delegated-grant cache
/// ([`Delegation::On`] only): a cached grant on one entity, serviced
/// locally until revoked. The site-side hold stays in the owner's table
/// (the cache's collateral); this entry is the *release authority*.
#[derive(Clone, Copy, Debug)]
struct CacheEntry {
    /// The instance the grant (and the site-side hold) belongs to; abort
    /// retention re-keys it alongside the site's ledger and table.
    inst: Instance,
    /// The delegated mode — local re-acquires must be covered by it.
    mode: LockMode,
    /// The delegation's fence; an expired entry must not be trusted
    /// (the coordinator drops it and goes remote).
    lease: Lease,
    /// A lock step is live on the entity (locked locally or remotely,
    /// matching unlock not yet serviced). An in-use entry defers its
    /// revocation drain to the unlock.
    in_use: bool,
    /// A revocation arrived mid-use; the drain (entry removal +
    /// [`Payload::RevokeAck`]) rides the upcoming local unlock.
    revoke_pending: bool,
}

/// Everything one site owns. Site-side handlers read and write their own
/// `Site` and nothing of any other — the local-state boundary the paper's
/// question is about.
#[derive(Default)]
struct Site {
    /// The lock table. Volatile: a crash replaces it with an empty one.
    table: QueueTable<Instance>,
    /// When each queued request began to wait, inserted when the table
    /// queues it and removed at its grant or its instance's abort. Not
    /// wiped by a crash: a waiter that re-requests after recovery keeps
    /// its wait clock. (The step the grant acknowledges is the
    /// transaction's one lock step on the entity.)
    queued: IdMap<(Instance, EntityId), SimTime>,
    /// Probe bookkeeping ([`DeadlockDetection::Probe`] only): the
    /// wait-edges of this site's own entities, to spot new ones.
    probe: SiteProbeState,
    /// Mid-outage: deliveries are dropped by the event loop.
    down: bool,
    /// Tick of the last crash (lease-survival anchor).
    crash_at: SimTime,
    /// Boot epoch, bumped at every crash. Delegated grants carry the
    /// grant-time boot ([`DelegatedGrant::boot`]); a coordinator refuses
    /// to cache a grant from an older boot, since the crash cleared the
    /// ledger (see `on_crash`).
    boot: u32,
    /// Lease ledger mirroring grants — the surviving holder state a
    /// recovery rebuilds from. Maintained only when the plan schedules
    /// crashes (`track_leases`).
    leases: LeaseTable<Instance>,
    /// Delegation ledger (delegation only): which holds have their
    /// release authority delegated — what a conflicting request consults
    /// to send revocations, and what a crash walks to clear both sides.
    delegations: DelegationLedger<Instance>,
}

/// What no site and no coordinator owns: the scheduler (a calendar of
/// per-tick FIFO buckets, [`EventQueue`]), the two RNGs and the wire
/// ([`Engine::transmit`]), and the run's history and counters.
struct Engine<'a> {
    sys: &'a TxnSystem,
    cfg: &'a SimConfig,
    rng: StdRng,
    /// Dedicated fault RNG ([`crate::fault::FaultPlan::seed`]): loss,
    /// duplication and reorder draws never touch the latency RNG, so
    /// `FaultPlan::none()` leaves the main stream — and every fixed-seed
    /// pin — bit-identical.
    fault_rng: StdRng,
    queue: EventQueue,
    sites: Vec<Site>,
    coords: Vec<Coordinator>,
    /// Coordinators yet to commit; zero ends the run.
    uncommitted: usize,
    /// [`DeadlockDetection::OnBlock`]'s trigger: an entity was left with
    /// waiters since the last [`Engine::deadlock_scan`] (a change leaving
    /// none only removes edges, and cannot close a cycle).
    scan_due: bool,
    /// Scratch of [`find_wait_cycle`]: one entry per transaction, all
    /// [`UNSEEN`] between calls.
    scan_slot: Vec<usize>,
    /// Scratch for the steps a [`Progress::start`] or [`Progress::ack`]
    /// makes ready: empty between events, its buffer kept.
    ready: Vec<usize>,
    /// Whether leases are being tracked (the plan has crashes).
    track_leases: bool,
    /// Whether delegated lock ownership is on ([`Delegation::On`]).
    /// Every delegation code path is gated on this flag, so `Off` runs
    /// are message-for-message identical to the pre-delegation engine.
    delegation: bool,
    history: History<'a>,
    metrics: Metrics,
    audit: TableAudit,
    now: SimTime,
    /// Test seam: abort orders start no re-chase, leaving the marks alone
    /// to bound *and* to find — the protocol rule 5 of `probe.rs` exists
    /// to repair. Lets a test show the stall instead of asserting it.
    #[cfg(test)]
    marks_alone: bool,
}

/// The [`SimConfig::invariant_audit`] harness's own state: which table
/// entries the event being handled has mutated, and how many events have
/// been audited.
struct TableAudit {
    /// [`SimConfig::invariant_audit`]; nothing below is written when off.
    on: bool,
    /// The `(site, entity)` of every table mutation since the last audit,
    /// with repeats. Drained by [`Engine::audit_touched`].
    touched: Vec<(SiteId, EntityId)>,
    /// Events audited so far.
    events: u64,
}

impl TableAudit {
    /// Records that `entity`'s lists in `site`'s table were just mutated.
    fn touch(&mut self, site: SiteId, entity: EntityId) {
        if self.on {
            self.touched.push((site, entity));
        }
    }
}

/// Every this-many audited events the incremental audit is followed by
/// the whole-table sweep, for what no entity's own check can see (a
/// leaked arena node, a stale index entry).
const FULL_SWEEP_EVERY: u64 = 4096;

/// [`Engine::scan_slot`]'s mark for a transaction no live edge has named.
pub(crate) const UNSEEN: usize = usize::MAX;

/// Ticks a coordinator spends serving a lock or unlock step from its
/// delegated cache.
const LOCAL_STEP_TIME: u64 = 1;

/// Backoff before an aborted instance restarts, and the range of the
/// jitter drawn on top of it.
const RESTART_BACKOFF: u64 = 25;

/// One cycle of the transaction-level wait-for graph — the edges whose
/// two ends are both `live` — as transaction indices, or `None`, without
/// allocating, when no edge is live. Both global detectors and
/// [`crate::replay::replay_deadlock`] ask this of the site tables' edges.
///
/// The graph is built over the transactions that wait or are waited for,
/// not over all of them: they are numbered in ascending [`TxnId`] and the
/// edges added in the order received, so `find_cycle` tries the same
/// roots and successors in the same order, and returns the same cycle, as
/// on a graph with a node per transaction. `slot` maps a transaction to
/// its node; it must be all [`UNSEEN`] on entry and is again on return.
pub(crate) fn find_wait_cycle(
    edges: &[(Instance, Instance)],
    live: impl Fn(Instance) -> bool,
    slot: &mut [usize],
) -> Option<Vec<usize>> {
    let (nodes, g) = wait_graph(edges, live, slot)?;
    let cycle = kplock_graph::find_cycle(&g)?;
    Some(cycle.into_iter().map(|node| nodes[node]).collect())
}

/// [`find_wait_cycle`]'s graph: the transactions on a live edge,
/// ascending, and the graph over their positions in that list.
fn wait_graph(
    edges: &[(Instance, Instance)],
    live: impl Fn(Instance) -> bool,
    slot: &mut [usize],
) -> Option<(Vec<usize>, DiGraph)> {
    let live_ends =
        |&(w, h): &(Instance, Instance)| (live(w) && live(h)).then(|| [w.txn.idx(), h.txn.idx()]);
    let mut nodes: Vec<usize> = Vec::new();
    for t in edges.iter().filter_map(live_ends).flatten() {
        if slot[t] == UNSEEN {
            slot[t] = 0; // seen; numbered once the nodes are sorted
            nodes.push(t);
        }
    }
    if nodes.is_empty() {
        return None;
    }
    nodes.sort_unstable();
    for (node, &t) in nodes.iter().enumerate() {
        slot[t] = node;
    }
    let mut g = DiGraph::new(nodes.len());
    for [w, h] in edges.iter().filter_map(live_ends) {
        g.add_edge(slot[w], slot[h]);
    }
    for &t in &nodes {
        slot[t] = UNSEEN;
    }
    Some((nodes, g))
}

/// Runs the system to completion (or `max_time`), all transactions
/// arriving at time 0.
///
/// Returns [`ConfigError`] if `cfg` fails [`SimConfig::validate`] —
/// checked up front, so a bad latency range is a typed error instead of a
/// panic deep inside the RNG mid-run.
pub fn run(sys: &TxnSystem, cfg: &SimConfig) -> Result<SimReport, ConfigError> {
    run_with_arrivals(sys, cfg, &vec![0; sys.len()])
}

/// Runs the system with per-transaction arrival times (an open-loop
/// workload): transaction `t` issues its first steps at `arrivals[t]`.
///
/// Validates `cfg` up front; see [`run`].
pub fn run_with_arrivals(
    sys: &TxnSystem,
    cfg: &SimConfig,
    arrivals: &[SimTime],
) -> Result<SimReport, ConfigError> {
    run_observed(sys, cfg, arrivals, |_| {})
}

/// [`run_with_arrivals`], calling `after` behind every handled event —
/// the seam the engine's unit tests look through; the public entry
/// points pass a no-op that compiles away.
fn run_observed<'a>(
    sys: &'a TxnSystem,
    cfg: &'a SimConfig,
    arrivals: &[SimTime],
    mut after: impl FnMut(&mut Engine<'a>),
) -> Result<SimReport, ConfigError> {
    cfg.validate()?;
    assert_eq!(
        arrivals.len(),
        sys.len(),
        "one arrival time per transaction"
    );
    // The plan alone cannot know the site count; finish its validation
    // here, where the system is in hand.
    for c in &cfg.faults.crashes {
        if c.site >= sys.db().site_count() {
            return Err(ConfigError::BadFaultPlan(
                FaultPlanError::CrashSiteOutOfRange {
                    site: c.site,
                    sites: sys.db().site_count(),
                },
            ));
        }
    }
    check_avoid_plan(cfg.avoid_plan(), sys)?;
    let probing = cfg.detection() == Some(DeadlockDetection::Probe);
    let mut eng = Engine {
        sys,
        cfg,
        rng: StdRng::seed_from_u64(cfg.seed),
        fault_rng: StdRng::seed_from_u64(cfg.faults.seed),
        queue: EventQueue::new(),
        sites: (0..sys.db().site_count())
            .map(|_| Site::default())
            .collect(),
        coords: sys
            .txns()
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut lock_sites: Vec<SiteId> = Vec::new();
                if probing {
                    let locked = t.locked_entities();
                    lock_sites.extend(locked.iter().map(|&e| sys.db().site_of(e)));
                    lock_sites.sort_by_key(|s| s.idx());
                    lock_sites.dedup();
                }
                Coordinator {
                    epoch: 0,
                    progress: Progress::new(t),
                    committed: false,
                    started_at: arrivals[i],
                    birth: (arrivals[i], i),
                    lock_sites,
                    cache: IdMap::default(),
                    deferred_revokes: IdMap::default(),
                }
            })
            .collect(),
        uncommitted: sys.len(),
        scan_due: false,
        scan_slot: vec![UNSEEN; sys.len()],
        ready: Vec::new(),
        track_leases: !cfg.faults.crashes.is_empty(),
        delegation: cfg.delegation == Delegation::On,
        history: History::new(sys),
        metrics: Metrics {
            avoid_certified: cfg.avoid_plan().map_or(0, |p| p.certified_count()),
            avoid_fallbacks: cfg.avoid_plan().map_or(0, |p| p.fallback_count()),
            ..Metrics::default()
        },
        audit: TableAudit {
            on: cfg.invariant_audit,
            touched: Vec::new(),
            events: 0,
        },
        now: 0,
        #[cfg(test)]
        marks_alone: false,
    };

    for (t, &arrival) in arrivals.iter().enumerate() {
        let txn = TxnId::from_idx(t);
        if arrival == 0 {
            eng.start(txn);
        } else {
            eng.queue.push(arrival, EventKind::Restart(txn));
        }
    }
    if cfg.detection() == Some(DeadlockDetection::Periodic) {
        eng.queue
            .push(cfg.deadlock_scan_interval, EventKind::DeadlockScan);
    }
    for c in &cfg.faults.crashes {
        let site = SiteId::from_idx(c.site);
        eng.queue.push(c.at, EventKind::SiteCrash(site));
        // A zero-length outage recovers in the same tick, after the crash
        // (insertion order breaks the tie): a crash-restart the network
        // never sees, but the volatile table is gone all the same.
        eng.queue.push(
            c.at.saturating_add(c.down_for),
            EventKind::SiteRecover(site),
        );
    }

    let mut timed_out = false;
    while let Some((t, ev)) = eng.queue.pop() {
        eng.now = t;
        if eng.now > cfg.max_time {
            timed_out = true;
            break;
        }
        if eng.all_committed() {
            break;
        }
        match ev {
            EventKind::ToSite(site, payload) => {
                if eng.sites[site.idx()].down {
                    // The site is mid-outage: everything landing on it is
                    // lost with the crash (retransmission and the
                    // recovery re-delivery make up for it).
                    eng.metrics.messages_dropped += 1;
                    continue;
                }
                eng.on_site(site, payload);
                // Table state changes inside site events — and inside the
                // resolution below, whose aborts release locks at *every*
                // site. A cycle can form not just when a request blocks
                // but also when a release *grants*: remaining waiters
                // retarget onto the new holder. OnBlock scans after any
                // site event that left an entity with waiters, so no
                // formation path is missed (and update-only events stay
                // O(1)).
                if eng.scan_due {
                    eng.deadlock_scan();
                }
                eng.audit_touched();
            }
            EventKind::ToCoordinator(txn, payload) => {
                // Coordinator events mutate tables too: a Wound, Abort or
                // LockRejected triggers an abort whose releases and
                // cancellations touch every site.
                eng.on_coordinator(txn, payload);
                eng.audit_touched();
            }
            EventKind::DeadlockScan => {
                eng.deadlock_scan();
                eng.audit_touched();
                if !eng.all_committed() {
                    eng.queue.push(
                        eng.now + cfg.deadlock_scan_interval,
                        EventKind::DeadlockScan,
                    );
                }
            }
            EventKind::Restart(txn) => eng.start(txn),
            EventKind::SiteCrash(site) => eng.on_crash(site),
            EventKind::SiteRecover(site) => {
                // A rebuilt table is new everywhere at once: no list of
                // entities stands in for the sweep.
                eng.on_recover(site);
                eng.audit_sweep();
            }
            EventKind::RetransmitCheck(txn, epoch) => eng.on_retransmit(txn, epoch),
        }
        after(&mut eng);
    }

    let finished = eng.all_committed();
    let outcome = if finished {
        RunOutcome::Completed
    } else if timed_out {
        RunOutcome::TimedOut
    } else {
        RunOutcome::Stalled
    };
    eng.audit_end(outcome);
    // Elapsed simulated time: the honest throughput denominator. Equal to
    // the makespan for clean completions; a timed-out run used its whole
    // budget, a stalled one its drain tick.
    eng.metrics.elapsed_ticks = match outcome {
        RunOutcome::Completed => eng.metrics.makespan,
        RunOutcome::TimedOut => cfg.max_time,
        RunOutcome::Stalled => eng.now,
    };
    // The history was told of every commit and abort as it happened, so
    // the audit reads its verdict; an unfinished transaction's in-flight
    // epoch is in neither it nor the report.
    let committed_epoch: Vec<Option<u32>> = eng
        .coords
        .iter()
        .map(|c| c.committed.then_some(c.epoch))
        .collect();
    let audit = audit(&eng.history);
    Ok(SimReport {
        metrics: eng.metrics,
        audit,
        committed_epoch,
        outcome,
    })
}

impl Engine<'_> {
    fn all_committed(&self) -> bool {
        self.uncommitted == 0
    }

    fn send_to_site(&mut self, site: SiteId, payload: Payload) {
        self.transmit(EventKind::ToSite(site, payload));
    }

    fn send_to_coordinator(&mut self, txn: TxnId, payload: Payload) {
        self.transmit(EventKind::ToCoordinator(txn, payload));
    }

    /// The single wire chokepoint: every message — data traffic, probes,
    /// abort orders, wounds, rejections — is counted, latency-stamped from
    /// the main RNG, and then run through the fault plan's channel model.
    /// Loss swallows the delivery; reorder delays it by an extra jitter so
    /// later sends can overtake it; duplication schedules a second copy
    /// strictly after the first. All fault draws come from the dedicated
    /// fault RNG, so a plan with no channel faults never perturbs the
    /// latency stream and the clean path is bit-identical to the
    /// fault-free engine.
    fn transmit(&mut self, ev: EventKind) {
        self.metrics.messages += 1;
        // Acquire/release traffic, metered separately: the quantity
        // delegated ownership reduces (pure counting — no RNG draw and
        // no flow change, so fixed-seed pins are untouched).
        if let EventKind::ToSite(_, p) | EventKind::ToCoordinator(_, p) = &ev {
            if matches!(
                p,
                Payload::LockRequest { .. }
                    | Payload::LockGranted { .. }
                    | Payload::LockRejected { .. }
                    | Payload::UnlockRequest { .. }
                    | Payload::UnlockDone { .. }
                    | Payload::Revoke { .. }
                    | Payload::RevokeAck { .. }
            ) {
                self.metrics.lock_traffic += 1;
            }
        }
        let at = self.now + self.cfg.latency.sample(&mut self.rng);
        let f = &self.cfg.faults;
        if !f.channel_faults() {
            self.queue.push(at, ev);
            return;
        }
        let (loss, dup, reorder) = (f.loss, f.duplication, f.reorder);
        let window = f.reorder_window.max(1);
        if loss > 0.0 && self.fault_rng.gen_bool(loss) {
            self.metrics.messages_dropped += 1;
            return;
        }
        let at = if reorder > 0.0 && self.fault_rng.gen_bool(reorder) {
            at + self.fault_rng.gen_range(1..=window)
        } else {
            at
        };
        if dup > 0.0 && self.fault_rng.gen_bool(dup) {
            self.metrics.messages_duplicated += 1;
            let lag = 1 + self.fault_rng.gen_range(0..=window);
            self.queue.push(at + lag, ev.clone());
        }
        self.queue.push(at, ev);
    }

    /// `txn`'s current epoch begins (an arrival, or the restart after an
    /// abort): issue its first steps and arm the retransmission timer for
    /// this epoch — the previous epoch's timer dies on its mismatch. A
    /// transaction with no steps has nothing to wait for and commits here
    /// (the `committed` test keeps a restart that outlived its
    /// transaction's commit — two aborts before the first restart fired —
    /// from committing it twice).
    fn start(&mut self, txn: TxnId) {
        let c = &mut self.coords[txn.idx()];
        c.started_at = self.now;
        if c.progress.finished() && !c.committed {
            return self.commit(txn);
        }
        let mut ready = std::mem::take(&mut self.ready);
        c.progress.start(&mut ready);
        self.send_steps(txn, ready);
        if self.cfg.faults.retransmit_after > 0 {
            self.queue.push(
                self.now + self.cfg.faults.retransmit_after,
                EventKind::RetransmitCheck(txn, self.coords[txn.idx()].epoch),
            );
        }
    }

    /// Every step of `txn`'s current epoch is acknowledged.
    fn commit(&mut self, txn: TxnId) {
        self.history.commit(self.current(txn));
        self.coords[txn.idx()].committed = true;
        self.uncommitted -= 1;
        self.metrics.committed += 1;
        self.metrics.makespan = self.now;
        if self.cfg.detection() == Some(DeadlockDetection::Probe) {
            // No search through a committed transaction can close.
            for site in &mut self.sites {
                site.probe.end_chases_of(txn);
            }
        }
    }

    /// Sends the steps of `txn` that [`Progress`] just made ready, in the
    /// order given, and hands the emptied buffer back to [`Engine::ready`].
    fn send_steps(&mut self, txn: TxnId, mut ready: Vec<usize>) {
        for v in ready.drain(..) {
            self.send_step(txn, v);
        }
        self.ready = ready;
    }

    /// Sends (or re-sends — retransmission and recovery re-delivery both
    /// land here) the request for step `v` of `txn`'s current epoch.
    fn send_step(&mut self, txn: TxnId, v: usize) {
        let inst = self.current(txn);
        let step = StepId::from_idx(v);
        let at = self.sys.txn(txn).step(step);
        let (kind, entity) = (at.kind, at.entity);
        if self.delegation {
            // The delegated fast path: a cached grant services the lock
            // or unlock locally — zero wire messages, no site table
            // consulted, the ack a local-latency self-delivery.
            let hit = match kind {
                ActionKind::Lock => self.try_cached_lock(txn, inst, entity, step),
                ActionKind::Unlock => self.try_cached_unlock(txn, inst, entity, step),
                ActionKind::Update => false,
            };
            if hit {
                return;
            }
        }
        let payload = match kind {
            ActionKind::Lock => Payload::LockRequest { inst, entity, step },
            ActionKind::Update => Payload::UpdateRequest { inst, entity, step },
            ActionKind::Unlock => Payload::UnlockRequest { inst, entity, step },
        };
        self.send_to_site(self.sys.db().site_of(entity), payload);
    }

    /// Services a lock step from the delegated cache if a covering,
    /// unexpired entry for the current epoch exists: the entry is marked
    /// in-use *synchronously* (so a revocation landing before the local
    /// ack still defers its drain to the unlock), the step recorded, and
    /// the ack self-delivered after [`LOCAL_STEP_TIME`] — two wire messages
    /// saved. Returns whether the cache hit.
    fn try_cached_lock(
        &mut self,
        txn: TxnId,
        inst: Instance,
        entity: EntityId,
        step: StepId,
    ) -> bool {
        let mode = self.sys.txn(txn).step(step).mode;
        let Some(entry) = self.coords[txn.idx()].cache.get_mut(&entity) else {
            return false;
        };
        if entry.inst != inst || !entry.mode.covers(mode) {
            // A stray epoch, or an upgrade the cached mode cannot cover:
            // go remote (the site re-grants idempotently if we hold).
            return false;
        }
        if entry.lease.ttl != 0 && self.now > entry.lease.granted_at + entry.lease.ttl {
            // The lease lapsed: a cache must not be trusted past its
            // fence. Drop the entry and go remote — a one-way degrade;
            // only an explicit re-grant renews (satellite of the
            // duplicated-grant rule: nothing local slides the clock).
            self.coords[txn.idx()].cache.remove(&entity);
            return false;
        }
        entry.in_use = true;
        let (cached_mode, cached_lease) = (entry.mode, entry.lease);
        self.record_step(inst, step);
        self.metrics.cache_hits += 1;
        self.metrics.messages_saved += 2;
        let delegated = Some(DelegatedGrant {
            mode: cached_mode,
            lease: cached_lease,
            boot: self.sites[self.sys.db().site_of(entity).idx()].boot,
        });
        self.queue.push(
            self.now + LOCAL_STEP_TIME,
            EventKind::ToCoordinator(
                txn,
                Payload::LockGranted {
                    inst,
                    entity,
                    step,
                    delegated,
                },
            ),
        );
        true
    }

    /// Services an unlock step from the delegated cache: the entry goes
    /// idle (or, with a revocation pending, drains — removal plus a
    /// [`Payload::RevokeAck`] so the owner releases the hold), the step
    /// is recorded, and the ack self-delivered. A duplicate of an
    /// already-serviced local unlock just re-acknowledges. Returns
    /// whether the cache serviced the step.
    fn try_cached_unlock(
        &mut self,
        txn: TxnId,
        inst: Instance,
        entity: EntityId,
        step: StepId,
    ) -> bool {
        let Some(entry) = self.coords[txn.idx()].cache.get_mut(&entity) else {
            return false;
        };
        if entry.inst != inst {
            return false;
        }
        if entry.in_use {
            entry.in_use = false;
            if entry.revoke_pending {
                let entry = self.coords[txn.idx()]
                    .cache
                    .remove(&entity)
                    .expect("entry present");
                // The request stayed local; only the drain ack crossed
                // the wire (and it doubles as the release).
                self.metrics.messages_saved += 1;
                let site = self.sys.db().site_of(entity);
                self.send_to_site(
                    site,
                    Payload::RevokeAck {
                        inst: entry.inst,
                        entity,
                    },
                );
            } else {
                self.metrics.messages_saved += 2;
            }
        }
        self.record_step(inst, step);
        self.metrics.cache_hits += 1;
        self.queue.push(
            self.now + LOCAL_STEP_TIME,
            EventKind::ToCoordinator(txn, Payload::UnlockDone { inst, step }),
        );
        true
    }

    /// True when `inst` belongs to an epoch that has been aborted: its
    /// coordinator has already moved on. Every message handler checks this
    /// first — messages from dead epochs (a release still in flight when
    /// its sender was chosen as a deadlock victim, a probe chasing an
    /// aborted instance) must be ignored, or they would corrupt state the
    /// abort already cleaned up (see the
    /// `stale_unlock_after_abort_is_ignored` test for the race).
    fn stale(&self, inst: Instance) -> bool {
        self.current(inst.txn) != inst
    }

    /// True when `inst` can no longer be deadlocked: it was aborted, or
    /// its transaction committed (a commit does not bump the epoch, so
    /// [`Engine::stale`] alone misses it).
    fn moved_on(&self, inst: Instance) -> bool {
        self.stale(inst) || self.coords[inst.txn.idx()].committed
    }

    /// `txn`'s live instance.
    fn current(&self, txn: TxnId) -> Instance {
        let epoch = self.coords[txn.idx()].epoch;
        Instance { txn, epoch }
    }

    /// The victim-policy timestamps of `inst`, as piggybacked on probes.
    fn stamp_of(&self, inst: Instance) -> Stamp {
        let c = &self.coords[inst.txn.idx()];
        Stamp {
            started_at: c.started_at,
            birth: c.birth,
        }
    }

    /// Reacts to a change of `entity`'s contribution to the wait-for
    /// relation (no-op under periodic detection and under prevention,
    /// which admits no cycle to ever look for): OnBlock schedules a scan
    /// if the entity is left with waiters; Probe chases the new edges.
    fn edges_changed(&mut self, site: SiteId, entity: EntityId) {
        match self.cfg.detection() {
            None | Some(DeadlockDetection::Periodic) => {}
            Some(DeadlockDetection::OnBlock) => {
                self.scan_due |= self.sites[site.idx()].table.has_waiters(entity);
            }
            Some(DeadlockDetection::Probe) => self.chase_new_edges(site, entity),
        }
    }

    /// Diffs `entity`'s wait-edges against the site's last view of them
    /// and launches a probe per new edge, one search per waiter. Kept out
    /// of line: [`Engine::edges_changed`] runs at every grant and release
    /// under every arm, and its no-op arms should not pay for this one's
    /// frame (`sim_scan`'s median call reads 2–3 % slower with it inlined).
    #[inline(never)]
    fn chase_new_edges(&mut self, site: SiteId, entity: EntityId) {
        let s = &mut self.sites[site.idx()];
        let fresh = s
            .probe
            .observe(entity, s.table.entity_waits_for(entity), self.now);
        // The edges come sorted by waiter: one search per waiter covers
        // all of its new edges.
        let mut search: Option<(Instance, ChaseId)> = None;
        for (w, h) in fresh {
            let s = &mut self.sites[site.idx()];
            let chase = match search {
                Some((waiter, chase)) if waiter == w => chase,
                _ => {
                    self.metrics.probe_initiations += 1;
                    ChaseId {
                        origin: site,
                        boot: s.boot,
                        seq: s.probe.next_seq(),
                        generation: 0,
                    }
                }
            };
            search = Some((w, chase));
            // Holders and waiters in a live table are never stale (aborts
            // scrub them synchronously), and the table never records an
            // owner waiting on itself.
            s.probe.mark(chase, w.txn, h.txn, Mark::Routed);
            let msg = ProbeMsg {
                path: vec![(w, self.stamp_of(w)), (h, self.stamp_of(h))],
                formed_at: self.now,
                chase,
            };
            self.route_probe(Some(site), msg);
        }
    }

    /// Delivers a probe to every site where its target might be blocked:
    /// the sites hosting the target's lock set (static catalog knowledge).
    /// The sending site, if a site sends, examines it for free; every
    /// other costs a message — metered separately so detection's overhead
    /// is visible.
    fn route_probe(&mut self, from: Option<SiteId>, msg: ProbeMsg) {
        let target = msg.target().txn.idx();
        for i in 0..self.coords[target].lock_sites.len() {
            let to = self.coords[target].lock_sites[i];
            if Some(to) == from {
                self.on_probe(to, &msg);
            } else {
                self.metrics.probe_messages += 1;
                self.send_to_site(to, Payload::Probe(msg.clone()));
            }
        }
    }

    /// A probe arrived at `site`: unless this site has examined its
    /// target for this search before, examine the target's local
    /// wait-edges, closing the cycle where one points back at the
    /// initiator and sending the search on along every other whose end
    /// this site has not sent it to yet. Reads nothing but this site's
    /// table and probe memory.
    fn on_probe(&mut self, site: SiteId, msg: &ProbeMsg) {
        let (w, t) = (msg.initiator(), msg.target());
        if self.moved_on(w) || self.stale(t) {
            return;
        }
        let s = &mut self.sites[site.idx()];
        if !s.probe.mark(msg.chase, w.txn, t.txn, Mark::Examined) {
            return;
        }
        let successors = s.table.waits_of(t);
        for h in successors {
            // When this site's edge `target → h` appeared, from its own
            // bookkeeping: the cycle is attributed to its *last-formed*
            // edge, so the formation tick carried onward is the maximum
            // over the path. (The edge is always on record here — it was
            // observed the moment it changed — but a probe racing an edge
            // re-formation falls back to now, the conservative choice.)
            let s = &mut self.sites[site.idx()];
            let appeared = s.probe.appeared_at(t, h).unwrap_or(self.now);
            if h == w {
                // The path is a wait-for cycle assembled hop by hop from
                // site-local views. Every site closing the same cycle
                // picks the same victim (rotation-invariant policy), so
                // duplicate detections collapse at the abort.
                let victim = probe::choose_victim(self.cfg.victim_policy, &msg.path)
                    .expect("a probe path is never empty");
                self.metrics.probe_closes += 1;
                self.send_to_coordinator(
                    victim.txn,
                    Payload::Abort {
                        victim,
                        members: msg.path.iter().map(|&(m, _)| m).collect(),
                        formed_at: msg.formed_at.max(appeared),
                        chase: msg.chase,
                    },
                );
            } else if s.probe.mark(msg.chase, w.txn, h.txn, Mark::Routed) {
                let next = msg.extend(h, self.stamp_of(h), appeared);
                self.route_probe(Some(site), next);
            }
        }
    }

    /// True when this step request is a duplicate of one the coordinator
    /// has already seen acknowledged ([`Progress::is_done`]): the first copy was
    /// serviced *and* its ack consumed, so nothing remains to do and the
    /// message is dropped whole — modelling per-request sequence numbers.
    /// Without this, a late duplicate `LockRequest` for an entity its
    /// sender already used and released would be a *fresh* request and
    /// ghost-grant a lock nobody will ever release. Never true on a clean
    /// run, which delivers exactly once; callers check `stale` first, so
    /// the progress is the current epoch's.
    fn already_serviced(&self, inst: Instance, step: StepId) -> bool {
        self.coords[inst.txn.idx()].progress.is_done(step.idx())
    }

    /// Records a step in the history exactly once per epoch
    /// ([`Progress::record`]): a retransmitted or duplicated request whose
    /// original was already recorded re-acknowledges without re-recording
    /// (a double record would corrupt the audit's schedule). Callers check
    /// `stale` first or build `inst` from `current`, so `inst` is the live
    /// epoch.
    fn record_step(&mut self, inst: Instance, step: StepId) {
        if self.coords[inst.txn.idx()].progress.record(step.idx()) {
            self.history.record(self.now, inst, step);
        } else {
            assert!(self.cfg.faults.any(), "{inst:?}: {step} recorded twice");
        }
    }

    /// Mirrors a grant into the site's lease ledger (crash plans only):
    /// the lease is stamped now with the plan's ttl, and the *held* mode
    /// is recorded (a covered re-request must not downgrade an exclusive
    /// lease to shared).
    fn note_grant(&mut self, site: SiteId, inst: Instance, e: EntityId) {
        if !self.track_leases {
            return;
        }
        let s = &mut self.sites[site.idx()];
        let mode = s.table.holds(e, inst).expect("a granted lock is held");
        let lease = Lease::new(self.now, self.cfg.faults.lease_ttl);
        s.leases.grant(inst, e, mode, lease);
    }

    /// Decides whether a grant of `entity` to `inst` is *delegated*:
    /// uncontested entities (no waiter, no pending upgrade) hand their
    /// release authority to the coordinator under a lease; contested or
    /// mid-revocation grants stay plain, so the waiters' demand keeps its
    /// ordinary remote path. A re-grant of an existing delegation (a
    /// duplicated or retransmitted request) re-advertises the **original**
    /// lease clock. Called at every grant site that sends a
    /// [`Payload::LockGranted`].
    fn maybe_delegate(
        &mut self,
        site: SiteId,
        inst: Instance,
        entity: EntityId,
    ) -> Option<DelegatedGrant> {
        if !self.delegation {
            return None;
        }
        let s = &mut self.sites[site.idx()];
        if s.table.has_waiters(entity) || s.delegations.is_revoking(inst, entity) {
            // Contested, or a revocation is still draining: granting
            // plainly keeps exactly one authority over the hold.
            return None;
        }
        let mode = s.table.holds(entity, inst).expect("a granted lock is held");
        let lease = Lease::new(self.now, self.cfg.faults.lease_ttl);
        Some(DelegatedGrant {
            mode,
            lease: s.delegations.delegate(inst, entity, lease),
            boot: s.boot,
        })
    }

    /// A conflicting request by `inst` demands `entity`: revoke every
    /// delegated hold standing in its way. The first demand sends the
    /// revocation; under faults, later demands (the requester's own
    /// retransmissions) re-send a still-pending one — revocation's
    /// loss recovery rides the demander's timer, like wound re-derivation.
    fn demand(&mut self, site: SiteId, inst: Instance, entity: EntityId) {
        if !self.delegation {
            return;
        }
        let s = site.idx();
        for h in self.sites[s].table.conflicts_of(entity, inst) {
            if self.sites[s].delegations.start_revoke(h, entity) {
                self.metrics.revocations += 1;
                self.send_to_coordinator(h.txn, Payload::Revoke { inst: h, entity });
            } else if self.cfg.faults.any() && self.sites[s].delegations.is_revoking(h, entity) {
                self.send_to_coordinator(h.txn, Payload::Revoke { inst: h, entity });
            }
        }
    }

    fn on_site(&mut self, site: SiteId, payload: Payload) {
        match payload {
            Payload::LockRequest { inst, entity, step } => {
                if self.stale(inst) || self.already_serviced(inst, step) {
                    return;
                }
                // Every live lock request a site services — the work a
                // lock manager actually performs, and the quantity
                // hierarchical locking exists to shrink (one coarse parent
                // lock replacing hundreds of per-record requests).
                self.metrics.lock_requests += 1;
                let Some(outcome) = self.admit(site, inst, entity, step) else {
                    self.on_retransmitted_while_queued(site, inst, entity);
                    return;
                };
                match outcome {
                    PreventionOutcome::Granted => {
                        if self.track_leases {
                            // A waiter whose queue a crash wiped, granted
                            // at once on its re-request: the record the
                            // site kept has no grant from the queue left
                            // to wait for.
                            self.sites[site.idx()].queued.remove(&(inst, entity));
                        }
                        self.grant(site, inst, entity, step)
                    }
                    PreventionOutcome::Rejected => {
                        // Wait-die / no-wait: the requester was not queued;
                        // tell its coordinator to restart it (with its
                        // original birth stamp, so it ages toward
                        // invulnerability).
                        let rejected = Payload::LockRejected { inst, entity, step };
                        self.send_to_coordinator(inst.txn, rejected);
                        // The rejected requester will retry after its
                        // restart backoff; demanding now drains the
                        // delegated obstacle in the meantime, or the retry
                        // spins forever against a hold whose owner sees no
                        // reason to release it.
                        self.demand(site, inst, entity);
                    }
                    waits @ (PreventionOutcome::Queued | PreventionOutcome::Wounded(_)) => {
                        // `or_insert`: on clean runs the key is never live
                        // twice; under faults a crash-and-re-request must
                        // not reset the wait clock.
                        let waiting = self.sites[site.idx()].queued.entry((inst, entity));
                        waiting.or_insert(self.now);
                        // OnBlock's cycle check runs in the event loop right
                        // after this handler returns; Probe launches its
                        // chase from inside `edges_changed`.
                        self.edges_changed(site, entity);
                        if let PreventionOutcome::Wounded(victims) = waits {
                            // The elder waits in the queue like any blocked
                            // request; the wound orders travel the network
                            // to the younger owners' coordinators, whose
                            // aborts will release the entity and grant the
                            // queue.
                            for victim in victims {
                                self.send_to_coordinator(victim.txn, Payload::Wound { victim });
                            }
                        }
                        // If any obstacle's grant is delegated (older
                        // delegated holders are not wounded), its cache
                        // must drain before this wait can end: revoke it.
                        self.demand(site, inst, entity);
                    }
                }
            }
            Payload::UpdateRequest { inst, entity, step } => {
                if self.stale(inst) || self.already_serviced(inst, step) {
                    return;
                }
                if (self.audit.on || cfg!(debug_assertions))
                    && !self.update_is_covered(site, inst, entity, step)
                {
                    self.violated(
                        site.idx(),
                        &format!("{entity}: update without a covering lock or parent shield"),
                    );
                }
                self.record_step(inst, step);
                self.send_to_coordinator(inst.txn, Payload::UpdateDone { inst, step });
            }
            Payload::UnlockRequest { inst, entity, step } => {
                if self.stale(inst) || self.already_serviced(inst, step) {
                    // Stale: the sender was aborted while this release was
                    // in flight; the abort already freed its locks, and
                    // `inst` may no longer hold `entity` (or someone else
                    // may). Processing it would panic in the lock table.
                    return;
                }
                self.record_step(inst, step);
                self.release_hold(site, inst, entity, Some(step));
            }
            Payload::RevokeAck { inst, entity } => {
                // The drain ack: only an *awaited* revocation releases the
                // hold. A duplicated or outdated ack (the entry already
                // drained elsewhere, or a fresh delegation replaced it)
                // must not release a hold some cache still claims.
                if self.sites[site.idx()].delegations.is_revoking(inst, entity) {
                    self.release_hold(site, inst, entity, None);
                }
            }
            Payload::Probe(msg) => self.on_probe(site, &msg),
            _ => unreachable!("coordinator payload at site"),
        }
    }

    /// Whether `inst` may perform the update `step` on `entity` at `site`:
    /// either the entity's own lock covers the access, or (hierarchical
    /// databases) a coarse lock on the parent — possibly held at another
    /// site — shields it; see `LockMode::shields_child`. Part of the
    /// [`SimConfig::invariant_audit`] harness (and of every debug build):
    /// a coordinator serving locks from a cache its site no longer backs
    /// shows up here first, at the event, not in the finished history.
    fn update_is_covered(
        &self,
        site: SiteId,
        inst: Instance,
        entity: EntityId,
        step: StepId,
    ) -> bool {
        let mode = self.sys.txn(inst.txn).step(step).mode;
        let holds = |s: SiteId, e| self.sites[s.idx()].table.holds(e, inst);
        holds(site, entity).is_some_and(|held| held.covers(mode))
            || self.sys.db().parent_of(entity).is_some_and(|p| {
                holds(self.sys.db().site_of(p), p).is_some_and(|m| m.shields_child(mode))
            })
    }

    /// A retransmitted request found its original still queued (the table
    /// refused it, [`Engine::admit`]): the grant will come through the
    /// queue, so the request itself is a no-op — but the retry is evidence
    /// the waiter is still stuck, and whatever its original sent to get
    /// unstuck may have been lost on the wire. Each scheme re-sends its
    /// own; all three are idempotent at the receiving coordinator.
    fn on_retransmitted_while_queued(&mut self, site: SiteId, inst: Instance, entity: EntityId) {
        let s = site.idx();
        if self.cfg.detection() == Some(DeadlockDetection::Probe) {
            // Forget and re-observe the entity so its live edges are
            // chased again (duplicate cycle closes collapse on the epoch
            // check at the abort).
            self.sites[s].probe.forget(entity);
            self.edges_changed(site, entity);
        }
        if self.cfg.admission_scheme() == Some(PreventionScheme::WoundWait) {
            // Re-derive the victim set (every *currently* conflicting
            // owner younger than us) and re-send the wounds; wounds for
            // moved-on or committed victims are dropped at the coordinator.
            let mine = priority_of(self.cfg, &self.coords, inst);
            let mut victims = self.sites[s].table.conflicts_of(entity, inst);
            victims.retain(|&o| priority_of(self.cfg, &self.coords, o) > mine);
            for victim in victims {
                self.send_to_coordinator(victim.txn, Payload::Wound { victim });
            }
        }
        // Re-demand re-sends a still-pending revocation.
        self.demand(site, inst, entity);
    }

    /// Submits a lock request to the site's table — the one place a
    /// request is admitted. Under an admission scheme (a prevention run,
    /// or the avoidance arm's wound-wait fallback) the table decides wait
    /// / wound / die from the requester's and the conflicting owners'
    /// admission priorities — knowledge carried on the request and
    /// already present in the table's ownership records; nothing global
    /// is consulted. Under detection every conflict simply queues. `None`
    /// when the table refuses a retransmission whose original still waits
    /// ([`LockError::AlreadyQueued`], raised before any priority arithmetic).
    fn admit(
        &mut self,
        site: SiteId,
        inst: Instance,
        entity: EntityId,
        step: StepId,
    ) -> Option<PreventionOutcome<Instance>> {
        let mode = self.sys.txn(inst.txn).step(step).mode;
        self.audit.touch(site, entity);
        let (cfg, coords) = (self.cfg, &self.coords);
        let table = &mut self.sites[site.idx()].table;
        let admitted = match cfg.admission_scheme() {
            None => table.request(entity, inst, mode).map(|a| match a {
                Acquire::Granted => PreventionOutcome::Granted,
                Acquire::Queued => PreventionOutcome::Queued,
            }),
            Some(scheme) => table
                .request_with_priority(entity, inst, mode, scheme, |o| priority_of(cfg, coords, o)),
        };
        match admitted {
            Ok(outcome) => Some(outcome),
            Err(LockError::AlreadyQueued { .. }) if cfg.faults.any() => None,
            Err(err) => panic!("the engine never re-requests a queued lock: {err}"),
        }
    }

    /// `inst` was just granted `entity` at `site`, immediately or from
    /// the queue: mirror the lease, record the step, decide delegation
    /// and acknowledge — the one place a grant goes on the wire.
    fn grant(&mut self, site: SiteId, inst: Instance, entity: EntityId, step: StepId) {
        self.note_grant(site, inst, entity);
        self.record_step(inst, step);
        let delegated = self.maybe_delegate(site, inst, entity);
        self.send_to_coordinator(
            inst.txn,
            Payload::LockGranted {
                inst,
                entity,
                step,
                delegated,
            },
        );
    }

    /// Releases `inst`'s hold on `entity` with everything that rides on
    /// it: the lease, any delegation record (a later re-acquire is a
    /// *fresh* delegation with a fresh lease clock, and a revocation ack
    /// still in flight must find nothing left to drain), the wait edges,
    /// the unlock acknowledgement if one is owed, and the grants the
    /// release unblocked, in that order.
    fn release_hold(
        &mut self,
        site: SiteId,
        inst: Instance,
        entity: EntityId,
        ack: Option<StepId>,
    ) {
        self.audit.touch(site, entity);
        let s = &mut self.sites[site.idx()];
        // A retransmitted unlock whose original was processed (but whose
        // ack was lost) finds no hold: release idempotently — keyed by
        // owner, it can never free a later holder's lock — and just
        // re-acknowledge.
        let grants = if self.cfg.faults.any() {
            s.table.release_idempotent(entity, inst)
        } else {
            s.table
                .release(entity, inst)
                .expect("the engine releases only what is held")
        };
        s.leases.release(inst, entity);
        s.delegations.remove(inst, entity);
        self.edges_changed(site, entity);
        if let Some(step) = ack {
            self.send_to_coordinator(inst.txn, Payload::UnlockDone { inst, step });
        }
        for (n, _) in grants {
            self.grant_queued(n, entity);
        }
    }

    /// A queued instance just received the lock on `entity`.
    fn grant_queued(&mut self, inst: Instance, entity: EntityId) {
        let site = self.sys.db().site_of(entity);
        let since = self.sites[site.idx()]
            .queued
            .remove(&(inst, entity))
            .expect("a queued lock has a record");
        self.metrics.lock_wait_ticks += self.now - since;
        // The grant happens at the site; the wait in the queue means the
        // instance may have been aborted meanwhile — stale grants release
        // immediately.
        if self.stale(inst) {
            self.release_hold(site, inst, entity, None);
        } else {
            let step = self
                .sys
                .txn(inst.txn)
                .lock_step(entity)
                .expect("it queued one");
            self.grant(site, inst, entity, step);
        }
    }

    fn on_coordinator(&mut self, txn: TxnId, payload: Payload) {
        let (inst, step, granted_entity) = match payload {
            Payload::Abort {
                victim,
                members,
                formed_at,
                chase,
            } => return self.on_abort_message(victim, &members, formed_at, chase),
            Payload::Wound { victim } => {
                // A wound order for an instance that already moved on is
                // dropped: an earlier wound bumped its epoch (`stale`), or
                // it *committed* while the order was in flight — a commit
                // does not bump the epoch, so it needs its own check, like
                // the probe path's member validation. Either way the wait
                // the wound protected has dissolved (the victim's unlocks
                // grant the elder), and aborting here would re-run a
                // finished transaction.
                if !self.stale(victim) && !self.coords[victim.txn.idx()].committed {
                    self.metrics.prevention_restarts += 1;
                    self.abort(victim.txn);
                }
                return;
            }
            Payload::LockRejected { inst, .. } => {
                if !self.stale(inst) {
                    self.metrics.prevention_restarts += 1;
                    self.abort(inst.txn);
                }
                return;
            }
            Payload::Revoke { inst, entity } => return self.on_revoke(txn, inst, entity),
            Payload::LockGranted {
                inst,
                step,
                entity,
                delegated,
            } => (inst, step, Some((entity, delegated))),
            Payload::UpdateDone { inst, step } | Payload::UnlockDone { inst, step } => {
                (inst, step, None)
            }
            _ => unreachable!("site payload at coordinator"),
        };
        if self.stale(inst) {
            return;
        }
        if self.coords[txn.idx()].progress.is_done(step.idx()) {
            // A duplicated acknowledgement: the first copy's effects are
            // in. In particular a duplicated *final* ack must not commit
            // (and count) the transaction twice. Unreachable on clean
            // runs, where every ack is delivered exactly once. Checked
            // *before* the cache upkeep below: a duplicated delegated
            // grant must not resurrect an entry a revocation drained.
            return;
        }
        if self.delegation {
            if let Some((entity, delegated)) = granted_entity {
                self.note_cached_grant(txn, inst, entity, delegated);
            }
        }
        let progress = &mut self.coords[txn.idx()].progress;
        let mut ready = std::mem::take(&mut self.ready);
        progress.ack(self.sys.txn(txn), step.idx(), &mut ready);
        if progress.finished() {
            self.ready = ready; // empty: the last step has no successor
            return self.commit(txn);
        }
        self.send_steps(txn, ready);
    }

    /// Maintains the delegated cache from a fresh (non-duplicate,
    /// current-epoch) lock acknowledgement. A delegated grant from the
    /// site's **current** boot is cached (or refreshed — preserving any
    /// pending revocation); a plain grant, or a delegated one from an
    /// older boot (the site crashed while the ack flew, wiping its
    /// ledger), clears the slot — that entity's lifecycle is remote. A
    /// revocation that overtook this ack on the wire is applied now: the
    /// entry is born draining.
    fn note_cached_grant(
        &mut self,
        txn: TxnId,
        inst: Instance,
        entity: EntityId,
        delegated: Option<DelegatedGrant>,
    ) {
        let site = self.sys.db().site_of(entity);
        let boot = self.sites[site.idx()].boot;
        let c = &mut self.coords[txn.idx()];
        let deferred = c.deferred_revokes.remove(&entity);
        match delegated {
            Some(g) if g.boot == boot => {
                // A refresh preserves `revoke_pending`: it must not lose
                // a drain the unlock owes the site.
                let owed = c.cache.get(&entity);
                let revoke_pending = deferred == Some(inst)
                    || owed.is_some_and(|old| old.inst == inst && old.revoke_pending);
                let entry = CacheEntry {
                    inst,
                    mode: g.mode,
                    lease: g.lease,
                    in_use: true,
                    revoke_pending,
                };
                c.cache.insert(entity, entry);
            }
            _ => {
                // Plain (or pre-crash) grant: nothing is cached, so a
                // deferred revocation's premise is void too — the remote
                // unlock will release the hold through its own path.
                c.cache.remove(&entity);
            }
        }
    }

    /// True when `txn`'s *current epoch* has an issued, unacknowledged
    /// lock step on `entity` — a grant ack may be in flight.
    fn lock_in_flight(&self, txn: TxnId, entity: EntityId) -> bool {
        let progress = &self.coords[txn.idx()].progress;
        let lock = self.sys.txn(txn).lock_step(entity);
        lock.is_some_and(|s| progress.in_flight(s.idx()))
    }

    /// True when `txn`'s current epoch holds `entity` through the
    /// *remote* protocol: a lock step acknowledged, the matching unlock
    /// not yet. In that state a revocation must not be answered with a
    /// release-granting ack — the remote unlock frees the hold itself.
    fn holds_remotely(&self, txn: TxnId, entity: EntityId) -> bool {
        let progress = &self.coords[txn.idx()].progress;
        let t = self.sys.txn(txn);
        let acked = |s: Option<StepId>| s.is_some_and(|s| progress.is_done(s.idx()));
        acked(t.lock_step(entity)) && !acked(t.unlock_step(entity))
    }

    /// A revocation reached the delegate's coordinator. Deliberately *no*
    /// stale-epoch or commit guard on the cache lookup: revocation
    /// targets the cache slot, which outlives epochs (abort retention
    /// re-keys it) and commits (an idle entry is residue that must still
    /// drain). The subtle arm is a revoke that **overtook its own grant
    /// ack** on the wire — answered by deferring, not acking, or the site
    /// would release a hold the late-arriving ack then caches.
    fn on_revoke(&mut self, txn: TxnId, inst: Instance, entity: EntityId) {
        let site = self.sys.db().site_of(entity);
        let cache = &mut self.coords[txn.idx()].cache;
        if let Some(entry) = cache.get_mut(&entity) {
            if entry.inst == inst {
                if entry.in_use {
                    // Mid-use: the drain rides the upcoming local unlock.
                    entry.revoke_pending = true;
                } else {
                    cache.remove(&entity);
                    self.send_to_site(site, Payload::RevokeAck { inst, entity });
                }
                return;
            }
        }
        if self.stale(inst) {
            // An old epoch's revocation: its cache died with the abort
            // (or was re-keyed past it). Ack idempotently — the site
            // ignores acks for revocations it is not awaiting.
            self.send_to_site(site, Payload::RevokeAck { inst, entity });
            return;
        }
        if self.lock_in_flight(txn, entity) {
            // The revoke overtook the grant ack (a shorter latency draw).
            // Remember it; `note_cached_grant` applies it when the ack
            // lands, so the entry is born draining.
            self.coords[txn.idx()].deferred_revokes.insert(entity, inst);
            return;
        }
        if self.holds_remotely(txn, entity) {
            // Nothing cached and the hold's lifecycle is remote (e.g. a
            // plain re-grant superseded the delegation): the remote
            // unlock releases it; acking here would free a lock still in
            // use. Under faults the demander re-sends until the unlock
            // retires the ledger entry.
            return;
        }
        // Nothing cached, nothing in flight, nothing held: a duplicated
        // revoke whose drain already completed. Ack idempotently.
        self.send_to_site(site, Payload::RevokeAck { inst, entity });
    }

    /// A probe-detected abort order reached the victim's coordinator. The
    /// cycle travelled the network, so it may have dissolved meanwhile: if
    /// any member was already aborted or committed, that cycle is broken
    /// and the order is dropped — the validation that keeps duplicate and
    /// outdated detections from over-killing. Executed or dropped, the
    /// order came from a search that followed only the first path to each
    /// transaction, so if the initiator is still there to be deadlocked
    /// the search's next generation starts from it (`probe.rs` module
    /// doc, rule 5).
    fn on_abort_message(
        &mut self,
        victim: Instance,
        members: &[Instance],
        formed_at: SimTime,
        chase: ChaseId,
    ) {
        if !members.iter().any(|&m| self.moved_on(m)) {
            if self.audit.on {
                self.audit_probe_abort(victim);
            }
            self.metrics.deadlocks_resolved += 1;
            self.metrics.detection_latency_ticks += self.now - formed_at;
            self.abort(victim.txn);
        }
        #[cfg(test)]
        if self.marks_alone {
            return;
        }
        let Some(&initiator) = members.first() else {
            return;
        };
        if !self.moved_on(initiator) {
            let again = ProbeMsg {
                path: vec![(initiator, self.stamp_of(initiator))],
                formed_at: 0,
                chase: chase.next_generation(),
            };
            self.route_probe(None, again);
        }
    }

    /// Part of the [`SimConfig::invariant_audit`] harness: was the probe
    /// victim really on a wait-for cycle — in a nontrivial strongly
    /// connected component of the site tables' edges — at the instant its
    /// abort executed? A god's-eye view the protocol itself never has,
    /// read purely to *count* phantom kills in
    /// [`Metrics::phantom_probe_aborts`].
    fn audit_probe_abort(&mut self, victim: Instance) {
        let edges = self.wait_edges();
        let mut slot = std::mem::take(&mut self.scan_slot);
        let graph = wait_graph(&edges, |i| !self.stale(i), &mut slot);
        self.scan_slot = slot;
        let on_cycle = graph.is_some_and(|(nodes, g)| {
            let sccs = kplock_graph::tarjan_scc(&g);
            let v = nodes.binary_search(&victim.txn.idx());
            v.is_ok_and(|v| sccs.members[sccs.comp[v]].len() > 1)
        });
        if !on_cycle {
            self.metrics.phantom_probe_aborts += 1;
        }
    }

    /// Every site table's wait-for edges, site by site.
    fn wait_edges(&self) -> Vec<(Instance, Instance)> {
        let mut edges = Vec::new();
        for site in &self.sites {
            site.table.waits_for_into(&mut edges);
        }
        edges
    }

    /// The scan both global detectors run — Periodic on its timer, over
    /// the site tables' edges site by site; OnBlock when `scan_due`, over
    /// them sorted and deduplicated: find a cycle and abort its victim,
    /// until none remains (an abort's grants retarget waiters).
    fn deadlock_scan(&mut self) {
        let on_block = self.cfg.detection() == Some(DeadlockDetection::OnBlock);
        loop {
            self.scan_due = false;
            let mut edges = self.wait_edges();
            if on_block {
                edges.sort(); // merges the sites' ascending runs
                edges.dedup();
            }
            if !self.resolve_one_cycle(&edges) {
                return;
            }
        }
    }

    /// Looks for a cycle in the transaction-level graph of `edges`
    /// (current epochs only) and aborts one victim if there is one.
    /// Returns whether it did.
    fn resolve_one_cycle(&mut self, edges: &[(Instance, Instance)]) -> bool {
        let mut slot = std::mem::take(&mut self.scan_slot);
        let cycle = find_wait_cycle(edges, |i| !self.stale(i), &mut slot);
        self.scan_slot = slot;
        let Some(cycle) = cycle else {
            return false;
        };
        let members: Vec<(Instance, Stamp)> = cycle
            .iter()
            .map(|&t| self.current(TxnId::from_idx(t)))
            .map(|m| (m, self.stamp_of(m)))
            .collect();
        let victim =
            probe::choose_victim(self.cfg.victim_policy, &members).expect("a cycle has members");
        // Detection latency, approximated by the youngest wait among the
        // cycle's members (the cycle cannot predate its youngest edge):
        // ~0 for OnBlock, up to a scan interval for Periodic.
        let formation = self
            .sites
            .iter()
            .flat_map(|site| &site.queued)
            .filter(|&(&(inst, _), _)| !self.stale(inst) && cycle.contains(&inst.txn.idx()))
            .map(|(_, &since)| since)
            .max();
        if let Some(t0) = formation {
            self.metrics.detection_latency_ticks += self.now - t0;
        }
        self.metrics.deadlocks_resolved += 1;
        self.abort(victim.txn);
        true
    }

    fn abort(&mut self, txn: TxnId) {
        // The safety net every resolution path already guards (epoch
        // checks, member validation, commit checks): a committed
        // transaction must never be aborted — not by a probe, a wound, a
        // rejection, a scan, or a lease expiry. Violations are engine
        // bugs; the fault-injection property tests run straight into this.
        assert!(
            !self.coords[txn.idx()].committed,
            "aborting committed transaction {txn:?} at tick {}",
            self.now
        );
        let old = self.current(txn);
        self.metrics.aborts += 1;
        self.history.abort(old);
        if self.delegation {
            // Retention: uncontested cached grants survive the restart —
            // re-keyed to the successor epoch at the table, ledger, lease
            // and cache, all synchronously — so the restarted epoch
            // re-acquires them for free. This is where restart-heavy
            // hot-spot workloads earn their cache hits. Contested or
            // draining entries go down with the epoch.
            self.retain_cache_on_abort(txn, old);
            self.coords[txn.idx()].deferred_revokes.clear();
        }
        // Scrub the ledgers, drop waits and release locks at every site.
        for s in 0..self.sites.len() {
            let site_id = SiteId::from_idx(s);
            let site = &mut self.sites[s];
            site.delegations.drop_owner(old);
            site.leases.drop_owner(old);
            site.probe.end_chases_of(txn);
            // Every record of `old`, not only those of the waits cancelled
            // below: a crash wipes the table and keeps `queued`, so a
            // waiter that aborts before it re-requests has a record here
            // and no wait in the table.
            site.queued.retain(|&(inst, _), _| inst != old);
            let cancelled = site.table.cancel_waits(old);
            for &e in &cancelled.cancelled {
                self.audit.touch(site_id, e);
                self.edges_changed(site_id, e);
            }
            for (entity, grants) in cancelled
                .granted
                .into_iter()
                .chain(self.sites[s].table.release_all(old))
            {
                self.audit.touch(site_id, entity);
                self.edges_changed(site_id, entity);
                for (n, _) in grants {
                    self.grant_queued(n, entity);
                }
            }
        }
        // Reset the coordinator for a fresh epoch.
        let c = &mut self.coords[txn.idx()];
        c.epoch += 1;
        c.progress.reset(self.sys.txn(txn));
        // Jittered backoff (seeded, deterministic): without jitter,
        // symmetric workloads can re-collide forever under fixed latencies.
        let jitter = rand::Rng::gen_range(&mut self.rng, 0..=RESTART_BACKOFF);
        self.queue
            .push(self.now + RESTART_BACKOFF + jitter, EventKind::Restart(txn));
    }

    /// The abort-time half of delegated retention: every cache entry of
    /// `old` over an entity that is uncontested (no waiter), not mid-
    /// revocation, and whose site is up, is re-keyed — table hold, ledger
    /// entry, lease and cache entry all move to the successor epoch in
    /// one synchronous step, preserving the lease clock. Everything else
    /// is dropped from the cache (the generic abort path below releases
    /// the holds and scrubs the ledger).
    fn retain_cache_on_abort(&mut self, txn: TxnId, old: Instance) {
        let new = Instance {
            txn,
            epoch: old.epoch + 1,
        };
        let cache = &mut self.coords[txn.idx()].cache;
        let mut entities: Vec<EntityId> = cache.keys().copied().collect();
        entities.sort();
        for e in entities {
            let entry = cache.get_mut(&e).expect("entry present");
            let site = self.sys.db().site_of(e);
            let s = &mut self.sites[site.idx()];
            let retain = entry.inst == old
                && !s.down
                && !entry.revoke_pending
                && !s.delegations.is_revoking(old, e)
                && !s.table.has_waiters(e)
                && s.table.holds(e, old).is_some();
            if !retain {
                cache.remove(&e);
                continue;
            }
            self.audit.touch(site, e);
            let grants = s.table.release(e, old).expect("held, checked above");
            debug_assert!(grants.is_empty(), "uncontested releases grant nobody");
            let granted = s.table.request(e, new, entry.mode).expect("new owner");
            debug_assert_eq!(granted, Acquire::Granted, "re-keying is conflict-free");
            s.delegations.rekey(old, new, e);
            if self.track_leases {
                s.leases.release(old, e);
                s.leases.grant(new, e, entry.mode, entry.lease);
            }
            entry.inst = new;
            entry.in_use = false;
            entry.revoke_pending = false;
        }
    }

    /// A scheduled outage begins: the site's volatile state — lock table
    /// and probe memory — is wiped, and until recovery every delivery to
    /// it is dropped by the event loop. The lease ledger survives (it
    /// models durable grant records / client-held leases), anchoring
    /// recovery — except for delegated *cache residue*, which the crash
    /// clears on **both** sides: the coordinator cache entries die here
    /// (the site that backed them lost its ledger), and delegations whose
    /// owner already recorded its unlock — idle entries and completed
    /// drains — release their leases, so recovery cannot rebuild a hold
    /// that only a dead cache claimed and that nobody would ever release.
    /// Delegations whose lock section may still be open (mid-use, grant
    /// ack in flight, lifecycle gone remote) keep their lease and rebuild
    /// as plain holds, or expire and abort their owner — never silently
    /// vanish, which would let recovery re-grant an entity whose first
    /// holder's committed section is still open.
    fn on_crash(&mut self, site: SiteId) {
        let s = site.idx();
        self.sites[s].down = true;
        self.sites[s].crash_at = self.now;
        self.sites[s].boot = self.sites[s].boot.wrapping_add(1);
        if self.delegation {
            for (inst, e, _lease, _revoking) in self.sites[s].delegations.entries() {
                let t = inst.txn.idx();
                let cache = &mut self.coords[t].cache;
                let cached = match cache.get(&e) {
                    Some(entry) if entry.inst == inst => cache.remove(&e).map(|entry| entry.in_use),
                    _ => None,
                };
                // Keep the lease exactly when the owner's lock section
                // may still be *open* at its coordinator — the lock was
                // granted (and recorded) here, and no unlock has been
                // recorded for it yet. Recovery then rebuilds the hold or
                // aborts the expired owner, either way keeping the
                // committed history exclusive. The section is open when
                // the cached entry is mid-use, when the grant ack (or a
                // deferred revocation) is still in flight — a *lost* ack
                // still granted here — or when a plain re-grant moved the
                // hold's lifecycle remote. It is closed (release the
                // lease, nobody will ever unlock at this table) only for
                // idle residue and completed drains whose ack died with
                // the site: there the unlock is already on record.
                let keep_lease = match cached {
                    Some(in_use) => in_use,
                    None => {
                        !self.stale(inst)
                            && !self.coords[t].committed
                            && (self.lock_in_flight(inst.txn, e)
                                || self.holds_remotely(inst.txn, e)
                                || self.coords[t].deferred_revokes.get(&e) == Some(&inst))
                    }
                };
                if !keep_lease && self.track_leases {
                    self.sites[s].leases.release(inst, e);
                }
            }
            self.sites[s].delegations.clear();
            // Any stray cache entry over this site's entities dies too
            // (defensive: ledger and cache are kept in sync, but a crash
            // must leave no cache claiming a wiped table).
            let sys = self.sys;
            for c in &mut self.coords {
                c.cache.retain(|&e, _| sys.db().site_of(e) != site);
                c.deferred_revokes
                    .retain(|&e, _| sys.db().site_of(e) != site);
            }
        }
        // Every wait edge this site induced goes with its table, and its
        // probe memory with them. Removals cannot create a cycle, so no
        // detector has anything to do here.
        self.sites[s].table = QueueTable::new();
        self.sites[s].probe.clear();
    }

    /// The outage ends. Recovery is three steps, in order:
    ///
    /// 1. **Rebuild** the lock table from the lease ledger: every live,
    ///    current-epoch holder whose [`Lease`] survived the outage is
    ///    re-granted its lock (conflict-free by construction — the ledger
    ///    mirrors a consistent holder set).
    /// 2. **Expire** the rest: a holder whose lease lapsed has lost a
    ///    lock it thinks it holds; running it further would update
    ///    without a covering lock, so it is aborted (counted in
    ///    [`Metrics::leases_expired`]) and restarts with its birth stamp.
    /// 3. **Re-deliver**: every coordinator re-sends its
    ///    issued-but-unacknowledged requests targeting this site — the
    ///    retransmission a real client performs when its server comes
    ///    back, compressed into the recovery tick. Blocked requests
    ///    re-queue, wait edges re-form, and (under Probe) the re-formed
    ///    edges launch fresh probes from the site's cleared edge memory.
    fn on_recover(&mut self, site: SiteId) {
        let s = site.idx();
        if !self.sites[s].down {
            // Defensive only: validation rejects overlapping outages, so
            // every recovery should find its site down.
            return;
        }
        self.sites[s].down = false;
        self.metrics.recoveries += 1;
        let crash_at = self.sites[s].crash_at;
        let ledger = self.sites[s].leases.entries();
        self.sites[s].leases.clear();
        let mut expired: Vec<Instance> = Vec::new();
        for (inst, e, mode, lease) in ledger {
            if self.stale(inst) || self.coords[inst.txn.idx()].committed {
                // The owner moved on while the site was down (aborted
                // elsewhere, or committed after its release was already
                // processed here pre-crash); its lease is garbage.
                continue;
            }
            if lease.survives_outage(crash_at, self.now) {
                let granted = self.sites[s]
                    .table
                    .request(e, inst, mode)
                    .expect("a wiped table has no queue to be in");
                debug_assert_eq!(granted, Acquire::Granted, "the ledger is conflict-free");
                self.note_grant(site, inst, e);
            } else {
                self.metrics.leases_expired += 1;
                expired.push(inst);
            }
        }
        expired.sort();
        expired.dedup();
        for inst in expired {
            if !self.stale(inst) {
                self.abort(inst.txn);
            }
        }
        for t in 0..self.sys.len() {
            let txn = TxnId::from_idx(t);
            if self.coords[t].committed {
                continue;
            }
            let pending: Vec<usize> = self.coords[t]
                .progress
                .pending()
                .filter(|&v| {
                    let e = self.sys.txn(txn).step(StepId::from_idx(v)).entity;
                    self.sys.db().site_of(e) == site
                })
                .collect();
            for v in pending {
                self.send_step(txn, v);
            }
        }
    }

    /// The coordinator retransmission timer fired: if the tagged epoch is
    /// still current and uncommitted, re-send every
    /// issued-but-unacknowledged step request (sites handle the
    /// duplicates idempotently) and re-arm. A stale epoch's timer dies
    /// here; the Restart handler armed a new one for the successor.
    fn on_retransmit(&mut self, txn: TxnId, epoch: u32) {
        let c = &self.coords[txn.idx()];
        if c.epoch != epoch || c.committed {
            return;
        }
        let pending: Vec<usize> = c.progress.pending().collect();
        for v in pending {
            self.send_step(txn, v);
        }
        self.queue.push(
            self.now + self.cfg.faults.retransmit_after,
            EventKind::RetransmitCheck(txn, epoch),
        );
    }

    /// The [`SimConfig::invariant_audit`] harness, run after every event
    /// that can mutate a table — site events, coordinator events (whose
    /// aborts release locks at every site) and deadlock scans: panics if
    /// an entity the event touched violates its table's invariants (any
    /// pairwise-incompatible co-held mode pair under the full
    /// compatibility matrix — `S`+`X`, `S`+`IX`, `X`+anything —, a
    /// non-holder upgrader, a pending upgrade its holder already covers,
    /// an owner both holding and waiting, an index out of step), so a
    /// violation names the exact tick it first became observable. An
    /// event's audit costs what the event touched; the whole-table sweep
    /// follows every [`FULL_SWEEP_EVERY`]th one — and, in debug builds,
    /// every one, which is how the test suites hold the touched list to
    /// having left nothing out.
    fn audit_touched(&mut self) {
        if !self.audit.on {
            return;
        }
        for &(site, e) in &self.audit.touched {
            if let Err(err) = self.sites[site.idx()].table.check_entity(e) {
                self.violated(site.idx(), &err);
            }
        }
        self.audit.touched.clear();
        self.audit.events += 1;
        if self.audit.events.is_multiple_of(FULL_SWEEP_EVERY) {
            self.audit_sweep();
        } else {
            debug_assert_eq!(
                self.sweep(),
                Ok(()),
                "tick {}: the sweep sees what the touched entities' checks missed",
                self.now
            );
        }
    }

    /// The whole-table half of the harness: every site's
    /// [`QueueTable::check_invariants`], which also answers for anything
    /// on the touched list.
    fn audit_sweep(&mut self) {
        if !self.audit.on {
            return;
        }
        self.audit.touched.clear();
        if let Err((s, err)) = self.sweep() {
            self.violated(s, &err);
        }
    }

    /// The first site whose table fails its sweep, with the complaint.
    fn sweep(&self) -> Result<(), (usize, String)> {
        let check = |(s, site): (usize, &Site)| site.table.check_invariants().map_err(|e| (s, e));
        self.sites.iter().enumerate().try_for_each(check)
    }

    fn violated(&self, site: usize, err: &str) -> ! {
        panic!(
            "lock-table invariant violated at site {site} tick {}: {err}",
            self.now
        );
    }

    /// The end-of-run audit: one last sweep, and after a completed run
    /// nothing may be left behind — no site still remembers a queued
    /// request, and, unless delegated caches keep their collateral
    /// ([`Delegation::On`]), every table is idle.
    fn audit_end(&mut self, outcome: RunOutcome) {
        self.audit_sweep();
        if !self.audit.on || outcome != RunOutcome::Completed {
            return;
        }
        for (s, site) in self.sites.iter().enumerate() {
            assert!(
                site.queued.is_empty(),
                "site {s} ends a completed run with {} queued-request records",
                site.queued.len()
            );
            assert!(
                self.delegation || site.table.is_idle(),
                "site {s} ends a completed run holding {:?}",
                site.table.active_entities()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatencyModel;
    use kplock_model::{Database, TxnBuilder};
    use proptest::prelude::*;

    /// The construction [`find_wait_cycle`] replaced, kept as the oracle:
    /// a node per transaction, every live edge added by transaction index.
    fn find_wait_cycle_over_all(
        k: usize,
        edges: &[(Instance, Instance)],
        live: impl Fn(Instance) -> bool,
    ) -> Option<Vec<usize>> {
        let mut g = DiGraph::new(k);
        for &(w, h) in edges {
            if live(w) && live(h) {
                g.add_edge(w.txn.idx(), h.txn.idx());
            }
        }
        kplock_graph::find_cycle(&g)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random wait-for edge lists over 2–64 transactions: planted
        /// disjoint rings, random edges, duplicates, and either end of an
        /// edge stale with a probability that also yields lists with no
        /// live edge at all.
        #[test]
        fn compact_scan_graph_finds_the_full_graphs_cycle(
            seed in any::<u64>(),
            k in 2usize..=64,
            stale_percent in 0u32..=100,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let epochs: Vec<u32> = (0..k).map(|_| rng.gen_range(0..3u32)).collect();
            let inst = |t: usize, rng: &mut StdRng| Instance {
                txn: TxnId::from_idx(t),
                epoch: if rng.gen_range(0..100u32) < stale_percent / 4 {
                    epochs[t] + 1
                } else {
                    epochs[t]
                },
            };
            let mut edges: Vec<(Instance, Instance)> = Vec::new();
            for _ in 0..rng.gen_range(0..=3u32) {
                let len = rng.gen_range(1..=k.min(6));
                let start = rng.gen_range(0..=k - len);
                for i in 0..len {
                    let (w, h) = (start + i, start + (i + 1) % len);
                    edges.push((inst(w, &mut rng), inst(h, &mut rng)));
                }
            }
            for _ in 0..rng.gen_range(0..=2 * k) {
                let e = (inst(rng.gen_range(0..k), &mut rng), inst(rng.gen_range(0..k), &mut rng));
                edges.push(e);
                if rng.gen_bool(0.2) {
                    edges.push(e);
                }
            }
            for i in (1..edges.len()).rev() {
                edges.swap(i, rng.gen_range(0..=i));
            }
            if stale_percent == 100 {
                for (w, _) in &mut edges {
                    w.epoch += 5;
                }
            }

            let live = |i: Instance| epochs[i.txn.idx()] == i.epoch;
            let mut slot = vec![UNSEEN; k];
            let cycle = find_wait_cycle(&edges, live, &mut slot);
            prop_assert_eq!(cycle, find_wait_cycle_over_all(k, &edges, live));
            prop_assert!(slot.iter().all(|&s| s == UNSEEN));
        }
    }

    fn pair(s1: &str, s2: &str, spec: &[(&str, usize)]) -> TxnSystem {
        let db = Database::from_spec(spec);
        let mut b1 = TxnBuilder::new(&db, "T1");
        b1.script(s1).unwrap();
        let t1 = b1.build().unwrap();
        let mut b2 = TxnBuilder::new(&db, "T2");
        b2.script(s2).unwrap();
        let t2 = b2.build().unwrap();
        TxnSystem::new(db, vec![t1, t2])
    }

    #[test]
    fn runs_non_conflicting_pair() {
        let sys = pair("Lx x Ux", "Ly y Uy", &[("x", 0), ("y", 1)]);
        let r = run(&sys, &SimConfig::default()).unwrap();
        assert!(r.finished());
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert!(!r.timed_out());
        assert_eq!(r.metrics.committed, 2);
        assert_eq!(r.metrics.aborts, 0);
        r.audit.legal.as_ref().unwrap();
        assert!(r.audit.serializable);
    }

    #[test]
    fn serializes_conflicting_pair_via_locks() {
        let sys = pair("Lx x Ux", "Lx x Ux", &[("x", 0)]);
        let r = run(&sys, &SimConfig::default()).unwrap();
        assert!(r.finished());
        assert!(r.audit.serializable);
        assert!(r.metrics.lock_wait_ticks > 0 || r.metrics.committed == 2);
    }

    #[test]
    fn resolves_deadlock_and_commits() {
        // Opposite-order two-phase: guaranteed deadlock under fixed latency.
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 0)]);
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            ..Default::default()
        };
        let r = run(&sys, &cfg).unwrap();
        assert!(r.finished(), "deadlock resolution must unblock the run");
        assert!(r.metrics.deadlocks_resolved >= 1);
        assert!(r.metrics.aborts >= 1);
        r.audit.legal.as_ref().unwrap();
        assert!(r.audit.serializable, "2PL commits are serializable");
    }

    #[test]
    fn empty_transaction_commits_on_arrival() {
        // Nothing is ever issued or acknowledged for a transaction with
        // no steps; it used to stay uncommitted until `max_time` under
        // periodic detection and stall the prevention arms.
        use crate::config::DeadlockResolution;
        let db = Database::from_spec(&[("x", 0)]);
        let mut b = TxnBuilder::new(&db, "T1");
        b.script("Lx x Ux").unwrap();
        let t1 = b.build().unwrap();
        let empty = kplock_model::Transaction::new("T2", vec![], []).unwrap();
        let sys = TxnSystem::new(db, vec![t1, empty]);
        for resolution in [
            DeadlockResolution::default(),
            PreventionScheme::WoundWait.into(),
        ] {
            let cfg = SimConfig {
                resolution,
                ..Default::default()
            };
            for arrivals in [[0, 0], [3, 700]] {
                let r = run_with_arrivals(&sys, &cfg, &arrivals).unwrap();
                assert_eq!(r.outcome, RunOutcome::Completed, "{resolution:?}");
                assert_eq!(r.metrics.committed, 2);
                assert_eq!(r.committed_epoch, vec![Some(0), Some(0)]);
                assert_eq!(r.metrics.makespan, arrivals[1].max(arrivals[0] + 60));
                r.audit.legal.as_ref().unwrap();
                assert!(r.audit.serializable);
            }
        }
    }

    #[test]
    fn invalid_latency_range_is_a_typed_error_not_a_panic() {
        let sys = pair("Lx x Ux", "Ly y Uy", &[("x", 0), ("y", 1)]);
        let cfg = SimConfig {
            latency: LatencyModel::Uniform(30, 3),
            ..Default::default()
        };
        // Before validation existed this panicked mid-run inside
        // `rand::gen_range` on the first message send.
        assert_eq!(
            run(&sys, &cfg).unwrap_err(),
            ConfigError::EmptyLatencyRange { lo: 30, hi: 3 }
        );
    }

    #[test]
    fn max_time_exhaustion_is_reported_as_timeout() {
        // A run that cannot finish in the budget: latency alone exceeds
        // max_time, and the periodic scan keeps the queue alive, so the
        // old report would have quietly said "not finished" with no cause.
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 0)]);
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(40),
            max_time: 60,
            deadlock_scan_interval: 25,
            ..Default::default()
        };
        let r = run(&sys, &cfg).unwrap();
        assert!(!r.finished());
        assert_eq!(r.outcome, RunOutcome::TimedOut);
        assert!(r.timed_out());
        assert_eq!(r.metrics.committed, 0);
        // In-flight transactions publish no commit epoch — the report
        // cannot be misread as "committed at its current epoch".
        assert_eq!(r.committed_epoch, vec![None, None]);
        // The same system with the default budget completes.
        let r = run(
            &sys,
            &SimConfig {
                latency: LatencyModel::Fixed(40),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.outcome, RunOutcome::Completed);
    }

    #[test]
    fn livelock_shaped_run_times_out_rather_than_lying() {
        // Opposite-order deadlock and a budget that ends mid-churn: the
        // victim has aborted and one transaction even committed, but the
        // run is *not* done — the old report was indistinguishable from a
        // clean completion here (committed count aside), the outcome now
        // says TimedOut explicitly.
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 0)]);
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            max_time: 100,
            deadlock_scan_interval: 10,
            ..Default::default()
        };
        let r = run(&sys, &cfg).unwrap();
        assert!(!r.finished());
        assert_eq!(r.outcome, RunOutcome::TimedOut);
        assert!(r.timed_out());
        assert_eq!(r.metrics.committed, 1, "cut off with work in flight");
        assert!(r.metrics.aborts >= 1, "the deadlock did churn first");
        // Ten more ticks of budget and the same run completes cleanly.
        let r = run(
            &sys,
            &SimConfig {
                max_time: 120,
                ..cfg
            },
        )
        .unwrap();
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.metrics.committed, 2);
    }

    #[test]
    fn on_block_detection_resolves_deadlocks_immediately() {
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 0)]);
        let periodic = SimConfig {
            latency: LatencyModel::Fixed(5),
            ..Default::default()
        };
        let onblock = SimConfig {
            resolution: crate::config::DeadlockDetection::OnBlock.into(),
            ..periodic.clone()
        };
        let rp = run(&sys, &periodic).unwrap();
        let rb = run(&sys, &onblock).unwrap();
        assert!(rp.finished() && rb.finished());
        assert!(rb.metrics.deadlocks_resolved >= 1);
        assert!(rb.audit.serializable);
        // The periodic scan waits out the scan interval before resolving;
        // on-block detection fires the moment the cycle forms.
        assert!(
            rb.metrics.makespan < rp.metrics.makespan,
            "on-block {} vs periodic {}",
            rb.metrics.makespan,
            rp.metrics.makespan
        );
        // Determinism holds in OnBlock mode too.
        let rb2 = run(&sys, &onblock).unwrap();
        assert_eq!(rb.metrics, rb2.metrics);
    }

    #[test]
    fn probe_detection_resolves_the_guaranteed_deadlock() {
        // Same guaranteed cycle, but x and y on different sites so the
        // probe must actually cross the network. No global wait-for graph
        // is consulted anywhere on this path.
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 1)]);
        let base = SimConfig {
            latency: LatencyModel::Fixed(5),
            invariant_audit: true,
            ..Default::default()
        };
        let probe = SimConfig {
            resolution: DeadlockDetection::Probe.into(),
            ..base.clone()
        };
        let periodic = SimConfig {
            resolution: DeadlockDetection::Periodic.into(),
            ..base.clone()
        };
        let rp = run(&sys, &probe).unwrap();
        let rs = run(&sys, &periodic).unwrap();
        assert_eq!(rp.outcome, RunOutcome::Completed);
        assert!(rp.metrics.deadlocks_resolved >= 1);
        assert!(rp.metrics.aborts >= 1);
        assert!(rp.audit.serializable);
        assert_eq!(rp.metrics.phantom_probe_aborts, 0);
        // Distributed detection pays in messages and latency the
        // centralized scan never sees.
        assert!(rp.metrics.probe_messages > 0, "probes must cross sites");
        assert!(rp.metrics.detection_latency_ticks > 0);
        // Same victim as the global scan (same policy, same cycle): the
        // committed/aborted sets agree even though ticks differ.
        assert_eq!(rp.metrics.committed, rs.metrics.committed);
        let aborted = |r: &SimReport| -> Vec<usize> {
            r.committed_epoch
                .iter()
                .enumerate()
                .filter(|&(_, &e)| e.is_some_and(|ep| ep > 0))
                .map(|(i, _)| i)
                .collect()
        };
        assert_eq!(aborted(&rp), aborted(&rs));
        // Determinism.
        let rp2 = run(&sys, &probe).unwrap();
        assert_eq!(rp.metrics, rp2.metrics);
    }

    #[test]
    fn probe_detection_handles_single_site_cycles_locally() {
        // Both entities at one site: the chase closes without leaving the
        // site, so detection costs no probe messages — only the abort
        // order crosses the network.
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 0)]);
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            resolution: DeadlockDetection::Probe.into(),
            invariant_audit: true,
            ..Default::default()
        };
        let r = run(&sys, &cfg).unwrap();
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert!(r.metrics.deadlocks_resolved >= 1);
        assert_eq!(r.metrics.probe_messages, 0, "local cycles need no wire");
        assert_eq!(r.metrics.phantom_probe_aborts, 0);
        assert!(r.audit.serializable);
    }

    #[test]
    fn probe_detection_survives_grant_retargeting_sweep() {
        // The cycle-at-release scenario that once only OnBlock was tested
        // against: every arrival timing must finish under probes too, and
        // agree with the periodic scan on what committed.
        let db = Database::from_spec(&[("x", 0), ("y", 1)]);
        let mut b1 = TxnBuilder::new(&db, "T1");
        b1.script("Lx x Ux").unwrap();
        b1.script("Ly y Uy").unwrap(); // parallel chain: no cross edge
        let t1 = b1.build().unwrap();
        let mut b2 = TxnBuilder::new(&db, "T2");
        b2.script("Ly Lx y x Uy Ux").unwrap();
        let t2 = b2.build().unwrap();
        let mut b3 = TxnBuilder::new(&db, "T3");
        b3.script("Lx x Ux").unwrap();
        let t3 = b3.build().unwrap();
        let sys = TxnSystem::new(db, vec![t1, t2, t3]);
        let mut deadlocks = 0;
        for a1 in 0..4u64 {
            for a2 in 0..4u64 {
                for a3 in 0..4u64 {
                    let arrivals = vec![a1 * 3, a2 * 3, a3 * 3];
                    let periodic = SimConfig {
                        latency: LatencyModel::Fixed(5),
                        ..Default::default()
                    };
                    let probe = SimConfig {
                        resolution: DeadlockDetection::Probe.into(),
                        ..periodic.clone()
                    };
                    let rp = run_with_arrivals(&sys, &periodic, &arrivals).unwrap();
                    let rb = run_with_arrivals(&sys, &probe, &arrivals).unwrap();
                    assert!(rp.finished(), "periodic hung at {arrivals:?}");
                    assert!(
                        rb.finished(),
                        "probe hung at {arrivals:?}: {:?}",
                        rb.outcome
                    );
                    assert!(rb.audit.serializable);
                    deadlocks += rb.metrics.deadlocks_resolved;
                }
            }
        }
        assert!(deadlocks > 0, "sweep never provoked a deadlock");
    }

    /// The smallest deadlock a marked search alone cannot resolve, and the
    /// reason abort orders re-chase (`probe.rs` module doc, rule 5).
    ///
    /// Five transactions, one entity a site. `C` holds `q` and waits for
    /// `p`, held by `W`; `A` and `B` share a read lock on `m` and both
    /// queue for `q`; `H` holds `t` and wants `m` for itself, so it waits
    /// on both readers. All of that is in place by tick 25, and every
    /// search those edges launch dies at `W`, which waits for nothing.
    /// `W` then asks for `t` at tick 55, and that one edge closes two
    /// cycles at once:
    ///
    /// ```text
    ///            ┌─► A ─┐
    ///   W ─► H ──┤      ├─► C ─► W
    ///            └─► B ─┘
    /// ```
    ///
    /// The search from `W` reaches `C` twice, at `q`'s site, and sends it
    /// on once: the second path is a duplicate by the marks, which is what
    /// bounds the search. One cycle is reported, its victim — the youngest
    /// member, `A` or `B`, whichever path won — aborts, and the other
    /// cycle is still there: `W → H → (the other) → C → W`, every edge of
    /// it older than the search that passed over it. No edge of it is new,
    /// so nothing ever chases it again: with marks alone the run stalls.
    /// Enumeration never had this problem — it walked both paths — and it
    /// is what the re-chase puts back at a bounded price: the victim's
    /// coordinator, having executed the order, starts the next generation
    /// of the same search from `W`, which walks what is left, finds the
    /// second cycle and orders its victim aborted.
    ///
    /// Why that is enough in general: a cycle that stays intact has a
    /// last-formed edge, whose waiter `w` launched a search when it
    /// appeared. Every member of the cycle is reachable from `w` in that
    /// search and in every later generation of it, so the member waiting
    /// on `w` is examined at the site of that wait and each generation
    /// reports some cycle through `w`. Its order is either executed — a
    /// real cycle loses a member — or dropped because a path member moved
    /// on; either way the coordinator that received it launches the next
    /// generation while `w` is live, and the chain ends only when `w`
    /// aborts or commits or a generation finds no way back to `w`.
    #[test]
    fn one_edge_closing_two_cycles_needs_the_re_chase() {
        let db = Database::from_spec(&[("p", 0), ("q", 1), ("m", 2), ("t", 3)]);
        let txn = |name: &str, script: &str| {
            let mut b = TxnBuilder::new(&db, name);
            b.script(script).unwrap();
            b.build().unwrap()
        };
        let sys = TxnSystem::new(
            db.clone(),
            vec![
                // Four updates of p keep W busy until every earlier search
                // has died: its request for t is the last edge by 30 ticks.
                txn("W", "Lp p p p p Lt t Ut Up"),
                txn("H", "Lt t Lm m Um Ut"),
                txn("C", "Lq q Lp p Up Uq"),
                txn("A", "SLm Lq q Uq Um"),
                txn("B", "SLm Lq q Uq Um"),
            ],
        );
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            resolution: DeadlockDetection::Probe.into(),
            invariant_audit: true,
            ..Default::default()
        };
        let arrivals = vec![0; sys.len()];

        let alone = run_observed(&sys, &cfg, &arrivals, |eng| eng.marks_alone = true).unwrap();
        assert_eq!(alone.outcome, RunOutcome::Stalled, "marks alone");
        assert_eq!(alone.metrics.deadlocks_resolved, 1);
        assert_eq!(alone.metrics.probe_closes, 1, "one path to C, one close");

        let r = run(&sys, &cfg).unwrap();
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.metrics.committed, 5);
        assert_eq!(r.metrics.deadlocks_resolved, 2, "one abort per cycle");
        assert_eq!(r.metrics.phantom_probe_aborts, 0);
        assert!(r.audit.serializable);
        // Both A and B restarted once; nobody else did.
        let epochs: Vec<u32> = r.committed_epoch.iter().map(|e| e.unwrap()).collect();
        assert_eq!(epochs, [0, 0, 0, 1, 1]);
    }

    #[test]
    fn stale_unlock_after_abort_is_ignored() {
        // The race the epoch check at `on_site` exists for. T2 runs two
        // parallel chains: it holds b and has its *release of b in
        // flight* while blocked on x; T1 holds x and queues for b. For
        // ten ticks the site tables show the cycle T1→T2→T1 (the scan
        // cannot know b's release is already on the wire), the scan fires
        // inside that window and aborts T2 — freeing b a second time,
        // handing it to T1 — and then T2's stale UnlockRequest lands at a
        // table where T2 holds nothing. Without the epoch check the table
        // panics "release by non-holder"; with it the message is ignored
        // and the run completes. (A *phantom* deadlock: distributed
        // detection killing a transaction that was already getting out of
        // the way.)
        let db = Database::from_spec(&[("x", 0), ("b", 1)]);
        let mut b1 = TxnBuilder::new(&db, "T1");
        b1.script("Lx x Lb b Ub Ux").unwrap();
        let t1 = b1.build().unwrap();
        let mut b2 = TxnBuilder::new(&db, "T2");
        b2.script("Lb b b Ub").unwrap(); // extra update delays the unlock
        b2.script("Lx x Ux").unwrap(); // parallel chain blocks on x
        let t2 = b2.build().unwrap();
        let sys = TxnSystem::new(db, vec![t1, t2]);
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            deadlock_scan_interval: 7,
            ..Default::default()
        };
        let r = run(&sys, &cfg).unwrap();
        assert!(r.finished(), "stale release must not wedge the run");
        // The window really opened: the scan saw the transient cycle and
        // aborted, so a dead-epoch unlock was in flight at that moment.
        assert!(
            r.metrics.deadlocks_resolved >= 1,
            "scenario must trigger the phantom-deadlock window"
        );
        assert!(r.metrics.aborts >= 1);
        r.audit.legal.as_ref().unwrap();
        assert!(r.audit.serializable);
        // Same race under probe detection, where abort orders also travel
        // the network and widen the window.
        let probe = SimConfig {
            resolution: DeadlockDetection::Probe.into(),
            ..cfg
        };
        let r = run(&sys, &probe).unwrap();
        assert!(r.finished());
        assert!(r.audit.serializable);
    }

    #[test]
    fn prevention_schemes_resolve_the_guaranteed_deadlock_without_detection() {
        use crate::config::PreventionScheme;
        // The opposite-order pair that deadlocks under every detection
        // scheme. Prevention must complete it with *zero* detected
        // deadlocks, zero probe traffic, and at least one prevention
        // restart — the whole resolution cost moved to the restart side.
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 1)]);
        for scheme in [
            PreventionScheme::WoundWait,
            PreventionScheme::WaitDie,
            PreventionScheme::NoWait,
        ] {
            let cfg = SimConfig {
                latency: LatencyModel::Fixed(5),
                resolution: scheme.into(),
                ..Default::default()
            };
            let r = run(&sys, &cfg).unwrap();
            assert_eq!(r.outcome, RunOutcome::Completed, "{scheme:?}");
            assert_eq!(r.metrics.committed, 2);
            assert_eq!(
                r.metrics.deadlocks_resolved, 0,
                "{scheme:?} detects nothing"
            );
            assert_eq!(r.metrics.probe_messages, 0);
            assert_eq!(r.metrics.detection_latency_ticks, 0);
            assert!(r.metrics.prevention_restarts >= 1, "{scheme:?}");
            assert_eq!(
                r.metrics.aborts, r.metrics.prevention_restarts,
                "every abort under prevention is a prevention restart"
            );
            r.audit.legal.as_ref().unwrap();
            assert!(r.audit.serializable, "{scheme:?}");
            // Deterministic like every other scheme.
            let r2 = run(&sys, &cfg).unwrap();
            assert_eq!(r.metrics, r2.metrics);
            assert_eq!(r.committed_epoch, r2.committed_epoch);
        }
    }

    #[test]
    fn prevention_victims_follow_the_timestamp_order() {
        use crate::config::PreventionScheme;
        // Births are (arrival, index) = (0,0) and (0,1): T1 is older. In
        // wound-wait T1 wounds T2 on conflict; in wait-die T2 dies when it
        // requests against T1. Either way the *younger* transaction is the
        // one that restarts, and the elder commits at epoch 0.
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 0)]);
        for scheme in [PreventionScheme::WoundWait, PreventionScheme::WaitDie] {
            let cfg = SimConfig {
                latency: LatencyModel::Fixed(5),
                resolution: scheme.into(),
                ..Default::default()
            };
            let r = run(&sys, &cfg).unwrap();
            assert!(r.finished(), "{scheme:?}");
            assert_eq!(
                r.committed_epoch[0],
                Some(0),
                "the elder is never restarted"
            );
            assert!(
                r.committed_epoch[1].unwrap() >= 1,
                "the younger pays the restart"
            );
        }
    }

    fn many(scripts: &[&str], spec: &[(&str, usize)]) -> TxnSystem {
        let db = Database::from_spec(spec);
        let txns = scripts
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut b = TxnBuilder::new(&db, format!("T{}", i + 1));
                b.script(s).unwrap();
                b.build().unwrap()
            })
            .collect();
        TxnSystem::new(db, txns)
    }

    #[test]
    fn avoid_certified_set_runs_clean_of_all_deadlock_machinery() {
        use crate::config::{AvoidPlan, DeadlockResolution};
        // Three transactions, all locking in ascending entity order: the
        // whole set certifies, so the run must show *zero* traces of any
        // deadlock handling — no resolutions, no restarts, no probes, no
        // aborts of any kind — while committing serializably.
        let sys = many(
            &["Lx Ly x y Ux Uy", "Lx Ly x y Ux Uy", "Ly Lz y z Uy Uz"],
            &[("x", 0), ("y", 1), ("z", 2)],
        );
        let plan = AvoidPlan::synthesize(&sys);
        assert!(plan.fully_certified());
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            resolution: DeadlockResolution::Avoid,
            avoid: Some(plan),
            invariant_audit: true,
            ..Default::default()
        };
        let r = run(&sys, &cfg).unwrap();
        assert!(r.finished());
        assert_eq!(r.metrics.deadlocks_resolved, 0);
        assert_eq!(r.metrics.prevention_restarts, 0);
        assert_eq!(r.metrics.probe_messages, 0);
        assert_eq!(r.metrics.aborts, 0, "certified transactions never abort");
        assert_eq!(r.metrics.avoid_certified, 3);
        assert_eq!(r.metrics.avoid_fallbacks, 0);
        r.audit.legal.as_ref().unwrap();
        assert!(r.audit.serializable);
        // Deterministic like every other arm.
        let r2 = run(&sys, &cfg).unwrap();
        assert_eq!(r.metrics, r2.metrics);
    }

    #[test]
    fn avoid_mixed_set_shields_the_certified_and_meters_the_rest() {
        use crate::config::{AvoidPlan, DeadlockResolution};
        // The guaranteed deadlock pair: T1 certifies, T2 opposes the lock
        // order and falls back to wound-wait. No cycle may ever form, the
        // certified transaction must never restart, and the fallback's
        // restarts are accounted as prevention restarts.
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 0)]);
        let plan = AvoidPlan::synthesize(&sys);
        assert!(plan.is_certified(TxnId(0)) && !plan.is_certified(TxnId(1)));
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            resolution: DeadlockResolution::Avoid,
            avoid: Some(plan),
            invariant_audit: true,
            ..Default::default()
        };
        let r = run(&sys, &cfg).unwrap();
        assert!(r.finished());
        assert_eq!(r.metrics.deadlocks_resolved, 0, "no cycle ever forms");
        assert_eq!(r.metrics.avoid_certified, 1);
        assert_eq!(r.metrics.avoid_fallbacks, 1);
        assert_eq!(
            r.committed_epoch[0],
            Some(0),
            "the certified transaction is never wounded"
        );
        assert_eq!(
            r.metrics.aborts, r.metrics.prevention_restarts,
            "every avoid-arm abort is a fallback restart"
        );
        r.audit.legal.as_ref().unwrap();
        assert!(r.audit.serializable);
    }

    #[test]
    fn avoid_rejects_missing_and_mismatched_plans() {
        use crate::config::{AvoidPlan, DeadlockResolution};
        let sys = pair("Lx x Ux", "Lx x Ux", &[("x", 0)]);
        // Absent plan: typed error from validation, not a mid-run panic.
        let cfg = SimConfig {
            resolution: DeadlockResolution::Avoid,
            ..Default::default()
        };
        assert_eq!(run(&sys, &cfg).unwrap_err(), ConfigError::AvoidWithoutPlan);
        // A plan synthesized for a different transaction set is refused
        // before the engine starts.
        let other = pair("Lx x Ux", "Lx x Ux", &[("x", 0), ("y", 0)]);
        let mut three = other.txns().to_vec();
        three.push(three[0].clone());
        let other = TxnSystem::new(other.db().clone(), three);
        let cfg = SimConfig {
            resolution: DeadlockResolution::Avoid,
            avoid: Some(AvoidPlan::synthesize(&other)),
            ..Default::default()
        };
        assert_eq!(
            run(&sys, &cfg).unwrap_err(),
            ConfigError::AvoidPlanMismatch {
                plan_txns: 3,
                system_txns: 2
            }
        );
    }

    #[test]
    fn prevention_handles_shared_modes() {
        use crate::config::PreventionScheme;
        // Two shared readers coexist without consulting timestamps; an
        // exclusive writer conflicts and the scheme decides.
        let sys = pair("SLx rx Ux", "SLx rx Ux", &[("x", 0)]);
        for scheme in [
            PreventionScheme::WoundWait,
            PreventionScheme::WaitDie,
            PreventionScheme::NoWait,
        ] {
            let cfg = SimConfig {
                latency: LatencyModel::Fixed(5),
                resolution: scheme.into(),
                ..Default::default()
            };
            let r = run(&sys, &cfg).unwrap();
            assert!(r.finished());
            assert_eq!(r.metrics.prevention_restarts, 0, "S+S never conflicts");
            assert_eq!(r.metrics.lock_wait_ticks, 0);
            assert!(r.audit.serializable);
        }
    }

    #[test]
    fn timed_out_run_reports_elapsed_budget_not_last_commit() {
        // Same cutoff scenario as above: one commit early, then churn
        // until max_time. Throughput must be charged the full budget.
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 0)]);
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            max_time: 100,
            deadlock_scan_interval: 10,
            ..Default::default()
        };
        let r = run(&sys, &cfg).unwrap();
        assert_eq!(r.outcome, RunOutcome::TimedOut);
        assert_eq!(r.metrics.elapsed_ticks, cfg.max_time);
        assert!(r.metrics.makespan < r.metrics.elapsed_ticks);
        let honest = r.metrics.throughput_per_kilotick();
        let inflated = r.metrics.committed as f64 * 1000.0 / r.metrics.makespan as f64;
        assert!(honest < inflated, "the unproductive tail must count");
        // A completed run's elapsed time *is* its makespan — the old
        // reading, unchanged.
        let r = run(
            &sys,
            &SimConfig {
                max_time: 10_000,
                ..cfg
            },
        )
        .unwrap();
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.metrics.elapsed_ticks, r.metrics.makespan);
    }

    #[test]
    fn shared_readers_run_without_waiting() {
        // Two pure readers of x under shared locks: no queueing at all.
        let sys = pair("SLx rx Ux", "SLx rx Ux", &[("x", 0)]);
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            ..Default::default()
        };
        let r = run(&sys, &cfg).unwrap();
        assert!(r.finished());
        assert_eq!(r.metrics.lock_wait_ticks, 0, "S+S never queues");
        r.audit.legal.as_ref().unwrap(); // overlapping S sections are legal
        assert!(r.audit.serializable);
        // The same pair with exclusive locks serializes by waiting.
        let sys = pair("Lx x Ux", "Lx x Ux", &[("x", 0)]);
        let r = run(&sys, &cfg).unwrap();
        assert!(r.metrics.lock_wait_ticks > 0, "X+X must queue");
    }

    #[test]
    fn reader_writer_mix_is_serializable() {
        // One reader, one writer of x; plus a disjoint write each.
        let sys = pair(
            "SLx rx Ux Ly y Uy",
            "Lx x Ux Lz z Uz",
            &[("x", 0), ("y", 0), ("z", 1)],
        );
        for seed in 0..20 {
            let cfg = SimConfig {
                latency: LatencyModel::Uniform(1, 20),
                seed,
                ..Default::default()
            };
            let r = run(&sys, &cfg).unwrap();
            assert!(r.finished());
            r.audit.legal.as_ref().unwrap();
            assert!(r.audit.serializable);
        }
    }

    #[test]
    fn crash_scheduled_for_unknown_site_is_a_typed_error() {
        use crate::fault::{FaultPlan, FaultPlanError, SiteCrash};
        let sys = pair("Lx x Ux", "Ly y Uy", &[("x", 0), ("y", 1)]);
        let cfg = SimConfig {
            faults: FaultPlan {
                crashes: vec![SiteCrash {
                    site: 5,
                    at: 10,
                    down_for: 10,
                }],
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        assert_eq!(
            run(&sys, &cfg).unwrap_err(),
            ConfigError::BadFaultPlan(FaultPlanError::CrashSiteOutOfRange { site: 5, sites: 2 })
        );
    }

    #[test]
    fn lossy_channels_with_retransmission_still_commit_everything() {
        use crate::fault::FaultPlan;
        // Heavy loss on every channel; retransmission recovers each lost
        // request or acknowledgement. The committed set must equal the
        // fault-free run's, and the audit must stay clean.
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 1)]);
        for seed in 0..10 {
            let cfg = SimConfig {
                latency: LatencyModel::Fixed(5),
                invariant_audit: true,
                faults: FaultPlan::lossy(seed, 0.3, 0.1, 0.1),
                max_time: 500_000,
                ..Default::default()
            };
            let r = run(&sys, &cfg).unwrap();
            assert_eq!(r.outcome, RunOutcome::Completed, "fault seed {seed}");
            assert_eq!(r.metrics.committed, 2);
            assert!(r.metrics.messages_dropped > 0, "loss must actually bite");
            r.audit.legal.as_ref().unwrap();
            assert!(r.audit.serializable);
            // Faulty runs replay bit-identically too (two seeded RNGs).
            let r2 = run(&sys, &cfg).unwrap();
            assert_eq!(r.metrics, r2.metrics);
            assert_eq!(r.committed_epoch, r2.committed_epoch);
        }
    }

    #[test]
    fn duplication_only_plans_are_absorbed_idempotently() {
        use crate::fault::FaultPlan;
        // Every message duplicated, nothing lost: each handler sees each
        // payload twice and must absorb the second copy — the committed
        // set, legality and serializability all match the fault-free run.
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 1)]);
        let clean = run(
            &sys,
            &SimConfig {
                latency: LatencyModel::Fixed(5),
                ..Default::default()
            },
        )
        .unwrap();
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            invariant_audit: true,
            faults: FaultPlan {
                duplication: 1.0,
                reorder_window: 6,
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        let r = run(&sys, &cfg).unwrap();
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.metrics.committed, clean.metrics.committed);
        assert!(r.metrics.messages_duplicated > 0);
        assert_eq!(r.metrics.messages_dropped, 0);
        r.audit.legal.as_ref().unwrap();
        assert!(r.audit.serializable);
    }

    #[test]
    fn crash_recovery_rebuilds_surviving_holders_and_completes() {
        use crate::fault::{FaultPlan, SiteCrash};
        // Site 0 crashes mid-run and comes back 30 ticks later with
        // unbounded leases: every holder is rebuilt, every in-flight
        // request re-delivered, and the run completes without a single
        // lease expiry. Retransmission is ON so requests dropped during
        // the outage are retried even when the recovery re-delivery's
        // own messages are unlucky.
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 1)]);
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            invariant_audit: true,
            faults: FaultPlan {
                retransmit_after: 100,
                crashes: vec![SiteCrash {
                    site: 0,
                    at: 12,
                    down_for: 30,
                }],
                ..FaultPlan::none()
            },
            max_time: 500_000,
            ..Default::default()
        };
        let r = run(&sys, &cfg).unwrap();
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.metrics.committed, 2);
        assert_eq!(r.metrics.recoveries, 1);
        assert_eq!(r.metrics.leases_expired, 0, "unbounded leases all survive");
        r.audit.legal.as_ref().unwrap();
        assert!(r.audit.serializable);
        // Deterministic replay.
        let r2 = run(&sys, &cfg).unwrap();
        assert_eq!(r.metrics, r2.metrics);
    }

    #[test]
    fn expired_leases_abort_their_holders_at_recovery() {
        use crate::fault::{FaultPlan, SiteCrash};
        // A long outage against a short lease ttl: whoever held a lock at
        // the crashed site when it went down loses it, is aborted at
        // recovery (leases_expired counts the lost grants), and restarts
        // with its birth stamp — the run still completes and audits clean.
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 1)]);
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            invariant_audit: true,
            faults: FaultPlan {
                retransmit_after: 100,
                lease_ttl: 10,
                crashes: vec![SiteCrash {
                    site: 0,
                    at: 12,
                    down_for: 60,
                }],
                ..FaultPlan::none()
            },
            max_time: 500_000,
            ..Default::default()
        };
        let r = run(&sys, &cfg).unwrap();
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.metrics.committed, 2);
        assert_eq!(r.metrics.recoveries, 1);
        assert!(
            r.metrics.leases_expired >= 1,
            "a 60-tick outage must outlive a 10-tick lease"
        );
        assert!(r.metrics.aborts >= 1, "the expired holder restarts");
        r.audit.legal.as_ref().unwrap();
        assert!(r.audit.serializable);
    }

    #[test]
    fn probe_detection_survives_lossy_channels() {
        use crate::fault::FaultPlan;
        // The cross-site guaranteed deadlock under probes with loss: a
        // dropped probe or abort order may lose the first chase, but the
        // retransmitted blocked request re-triggers probes for the live
        // edges, so the cycle is eventually found and the run completes.
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 1)]);
        let mut deadlocks = 0;
        for seed in 0..10 {
            let cfg = SimConfig {
                latency: LatencyModel::Fixed(5),
                resolution: DeadlockDetection::Probe.into(),
                invariant_audit: true,
                faults: FaultPlan::lossy(seed, 0.25, 0.0, 0.0),
                max_time: 500_000,
                ..Default::default()
            };
            let r = run(&sys, &cfg).unwrap();
            assert_eq!(r.outcome, RunOutcome::Completed, "fault seed {seed}");
            assert!(r.audit.serializable);
            deadlocks += r.metrics.deadlocks_resolved;
        }
        // Loss can defuse individual timings (a dropped request breaks
        // the symmetry), but across the sweep the cycle must both form
        // and be resolved — through lost probes, thanks to re-chasing.
        assert!(deadlocks >= 1, "no seed ever formed the cycle");
    }

    #[test]
    fn wound_wait_survives_lost_wound_orders() {
        use crate::fault::FaultPlan;
        // Under wound-wait a lost Wound message would strand the elder in
        // the queue forever; the retransmitted elder request re-derives
        // and re-sends the wounds, so every seed completes.
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 1)]);
        for seed in 0..10 {
            let cfg = SimConfig {
                latency: LatencyModel::Fixed(5),
                resolution: crate::config::PreventionScheme::WoundWait.into(),
                invariant_audit: true,
                faults: FaultPlan::lossy(seed, 0.3, 0.1, 0.1),
                max_time: 500_000,
                ..Default::default()
            };
            let r = run(&sys, &cfg).unwrap();
            assert_eq!(r.outcome, RunOutcome::Completed, "fault seed {seed}");
            assert_eq!(r.metrics.deadlocks_resolved, 0);
            assert!(r.audit.serializable);
        }
    }

    #[test]
    fn unsafe_locking_can_commit_non_serializable_history() {
        // The classic unsafe pair. With asymmetric latencies, T2 slips its
        // y-section between T1's x- and y-sections. Search a few seeds.
        let sys = pair("Lx x Ux Ly y Uy", "Ly y Uy Lx x Ux", &[("x", 0), ("y", 0)]);
        let mut saw_anomaly = false;
        for seed in 0..200 {
            let cfg = SimConfig {
                latency: LatencyModel::Uniform(1, 50),
                seed,
                ..Default::default()
            };
            let r = run(&sys, &cfg).unwrap();
            assert!(r.finished());
            r.audit.legal.as_ref().unwrap();
            if !r.audit.serializable {
                saw_anomaly = true;
                break;
            }
        }
        assert!(
            saw_anomaly,
            "an unsafe system should exhibit a non-serializable committed history"
        );
    }

    #[test]
    fn delegation_halves_uncontested_lock_traffic() {
        use crate::config::Delegation;
        // Two disjoint transactions: every grant delegates and every
        // unlock is serviced from the coordinator's cache. The acquire/
        // release wire traffic must drop to at most half the remote
        // baseline (the unlock round-trip vanishes), without a single
        // revocation and without inflating site-side `lock_requests`.
        let sys = pair("Lx x Ux", "Ly y Uy", &[("x", 0), ("y", 1)]);
        let base = SimConfig {
            latency: LatencyModel::Fixed(5),
            invariant_audit: true,
            ..Default::default()
        };
        let off = run(&sys, &base).unwrap();
        let on_cfg = SimConfig {
            delegation: Delegation::On,
            ..base
        };
        let on = run(&sys, &on_cfg).unwrap();
        assert_eq!(on.outcome, RunOutcome::Completed);
        assert_eq!(on.metrics.committed, 2);
        assert!(on.metrics.cache_hits >= 2, "each unlock is a local hit");
        assert!(on.metrics.messages_saved >= 4, "2 wire messages per hit");
        assert_eq!(on.metrics.revocations, 0, "nothing ever conflicts");
        assert!(
            on.metrics.lock_traffic * 2 <= off.metrics.lock_traffic,
            "on {} vs off {}",
            on.metrics.lock_traffic,
            off.metrics.lock_traffic
        );
        assert!(on.metrics.messages < off.metrics.messages);
        // Cache hits are zero-message ops, not site work: the site never
        // saw the unlock, so it must not count anything for it.
        assert_eq!(on.metrics.lock_requests, off.metrics.lock_requests);
        on.audit.legal.as_ref().unwrap();
        assert!(on.audit.serializable);
        // The delegated path replays bit-identically like every arm.
        let on2 = run(&sys, &on_cfg).unwrap();
        assert_eq!(on.metrics, on2.metrics);
        assert_eq!(on.committed_epoch, on2.committed_epoch);
    }

    #[test]
    fn revocation_drains_the_delegated_entry_to_the_demander() {
        use crate::config::Delegation;
        // Both transactions want x. The first grant delegates; the second
        // request finds the entity delegated and the site demands it back
        // (one Revoke). The holder finishes its section, drains the entry
        // on unlock (the RevokeAck doubles as the release), and the
        // demander gets the lock — still serializable, still completing.
        let sys = pair("Lx x Ux", "Lx x Ux", &[("x", 0)]);
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            delegation: Delegation::On,
            invariant_audit: true,
            ..Default::default()
        };
        let r = run(&sys, &cfg).unwrap();
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.metrics.committed, 2);
        assert!(
            r.metrics.revocations >= 1,
            "the conflicting request must demand the entity back"
        );
        r.audit.legal.as_ref().unwrap();
        assert!(r.audit.serializable);
        let r2 = run(&sys, &cfg).unwrap();
        assert_eq!(r.metrics, r2.metrics);
    }

    #[test]
    fn delegation_resolves_the_guaranteed_deadlock_on_every_arm() {
        use crate::config::{DeadlockResolution, Delegation, PreventionScheme};
        // The opposite-order deadlock with delegation on, across all six
        // resolution arms: revocation must interoperate with detection
        // aborts and with wounds/dies/rejections without wedging anything.
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 1)]);
        let arms: Vec<DeadlockResolution> = vec![
            DeadlockDetection::Periodic.into(),
            DeadlockDetection::OnBlock.into(),
            DeadlockDetection::Probe.into(),
            PreventionScheme::WoundWait.into(),
            PreventionScheme::WaitDie.into(),
            PreventionScheme::NoWait.into(),
        ];
        for resolution in arms {
            let cfg = SimConfig {
                latency: LatencyModel::Fixed(5),
                delegation: Delegation::On,
                resolution,
                invariant_audit: true,
                ..Default::default()
            };
            let r = run(&sys, &cfg).unwrap();
            assert_eq!(r.outcome, RunOutcome::Completed, "{resolution:?}");
            assert_eq!(r.metrics.committed, 2, "{resolution:?}");
            r.audit.legal.as_ref().unwrap();
            assert!(r.audit.serializable, "{resolution:?}");
            let r2 = run(&sys, &cfg).unwrap();
            assert_eq!(r.metrics, r2.metrics, "{resolution:?}");
        }
    }

    #[test]
    fn restart_retains_uncontested_delegations_for_free_reacquires() {
        use crate::config::{Delegation, VictimPolicy};
        // T2 holds an uncontested z (delegated) and then deadlocks with
        // T1 over x/y. When T2 is chosen as victim its z entry is neither
        // demanded nor revoking, so the abort re-keys it to the next
        // epoch in place: the restarted T2 re-acquires z from its own
        // cache, zero messages — a *lock-side* cache hit, which 2PL
        // scripts can otherwise never produce in a single epoch.
        let db = Database::from_spec(&[("x", 0), ("y", 1), ("z", 2)]);
        let mut b1 = TxnBuilder::new(&db, "T1");
        // The update on x delays T1's Ly past T2's, so the cycle forms.
        b1.script("Lx x Ly y Ux Uy").unwrap();
        let t1 = b1.build().unwrap();
        let mut b2 = TxnBuilder::new(&db, "T2");
        b2.script("Lz Ly Lx z y x Uz Uy Ux").unwrap();
        let t2 = b2.build().unwrap();
        let sys = TxnSystem::new(db, vec![t1, t2]);
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            delegation: Delegation::On,
            victim_policy: VictimPolicy::Youngest,
            invariant_audit: true,
            ..Default::default()
        };
        let off = run(
            &sys,
            &SimConfig {
                delegation: Delegation::Off,
                ..cfg.clone()
            },
        )
        .unwrap();
        let r = run(&sys, &cfg).unwrap();
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.metrics.committed, 2);
        assert!(r.metrics.deadlocks_resolved >= 1, "the cycle must form");
        assert!(
            r.metrics.cache_hits > r.metrics.committed as u64,
            "beyond the per-commit unlock hits there must be a retained \
             re-acquire: {} hits",
            r.metrics.cache_hits
        );
        assert!(r.metrics.lock_traffic < off.metrics.lock_traffic);
        r.audit.legal.as_ref().unwrap();
        assert!(r.audit.serializable);
    }

    #[test]
    fn crash_wipes_delegations_on_both_sides_and_the_run_recovers() {
        use crate::config::Delegation;
        use crate::fault::{FaultPlan, SiteCrash};
        // Site 0 crashes for longer than the lease ttl with delegation
        // on. The wipe must clear the site's delegation ledger AND the
        // coordinators' cache entries for site-0 entities together — a
        // survivor on either side alone would let recovery re-grant an
        // entity a dead cache still claims, or let a dead cache service
        // an entity the rebuilt table gave to someone else. The run must
        // complete with a clean per-step invariant audit either way.
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 1)]);
        for lease_ttl in [10, 0] {
            let cfg = SimConfig {
                latency: LatencyModel::Fixed(5),
                delegation: Delegation::On,
                invariant_audit: true,
                faults: FaultPlan {
                    retransmit_after: 100,
                    lease_ttl,
                    crashes: vec![SiteCrash {
                        site: 0,
                        at: 12,
                        down_for: 60,
                    }],
                    ..FaultPlan::none()
                },
                max_time: 500_000,
                ..Default::default()
            };
            let r = run(&sys, &cfg).unwrap();
            assert_eq!(r.outcome, RunOutcome::Completed, "ttl {lease_ttl}");
            assert_eq!(r.metrics.committed, 2, "ttl {lease_ttl}");
            assert_eq!(r.metrics.recoveries, 1, "ttl {lease_ttl}");
            r.audit.legal.as_ref().unwrap();
            assert!(r.audit.serializable, "ttl {lease_ttl}");
            let r2 = run(&sys, &cfg).unwrap();
            assert_eq!(r.metrics, r2.metrics, "ttl {lease_ttl}");
        }
    }

    /// A contended two-phase system: `transactions` × `steps_per_txn`
    /// over 3 sites × 4 entities, half reads.
    fn hot_system(transactions: usize, steps_per_txn: usize) -> TxnSystem {
        kplock_workload::random_system(&kplock_workload::WorkloadParams {
            seed: 21,
            sites: 3,
            entities_per_site: 4,
            transactions,
            steps_per_txn,
            read_percent: 50,
            strategy: kplock_core::policy::LockStrategy::TwoPhaseSync,
            ..Default::default()
        })
    }

    #[test]
    fn an_aborts_touched_list_names_all_the_victim_held_or_waited_on() {
        use crate::config::{DeadlockResolution, Delegation};
        // The incremental audit checks what `abort` says it touched, so
        // `abort` must say everything. Abort the transaction with the
        // largest footprint every few events of a contended run, with the
        // footprint taken from the tables beforehand.
        let footprint = |eng: &Engine, inst: Instance| -> Vec<(SiteId, EntityId)> {
            let mut out = Vec::new();
            for (s, site) in eng.sites.iter().enumerate() {
                let waited = site.table.active_entities();
                let waited = waited
                    .into_iter()
                    .filter(|&e| site.table.is_waiting(e, inst));
                let entities = site.table.held_by(inst).into_iter().chain(waited);
                out.extend(entities.map(|e| (SiteId::from_idx(s), e)));
            }
            out
        };
        let sys = hot_system(12, 8);
        let arms = [
            ("a detector", SimConfig::default()),
            (
                "wound-wait",
                SimConfig {
                    resolution: DeadlockResolution::Prevent(PreventionScheme::WoundWait),
                    ..Default::default()
                },
            ),
            (
                "delegation on",
                SimConfig {
                    delegation: Delegation::On,
                    ..Default::default()
                },
            ),
        ];
        for (arm, cfg) in arms {
            let cfg = SimConfig {
                invariant_audit: true,
                ..cfg
            };
            let (mut events, mut aborts, mut holds, mut waits, mut rekeys) = (0, 0, 0, 0, 0);
            let report = run_observed(&sys, &cfg, &vec![0; sys.len()], |eng| {
                events += 1;
                if events % 7 != 0 || aborts == 40 {
                    return;
                }
                let live = eng.coords.iter().enumerate().filter(|(_, c)| !c.committed);
                let (old, before) = live
                    .map(|(t, _)| eng.current(TxnId::from_idx(t)))
                    .map(|inst| (inst, footprint(eng, inst)))
                    .max_by_key(|(_, held)| held.len())
                    .expect("the run has not ended");
                if before.is_empty() {
                    return;
                }
                let waiting = |&&(site, e): &&(SiteId, EntityId)| {
                    eng.sites[site.idx()].table.is_waiting(e, old)
                };
                waits += before.iter().filter(waiting).count();
                eng.abort(old.txn);
                let new = eng.current(old.txn);
                for &(site, e) in &before {
                    assert!(
                        eng.audit.touched.contains(&(site, e)),
                        "{arm}: abort of {old:?} left {e} at site {} off the touched list",
                        site.idx()
                    );
                    let table = &eng.sites[site.idx()].table;
                    assert_eq!(table.holds(e, old), None, "{arm}");
                    assert!(!table.is_waiting(e, old), "{arm}");
                    rekeys += usize::from(table.holds(e, new).is_some());
                }
                eng.audit_touched();
                aborts += 1;
                holds += before.len();
            });
            assert_eq!(report.unwrap().outcome, RunOutcome::Completed, "{arm}");
            assert!(aborts >= 10 && waits > 0 && holds > waits, "{arm}");
            assert_eq!(rekeys > 0, cfg.delegation == Delegation::On, "{arm}");
        }
    }

    #[test]
    fn a_long_audited_run_is_swept_on_the_way_not_only_at_the_end() {
        // Long enough that the every-`FULL_SWEEP_EVERY`th-event sweep
        // runs: in an optimised build it is the only sweep before the
        // end of the run.
        let sys = hot_system(40, 24);
        let cfg = SimConfig {
            invariant_audit: true,
            ..Default::default()
        };
        let mut audited = 0;
        let report = run_observed(&sys, &cfg, &vec![0; sys.len()], |eng| {
            audited = eng.audit.events;
        });
        assert_eq!(report.unwrap().outcome, RunOutcome::Completed);
        assert!(audited > FULL_SWEEP_EVERY, "{audited} audited events");
    }

    /// OnBlock's trigger is sound: behind every event that leaves
    /// `scan_due` clear, the site tables hold no live cycle — so no change
    /// that closes one, a grant retargeting waiters included, goes
    /// unflagged. Clean contended runs on a few latency seeds, and one
    /// under loss, duplication, reordering and a site crash.
    #[test]
    fn a_clear_scan_trigger_leaves_no_cycle_in_the_tables() {
        use crate::fault::{FaultPlan, SiteCrash};
        let sys = hot_system(24, 8);
        let clean = |seed| SimConfig {
            seed,
            latency: LatencyModel::Uniform(2, 8),
            resolution: DeadlockDetection::OnBlock.into(),
            ..Default::default()
        };
        let mut cfgs: Vec<SimConfig> = (0..4).map(clean).collect();
        cfgs.push(SimConfig {
            faults: FaultPlan {
                crashes: vec![SiteCrash {
                    site: 1,
                    at: 150,
                    down_for: 60,
                }],
                ..FaultPlan::lossy(3, 0.05, 0.02, 0.10)
            },
            max_time: 500_000,
            ..clean(4)
        });
        for cfg in &cfgs {
            let mut checked = 0;
            let report = run_observed(&sys, cfg, &vec![0; sys.len()], |eng| {
                if eng.scan_due {
                    return;
                }
                checked += 1;
                let mut slot = vec![UNSEEN; eng.sys.len()];
                let cycle = find_wait_cycle(&eng.wait_edges(), |i| !eng.stale(i), &mut slot);
                assert_eq!(cycle, None, "seed {}: tick {}", cfg.seed, eng.now);
            })
            .unwrap();
            assert_eq!(report.outcome, RunOutcome::Completed, "seed {}", cfg.seed);
            assert!(report.metrics.deadlocks_resolved > 0, "seed {}", cfg.seed);
            assert!(checked > 0);
        }
        assert!(cfgs[4].faults.any());
    }

    /// The engine twin of `LockManager`'s
    /// `release_that_retargets_waiters_reports_the_cycle`: a cycle closed
    /// by a release's grant, with no request blocking at the closing
    /// event. `W` holds `y` (site 1), `A` holds `x` (site 0), and `D`, one
    /// chain a site, queues on both by tick 5. At tick 45 `W` queues on `x` behind `D`
    /// (`W → A`: no cycle yet), then `A`'s unlock of `x` arrives and grants
    /// it to `D`, retargeting `W` onto `D` while `D` still waits for `W`'s
    /// `y`. OnBlock resolves it in that event: zero detection latency.
    #[test]
    fn a_cycle_closed_by_a_grant_is_resolved_in_the_tick_it_forms() {
        let db = Database::from_spec(&[("x", 0), ("y", 1)]);
        let txn = |name: &str, chains: &[&str]| {
            let mut b = TxnBuilder::new(&db, name);
            for chain in chains {
                b.script(chain).unwrap();
            }
            b.build().unwrap()
        };
        let sys = TxnSystem::new(
            db.clone(),
            vec![
                txn("W", &["Ly y y y Lx x Uy Ux"]),
                txn("A", &["Lx x x x Ux"]),
                txn("D", &["Lx x Ux", "Ly y Uy"]),
            ],
        );
        let periodic = SimConfig {
            latency: LatencyModel::Fixed(5),
            ..Default::default()
        };
        let on_block = SimConfig {
            resolution: DeadlockDetection::OnBlock.into(),
            ..periodic.clone()
        };
        let r = run(&sys, &on_block).unwrap();
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.metrics.deadlocks_resolved, 1);
        assert_eq!(r.metrics.detection_latency_ticks, 0);
        assert!(r.audit.serializable);
        // The same cycle sits for part of a scan interval under Periodic.
        let r = run(&sys, &periodic).unwrap();
        assert_eq!(r.metrics.deadlocks_resolved, 1);
        assert!(r.metrics.detection_latency_ticks > 0);
    }

    /// The phantom-kill count is all `invariant_audit` adds to a probe
    /// run's metrics: on the `sim_hot`-shaped input ROADMAP item 6 names,
    /// where the audit counts phantom kills, every other counter and the
    /// committed epochs match the unaudited run.
    #[test]
    fn the_phantom_count_is_all_the_audit_changes_in_a_probe_run() {
        let sys = kplock_workload::random_system(&kplock_workload::WorkloadParams {
            seed: 11006,
            sites: 4,
            entities_per_site: 8,
            transactions: 24,
            steps_per_txn: 8,
            zipf_theta: 0.6,
            read_percent: 50,
            strategy: kplock_core::policy::LockStrategy::TwoPhaseSync,
            ..Default::default()
        });
        let off = SimConfig {
            seed: 11006,
            latency: LatencyModel::Uniform(2, 8),
            resolution: DeadlockDetection::Probe.into(),
            ..Default::default()
        };
        let on = SimConfig {
            invariant_audit: true,
            ..off.clone()
        };
        let (off, on) = (run(&sys, &off).unwrap(), run(&sys, &on).unwrap());
        assert_eq!(on.outcome, RunOutcome::Completed);
        assert!(on.metrics.phantom_probe_aborts > 0);
        assert_eq!(off.metrics.phantom_probe_aborts, 0);
        let unaudited = Metrics {
            phantom_probe_aborts: 0,
            ..on.metrics.clone()
        };
        assert_eq!(unaudited, off.metrics);
        assert_eq!(on.committed_epoch, off.committed_epoch);
    }
}
