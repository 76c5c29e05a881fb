//! The discrete-event simulation engine: the driver of the protocol.
//!
//! Coordinators (one per transaction) exchange messages with sites over a
//! latency-modelled network; sites run reader–writer FIFO lock tables
//! ([`kplock_dlm::QueueTable`]), which are the engine's one record of who
//! waits for whom. Deadlocks are either *detected* — by a global scan of
//! those tables, on a timer (default, the paper-era scheme) or after
//! every site event that leaves a waiter behind
//! ([`crate::config::DeadlockDetection::OnBlock`]), each iteration of
//! which gathers the tables' edges once into [`kplock_graph::CycleTest`],
//! asks it whether any cycle exists (in time linear in the edges, and
//! without allocating) and names one that does on the same rows — or by
//! distributed Chandy–Misra–Haas probes travelling site-to-site
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
//! The handlers live with the state they own, in `site.rs` and
//! `coordinator.rs`, and share one `World`. This module is the driver:
//! the event loop, the wire, the two global detectors, the invariant
//! audit, and the effects that reach every site in one tick — an abort,
//! a commit and a recovery's re-delivery — delivered in order.
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

use crate::config::{check_avoid_plan, ConfigError, DeadlockDetection, Delegation, SimConfig};
use crate::coordinator::{Coordinator, Fate};
use crate::event::{EventKind, EventQueue, Instance, Payload, SimTime};
use crate::fault::FaultPlanError;
use crate::history::{audit, Audit, History};
use crate::metrics::Metrics;
use crate::probe::{self, ProbeMsg, Stamp};
use crate::site::Site;
use kplock_dlm::QueueTable;
use kplock_model::{EntityId, SiteId, StepId, TxnId, TxnSystem};
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

/// What every handler may touch beside the state it owns: the clock, the
/// RNGs, the calendar ([`EventQueue`]) and the wire into it, the history,
/// the counters, the audit's touched list and OnBlock's trigger.
pub(crate) struct World<'a> {
    pub(crate) sys: &'a TxnSystem,
    pub(crate) cfg: &'a SimConfig,
    pub(crate) now: SimTime,
    /// The latency RNG, which also draws restart backoffs.
    pub(crate) rng: StdRng,
    /// Dedicated fault RNG ([`crate::fault::FaultPlan::seed`]): loss,
    /// duplication and reorder draws never touch the latency RNG, so
    /// `FaultPlan::none()` leaves the main stream — and every fixed-seed
    /// pin — bit-identical.
    fault_rng: StdRng,
    pub(crate) queue: EventQueue,
    pub(crate) history: History<'a>,
    pub(crate) metrics: Metrics,
    /// The `(site, entity)` of every table mutation since the last audit
    /// ([`SimConfig::invariant_audit`] only), with repeats.
    pub(crate) touched: Vec<(SiteId, EntityId)>,
    /// [`DeadlockDetection::OnBlock`]'s trigger: an entity was left with
    /// waiters since the last [`Engine::deadlock_scan`] (a change leaving
    /// none only removes edges, and cannot close a cycle).
    pub(crate) scan_due: bool,
    /// Scratch for the steps a coordinator makes ready, empty between
    /// events.
    pub(crate) ready: Vec<usize>,
    /// Whether sites keep lease ledgers (the plan has crashes).
    pub(crate) track_leases: bool,
    /// Whether delegated lock ownership is on: every delegation path is
    /// gated on this, so `Off` runs never touch it.
    pub(crate) delegation: bool,
}

impl<'a> World<'a> {
    /// The world of a run of `sys` under `cfg`, at tick 0.
    pub(crate) fn new(sys: &'a TxnSystem, cfg: &'a SimConfig) -> Self {
        World {
            sys,
            cfg,
            now: 0,
            rng: StdRng::seed_from_u64(cfg.seed),
            fault_rng: StdRng::seed_from_u64(cfg.faults.seed),
            queue: EventQueue::new(),
            history: History::new(sys),
            metrics: Metrics {
                avoid_certified: cfg.avoid_plan().map_or(0, |p| p.certified_count()),
                avoid_fallbacks: cfg.avoid_plan().map_or(0, |p| p.fallback_count()),
                ..Metrics::default()
            },
            touched: Vec::new(),
            scan_due: false,
            ready: Vec::new(),
            track_leases: !cfg.faults.crashes.is_empty(),
            delegation: cfg.delegation == Delegation::On,
        }
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
    pub(crate) fn transmit(&mut self, ev: EventKind) {
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

    /// Sends a probe to site `to`, metered apart from other traffic.
    pub(crate) fn send_probe(&mut self, to: SiteId, msg: ProbeMsg) {
        self.metrics.probe_messages += 1;
        self.transmit(EventKind::ToSite(to, Payload::Probe(msg)));
    }

    /// Records that `entity`'s lists in `site`'s table were just mutated.
    pub(crate) fn touch(&mut self, site: SiteId, entity: EntityId) {
        if self.cfg.invariant_audit {
            self.touched.push((site, entity));
        }
    }

    /// Records a step of the live instance `inst` exactly once per epoch
    /// ([`History::recorded`]): a retransmitted or duplicated request
    /// re-acknowledges without re-recording.
    pub(crate) fn record_step(&mut self, inst: Instance, step: StepId) {
        if self.history.recorded(inst, step) {
            assert!(self.cfg.faults.any(), "{inst:?}: {step} recorded twice");
        } else {
            self.history.record(self.now, inst, step);
        }
    }
}

/// The sites, the coordinators, the [`World`] they share, and the run's
/// own bookkeeping.
struct Engine<'a> {
    sites: Vec<Site>,
    coords: Vec<Coordinator>,
    world: World<'a>,
    /// Coordinators yet to commit; zero ends the run.
    uncommitted: usize,
    /// The wait-for graph of the global detectors' scan and of the probe
    /// audit, with its buffers.
    wait_gather: WaitGather,
    /// Events the [`SimConfig::invariant_audit`] harness has audited.
    audited: u64,
    /// Test seam: abort orders start no re-chase, leaving the marks alone
    /// to bound *and* to find — the protocol rule 5 of `probe.rs` exists
    /// to repair. Lets a test show the stall instead of asserting it.
    #[cfg(test)]
    marks_alone: bool,
    /// Scan iterations [`Engine::has_wait_cycle`] ended, counted for tests.
    #[cfg(test)]
    gate_ended: u64,
}

/// Every this-many audited events the incremental audit is followed by
/// the whole-table sweep, for what no entity's own check can see (a
/// leaked arena node, a stale index entry).
const FULL_SWEEP_EVERY: u64 = 4096;

/// [`WaitGather`]'s mark for a transaction not on the graph being gathered.
const UNSEEN: usize = usize::MAX;

/// How [`WaitGather::find_cycle`] orders each waiter's row of arcs, which
/// decides the cycle its search meets first. Each detector keeps the
/// order its fixed-seed pins were recorded under: the order its edge list
/// gave a node-per-transaction `DiGraph`, first occurrence kept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RowOrder {
    /// By site, then by holder [`TxnId`]: each site's edges sorted in
    /// turn ([`kplock_dlm::QueueTable::waits_for`]), the order Periodic
    /// and [`crate::replay::replay_deadlock`] gather in.
    BySite,
    /// By holder [`TxnId`] alone: every site's edges sorted together and
    /// deduplicated, the order OnBlock's old per-entity mirror returned.
    ByHolder,
}

/// The wait-for graph of the transactions that wait or are waited for, in
/// a [`kplock_graph::CycleTest`]: what knows of transactions and sites
/// lives here. Kept across calls so that a warm call allocates nothing.
#[derive(Default)]
pub(crate) struct WaitGather {
    /// One entry per transaction: its node while a graph is gathered, a
    /// mark while [`WaitGather::newest_on_cycle`] runs, [`UNSEEN`]
    /// otherwise.
    slot: Vec<usize>,
    /// The transaction of each node, nodes numbered in order of
    /// appearance.
    txns: Vec<usize>,
    graph: kplock_graph::CycleTest,
    /// The cycle [`WaitGather::find_cycle`] named, as transaction indices.
    cycle: Vec<usize>,
}

impl WaitGather {
    /// Buffers for graphs over `txn_count` transactions.
    pub(crate) fn new(txn_count: usize) -> Self {
        WaitGather {
            slot: vec![UNSEEN; txn_count],
            ..WaitGather::default()
        }
    }

    /// Gathers the live wait-for edges of `tables`, site by site and
    /// unsorted ([`kplock_dlm::QueueTable::for_each_wait_edge`]), rows in
    /// `order`, and asks whether they close a cycle. Comes first.
    pub(crate) fn gather<'t>(
        &mut self,
        tables: impl IntoIterator<Item = &'t QueueTable<Instance>>,
        live: impl Fn(Instance) -> bool,
        order: RowOrder,
    ) -> bool {
        self.txns.clear();
        self.graph.clear();
        for (site, table) in tables.into_iter().enumerate() {
            table.for_each_wait_edge(|w, h| {
                if live(w) && live(h) {
                    self.arc(order, site, w.txn.idx(), h.txn.idx());
                }
            });
        }
        self.has_cycle()
    }

    /// Adds the arc from waiter `w` to holder `h` at `site` (transaction
    /// indices, both ends live), numbering each transaction the first
    /// time one names it, with its key in `order`.
    #[inline]
    fn arc(&mut self, order: RowOrder, site: usize, w: usize, h: usize) {
        let mut node = |t: usize| {
            if self.slot[t] == UNSEEN {
                self.slot[t] = self.txns.len();
                self.txns.push(t);
            }
            self.slot[t] as u32
        };
        let (wn, hn) = (node(w), node(h));
        let site = if order == RowOrder::BySite { site } else { 0 };
        self.graph.arc(wn, hn, ((site as u64) << 32) | h as u64);
    }

    /// Ends the gather: `slot` is all [`UNSEEN`] again.
    fn has_cycle(&mut self) -> bool {
        for &t in &self.txns {
            self.slot[t] = UNSEEN;
        }
        self.graph.has_cycle(self.txns.len())
    }

    /// The cycle `kplock_graph::find_cycle` names (as transaction indices,
    /// empty if none) on a node per transaction, roots in ascending
    /// [`TxnId`], and the edges added in the gather's [`RowOrder`].
    pub(crate) fn find_cycle(&mut self) -> &[usize] {
        let found = self.graph.find_cycle(|v| self.txns[v as usize] as u64);
        self.cycle.clear();
        self.cycle
            .extend(found.iter().map(|&v| self.txns[v as usize]));
        &self.cycle
    }

    /// Whether transaction `txn` is on a cycle of the gathered graph
    /// ([`kplock_graph::CycleTest::reaches_itself`]).
    pub(crate) fn on_cycle(&mut self, txn: usize) -> bool {
        let node = self.txns.iter().position(|&t| t == txn);
        node.is_some_and(|v| self.graph.reaches_itself(v as u32))
    }

    /// The latest `since` among `records` whose transaction is on the
    /// cycle [`WaitGather::find_cycle`] named: its members are marked in
    /// `slot` for the pass, so each record costs one lookup.
    pub(crate) fn newest_on_cycle(
        &mut self,
        records: impl IntoIterator<Item = (usize, SimTime)>,
    ) -> Option<SimTime> {
        for &t in &self.cycle {
            self.slot[t] = 0;
        }
        let newest = records
            .into_iter()
            .filter(|&(t, _)| self.slot[t] != UNSEEN)
            .map(|(_, since)| since)
            .max();
        for &t in &self.cycle {
            self.slot[t] = UNSEEN;
        }
        newest
    }
}

/// The oracle tests and debug builds hold the scan's finder to, the graph
/// it replaced: a node per transaction of `k`, and the `live` edges of
/// `sites` added in the order a detector in `order` listed them (each
/// site's edges sorted in turn, all together for [`RowOrder::ByHolder`]).
fn oracle_graph(
    k: usize,
    sites: &[Vec<(Instance, Instance)>],
    order: RowOrder,
    live: impl Fn(Instance) -> bool,
) -> kplock_graph::DiGraph {
    let mut edges = Vec::new();
    for site in sites {
        let from = edges.len();
        edges.extend(site.iter().filter(|&&(w, h)| live(w) && live(h)));
        edges[from..].sort();
    }
    if order == RowOrder::ByHolder {
        edges.sort(); // merges the sites' ascending runs
    }
    kplock_graph::DiGraph::from_edges(k, edges.iter().map(|(w, h)| (w.txn.idx(), h.txn.idx())))
}

/// `kplock_graph::find_cycle` over the [`oracle_graph`] of the tables.
fn oracle_cycle(sites: &[Site], coords: &[Coordinator], order: RowOrder) -> Option<Vec<usize>> {
    let tables: Vec<_> = sites.iter().map(|site| site.table.waits_for()).collect();
    let live = |i: Instance| !coords[i.txn.idx()].stale(i);
    kplock_graph::find_cycle(&oracle_graph(coords.len(), &tables, order, live))
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
    let coordinator = |(t, &arrival): (usize, &SimTime)| {
        Coordinator::new(sys, TxnId::from_idx(t), arrival, probing)
    };
    let mut eng = Engine {
        sites: (0..sys.db().site_count())
            .map(|s| Site::new(SiteId::from_idx(s)))
            .collect(),
        coords: arrivals.iter().enumerate().map(coordinator).collect(),
        world: World::new(sys, cfg),
        uncommitted: sys.len(),
        wait_gather: WaitGather::new(sys.len()),
        audited: 0,
        #[cfg(test)]
        marks_alone: false,
        #[cfg(test)]
        gate_ended: 0,
    };

    for (t, &arrival) in arrivals.iter().enumerate() {
        let txn = TxnId::from_idx(t);
        if arrival == 0 {
            eng.start(txn);
        } else {
            eng.world.queue.push(arrival, EventKind::Restart(txn));
        }
    }
    if cfg.detection() == Some(DeadlockDetection::Periodic) {
        let first = cfg.deadlock_scan_interval;
        eng.world.queue.push(first, EventKind::DeadlockScan);
    }
    for c in &cfg.faults.crashes {
        let site = SiteId::from_idx(c.site);
        eng.world.queue.push(c.at, EventKind::SiteCrash(site));
        // A zero-length outage recovers in the same tick, after the crash
        // (insertion order breaks the tie): a crash-restart the network
        // never sees, but the volatile table is gone all the same.
        let back = c.at.saturating_add(c.down_for);
        eng.world.queue.push(back, EventKind::SiteRecover(site));
    }

    let mut timed_out = false;
    while let Some((t, ev)) = eng.world.queue.pop() {
        eng.world.now = t;
        if t > cfg.max_time {
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
                    eng.world.metrics.messages_dropped += 1;
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
                if eng.world.scan_due {
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
                    let next = t + cfg.deadlock_scan_interval;
                    eng.world.queue.push(next, EventKind::DeadlockScan);
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
            EventKind::RetransmitCheck(txn, epoch) => {
                eng.coords[txn.idx()].on_retransmit(&mut eng.world, epoch)
            }
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
    let metrics = &mut eng.world.metrics;
    metrics.elapsed_ticks = match outcome {
        RunOutcome::Completed => metrics.makespan,
        RunOutcome::TimedOut => cfg.max_time,
        RunOutcome::Stalled => eng.world.now,
    };
    // The history was told of every commit and abort as it happened, so
    // the audit reads its verdict; an unfinished transaction's in-flight
    // epoch is in neither it nor the report.
    let committed_epoch: Vec<Option<u32>> = eng
        .coords
        .iter()
        .map(|c| c.committed.then_some(c.current().epoch))
        .collect();
    Ok(SimReport {
        audit: audit(&eng.world.history),
        metrics: eng.world.metrics,
        committed_epoch,
        outcome,
    })
}

impl Engine<'_> {
    fn all_committed(&self) -> bool {
        self.uncommitted == 0
    }

    /// True when `inst`'s epoch has been aborted ([`Coordinator::stale`]).
    fn stale(&self, inst: Instance) -> bool {
        self.coords[inst.txn.idx()].stale(inst)
    }

    fn start(&mut self, txn: TxnId) {
        let fate = self.coords[txn.idx()].start(&mut self.world);
        self.settle(txn, fate);
    }

    /// Carries out what a coordinator's handler left to the driver: a
    /// commit, which ends every probe search through `txn`, or an abort.
    fn settle(&mut self, txn: TxnId, fate: Fate) {
        match fate {
            Fate::Running => {}
            Fate::Committed => {
                self.uncommitted -= 1;
                if self.world.cfg.detection() == Some(DeadlockDetection::Probe) {
                    for site in &mut self.sites {
                        site.end_chases_of(txn);
                    }
                }
            }
            Fate::Aborts => self.abort(txn),
        }
    }

    /// Aborts `txn`'s live instance: the coordinator retires it and drops
    /// its cache, every site releases it in site order, and the
    /// coordinator backs off.
    fn abort(&mut self, txn: TxnId) {
        let old = self.coords[txn.idx()].abort(&mut self.world);
        for site in &mut self.sites {
            site.release_all(&mut self.world, &self.coords, old);
        }
        self.coords[txn.idx()].back_off(&mut self.world);
    }

    /// Delivers a message to an up site, holding an update to
    /// [`Engine::update_is_covered`] first under the audit.
    fn on_site(&mut self, site: SiteId, payload: Payload) {
        if let Payload::UpdateRequest { inst, entity, step } = payload {
            if (self.world.cfg.invariant_audit || cfg!(debug_assertions))
                && self.coords[inst.txn.idx()].awaits(inst, step)
                && !self.update_is_covered(site, inst, entity, step)
            {
                let err = format!("{entity}: update without a covering lock or parent shield");
                self.violated(site.idx(), &err);
            }
        }
        let s = &mut self.sites[site.idx()];
        s.on_message(&mut self.world, &self.coords, &payload);
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
        let db = self.world.sys.db();
        let mode = self.world.sys.txn(inst.txn).step(step).mode;
        let holds = |s: SiteId, e| self.sites[s.idx()].table.holds(e, inst);
        holds(site, entity).is_some_and(|held| held.covers(mode))
            || db
                .parent_of(entity)
                .is_some_and(|p| holds(db.site_of(p), p).is_some_and(|m| m.shields_child(mode)))
    }

    /// Delivers a message to `txn`'s coordinator. An abort order is the
    /// driver's: its validation reads the other members' coordinators. A
    /// delegated grant from a boot its site has since left behind (the
    /// crash wiped the ledger while the ack flew) arrives plain.
    fn on_coordinator(&mut self, txn: TxnId, mut payload: Payload) {
        if let Payload::Abort {
            victim,
            members,
            formed_at,
            chase,
        } = payload
        {
            return self.on_abort_message(victim, &members, formed_at, chase);
        }
        if let Payload::LockGranted {
            entity, delegated, ..
        } = &mut payload
        {
            let boot = |e: EntityId| self.sites[self.world.sys.db().site_of(e).idx()].boot;
            if delegated.is_some_and(|g| g.boot != boot(*entity)) {
                *delegated = None;
            }
        }
        let fate = self.coords[txn.idx()].on_message(&mut self.world, &payload);
        self.settle(txn, fate);
    }

    /// A probe-detected abort order reached the victim's coordinator. If
    /// any member already moved on, the cycle is broken and the order is
    /// dropped — what keeps duplicate and outdated detections from
    /// over-killing. Executed or dropped, the order came from a search
    /// that followed only the first path to each transaction, so the
    /// search's next generation starts from a live initiator (`probe.rs`
    /// module doc, rule 5).
    fn on_abort_message(
        &mut self,
        victim: Instance,
        members: &[Instance],
        formed_at: SimTime,
        chase: probe::ChaseId,
    ) {
        let moved_on = |m: Instance| self.coords[m.txn.idx()].moved_on(m);
        if !members.iter().any(|&m| moved_on(m)) {
            if self.world.cfg.invariant_audit {
                self.audit_probe_abort(victim);
            }
            self.world.metrics.deadlocks_resolved += 1;
            self.world.metrics.detection_latency_ticks += self.world.now - formed_at;
            self.abort(victim.txn);
        }
        #[cfg(test)]
        if self.marks_alone {
            return;
        }
        let Some(&initiator) = members.first() else {
            return;
        };
        let c = &self.coords[initiator.txn.idx()];
        if !c.moved_on(initiator) {
            let again = ProbeMsg::new(initiator, c.stamp(), 0, chase.next_generation());
            for &to in &c.lock_sites {
                self.world.send_probe(to, again.clone());
            }
        }
    }

    /// Part of the [`SimConfig::invariant_audit`] harness: was the probe
    /// victim really on a wait-for cycle — in a nontrivial strongly
    /// connected component of the site tables' edges — at the instant its
    /// abort executed? A god's-eye view the protocol itself never has,
    /// read purely to *count* phantom kills in
    /// [`Metrics::phantom_probe_aborts`].
    fn audit_probe_abort(&mut self, victim: Instance) {
        // Either row order: only membership is asked.
        let on_cycle =
            self.has_wait_cycle(RowOrder::BySite) && self.wait_gather.on_cycle(victim.txn.idx());
        if !on_cycle {
            self.world.metrics.phantom_probe_aborts += 1;
        }
    }

    /// The scan both global detectors run — Periodic on its timer, OnBlock
    /// when `scan_due`: find a cycle and abort its victim, until none
    /// remains (an abort's grants retarget waiters).
    ///
    /// Each iteration gathers the site tables' edges once, into one
    /// [`WaitGather`], and takes both answers from it: whether there is a
    /// cycle ([`Engine::has_wait_cycle`]), which most OnBlock iterations
    /// answer no to, and on a yes which one, the rows put in the order
    /// the detector's old ordered edge list had — by site, then holder,
    /// for Periodic; by holder for OnBlock ([`RowOrder`]). So the scan
    /// ends at the iteration it always ended at and names the cycle it
    /// always named; a debug build checks each against
    /// `kplock_graph::find_cycle` on that list ([`oracle_cycle`]).
    fn deadlock_scan(&mut self) {
        let order = match self.world.cfg.detection() {
            Some(DeadlockDetection::OnBlock) => RowOrder::ByHolder,
            _ => RowOrder::BySite,
        };
        loop {
            self.world.scan_due = false;
            if !self.has_wait_cycle(order) {
                #[cfg(test)]
                {
                    self.gate_ended += 1;
                }
                return;
            }
            self.resolve_one_cycle(order);
        }
    }

    /// Gathers every site table's live wait-for edges into the scan's
    /// [`WaitGather`], rows in `order`: do they close a cycle?
    fn has_wait_cycle(&mut self, order: RowOrder) -> bool {
        let coords = &self.coords;
        let tables = self.sites.iter().map(|site| &site.table);
        let live = |i: Instance| !coords[i.txn.idx()].stale(i);
        self.wait_gather.gather(tables, live, order)
    }

    /// Names the cycle [`Engine::has_wait_cycle`] has said is there, its
    /// rows in `order`, and aborts its victim.
    fn resolve_one_cycle(&mut self, order: RowOrder) {
        let cycle = self.wait_gather.find_cycle();
        debug_assert_eq!(
            Some(cycle),
            oracle_cycle(&self.sites, &self.coords, order).as_deref(),
            "tick {}: the scan's finder names the cycle the ordered edge list has",
            self.world.now
        );
        let members: Vec<(Instance, Stamp)> = cycle
            .iter()
            .map(|&t| &self.coords[t])
            .map(|c| (c.current(), c.stamp()))
            .collect();
        let policy = self.world.cfg.victim_policy;
        let victim = probe::choose_victim(policy, &members).expect("a cycle has members");
        // Detection latency, approximated by the youngest wait among the
        // cycle's members (the cycle cannot predate its youngest edge):
        // ~0 for OnBlock, up to a scan interval for Periodic.
        let coords = &self.coords;
        let formation = self.wait_gather.newest_on_cycle(
            self.sites
                .iter()
                .flat_map(|site| site.queued.iter())
                .filter(|&(inst, _)| !coords[inst.txn.idx()].stale(inst))
                .map(|(inst, since)| (inst.txn.idx(), since)),
        );
        if let Some(t0) = formation {
            self.world.metrics.detection_latency_ticks += self.world.now - t0;
        }
        self.world.metrics.deadlocks_resolved += 1;
        self.abort(victim.txn);
    }

    /// A scheduled outage begins ([`Site::crash`]), clearing delegated
    /// cache residue on **both** sides.
    fn on_crash(&mut self, site: SiteId) {
        let (coords, world) = (&mut self.coords, &self.world);
        let sys = world.sys;
        self.sites[site.idx()].crash(world, |inst, e| {
            coords[inst.txn.idx()].on_delegating_site_crash(sys.txn(inst.txn), inst, e)
        });
        if world.delegation {
            for c in coords {
                c.forget_site(sys, site);
            }
        }
    }

    /// The outage ends: the site **rebuilds** its table from the lease
    /// ledger ([`Site::recover`]), the holders whose lease lapsed are
    /// **aborted**, and every uncommitted coordinator **re-delivers** its
    /// unacknowledged requests to the site ([`Coordinator::resend`]), so
    /// blocked requests re-queue and their edges re-form.
    fn on_recover(&mut self, site: SiteId) {
        if !self.sites[site.idx()].down {
            // Defensive only: validation rejects overlapping outages, so
            // every recovery should find its site down.
            return;
        }
        let expired = self.sites[site.idx()].recover(&mut self.world, &self.coords);
        for inst in expired {
            if !self.stale(inst) {
                self.abort(inst.txn);
            }
        }
        for c in &mut self.coords {
            if !c.committed {
                c.resend(&mut self.world, Some(site));
            }
        }
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
        if !self.world.cfg.invariant_audit {
            return;
        }
        for &(site, e) in &self.world.touched {
            if let Err(err) = self.sites[site.idx()].table.check_entity(e) {
                self.violated(site.idx(), &err);
            }
        }
        self.world.touched.clear();
        self.audited += 1;
        if self.audited.is_multiple_of(FULL_SWEEP_EVERY) {
            self.audit_sweep();
        } else {
            debug_assert_eq!(
                self.sweep(),
                Ok(()),
                "tick {}: the sweep sees what the touched entities' checks missed",
                self.world.now
            );
        }
    }

    /// The whole-table half of the harness: every site's
    /// [`kplock_dlm::QueueTable::check_invariants`], which also answers
    /// for anything on the touched list.
    fn audit_sweep(&mut self) {
        if !self.world.cfg.invariant_audit {
            return;
        }
        self.world.touched.clear();
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
            self.world.now
        );
    }

    /// The end-of-run audit: one last sweep, and after a completed run
    /// nothing may be left behind — no site still remembers a queued
    /// request, and, unless delegated caches keep their collateral
    /// ([`Delegation::On`]), every table is idle.
    fn audit_end(&mut self, outcome: RunOutcome) {
        self.audit_sweep();
        if !self.world.cfg.invariant_audit || outcome != RunOutcome::Completed {
            return;
        }
        for (s, site) in self.sites.iter().enumerate() {
            assert!(
                site.queued.is_empty(),
                "site {s} ends a completed run with {} queued-request records",
                site.queued.len()
            );
            assert!(
                self.world.delegation || site.table.is_idle(),
                "site {s} ends a completed run holding {:?}",
                site.table.active_entities()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LatencyModel, PreventionScheme};
    use kplock_model::{Database, TxnBuilder};
    use proptest::prelude::*;

    /// Gathers the live edges of `sites` into `graph`, site by site and
    /// in the order given, rows in `order`, as the scan gathers the
    /// tables', and asks whether they close a cycle.
    fn gather(
        graph: &mut WaitGather,
        sites: &[Vec<(Instance, Instance)>],
        live: impl Fn(Instance) -> bool,
        order: RowOrder,
    ) -> bool {
        graph.txns.clear();
        graph.graph.clear();
        for (site, edges) in sites.iter().enumerate() {
            for &(w, h) in edges {
                if live(w) && live(h) {
                    graph.arc(order, site, w.txn.idx(), h.txn.idx());
                }
            }
        }
        graph.has_cycle()
    }

    /// Holds `graph`, gathered from the per-site edge lists `sites` over
    /// `k` transactions, to the oracle, in both detectors' row orders: the
    /// scan's finder names the cycle `kplock_graph::find_cycle` names on
    /// the detector's [`oracle_graph`], the existence test says yes
    /// exactly then, and [`WaitGather::on_cycle`] is membership of a
    /// strongly connected component with more than one node (or a
    /// self-loop). The slot is clear after each gather. Returns whether
    /// there was a cycle.
    fn check_scan_graph(
        graph: &mut WaitGather,
        k: usize,
        sites: &[Vec<(Instance, Instance)>],
        live: impl Fn(Instance) -> bool + Copy,
    ) -> bool {
        let mut cyclic = false;
        for order in [RowOrder::BySite, RowOrder::ByHolder] {
            let g = oracle_graph(k, sites, order, live);
            let expected = kplock_graph::find_cycle(&g);
            cyclic = gather(graph, sites, live, order);
            assert!(graph.slot.iter().all(|&s| s == UNSEEN));
            assert_eq!(cyclic, expected.is_some(), "{order:?}: {sites:?}");
            let found = graph.find_cycle();
            let found = (!found.is_empty()).then(|| found.to_vec());
            assert_eq!(found, expected, "{order:?}: {sites:?}");
            let sccs = kplock_graph::tarjan_scc(&g);
            for t in 0..k {
                let on_cycle = sccs.members[sccs.comp[t]].len() > 1 || g.has_edge(t, t);
                assert_eq!(graph.on_cycle(t), on_cycle, "T{t}: {sites:?}");
            }
        }
        cyclic
    }

    /// Spreads `edges` over `sites` tables at random, in no order within
    /// a table, and repeats one of them at a second table (the same
    /// transactions can wait for each other at two sites).
    fn spread(
        edges: &[(Instance, Instance)],
        sites: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<(Instance, Instance)>> {
        let mut spread = vec![Vec::new(); sites];
        for &e in edges {
            spread[rng.gen_range(0..sites)].push(e);
        }
        if !edges.is_empty() && sites > 1 {
            let e = edges[rng.gen_range(0..edges.len())];
            spread[rng.gen_range(0..sites)].push(e);
        }
        for site in &mut spread {
            for i in (1..site.len()).rev() {
                site.swap(i, rng.gen_range(0..=i));
            }
        }
        spread
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random wait-for edge lists over 2–64 transactions, spread over
        /// 1–4 sites: planted disjoint rings, random edges, duplicates, and
        /// either end of an edge stale with a probability that also yields
        /// lists with no live edge at all.
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
            if stale_percent == 100 {
                for (w, _) in &mut edges {
                    w.epoch += 5;
                }
            }
            let sites = rng.gen_range(1..=4);
            let sites = spread(&edges, sites, &mut rng);

            let live = |i: Instance| epochs[i.txn.idx()] == i.epoch;
            check_scan_graph(&mut WaitGather::new(k), k, &sites, live);
        }
    }

    /// The scan's existence test says yes exactly when the cycle finder
    /// returns a cycle, and its finder returns that cycle in both row
    /// orders: random wait-for lists over up to 12 transactions spread
    /// over 1–4 sites, each end's epoch drawn against a random vector of
    /// live epochs, with repeated edges and edges in both directions. One
    /// scratch serves every case, as one serves a whole run, and its slot
    /// is put back each time.
    #[test]
    fn the_existence_test_answers_as_the_cycle_finder() {
        let mut graph = WaitGather::new(12);
        let mut answers = [0; 2];
        for seed in 0..4096 {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = rng.gen_range(1..=12usize);
            let epochs: Vec<u32> = (0..k).map(|_| rng.gen_range(0..3)).collect();
            let stale_percent = rng.gen_range(0..=50u32);
            let inst = |t: usize, rng: &mut StdRng| Instance {
                txn: TxnId::from_idx(t),
                epoch: epochs[t] + u32::from(rng.gen_range(0..100u32) < stale_percent),
            };
            let mut edges: Vec<(Instance, Instance)> = Vec::new();
            for _ in 0..rng.gen_range(0..=2 * k) {
                let (w, h) = (rng.gen_range(0..k), rng.gen_range(0..k));
                let edge = (inst(w, &mut rng), inst(h, &mut rng));
                edges.push(edge);
                match rng.gen_range(0..10u32) {
                    0 => edges.push(edge),
                    1 => edges.push((inst(h, &mut rng), inst(w, &mut rng))),
                    _ => {}
                }
            }
            let sites = rng.gen_range(1..=4);
            let sites = spread(&edges, sites, &mut rng);
            let live = |i: Instance| epochs[i.txn.idx()] == i.epoch;
            let cyclic = check_scan_graph(&mut graph, k, &sites, live);
            answers[usize::from(cyclic)] += 1;
        }
        assert!(answers.iter().all(|&n| n > 500), "{answers:?}");
    }

    /// Periodic's rows go by site before holder, OnBlock's by holder
    /// alone: `T0` waits for `T2` at site 0 and for `T1` at site 1, and
    /// both wait for `T0`. A search from `T0` closes `T0 → T2 → T0` first
    /// in Periodic's old list (site 0's edges, then site 1's) and
    /// `T0 → T1 → T0` in OnBlock's (all of them sorted), and a gather in
    /// each order names that order's cycle.
    #[test]
    fn periodic_rows_go_by_site_and_on_block_rows_by_holder() {
        let i = |t| Instance {
            txn: TxnId::from_idx(t),
            epoch: 0,
        };
        let sites = vec![
            vec![(i(2), i(0)), (i(0), i(2))],
            vec![(i(1), i(0)), (i(0), i(1))],
        ];
        let mut graph = WaitGather::new(3);
        assert!(gather(&mut graph, &sites, |_| true, RowOrder::BySite));
        assert_eq!(graph.find_cycle(), [0, 2]);
        assert!(gather(&mut graph, &sites, |_| true, RowOrder::ByHolder));
        assert_eq!(graph.find_cycle(), [0, 1]);
        check_scan_graph(&mut graph, 3, &sites, |_| true);
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
    fn an_abort_drops_uncontested_delegations_and_the_restart_goes_remote() {
        use crate::config::{Delegation, VictimPolicy};
        // T2 holds an uncontested z (delegated) and then deadlocks with
        // T1 over x/y. When T2 is chosen as victim, its abort drops the
        // whole cache and every site releases its holds, z included: the
        // restarted T2 re-requests z from z's site, as it does with
        // delegation off.
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
        let (z, mut epoch) = (EntityId(2), 0);
        let r = run_observed(&sys, &cfg, &[0, 0], |eng| {
            let new = eng.coords[1].current();
            if new.epoch == epoch {
                return;
            }
            // The event that aborted T2: neither its cache nor z's site
            // keeps z for either epoch.
            epoch = new.epoch;
            let old = Instance {
                epoch: new.epoch - 1,
                ..new
            };
            assert!(!eng.coords[1].caches(z), "epoch {epoch}");
            let table = &eng.sites[2].table;
            assert_eq!((table.holds(z, old), table.holds(z, new)), (None, None));
        })
        .unwrap();
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.metrics.committed, 2);
        assert!(r.metrics.deadlocks_resolved >= 1, "the cycle must form");
        assert_eq!((epoch, r.metrics.aborts), (1, 1), "T2 is the one victim");
        // T1's two lock requests, and all three of T2's in each epoch.
        assert_eq!(r.metrics.lock_requests, 2 + 3 + 3);
        assert_eq!(r.metrics.lock_requests, off.metrics.lock_requests);
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
                let live = eng.coords.iter().filter(|c| !c.committed);
                let (old, before) = live
                    .map(|c| c.current())
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
                let new = eng.coords[old.txn.idx()].current();
                for &(site, e) in &before {
                    assert!(
                        eng.world.touched.contains(&(site, e)),
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
            // No abort hands a hold to the successor epoch, with or
            // without delegation.
            assert_eq!(rekeys, 0, "{arm}");
        }
    }

    /// The audit's uncovered-update check fires: a delegated hold released
    /// from its site's table behind its coordinator's back leaves the
    /// update that follows the grant without a covering lock.
    #[test]
    #[should_panic(expected = "update without a covering lock")]
    fn an_update_whose_hold_its_site_dropped_is_caught_by_the_audit() {
        use crate::config::Delegation;
        let sys = pair("Lx x Ux", "Ly y Uy", &[("x", 0), ("y", 1)]);
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            delegation: Delegation::On,
            invariant_audit: true,
            ..Default::default()
        };
        let x = EntityId(0);
        let _ = run_observed(&sys, &cfg, &[0, 0], |eng| {
            let inst = eng.coords[0].current();
            let site = &mut eng.sites[0];
            if eng.coords[0].caches(x) && site.table.holds(x, inst).is_some() {
                site.table.release(x, inst).expect("held");
            }
        });
    }

    /// A run with a double lock: once T1 queues for `x` behind T0's read
    /// lock and T0 has read, `x`'s site drops T0's hold behind its
    /// coordinator's back, which grants `x` to T1 while T0 still uses it.
    /// Retransmission makes releases idempotent, so T0's own unlock later
    /// is no error: both commit, and the history records the double lock.
    fn a_double_lock_both_commit(invariant_audit: bool) -> SimReport {
        use crate::fault::FaultPlan;
        let sys = pair("SLx rx Ux", "Lx x Ux", &[("x", 0)]);
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            invariant_audit,
            faults: FaultPlan {
                retransmit_after: 10_000,
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        let (x, mut dropped) = (EntityId(0), false);
        run_observed(&sys, &cfg, &[0, 0], |eng| {
            let (t0, t1) = (eng.coords[0].current(), eng.coords[1].current());
            let read = eng.world.history.recorded(t0, StepId(1));
            if !dropped && read && eng.sites[0].table.is_waiting(x, t1) {
                dropped = true;
                eng.sites[0].release_all(&mut eng.world, &eng.coords, t0);
            }
        })
        .unwrap()
    }

    /// With the audit on, the commit that confirms the double lock stops
    /// the run, naming it.
    #[test]
    #[should_panic(expected = "locks e0 already held by T0")]
    fn the_audit_stops_at_the_commit_that_confirms_a_double_lock() {
        a_double_lock_both_commit(true);
    }

    /// With the audit off, the same run completes and its verdict names
    /// the same double lock.
    #[test]
    fn an_unaudited_double_lock_is_named_in_the_verdict() {
        let r = a_double_lock_both_commit(false);
        assert_eq!(r.outcome, RunOutcome::Completed);
        let err = r.audit.legal.unwrap_err().to_string();
        assert!(err.contains("locks e0 already held by T0"), "{err}");
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
            audited = eng.audited;
        });
        assert_eq!(report.unwrap().outcome, RunOutcome::Completed);
        assert!(audited > FULL_SWEEP_EVERY, "{audited} audited events");
    }

    /// OnBlock's trigger is sound: behind every event that leaves
    /// `scan_due` clear, the site tables hold no live cycle — so no change
    /// that closes one, a grant retargeting waiters included, goes
    /// unflagged. Behind every event the scan's existence test answers as
    /// the oracle's cycle finder does on the live tables, the scan's
    /// finder names the oracle's cycle, and the test is what ends the
    /// scans. Clean contended runs on a few latency seeds, and one under
    /// loss, duplication, reordering and a site crash.
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
            let (mut checked, mut gate_ended) = (0, 0);
            let report = run_observed(&sys, cfg, &vec![0; sys.len()], |eng| {
                gate_ended = eng.gate_ended;
                let cycle = oracle_cycle(&eng.sites, &eng.coords, RowOrder::ByHolder);
                let tick = eng.world.now;
                let cyclic = eng.has_wait_cycle(RowOrder::ByHolder);
                assert_eq!(cyclic, cycle.is_some(), "tick {tick}");
                let found = eng.wait_gather.find_cycle();
                assert_eq!(cycle.as_deref().unwrap_or_default(), found, "tick {tick}");
                if eng.world.scan_due {
                    return;
                }
                checked += 1;
                assert_eq!(cycle, None, "seed {}: tick {tick}", cfg.seed);
            })
            .unwrap();
            assert_eq!(report.outcome, RunOutcome::Completed, "seed {}", cfg.seed);
            assert!(report.metrics.deadlocks_resolved > 0, "seed {}", cfg.seed);
            assert!(checked > 0);
            assert!(gate_ended > 0, "seed {}", cfg.seed);
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
    /// run's metrics: on the `sim_hot`-shaped input ROADMAP item 4 names,
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
