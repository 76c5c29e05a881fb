//! A real-thread runner: the same lock-manager semantics executed by OS
//! threads instead of virtual time.
//!
//! One thread per transaction; locks live in a [`kplock_dlm::ShardedTable`]
//! (hash-partitioned, one `parking_lot` mutex per shard, so independent
//! entities never contend on one map). Grant wakeups are *targeted*:
//! each transaction owns a waiter slot (a flag
//! under its own mutex plus a condvar), and whoever performs a grant
//! notifies exactly the granted transactions' slots with `notify_one` —
//! no per-shard broadcast, so a release never wakes the whole herd just
//! to re-park it. A global atomic sequence numbers the applied steps so
//! the committed history can be audited exactly like the deterministic
//! simulator's. Deadlocks are broken by lock-wait timeouts by default
//! (cancel the queued request, release, randomized backoff, retry), or —
//! under [`ThreadedResolution::Prevent`] — never allowed to form:
//! timestamp-ordering prevention decides wait/wound/die inside the shard,
//! wounds are delivered as per-transaction flags plus a targeted wakeup
//! of the victim's slot, and no timeout heuristic is needed. With
//! [`ThreadedConfig::delegation`] on, an aborting attempt retains every
//! uncontested hold and the retry re-owns each one with a single
//! shard-guarded re-key — the Lock step becomes a cache hit
//! ([`ThreadedReport::cache_hits`]) and the targeted-wakeup design is
//! untouched: surrendered entries wake exactly their grantees.
//!
//! This runner is *non*-deterministic by nature — it exists to show the
//! phenomena under genuine concurrency; the discrete-event engine in
//! [`crate::engine`] is the reproducible instrument.

use crate::config::{admission_priority, check_avoid_plan, AvoidPlan, ConfigError};
use crate::event::Instance;
use crate::history::History;
use crate::history::{audit, Audit};
use crate::progress::Progress;
use kplock_dlm::{Acquire, PreventionOutcome, PreventionScheme, Priority, ShardedTable};
use kplock_model::{ActionKind, EntityId, StepId, TxnId, TxnSystem};
use parking_lot::{Condvar, Mutex};
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How the threaded runner keeps deadlocks from wedging the threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ThreadedResolution {
    /// The original heuristic: presume deadlock after
    /// [`ThreadedConfig::lock_timeout`] and abort the waiter. Can
    /// false-positive under load (a slow grant looks like a cycle).
    #[default]
    TimeoutAbort,
    /// Timestamp-ordering prevention (see [`kplock_dlm::prevent`]): waits
    /// are admitted only in priority order, so no cycle can form and no
    /// wait is ever mistaken for one. Transaction index plays the birth
    /// stamp (a fixed total order that survives retries). Wounds are
    /// delivered through per-transaction flags and the victim's waiter
    /// slot.
    Prevent(PreventionScheme),
    /// Avoidance (see [`crate::DeadlockResolution::Avoid`]): an
    /// [`AvoidPlan`] supplied in [`ThreadedConfig::avoid`] certifies a
    /// subset of the transactions against a safe lock order. Certified
    /// transactions all carry the top admission priority `(0, 0)` — they
    /// queue FIFO among themselves (cycle-free by the certificate) and
    /// wound any uncertified transaction in their way; uncertified
    /// transactions fall back to wound-wait among themselves with their
    /// index order preserved, shifted below every certified transaction.
    /// Like `Prevent`, no timeout heuristic is needed.
    Avoid,
}

/// Configuration for the threaded runner.
#[derive(Clone, Debug)]
pub struct ThreadedConfig {
    /// How long to wait on a lock before assuming deadlock and aborting
    /// (under [`ThreadedResolution::Prevent`] the same duration is only a
    /// wound-flag polling interval — timeouts never abort there).
    pub lock_timeout: Duration,
    /// Maximum abort/retry attempts per transaction.
    pub max_attempts: u32,
    /// Upper bound of the randomized backoff after an abort.
    pub max_backoff: Duration,
    /// Number of lock-table shards (entities hash across them).
    pub shards: usize,
    /// Deadlock resolution: timeout heuristic (default) or prevention.
    pub resolution: ThreadedResolution,
    /// The avoidance certificate, required under
    /// [`ThreadedResolution::Avoid`] (mirrors [`crate::SimConfig::avoid`];
    /// [`run_threaded`] additionally checks it covers exactly the system's
    /// transactions).
    pub avoid: Option<AvoidPlan>,
    /// Delegated ownership across attempts (the threaded analogue of
    /// [`crate::Delegation::On`]): an aborting attempt *retains* every
    /// hold nothing is queued behind, and the retry re-owns each retained
    /// entry with a single shard-guarded re-key instead of a fresh
    /// acquire — the Lock step becomes a cache hit
    /// ([`ThreadedReport::cache_hits`]). Contested entries are
    /// surrendered at abort (or at revalidation, if the demand arrived
    /// during backoff) with the usual *targeted* grantee wakeups — the
    /// fast path never broadcasts and never skips a `notify_one` a
    /// waiter is owed. Off (the default) is byte-for-byte the old
    /// release-everything behaviour.
    pub delegation: bool,
}

impl ThreadedConfig {
    /// Checks the configuration for values that cannot run.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if self.resolution == ThreadedResolution::Avoid && self.avoid.is_none() {
            return Err(ConfigError::AvoidWithoutPlan);
        }
        Ok(())
    }

    /// The scheme deciding lock admission inside the shards, if any:
    /// the configured scheme under `Prevent`, wound-wait (as the
    /// fallback discipline) under `Avoid`, `None` under the timeout
    /// heuristic.
    fn admission_scheme(&self) -> Option<PreventionScheme> {
        match self.resolution {
            ThreadedResolution::TimeoutAbort => None,
            ThreadedResolution::Prevent(p) => Some(p),
            ThreadedResolution::Avoid => Some(PreventionScheme::WoundWait),
        }
    }

    /// The avoidance plan in force: `Some` iff the resolution is `Avoid`
    /// and a plan was supplied.
    fn avoid_plan(&self) -> Option<&AvoidPlan> {
        match self.resolution {
            ThreadedResolution::Avoid => self.avoid.as_ref(),
            _ => None,
        }
    }
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            lock_timeout: Duration::from_millis(50),
            max_attempts: 64,
            max_backoff: Duration::from_millis(5),
            shards: 8,
            resolution: ThreadedResolution::default(),
            avoid: None,
            delegation: false,
        }
    }
}

/// Report of a threaded run.
#[derive(Debug)]
pub struct ThreadedReport {
    /// Serializability audit of the committed history.
    pub audit: Audit,
    /// Total aborts across all transactions.
    pub aborts: usize,
    /// Whether every transaction committed within its attempt budget.
    pub finished: bool,
    /// Epoch at which each transaction committed, `None` for transactions
    /// that exhausted their attempt budget. This is exactly what the
    /// audit consumed — an unfinished transaction contributes no phantom
    /// epoch (the old report fed `max_attempts` in as if it were a
    /// committed epoch).
    pub committed_epoch: Vec<Option<u32>>,
    /// Lock steps satisfied from a retained (delegated) entry instead of
    /// a fresh table acquire. Zero unless [`ThreadedConfig::delegation`]
    /// is on and some attempt aborted with uncontested holds.
    pub cache_hits: u64,
}

/// A transaction's wakeup slot: granters set the flag and `notify_one`;
/// the owner parks on the condvar until the flag is set (or a timeout
/// paces it). The flag lives under its *own* mutex, never the shard's,
/// so delivering a wakeup does not contend with table operations.
struct Waiter {
    flag: Mutex<bool>,
    cv: Condvar,
}

struct Shared {
    table: ShardedTable<Instance>,
    /// One slot per transaction; see [`Waiter`].
    waiters: Vec<Waiter>,
    /// Wound markers, one per transaction (prevention only): `epoch + 1`
    /// of the wounded instance, `0` for none. Epoch-tagged so a stale
    /// wound (the victim already committed or restarted) is ignored for
    /// free, exactly like the simulator's epoch validation.
    wounded: Vec<AtomicU64>,
    seq: AtomicU64,
    /// Lock steps served from retained (delegated) entries; see
    /// [`ThreadedReport::cache_hits`].
    cache_hits: AtomicU64,
    events: parking_lot::Mutex<Vec<(u64, TxnId, u32, StepId)>>,
}

impl Shared {
    /// Records an applied step. Call while holding the shard guard of the
    /// step's entity so the global sequence respects per-entity
    /// grant/release order.
    fn record(&self, txn: TxnId, epoch: u32, step: StepId) {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        self.events.lock().push((seq, txn, epoch, step));
    }

    /// Wakes exactly `who`'s thread: set its slot flag, notify its condvar.
    /// Call *after* dropping the shard guard that performed the grant, so
    /// the woken thread's authoritative holds-check does not immediately
    /// block on a mutex we still hold.
    fn notify(&self, who: Instance) {
        let w = &self.waiters[who.txn.idx()];
        let mut flag = w.flag.lock();
        *flag = true;
        w.cv.notify_one();
    }

    /// Notifies every grantee in a `(owner, mode)` grant list.
    fn notify_grants(&self, grants: &[(Instance, kplock_model::LockMode)]) {
        for &(who, _) in grants {
            self.notify(who);
        }
    }

    /// Delivers a wound to `victim`: set its flag, then wake its slot —
    /// the victim is either parked there or will poll the flag at its
    /// next step boundary.
    fn wound(&self, victim: Instance) {
        self.wounded[victim.txn.idx()].store(u64::from(victim.epoch) + 1, Ordering::SeqCst);
        self.notify(victim);
    }

    /// Whether a wound targeting exactly this instance's epoch is pending.
    fn is_wounded(&self, inst: Instance) -> bool {
        self.wounded[inst.txn.idx()].load(Ordering::SeqCst) == u64::from(inst.epoch) + 1
    }
}

/// The admission priority of an owner: [`admission_priority`] of its
/// transaction index (stable across retries — the threaded analogue of a
/// birth stamp).
fn priority_of(cfg: &ThreadedConfig, o: Instance) -> Priority {
    admission_priority(cfg.avoid_plan(), o.txn, (o.txn.idx() as u64, 0))
}

/// Executes the system on real threads.
///
/// Returns [`ConfigError`] if `cfg` fails [`ThreadedConfig::validate`]
/// (e.g. zero shards), checked up front like [`crate::run`].
pub fn run_threaded(sys: &TxnSystem, cfg: &ThreadedConfig) -> Result<ThreadedReport, ConfigError> {
    cfg.validate()?;
    check_avoid_plan(cfg.avoid_plan(), sys)?;
    let shared = Arc::new(Shared {
        table: ShardedTable::new(cfg.shards),
        waiters: (0..sys.len())
            .map(|_| Waiter {
                flag: Mutex::new(false),
                cv: Condvar::new(),
            })
            .collect(),
        wounded: (0..sys.len()).map(|_| AtomicU64::new(0)).collect(),
        seq: AtomicU64::new(0),
        cache_hits: AtomicU64::new(0),
        events: parking_lot::Mutex::new(Vec::new()),
    });

    let results: Vec<(bool, u32)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..sys.len() {
            let shared = Arc::clone(&shared);
            let cfg = cfg.clone();
            handles.push(scope.spawn(move || run_txn(sys, TxnId::from_idx(t), &shared, &cfg)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("txn thread panicked"))
            .collect()
    });

    // Rebuild a History from the event log.
    let mut history = History::default();
    let mut events = shared.events.lock().clone();
    events.sort_by_key(|&(seq, ..)| seq);
    for (_, txn, epoch, step) in events {
        history.record(0, Instance { txn, epoch }, step);
    }
    // Unfinished transactions commit at no epoch; the audit skips them
    // explicitly instead of receiving `max_attempts` as a phantom epoch.
    let committed_epoch: Vec<Option<u32>> = results
        .iter()
        .map(|&(ok, e)| if ok { Some(e) } else { None })
        .collect();
    let finished = results.iter().all(|&(ok, _)| ok);
    let aborts: usize = results.iter().map(|&(_, e)| e as usize).sum();
    Ok(ThreadedReport {
        audit: audit(sys, &history, &committed_epoch),
        aborts,
        finished,
        committed_epoch,
        cache_hits: shared.cache_hits.load(Ordering::SeqCst),
    })
}

/// Runs one transaction to commit; returns `(committed, final_epoch)`.
fn run_txn(sys: &TxnSystem, txn: TxnId, shared: &Shared, cfg: &ThreadedConfig) -> (bool, u32) {
    let t = sys.txn(txn);
    let mut rng = rand::thread_rng();
    // Delegated entries retained across attempts: entities still held in
    // the table under the *previous* (aborted) epoch's instance, pending
    // revalidation by the next attempt. Empty unless `cfg.delegation`.
    let mut cache: Vec<EntityId> = Vec::new();
    for epoch in 0..cfg.max_attempts {
        if attempt(sys.db(), txn, epoch, t, shared, cfg, &mut cache) {
            return (true, epoch);
        }
        // Aborted: back off and retry.
        std::thread::sleep(Duration::from_micros(
            rng.gen_range(0..=cfg.max_backoff.as_micros() as u64),
        ));
    }
    if cfg.delegation && !cache.is_empty() {
        // Budget exhausted with retained residue: give it all back (the
        // entries are keyed under the final attempt's instance) so the
        // failure never strands a hold, waking exactly the grantees.
        let inst = Instance {
            txn,
            epoch: cfg.max_attempts - 1,
        };
        for (_e, grants) in shared.table.release_all(inst) {
            shared.notify_grants(&grants);
        }
    }
    (false, cfg.max_attempts)
}

/// Abort-time retention probe for one held entity: keep the hold —
/// still keyed under the aborting (now dead) instance — when nothing is
/// queued behind it, surrender it otherwise. Granted demanders get the
/// usual targeted wakeups once the shard guard drops; retention never
/// broadcasts.
fn retain_or_release(shared: &Shared, e: EntityId, inst: Instance) -> bool {
    let mut st = shared.table.lock_shard_index(shared.table.shard_index(e));
    if st.holds(e, inst).is_none() {
        return false;
    }
    if st.entity_waits_for(e).is_empty() {
        return true;
    }
    let grants = st.release(e, inst).expect("we hold it");
    drop(st);
    shared.notify_grants(&grants);
    false
}

/// Revalidates one retained entry at attempt start: re-keys the hold
/// from the aborted instance to the new one iff the entity is still
/// idle after our release (release + instant re-own under one shard
/// guard, so nobody can slip between). A contested entry — a demand
/// arrived during backoff — is surrendered instead and each grantee
/// woken individually, exactly like a release on the normal path.
fn rekey(shared: &Shared, cfg: &ThreadedConfig, e: EntityId, from: Instance, to: Instance) -> bool {
    let mut st = shared.table.lock_shard_index(shared.table.shard_index(e));
    let Some(mode) = st.holds(e, from) else {
        return false;
    };
    let grants = st.release(e, from).expect("retained hold");
    if grants.is_empty() && st.holders(e).is_empty() && st.entity_waits_for(e).is_empty() {
        // The entity is idle, so re-owning it is an instant grant under
        // either admission API: no wait is admitted and nobody wounded.
        let granted = match cfg.admission_scheme() {
            None => matches!(st.request(e, to, mode).expect("protocol"), Acquire::Granted),
            Some(scheme) => matches!(
                st.request_with_priority(e, to, mode, scheme, |o| priority_of(cfg, o))
                    .expect("protocol"),
                PreventionOutcome::Granted
            ),
        };
        if granted {
            return true;
        }
        // Unreachable for an idle entity; surrender defensively rather
        // than leave a queued request we will never park on.
        let cancelled = st.cancel_waits(to);
        drop(st);
        for (_e, grants) in &cancelled.granted {
            shared.notify_grants(grants);
        }
        false
    } else {
        drop(st);
        shared.notify_grants(&grants);
        false
    }
}

/// Ends an attempt: under delegation, holds nothing is queued behind
/// are retained into `cache` (keyed under the dead instance until the
/// retry re-keys them); everything else — and, with delegation off,
/// everything — is released with a targeted notify per grantee.
fn abort_attempt(
    shared: &Shared,
    cfg: &ThreadedConfig,
    inst: Instance,
    held: &mut Vec<EntityId>,
    cache: &mut Vec<EntityId>,
) {
    if cfg.delegation {
        let candidates: Vec<EntityId> = cache.drain(..).chain(held.drain(..)).collect();
        for e in candidates {
            if retain_or_release(shared, e, inst) {
                cache.push(e);
            }
        }
    } else {
        held.clear();
        // Wake only the transactions actually granted something by our
        // releases — a targeted notify per grantee, never a broadcast.
        for (_e, grants) in shared.table.release_all(inst) {
            shared.notify_grants(&grants);
        }
    }
}

fn attempt(
    db: &kplock_model::Database,
    txn: TxnId,
    epoch: u32,
    t: &kplock_model::Transaction,
    shared: &Shared,
    cfg: &ThreadedConfig,
    cache: &mut Vec<EntityId>,
) -> bool {
    let inst = Instance { txn, epoch };
    // Revalidate the retained cache before anything can block: each
    // entry is re-keyed to this attempt's instance or surrendered, so
    // the attempt never waits while holding a dead-epoch entry (wounds
    // target live instances only — a stale hold that outlived a block
    // would be unwoundable and could wedge the prevention arms).
    if cfg.delegation && !cache.is_empty() {
        debug_assert!(epoch > 0, "nothing can be retained before the first abort");
        let old = Instance {
            txn,
            epoch: epoch - 1,
        };
        cache.retain(|&e| rekey(shared, cfg, e, old, inst));
    }
    let mut progress = Progress::new(t);
    let mut ready: BinaryHeap<Reverse<usize>> = progress.start().into_iter().map(Reverse).collect();
    let mut held: Vec<EntityId> = Vec::new();

    // Execute steps as they become ready, lowest step id first
    // (single-threaded within a transaction; parallel across
    // transactions).
    loop {
        // A running victim notices its wound at step boundaries; a blocked
        // one is woken through its waiter slot by the wounder.
        if cfg.admission_scheme().is_some() && shared.is_wounded(inst) {
            abort_attempt(shared, cfg, inst, &mut held, cache);
            return false;
        }
        let Some(Reverse(v)) = ready.pop() else {
            return true; // all steps done
        };
        let step = t.step(StepId::from_idx(v));
        let shard = shared.table.shard_index(step.entity);
        match step.kind {
            ActionKind::Lock => {
                // Delegated fast path: a retained entry revalidated at
                // attempt start is already held under this instance, so
                // the "acquire" is a record under the shard guard — no
                // queueing, and no wakeup owed to anyone.
                if cfg.delegation {
                    if let Some(pos) = cache.iter().position(|&e| e == step.entity) {
                        cache.swap_remove(pos);
                        let st = shared.table.lock_shard_index(shard);
                        let cached = st
                            .holds(step.entity, inst)
                            .is_some_and(|m| m.covers(step.mode));
                        if cached {
                            held.push(step.entity);
                            shared.record(txn, epoch, StepId::from_idx(v));
                            shared.cache_hits.fetch_add(1, Ordering::Relaxed);
                        }
                        drop(st);
                        if cached {
                            ready.extend(progress.ack(t, v).into_iter().map(Reverse));
                            continue;
                        }
                    }
                }
                // Clear any stale wakeup before the request goes in: every
                // grant of *this* request happens under the shard guard we
                // are about to take, so it cannot race past this reset.
                *shared.waiters[txn.idx()].flag.lock() = false;
                let mut st = shared.table.lock_shard_index(shard);
                let queued = match cfg.admission_scheme() {
                    None => matches!(
                        st.request(step.entity, inst, step.mode).expect("protocol"),
                        Acquire::Queued
                    ),
                    Some(scheme) => {
                        match st
                            .request_with_priority(step.entity, inst, step.mode, scheme, |o| {
                                priority_of(cfg, o)
                            })
                            .expect("protocol")
                        {
                            PreventionOutcome::Granted => false,
                            PreventionOutcome::Queued => true,
                            PreventionOutcome::Wounded(victims) => {
                                // Wound the younger owners (flag + targeted
                                // wakeup — real delivery, they abort
                                // themselves) and wait like anyone else.
                                drop(st);
                                for v in victims {
                                    shared.wound(v);
                                }
                                st = shared.table.lock_shard_index(shard);
                                true
                            }
                            PreventionOutcome::Rejected => {
                                // Wait-die / no-wait: we die, keeping our
                                // priority for the retry.
                                drop(st);
                                abort_attempt(shared, cfg, inst, &mut held, cache);
                                return false;
                            }
                        }
                    }
                };
                if !queued {
                    held.push(step.entity);
                    shared.record(txn, epoch, StepId::from_idx(v));
                    drop(st);
                } else {
                    // FIFO: a later release grants us in-queue and wakes
                    // our slot; park there. Under the timeout heuristic
                    // the wait is bounded and presumed deadlocked at the
                    // deadline; under prevention waits are cycle-free, and
                    // the same duration only paces wound-flag polling
                    // (covering a wound that fired before we parked).
                    drop(st);
                    let deadline = std::time::Instant::now() + cfg.lock_timeout;
                    loop {
                        {
                            let w = &shared.waiters[txn.idx()];
                            let mut flag = w.flag.lock();
                            if !*flag {
                                let pace = match cfg.admission_scheme() {
                                    None => deadline
                                        .saturating_duration_since(std::time::Instant::now()),
                                    Some(_) => cfg.lock_timeout,
                                };
                                if !pace.is_zero() {
                                    let _ = w.cv.wait_for(&mut flag, pace);
                                }
                            }
                            *flag = false; // consume the wakeup
                        }
                        // Authoritative checks happen under the shard
                        // guard — the flag is only a hint.
                        let mut st = shared.table.lock_shard_index(shard);
                        if cfg.admission_scheme().is_some() && shared.is_wounded(inst) {
                            let cancelled = st.cancel_waits(inst);
                            drop(st);
                            for (_e, grants) in &cancelled.granted {
                                shared.notify_grants(grants);
                            }
                            abort_attempt(shared, cfg, inst, &mut held, cache);
                            return false;
                        }
                        if st.holds(step.entity, inst).is_some() {
                            held.push(step.entity);
                            shared.record(txn, epoch, StepId::from_idx(v));
                            drop(st);
                            break;
                        }
                        if matches!(cfg.resolution, ThreadedResolution::TimeoutAbort)
                            && std::time::Instant::now() >= deadline
                        {
                            // Presumed deadlock: cancel our queued request
                            // (may unblock readers behind us), then abort.
                            let cancelled = st.cancel_waits(inst);
                            drop(st);
                            for (_e, grants) in &cancelled.granted {
                                shared.notify_grants(grants);
                            }
                            abort_attempt(shared, cfg, inst, &mut held, cache);
                            return false;
                        }
                        drop(st);
                    }
                }
            }
            ActionKind::Update => {
                let st = shared.table.lock_shard_index(shard);
                let covered = st
                    .holds(step.entity, inst)
                    .is_some_and(|held| held.covers(step.mode));
                shared.record(txn, epoch, StepId::from_idx(v));
                drop(st);
                // On a hierarchical database a coarse parent lock shields
                // the access instead; the parent may hash to another
                // shard, so this check runs after the child's guard drops.
                if cfg!(debug_assertions) && !covered {
                    let shielded = db.parent_of(step.entity).is_some_and(|p| {
                        let pst = shared.table.lock_shard_index(shared.table.shard_index(p));
                        pst.holds(p, inst)
                            .is_some_and(|m| m.shields_child(step.mode))
                    });
                    assert!(shielded, "update without a covering lock or parent shield");
                }
            }
            ActionKind::Unlock => {
                let mut st = shared.table.lock_shard_index(shard);
                let grants = st.release(step.entity, inst).expect("we hold it");
                held.retain(|&e| e != step.entity);
                shared.record(txn, epoch, StepId::from_idx(v));
                drop(st);
                shared.notify_grants(&grants);
            }
        }
        ready.extend(progress.ack(t, v).into_iter().map(Reverse));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_model::{Database, TxnBuilder};

    fn sys(scripts: &[&str], spec: &[(&str, usize)]) -> TxnSystem {
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
    fn threaded_conflicting_pair_commits_serializably() {
        let s = sys(
            &["Lx Ly x y Ux Uy", "Lx Ly x y Ux Uy"],
            &[("x", 0), ("y", 0)],
        );
        let cfg = ThreadedConfig::default();
        for _ in 0..5 {
            let r = run_threaded(&s, &cfg).unwrap();
            assert!(r.finished);
            r.audit.legal.as_ref().unwrap();
            assert!(r.audit.serializable, "2PL history must be serializable");
        }
    }

    #[test]
    fn threaded_deadlock_prone_pair_still_finishes() {
        let s = sys(
            &["Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux"],
            &[("x", 0), ("y", 0)],
        );
        let cfg = ThreadedConfig::default();
        let r = run_threaded(&s, &cfg).unwrap();
        assert!(r.finished, "timeout-abort must break deadlocks");
        r.audit.legal.as_ref().unwrap();
        assert!(r.audit.serializable);
    }

    #[test]
    fn threaded_many_transactions() {
        let s = sys(
            &[
                "Lx Ly x y Ux Uy",
                "Ly Lz y z Uy Uz",
                "Lz Lx z x Uz Ux",
                "Lx Lz x z Ux Uz",
            ],
            &[("x", 0), ("y", 1), ("z", 2)],
        );
        let r = run_threaded(&s, &ThreadedConfig::default()).unwrap();
        assert!(r.finished);
        r.audit.legal.as_ref().unwrap();
        assert!(r.audit.serializable);
    }

    #[test]
    fn threaded_shared_readers_and_a_writer() {
        let s = sys(&["SLx rx Ux", "SLx rx Ux", "Lx x Ux"], &[("x", 0)]);
        let cfg = ThreadedConfig::default();
        for _ in 0..5 {
            let r = run_threaded(&s, &cfg).unwrap();
            assert!(r.finished);
            r.audit.legal.as_ref().unwrap();
            assert!(r.audit.serializable);
        }
    }

    #[test]
    fn threaded_prevention_schemes_finish_without_timeout_heuristic() {
        // The deadlock-prone pair again, but with a lock timeout far
        // beyond the test budget: only prevention (not the timeout
        // heuristic) can be breaking the deadlocks here.
        let s = sys(
            &["Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux"],
            &[("x", 0), ("y", 0)],
        );
        for scheme in [
            PreventionScheme::WoundWait,
            PreventionScheme::WaitDie,
            PreventionScheme::NoWait,
        ] {
            let cfg = ThreadedConfig {
                resolution: ThreadedResolution::Prevent(scheme),
                lock_timeout: Duration::from_millis(2),
                max_attempts: 1000,
                ..Default::default()
            };
            for _ in 0..5 {
                let r = run_threaded(&s, &cfg).unwrap();
                assert!(r.finished, "{scheme:?} must not wedge");
                r.audit.legal.as_ref().unwrap();
                assert!(r.audit.serializable, "{scheme:?}");
            }
        }
    }

    #[test]
    fn threaded_wound_wait_delivers_wounds_to_blocked_victims() {
        // Rotated lock orders force conflicts both ways; T1 (index 0,
        // highest priority) must always win under wound-wait — it is
        // never wounded and never rejected, so it commits at epoch 0
        // whenever no older transaction exists.
        let s = sys(
            &["Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", "Lx Ly x y Ux Uy"],
            &[("x", 0), ("y", 0)],
        );
        let cfg = ThreadedConfig {
            resolution: ThreadedResolution::Prevent(PreventionScheme::WoundWait),
            lock_timeout: Duration::from_millis(2),
            max_attempts: 1000,
            ..Default::default()
        };
        for _ in 0..10 {
            let r = run_threaded(&s, &cfg).unwrap();
            assert!(r.finished);
            assert_eq!(
                r.committed_epoch[0],
                Some(0),
                "the oldest transaction is invulnerable under wound-wait"
            );
            assert!(r.audit.serializable);
        }
    }

    #[test]
    fn unfinished_txn_contributes_no_phantom_epoch_to_the_audit() {
        // Zero attempts: every transaction is unfinished by construction.
        // The old report published `committed_epoch = max_attempts` (here
        // 0 — a *valid-looking* epoch) for them; the audit must instead
        // see `None` and an empty schedule.
        let s = sys(
            &["Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux"],
            &[("x", 0), ("y", 0)],
        );
        let cfg = ThreadedConfig {
            max_attempts: 0,
            ..Default::default()
        };
        let r = run_threaded(&s, &cfg).unwrap();
        assert!(!r.finished);
        assert_eq!(r.committed_epoch, vec![None, None]);
        assert_eq!(r.audit.schedule.len(), 0, "no phantom steps audited");

        // One attempt on a deadlock-prone pair with a tiny timeout: any
        // run where a transaction exhausts its budget must keep its
        // partial epoch-0 history out of the audited schedule, and a
        // committed claim must never point at an epoch that cannot have
        // run (the old code reported `max_attempts` — a forged epoch —
        // for every unfinished transaction). Thread scheduling decides
        // whether the collision happens; the property must hold either
        // way, so assert it on every run.
        let cfg = ThreadedConfig {
            max_attempts: 1,
            lock_timeout: Duration::from_millis(1),
            ..Default::default()
        };
        for _ in 0..25 {
            let r = run_threaded(&s, &cfg).unwrap();
            for (t, ep) in r.committed_epoch.iter().enumerate() {
                match ep {
                    Some(e) => assert!(
                        *e < cfg.max_attempts,
                        "T{} claims an epoch that never ran",
                        t + 1
                    ),
                    None => assert!(
                        r.audit.schedule.steps().iter().all(|s| s.txn.idx() != t),
                        "unfinished T{} leaked steps into the audit",
                        t + 1
                    ),
                }
            }
        }
    }

    #[test]
    fn threaded_avoid_certified_set_commits_first_try() {
        // Every transaction locks in ascending entity order: the whole set
        // certifies, so under Avoid nothing is ever wounded or rejected —
        // every transaction commits at epoch 0 (zero aborts), with a lock
        // timeout far beyond the test budget so the heuristic cannot be
        // credited.
        let s = sys(
            &["Lx Ly x y Ux Uy", "Lx Ly x y Ux Uy", "Ly Lz y z Uy Uz"],
            &[("x", 0), ("y", 1), ("z", 2)],
        );
        let plan = AvoidPlan::synthesize(&s);
        assert!(plan.fully_certified());
        let cfg = ThreadedConfig {
            resolution: ThreadedResolution::Avoid,
            avoid: Some(plan.clone()),
            lock_timeout: Duration::from_millis(2),
            max_attempts: 1000,
            ..Default::default()
        };
        for _ in 0..5 {
            let r = run_threaded(&s, &cfg).unwrap();
            assert!(r.finished);
            assert_eq!(r.aborts, 0, "certified sets never restart");
            assert!(r.committed_epoch.iter().all(|&e| e == Some(0)));
            r.audit.legal.as_ref().unwrap();
            assert!(r.audit.serializable);
        }
    }

    #[test]
    fn threaded_avoid_mixed_set_finishes_without_timeouts() {
        // T2 opposes the lock order and stays uncertified: the wound-wait
        // fallback meters it while the certified majority runs untouched.
        let s = sys(
            &["Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", "Lx Ly x y Ux Uy"],
            &[("x", 0), ("y", 0)],
        );
        let plan = AvoidPlan::synthesize(&s);
        assert!(plan.is_certified(TxnId(0)) && !plan.is_certified(TxnId(1)));
        let cfg = ThreadedConfig {
            resolution: ThreadedResolution::Avoid,
            avoid: Some(plan),
            lock_timeout: Duration::from_millis(2),
            max_attempts: 1000,
            ..Default::default()
        };
        for _ in 0..10 {
            let r = run_threaded(&s, &cfg).unwrap();
            assert!(r.finished, "avoidance must not wedge");
            r.audit.legal.as_ref().unwrap();
            assert!(r.audit.serializable);
        }
    }

    #[test]
    fn threaded_avoid_requires_a_matching_plan() {
        let s = sys(&["Lx x Ux"], &[("x", 0)]);
        let cfg = ThreadedConfig {
            resolution: ThreadedResolution::Avoid,
            ..Default::default()
        };
        assert_eq!(
            run_threaded(&s, &cfg).unwrap_err(),
            ConfigError::AvoidWithoutPlan
        );
        let other = sys(&["Lx x Ux", "Lx x Ux"], &[("x", 0)]);
        let cfg = ThreadedConfig {
            resolution: ThreadedResolution::Avoid,
            avoid: Some(AvoidPlan::synthesize(&other)),
            ..Default::default()
        };
        assert_eq!(
            run_threaded(&s, &cfg).unwrap_err(),
            ConfigError::AvoidPlanMismatch {
                plan_txns: 2,
                system_txns: 1
            }
        );
    }

    #[test]
    fn threaded_single_shard_still_works() {
        let s = sys(
            &["Lx Ly x y Ux Uy", "Lx Ly x y Ux Uy"],
            &[("x", 0), ("y", 1)],
        );
        let cfg = ThreadedConfig {
            shards: 1,
            ..Default::default()
        };
        let r = run_threaded(&s, &cfg).unwrap();
        assert!(r.finished);
        assert!(r.audit.serializable);
    }

    #[test]
    fn threaded_delegation_turns_retries_into_cache_hits() {
        // Each transaction locks a private entity first, then fights over
        // `x` under no-wait: every rejection aborts while holding the
        // private entity — always uncontested, so always retained — and
        // the retry's private Lock step must be a cache hit. The runner
        // is nondeterministic (the threads may simply never collide), so
        // the assertion is conditional: aborts imply hits.
        let s = sys(
            &["Lq Lx q x x x Uq Ux", "Lp Lx p x x x Up Ux"],
            &[("q", 0), ("p", 0), ("x", 0)],
        );
        let cfg = ThreadedConfig {
            resolution: ThreadedResolution::Prevent(PreventionScheme::NoWait),
            lock_timeout: Duration::from_millis(2),
            max_attempts: 1000,
            delegation: true,
            ..Default::default()
        };
        for _ in 0..20 {
            let r = run_threaded(&s, &cfg).unwrap();
            assert!(r.finished);
            r.audit.legal.as_ref().unwrap();
            assert!(r.audit.serializable);
            if r.aborts > 0 {
                assert!(
                    r.cache_hits >= 1,
                    "an abort retained the private entity, so the retry must hit"
                );
            }
        }
    }

    #[test]
    fn threaded_delegation_surrenders_contested_entries() {
        // The deadlock-prone pair plus private entities, on every
        // resolution flavour: retained entries the rival demands must be
        // surrendered (at abort or at revalidation), so delegation never
        // wedges a run that finished without it.
        let s = sys(
            &["Lq Lx Ly q x y Uq Ux Uy", "Lp Ly Lx p y x Up Uy Ux"],
            &[("q", 0), ("p", 0), ("x", 0), ("y", 0)],
        );
        let resolutions = [
            ThreadedResolution::TimeoutAbort,
            ThreadedResolution::Prevent(PreventionScheme::WoundWait),
            ThreadedResolution::Prevent(PreventionScheme::WaitDie),
        ];
        for resolution in resolutions {
            let cfg = ThreadedConfig {
                resolution,
                lock_timeout: Duration::from_millis(5),
                max_attempts: 1000,
                delegation: true,
                ..Default::default()
            };
            for _ in 0..5 {
                let r = run_threaded(&s, &cfg).unwrap();
                assert!(r.finished, "{resolution:?} must not wedge under delegation");
                r.audit.legal.as_ref().unwrap();
                assert!(r.audit.serializable, "{resolution:?}");
            }
        }
    }

    #[test]
    fn threaded_delegation_off_reports_no_hits() {
        let s = sys(
            &["Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux"],
            &[("x", 0), ("y", 0)],
        );
        let r = run_threaded(&s, &ThreadedConfig::default()).unwrap();
        assert!(r.finished);
        assert_eq!(r.cache_hits, 0, "the counter only moves with the knob on");
    }
}
