//! `dlm_ops`: one thread driving `kplock-dlm`'s public API in 1 000-op
//! batches — a lock-table operation in isolation, which `sim_scan`
//! multiplies by a thousand per transaction.
//!
//! `ShardedTable<u32>` and `LockManager<u32>` are built with their default
//! table, so a change of default shows as a gain here, not as an edit.

use super::input_seed;
use crate::harness::{Metrics, Outcome, Scale, Workload};
use crate::stats::median;
use crate::trace::{Summary, Tracer};
use kplock_core::policy::LockStrategy;
use kplock_dlm::{
    Acquire, DelegationLedger, Grants, Lease, LockManager, ManagedAcquire, PreventionOutcome,
    PreventionScheme, ShardedTable,
};
use kplock_model::{EntityId, LockMode, TxnSystem};
use kplock_sim::{run_threaded, ThreadedConfig};
use kplock_workload::{random_pair, WorkloadParams};
use std::time::Instant;

const SHARDS: usize = 16;
/// Entities the batches draw from: enough that consecutive cycles land on
/// different shards and table entries, few enough to stay cache-resident.
const UNIVERSE: u32 = 4096;
const BATCH_OPS: usize = 1000;
// Full size; see the note on pass length in `sim.rs`.
const BATCHES_PER_PHASE: usize = 2000;
/// A manager batch takes ten times as long as a table batch (the manager
/// also keeps the wait-for graph): with as many batches as the table phases
/// have, two thirds of a pass would be the manager's.
const MANAGER_BATCHES: usize = 300;
/// Blocks of each real-thread measurement; the metric is their median.
const THREAD_BLOCKS: usize = 5;
const THREAD_OPS: usize = 200_000;
const THREADED_STEPS: usize = 256;
const THREADED_RUNS_PER_BLOCK: usize = 20;

const X: LockMode = LockMode::Exclusive;
const S: LockMode = LockMode::Shared;

/// The six phases of a pass, with the table operations in one cycle.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    /// Acquire X, release: nobody else wants the entity.
    Uncontended,
    /// A second owner queues behind the first and is granted by its release.
    Queued,
    /// Four owners hold S together.
    Shared,
    /// A sole S holder upgrades to X.
    Upgrade,
    /// Wound-wait admission: an older requester wounds the younger holder.
    Priority,
    /// `Queued` through `LockManager`, which also keeps the wait-for graph.
    Manager,
}

impl Phase {
    const ALL: [Phase; 6] = [
        Phase::Uncontended,
        Phase::Queued,
        Phase::Shared,
        Phase::Upgrade,
        Phase::Priority,
        Phase::Manager,
    ];

    fn ops_per_cycle(self) -> usize {
        match self {
            Phase::Uncontended => 2,
            Phase::Queued | Phase::Priority | Phase::Manager => 4,
            Phase::Shared => 8,
            Phase::Upgrade => 3,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Phase::Uncontended => "uncontended",
            Phase::Queued => "queued",
            Phase::Shared => "shared",
            Phase::Upgrade => "upgrade",
            Phase::Priority => "priority",
            Phase::Manager => "manager",
        }
    }
}

/// The calls only a traced run makes.
#[derive(Clone, Copy)]
enum Extra {
    ShardedBatch,
    DeadlockCheck,
    Ledger,
    ShardedThreads,
    ManagerThreads,
    ThreadedRunner,
}

const EXTRAS: [Extra; 6] = [
    Extra::ShardedBatch,
    Extra::DeadlockCheck,
    Extra::Ledger,
    Extra::ShardedThreads,
    Extra::ManagerThreads,
    Extra::ThreadedRunner,
];

/// Per-block results of the real-thread extras.
#[derive(Default)]
struct ThreadResults {
    sharded_ops_per_s: Vec<f64>,
    manager_ops_per_s: Vec<f64>,
    runner_commits_per_s: Vec<f64>,
    runner_call_us: Vec<f64>,
    runner_aborts: u64,
    runner_commits: u64,
}

/// `dlm_ops`.
pub struct Dlm {
    table: ShardedTable<u32>,
    manager: LockManager<u32>,
    /// The entity stream drawn from the seed.
    entities: Vec<EntityId>,
    /// Each batch's phase and where its window of the stream starts.
    batches: Vec<(Phase, usize)>,
    grants: Grants<u32>,
    pairs: Vec<TxnSystem>,
    seed: u64,
    threads: ThreadResults,
}

/// SplitMix64: the benchmark's own input stream, so the table sees the same
/// entities whatever the vendored `rand` does.
fn split_mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one batch of `phase` over `entities`; returns how many operations
/// answered other than the protocol says.
fn run_batch(
    phase: Phase,
    entities: &[EntityId],
    table: &ShardedTable<u32>,
    grants: &mut Grants<u32>,
) -> usize {
    let mut wrong = 0;
    let mut expect = |ok: bool| wrong += usize::from(!ok);
    let age = |o: u32| (o as u64, o as u64);
    match phase {
        Phase::Uncontended => {
            for &e in entities {
                expect(table.acquire(e, 1, X) == Ok(Acquire::Granted));
                grants.clear();
                expect(table.release_into(e, 1, grants).is_ok() && grants.is_empty());
            }
        }
        Phase::Queued => {
            for &e in entities {
                expect(table.acquire(e, 1, X) == Ok(Acquire::Granted));
                expect(table.acquire(e, 2, X) == Ok(Acquire::Queued));
                grants.clear();
                expect(table.release_into(e, 1, grants).is_ok() && grants[..] == [(2, X)]);
                grants.clear();
                expect(table.release_into(e, 2, grants).is_ok() && grants.is_empty());
            }
        }
        Phase::Shared => {
            for &e in entities {
                for o in 1..=4 {
                    expect(table.acquire(e, o, S) == Ok(Acquire::Granted));
                }
                for o in 1..=4 {
                    grants.clear();
                    expect(table.release_into(e, o, grants).is_ok() && grants.is_empty());
                }
            }
        }
        Phase::Upgrade => {
            for &e in entities {
                expect(table.acquire(e, 1, S) == Ok(Acquire::Granted));
                expect(table.acquire(e, 1, X) == Ok(Acquire::Granted));
                grants.clear();
                expect(table.release_into(e, 1, grants).is_ok() && grants.is_empty());
            }
        }
        Phase::Priority => {
            let scheme = PreventionScheme::WoundWait;
            for &e in entities {
                // Owner 2 is younger than owner 1 and holds the lock.
                let young = table.acquire_with_priority(e, 2, X, scheme, age);
                expect(young == Ok(PreventionOutcome::Granted));
                let old = table.acquire_with_priority(e, 1, X, scheme, age);
                expect(matches!(old, Ok(PreventionOutcome::Wounded(v)) if v[..] == [2]));
                grants.clear();
                expect(table.release_into(e, 2, grants).is_ok() && grants[..] == [(1, X)]);
                grants.clear();
                expect(table.release_into(e, 1, grants).is_ok() && grants.is_empty());
            }
        }
        Phase::Manager => unreachable!("`Dlm::manager_batch` times the manager phase"),
    }
    wrong
}

impl Dlm {
    /// The manager phase: every acquire of the batch, then every release,
    /// so the two directions are timed apart.
    ///
    /// All of a batch's locks are held at once here, so its entities must
    /// differ: they are consecutive, from where the window starts.
    fn manager_batch(&self, start: usize, cycles: usize, tr: &mut Tracer) -> (usize, u64) {
        let first = self.entities[start].0;
        let entities = (0..cycles as u32).map(|k| EntityId((first + k) % UNIVERSE));
        let manager = &self.manager;
        let (wrong_in, acquire_ns) = tr.span("dlm.manager.acquire", |_| {
            let mut wrong = 0;
            for e in entities.clone() {
                wrong += usize::from(manager.acquire(e, 1, X) != Ok(ManagedAcquire::Granted));
                wrong += usize::from(manager.acquire(e, 2, X) != Ok(ManagedAcquire::Queued));
            }
            wrong
        });
        tr.annotate(&[("ops", 2 * cycles as u64)]);
        let (wrong_out, release_ns) = tr.span("dlm.manager.release", |_| {
            let mut wrong = 0;
            for e in entities {
                let first = manager.release(e, 1);
                wrong += usize::from(!matches!(&first, Ok(r) if r.granted[..] == [(2, X)]));
                let second = manager.release(e, 2);
                wrong += usize::from(!matches!(&second, Ok(r) if r.granted.is_empty()));
            }
            wrong
        });
        tr.annotate(&[("ops", 2 * cycles as u64)]);
        (wrong_in + wrong_out, acquire_ns + release_ns)
    }

    fn extra(&mut self, which: Extra, tr: &mut Tracer) -> Outcome {
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2);
        match which {
            Extra::ShardedBatch => {
                let mut wrong = 0;
                let mut total_ns = 0;
                for chunk in self.entities.chunks_exact(64).take(200) {
                    let mut locks: Vec<EntityId> = chunk.to_vec();
                    locks.sort();
                    locks.dedup();
                    let requests: Vec<(EntityId, LockMode)> =
                        locks.iter().map(|&e| (e, X)).collect();
                    let table = &self.table;
                    let (ok, ns) = tr.span("dlm.sharded.batch", |_| {
                        let got = table.acquire_batch(1, &requests);
                        let granted =
                            matches!(&got, Ok(g) if g.iter().all(|&(_, a)| a == Acquire::Granted));
                        granted && table.release_batch(1, &locks).is_ok()
                    });
                    tr.annotate(&[("locks", locks.len() as u64)]);
                    wrong += usize::from(!ok);
                    total_ns += ns;
                }
                let failure = if wrong > 0 {
                    Some(format!("{wrong} batches answered against the protocol"))
                } else if !self.table.is_idle() {
                    Some("table not idle after the batches".to_string())
                } else {
                    None
                };
                Outcome::new(200, total_ns, failure)
            }
            Extra::DeadlockCheck => {
                // A chain of 64 owners each waiting for the next, no cycle:
                // the detector has to walk all of it to say so.
                let manager: LockManager<u32> = LockManager::new(SHARDS);
                let mut wrong = 0;
                for o in 0..64u32 {
                    wrong += usize::from(
                        manager.acquire(EntityId(o), o, X) != Ok(ManagedAcquire::Granted),
                    );
                }
                for o in 0..63u32 {
                    wrong += usize::from(
                        manager.acquire(EntityId(o + 1), o, X) != Ok(ManagedAcquire::Queued),
                    );
                }
                let mut total_ns = 0;
                for _ in 0..200 {
                    let (groups, ns) = tr.span("dlm.manager.deadlock_check", |_| {
                        manager.deadlocked_groups()
                    });
                    wrong += usize::from(!groups.is_empty());
                    total_ns += ns;
                }
                Outcome::new(
                    200,
                    total_ns,
                    (wrong > 0).then(|| format!("{wrong} wrong answers")),
                )
            }
            Extra::Ledger => {
                let mut ledger: DelegationLedger<u32> = DelegationLedger::new();
                let entities = &self.entities[..BATCH_OPS];
                let (wrong, ns) = tr.span("dlm.lease.ledger", |_| {
                    let mut wrong = 0;
                    for (tick, &e) in entities.iter().enumerate() {
                        ledger.delegate(1, e, Lease::new(tick as u64, 400));
                        wrong += usize::from(!ledger.is_delegated(1, e));
                        wrong += usize::from(!ledger.start_revoke(1, e));
                        wrong += usize::from(!ledger.remove(1, e));
                    }
                    wrong
                });
                tr.annotate(&[("ops", 4 * entities.len() as u64)]);
                let failure = (wrong > 0 || !ledger.is_empty()).then(|| "ledger misbehaved".into());
                Outcome::new(4 * entities.len() as u64, ns, failure)
            }
            Extra::ShardedThreads => {
                let table = &self.table;
                let (rates, ns) = thread_blocks(tr, "dlm.sharded.t2", threads, |base| {
                    let mut grants = Grants::new();
                    let mut wrong = 0;
                    for i in 0..THREAD_OPS / 2 {
                        let e = EntityId(base + (i as u32 % 1024));
                        wrong += usize::from(table.acquire(e, base, X) != Ok(Acquire::Granted));
                        grants.clear();
                        wrong += usize::from(table.release_into(e, base, &mut grants).is_err());
                    }
                    wrong
                });
                let failure = rates
                    .is_none()
                    .then(|| "wrong answers under two threads".into());
                self.threads.sharded_ops_per_s = rates.unwrap_or_default();
                Outcome::new((THREAD_BLOCKS * threads * THREAD_OPS) as u64, ns, failure)
            }
            Extra::ManagerThreads => {
                let manager = &self.manager;
                let (rates, ns) = thread_blocks(tr, "dlm.manager.t2", threads, |base| {
                    let mut wrong = 0;
                    for i in 0..THREAD_OPS / 2 {
                        let e = EntityId(base + (i as u32 % 1024));
                        wrong +=
                            usize::from(manager.acquire(e, base, X) != Ok(ManagedAcquire::Granted));
                        wrong += usize::from(manager.release(e, base).is_err());
                    }
                    wrong
                });
                let failure = rates
                    .is_none()
                    .then(|| "wrong answers under two threads".into());
                self.threads.manager_ops_per_s = rates.unwrap_or_default();
                Outcome::new((THREAD_BLOCKS * threads * THREAD_OPS) as u64, ns, failure)
            }
            Extra::ThreadedRunner => {
                // `run_threaded` starts a thread per transaction; with one
                // core there is nothing to measure.
                if threads < 2 {
                    return Outcome::new(0, 0, None);
                }
                let cfg = ThreadedConfig::default();
                let mut failure = None;
                let mut total_ns = 0;
                let t = &mut self.threads;
                for _ in 0..THREAD_BLOCKS {
                    let mut commits = 0;
                    let block = Instant::now();
                    for sys in &self.pairs {
                        let (report, ns) = tr.span("sim.threaded.run", |_| run_threaded(sys, &cfg));
                        total_ns += ns;
                        t.runner_call_us.push(ns as f64 / 1e3);
                        match report {
                            Ok(r)
                                if r.finished && r.audit.legal.is_ok() && r.audit.serializable =>
                            {
                                commits += sys.len() as u64;
                                t.runner_aborts += r.aborts as u64;
                            }
                            Ok(_) => failure = Some("threaded run failed its audit".to_string()),
                            Err(e) => failure = Some(format!("configuration rejected: {e}")),
                        }
                    }
                    t.runner_commits += commits;
                    t.runner_commits_per_s
                        .push(commits as f64 / block.elapsed().as_secs_f64());
                }
                Outcome::new(t.runner_commits, total_ns, failure)
            }
        }
    }
}

/// Runs `work` on `threads` real threads over disjoint entity ranges,
/// [`THREAD_BLOCKS`] times. Returns the blocks' operations per second
/// (`None` if any thread saw a wrong answer) and the total time.
fn thread_blocks(
    tr: &mut Tracer,
    span: &'static str,
    threads: usize,
    work: impl Fn(u32) -> usize + Sync,
) -> (Option<Vec<f64>>, u64) {
    let mut rates = Vec::new();
    let mut wrong = 0;
    let mut total_ns = 0;
    for _ in 0..THREAD_BLOCKS {
        let (block_wrong, ns) = tr.span(span, |_| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let work = &work;
                        // Owners and entity ranges are disjoint per thread
                        // and clear of the single-threaded phases' owners.
                        scope.spawn(move || work(UNIVERSE * (t as u32 + 1)))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("benchmark thread panicked"))
                    .sum::<usize>()
            })
        });
        wrong += block_wrong;
        total_ns += ns;
        rates.push((threads * THREAD_OPS) as f64 / (ns as f64 / 1e9));
    }
    ((wrong == 0).then_some(rates), total_ns)
}

impl Workload for Dlm {
    fn calls(&self) -> usize {
        self.batches.len()
    }

    fn extras(&self) -> usize {
        EXTRAS.len()
    }

    fn call(&mut self, i: usize, tr: &mut Tracer) -> Outcome {
        if i >= self.batches.len() {
            return self.extra(EXTRAS[i - self.batches.len()], tr);
        }
        let (phase, start) = self.batches[i];
        let cycles = BATCH_OPS / phase.ops_per_cycle();
        let ops = (cycles * phase.ops_per_cycle()) as u64;
        let (wrong, ns) = if phase == Phase::Manager {
            self.manager_batch(start, cycles, tr)
        } else {
            let span = match phase {
                Phase::Uncontended => "dlm.table.uncontended",
                Phase::Queued => "dlm.table.queued",
                Phase::Shared => "dlm.table.shared",
                Phase::Upgrade => "dlm.table.upgrade",
                Phase::Priority => "dlm.table.priority",
                Phase::Manager => unreachable!("handled above"),
            };
            let entities = &self.entities[start..start + cycles];
            let (table, grants) = (&self.table, &mut self.grants);
            let out = tr.span(span, |_| run_batch(phase, entities, table, grants));
            tr.annotate(&[("cycles", cycles as u64)]);
            out
        };
        let idle = if phase == Phase::Manager {
            self.manager.table().is_idle()
        } else {
            self.table.is_idle()
        };
        let failure = if wrong > 0 {
            Some(format!("{wrong} operations answered against the protocol"))
        } else if !idle {
            Some("table not idle after the batch".to_string())
        } else {
            None
        };
        Outcome::new(ops, ns, failure)
    }

    fn describe(&self, i: usize) -> String {
        let arm = match self.batches.get(i) {
            Some((phase, _)) => phase.name(),
            None => "traced extra",
        };
        format!("input seed {} arm {arm}", input_seed(self.seed, i))
    }

    fn begin_pass(&mut self) {}

    fn layer_metrics(&self, _spans: &Summary, out: &mut Metrics) {
        let t = &self.threads;
        let spread = |xs: &[f64]| {
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().copied().fold(0.0, f64::max);
            if xs.is_empty() {
                0.0
            } else {
                hi / lo
            }
        };
        for (name, v) in [
            ("dlm.sharded.t2.ops_per_s", median(&t.sharded_ops_per_s)),
            ("dlm.manager.t2.ops_per_s", median(&t.manager_ops_per_s)),
            (
                "sim.threaded.commits_per_s",
                median(&t.runner_commits_per_s),
            ),
            ("sim.threaded.call_p50_us", median(&t.runner_call_us)),
            (
                "sim.threaded.aborts_per_commit",
                (t.runner_commits > 0).then(|| t.runner_aborts as f64 / t.runner_commits as f64),
            ),
            (
                "sim.threaded.spread",
                (!t.runner_commits_per_s.is_empty()).then(|| spread(&t.runner_commits_per_s)),
            ),
        ] {
            if let Some(v) = v {
                out.insert(name.to_string(), v);
            }
        }
    }
}

/// `dlm_ops`: the entity stream comes from the seed; the operations are
/// fixed by the phase.
pub fn ops(seed: u64, scale: Scale) -> Dlm {
    let mut state = input_seed(seed, 0);
    // One shared stream of 64 Ki draws; each batch reads its own window.
    let stream_len = 1 << 16;
    let max_cycles = BATCH_OPS / 2;
    // A cycle leaves its entity unlocked, so repeats in a window are fine.
    let entities: Vec<EntityId> = (0..stream_len + max_cycles)
        .map(|_| EntityId((split_mix(&mut state) % UNIVERSE as u64) as u32))
        .collect();
    let mut batches = Vec::new();
    for phase in Phase::ALL {
        let full = if phase == Phase::Manager {
            MANAGER_BATCHES
        } else {
            BATCHES_PER_PHASE
        };
        for _ in 0..scale.n(full) {
            batches.push((phase, (split_mix(&mut state) % stream_len as u64) as usize));
        }
    }
    let pairs = (0..scale.n(THREADED_RUNS_PER_BLOCK))
        .map(|i| {
            random_pair(&WorkloadParams {
                seed: input_seed(seed, i),
                sites: 2,
                entities_per_site: 16,
                steps_per_txn: THREADED_STEPS,
                strategy: LockStrategy::TwoPhaseSync,
                ..Default::default()
            })
        })
        .collect();
    Dlm {
        table: ShardedTable::new(SHARDS),
        manager: LockManager::new(SHARDS),
        entities,
        batches,
        grants: Grants::new(),
        pairs,
        seed,
        threads: ThreadResults::default(),
    }
}
