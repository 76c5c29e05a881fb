//! Serializability of schedules.
//!
//! Under the paper's update interpretation (each step reads then writes its
//! entity) two schedules are equivalent iff conflicting accesses — accesses
//! of the same entity by different transactions — occur in the same order.
//! A schedule is serializable iff its *serialization graph* is acyclic.
//!
//! Lock and unlock steps carry no data flow. For well-locked transactions
//! every update is inside its lock section and lock sections on the same
//! entity never overlap in a legal schedule, so the per-entity access order
//! equals the lock-section order; this lets us also analyze the paper's
//! figure-style transactions whose update steps are elided.

use crate::action::ActionKind;
use crate::entity::Database;
use crate::ids::{EntityId, StepId, TxnId};
use crate::schedule::Schedule;
use crate::system::TxnSystem;
use crate::txn::Transaction;
use kplock_graph::DiGraph;

/// Builds the serialization graph of a (complete, legal) schedule: one node
/// per transaction, an edge `Ti -> Tj` iff some access of an entity by `Ti`
/// precedes a *conflicting* access of the same entity by `Tj`.
///
/// An *access* of entity `x` by `T` is an `update x` step; if `T` locks `x`
/// but never updates it (figure-style transactions), the lock section itself
/// counts as a single access placed at the `lock x` step — **unless** the
/// lock is an intention mode (`IS`/`IX`), which only announces finer locks
/// below `x` and touches no data itself. Two accesses of the same entity by
/// different transactions conflict unless **both** are reads
/// ([`crate::action::LockMode::Shared`]); in the paper's exclusive-only
/// model every access is a write, so every same-entity pair conflicts.
///
/// On a hierarchical database a coarse (non-intention) parent section is a
/// *direct* access of the parent, and every child update is additionally
/// mapped up to its parent as an *indirect* access there: a coarse scan of
/// a file conflicts with a record update under that file even though the
/// two transactions name no common entity. Two indirect accesses never
/// conflict with each other — their order is fixed by the child-level
/// events that produced them. On a flat database every access is direct,
/// reproducing the original construction exactly.
///
/// One pass over the schedule: per entity it keeps, for each transaction
/// seen there, the set of access kinds (`is_write` × `is_direct`) made so
/// far, and a new access by `b` adds `a -> b` for every other transaction
/// `a` with a conflicting earlier kind — O(accesses × transactions on the
/// entity), the same edge set as comparing every pair of accesses. The
/// records are flat: one per (entity, transaction) pair seen, each
/// entity's threaded into a list in the order its transactions arrived.
pub fn serialization_graph(sys: &TxnSystem, schedule: &Schedule) -> DiGraph {
    /// A list's end.
    const NONE: u32 = u32::MAX;
    /// One transaction's access kinds on one entity, and the next
    /// transaction's record on that entity.
    struct Seen {
        txn: TxnId,
        kinds: u8,
        next: u32,
    }
    let mut g = DiGraph::new(sys.len());
    // `lists[e]`: the first and last record of entity `e`.
    let mut lists: Vec<[u32; 2]> = Vec::with_capacity(sys.db().entity_count());
    let mut seen: Vec<Seen> = Vec::new();
    for ss in schedule.steps() {
        let b = ss.txn;
        for access in step_accesses(sys.db(), sys.txn(b), ss.step) {
            let Some((entity, kind)) = access else {
                continue;
            };
            let e = entity.idx();
            if lists.len() <= e {
                lists.resize(e + 1, [NONE; 2]);
            }
            let (mut r, mut own) = (lists[e][0], NONE);
            while r != NONE {
                let rec = &seen[r as usize];
                if rec.txn == b {
                    own = r;
                } else if rec.kinds & kind.conflicting() != 0 {
                    g.add_edge(rec.txn.idx(), b.idx());
                }
                r = rec.next;
            }
            if own != NONE {
                seen[own as usize].kinds |= kind.bit();
                continue;
            }
            let new = seen.len() as u32;
            seen.push(Seen {
                txn: b,
                kinds: kind.bit(),
                next: NONE,
            });
            match lists[e] {
                [NONE, _] => lists[e] = [new, new],
                [_, last] => {
                    seen[last as usize].next = new;
                    lists[e][1] = new;
                }
            }
        }
    }
    g
}

/// One of the four kinds of access [`serialization_graph`] tells apart —
/// whether it writes × whether it is direct — as one bit of a 4-bit set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessKind(u8);

impl AccessKind {
    /// A direct write: the one kind that conflicts with every kind,
    /// itself included.
    pub const DIRECT_WRITE: AccessKind = AccessKind(0b1000);

    const WRITES: u8 = 0b1100;
    const DIRECTS: u8 = 0b1010;

    /// The kind of an access that writes or only reads, of its own entity
    /// or (indirectly) through a child.
    pub fn new(is_write: bool, is_direct: bool) -> AccessKind {
        AccessKind(1 << (2 * u8::from(is_write) + u8::from(is_direct)))
    }

    /// This kind's bit.
    pub fn bit(self) -> u8 {
        self.0
    }

    /// This kind's place among the four, `0..4`: its bit is `1 << index`.
    pub const fn index(self) -> usize {
        self.0.trailing_zeros() as usize
    }

    /// The set of kinds this one conflicts with: one of the two must
    /// write and one of the two must be direct. The relation is
    /// symmetric.
    pub fn conflicting(self) -> u8 {
        let writes = self.0 & Self::WRITES != 0;
        let direct = self.0 & Self::DIRECTS != 0;
        (if writes { 0b1111 } else { Self::WRITES }) & (if direct { 0b1111 } else { Self::DIRECTS })
    }
}

/// The accesses step `s` of `t` makes, as [`serialization_graph`] counts
/// them: an update accesses its entity directly and, on a hierarchical
/// database, its parent indirectly; a lock step in a non-intention mode
/// is one direct access of its entity when `t` never updates that entity
/// ([`crate::Transaction::has_update`]); an unlock accesses nothing. At
/// most two, so no allocation.
pub fn step_accesses(
    db: &Database,
    t: &Transaction,
    s: StepId,
) -> [Option<(EntityId, AccessKind)>; 2] {
    let step = t.step(s);
    let write = step.mode.is_write();
    match step.kind {
        ActionKind::Update => [
            Some((step.entity, AccessKind::new(write, true))),
            db.parent_of(step.entity)
                .map(|p| (p, AccessKind::new(write, false))),
        ],
        ActionKind::Lock if !step.mode.is_intention() && !t.has_update(step.entity) => {
            [Some((step.entity, AccessKind::new(write, true))), None]
        }
        ActionKind::Lock | ActionKind::Unlock => [None, None],
    }
}

/// True iff the schedule is (conflict-)serializable.
pub fn is_serializable(sys: &TxnSystem, schedule: &Schedule) -> bool {
    kplock_graph::is_acyclic(&serialization_graph(sys, schedule))
}

/// If serializable, returns an equivalent serial order of transactions.
pub fn equivalent_serial_order(sys: &TxnSystem, schedule: &Schedule) -> Option<Vec<TxnId>> {
    let g = serialization_graph(sys, schedule);
    kplock_graph::topo_sort(&g).map(|o| o.into_iter().map(TxnId::from_idx).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TxnBuilder;
    use crate::entity::Database;
    use crate::ids::StepId;
    use crate::reference;
    use crate::schedule::ScheduledStep;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    fn two_txn_sys(scripts: [&str; 2], spec: &[(&str, usize)]) -> TxnSystem {
        let db = Database::from_spec(spec);
        let mut txns = Vec::new();
        for (i, s) in scripts.iter().enumerate() {
            let mut b = TxnBuilder::new(&db, format!("T{}", i + 1));
            b.script(s).unwrap();
            txns.push(b.build().unwrap());
        }
        TxnSystem::new(db, txns)
    }

    fn sched(steps: &[(u32, u32)]) -> Schedule {
        Schedule::new(
            steps
                .iter()
                .map(|&(t, s)| ScheduledStep {
                    txn: TxnId(t),
                    step: StepId(s),
                })
                .collect(),
        )
    }

    #[test]
    fn serial_is_serializable() {
        let sys = two_txn_sys(
            ["Lx x Ux Ly y Uy", "Lx x Ux Ly y Uy"],
            &[("x", 0), ("y", 0)],
        );
        let s = Schedule::serial(&sys, &[TxnId(0), TxnId(1)]);
        assert!(is_serializable(&sys, &s));
        assert_eq!(
            equivalent_serial_order(&sys, &s).unwrap(),
            vec![TxnId(0), TxnId(1)]
        );
    }

    #[test]
    fn interleaving_with_cycle_is_not_serializable() {
        // T1: Lx x Ux Ly y Uy ; T2: Ly y Uy Lx x Ux (both centralized,
        // poorly locked: non-two-phase). Schedule: T1 finishes x, T2 finishes
        // y, then T1 takes y, T2 takes x => T1->T2 on x? Let's order:
        // T1 x-section, then T2 x-section (T1->T2 on x); T2 y-section first,
        // then T1 y-section (T2->T1 on y): cycle.
        let sys = two_txn_sys(
            ["Lx x Ux Ly y Uy", "Ly y Uy Lx x Ux"],
            &[("x", 0), ("y", 0)],
        );
        let s = sched(&[
            (1, 0),
            (1, 1),
            (1, 2), // T2: Ly y Uy
            (0, 0),
            (0, 1),
            (0, 2), // T1: Lx x Ux
            (1, 3),
            (1, 4),
            (1, 5), // T2: Lx x Ux
            (0, 3),
            (0, 4),
            (0, 5), // T1: Ly y Uy
        ]);
        s.validate_complete(&sys).unwrap();
        assert!(!is_serializable(&sys, &s));
        assert!(equivalent_serial_order(&sys, &s).is_none());
    }

    #[test]
    fn figure_style_transactions_use_lock_sections() {
        // No update steps at all; conflicts come from lock sections.
        let sys = two_txn_sys(["Lx Ux Ly Uy", "Ly Uy Lx Ux"], &[("x", 0), ("y", 0)]);
        let s = sched(&[
            (1, 0),
            (1, 1), // T2 y-section
            (0, 0),
            (0, 1), // T1 x-section
            (1, 2),
            (1, 3), // T2 x-section
            (0, 2),
            (0, 3), // T1 y-section
        ]);
        s.validate_complete(&sys).unwrap();
        assert!(!is_serializable(&sys, &s));
    }

    #[test]
    fn concurrent_reads_do_not_conflict() {
        // Both transactions only *read* x under shared locks, in an order
        // that would be a conflict cycle if the accesses were writes.
        let sys = two_txn_sys(
            ["SLx rx Ux SLy ry Uy", "SLy ry Uy SLx rx Ux"],
            &[("x", 0), ("y", 0)],
        );
        let s = sched(&[
            (1, 0),
            (1, 1),
            (1, 2), // T2 reads y
            (0, 0),
            (0, 1),
            (0, 2), // T1 reads x
            (1, 3),
            (1, 4),
            (1, 5), // T2 reads x
            (0, 3),
            (0, 4),
            (0, 5), // T1 reads y
        ]);
        s.validate_complete(&sys).unwrap();
        assert!(is_serializable(&sys, &s), "read-read never conflicts");
        // The same shape with exclusive updates is the classic cycle.
        let sys = two_txn_sys(
            ["Lx x Ux Ly y Uy", "Ly y Uy Lx x Ux"],
            &[("x", 0), ("y", 0)],
        );
        let s = sched(&[
            (1, 0),
            (1, 1),
            (1, 2),
            (0, 0),
            (0, 1),
            (0, 2),
            (1, 3),
            (1, 4),
            (1, 5),
            (0, 3),
            (0, 4),
            (0, 5),
        ]);
        assert!(!is_serializable(&sys, &s));
    }

    #[test]
    fn read_write_still_conflicts() {
        // T1 reads x, T2 writes x: order matters.
        let sys = two_txn_sys(
            ["SLx rx Ux Ly y Uy", "Lx x Ux SLy ry Uy"],
            &[("x", 0), ("y", 0)],
        );
        let s = sched(&[
            (0, 0),
            (0, 1),
            (0, 2), // T1 reads x
            (1, 0),
            (1, 1),
            (1, 2), // T2 writes x   => T1 -> T2
            (1, 3),
            (1, 4),
            (1, 5), // T2 reads y
            (0, 3),
            (0, 4),
            (0, 5), // T1 writes y   => T2 -> T1: cycle
        ]);
        s.validate_complete(&sys).unwrap();
        assert!(!is_serializable(&sys, &s));
    }

    #[test]
    fn intention_sections_do_not_conflict() {
        use crate::action::LockMode;
        use crate::ids::SiteId;
        let mut db = Database::new();
        db.add_entity("f", SiteId(0));
        db.add_child("a", SiteId(0), db.entity("f").unwrap());
        db.add_child("b", SiteId(0), db.entity("f").unwrap());
        let mut txns = Vec::new();
        for (name, child) in [("T1", "a"), ("T2", "b")] {
            let mut b = TxnBuilder::new(&db, name);
            b.lock_mode("f", LockMode::IntentionExclusive).unwrap();
            b.lock(child).unwrap();
            b.update(child).unwrap();
            b.unlock(child).unwrap();
            b.unlock("f").unwrap();
            txns.push(b.build().unwrap());
        }
        let sys = TxnSystem::new(db, txns);
        // Both IX sections overlap; the writes touch disjoint children.
        // Intention locks announce, they do not access: serializable.
        let s = sched(&[
            (0, 0),
            (1, 0),
            (0, 1),
            (1, 1),
            (0, 2),
            (1, 2),
            (0, 3),
            (1, 3),
            (0, 4),
            (1, 4),
        ]);
        s.validate_complete(&sys).unwrap();
        assert!(is_serializable(&sys, &s));
    }

    #[test]
    fn coarse_scan_conflicts_with_child_update() {
        use crate::action::LockMode;
        use crate::ids::SiteId;
        let mut db = Database::new();
        db.add_entity("f", SiteId(0));
        db.add_child("a", SiteId(0), db.entity("f").unwrap());
        // T1 scans the whole file under a coarse shared lock (figure-style,
        // no update steps); T2 updates one record under IX + child X.
        let t1 = {
            let mut b = TxnBuilder::new(&db, "T1");
            b.lock_shared("f").unwrap();
            b.unlock("f").unwrap();
            b.build().unwrap()
        };
        let t2 = {
            let mut b = TxnBuilder::new(&db, "T2");
            b.lock_mode("f", LockMode::IntentionExclusive).unwrap();
            b.lock("a").unwrap();
            b.update("a").unwrap();
            b.unlock("a").unwrap();
            b.unlock("f").unwrap();
            b.build().unwrap()
        };
        let sys = TxnSystem::new(db, vec![t1, t2]);
        // Scan first: the record update is ordered after it.
        let s = sched(&[(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4)]);
        s.validate_complete(&sys).unwrap();
        assert_eq!(
            equivalent_serial_order(&sys, &s).unwrap(),
            vec![TxnId(0), TxnId(1)]
        );
        // Update first: the conflict flips with it.
        let s = sched(&[(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (0, 0), (0, 1)]);
        s.validate_complete(&sys).unwrap();
        assert_eq!(
            equivalent_serial_order(&sys, &s).unwrap(),
            vec![TxnId(1), TxnId(0)]
        );
    }

    /// `Transaction::update_steps` as it was before the update index.
    fn update_steps_by_filter(t: &crate::txn::Transaction, e: EntityId) -> Vec<StepId> {
        t.step_ids()
            .filter(|&s| {
                let st = t.step(s);
                st.kind == ActionKind::Update && st.entity == e
            })
            .collect()
    }

    /// The construction `serialization_graph` replaced, kept as the
    /// oracle: collect every access per entity, then compare every pair.
    fn pairwise_graph(sys: &TxnSystem, schedule: &Schedule) -> DiGraph {
        let mut g = DiGraph::new(sys.len());
        let mut accesses: HashMap<EntityId, Vec<(TxnId, bool, bool)>> = HashMap::new();
        for ss in schedule.steps() {
            let txn = sys.txn(ss.txn);
            let step = txn.step(ss.step);
            let is_access = match step.kind {
                ActionKind::Update => true,
                ActionKind::Lock => {
                    !step.mode.is_intention() && update_steps_by_filter(txn, step.entity).is_empty()
                }
                ActionKind::Unlock => false,
            };
            if !is_access {
                continue;
            }
            let entry = (ss.txn, step.mode.is_write(), true);
            accesses.entry(step.entity).or_default().push(entry);
            if step.kind == ActionKind::Update {
                if let Some(p) = sys.db().parent_of(step.entity) {
                    let entry = (ss.txn, step.mode.is_write(), false);
                    accesses.entry(p).or_default().push(entry);
                }
            }
        }
        for events in accesses.values() {
            for (i, &(a, wa, da)) in events.iter().enumerate() {
                for &(b, wb, db) in &events[i + 1..] {
                    if a != b && (wa || wb) && (da || db) {
                        g.add_edge(a.idx(), b.idx());
                    }
                }
            }
        }
        g
    }

    /// A random system: a flat or two-level database and transactions
    /// that are chains of lock sections in any of the five modes, each
    /// with zero (figure-style), one or two reads or writes inside, plus
    /// the odd update under no lock of its own (shielded by a parent
    /// lock, or simply ill-formed: the graph is defined either way).
    fn random_system(rng: &mut StdRng) -> TxnSystem {
        use crate::action::{LockMode, Step};
        use crate::ids::SiteId;
        let mut db = Database::new();
        let sites = rng.gen_range(1..=3usize);
        let hierarchical = rng.gen_bool(0.5);
        for f in 0..rng.gen_range(1..=3usize) {
            let site = SiteId::from_idx(rng.gen_range(0..sites));
            let file = db.add_entity(&format!("f{f}"), site);
            if hierarchical {
                for r in 0..rng.gen_range(1..=3usize) {
                    db.add_child(&format!("f{f}/r{r}"), site, file);
                }
            }
        }
        let entities: Vec<EntityId> = db.entities().collect();
        let txns = (0..rng.gen_range(1..=5usize))
            .map(|i| {
                // One queue of steps per touched entity, then a random
                // merge of the queues into one chain.
                let mut sections: Vec<Vec<Step>> = Vec::new();
                for &e in &entities {
                    if rng.gen_bool(0.4) {
                        continue;
                    }
                    let mut section = Vec::new();
                    let locked = rng.gen_bool(0.85);
                    if locked {
                        let mode = LockMode::ALL[rng.gen_range(0..LockMode::ALL.len())];
                        section.push(Step::lock(e).with_mode(mode));
                    }
                    for _ in 0..rng.gen_range(0..=2usize) {
                        section.push(if rng.gen_bool(0.5) {
                            Step::read(e)
                        } else {
                            Step::update(e)
                        });
                    }
                    if locked {
                        section.push(Step::unlock(e));
                    }
                    section.reverse();
                    sections.push(section);
                }
                let mut steps = Vec::new();
                while !sections.is_empty() {
                    let q = rng.gen_range(0..sections.len());
                    steps.extend(sections[q].pop());
                    if sections[q].is_empty() {
                        sections.swap_remove(q);
                    }
                }
                let edges: Vec<(StepId, StepId)> = (1..steps.len())
                    .map(|v| (StepId::from_idx(v - 1), StepId::from_idx(v)))
                    .collect();
                crate::txn::Transaction::new(format!("T{i}"), steps, edges).unwrap()
            })
            .collect();
        TxnSystem::new(db, txns)
    }

    /// A random interleaving of the transactions' chains. With `legal`, a
    /// step is only appended if the schedule stays legal, and the walk
    /// stops at a deadlock (a legal, incomplete schedule).
    fn random_schedule(sys: &TxnSystem, legal: bool, rng: &mut StdRng) -> Schedule {
        let mut next = vec![0usize; sys.len()];
        let mut s = Schedule::new(Vec::new());
        loop {
            let mut live: Vec<usize> = (0..sys.len())
                .filter(|&t| next[t] < sys.txns()[t].len())
                .collect();
            let mut moved = false;
            while !live.is_empty() && !moved {
                let t = live.swap_remove(rng.gen_range(0..live.len()));
                let mut longer = s.clone();
                longer.push(TxnId::from_idx(t), StepId::from_idx(next[t]));
                if !legal || longer.validate_prefix(sys).is_ok() {
                    s = longer;
                    next[t] += 1;
                    moved = true;
                }
            }
            if !moved {
                return s;
            }
        }
    }

    fn edge_set(g: &DiGraph) -> Vec<(usize, usize)> {
        let mut edges: Vec<(usize, usize)> = g.edges().collect();
        edges.sort_unstable();
        edges
    }

    /// `sys` with each transaction's precedence edges kept or dropped at
    /// random, so a step may run before the steps it used to follow: an
    /// unlock before its own lock, for one.
    fn loosened(sys: &TxnSystem, rng: &mut StdRng) -> TxnSystem {
        let txns = sys
            .txns()
            .iter()
            .map(|t| {
                let edges: Vec<(StepId, StepId)> = t
                    .edge_graph()
                    .edges()
                    .filter(|_| rng.gen_bool(0.5))
                    .map(|(u, v)| (StepId::from_idx(u), StepId::from_idx(v)))
                    .collect();
                crate::txn::Transaction::new(t.name(), t.steps().to_vec(), edges).unwrap()
            })
            .collect();
        TxnSystem::new(sys.db().clone(), txns)
    }

    /// Holds `validate_prefix` and `serialization_graph` to their map-based
    /// references on random schedules of a random system and of a loosened
    /// copy: legal ones, free interleavings (double locks), prefixes,
    /// shuffles (wrong order), serial ones, and each with a step repeated,
    /// an unknown transaction or a step out of range. Returns the errors,
    /// for the sweep that checks every kind occurs.
    fn flat_state_agrees_with_maps(seed: u64) -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let strict = random_system(&mut rng);
        let loose = loosened(&strict, &mut rng);
        let mut errors = Vec::new();
        for sys in [&strict, &loose] {
            let legal = random_schedule(sys, true, &mut rng);
            let free = random_schedule(sys, false, &mut rng);
            let prefix = free.steps()[..rng.gen_range(0..=free.len())].to_vec();
            let mut shuffled = free.steps().to_vec();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            let serial = Schedule::serial(sys, &sys.txn_ids().collect::<Vec<_>>());
            let mut schedules = vec![
                legal.steps().to_vec(),
                free.steps().to_vec(),
                prefix,
                shuffled,
                serial.steps().to_vec(),
            ];
            for base in schedules.clone() {
                if base.is_empty() {
                    continue;
                }
                let at = rng.gen_range(0..base.len());
                let mut repeated = base.clone();
                repeated.insert(rng.gen_range(at + 1..=base.len()), base[at]);
                let mut unknown = base.clone();
                unknown[at].txn = TxnId::from_idx(sys.len());
                let mut out_of_range = base.clone();
                out_of_range[at].step = StepId::from_idx(sys.txn(base[at].txn).len());
                schedules.extend([repeated, unknown, out_of_range]);
            }
            for steps in schedules {
                let s = Schedule::new(steps);
                let flat = s.validate_prefix(sys);
                assert_eq!(flat, reference::validate_prefix(&s, sys), "seed {seed}");
                assert_eq!(
                    s.validate_complete(sys).is_ok(),
                    flat.is_ok() && s.len() == sys.total_steps()
                );
                errors.extend(flat.err().map(|e| e.to_string()));
                // The graph of a schedule naming an unknown step is not
                // defined.
                let known = s
                    .steps()
                    .iter()
                    .all(|ss| ss.txn.idx() < sys.len() && ss.step.idx() < sys.txn(ss.txn).len());
                if known {
                    assert_eq!(
                        edge_set(&serialization_graph(sys, &s)),
                        edge_set(&reference::serialization_graph(sys, &s)),
                        "seed {seed}"
                    );
                }
            }
        }
        errors
    }

    #[test]
    fn the_flat_state_meets_every_kind_of_illegal_step() {
        let errors: Vec<String> = (0..256).flat_map(flat_state_agrees_with_maps).collect();
        for kind in [
            "executed twice",
            "before its predecessor",
            "already held by",
            "it does not hold",
            "unknown transaction",
            "out of range",
        ] {
            assert!(
                errors.iter().any(|e| e.to_lowercase().contains(kind)),
                "no schedule failed with {kind:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn one_pass_graph_has_the_pairwise_edges(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let sys = random_system(&mut rng);
            for t in sys.txns() {
                for e in sys.db().entities() {
                    prop_assert_eq!(t.update_steps(e), update_steps_by_filter(t, e));
                    prop_assert_eq!(t.has_update(e), !update_steps_by_filter(t, e).is_empty());
                }
            }
            let legal = random_schedule(&sys, true, &mut rng);
            legal.validate_prefix(&sys).unwrap();
            let free = random_schedule(&sys, false, &mut rng);
            // Incomplete: a prefix. Illegal beyond repair: the whole
            // interleaving shuffled, so sections open after they close.
            let prefix = Schedule::new(free.steps()[..rng.gen_range(0..=free.len())].to_vec());
            let mut shuffled = free.steps().to_vec();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            let serial = Schedule::serial(&sys, &sys.txn_ids().collect::<Vec<_>>());
            for s in [legal, free, prefix, Schedule::new(shuffled), serial] {
                let g = serialization_graph(&sys, &s);
                prop_assert_eq!(edge_set(&g), edge_set(&pairwise_graph(&sys, &s)));
            }
        }

        #[test]
        fn the_flat_state_answers_as_the_maps(seed in any::<u64>()) {
            flat_state_agrees_with_maps(seed);
        }
    }

    #[test]
    fn disjoint_entities_always_serializable() {
        let sys = two_txn_sys(["Lx x Ux", "Ly y Uy"], &[("x", 0), ("y", 1)]);
        let s = sched(&[(0, 0), (1, 0), (0, 1), (1, 1), (1, 2), (0, 2)]);
        s.validate_complete(&sys).unwrap();
        assert!(is_serializable(&sys, &s));
    }
}
