//! Exact (exponential) safety oracles.
//!
//! Two independent ground-truth procedures used to validate the paper's
//! polynomial tests and to exhibit the centralized-vs-distributed complexity
//! gap empirically:
//!
//! 1. [`decide_exhaustive`] — breadth-first search of the product state
//!    space (progress of every transaction × serialization-graph edges).
//!    Works for any number of transactions and sites; also detects
//!    reachable deadlock states.
//! 2. [`decide_by_extensions`] — Lemma 1 made literal: enumerate all pairs
//!    of linear extensions and decide each with the total-order test.
//!
//! The product state space is written once, as the crate-private `Space`,
//! which [`decide_exhaustive`] walks breadth-first and
//! [`count_schedules`](crate::counting::count_schedules) depth-first. It
//! holds at most 8 transactions of at most 64 steps each, and refuses a
//! transaction that locks an entity it never unlocks (an ill-formed one).

use crate::certificate::{SafeProof, SafetyVerdict, UnsafetyCertificate};
use crate::total_pair::decide_total_pair;
use kplock_model::{
    ActionKind, Database, LinearExtensions, Schedule, ScheduledStep, StepId, Transaction, TxnId,
    TxnSystem,
};
use std::collections::{HashMap, VecDeque};
use std::ops::ControlFlow;

/// Resource limits for the exhaustive search.
#[derive(Clone, Copy, Debug)]
pub struct OracleOptions {
    /// Maximum number of distinct states to explore before giving up.
    pub max_states: usize,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            max_states: 2_000_000,
        }
    }
}

/// Outcome of the exhaustive search.
#[derive(Clone, Debug)]
pub enum OracleOutcome {
    /// Every complete schedule is serializable.
    Safe,
    /// A legal, complete, non-serializable schedule (the witness).
    Unsafe(Schedule),
    /// The state cap was exceeded, or the system was refused with no state
    /// explored: more than 8 transactions, a transaction of more than 64
    /// steps, or one that locks an entity it never unlocks.
    Aborted,
}

/// Full report of the exhaustive search.
#[derive(Clone, Debug)]
pub struct OracleReport {
    /// The decision.
    pub outcome: OracleOutcome,
    /// Number of distinct states explored.
    pub states_explored: usize,
    /// Whether a reachable state exists from which no transaction can move
    /// but the system is incomplete (a deadlock).
    pub deadlock_reachable: bool,
}

/// The product state space of a system. A state is one bitmask of done
/// steps per transaction plus the serialization graph `sg`, whose bit
/// `j * 8 + i` is the edge `Tj → Ti`: `Tj` accessed an entity before `Ti`.
pub(crate) struct Space {
    /// Per transaction, per step.
    steps: Vec<Vec<StepBits>>,
    /// Per entity `e` and transaction `i`, at `e * k + i`.
    entities: Vec<EntityBits>,
    /// Per transaction, the bits of all its steps.
    full: Vec<u64>,
}

struct StepBits {
    /// The step's direct predecessors.
    preds: u64,
    entity: usize,
    kind: ActionKind,
    /// An update, or the lock of an entity the transaction never updates.
    access: bool,
}

/// One transaction's steps on one entity, as bits of its done mask.
#[derive(Clone, Copy, Default)]
struct EntityBits {
    lock: u64,
    unlock: u64,
    access: u64,
}

impl Space {
    /// The space of `sys`, or `None` if it has more than 8 transactions
    /// (`sg` has 8 bits a row), a transaction of more than 64 steps, or a
    /// transaction that locks an entity it never unlocks.
    pub(crate) fn new(sys: &TxnSystem) -> Option<Space> {
        let k = sys.len();
        if k > 8 || sys.txns().iter().any(|t| t.len() > 64) {
            return None;
        }
        let mut entities = vec![EntityBits::default(); sys.db().entity_count() * k];
        let (mut steps, mut full) = (Vec::with_capacity(k), Vec::with_capacity(k));
        for (i, t) in sys.txns().iter().enumerate() {
            for e in t.locked_entities() {
                let bits = &mut entities[e.idx() * k + i];
                bits.lock = 1 << t.lock_step(e)?.idx();
                bits.unlock = 1 << t.unlock_step(e)?.idx();
            }
            let row = (0..t.len()).map(|v| {
                let s = t.step(StepId::from_idx(v));
                let access = match s.kind {
                    ActionKind::Update => true,
                    ActionKind::Lock => !t.has_update(s.entity),
                    ActionKind::Unlock => false,
                };
                if access {
                    entities[s.entity.idx() * k + i].access |= 1 << v;
                }
                let preds = t.edge_graph().predecessors(v).iter();
                StepBits {
                    preds: preds.fold(0, |m, &p| m | 1 << p),
                    entity: s.entity.idx(),
                    kind: s.kind,
                    access,
                }
            });
            steps.push(row.collect());
            full.push(((1u128 << t.len()) - 1) as u64);
        }
        Some(Space {
            steps,
            entities,
            full,
        })
    }

    /// Whether every transaction is done.
    pub(crate) fn complete(&self, done: &[u64]) -> bool {
        done == self.full
    }

    /// Whether the serialization graph `sg` has a cycle (Warshall's
    /// transitive closure over its at most 8 rows).
    pub(crate) fn cyclic(&self, sg: u64) -> bool {
        let k = self.full.len();
        let mut rows: [u64; 8] = std::array::from_fn(|i| (sg >> (i * 8)) & 0xFF);
        for m in 0..k {
            for i in 0..k {
                if rows[i] & (1 << m) != 0 {
                    rows[i] |= rows[m];
                }
            }
        }
        (0..k).any(|i| rows[i] & (1 << i) != 0)
    }

    /// Calls `f(i, v, next_sg)` for every step `v` of transaction `i` that
    /// can run in the state `(done, sg)`, transactions ascending, then steps
    /// ascending, until `f` breaks; continues with whether any step could
    /// run. A step can run when its predecessors are done and, for a lock,
    /// no other transaction holds the entity; `next_sg` is `sg` plus, for
    /// an access, the edge `Tj → Ti` from every other transaction that
    /// already accessed the entity.
    pub(crate) fn moves<B>(
        &self,
        done: &[u64],
        sg: u64,
        mut f: impl FnMut(usize, usize, u64) -> ControlFlow<B>,
    ) -> ControlFlow<B, bool> {
        let (k, mut moved) = (self.full.len(), false);
        for (i, row) in self.steps.iter().enumerate() {
            let mut bits = self.full[i] & !done[i];
            while bits != 0 {
                let v = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let step = &row[v];
                if step.preds & !done[i] != 0 {
                    continue;
                }
                let others = &self.entities[step.entity * k..][..k];
                let held = |(j, b): (usize, &EntityBits)| {
                    j != i && done[j] & b.lock != 0 && done[j] & b.unlock == 0
                };
                if step.kind == ActionKind::Lock && others.iter().enumerate().any(held) {
                    continue;
                }
                let mut next_sg = sg;
                if step.access {
                    for (j, b) in others.iter().enumerate() {
                        if j != i && done[j] & b.access != 0 {
                            next_sg |= 1 << (j * 8 + i);
                        }
                    }
                }
                f(i, v, next_sg)?;
                moved = true;
            }
        }
        ControlFlow::Continue(moved)
    }
}

/// A state of a [`Space`]: the done masks and the serialization graph.
pub(crate) type State = (Vec<u64>, u64);

/// Exhaustively decides safety of `sys` (any number of transactions/sites).
///
/// A system the state space refuses (see the [module docs](self)) is
/// answered [`OracleOutcome::Aborted`] with no state explored.
pub fn decide_exhaustive(sys: &TxnSystem, opts: &OracleOptions) -> OracleReport {
    let Some(space) = Space::new(sys) else {
        return OracleReport {
            outcome: OracleOutcome::Aborted,
            states_explored: 0,
            deadlock_reachable: false,
        };
    };
    let start = (vec![0; sys.len()], 0);
    let mut parents: HashMap<State, Option<(State, ScheduledStep)>> =
        HashMap::from([(start.clone(), None)]);
    let mut queue: VecDeque<State> = VecDeque::from([start]);
    let mut deadlock_reachable = false;
    // Breaks with the first complete non-serializable state, or with `None`
    // at the state cap.
    let mut search = || -> ControlFlow<Option<State>> {
        while let Some(state) = queue.pop_front() {
            if space.complete(&state.0) {
                continue;
            }
            let moved = space.moves(&state.0, state.1, |i, v, sg| {
                let mut next = (state.0.clone(), sg);
                next.0[i] |= 1 << v;
                if parents.contains_key(&next) {
                    return ControlFlow::Continue(());
                }
                let step = ScheduledStep {
                    txn: TxnId::from_idx(i),
                    step: StepId::from_idx(v),
                };
                parents.insert(next.clone(), Some((state.clone(), step)));
                if space.complete(&next.0) && space.cyclic(next.1) {
                    return ControlFlow::Break(Some(next));
                }
                if parents.len() > opts.max_states {
                    return ControlFlow::Break(None);
                }
                queue.push_back(next);
                ControlFlow::Continue(())
            })?;
            deadlock_reachable |= !moved;
        }
        ControlFlow::Continue(())
    };
    let outcome = match search() {
        ControlFlow::Continue(()) => OracleOutcome::Safe,
        ControlFlow::Break(None) => OracleOutcome::Aborted,
        ControlFlow::Break(Some(end)) => {
            // Reconstruct the witness schedule.
            let mut steps = Vec::new();
            let mut cur = &end;
            while let Some((prev, step)) = &parents[cur] {
                steps.push(*step);
                cur = prev;
            }
            steps.reverse();
            OracleOutcome::Unsafe(Schedule::new(steps))
        }
    };
    OracleReport {
        outcome,
        states_explored: parents.len(),
        deadlock_reachable,
    }
}

/// Lemma-1 ground truth for a pair: enumerates up to `pair_cap` pairs of
/// linear extensions and decides each with the total-order test. Returns
/// `None` if the cap was exceeded before finding a counterexample, and
/// `Unknown` if `D(Ta, Tb)` is not defined.
pub fn decide_by_extensions(
    sys: &TxnSystem,
    a: TxnId,
    b: TxnId,
    mut pair_cap: usize,
) -> Option<SafetyVerdict> {
    by_extensions(sys.db(), (a, sys.txn(a)), (b, sys.txn(b)), &mut pair_cap)
}

/// [`decide_by_extensions`] over the transactions `ta` and `tb`, named `a`
/// and `b` in the certificate, spending one unit of `budget` per pair of
/// linear extensions; `None` once the budget is spent.
pub(crate) fn by_extensions(
    db: &Database,
    (a, ta): (TxnId, &Transaction),
    (b, tb): (TxnId, &Transaction),
    budget: &mut usize,
) -> Option<SafetyVerdict> {
    for e1 in LinearExtensions::new(ta) {
        for e2 in LinearExtensions::new(tb) {
            *budget = budget.checked_sub(1)?;
            let lin_a = ta.linearized(&e1).expect("valid extension");
            let lin_b = tb.linearized(&e2).expect("valid extension");
            // Site structure is irrelevant for total orders.
            let image = TxnSystem::new(db.clone(), vec![lin_a, lin_b]);
            let cert = match decide_total_pair(&image, TxnId(0), TxnId(1)) {
                SafetyVerdict::Unsafe(cert) => cert,
                SafetyVerdict::Safe(_) => continue,
                unknown => return Some(unknown),
            };
            // linearized() renumbered steps by position, so map back
            // through e1/e2.
            let schedule = Schedule::new(
                cert.schedule
                    .steps()
                    .iter()
                    .map(|ss| {
                        let (txn, order) = if ss.txn == TxnId(0) {
                            (a, &e1)
                        } else {
                            (b, &e2)
                        };
                        ScheduledStep {
                            txn,
                            step: order[ss.step.idx()],
                        }
                    })
                    .collect(),
            );
            return Some(SafetyVerdict::Unsafe(Box::new(UnsafetyCertificate {
                txn_a: a,
                txn_b: b,
                t1_order: e1,
                t2_order: e2,
                dominator: cert.dominator,
                schedule,
            })));
        }
    }
    Some(SafetyVerdict::Safe(SafeProof::Exhaustive))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_model::{Database, TxnBuilder};

    fn pair(script1: &str, script2: &str, spec: &[(&str, usize)]) -> TxnSystem {
        let db = Database::from_spec(spec);
        let mut b1 = TxnBuilder::new(&db, "T1");
        b1.script(script1).unwrap();
        let t1 = b1.build().unwrap();
        let mut b2 = TxnBuilder::new(&db, "T2");
        b2.script(script2).unwrap();
        let t2 = b2.build().unwrap();
        TxnSystem::new(db, vec![t1, t2])
    }

    #[test]
    fn oracle_finds_classic_anomaly() {
        let sys = pair("Lx x Ux Ly y Uy", "Ly y Uy Lx x Ux", &[("x", 0), ("y", 0)]);
        let r = decide_exhaustive(&sys, &OracleOptions::default());
        let OracleOutcome::Unsafe(witness) = r.outcome else {
            panic!("expected unsafe");
        };
        witness.validate_complete(&sys).unwrap();
        assert!(!kplock_model::is_serializable(&sys, &witness));
    }

    #[test]
    fn oracle_confirms_two_phase_safety_and_deadlock() {
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 0)]);
        let r = decide_exhaustive(&sys, &OracleOptions::default());
        assert!(matches!(r.outcome, OracleOutcome::Safe));
        // Opposite lock orders: the classic deadlock is reachable.
        assert!(r.deadlock_reachable);
    }

    #[test]
    fn oracle_same_order_two_phase_no_deadlock() {
        let sys = pair("Lx Ly x y Ux Uy", "Lx Ly x y Ux Uy", &[("x", 0), ("y", 0)]);
        let r = decide_exhaustive(&sys, &OracleOptions::default());
        assert!(matches!(r.outcome, OracleOutcome::Safe));
        assert!(!r.deadlock_reachable);
    }

    #[test]
    fn extension_oracle_agrees_with_state_oracle() {
        // A genuinely distributed pair: x,y at site 0; w,z at site 1, with
        // concurrent site programs.
        let db = Database::from_spec(&[("x", 0), ("y", 0), ("w", 1), ("z", 1)]);
        let mut b1 = TxnBuilder::new(&db, "T1");
        b1.script("Lx x Ux Ly y Uy").unwrap();
        b1.script("Lw w Uw Lz z Uz").unwrap();
        let t1 = b1.build().unwrap();
        let mut b2 = TxnBuilder::new(&db, "T2");
        b2.script("Ly y Uy Lx x Ux").unwrap();
        b2.script("Lz z Uz Lw w Uw").unwrap();
        let t2 = b2.build().unwrap();
        let sys = TxnSystem::new(db, vec![t1, t2]);

        let state = decide_exhaustive(&sys, &OracleOptions::default());
        let ext = decide_by_extensions(&sys, TxnId(0), TxnId(1), 1_000_000).unwrap();
        assert_eq!(matches!(state.outcome, OracleOutcome::Safe), ext.is_safe());
        if let SafetyVerdict::Unsafe(cert) = &ext {
            cert.verify(&sys).unwrap();
        }
    }

    #[test]
    fn extension_oracle_cap() {
        let sys = pair("Lx x Ux Ly y Uy", "Lx x Ux Ly y Uy", &[("x", 0), ("y", 0)]);
        assert!(decide_by_extensions(&sys, TxnId(0), TxnId(1), 0).is_none());
    }

    #[test]
    fn three_transactions_cycle() {
        // T1, T2, T3 each two-phase pairwise-safe, but schedule order around
        // the triangle is still serializable — oracle should say safe.
        let db = Database::from_spec(&[("x", 0), ("y", 0), ("z", 0)]);
        let scripts = ["Lx Ly x y Ux Uy", "Ly Lz y z Uy Uz", "Lz Lx z x Uz Ux"];
        let txns: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut b = TxnBuilder::new(&db, format!("T{}", i + 1));
                b.script(s).unwrap();
                b.build().unwrap()
            })
            .collect();
        let sys = TxnSystem::new(db, txns);
        let r = decide_exhaustive(&sys, &OracleOptions::default());
        assert!(matches!(r.outcome, OracleOutcome::Safe));
    }
}
