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

use crate::certificate::{SafeProof, SafetyVerdict, UnsafetyCertificate};
use crate::total_pair::decide_total_pair;
use kplock_model::{
    ActionKind, Database, EntityId, LinearExtensions, Schedule, ScheduledStep, StepId, Transaction,
    TxnId, TxnSystem,
};
use std::collections::{HashMap, VecDeque};

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
    /// State cap or encoding limit exceeded.
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
    /// Number of distinct complete states reached.
    pub complete_states: usize,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    /// Bitmask of completed steps per transaction.
    done: Vec<u64>,
    /// Serialization-graph edges as a k*k bitmask (row-major).
    sg: u64,
}

/// Exhaustively decides safety of `sys` (any number of transactions/sites).
///
/// The state encoding holds at most 8 transactions of at most 64 steps each
/// (the oracle is meant for small ground-truth instances); a larger system
/// is refused as [`OracleOutcome::Aborted`] with no state explored.
pub fn decide_exhaustive(sys: &TxnSystem, opts: &OracleOptions) -> OracleReport {
    let k = sys.len();
    if k > 8 || sys.txns().iter().any(|t| t.len() > 64) {
        return OracleReport {
            outcome: OracleOutcome::Aborted,
            states_explored: 0,
            deadlock_reachable: false,
            complete_states: 0,
        };
    }

    // Precompute per-transaction step metadata.
    struct StepMeta {
        entity: EntityId,
        kind: ActionKind,
        is_access: bool,
        preds_mask: u64,
    }
    let metas: Vec<Vec<StepMeta>> = sys
        .txns()
        .iter()
        .map(|t| {
            (0..t.len())
                .map(|v| {
                    let s = t.step(StepId::from_idx(v));
                    let is_access = match s.kind {
                        ActionKind::Update => true,
                        ActionKind::Lock => !t.has_update(s.entity),
                        ActionKind::Unlock => false,
                    };
                    let mut preds_mask = 0u64;
                    for &p in t.edge_graph().predecessors(v) {
                        preds_mask |= 1 << p;
                    }
                    StepMeta {
                        entity: s.entity,
                        kind: s.kind,
                        is_access,
                        preds_mask,
                    }
                })
                .collect()
        })
        .collect();
    // Per transaction and entity: (lock_bit, unlock_bit) for hold detection,
    // and mask of access steps per entity.
    let lock_bits: Vec<HashMap<EntityId, (u64, u64)>> = sys
        .txns()
        .iter()
        .map(|t| {
            t.locked_entities()
                .into_iter()
                .map(|e| {
                    (
                        e,
                        (
                            1u64 << t.lock_step(e).unwrap().idx(),
                            1u64 << t.unlock_step(e).unwrap().idx(),
                        ),
                    )
                })
                .collect()
        })
        .collect();
    let access_masks: Vec<HashMap<EntityId, u64>> = metas
        .iter()
        .map(|ms| {
            let mut m: HashMap<EntityId, u64> = HashMap::new();
            for (v, meta) in ms.iter().enumerate() {
                if meta.is_access {
                    *m.entry(meta.entity).or_default() |= 1 << v;
                }
            }
            m
        })
        .collect();

    let full: Vec<u64> = sys
        .txns()
        .iter()
        .map(|t| {
            if t.len() == 64 {
                u64::MAX
            } else {
                (1u64 << t.len()) - 1
            }
        })
        .collect();

    let sg_cyclic = |sg: u64| -> bool {
        // Transitive closure on k<=8 nodes via repeated row unions.
        let mut rows = [0u64; 8];
        for (i, row) in rows.iter_mut().enumerate().take(k) {
            *row = (sg >> (i * 8)) & 0xFF;
        }
        for _ in 0..k {
            for i in 0..k {
                let mut r = rows[i];
                let mut bits = r;
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    r |= rows[j];
                }
                rows[i] = r;
            }
        }
        (0..k).any(|i| rows[i] & (1 << i) != 0)
    };

    let start = State {
        done: vec![0; k],
        sg: 0,
    };
    let mut parents: HashMap<State, Option<(State, ScheduledStep)>> = HashMap::new();
    parents.insert(start.clone(), None);
    let mut queue: VecDeque<State> = VecDeque::from([start]);
    let mut deadlock_reachable = false;
    let mut complete_states = 0usize;
    let mut aborted = false;

    let holds = |done: &[u64], i: usize, e: EntityId| -> bool {
        lock_bits[i]
            .get(&e)
            .is_some_and(|&(l, u)| done[i] & l != 0 && done[i] & u == 0)
    };

    let mut unsafe_state: Option<State> = None;

    'bfs: while let Some(state) = queue.pop_front() {
        let complete = (0..k).all(|i| state.done[i] == full[i]);
        if complete {
            complete_states += 1;
            continue;
        }
        let mut moved = false;
        for i in 0..k {
            let remaining = full[i] & !state.done[i];
            let mut bits = remaining;
            while bits != 0 {
                let v = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let meta = &metas[i][v];
                if meta.preds_mask & !state.done[i] != 0 {
                    continue; // predecessors not done
                }
                if meta.kind == ActionKind::Lock {
                    let contended = (0..k).any(|j| j != i && holds(&state.done, j, meta.entity));
                    if contended {
                        continue;
                    }
                }
                moved = true;
                let mut next = state.clone();
                next.done[i] |= 1 << v;
                if meta.is_access {
                    #[allow(clippy::needless_range_loop)]
                    for j in 0..k {
                        if j != i {
                            if let Some(&am) = access_masks[j].get(&meta.entity) {
                                if state.done[j] & am != 0 {
                                    next.sg |= 1 << (j * 8 + i);
                                }
                            }
                        }
                    }
                }
                if parents.contains_key(&next) {
                    continue;
                }
                let step = ScheduledStep {
                    txn: TxnId::from_idx(i),
                    step: StepId::from_idx(v),
                };
                parents.insert(next.clone(), Some((state.clone(), step)));
                let next_complete = (0..k).all(|t| next.done[t] == full[t]);
                if next_complete && sg_cyclic(next.sg) {
                    unsafe_state = Some(next);
                    break 'bfs;
                }
                if parents.len() > opts.max_states {
                    aborted = true;
                    break 'bfs;
                }
                queue.push_back(next);
            }
        }
        if !moved {
            deadlock_reachable = true;
        }
    }

    let states_explored = parents.len();
    let outcome = if let Some(end) = unsafe_state {
        // Reconstruct the witness schedule.
        let mut steps = Vec::new();
        let mut cur = end;
        while let Some(Some((prev, step))) = parents.get(&cur).cloned() {
            steps.push(step);
            cur = prev;
        }
        steps.reverse();
        OracleOutcome::Unsafe(Schedule::new(steps))
    } else if aborted {
        OracleOutcome::Aborted
    } else {
        OracleOutcome::Safe
    };
    OracleReport {
        outcome,
        states_explored,
        deadlock_reachable,
        complete_states,
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
