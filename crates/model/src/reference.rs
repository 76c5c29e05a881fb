//! The per-entity-map schedule checks the flat ones replaced, kept as
//! references: `serializability`'s tests hold
//! [`crate::Schedule::validate_prefix`] and
//! [`crate::serialization_graph`] to them on random schedules.

use crate::action::{ActionKind, LockMode};
use crate::error::ModelError;
use crate::ids::{EntityId, IdMap, TxnId};
use crate::schedule::Schedule;
use crate::serializability::step_accesses;
use crate::system::TxnSystem;
use kplock_graph::DiGraph;

/// [`Schedule::validate_prefix`] with a done vector per transaction and a
/// holder list per entity in a map.
pub(crate) fn validate_prefix(schedule: &Schedule, sys: &TxnSystem) -> Result<(), ModelError> {
    let mut done: Vec<Vec<bool>> = sys.txns().iter().map(|t| vec![false; t.len()]).collect();
    // Lock ownership: entity -> current holders with modes.
    let mut lock_held: IdMap<EntityId, Vec<(TxnId, LockMode)>> = IdMap::default();

    for (i, ss) in schedule.steps().iter().enumerate() {
        let t = ss.txn.idx();
        if t >= sys.len() {
            return Err(ModelError::IllegalSchedule(format!(
                "step {i}: unknown transaction {}",
                ss.txn
            )));
        }
        let txn = sys.txn(ss.txn);
        if ss.step.idx() >= txn.len() {
            return Err(ModelError::BadStepId(ss.step));
        }
        if done[t][ss.step.idx()] {
            return Err(ModelError::IllegalSchedule(format!(
                "step {i}: {} of {} executed twice",
                ss.step, ss.txn
            )));
        }
        // (a) all predecessors in the partial order already executed.
        for p in txn.edge_graph().predecessors(ss.step.idx()) {
            if !done[t][*p] {
                return Err(ModelError::IllegalSchedule(format!(
                    "step {i}: {} of {} before its predecessor",
                    ss.step, ss.txn
                )));
            }
        }
        // (b) lock-mode exclusion.
        let step = txn.step(ss.step);
        match step.kind {
            ActionKind::Lock => {
                let holders = lock_held.entry(step.entity).or_default();
                if let Some(&(holder, _)) = holders
                    .iter()
                    .find(|&&(_, m)| !m.compatible_with(step.mode))
                {
                    return Err(ModelError::IllegalSchedule(format!(
                        "step {i}: {} locks {} already held by {holder}",
                        ss.txn, step.entity
                    )));
                }
                holders.push((ss.txn, step.mode));
            }
            ActionKind::Unlock => {
                // Paper's schedules only require separation of two locks
                // by an unlock; unlocking without holding is a model bug.
                let holders = lock_held.entry(step.entity).or_default();
                let before = holders.len();
                holders.retain(|&(t, _)| t != ss.txn);
                if holders.len() == before {
                    return Err(ModelError::IllegalSchedule(format!(
                        "step {i}: {} unlocks {} it does not hold",
                        ss.txn, step.entity
                    )));
                }
            }
            ActionKind::Update => {}
        }
        done[t][ss.step.idx()] = true;
    }
    Ok(())
}

/// [`crate::serialization_graph`] with each entity's transactions and
/// their access kinds in a map.
pub(crate) fn serialization_graph(sys: &TxnSystem, schedule: &Schedule) -> DiGraph {
    let mut g = DiGraph::new(sys.len());
    let mut seen: IdMap<EntityId, Vec<(TxnId, u8)>> = IdMap::default();
    for ss in schedule.steps() {
        let b = ss.txn;
        for access in step_accesses(sys.db(), sys.txn(b), ss.step) {
            let Some((entity, kind)) = access else {
                continue;
            };
            let txns = seen.entry(entity).or_default();
            let mut own = None;
            for (i, &(a, kinds)) in txns.iter().enumerate() {
                if a == b {
                    own = Some(i);
                } else if kinds & kind.conflicting() != 0 {
                    g.add_edge(a.idx(), b.idx());
                }
            }
            match own {
                Some(i) => txns[i].1 |= kind.bit(),
                None => txns.push((b, kind.bit())),
            }
        }
    }
    g
}
