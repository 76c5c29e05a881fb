//! Schedules: interleaved executions of a set of transactions.

use crate::action::ActionKind;
use crate::error::ModelError;
use crate::ids::{StepId, TxnId};
use crate::system::TxnSystem;

/// [`Schedule::validate_prefix`]'s end of a holder list.
const NO_NODE: u32 = u32::MAX;

/// One scheduled step: which transaction executed which of its steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ScheduledStep {
    /// The executing transaction.
    pub txn: TxnId,
    /// The step within that transaction.
    pub step: StepId,
}

/// A schedule: a total order of steps of the transactions of a system.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    steps: Vec<ScheduledStep>,
}

impl Schedule {
    /// Wraps a step sequence.
    pub fn new(steps: Vec<ScheduledStep>) -> Self {
        Schedule { steps }
    }

    /// The steps, in execution order.
    pub fn steps(&self) -> &[ScheduledStep] {
        &self.steps
    }

    /// Number of scheduled steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if nothing was scheduled.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Appends a step.
    pub fn push(&mut self, txn: TxnId, step: StepId) {
        self.steps.push(ScheduledStep { txn, step });
    }

    /// The serial schedule `T_{order[0]} T_{order[1]} ...` of a system.
    pub fn serial(sys: &TxnSystem, order: &[TxnId]) -> Schedule {
        let mut s = Schedule::default();
        for &t in order {
            let txn = sys.txn(t);
            let total = kplock_graph::topo_sort(txn.edge_graph()).expect("txn dag");
            for v in total {
                s.push(t, StepId::from_idx(v));
            }
        }
        s
    }

    /// Checks legality of this schedule for `sys` per the paper:
    ///
    /// (a) it does not contradict any transaction's partial order, and
    /// (b) lock sections on one entity overlap only when every involved
    ///     mode is compatible (two exclusive locks — the paper's only
    ///     mode — must be separated by an unlock; shared locks coexist);
    ///
    /// plus basic sanity (each step appears at most once, ids in range).
    /// Use [`Schedule::validate_complete`] to additionally require that every
    /// step of every transaction appears.
    ///
    /// The state is flat: transaction `t`'s step `s` is node `base[t] + s`
    /// of one done flag per step, and each entity's holders are a list, in
    /// the order they locked, threaded through their lock steps' nodes.
    /// A lock names the first holder on that list whose mode conflicts.
    pub fn validate_prefix(&self, sys: &TxnSystem) -> Result<(), ModelError> {
        let base: Vec<usize> = std::iter::once(0)
            .chain(sys.txns().iter().scan(0, |end, t| {
                *end += t.len();
                Some(*end)
            }))
            .collect();
        let total = base[sys.len()];
        let mut done = vec![false; total];
        // `holders[e]` is the first and last node of entity `e`'s holders,
        // `next[node]` the holder after `node`.
        let mut holders: Vec<[u32; 2]> = Vec::with_capacity(sys.db().entity_count());
        let mut next = vec![NO_NODE; total];
        // The transaction whose steps number `node`, and its lock mode there.
        let holder = |node: u32| {
            let t = base.partition_point(|&o| o <= node as usize) - 1;
            let mode = sys.txns()[t].steps()[node as usize - base[t]].mode;
            (TxnId::from_idx(t), mode)
        };

        for (i, ss) in self.steps.iter().enumerate() {
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
            let node = base[t] + ss.step.idx();
            if done[node] {
                return Err(ModelError::IllegalSchedule(format!(
                    "step {i}: {} of {} executed twice",
                    ss.step, ss.txn
                )));
            }
            // (a) all predecessors in the partial order already executed.
            for &p in txn.edge_graph().predecessors(ss.step.idx()) {
                if !done[base[t] + p] {
                    return Err(ModelError::IllegalSchedule(format!(
                        "step {i}: {} of {} before its predecessor",
                        ss.step, ss.txn
                    )));
                }
            }
            // (b) lock-mode exclusion.
            let step = txn.step(ss.step);
            let e = step.entity.idx();
            if step.kind != ActionKind::Update && holders.len() <= e {
                holders.resize(e + 1, [NO_NODE; 2]);
            }
            match step.kind {
                ActionKind::Lock => {
                    let mut h = holders[e][0];
                    while h != NO_NODE {
                        let (other, mode) = holder(h);
                        if !mode.compatible_with(step.mode) {
                            return Err(ModelError::IllegalSchedule(format!(
                                "step {i}: {} locks {} already held by {other}",
                                ss.txn, step.entity
                            )));
                        }
                        h = next[h as usize];
                    }
                    let node = node as u32;
                    match holders[e] {
                        [NO_NODE, _] => holders[e] = [node, node],
                        [_, last] => {
                            next[last as usize] = node;
                            holders[e][1] = node;
                        }
                    }
                }
                ActionKind::Unlock => {
                    // Paper's schedules only require separation of two locks
                    // by an unlock; unlocking without holding is a model bug.
                    let own = base[t] as u32..base[t + 1] as u32;
                    let (mut prev, mut h) = (NO_NODE, holders[e][0]);
                    while h != NO_NODE && !own.contains(&h) {
                        (prev, h) = (h, next[h as usize]);
                    }
                    if h == NO_NODE {
                        return Err(ModelError::IllegalSchedule(format!(
                            "step {i}: {} unlocks {} it does not hold",
                            ss.txn, step.entity
                        )));
                    }
                    let after = std::mem::replace(&mut next[h as usize], NO_NODE);
                    match prev {
                        NO_NODE => holders[e][0] = after,
                        p => next[p as usize] = after,
                    }
                    if after == NO_NODE {
                        holders[e][1] = prev;
                    }
                }
                ActionKind::Update => {}
            }
            done[node] = true;
        }
        Ok(())
    }

    /// [`Schedule::validate_prefix`] plus completeness: every step of every
    /// transaction appears exactly once.
    pub fn validate_complete(&self, sys: &TxnSystem) -> Result<(), ModelError> {
        self.validate_prefix(sys)?;
        let expected: usize = sys.txns().iter().map(|t| t.len()).sum();
        if self.len() != expected {
            return Err(ModelError::IllegalSchedule(format!(
                "schedule has {} steps, system has {expected}",
                self.len()
            )));
        }
        Ok(())
    }

    /// Pretty form with subscripts as in the paper's Fig. 1, e.g.
    /// `Lx1 x1 Ly2 ...` (label + 1-based transaction subscript).
    pub fn display(&self, sys: &TxnSystem) -> String {
        self.steps
            .iter()
            .map(|ss| {
                let txn = sys.txn(ss.txn);
                let step = txn.step(ss.step);
                let name = sys.db().name_of(step.entity);
                format!("{}{}", step.label(name), ss.txn.idx() + 1)
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TxnBuilder;
    use crate::entity::Database;
    use crate::system::TxnSystem;

    fn sys() -> TxnSystem {
        let db = Database::from_spec(&[("x", 0)]);
        let mut b1 = TxnBuilder::new(&db, "T1");
        b1.script("Lx x Ux").unwrap();
        let t1 = b1.build().unwrap();
        let mut b2 = TxnBuilder::new(&db, "T2");
        b2.script("Lx x Ux").unwrap();
        let t2 = b2.build().unwrap();
        TxnSystem::new(db, vec![t1, t2])
    }

    fn st(t: u32, s: u32) -> ScheduledStep {
        ScheduledStep {
            txn: TxnId(t),
            step: StepId(s),
        }
    }

    #[test]
    fn serial_schedules_are_legal() {
        let sys = sys();
        let s = Schedule::serial(&sys, &[TxnId(0), TxnId(1)]);
        assert!(s.validate_complete(&sys).is_ok());
        let s = Schedule::serial(&sys, &[TxnId(1), TxnId(0)]);
        assert!(s.validate_complete(&sys).is_ok());
    }

    #[test]
    fn lock_conflict_is_illegal() {
        let sys = sys();
        // T1 locks x, then T2 tries to lock x.
        let s = Schedule::new(vec![st(0, 0), st(1, 0)]);
        assert!(s.validate_prefix(&sys).is_err());
    }

    #[test]
    fn partial_order_violation() {
        let sys = sys();
        // T1 updates x before locking it.
        let s = Schedule::new(vec![st(0, 1)]);
        assert!(s.validate_prefix(&sys).is_err());
    }

    #[test]
    fn incomplete_schedule_detected() {
        let sys = sys();
        let s = Schedule::new(vec![st(0, 0)]);
        assert!(s.validate_prefix(&sys).is_ok());
        assert!(s.validate_complete(&sys).is_err());
    }

    #[test]
    fn double_execution_detected() {
        let sys = sys();
        let s = Schedule::new(vec![st(0, 0), st(0, 0)]);
        assert!(s.validate_prefix(&sys).is_err());
    }

    #[test]
    fn unlock_without_holding() {
        let sys = sys();
        // Direct unlock as first scheduled step violates partial order;
        // craft a system-level check instead via prefix: T1 lock, T1 update,
        // T2 unlock (T2's unlock is step 2 but needs its own predecessors).
        let s = Schedule::new(vec![st(0, 0), st(0, 1), st(1, 2)]);
        assert!(s.validate_prefix(&sys).is_err());
    }

    #[test]
    fn shared_lock_sections_may_overlap() {
        let db = Database::from_spec(&[("x", 0)]);
        let mut b1 = TxnBuilder::new(&db, "T1");
        b1.script("SLx rx Ux").unwrap();
        let t1 = b1.build().unwrap();
        let mut b2 = TxnBuilder::new(&db, "T2");
        b2.script("SLx rx Ux").unwrap();
        let t2 = b2.build().unwrap();
        let mut b3 = TxnBuilder::new(&db, "T3");
        b3.script("Lx x Ux").unwrap();
        let t3 = b3.build().unwrap();
        let sys = TxnSystem::new(db, vec![t1, t2, t3]);
        // Fully interleaved shared sections are legal...
        let s = Schedule::new(vec![
            st(0, 0),
            st(1, 0),
            st(0, 1),
            st(1, 1),
            st(0, 2),
            st(1, 2),
        ]);
        s.validate_prefix(&sys).unwrap();
        // ...but an exclusive lock may not join a shared section...
        let s = Schedule::new(vec![st(0, 0), st(2, 0)]);
        assert!(s.validate_prefix(&sys).is_err());
        // ...and a shared lock may not join an exclusive section.
        let s = Schedule::new(vec![st(2, 0), st(0, 0)]);
        assert!(s.validate_prefix(&sys).is_err());
    }

    #[test]
    fn display_uses_subscripts() {
        let sys = sys();
        let s = Schedule::new(vec![st(0, 0), st(0, 1)]);
        assert_eq!(s.display(&sys), "Lx1 x1");
    }
}
