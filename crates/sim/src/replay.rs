//! Deterministic witness replay: the bridge from static verdicts to
//! dynamic confirmation.
//!
//! `kplock_core::sat_check` decides safety and deadlock reachability
//! symbolically and decodes SAT models into witness schedules. This
//! module replays those witnesses against the *real* lock-table
//! machinery — per-site [`QueueTable`]s, and the [`History`] that audits
//! every run as it is recorded — so an `Unsafe` verdict is backed by an
//! actual non-serializable committed history and a deadlock verdict by an
//! actual total stall with a waits-for cycle, structural invariants
//! checked after every step (the static analogue of
//! [`crate::SimConfig::invariant_audit`]). Nothing here is random or
//! time-dependent: a witness either replays, or the replayer returns a
//! typed error naming the first step that disagreed.

use std::fmt;

use kplock_dlm::{Acquire, QueueTable};
use kplock_model::{ActionKind, EntityId, ModelError, Schedule, StepId, TxnId, TxnSystem};

use crate::engine::{RowOrder, WaitGather};
use crate::event::Instance;
use crate::history::{audit, Audit, History};

/// Why a witness failed to replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The schedule is not legal for the system in the first place.
    Illegal(ModelError),
    /// A lock step in the witness was not granted immediately — the
    /// schedule claims an interleaving the tables refuse.
    Blocked {
        /// The requesting transaction.
        txn: TxnId,
        /// Its lock step.
        step: StepId,
        /// The contended entity.
        entity: EntityId,
    },
    /// A site table failed its structural invariant check mid-replay.
    Invariant(String),
    /// A purported violation witness replayed to a serializable history.
    Serializable,
    /// A purported deadlock prefix left some step enabled.
    NotStalled(String),
    /// Every transaction stalled but the waits-for graph was acyclic
    /// (cannot happen for exclusive locks; indicates a table bug).
    NoWaitCycle,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Illegal(e) => write!(f, "witness schedule is illegal: {e}"),
            ReplayError::Blocked { txn, step, entity } => {
                write!(f, "lock step {step} of {txn} on {entity} was not granted")
            }
            ReplayError::Invariant(e) => write!(f, "table invariant violated mid-replay: {e}"),
            ReplayError::Serializable => {
                write!(f, "violation witness replayed to a serializable history")
            }
            ReplayError::NotStalled(why) => write!(f, "deadlock prefix is not a stall: {why}"),
            ReplayError::NoWaitCycle => write!(f, "total stall without a waits-for cycle"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// What a successfully replayed deadlock prefix proves.
#[derive(Clone, Debug)]
pub struct DeadlockEvidence {
    /// Transactions with remaining steps, all of them blocked.
    pub stalled: Vec<TxnId>,
    /// A directed cycle in the waits-for graph (each waits on the next;
    /// the last waits on the first).
    pub cycle: Vec<TxnId>,
}

/// Drives `schedule` step-by-step through per-site tables, recording
/// each step in `history` (if given) before the tables see it. Every lock
/// must be granted on the spot and every table must hold its invariants
/// after every step; the first refusal ends the drive.
fn drive(
    sys: &TxnSystem,
    schedule: &Schedule,
    tables: &mut [QueueTable<Instance>],
    mut history: Option<&mut History<'_>>,
) -> Result<(), ReplayError> {
    for (time, ss) in schedule.steps().iter().enumerate() {
        let t = sys.txn(ss.txn);
        let step = t.step(ss.step);
        let site = sys.db().site_of(step.entity).idx();
        let inst = Instance {
            txn: ss.txn,
            epoch: 0,
        };
        if let Some(history) = history.as_deref_mut() {
            history.record(time as u64, inst, ss.step);
        }
        match step.kind {
            ActionKind::Lock => {
                let outcome = tables[site].request(step.entity, inst, step.mode);
                if outcome != Ok(Acquire::Granted) {
                    return Err(ReplayError::Blocked {
                        txn: ss.txn,
                        step: ss.step,
                        entity: step.entity,
                    });
                }
            }
            ActionKind::Unlock => {
                tables[site]
                    .release(step.entity, inst)
                    .map_err(|e| ReplayError::Invariant(e.to_string()))?;
            }
            ActionKind::Update => {}
        }
        tables[site]
            .check_invariants()
            .map_err(ReplayError::Invariant)?;
    }
    Ok(())
}

/// Replays a complete unsafety witness and audits the committed history
/// — every transaction commits its one epoch; succeeds only if the
/// history is legal and **non**-serializable. An illegal witness is
/// reported as the audit names it, at its first illegal step, whatever
/// the tables made of it.
pub fn replay_violation(sys: &TxnSystem, schedule: &Schedule) -> Result<Audit, ReplayError> {
    let mut site_tables = vec![QueueTable::new(); sys.db().site_count()];
    let mut history = History::new(sys);
    let driven = drive(sys, schedule, &mut site_tables, Some(&mut history));
    for txn in sys.txn_ids() {
        history.commit(Instance { txn, epoch: 0 });
    }
    let report = audit(&history);
    if let Err(e) = &report.legal {
        return Err(ReplayError::Illegal(e.clone()));
    }
    driven?;
    if report.serializable {
        return Err(ReplayError::Serializable);
    }
    Ok(report)
}

/// Replays a deadlock prefix, then *submits every frontier lock request
/// for real*: each must queue behind a current holder, and the resulting
/// waits-for graph must contain a cycle through the stalled transactions.
pub fn replay_deadlock(
    sys: &TxnSystem,
    prefix: &Schedule,
) -> Result<DeadlockEvidence, ReplayError> {
    prefix.validate_prefix(sys).map_err(ReplayError::Illegal)?;
    let mut site_tables = vec![QueueTable::new(); sys.db().site_count()];
    drive(sys, prefix, &mut site_tables, None)?;

    let mut done: Vec<Vec<bool>> = sys.txns().iter().map(|t| vec![false; t.len()]).collect();
    for ss in prefix.steps() {
        done[ss.txn.idx()][ss.step.idx()] = true;
    }

    // Submit every enabled-by-precedence remaining step: for a genuine
    // stall each is a lock, and each must be refused and queued.
    let mut stalled = Vec::new();
    for (i, t) in sys.txns().iter().enumerate() {
        let mut remaining = false;
        for v in 0..t.len() {
            if done[i][v] {
                continue;
            }
            remaining = true;
            if t.edge_graph().predecessors(v).iter().any(|&p| !done[i][p]) {
                continue;
            }
            let s = StepId::from_idx(v);
            let step = t.step(s);
            if step.kind != ActionKind::Lock {
                return Err(ReplayError::NotStalled(format!(
                    "step {s} of T{i} ({:?}) is enabled",
                    step.kind
                )));
            }
            let site = sys.db().site_of(step.entity).idx();
            let inst = Instance {
                txn: TxnId::from_idx(i),
                epoch: 0,
            };
            let outcome = site_tables[site]
                .request(step.entity, inst, step.mode)
                .expect("each frontier lock is requested once");
            if outcome == Acquire::Granted {
                return Err(ReplayError::NotStalled(format!(
                    "lock step {s} of T{i} on {} was granted",
                    step.entity
                )));
            }
            site_tables[site]
                .check_invariants()
                .map_err(ReplayError::Invariant)?;
        }
        if remaining {
            stalled.push(TxnId::from_idx(i));
        }
    }
    if stalled.is_empty() {
        return Err(ReplayError::NotStalled(
            "prefix is a complete schedule".into(),
        ));
    }

    // The queued requests induced real wait edges; find a cycle, the
    // rows in the order of each table's sorted edges, site by site.
    let mut graph = WaitGather::new(sys.len());
    if !graph.gather(&site_tables, |_| true, RowOrder::BySite) {
        return Err(ReplayError::NoWaitCycle);
    }
    let cycle = graph.find_cycle();
    Ok(DeadlockEvidence {
        stalled,
        cycle: cycle.iter().map(|&t| TxnId::from_idx(t)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_core::{check_deadlock, check_safety, SatSafety};
    use kplock_model::{Database, ScheduledStep, TxnBuilder};

    fn sys_of(scripts: &[&str]) -> TxnSystem {
        let db = Database::from_spec(&[("x", 0), ("y", 1)]);
        let txns = scripts
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut b = TxnBuilder::new(&db, format!("T{i}"));
                b.script(s).expect("script");
                b.build().expect("acyclic")
            })
            .collect();
        TxnSystem::new(db, txns)
    }

    #[test]
    fn sat_unsafety_witness_replays_to_a_nonserializable_audit() {
        let sys = sys_of(&["Lx x Ux Ly y Uy", "Lx x Ux Ly y Uy"]);
        let SatSafety::Unsafe(w) = check_safety(&sys).unwrap().verdict else {
            panic!("early-unlock pair is unsafe");
        };
        let report = replay_violation(&sys, &w).unwrap();
        assert!(report.legal.is_ok());
        assert!(!report.serializable);
    }

    #[test]
    fn sat_deadlock_witness_replays_to_a_real_wait_cycle() {
        let sys = sys_of(&["Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux"]);
        let prefix = check_deadlock(&sys).unwrap().deadlock.expect("deadlocks");
        let evidence = replay_deadlock(&sys, &prefix).unwrap();
        assert_eq!(evidence.stalled.len(), 2);
        assert_eq!(evidence.cycle.len(), 2);
    }

    #[test]
    fn serial_schedule_is_rejected_as_violation_witness() {
        let sys = sys_of(&["Lx x Ux Ly y Uy", "Lx x Ux Ly y Uy"]);
        let serial = Schedule::serial(&sys, &[TxnId(0), TxnId(1)]);
        assert!(matches!(
            replay_violation(&sys, &serial),
            Err(ReplayError::Serializable)
        ));
    }

    #[test]
    fn an_illegal_witness_is_named_at_its_event() {
        let sys = sys_of(&["Lx x Ux", "Lx x Ux"]);
        let steps = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)];
        let witness = Schedule::new(
            steps
                .iter()
                .map(|&(t, s)| ScheduledStep {
                    txn: TxnId(t),
                    step: StepId(s),
                })
                .collect(),
        );
        match replay_violation(&sys, &witness) {
            Err(ReplayError::Illegal(e)) => assert!(
                e.to_string()
                    .contains("tick 1: T1 (epoch 0) locks e0 already held by T0 (epoch 0)"),
                "{e}"
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_stalled_prefix_is_rejected_as_deadlock_witness() {
        let sys = sys_of(&["Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux"]);
        // T0 takes x only: T1 can still lock y, so nothing is stalled.
        let prefix = Schedule::new(vec![ScheduledStep {
            txn: TxnId(0),
            step: StepId(0),
        }]);
        assert!(matches!(
            replay_deadlock(&sys, &prefix),
            Err(ReplayError::NotStalled(_))
        ));
    }
}
