//! The history's online audit against the offline definitions: on random
//! recorded histories, `audit`'s legality and serializability verdicts
//! equal `Schedule::validate_complete` and `is_serializable` on the
//! committed projection.
//!
//! The histories cover what the runners produce and what they must never
//! produce: flat and two-level databases, locks in all five modes,
//! two-phase and non-two-phase transactions over partial orders, aborted
//! epochs, epochs whose holds pass to their successor (no runner hands
//! holds across an abort, but the audit takes any recorded history), lock
//! conflicts the tables would have refused, steps recorded twice, out of
//! order or not at all, and instances committed as they finish or all at
//! the end.

use kplock_model::{
    is_serializable, ActionKind, Database, EntityId, LockMode, SiteId, Step, StepId, Transaction,
    TxnId, TxnSystem,
};
use kplock_sim::{audit, History, Instance};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A flat or two-level database and 1–5 transactions, each a random
/// merge of lock sections in any mode — with zero to two reads or writes
/// inside, or an update under no lock of its own — whose precedence is
/// the merged chain with some links dropped.
fn random_system(rng: &mut StdRng) -> TxnSystem {
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
            let mut sections: Vec<Vec<Step>> = Vec::new();
            for &e in &entities {
                if rng.gen_bool(0.4) {
                    continue;
                }
                let locked = rng.gen_bool(0.85);
                let mut section = Vec::new();
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
            let drop_link = if rng.gen_bool(0.5) { 0.0 } else { 0.3 };
            let edges: Vec<(StepId, StepId)> = (1..steps.len())
                .filter(|_| !rng.gen_bool(drop_link))
                .map(|v| (StepId::from_idx(v - 1), StepId::from_idx(v)))
                .collect();
            Transaction::new(format!("T{i}"), steps, edges).unwrap()
        })
        .collect();
    TxnSystem::new(db, txns)
}

/// The order one instance records its steps in: a random linear extension,
/// now and then with two steps swapped, a step repeated or a step left out.
fn record_order(t: &Transaction, rng: &mut StdRng) -> Vec<StepId> {
    let g = t.edge_graph();
    let mut waiting: Vec<usize> = (0..t.len()).map(|v| g.predecessors(v).len()).collect();
    let mut ready: Vec<usize> = (0..t.len()).filter(|&v| waiting[v] == 0).collect();
    let mut order = Vec::new();
    while !ready.is_empty() {
        let v = ready.swap_remove(rng.gen_range(0..ready.len()));
        order.push(StepId::from_idx(v));
        for &w in g.successors(v) {
            waiting[w] -= 1;
            if waiting[w] == 0 {
                ready.push(w);
            }
        }
    }
    if !order.is_empty() && rng.gen_bool(0.1) {
        let (a, b) = (rng.gen_range(0..order.len()), rng.gen_range(0..order.len()));
        order.swap(a, b);
    }
    if !order.is_empty() && rng.gen_bool(0.05) {
        let a = rng.gen_range(0..order.len());
        order.insert(rng.gen_range(0..=order.len()), order[a]);
    }
    if !order.is_empty() && rng.gen_bool(0.05) {
        order.remove(rng.gen_range(0..order.len()));
    }
    order
}

/// One transaction's instance in flight.
struct Live {
    epoch: u32,
    order: Vec<StepId>,
    next: usize,
}

/// Records a random history of `sys` and tells `history` of its aborts
/// and commits. Lock steps respect the holds of live instances unless
/// `lawless` (or, rarely, anyway); a transaction stuck behind a hold may be
/// aborted, keeping its holds for its successor now and then.
fn random_history(sys: &TxnSystem, history: &mut History<'_>, rng: &mut StdRng) {
    let lawless = rng.gen_bool(0.2);
    let as_you_go = rng.gen_bool(0.5);
    let mut live: Vec<Live> = sys
        .txns()
        .iter()
        .map(|t| Live {
            epoch: 0,
            order: record_order(t, rng),
            next: 0,
        })
        .collect();
    let (mut finished, mut committed) = (vec![false; sys.len()], vec![false; sys.len()]);
    // Who holds what, by transaction: a hold kept across an abort passes
    // to the next epoch with the transaction.
    let mut holds: Vec<(TxnId, EntityId, LockMode)> = Vec::new();
    let mut time = 0;
    for _ in 0..200 {
        let open: Vec<usize> = (0..sys.len()).filter(|&t| !finished[t]).collect();
        let Some(&t) = open.get(rng.gen_range(0..open.len().max(1))) else {
            break;
        };
        let txn = TxnId::from_idx(t);
        let inst = Instance {
            txn,
            epoch: live[t].epoch,
        };
        time += rng.gen_range(0..3u64);
        if live[t].next == live[t].order.len() {
            finished[t] = true;
            if as_you_go && rng.gen_bool(0.9) {
                history.commit(inst);
                committed[t] = true;
            }
            continue;
        }
        let step = live[t].order[live[t].next];
        let s = sys.txn(txn).step(step);
        let blocked = s.kind == ActionKind::Lock
            && holds
                .iter()
                .any(|&(h, e, m)| h != txn && e == s.entity && !m.compatible_with(s.mode));
        if blocked && !lawless && !rng.gen_bool(0.02) {
            if rng.gen_bool(0.3) {
                // Give up: abort, maybe keeping the holds for the successor.
                history.abort(inst);
                if rng.gen_bool(0.7) {
                    holds.retain(|&(h, ..)| h != txn);
                }
                live[t] = Live {
                    epoch: inst.epoch + 1,
                    order: record_order(sys.txn(txn), rng),
                    next: 0,
                };
            }
            continue;
        }
        history.record(time, inst, step);
        live[t].next += 1;
        match s.kind {
            ActionKind::Lock => holds.push((txn, s.entity, s.mode)),
            ActionKind::Unlock => holds.retain(|&(h, e, _)| h != txn || e != s.entity),
            ActionKind::Update => {}
        }
        if rng.gen_bool(0.02) {
            history.abort(inst);
            holds.retain(|&(h, ..)| h != txn);
            live[t] = Live {
                epoch: inst.epoch + 1,
                order: record_order(sys.txn(txn), rng),
                next: 0,
            };
        }
    }
    // At the end, commit what is still to commit: every finished instance,
    // now and then an unfinished one, never an instance twice.
    for (t, l) in live.iter().enumerate() {
        let done = l.next == l.order.len();
        if !committed[t] && (done || rng.gen_bool(0.1)) {
            history.commit(Instance {
                txn: TxnId::from_idx(t),
                epoch: l.epoch,
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn the_online_audit_is_the_offline_audit(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sys = random_system(&mut rng);
        let mut history = History::new(&sys);
        random_history(&sys, &mut history, &mut rng);
        let a = audit(&history);
        let offline = a.schedule.validate_complete(&sys);
        prop_assert_eq!(a.legal.is_ok(), offline.is_ok(), "online {:?}, offline {:?}", a.legal, offline);
        prop_assert_eq!(a.serializable, is_serializable(&sys, &a.schedule));
    }
}
