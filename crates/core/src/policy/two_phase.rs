//! Two-phase locking for distributed (partially ordered) transactions.
//!
//! For total orders "two-phase" is unambiguous: no lock follows an unlock.
//! For partial orders two readings diverge, and the gap between them is
//! precisely the paper's distributed/centralized gap:
//!
//! * **loose 2PL** ([`is_loose_two_phase`]): no unlock *precedes* any lock
//!   in the partial order. Each site may be two-phase on its own while
//!   lock and unlock steps at different sites stay concurrent. This is NOT
//!   sufficient for safety — `D(T1,T2)` needs `Lx ≺ Uy` positively, and
//!   concurrency kills those arcs (see the tests);
//! * **synchronized 2PL** ([`is_synchronized_two_phase`]): every lock step
//!   precedes every unlock step (there is a global "lock point"). Then
//!   `D(T1, T2)` is complete, hence strongly connected, hence the pair is
//!   safe by Theorem 1 — at the price of a cross-site synchronization
//!   barrier in every transaction.

use kplock_model::{ActionKind, StepId, Transaction};

fn lock_steps(t: &Transaction) -> Vec<StepId> {
    t.step_ids()
        .filter(|&s| t.step(s).kind == ActionKind::Lock)
        .collect()
}

fn unlock_steps(t: &Transaction) -> Vec<StepId> {
    t.step_ids()
        .filter(|&s| t.step(s).kind == ActionKind::Unlock)
        .collect()
}

/// No unlock step precedes any lock step (per-site/loose two-phase).
pub fn is_loose_two_phase(t: &Transaction) -> bool {
    let locks = lock_steps(t);
    unlock_steps(t)
        .iter()
        .all(|&u| locks.iter().all(|&l| !t.precedes(u, l)))
}

/// Every lock step precedes every unlock step (lock-point two-phase).
pub fn is_synchronized_two_phase(t: &Transaction) -> bool {
    let locks = lock_steps(t);
    let unlocks = unlock_steps(t);
    locks
        .iter()
        .all(|&l| unlocks.iter().all(|&u| t.precedes(l, u)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::SafetyVerdict;
    use crate::two_site::decide_two_site;
    use kplock_model::{Database, TxnBuilder, TxnId, TxnSystem};

    #[test]
    fn total_order_two_phase() {
        let db = Database::centralized(&["x", "y"]);
        let mut b = TxnBuilder::new(&db, "T");
        b.script("Lx Ly x y Ux Uy").unwrap();
        let t = b.build().unwrap();
        assert!(is_loose_two_phase(&t));
        assert!(is_synchronized_two_phase(&t));

        let mut b = TxnBuilder::new(&db, "T");
        b.script("Lx x Ux Ly y Uy").unwrap();
        let t = b.build().unwrap();
        assert!(!is_loose_two_phase(&t));
        assert!(!is_synchronized_two_phase(&t));
    }

    /// The paper's headline phenomenon, demonstrated: per-site 2PL without
    /// cross-site synchronization is unsafe.
    #[test]
    fn loose_two_phase_is_not_safe_distributed() {
        let db = Database::from_spec(&[("x", 0), ("w", 1)]);
        let mk = |name: &str| {
            let mut b = TxnBuilder::new(&db, name);
            b.script("Lx x Ux").unwrap(); // site 0: two-phase locally
            b.script("Lw w Uw").unwrap(); // site 1: two-phase locally
            b.build().unwrap()
        };
        let t1 = mk("T1");
        assert!(is_loose_two_phase(&t1), "each site is two-phase");
        assert!(
            !is_synchronized_two_phase(&t1),
            "but there is no global lock point"
        );
        let t2 = mk("T2");
        let sys = TxnSystem::new(db.clone(), vec![t1, t2]);
        let verdict = decide_two_site(&sys, TxnId(0), TxnId(1)).unwrap();
        assert!(verdict.is_unsafe(), "loose 2PL admits anomalies");
        verdict.certificate().unwrap().verify(&sys).unwrap();
    }

    /// Synchronized 2PL makes D complete, hence safe (Theorem 1).
    #[test]
    fn synchronized_two_phase_is_safe_distributed() {
        let db = Database::from_spec(&[("x", 0), ("w", 1)]);
        let mk = |name: &str| {
            let mut b = TxnBuilder::new(&db, name);
            let lx = b.lock("x").unwrap();
            let lw = b.lock("w").unwrap();
            let ux_ = b.update("x").unwrap();
            let uw_ = b.update("w").unwrap();
            let ux = b.unlock("x").unwrap();
            let uw = b.unlock("w").unwrap();
            // Lock point: both locks precede both unlocks (cross edges).
            b.edge(lx, uw_);
            b.edge(lw, ux_);
            b.edge(lx, uw);
            b.edge(lw, ux);
            b.edge(ux_, uw);
            b.edge(uw_, ux);
            b.build().unwrap()
        };
        let t1 = mk("T1");
        assert!(is_synchronized_two_phase(&t1), "global lock point exists");
        let t2 = mk("T2");
        let sys = TxnSystem::new(db.clone(), vec![t1, t2]);
        let verdict = decide_two_site(&sys, TxnId(0), TxnId(1)).unwrap();
        assert!(matches!(verdict, SafetyVerdict::Safe(_)));
    }
}
