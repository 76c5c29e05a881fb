//! Exact schedule counting: quantifying concurrency.
//!
//! The paper's opening concern is that locking should "not unnecessarily
//! restrict the parallelism of the system". This module makes the
//! restriction measurable: it counts, exactly, the legal complete schedules
//! of a system and how many of them are serializable, by dynamic
//! programming over the product state space (progress vectors +
//! serialization-graph edges), memoized. The space is the one the
//! exhaustive oracle walks ([`crate::oracle`]), with its limits and its
//! refusal of a transaction that locks an entity it never unlocks.
//!
//! `serializable == legal` is yet another (exhaustive) characterization of
//! safety, cross-checked against the decision procedures in tests.

use crate::oracle::{Space, State};
use kplock_model::TxnSystem;
use std::collections::HashMap;
use std::ops::ControlFlow;

/// Exact counts for a system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleCounts {
    /// Number of legal complete schedules.
    pub legal: u128,
    /// How many of them are serializable.
    pub serializable: u128,
    /// Whether some reachable state is a deadlock (no step can move, yet
    /// the system is incomplete).
    pub deadlock_reachable: bool,
}

impl ScheduleCounts {
    /// The fraction of legal schedules that are serializable (1.0 for an
    /// empty schedule space).
    pub fn serializable_fraction(&self) -> f64 {
        if self.legal == 0 {
            1.0
        } else {
            self.serializable as f64 / self.legal as f64
        }
    }

    /// Safety, the exhaustive way.
    pub fn is_safe(&self) -> bool {
        self.legal == self.serializable
    }
}

/// Counts schedules exactly. Returns `None` if more than `max_states`
/// distinct memo states are visited, or if the state encoding refuses the
/// system: more than 8 transactions, a transaction of more than 64 steps,
/// or one that locks an entity it never unlocks.
pub fn count_schedules(sys: &TxnSystem, max_states: usize) -> Option<ScheduleCounts> {
    let space = Space::new(sys)?;
    let mut memo = Memo {
        counts: HashMap::new(),
        deadlock: false,
        max_states,
    };
    let (legal, serializable) = count(&space, &mut memo, &vec![0; sys.len()], 0)?;
    Some(ScheduleCounts {
        legal,
        serializable,
        deadlock_reachable: memo.deadlock,
    })
}

struct Memo {
    /// `(legal, serializable)` completions per incomplete state.
    counts: HashMap<State, (u128, u128)>,
    /// Whether some state visited so far is a deadlock.
    deadlock: bool,
    max_states: usize,
}

/// The legal and serializable completions of the state `(done, sg)`, or
/// `None` once `memo` holds `max_states` states.
fn count(space: &Space, memo: &mut Memo, done: &[u64], sg: u64) -> Option<(u128, u128)> {
    if space.complete(done) {
        return Some((1, u128::from(!space.cyclic(sg))));
    }
    let key = (done.to_vec(), sg);
    if let Some(&v) = memo.counts.get(&key) {
        return Some(v);
    }
    if memo.counts.len() >= memo.max_states {
        return None;
    }
    let (mut legal, mut serializable) = (0u128, 0u128);
    let flow = space.moves(done, sg, |i, v, next_sg| {
        let mut next = done.to_vec();
        next[i] |= 1 << v;
        let Some((l, s)) = count(space, memo, &next, next_sg) else {
            return ControlFlow::Break(());
        };
        legal += l;
        serializable += s;
        ControlFlow::Continue(())
    });
    let ControlFlow::Continue(moved) = flow else {
        return None;
    };
    memo.deadlock |= !moved;
    memo.counts.insert(key, (legal, serializable));
    Some((legal, serializable))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_model::{Database, TxnBuilder, TxnId};

    fn pair(s1: &str, s2: &str, spec: &[(&str, usize)]) -> TxnSystem {
        let db = Database::from_spec(spec);
        let mut b1 = TxnBuilder::new(&db, "T1");
        b1.script(s1).unwrap();
        let t1 = b1.build().unwrap();
        let mut b2 = TxnBuilder::new(&db, "T2");
        b2.script(s2).unwrap();
        let t2 = b2.build().unwrap();
        TxnSystem::new(db, vec![t1, t2])
    }

    #[test]
    fn disjoint_pairs_count_binomials() {
        // Two 3-step chains with no conflicts: C(6,3) = 20 interleavings,
        // all serializable.
        let sys = pair("Lx x Ux", "Ly y Uy", &[("x", 0), ("y", 0)]);
        let c = count_schedules(&sys, 1_000_000).unwrap();
        assert_eq!(c.legal, 20);
        assert_eq!(c.serializable, 20);
        assert!(c.is_safe());
        assert!(!c.deadlock_reachable);
    }

    #[test]
    fn fully_conflicting_pair_counts_two() {
        // Both transactions need the same lock for their whole body: only
        // the two serial orders are legal.
        let sys = pair("Lx x Ux", "Lx x Ux", &[("x", 0)]);
        let c = count_schedules(&sys, 1_000_000).unwrap();
        assert_eq!(c.legal, 2);
        assert_eq!(c.serializable, 2);
    }

    #[test]
    fn unsafe_pair_has_nonserializable_schedules() {
        let sys = pair("Lx x Ux Ly y Uy", "Ly y Uy Lx x Ux", &[("x", 0), ("y", 0)]);
        let c = count_schedules(&sys, 1_000_000).unwrap();
        assert!(c.legal > c.serializable, "{c:?}");
        assert!(!c.is_safe());
        // Agreement with the decision procedure.
        let verdict = crate::two_site::decide_two_site(&sys, TxnId(0), TxnId(1)).unwrap();
        assert!(verdict.is_unsafe());
    }

    #[test]
    fn deadlock_detected_in_counts() {
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 0)]);
        let c = count_schedules(&sys, 1_000_000).unwrap();
        assert!(c.deadlock_reachable);
        assert!(c.is_safe(), "two-phase: every completion serializable");
    }

    #[test]
    fn cap_returns_none() {
        let sys = pair("Lx x Ux Ly y Uy", "Ly y Uy Lx x Ux", &[("x", 0), ("y", 0)]);
        assert!(count_schedules(&sys, 1).is_none());
    }

    #[test]
    fn counting_agrees_with_oracle_on_safety() {
        use crate::oracle::{decide_exhaustive, OracleOptions, OracleOutcome};
        let cases = [
            ("Lx x Ux Ly y Uy", "Lx x Ux Ly y Uy"),
            ("Lx x Ux Ly y Uy", "Ly y Uy Lx x Ux"),
            ("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux"),
        ];
        for (s1, s2) in cases {
            let sys = pair(s1, s2, &[("x", 0), ("y", 0)]);
            let c = count_schedules(&sys, 1_000_000).unwrap();
            let o = decide_exhaustive(&sys, &OracleOptions::default());
            assert_eq!(
                c.is_safe(),
                matches!(o.outcome, OracleOutcome::Safe),
                "({s1}, {s2})"
            );
            assert_eq!(c.deadlock_reachable, o.deadlock_reachable, "({s1}, {s2})");
        }
    }
}
