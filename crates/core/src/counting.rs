//! Exact schedule counting: quantifying concurrency.
//!
//! The paper's opening concern is that locking should "not unnecessarily
//! restrict the parallelism of the system". This module makes the
//! restriction measurable: it counts, exactly, the legal complete schedules
//! of a system and how many of them are serializable, by dynamic
//! programming over the product state space (progress vectors +
//! serialization-graph edges), memoized.
//!
//! `serializable == legal` is yet another (exhaustive) characterization of
//! safety, cross-checked against the decision procedures in tests.

use kplock_model::{ActionKind, StepId, TxnId, TxnSystem};
use std::collections::HashMap;

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
/// distinct memo states are visited, or if the system has more than 8
/// transactions or a transaction of more than 64 steps (the state
/// encoding's limits).
pub fn count_schedules(sys: &TxnSystem, max_states: usize) -> Option<ScheduleCounts> {
    let k = sys.len();
    if k > 8 || sys.txns().iter().any(|t| t.len() > 64) {
        return None;
    }

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

    struct Ctx<'a> {
        sys: &'a TxnSystem,
        full: Vec<u64>,
        memo: HashMap<(Vec<u64>, u64), (u128, u128)>,
        deadlock: bool,
        max_states: usize,
    }

    fn holds(sys: &TxnSystem, done: &[u64], i: usize, e: kplock_model::EntityId) -> bool {
        let t = sys.txn(TxnId::from_idx(i));
        match (t.lock_step(e), t.unlock_step(e)) {
            (Some(l), Some(u)) => done[i] & (1 << l.idx()) != 0 && done[i] & (1 << u.idx()) == 0,
            _ => false,
        }
    }

    fn rec(
        ctx: &mut Ctx<'_>,
        done: &[u64],
        sg: u64,
        cyclic: &impl Fn(u64) -> bool,
    ) -> Option<(u128, u128)> {
        let k = ctx.sys.len();
        if (0..k).all(|i| done[i] == ctx.full[i]) {
            let ser = u128::from(!cyclic(sg));
            return Some((1, ser));
        }
        let key = (done.to_vec(), sg);
        if let Some(&v) = ctx.memo.get(&key) {
            return Some(v);
        }
        if ctx.memo.len() >= ctx.max_states {
            return None;
        }
        let mut legal = 0u128;
        let mut serializable = 0u128;
        let mut moved = false;
        for i in 0..k {
            let t = ctx.sys.txn(TxnId::from_idx(i));
            let remaining = ctx.full[i] & !done[i];
            let mut bits = remaining;
            while bits != 0 {
                let v = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let preds_ok = t
                    .edge_graph()
                    .predecessors(v)
                    .iter()
                    .all(|&p| done[i] & (1 << p) != 0);
                if !preds_ok {
                    continue;
                }
                let step = t.step(StepId::from_idx(v));
                if step.kind == ActionKind::Lock
                    && (0..k).any(|j| j != i && holds(ctx.sys, done, j, step.entity))
                {
                    continue;
                }
                moved = true;
                let mut next = done.to_vec();
                next[i] |= 1 << v;
                // Serialization-graph update for access steps.
                let is_access = match step.kind {
                    ActionKind::Update => true,
                    ActionKind::Lock => !t.has_update(step.entity),
                    ActionKind::Unlock => false,
                };
                let mut next_sg = sg;
                if is_access {
                    #[allow(clippy::needless_range_loop)]
                    for j in 0..k {
                        if j == i {
                            continue;
                        }
                        let tj = ctx.sys.txn(TxnId::from_idx(j));
                        let accessed = tj.step_ids().any(|s| {
                            let st = tj.step(s);
                            st.entity == step.entity
                                && (st.kind == ActionKind::Update
                                    || (st.kind == ActionKind::Lock && !tj.has_update(st.entity)))
                                && done[j] & (1 << s.idx()) != 0
                        });
                        if accessed {
                            next_sg |= 1 << (j * 8 + i);
                        }
                    }
                }
                let (l, s) = rec(ctx, &next, next_sg, cyclic)?;
                legal += l;
                serializable += s;
            }
        }
        if !moved {
            ctx.deadlock = true;
        }
        ctx.memo.insert(key, (legal, serializable));
        Some((legal, serializable))
    }

    let mut ctx = Ctx {
        sys,
        full,
        memo: HashMap::new(),
        deadlock: false,
        max_states,
    };
    let done = vec![0u64; k];
    let (legal, serializable) = rec(&mut ctx, &done, 0, &sg_cyclic)?;
    Some(ScheduleCounts {
        legal,
        serializable,
        deadlock_reachable: ctx.deadlock,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_model::{Database, TxnBuilder};

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
