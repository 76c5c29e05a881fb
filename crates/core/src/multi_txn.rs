//! Proposition 2: safety of systems with more than two transactions
//! (Section 6).
//!
//! Let `G` be the graph on transactions with an edge `[Ti, Tj]` iff they
//! lock a common entity. For each directed length-2 path `(Ti, Tj, Tk)` of
//! `G`, the digraph `B_ijk` has a node `x_ij` for each entity locked by both
//! `Ti` and `Tj` and a node `y_jk` for each entity locked by `Tj` and `Tk`,
//! and arcs (all read off `Tj`'s partial order):
//!
//! * `x_ij → y_jk`   iff `Lx ≺_j Uy`,
//! * `x_ij → x'_ij`  iff `Lx ≺_j Lx'`,
//! * `y_jk → y'_jk`  iff `Uy ≺_j Uy'`.
//!
//! **Proposition 2**: `T` is safe iff (a) every two-transaction subsystem
//! is safe, and (b) for each directed cycle `c` of `G`, the union `B_c` of
//! the `B_ijk` over the consecutive subpaths of `c` has a directed cycle.
//!
//! Interfaces are keyed by *ordered* transaction pairs along the cycle
//! direction, so a 2-cycle `(Ti, Tj)` contributes the two node families
//! `x_ij` and `x_ji`.

use crate::analysis::analyze;
use crate::certificate::SafetyVerdict;
use kplock_graph::{has_cycle, simple_cycles, DiGraph};
use kplock_model::{EntityId, TxnId, TxnSystem};
use std::collections::HashMap;

/// Proposition-2 verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Prop2Verdict {
    /// All pairwise subsystems safe and every `B_c` has a cycle.
    Safe,
    /// Some pair is unsafe.
    UnsafePair,
    /// All pairs safe but some cycle's `B_c` is acyclic.
    UnsafeCycle,
    /// No pair is unsafe, but some pair is undecided, or `G` has more
    /// simple cycles than the 10 000 checked and each checked `B_c` has a
    /// cycle.
    Unknown,
}

/// The most directed simple cycles of `G` whose `B_c` [`proposition2`]
/// checks.
const CYCLE_CAP: usize = 10_000;

/// The conflict graph `G` as a symmetric digraph.
fn conflict_graph_g(sys: &TxnSystem) -> DiGraph {
    let k = sys.len();
    let mut g = DiGraph::new(k);
    for i in 0..k {
        for j in (i + 1)..k {
            if !sys
                .shared_locked_entities(TxnId::from_idx(i), TxnId::from_idx(j))
                .is_empty()
            {
                g.add_edge(i, j);
                g.add_edge(j, i);
            }
        }
    }
    g
}

/// Builds the union graph `B_c` for a directed cycle `c` of `G`. Every
/// pair along `c` has been decided, so each shared entity has its lock and
/// unlock steps.
fn union_graph_for_cycle(sys: &TxnSystem, cycle: &[TxnId]) -> DiGraph {
    let len = cycle.len();
    // Node universe: (ordered interface (from,to), entity).
    let mut index: HashMap<(usize, usize, EntityId), usize> = HashMap::new();
    let mut nodes: Vec<(usize, usize, EntityId)> = Vec::new();
    let mut interface: Vec<Vec<EntityId>> = Vec::new(); // per cycle position
    for p in 0..len {
        let from = cycle[p];
        let to = cycle[(p + 1) % len];
        let shared = sys.shared_locked_entities(from, to);
        for &e in &shared {
            let key = (from.idx(), to.idx(), e);
            index.entry(key).or_insert_with(|| {
                nodes.push(key);
                nodes.len() - 1
            });
        }
        interface.push(shared);
    }
    let mut b = DiGraph::new(nodes.len());
    // For each subpath (Ti, Tj, Tk) — positions (p-1, p, p+1).
    for p in 0..len {
        let prev = (p + len - 1) % len;
        let ti = cycle[prev];
        let tj = cycle[p];
        let tk = cycle[(p + 1) % len];
        let left = &interface[prev]; // entities shared by Ti, Tj
        let right = &interface[p]; // entities shared by Tj, Tk
        let t = sys.txn(tj);
        let node_left = |e: EntityId| index[&(ti.idx(), tj.idx(), e)];
        let node_right = |e: EntityId| index[&(tj.idx(), tk.idx(), e)];
        // x_ij -> y_jk iff Lx ≺_j Uy.
        for &x in left {
            let lx = t.lock_step(x).expect("shared");
            for &y in right {
                let uy = t.unlock_step(y).expect("shared");
                if t.precedes(lx, uy) {
                    b.add_edge(node_left(x), node_right(y));
                }
            }
        }
        // x_ij -> x'_ij iff Lx ≺_j Lx'.
        for &x in left {
            let lx = t.lock_step(x).expect("shared");
            for &x2 in left {
                if x == x2 {
                    continue;
                }
                let lx2 = t.lock_step(x2).expect("shared");
                if t.precedes(lx, lx2) {
                    b.add_edge(node_left(x), node_left(x2));
                }
            }
        }
        // y_jk -> y'_jk iff Uy ≺_j Uy'.
        for &y in right {
            let uy = t.unlock_step(y).expect("shared");
            for &y2 in right {
                if y == y2 {
                    continue;
                }
                let uy2 = t.unlock_step(y2).expect("shared");
                if t.precedes(uy, uy2) {
                    b.add_edge(node_right(y), node_right(y2));
                }
            }
        }
    }
    b
}

/// Decides safety of `sys` by Proposition 2. Each pair that shares an
/// entity is decided as [`crate::analyze_pair`] decides it; the first
/// unsafe pair answers `UnsafePair`, and an undecided one answers
/// `Unknown` once no later pair is unsafe. Then the first directed simple
/// cycle of `G` whose `B_c` is acyclic answers `UnsafeCycle`.
pub fn proposition2(sys: &TxnSystem) -> Prop2Verdict {
    let k = sys.len();
    let mut undecided = false;
    for i in 0..k {
        for j in (i + 1)..k {
            let (a, b) = (TxnId::from_idx(i), TxnId::from_idx(j));
            if sys.shared_locked_entities(a, b).is_empty() {
                continue;
            }
            match analyze(sys, a, b).verdict {
                SafetyVerdict::Unsafe(_) => return Prop2Verdict::UnsafePair,
                SafetyVerdict::Unknown => undecided = true,
                SafetyVerdict::Safe(_) => {}
            }
        }
    }
    if undecided {
        return Prop2Verdict::Unknown;
    }
    let (cycles, exhaustive) = simple_cycles(&conflict_graph_g(sys), CYCLE_CAP);
    for c in cycles.into_iter().filter(|c| c.len() >= 2) {
        let cycle: Vec<TxnId> = c.into_iter().map(TxnId::from_idx).collect();
        if !has_cycle(&union_graph_for_cycle(sys, &cycle)) {
            return Prop2Verdict::UnsafeCycle;
        }
    }
    if exhaustive {
        Prop2Verdict::Safe
    } else {
        Prop2Verdict::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{decide_exhaustive, OracleOptions, OracleOutcome};
    use kplock_model::{Database, TxnBuilder};

    fn sys_from_scripts(names: &[&str], scripts: &[&str]) -> TxnSystem {
        let db = Database::centralized(names);
        let txns = scripts
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut b = TxnBuilder::new(&db, format!("T{}", i + 1));
                b.script(s).unwrap();
                b.build().unwrap()
            })
            .collect();
        TxnSystem::new(db, txns)
    }

    #[test]
    fn three_two_phase_transactions_are_safe() {
        let sys = sys_from_scripts(
            &["x", "y", "z"],
            &["Lx Ly x y Ux Uy", "Ly Lz y z Uy Uz", "Lz Lx z x Uz Ux"],
        );
        let verdict = proposition2(&sys);
        assert_eq!(verdict, Prop2Verdict::Safe);
        // Cross-check with the exact oracle.
        let oracle = decide_exhaustive(&sys, &OracleOptions::default());
        assert!(matches!(oracle.outcome, OracleOutcome::Safe));
    }

    #[test]
    fn pairwise_unsafe_is_reported() {
        let sys = sys_from_scripts(
            &["x", "y", "z"],
            &["Lx x Ux Ly y Uy", "Ly y Uy Lx x Ux", "Lz z Uz"],
        );
        let verdict = proposition2(&sys);
        assert_eq!(verdict, Prop2Verdict::UnsafePair);
        let oracle = decide_exhaustive(&sys, &OracleOptions::default());
        assert!(matches!(oracle.outcome, OracleOutcome::Unsafe(_)));
    }

    #[test]
    fn pairwise_safe_but_cycle_unsafe() {
        // Classic: three transactions, each pair shares exactly ONE entity
        // (pairwise trivially safe), but the triangle allows a cycle
        // T1 -> T2 -> T3 -> T1. Each transaction is NON-two-phase so the
        // union graph B_c can be acyclic.
        let sys = sys_from_scripts(
            &["x", "y", "z"],
            &[
                "Lx x Ux Ly y Uy", // T1: x then y
                "Ly y Uy Lz z Uz", // T2: y then z
                "Lz z Uz Lx x Ux", // T3: z then x
            ],
        );
        // Pairs: T1,T2 share y only; T2,T3 share z only; T1,T3 share x only.
        let verdict = proposition2(&sys);
        let oracle = decide_exhaustive(&sys, &OracleOptions::default());
        let oracle_unsafe = matches!(oracle.outcome, OracleOutcome::Unsafe(_));
        assert!(oracle_unsafe, "triangle anomaly must exist");
        assert_eq!(verdict, Prop2Verdict::UnsafeCycle);
    }

    #[test]
    fn agreement_with_oracle_on_three_txn_cases() {
        let cases: Vec<Vec<&str>> = vec![
            vec!["Lx Ly x y Ux Uy", "Ly Lz y z Uy Uz", "Lz Lx z x Uz Ux"],
            vec!["Lx x Ux Ly y Uy", "Ly y Uy Lz z Uz", "Lz z Uz Lx x Ux"],
            vec!["Lx Ly x y Ux Uy", "Ly y Uy Lz z Uz", "Lz Lx z x Uz Ux"],
            vec!["Lx Ly x y Uy Ux", "Ly Lz y z Uz Uy", "Lx Lz x z Ux Uz"],
        ];
        for scripts in cases {
            let sys = sys_from_scripts(&["x", "y", "z"], &scripts);
            let verdict = proposition2(&sys);
            let oracle = decide_exhaustive(&sys, &OracleOptions::default());
            let oracle_safe = matches!(oracle.outcome, OracleOutcome::Safe);
            let prop2_safe = verdict == Prop2Verdict::Safe;
            assert_eq!(
                prop2_safe, oracle_safe,
                "Proposition 2 disagrees with oracle on {scripts:?}: {:?}",
                verdict
            );
        }
    }
}
