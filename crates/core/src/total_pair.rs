//! Safety of a pair of **totally ordered** transactions.
//!
//! For total orders the coordinated plane is unique, and safety is
//! equivalent to strong connectivity of `D(t1, t2)` (the single-site case of
//! Theorem 2, which the paper notes gives "an interesting insight into
//! centralized locking"). The unsafe direction is constructive: any
//! dominator `X` of `D(t1, t2)` yields a non-serializable schedule by
//! running `t1`'s lock sections first on `X` and `t2`'s first elsewhere.

use crate::certificate::{SafeProof, SafetyVerdict, UnsafetyCertificate};
use crate::conflict_graph::{ConflictDigraph, Sections};
use kplock_graph::find_dominator;
use kplock_model::{Schedule, ScheduledStep, StepId, Transaction, TxnId, TxnSystem};

/// Builds a legal complete schedule of `{Ta, Tb}` in which the lock section
/// of `Ta` on the shared entity of `sections[i]` comes first iff `in_x[i]`,
/// and `Tb`'s otherwise. Each side is a transaction with its id and a
/// linear extension of it. Returns `None` if the orientation is infeasible
/// (the combined precedence graph has a cycle).
pub(crate) fn orientation_schedule(
    (a, ta, t1_order): (TxnId, &Transaction, &[StepId]),
    (b, tb, t2_order): (TxnId, &Transaction, &[StepId]),
    sections: &[Sections],
    in_x: &[bool],
) -> Option<Schedule> {
    let (m1, m2) = (t1_order.len(), t2_order.len());
    debug_assert_eq!(m1, ta.len());
    debug_assert_eq!(m2, tb.len());

    // The combined precedence graph has nodes 0..m1 for the positions of
    // t1 and m1..m1+m2 for those of t2: two chains, plus one cross arc per
    // shared entity into its lock step in one of them. So a node has at
    // most one cross predecessor, `before[v]`, and the smallest-index-first
    // topological sort is a merge: the next node of t1 whenever its cross
    // predecessor has run, else the next node of t2 on the same terms, and
    // no legal schedule when neither may run.
    let (mut pos1, mut pos2) = (vec![0; m1], vec![0; m2]);
    for (at, s) in t1_order.iter().enumerate() {
        pos1[s.idx()] = at;
    }
    for (at, s) in t2_order.iter().enumerate() {
        pos2[s.idx()] = at;
    }
    let mut before = vec![None; m1 + m2];
    for (s, &first) in sections.iter().zip(in_x) {
        if first {
            // Ta's section before Tb's: Ua before Lb.
            before[m1 + pos2[s.lock_b.idx()]] = Some(pos1[s.unlock_a.idx()]);
        } else {
            before[pos1[s.lock_a.idx()]] = Some(m1 + pos2[s.unlock_b.idx()]);
        }
    }

    let (mut i, mut j) = (0, 0);
    let ran = |v: usize, i: usize, j: usize| if v < m1 { v < i } else { v - m1 < j };
    let mut steps = Vec::with_capacity(m1 + m2);
    while i < m1 || j < m2 {
        if i < m1 && before[i].is_none_or(|v| ran(v, i, j)) {
            steps.push(ScheduledStep {
                txn: a,
                step: t1_order[i],
            });
            i += 1;
        } else if j < m2 && before[m1 + j].is_none_or(|v| ran(v, i, j)) {
            steps.push(ScheduledStep {
                txn: b,
                step: t2_order[j],
            });
            j += 1;
        } else {
            return None;
        }
    }
    Some(Schedule::new(steps))
}

/// Decides safety of a pair of total orders: safe iff `D(t1, t2)` is
/// strongly connected; otherwise returns a verified-shape certificate built
/// from a dominator orientation. `Unknown` if `D(t1, t2)` is not defined (a
/// transaction lacks the lock or unlock step of a shared entity).
///
/// # Panics
/// Panics if either transaction is not a total order (callers should
/// enumerate linear extensions first — Lemma 1).
pub fn decide_total_pair(sys: &TxnSystem, a: TxnId, b: TxnId) -> SafetyVerdict {
    let t1_order = sys
        .txn(a)
        .total_order()
        .expect("decide_total_pair requires total orders");
    let t2_order = sys
        .txn(b)
        .total_order()
        .expect("decide_total_pair requires total orders");

    let Some((d, sections)) = ConflictDigraph::build_with_sections(sys, a, b) else {
        return SafetyVerdict::Unknown;
    };
    if d.entities.len() < 2 {
        return SafetyVerdict::Safe(SafeProof::TrivialOverlap);
    }
    if d.is_strongly_connected() {
        return SafetyVerdict::Safe(SafeProof::StronglyConnected);
    }

    // Unsafe: orient around a dominator. For total orders the paper shows
    // {t1,t2} is closed with respect to *any* dominator, so the source-SCC
    // dominator always yields a feasible orientation.
    let dom = find_dominator(&d.graph).expect("not strongly connected");
    let (x_first, in_x) = d.resolve_dominator(&dom);
    let schedule = orientation_schedule(
        (a, sys.txn(a), &t1_order),
        (b, sys.txn(b), &t2_order),
        &sections,
        &in_x,
    )
    .expect("total orders are closed w.r.t. any dominator (paper, Section 4)");

    SafetyVerdict::Unsafe(Box::new(UnsafetyCertificate {
        txn_a: a,
        txn_b: b,
        t1_order,
        t2_order,
        dominator: x_first,
        schedule,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_geometry::{plane_is_safe, PlanePicture};
    use kplock_model::{Database, TxnBuilder};

    fn pair(script1: &str, script2: &str, names: &[&str]) -> TxnSystem {
        let db = Database::centralized(names);
        let mut b1 = TxnBuilder::new(&db, "t1");
        b1.script(script1).unwrap();
        let t1 = b1.build().unwrap();
        let mut b2 = TxnBuilder::new(&db, "t2");
        b2.script(script2).unwrap();
        let t2 = b2.build().unwrap();
        TxnSystem::new(db, vec![t1, t2])
    }

    #[test]
    fn unsafe_pair_has_verifiable_certificate() {
        let sys = pair("Lx x Ux Ly y Uy", "Ly y Uy Lx x Ux", &["x", "y"]);
        let v = decide_total_pair(&sys, TxnId(0), TxnId(1));
        let cert = v.certificate().expect("unsafe");
        cert.verify(&sys).unwrap();
    }

    #[test]
    fn safe_pair_two_phase() {
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &["x", "y"]);
        let v = decide_total_pair(&sys, TxnId(0), TxnId(1));
        assert!(matches!(
            v,
            SafetyVerdict::Safe(SafeProof::StronglyConnected)
        ));
    }

    #[test]
    fn agrees_with_geometric_method() {
        // Several hand-made pairs, cross-checked against Proposition 1.
        let cases = [
            ("Lx x Ux Ly y Uy", "Ly y Uy Lx x Ux"),
            ("Lx Ly x y Ux Uy", "Lx Ly y x Uy Ux"),
            ("Lx x Ux Ly y Uy", "Lx x Ux Ly y Uy"),
            ("Lx x Lz z Uz Ux Ly y Uy", "Lz z Uz Ly y Uy Lx x Ux"),
            ("Lx x Ux Lz z Uz Ly y Uy", "Ly y Uy Lz z Uz Lx x Ux"),
        ];
        for (s1, s2) in cases {
            let sys = pair(s1, s2, &["x", "y", "z"]);
            let graph_safe = decide_total_pair(&sys, TxnId(0), TxnId(1)).is_safe();
            let plane = PlanePicture::new(&sys, TxnId(0), TxnId(1)).unwrap();
            assert_eq!(
                graph_safe,
                plane_is_safe(&plane),
                "methods disagree on ({s1}, {s2})"
            );
        }
    }

    #[test]
    fn single_shared_entity_is_trivially_safe() {
        let sys = pair("Lx x Ux Ly y Uy", "Lx x Ux Lz z Uz", &["x", "y", "z"]);
        let v = decide_total_pair(&sys, TxnId(0), TxnId(1));
        assert!(matches!(v, SafetyVerdict::Safe(SafeProof::TrivialOverlap)));
    }

    #[test]
    fn orientation_schedule_is_legal_for_feasible_assignments() {
        let sys = pair("Lx Ly x y Ux Uy", "Lx Ly y x Uy Ux", &["x", "y"]);
        let t1 = sys.txn(TxnId(0)).total_order().unwrap();
        let t2 = sys.txn(TxnId(1)).total_order().unwrap();
        let (ta, tb) = (sys.txn(TxnId(0)), sys.txn(TxnId(1)));
        let shared = sys.shared_locked_entities(TxnId(0), TxnId(1));
        let sections = Sections::of(ta, tb, &shared).unwrap();
        // Uniform orientations are always feasible (serial-ish schedules).
        for in_x in [[false, false], [true, true]] {
            let s =
                orientation_schedule((TxnId(0), ta, &t1), (TxnId(1), tb, &t2), &sections, &in_x)
                    .unwrap();
            s.validate_complete(&sys).unwrap();
            assert!(kplock_model::is_serializable(&sys, &s));
        }
    }
}
