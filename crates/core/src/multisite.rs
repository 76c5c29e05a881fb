//! Safety of two transactions distributed over many sites.
//!
//! Theorem 3 shows this problem coNP-complete, so no polynomial decision
//! procedure is expected. This module combines:
//!
//! 1. **Theorem 1** (sound for Safe): strong connectivity of `D(T1,T2)`;
//! 2. the **pair path**, [`crate::sat_check`]'s safety check on the pair
//!    (exact): one orientation
//!    variable per vertex of `D`, whose binary clauses say that the
//!    vertices oriented first are a dominator (Corollary 2), with the
//!    longer section-graph cycles cut lazily, decided by the SAT solver;
//!    its witness becomes a certificate.
//!
//! The first is linear and answers the strongly connected pairs; the
//! second decides the rest, e.g. the paper's four-site Fig. 5 system,
//! where `D` is not strongly connected, every closure attempt fails, and
//! yet the system is safe. A witness's dominator is one whose closure
//! succeeds, so the dominator closures of Corollary 2 need not be tried
//! one by one. An exclusive, well-formed pair always gets `Safe` or a
//! verified `Unsafe`; [`SafetyVerdict::Unknown`] is left for the pairs the
//! pair path refuses (shared modes, ill-formed transactions, updates
//! outside their lock sections).

use crate::certificate::{certificate_from_witness, SafeProof, SafetyVerdict};
use crate::conflict_graph::{ConflictDigraph, Sections};
use crate::sat_check::{admit_pair, pair_witness};
use kplock_model::{TxnId, TxnSystem};

/// Options for the multisite procedure: there are none left. The
/// procedure is Theorem 1, then the pair path, with nothing to set; the
/// struct stays so that callers naming it keep building.
#[derive(Clone, Debug, Default)]
pub struct MultisiteOptions {}

/// Decides safety of `{Ta, Tb}` over any number of sites: `Safe` or a
/// verified `Unsafe` for every exclusive, well-formed pair. A pair the
/// pair path refuses is [`SafetyVerdict::Unknown`], and so is a pair
/// where a transaction lacks the lock or unlock step of a shared entity.
pub fn decide_multisite(
    sys: &TxnSystem,
    a: TxnId,
    b: TxnId,
    _opts: &MultisiteOptions,
) -> SafetyVerdict {
    let Some((d, sections)) = ConflictDigraph::build_with_sections(sys, a, b) else {
        return SafetyVerdict::Unknown;
    };
    let strongly_connected = d.is_strongly_connected();
    decide_with(sys, &d, &sections, strongly_connected)
}

/// [`decide_multisite`] over a `D(Ta, Tb)` the caller built, with its
/// vertices' sections and its strong connectivity. The pair path reads the
/// sections from `D`, not from the transactions again, but still admits
/// both transactions first.
pub(crate) fn decide_with(
    sys: &TxnSystem,
    d: &ConflictDigraph,
    sections: &[Sections],
    strongly_connected: bool,
) -> SafetyVerdict {
    let (a, b) = (d.txn_a, d.txn_b);
    if d.entities.len() < 2 {
        return SafetyVerdict::Safe(SafeProof::TrivialOverlap);
    }
    if strongly_connected {
        return SafetyVerdict::Safe(SafeProof::StronglyConnected);
    }
    if admit_pair(sys, a, b).is_err() {
        return SafetyVerdict::Unknown;
    }
    match pair_witness((sys.txn(a), sys.txn(b)), &d.entities, sections) {
        Ok((None, _)) => SafetyVerdict::Safe(SafeProof::Unsatisfiable),
        Ok((Some((witness, orient)), _)) => {
            match certificate_from_witness(sys, d, &witness, &orient) {
                Some(cert) => SafetyVerdict::Unsafe(Box::new(cert)),
                None => SafetyVerdict::Unknown,
            }
        }
        Err(_) => SafetyVerdict::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::try_unsafety_via_dominator;
    use kplock_graph::enumerate_dominators;
    use kplock_model::{Database, EntityId, TxnBuilder};

    /// The Fig. 5 construction (semantically): four sites, entities
    /// x1, x2, y1, y2, one per site. D(T1,T2) = {x1 ↔ x2, y1 ↔ y2, x1 → y1};
    /// the only dominator is {x1, x2}; its closure forces Ux1 to both
    /// precede and follow Ux2, so there is no certificate — and the system
    /// is in fact safe (Theorem 1's converse fails at ≥ 4 sites).
    pub(crate) fn fig5_system() -> TxnSystem {
        let db = Database::from_spec(&[("x1", 0), ("x2", 1), ("y1", 2), ("y2", 3)]);
        let mut b1 = TxnBuilder::new(&db, "T1");
        let mut b2 = TxnBuilder::new(&db, "T2");
        let mut step1 = std::collections::HashMap::new();
        let mut step2 = std::collections::HashMap::new();
        for e in ["x1", "x2", "y1", "y2"] {
            let l1 = b1.lock(e).unwrap();
            let u1 = b1.unlock(e).unwrap();
            step1.insert((e, 'L'), l1);
            step1.insert((e, 'U'), u1);
            let l2 = b2.lock(e).unwrap();
            let u2 = b2.unlock(e).unwrap();
            step2.insert((e, 'L'), l2);
            step2.insert((e, 'U'), u2);
        }
        // Realize intended arcs (p,q): Lp ≺1 Uq and Lq ≺2 Up.
        let arcs = [
            ("x1", "x2"),
            ("x2", "x1"),
            ("y1", "y2"),
            ("y2", "y1"),
            ("x1", "y1"),
        ];
        for (p, q) in arcs {
            b1.edge(step1[&(p, 'L')], step1[&(q, 'U')]);
            b2.edge(step2[&(q, 'L')], step2[&(p, 'U')]);
        }
        // Closure-trigger gadget: Ly1 ≺1 Ux1, Ly2 ≺1 Ux2 in T1;
        // Lx2 ≺2 Uy1, Lx1 ≺2 Uy2 in T2 (index-shifted to avoid new D-arcs).
        b1.edge(step1[&("y1", 'L')], step1[&("x1", 'U')]);
        b1.edge(step1[&("y2", 'L')], step1[&("x2", 'U')]);
        b2.edge(step2[&("x2", 'L')], step2[&("y1", 'U')]);
        b2.edge(step2[&("x1", 'L')], step2[&("y2", 'U')]);
        let t1 = b1.build().unwrap();
        let t2 = b2.build().unwrap();
        TxnSystem::new(db, vec![t1, t2])
    }

    #[test]
    fn fig5_d_graph_is_as_intended() {
        let sys = fig5_system();
        let d = ConflictDigraph::build(&sys, TxnId(0), TxnId(1));
        let e = |n: &str| sys.db().entity(n).unwrap();
        assert!(d.has_arc(e("x1"), e("x2")));
        assert!(d.has_arc(e("x2"), e("x1")));
        assert!(d.has_arc(e("y1"), e("y2")));
        assert!(d.has_arc(e("y2"), e("y1")));
        assert!(d.has_arc(e("x1"), e("y1")));
        assert_eq!(d.graph.edge_count(), 5, "no unintended arcs");
        assert!(!d.is_strongly_connected());
    }

    #[test]
    fn fig5_every_closure_fails_but_system_is_safe() {
        let sys = fig5_system();
        let d = ConflictDigraph::build(&sys, TxnId(0), TxnId(1));
        let (doms, exhaustive) = enumerate_dominators(&d.graph, 1000);
        assert!(exhaustive);
        assert_eq!(doms.len(), 1, "only dominator is {{x1,x2}}");
        for dom_bits in &doms {
            let dom: Vec<EntityId> = dom_bits.iter().map(|i| d.entities[i]).collect();
            assert!(
                try_unsafety_via_dominator(&sys, TxnId(0), TxnId(1), &dom).is_none(),
                "closure must fail on Fig. 5"
            );
        }
        // The pair path decides it: no mixed orientation is acyclic.
        let v = decide_multisite(&sys, TxnId(0), TxnId(1), &MultisiteOptions::default());
        assert!(matches!(v, SafetyVerdict::Safe(SafeProof::Unsatisfiable)));
    }

    #[test]
    fn multisite_unsafe_with_closure_certificate() {
        // Loose per-site locking across 3 sites: D has no arcs, so every
        // proper, non-empty set of entities is a dominator, and the pair
        // path's first model is a witness whose certificate verifies.
        let db = Database::from_spec(&[("x", 0), ("y", 1), ("z", 2)]);
        let mk = |name: &str| {
            let mut b = TxnBuilder::new(&db, name);
            b.script("Lx x Ux").unwrap();
            b.script("Ly y Uy").unwrap();
            b.script("Lz z Uz").unwrap();
            b.build().unwrap()
        };
        let sys = TxnSystem::new(db.clone(), vec![mk("T1"), mk("T2")]);
        let v = decide_multisite(&sys, TxnId(0), TxnId(1), &MultisiteOptions::default());
        let cert = v.certificate().expect("unsafe");
        cert.verify(&sys).unwrap();
    }
}
