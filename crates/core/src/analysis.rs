//! High-level entry point: analyze a two-transaction system, and the one
//! place a pair decision is routed by the number of sites.

use crate::certificate::SafetyVerdict;
use crate::conflict_graph::ConflictDigraph;
use crate::multisite;
use crate::two_site;
use kplock_graph::DiGraph;
use kplock_model::{TxnId, TxnSystem};

/// Everything the paper's machinery can say about a pair.
#[derive(Clone, Debug)]
pub struct PairAnalysis {
    /// The conflict digraph `D(T1, T2)`; without vertices when a
    /// transaction lacks the lock or unlock step of a shared entity.
    pub d: ConflictDigraph,
    /// Whether `D` is strongly connected (Theorem 1's condition).
    pub strongly_connected: bool,
    /// The safety verdict: Theorem 2 at two sites or fewer; the multisite
    /// procedure (Theorem 1, then the SAT pair path, whose clauses are
    /// Corollary 2's dominators) at more. Exact for every exclusive,
    /// well-formed pair. `Unknown` when `D` is not defined, and on a pair
    /// with a shared mode, an ill-formed transaction or an unprotected
    /// update that the decision cannot certify (see
    /// [`SafetyVerdict::Unknown`]).
    pub verdict: SafetyVerdict,
}

/// Analyzes a system of exactly two transactions.
pub fn analyze_pair(sys: &TxnSystem) -> PairAnalysis {
    assert_eq!(
        sys.len(),
        2,
        "analyze_pair expects exactly two transactions"
    );
    analyze(sys, TxnId(0), TxnId(1))
}

/// Decides the pair `{Ta, Tb}` of `sys`: Theorem 2 at two sites or fewer,
/// the multisite procedure at more.
pub(crate) fn analyze(sys: &TxnSystem, a: TxnId, b: TxnId) -> PairAnalysis {
    let Some((d, sections)) = ConflictDigraph::build_with_sections(sys, a, b) else {
        let d = ConflictDigraph {
            txn_a: a,
            txn_b: b,
            entities: Vec::new(),
            graph: DiGraph::new(0),
        };
        return PairAnalysis {
            d,
            strongly_connected: false,
            verdict: SafetyVerdict::Unknown,
        };
    };
    let strongly_connected = d.is_strongly_connected();
    let verdict = if sys.db().site_count() <= 2 {
        two_site::decide_with(sys, &d, &sections, strongly_connected)
    } else {
        multisite::decide_with(sys, &d, &sections, strongly_connected)
    };
    PairAnalysis {
        d,
        strongly_connected,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_model::{Database, TxnBuilder};

    #[test]
    fn analyze_routes_by_site_count() {
        let db = Database::from_spec(&[("x", 0), ("y", 1), ("z", 2)]);
        let mk = |n: &str| {
            let mut b = TxnBuilder::new(&db, n);
            b.script("Lx x Ux").unwrap();
            b.script("Ly y Uy").unwrap();
            b.script("Lz z Uz").unwrap();
            b.build().unwrap()
        };
        let (t1, t2) = (mk("T1"), mk("T2"));
        let sys = TxnSystem::new(db.clone(), vec![t1, t2]);
        let analysis = analyze_pair(&sys);
        assert!(!analysis.strongly_connected);
        assert!(analysis.verdict.is_unsafe());
    }
}
