//! High-level entry point: analyze a two-transaction system.

use crate::certificate::SafetyVerdict;
use crate::conflict_graph::ConflictDigraph;
use crate::multisite::{self, MultisiteOptions};
use crate::two_site;
use kplock_model::{TxnId, TxnSystem};

/// Everything the paper's machinery can say about a pair.
#[derive(Clone, Debug)]
pub struct PairAnalysis {
    /// The conflict digraph `D(T1, T2)`.
    pub d: ConflictDigraph,
    /// Whether `D` is strongly connected (Theorem 1's condition).
    pub strongly_connected: bool,
    /// The safety verdict. Exact for ≤ 2 sites (Theorem 2); for more sites
    /// the multisite procedure is used (Theorem 1 + Corollary 2 + the SAT
    /// pair path), exact for every exclusive pair.
    pub verdict: SafetyVerdict,
    /// Number of sites in the database.
    pub sites: usize,
}

/// Analyzes a system of exactly two transactions with default options.
pub fn analyze_pair(sys: &TxnSystem) -> PairAnalysis {
    assert_eq!(
        sys.len(),
        2,
        "analyze_pair expects exactly two transactions"
    );
    let (a, b) = (TxnId(0), TxnId(1));
    let (d, sections) = ConflictDigraph::build_with_sections(sys, a, b);
    let strongly_connected = d.is_strongly_connected();
    let sites = sys.db().site_count();
    let verdict = if sites <= 2 {
        two_site::decide_with(sys, &d, &sections, strongly_connected)
    } else {
        let opts = MultisiteOptions::default();
        multisite::decide_with(sys, &d, &sections, strongly_connected, &opts)
    };
    PairAnalysis {
        d,
        strongly_connected,
        verdict,
        sites,
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
        assert_eq!(analysis.sites, 3);
        assert!(!analysis.strongly_connected);
        assert!(analysis.verdict.is_unsafe());
    }
}
