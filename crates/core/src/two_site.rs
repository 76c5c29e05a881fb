//! Theorem 2 / Corollary 1: exact safety for two-site systems in O(n²).
//!
//! For transactions distributed over **at most two sites**, `{T1, T2}` is
//! safe iff `D(T1, T2)` is strongly connected. The decision itself is a
//! single SCC computation over a digraph built from O(k²) precedence
//! queries (k = shared entities, each query O(1) on precomputed closures) —
//! the paper's O(n²) bound. When unsafe, the dominator-closure pipeline
//! produces an explicit non-serializable schedule, and the certificate is
//! verified before being returned.
//!
//! One decision builds `D` once: its arcs are laid out directly as
//! compressed rows, after one lookup of each shared entity's four lock and
//! unlock steps. The same `D` answers the SCC question, yields the
//! dominator and serves the closure's first round; [`crate::analyze_pair`]
//! lends the `D` and the SCC answer it reports. The closure copies a
//! transaction only when it adds a precedence to it, and the certificate
//! is verified against the system as it stands when the system is the
//! pair itself.

use crate::certificate::{SafeProof, SafetyVerdict};
use crate::closure::{unsafety_via_dominator, Pair};
use crate::conflict_graph::{ConflictDigraph, Sections};
use kplock_graph::find_dominator;
use kplock_model::{TxnId, TxnSystem};

/// Errors from the two-site decision procedure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TwoSiteError {
    /// The system uses more than two sites; use
    /// [`crate::multisite::decide_multisite`] instead.
    TooManySites(usize),
    /// A transaction lacks the lock or unlock step of an entity both lock,
    /// so `D(Ta, Tb)` is not defined.
    IllFormed,
}

impl std::fmt::Display for TwoSiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TwoSiteError::TooManySites(m) => {
                write!(f, "Theorem 2 requires at most two sites, got {m}")
            }
            TwoSiteError::IllFormed => {
                write!(f, "a shared entity lacks its lock or unlock step")
            }
        }
    }
}

impl std::error::Error for TwoSiteError {}

/// Decides safety of the pair `{Ta, Tb}` for a (≤2)-site database.
pub fn decide_two_site(sys: &TxnSystem, a: TxnId, b: TxnId) -> Result<SafetyVerdict, TwoSiteError> {
    let m = sys.db().site_count();
    if m > 2 {
        return Err(TwoSiteError::TooManySites(m));
    }
    let (d, sections) =
        ConflictDigraph::build_with_sections(sys, a, b).ok_or(TwoSiteError::IllFormed)?;
    let strongly_connected = d.is_strongly_connected();
    Ok(decide_with(sys, &d, &sections, strongly_connected))
}

/// Theorem 2 over a `D(Ta, Tb)` the caller built, with its strong
/// connectivity already answered, for a (≤2)-site database.
pub(crate) fn decide_with(
    sys: &TxnSystem,
    d: &ConflictDigraph,
    sections: &[Sections],
    strongly_connected: bool,
) -> SafetyVerdict {
    if d.entities.len() < 2 {
        return SafetyVerdict::Safe(SafeProof::TrivialOverlap);
    }
    if strongly_connected {
        return SafetyVerdict::Safe(SafeProof::StronglyConnected);
    }
    let dom_bits = find_dominator(&d.graph).expect("not strongly connected");
    let (dominator, in_x) = d.resolve_dominator(&dom_bits);
    let pair = Pair::new(sys, d, sections);
    let cert = unsafety_via_dominator(&pair, &dominator, &in_x).expect(
        "internal error: Theorem 2 guarantees the closure certificate for two sites \
         (Lemmas 2 and 3)",
    );
    SafetyVerdict::Unsafe(Box::new(cert))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{decide_exhaustive, OracleOptions, OracleOutcome};
    use kplock_model::{Database, TxnBuilder};

    fn centralized_pair(s1: &str, s2: &str) -> TxnSystem {
        let db = Database::centralized(&["x", "y", "z"]);
        let mut b1 = TxnBuilder::new(&db, "T1");
        b1.script(s1).unwrap();
        let t1 = b1.build().unwrap();
        let mut b2 = TxnBuilder::new(&db, "T2");
        b2.script(s2).unwrap();
        let t2 = b2.build().unwrap();
        TxnSystem::new(db, vec![t1, t2])
    }

    #[test]
    fn agrees_with_oracle_on_centralized_pairs() {
        let cases = [
            ("Lx x Ux Ly y Uy", "Ly y Uy Lx x Ux"),
            ("Lx Ly x y Ux Uy", "Lx Ly y x Uy Ux"),
            ("Lx x Ux Ly y Uy", "Lx x Ux Ly y Uy"),
            ("Lx x Lz z Uz Ux Ly y Uy", "Lz z Uz Ly y Uy Lx x Ux"),
        ];
        for (s1, s2) in cases {
            let sys = centralized_pair(s1, s2);
            let verdict = decide_two_site(&sys, TxnId(0), TxnId(1)).unwrap();
            let oracle = decide_exhaustive(&sys, &OracleOptions::default());
            let oracle_safe = matches!(oracle.outcome, OracleOutcome::Safe);
            assert_eq!(verdict.is_safe(), oracle_safe, "disagree on ({s1}, {s2})");
            if let Some(cert) = verdict.certificate() {
                cert.verify(&sys).unwrap();
            }
        }
    }

    #[test]
    fn rejects_three_sites() {
        let db = Database::from_spec(&[("x", 0), ("y", 1), ("z", 2)]);
        let mut b1 = TxnBuilder::new(&db, "T1");
        b1.script("Lx Ux").unwrap();
        let t1 = b1.build().unwrap();
        let mut b2 = TxnBuilder::new(&db, "T2");
        b2.script("Lx Ux").unwrap();
        let t2 = b2.build().unwrap();
        let sys = TxnSystem::new(db, vec![t1, t2]);
        assert_eq!(
            decide_two_site(&sys, TxnId(0), TxnId(1)).unwrap_err(),
            TwoSiteError::TooManySites(3)
        );
    }

    #[test]
    fn distributed_two_site_unsafe_pair() {
        // Loose per-site locking: each site individually two-phase but no
        // cross-site synchronization. D has no arcs at all => unsafe.
        let db = Database::from_spec(&[("x", 0), ("w", 1)]);
        let mk = |name: &str| {
            let mut b = TxnBuilder::new(&db, name);
            b.script("Lx x Ux").unwrap();
            b.script("Lw w Uw").unwrap();
            b.build().unwrap()
        };
        let sys = TxnSystem::new(db.clone(), vec![mk("T1"), mk("T2")]);
        let verdict = decide_two_site(&sys, TxnId(0), TxnId(1)).unwrap();
        let cert = verdict.certificate().expect("unsafe");
        cert.verify(&sys).unwrap();
        // Cross-check with the exact oracle.
        let oracle = decide_exhaustive(&sys, &OracleOptions::default());
        assert!(matches!(oracle.outcome, OracleOutcome::Unsafe(_)));
    }
}
