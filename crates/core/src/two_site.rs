//! Theorem 2 / Corollary 1: exact safety for two-site systems in O(n²).
//!
//! For transactions distributed over **at most two sites**, `{T1, T2}` is
//! safe iff `D(T1, T2)` is strongly connected. The decision itself is a
//! single SCC computation over a digraph built from O(k²) precedence
//! queries (k = shared entities, each query O(1) on precomputed closures) —
//! the paper's O(n²) bound. When unsafe, the witness runs `Ta`'s lock
//! section first on a dominator `X` of `D` and `Tb`'s first elsewhere: the
//! merge [`crate::sat_check`] builds its witnesses with, over the pair's
//! section graph oriented by `X`, which Theorem 2 makes acyclic. No
//! dominator closure ([`crate::closure`]) runs.
//!
//! One decision builds `D` once, its arcs laid out directly as compressed
//! rows. The same `D` answers the SCC question and yields the dominator,
//! and its vertices' sections are the section graph's nodes;
//! [`crate::analyze_pair`] lends the `D` and the SCC answer it reports.
//! `D` and the merge read no lock mode, and the certificate's check does:
//! a pair whose witness does not verify, as one with shared modes may, is
//! [`SafetyVerdict::Unknown`].

use crate::certificate::{certificate_from_witness, SafeProof, SafetyVerdict, UnsafetyCertificate};
use crate::conflict_graph::{ConflictDigraph, Sections};
use crate::sat_check::{admit_pair, merge_schedule, pair_nodes};
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

/// Decides safety of the pair `{Ta, Tb}` for a (≤2)-site database:
/// `Safe` or a verified `Unsafe` for every exclusive, well-formed pair, and
/// [`SafetyVerdict::Unknown`] where Theorem 2's witness does not verify.
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
    let (_, in_x) = d.resolve_dominator(&dom_bits);
    match dominator_witness(sys, d, sections, &in_x) {
        Some(cert) => SafetyVerdict::Unsafe(Box::new(cert)),
        None => {
            assert!(
                admit_pair(sys, d.txn_a, d.txn_b).is_err(),
                "internal error: Theorem 2 guarantees the witness of an exclusive, \
                 well-formed pair at two sites"
            );
            SafetyVerdict::Unknown
        }
    }
}

/// The witness that runs `Ta`'s section first on the vertices `in_x`
/// marks and `Tb`'s first on the rest: the merge of the pair's DAGs and
/// the section arcs of that orientation, as a verified certificate. `None`
/// if the merge meets a cycle or the certificate does not verify.
fn dominator_witness(
    sys: &TxnSystem,
    d: &ConflictDigraph,
    sections: &[Sections],
    in_x: &[bool],
) -> Option<UnsafetyCertificate> {
    let nodes = pair_nodes(&d.entities, sections);
    let txns = [sys.txn(d.txn_a), sys.txn(d.txn_b)];
    let witness = merge_schedule(&txns, &nodes, |p| in_x[p], |_| true).ok()?;
    certificate_from_witness(sys, d, &witness, in_x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{decide_exhaustive, OracleOptions, OracleOutcome};
    use crate::policy::{insert_locks, LockStrategy};
    use kplock_graph::dominators;
    use kplock_model::{Database, TxnBuilder};
    use kplock_workload::{make_database, random_unlocked_txn, WorkloadParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// Theorem 2's premise, dominator by dominator: each of the first 64
    /// dominators of `D` orients a section graph that the merge completes,
    /// and the certificate verifies. On the two-site pairs of
    /// `tests/pair_safety.rs`' `PIN_TWO_SITE` (8 to 64 steps) and on
    /// one-site pairs at 8 and 16 steps, drawn as
    /// `kplock_workload::random_pair` draws them: 486 dominators.
    #[test]
    fn every_dominator_orients_a_section_graph_the_merge_completes() {
        let strategies = [
            LockStrategy::Minimal,
            LockStrategy::TwoPhaseLoose,
            LockStrategy::TwoPhaseSync,
        ];
        let shapes = [(2, 8), (2, 16), (2, 32), (2, 64), (1, 8), (1, 16)];
        let mut tried = [0; 2];
        for (sites, steps) in shapes {
            for seed in 0..64u64 {
                let p = WorkloadParams {
                    seed,
                    sites,
                    entities_per_site: (steps / 4).max(2),
                    steps_per_txn: steps,
                    ..Default::default()
                };
                let db = make_database(&p);
                let mut rng = StdRng::seed_from_u64(seed);
                let txns = ["T1", "T2"].map(|name| {
                    let unlocked = random_unlocked_txn(&db, &p, name, &mut rng).expect("a dag");
                    insert_locks(&db, &unlocked, strategies[seed as usize % 3]).expect("lockable")
                });
                let sys = TxnSystem::new(db, txns.to_vec());
                let (d, sections) = ConflictDigraph::build_with_sections(&sys, TxnId(0), TxnId(1))
                    .expect("locked and unlocked");
                for bits in dominators(&d.graph).take(64) {
                    let (_, in_x) = d.resolve_dominator(&bits);
                    assert!(
                        dominator_witness(&sys, &d, &sections, &in_x).is_some(),
                        "seed {seed}, {sites} sites, {steps} steps, dominator {bits:?}"
                    );
                    tried[sites - 1] += 1;
                }
            }
        }
        // Most one-site pairs are strongly connected or share one entity.
        assert_eq!(tried, [6, 480], "dominators tried at one and two sites");
    }
}
