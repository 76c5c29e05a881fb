//! The centralized image of a distributed locking policy (Section 6).
//!
//! "In distributed databases, a locking policy can be considered as a
//! centralized locking policy, by taking the union of all the transactions,
//! considered as sets of totally ordered transactions. It follows that a
//! policy is correct iff its centralized image is."
//!
//! For finite transaction classes this gives an alternative (exhaustive)
//! correctness check: replace every distributed transaction by all of its
//! linear extensions and decide safety of the resulting centralized class.
//! Lemma 1 specializes this to pairs.

use crate::certificate::{SafeProof, SafetyVerdict};
use crate::oracle::by_extensions;
use kplock_model::{TxnId, TxnSystem};

/// Decides correctness of the policy `{T1, ..., Tk}` through its
/// centralized image: every pair of linear extensions of every pair of
/// (not necessarily distinct) transactions must be safe.
///
/// Returns `None` if more than `pair_cap` extension pairs would need
/// checking. Note that a transaction conflicts with *other executions of
/// itself* in a policy (the class is closed under re-execution), so pairs
/// `(i, i)` are included — this is what distinguishes policy correctness
/// from plain system safety. A pair on which `D` is not defined answers
/// `Unknown`.
///
/// An unsafe answer's certificate names the pair it is about, with the
/// steps of the original transactions: `(Ti, Tj)` of `sys` for `i ≠ j`,
/// and for a self-pair `TxnId(0)` and `TxnId(1)` of
/// [`pair_subsystem(sys, i, i)`](crate::certificate::pair_subsystem).
pub fn centralized_image_safe(sys: &TxnSystem, mut pair_cap: usize) -> Option<SafetyVerdict> {
    let k = sys.len();
    for i in 0..k {
        for j in i..k {
            let (a, b) = (TxnId::from_idx(i), TxnId::from_idx(j));
            if sys.shared_locked_entities(a, b).is_empty() {
                continue;
            }
            let (x, y) = if i == j { (TxnId(0), TxnId(1)) } else { (a, b) };
            let (ta, tb) = (sys.txn(a), sys.txn(b));
            let v = by_extensions(sys.db(), (x, ta), (y, tb), &mut pair_cap)?;
            if !v.is_safe() {
                return Some(v);
            }
        }
    }
    Some(SafetyVerdict::Safe(SafeProof::Exhaustive))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::pair_subsystem;
    use kplock_model::{Database, TxnBuilder};

    fn two_txn(scripts: [&str; 2], spec: &[(&str, usize)]) -> TxnSystem {
        let db = Database::from_spec(spec);
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
    fn safe_policy_image() {
        let sys = two_txn(
            ["Lx Ly x y Ux Uy", "Lx Ly x y Uy Ux"],
            &[("x", 0), ("y", 0)],
        );
        let v = centralized_image_safe(&sys, 100_000).unwrap();
        assert!(v.is_safe());
    }

    #[test]
    fn self_conflict_matters_for_policies() {
        // A single non-two-phase transaction: as a *system* it is trivially
        // safe (it runs alone), but as a *policy* (the class is closed
        // under re-execution) it is unsafe against a copy of itself.
        let db = Database::from_spec(&[("x", 0), ("y", 0)]);
        let mut b = TxnBuilder::new(&db, "T");
        b.script("Lx x Ux Ly y Uy").unwrap();
        let t = b.build().unwrap();
        let sys = TxnSystem::new(db.clone(), vec![t]);
        let v = centralized_image_safe(&sys, 100_000).unwrap();
        let cert = v
            .certificate()
            .expect("non-two-phase transactions self-conflict in the image");
        cert.verify(&pair_subsystem(&sys, TxnId(0), TxnId(0)))
            .unwrap();

        // A two-phase single-transaction policy is correct.
        let mut b = TxnBuilder::new(&db, "P");
        b.script("Lx Ly x y Ux Uy").unwrap();
        let p = b.build().unwrap();
        let sys = TxnSystem::new(db, vec![p]);
        let v = centralized_image_safe(&sys, 100_000).unwrap();
        assert!(v.is_safe());
    }

    #[test]
    fn agrees_with_lemma1_for_pairs() {
        let sys = two_txn(
            ["Lx x Ux Ly y Uy", "Ly y Uy Lx x Ux"],
            &[("x", 0), ("y", 0)],
        );
        let image = centralized_image_safe(&sys, 100_000).unwrap();
        let direct = crate::two_site::decide_two_site(&sys, TxnId(0), TxnId(1)).unwrap();
        // The image includes self-pairs, so image-unsafe does not imply
        // system-unsafe in general; here both are unsafe.
        assert!(image.is_unsafe());
        assert!(direct.is_unsafe());
    }

    #[test]
    fn the_certificate_names_its_pair_in_the_original_steps() {
        let db = Database::centralized(&["x", "y", "z"]);
        let txns = ["Lz z Uz", "Lx Ly x y Ux Uy", "Lx x Ux Ly y Uy"]
            .iter()
            .map(|s| {
                let mut b = TxnBuilder::new(&db, "T");
                b.script(s).unwrap();
                b.build().unwrap()
            })
            .collect();
        let sys = TxnSystem::new(db, txns);
        let v = centralized_image_safe(&sys, 100_000).unwrap();
        let cert = v.certificate().expect("T1 and T2 are an unsafe pair");
        assert_eq!((cert.txn_a, cert.txn_b), (TxnId(1), TxnId(2)));
        cert.verify(&sys).unwrap();
    }

    #[test]
    fn cap_returns_none() {
        let sys = two_txn(
            ["Lx x Ux Ly y Uy", "Ly y Uy Lx x Ux"],
            &[("x", 0), ("y", 0)],
        );
        assert!(centralized_image_safe(&sys, 0).is_none());
    }
}
