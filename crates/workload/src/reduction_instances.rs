//! Named Theorem-3 instances for examples, tests and benchmarks.

use kplock_core::reduction::{reduce, Reduction};
use kplock_sat::{random_restricted, to_restricted_form, Cnf};

/// The paper's Fig. 8 formula: `(x1 ∨ x2 ∨ x3) ∧ (¬x1 ∨ x2 ∨ ¬x3)`.
pub fn fig8_formula() -> Cnf {
    Cnf::from_clauses(
        3,
        &[
            &[(0, true), (1, true), (2, true)],
            &[(0, false), (1, true), (2, false)],
        ],
    )
}

/// The Fig. 8/9 reduction of [`fig8_formula`].
pub fn fig8_reduction() -> Reduction {
    reduce(&fig8_formula()).expect("fig8 formula is in restricted form")
}

/// An unsatisfiable formula in restricted form (all four sign patterns of
/// `(a ∨ b)`, pushed through the restricted-form converter).
pub fn unsat_restricted() -> Cnf {
    let raw = Cnf::from_clauses(
        2,
        &[
            &[(0, true), (1, true)],
            &[(0, true), (1, false)],
            &[(0, false), (1, true)],
            &[(0, false), (1, false)],
        ],
    );
    let r = to_restricted_form(&raw);
    assert_eq!(r.decided, None, "needs a real reduction instance");
    r.cnf
}

/// A random restricted instance (clauses of width 2–3, occurrence budget
/// respected). Rejects empty formulas.
pub fn random_instance(seed: u64, vars: usize, clauses: usize) -> Cnf {
    let mut s = seed;
    loop {
        let f = random_restricted(s, vars, clauses);
        if f.num_clauses() > 0 {
            return f;
        }
        s = s.wrapping_add(0x9E37);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_core::closure::try_unsafety_via_dominator;
    use kplock_core::reduction::reduce;
    use kplock_model::TxnId;
    use kplock_sat::{solve, SatResult};

    #[test]
    fn unsat_instance_reduces_and_is_unsat() {
        let f = unsat_restricted();
        assert!(f.is_restricted_form());
        assert_eq!(solve(&f), SatResult::Unsat);
        let r = reduce(&f).unwrap();
        assert!(r.verify_intended());
    }

    /// End-to-end Theorem 3 on random instances: satisfiable ⟹ a verified
    /// unsafety certificate exists via the model's dominator.
    #[test]
    fn random_sat_instances_give_certificates() {
        let mut sat_seen = 0;
        for seed in 0..40 {
            let f = random_instance(seed, 6, 4);
            let r = reduce(&f).unwrap();
            assert!(r.verify_intended(), "seed {seed}");
            if let SatResult::Sat(model) = solve(&f) {
                sat_seen += 1;
                let dom = r.dominator_for_assignment(&model);
                let cert = try_unsafety_via_dominator(&r.sys, TxnId(0), TxnId(1), &dom)
                    .unwrap_or_else(|| panic!("seed {seed}: desirable dominator must close"));
                cert.verify(&r.sys).unwrap();
            }
        }
        assert!(sat_seen >= 10, "want a healthy satisfiable sample");
    }
}
