//! Model enumeration: all satisfying assignments of a CNF.
//!
//! Used by `tests/figures_deep.rs` to relate the Fig. 8 formula's
//! satisfying assignments to desirable dominators of its reduction, and by
//! tests as a second (exhaustive) satisfiability check.

use crate::cnf::{Cnf, Lit, Var};
use crate::dpll::{solve, SatResult};

/// Enumerates satisfying assignments, up to `cap` of them.
/// Returns `(models, exhaustive)`.
///
/// Implementation: repeated DPLL with blocking clauses — after each model,
/// a clause excluding it is added. Simple and adequate for formulas the
/// size of the paper's Fig. 8.
pub fn all_models(cnf: &Cnf, cap: usize) -> (Vec<Vec<bool>>, bool) {
    let mut work = cnf.clone();
    let mut models = Vec::new();
    loop {
        if models.len() >= cap {
            return (models, false);
        }
        match solve(&work) {
            SatResult::Sat(model) => {
                // Block this exact model.
                let blocking = (0..work.num_vars).map(|v| Lit::new(Var(v as u32), !model[v]));
                work.add_clause(blocking);
                models.push(model);
            }
            SatResult::Unsat => return (models, true),
        }
    }
}

/// Counts models exactly by brute force (≤ 24 variables).
pub fn count_models_brute_force(cnf: &Cnf) -> u64 {
    assert!(cnf.num_vars <= 24, "brute force limited to 24 variables");
    (0u64..(1u64 << cnf.num_vars))
        .filter(|bits| {
            let assignment: Vec<bool> = (0..cnf.num_vars).map(|v| bits >> v & 1 == 1).collect();
            cnf.eval(&assignment)
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerates_all_models() {
        // (x1 ∨ x2): 3 models out of 4 assignments.
        let f = Cnf::from_clauses(2, &[&[(0, true), (1, true)]]);
        let (models, exhaustive) = all_models(&f, 100);
        assert!(exhaustive);
        assert_eq!(models.len(), 3);
        for m in &models {
            assert!(f.eval(m));
        }
        assert_eq!(count_models_brute_force(&f), 3);
    }

    #[test]
    fn unsat_has_no_models() {
        let f = Cnf::from_clauses(1, &[&[(0, true)], &[(0, false)]]);
        let (models, exhaustive) = all_models(&f, 100);
        assert!(models.is_empty() && exhaustive);
    }

    #[test]
    fn cap_is_respected() {
        let f = Cnf::new(4); // empty formula: 16 models
        let (models, exhaustive) = all_models(&f, 5);
        assert_eq!(models.len(), 5);
        assert!(!exhaustive);
    }

    #[test]
    fn agrees_with_brute_force_on_random_formulas() {
        for seed in 0..15 {
            let f = crate::gen::random_kcnf(seed, 5, 6, 3);
            let (models, exhaustive) = all_models(&f, 100);
            assert!(exhaustive);
            assert_eq!(models.len() as u64, count_models_brute_force(&f), "{f:?}");
            // Models are distinct.
            let mut sorted = models.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), models.len());
        }
    }
}
