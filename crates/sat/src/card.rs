//! Cardinality constraints as CNF (Sinz-style sequential counter).
//!
//! `kplock_core::sat_check::synthesize_optimal` asks "is there a
//! certifiable transaction set of size ≥ k?" — a cardinality constraint
//! over the per-transaction selection variables. The sequential-counter
//! encoding keeps that polynomial: `at_most_k` over `n` literals adds
//! `(n-1)·k` auxiliary register variables and `O(n·k)` clauses, and unit
//! propagation alone enforces the bound (the encoding maintains arc
//! consistency), which matters for a solver without clause learning.

use crate::cnf::{Cnf, Lit, Var};

/// Appends clauses to `cnf` forcing at most `k` of `lits` to be true.
///
/// Fresh auxiliary variables are appended after `cnf.num_vars`; original
/// variables are never touched, so any model of the extended formula
/// restricted to the original variables satisfies the bound, and every
/// assignment of the original variables meeting the bound extends to a
/// model of the added clauses.
pub fn at_most_k(cnf: &mut Cnf, lits: &[Lit], k: usize) {
    let n = lits.len();
    if k >= n {
        return; // vacuous
    }
    if k == 0 {
        for &l in lits {
            cnf.add_clause([l.negated()]);
        }
        return;
    }
    // s(i, j) ⇔ "at least j+1 of lits[0..=i] are true" (j < k), tracked
    // for i in 0..n-1 — the last literal needs no register row, only the
    // overflow clause below.
    let base = cnf.num_vars;
    cnf.num_vars += (n - 1) * k;
    let s = |i: usize, j: usize| Var((base + i * k + j) as u32);
    for (i, &lit) in lits.iter().enumerate().take(n - 1) {
        // lits[i] → s(i, 0)
        cnf.add_clause([lit.negated(), Lit::pos(s(i, 0))]);
        if i > 0 {
            for j in 0..k {
                // s(i-1, j) → s(i, j): counts are monotone in the prefix.
                cnf.add_clause([Lit::neg(s(i - 1, j)), Lit::pos(s(i, j))]);
            }
            for j in 1..k {
                // lits[i] ∧ s(i-1, j-1) → s(i, j): a true literal bumps
                // the count.
                cnf.add_clause([lit.negated(), Lit::neg(s(i - 1, j - 1)), Lit::pos(s(i, j))]);
            }
        }
    }
    for (i, &lit) in lits.iter().enumerate().skip(1) {
        // Overflow: lits[i] with k already counted before it exceeds k.
        cnf.add_clause([lit.negated(), Lit::neg(s(i - 1, k - 1))]);
    }
}

/// Appends clauses to `cnf` forcing at least `k` of `lits` to be true
/// (dually: at most `n - k` of their negations).
pub fn at_least_k(cnf: &mut Cnf, lits: &[Lit], k: usize) {
    if k == 0 {
        return; // vacuous
    }
    let n = lits.len();
    if k > n {
        cnf.add_clause([]); // unsatisfiable on its face
        return;
    }
    let negated: Vec<Lit> = lits.iter().map(|l| l.negated()).collect();
    at_most_k(cnf, &negated, n - k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpll::solve;

    /// Pins `m` of the `n` selection variables true (the rest false) and
    /// returns whether the constrained formula is satisfiable — the aux
    /// variables are existentially quantified by the solver.
    fn feasible(n: usize, m: usize, build: impl Fn(&mut Cnf, &[Lit])) -> bool {
        let mut cnf = Cnf::new(n);
        let lits: Vec<Lit> = (0..n).map(|v| Lit::pos(Var(v as u32))).collect();
        build(&mut cnf, &lits);
        for (i, &l) in lits.iter().enumerate() {
            cnf.add_clause([if i < m { l } else { l.negated() }]);
        }
        solve(&cnf).is_sat()
    }

    #[test]
    fn at_most_k_is_exact_for_every_count() {
        for n in 1..=6 {
            for k in 0..=n {
                for m in 0..=n {
                    assert_eq!(
                        feasible(n, m, |cnf, lits| at_most_k(cnf, lits, k)),
                        m <= k,
                        "n={n} k={k} m={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn at_least_k_is_exact_for_every_count() {
        for n in 1..=6 {
            for k in 0..=n + 1 {
                for m in 0..=n {
                    assert_eq!(
                        feasible(n, m, |cnf, lits| at_least_k(cnf, lits, k)),
                        m >= k,
                        "n={n} k={k} m={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn bounds_compose_into_an_exact_window() {
        // 2 ≤ count ≤ 3 over 5 variables, solver free to pick: must find a
        // model, and every model must respect the window.
        let mut cnf = Cnf::new(5);
        let lits: Vec<Lit> = (0..5).map(|v| Lit::pos(Var(v as u32))).collect();
        at_least_k(&mut cnf, &lits, 2);
        at_most_k(&mut cnf, &lits, 3);
        match solve(&cnf) {
            crate::dpll::SatResult::Sat(model) => {
                let count = (0..5).filter(|&v| model[v]).count();
                assert!((2..=3).contains(&count), "model picked {count} of 5");
            }
            crate::dpll::SatResult::Unsat => panic!("window 2..=3 of 5 is satisfiable"),
        }
    }

    #[test]
    fn negated_literals_are_counted_as_given() {
        // at_most_1 over {¬a, ¬b}: at least one of a, b must be true.
        let mut cnf = Cnf::new(2);
        let lits = [Lit::neg(Var(0)), Lit::neg(Var(1))];
        at_most_k(&mut cnf, &lits, 1);
        cnf.add_clause([Lit::neg(Var(0))]);
        cnf.add_clause([Lit::neg(Var(1))]);
        assert_eq!(solve(&cnf), crate::dpll::SatResult::Unsat);
    }
}
