//! Conversion to the paper's restricted satisfiability form.
//!
//! Theorem 3 reduces from CNF formulas in which *no clause has more than
//! three literals and each variable appears at most twice unnegated and at
//! most once negated* (a classic NP-complete restriction). This module
//! converts an arbitrary CNF into that form, preserving satisfiability:
//!
//! 1. unit clauses are eliminated by propagation (the reduction gadgets
//!    need clauses of width ≥ 2);
//! 2. wide clauses are split with fresh chaining variables
//!    (`(a b c d)` → `(a b s) (¬s c d)`);
//! 3. a variable with too many occurrences is replaced by a cycle of fresh
//!    literal-representatives `ℓ_1 → ℓ_2 → ... → ℓ_r → ℓ_1` (clauses
//!    `(¬ℓ_i ∨ ℓ_{i+1})`), one per occurrence slot. Each occurrence uses its
//!    representative **positively**; a slot standing for `¬x` gets a
//!    representative whose cycle polarity is inverted. Every fresh variable
//!    then occurs once positively and once negatively in the cycle plus once
//!    positively in its slot: within budget.

use crate::cnf::{Cnf, Lit, Var};

/// Result of the conversion, with the mapping back to original variables.
#[derive(Clone, Debug)]
pub struct Restricted {
    /// The restricted-form formula.
    pub cnf: Cnf,
    /// For each variable of the new formula: `Some((orig, polarity))` if
    /// assigning the new variable `v` forces `orig = v == polarity`;
    /// `None` for pure auxiliary (clause-splitting) variables.
    pub back_map: Vec<Option<(Var, bool)>>,
    /// Whether unit propagation already decided the formula.
    pub decided: Option<bool>,
}

/// Converts `cnf` into restricted form.
pub fn to_restricted_form(cnf: &Cnf) -> Restricted {
    // --- 1. Unit propagation to remove unit clauses. -----------------
    let mut assignment: Vec<Option<bool>> = vec![None; cnf.num_vars];
    let mut clauses: Vec<Vec<Lit>> = cnf.clauses().map(<[Lit]>::to_vec).collect();
    loop {
        let mut changed = false;
        let mut conflict = false;
        clauses.retain(|c| !c.iter().any(|l| l.eval(&assignment) == Some(true)));
        for c in &mut clauses {
            c.retain(|l| l.eval(&assignment).is_none());
        }
        for c in &clauses {
            if c.is_empty() {
                conflict = true;
            } else if c.len() == 1 {
                let l = c[0];
                match assignment[l.var().idx()] {
                    None => {
                        assignment[l.var().idx()] = Some(l.is_positive());
                        changed = true;
                    }
                    Some(v) if v != l.is_positive() => conflict = true,
                    _ => {}
                }
            }
        }
        if conflict {
            return Restricted {
                cnf: Cnf::new(0),
                back_map: Vec::new(),
                decided: Some(false),
            };
        }
        if !changed {
            break;
        }
    }
    if clauses.is_empty() {
        return Restricted {
            cnf: Cnf::new(0),
            back_map: Vec::new(),
            decided: Some(true),
        };
    }

    // --- 2. Split wide clauses. --------------------------------------
    let mut num_vars = cnf.num_vars;
    let mut back_map: Vec<Option<(Var, bool)>> = (0..cnf.num_vars)
        .map(|v| Some((Var(v as u32), true)))
        .collect();
    let mut split: Vec<Vec<Lit>> = Vec::new();
    for c in clauses {
        let mut rest = c;
        while rest.len() > 3 {
            let fresh = Var(num_vars as u32);
            num_vars += 1;
            back_map.push(None);
            let head: Vec<Lit> = vec![rest[0], rest[1], Lit::pos(fresh)];
            split.push(head);
            let mut tail = vec![Lit::neg(fresh)];
            tail.extend_from_slice(&rest[2..]);
            rest = tail;
        }
        split.push(rest);
    }

    // --- 3. Occurrence-limit via literal-representative cycles. ------
    // Count occurrences per variable; variables within budget are left
    // alone.
    let mut occ: Vec<Vec<(usize, usize)>> = vec![Vec::new(); num_vars]; // (clause, pos-in-clause)
    for (ci, c) in split.iter().enumerate() {
        for (li, l) in c.iter().enumerate() {
            occ[l.var().idx()].push((ci, li));
        }
    }
    let mut out = split.clone();
    let mut extra_clauses: Vec<Vec<Lit>> = Vec::new();
    for (v, slots) in occ.clone().iter().enumerate() {
        let (p, n) = slots.iter().fold((0, 0), |(p, n), &(ci, li)| {
            if split[ci][li].is_positive() {
                (p + 1, n)
            } else {
                (p, n + 1)
            }
        });
        if p <= 2 && n <= 1 {
            continue;
        }
        // Replace every occurrence with its own representative. The cycle
        // ¬ℓ_i ∨ ℓ_{i+1} makes all representatives' *meanings* equal, where
        // the meaning of representative r_i is `x` if the slot was positive
        // and `¬x` if negative; each slot then uses r_i positively.
        let r = slots.len();
        let reps: Vec<Var> = (0..r).map(|i| Var((num_vars + i) as u32)).collect();
        let polarities: Vec<bool> = slots
            .iter()
            .map(|&(ci, li)| split[ci][li].is_positive())
            .collect();
        for (i, &(ci, li)) in slots.iter().enumerate() {
            out[ci][li] = Lit::pos(reps[i]);
            back_map.push(Some((Var(v as u32), polarities[i])));
        }
        num_vars += r;
        // Implication cycle over the *meanings*: meaning(i) → meaning(i+1).
        // meaning(i) = reps[i] if polarity true else ... — by construction
        // meaning(i) == reps[i] == (x == polarities[i]). The equivalence of
        // all meanings-as-x is enforced by chaining the x-views:
        // (reps[i] == (x==pol_i)) so the x-view of reps[i] is reps[i] if
        // pol_i, else ¬reps[i]. Chain x-views in a cycle.
        let x_view = |i: usize| -> (Lit, Lit) {
            // Returns (lit meaning "x is true", lit meaning "x is false").
            if polarities[i] {
                (Lit::pos(reps[i]), Lit::neg(reps[i]))
            } else {
                (Lit::neg(reps[i]), Lit::pos(reps[i]))
            }
        };
        for i in 0..r {
            let j = (i + 1) % r;
            // x-view(i) implies x-view(j): ¬x-view(i) ∨ x-view(j).
            let (xi_true, _) = x_view(i);
            let (xj_true, _) = x_view(j);
            extra_clauses.push(vec![xi_true.negated(), xj_true]);
        }
    }
    out.extend(extra_clauses);

    let mut result = Cnf::new(num_vars);
    for c in out {
        result.add_clause(c);
    }
    Restricted {
        cnf: result,
        back_map,
        decided: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpll::{solve, solve_brute_force};

    fn check_equisat(f: &Cnf) {
        let r = to_restricted_form(f);
        let orig_sat = solve_brute_force(f).is_sat();
        match r.decided {
            Some(d) => assert_eq!(d, orig_sat, "propagation decision wrong for {f:?}"),
            None => {
                assert!(r.cnf.is_restricted_form(), "not restricted: {:?}", r.cnf);
                assert_eq!(
                    solve(&r.cnf).is_sat(),
                    orig_sat,
                    "equisatisfiability broken"
                );
            }
        }
    }

    #[test]
    fn wide_clauses_are_split() {
        let f = Cnf::from_clauses(
            5,
            &[
                &[(0, true), (1, true), (2, true), (3, true), (4, true)],
                &[(0, false), (1, false)],
            ],
        );
        check_equisat(&f);
    }

    #[test]
    fn heavy_occurrence_variables_are_cycled() {
        // x0 appears 4 times positive, twice negative.
        let f = Cnf::from_clauses(
            3,
            &[
                &[(0, true), (1, true)],
                &[(0, true), (2, true)],
                &[(0, true), (1, false)],
                &[(0, true), (2, false)],
                &[(0, false), (1, true)],
                &[(0, false), (2, true)],
            ],
        );
        check_equisat(&f);
    }

    #[test]
    fn unit_clauses_are_propagated_away() {
        let f = Cnf::from_clauses(
            3,
            &[
                &[(0, true)],
                &[(0, false), (1, true), (2, true)],
                &[(1, false), (2, false)],
            ],
        );
        let r = to_restricted_form(&f);
        if r.decided.is_none() {
            assert!(r.cnf.is_restricted_form());
        }
        check_equisat(&f);
    }

    #[test]
    fn contradictory_units_decided_unsat() {
        let f = Cnf::from_clauses(1, &[&[(0, true)], &[(0, false)]]);
        let r = to_restricted_form(&f);
        assert_eq!(r.decided, Some(false));
    }

    #[test]
    fn random_formulas_stay_equisatisfiable() {
        let mut seed = 42u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..50 {
            let nv = 3 + (next() % 4) as usize;
            let nc = 2 + (next() % 10) as usize;
            let mut f = Cnf::new(nv);
            for _ in 0..nc {
                let len = 1 + (next() % 4) as usize;
                let clause: Vec<_> = (0..len)
                    .map(|_| Lit::new(Var((next() % nv as u64) as u32), next() % 2 == 0))
                    .collect();
                f.add_clause(clause);
            }
            check_equisat(&f);
        }
    }
}
