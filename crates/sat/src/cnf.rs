//! CNF formulas: variables, literals, clauses.
//!
//! A formula keeps every clause's literals back to back in one pool, with
//! one offset per clause boundary (compressed rows), and a literal is one
//! `u32`. Building a formula therefore allocates nothing per clause, and
//! the solver's clause store is the same layout.

use std::fmt;

/// A propositional variable, numbered from 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// Variables are numbered below this: a literal packs its variable
    /// and its polarity into one `u32`.
    pub const LIMIT: usize = 1 << 31;

    /// Raw index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0 + 1)
    }
}

/// A literal: a variable or its negation, packed as `2·var + 1` for `x`
/// and `2·var` for `¬x`. Literals order by variable, `¬x` before `x`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The literal of `v` with the given polarity; panics if `v` is not
    /// below [`Var::LIMIT`].
    pub fn new(v: Var, positive: bool) -> Lit {
        assert!(v.idx() < Var::LIMIT, "variable beyond Var::LIMIT");
        Lit(v.0 << 1 | positive as u32)
    }

    /// Positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit::new(v, true)
    }

    /// Negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit::new(v, false)
    }

    /// The variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True for the positive literal `x`, false for `¬x`.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complementary literal.
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index over all literals (`2·var + polarity`), for tables
    /// kept per literal.
    pub(crate) fn code(self) -> usize {
        self.0 as usize
    }

    /// Evaluates under an assignment (`None` entries = unassigned).
    pub fn eval(self, assignment: &[Option<bool>]) -> Option<bool> {
        assignment[self.var().idx()].map(|v| v == self.is_positive())
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{:?}", self.var())
        } else {
            write!(f, "¬{:?}", self.var())
        }
    }
}

/// A CNF formula.
#[derive(Clone, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables (vars are `0..num_vars`).
    pub num_vars: usize,
    /// Every clause's literals, back to back.
    lits: Vec<Lit>,
    /// Clause `i` is `lits[bounds[i]..bounds[i + 1]]`; `bounds[0] == 0`.
    bounds: Vec<u32>,
}

/// Pool offset of `at`, checked.
fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("a formula holds fewer than 2^32 literals")
}

impl Default for Cnf {
    fn default() -> Self {
        Cnf::new(0)
    }
}

impl Cnf {
    /// An empty (trivially satisfiable) formula over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        Cnf {
            num_vars,
            lits: Vec::new(),
            bounds: vec![0],
        }
    }

    /// An empty formula with room for `clauses` clauses of `lits`
    /// literals in all.
    pub fn with_capacity(num_vars: usize, clauses: usize, lits: usize) -> Self {
        let mut bounds = Vec::with_capacity(clauses + 1);
        bounds.push(0);
        Cnf {
            num_vars,
            lits: Vec::with_capacity(lits),
            bounds,
        }
    }

    /// A copy of the formula with room for `clauses` more clauses of `lits`
    /// more literals in all: one allocation for the pool, one for the
    /// bounds.
    pub(crate) fn copy_with_room(&self, clauses: usize, lits: usize) -> Self {
        let mut copy = Cnf {
            num_vars: self.num_vars,
            lits: Vec::with_capacity(self.lits.len() + lits),
            bounds: Vec::with_capacity(self.bounds.len() + clauses),
        };
        copy.lits.extend_from_slice(&self.lits);
        copy.bounds.extend_from_slice(&self.bounds);
        copy
    }

    /// The literal pool and the clause bounds, for rewriting clauses in
    /// place; whoever moves a bound keeps them ascending from `bounds[0]
    /// == 0` and within the pool.
    pub(crate) fn pool_mut(&mut self) -> (&mut [Lit], &mut [u32]) {
        (&mut self.lits, &mut self.bounds)
    }

    /// Adds a clause; panics on out-of-range variables, leaving the
    /// formula as it was.
    pub fn add_clause(&mut self, clause: impl IntoIterator<Item = Lit>) {
        let start = self.lits.len();
        self.lits.extend(clause);
        if self.lits[start..]
            .iter()
            .any(|l| l.var().idx() >= self.num_vars)
        {
            self.lits.truncate(start);
            panic!("variable out of range");
        }
        self.bounds.push(offset(self.lits.len()));
    }

    /// Builds from `(var_index, positive)` pairs, 0-based.
    pub fn from_clauses(num_vars: usize, clauses: &[&[(usize, bool)]]) -> Self {
        let mut f = Cnf::new(num_vars);
        for c in clauses {
            f.add_clause(c.iter().map(|&(v, p)| Lit::new(Var(v as u32), p)));
        }
        f
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of literal occurrences over all clauses.
    pub(crate) fn num_lits(&self) -> usize {
        self.lits.len()
    }

    /// Clause `i`.
    pub fn clause(&self, i: usize) -> &[Lit] {
        &self.lits[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }

    /// Clause `i`, for reordering its literals in place.
    pub(crate) fn clause_mut(&mut self, i: usize) -> &mut [Lit] {
        &mut self.lits[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }

    /// The clauses, in the order they were added.
    pub fn clauses(&self) -> impl ExactSizeIterator<Item = &[Lit]> + '_ {
        self.bounds
            .windows(2)
            .map(|w| &self.lits[w[0] as usize..w[1] as usize])
    }

    /// Drops every clause after the first `num_clauses` and every variable
    /// from `num_vars` on: the formula as it was before they were added,
    /// without a copy. Panics if `num_clauses` exceeds the clause count.
    pub fn truncate(&mut self, num_vars: usize, num_clauses: usize) {
        self.bounds.truncate(num_clauses + 1);
        assert_eq!(self.bounds.len(), num_clauses + 1, "no such clause count");
        self.lits.truncate(self.bounds[num_clauses] as usize);
        self.num_vars = num_vars;
        debug_assert!(self.lits.iter().all(|l| l.var().idx() < num_vars));
    }

    /// Evaluates the formula under a **complete** assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.clauses().all(|c| {
            c.iter()
                .any(|l| assignment[l.var().idx()] == l.is_positive())
        })
    }

    /// Number of positive/negative occurrences of each variable.
    pub fn occurrence_counts(&self) -> Vec<(usize, usize)> {
        let mut counts = vec![(0usize, 0usize); self.num_vars];
        for l in &self.lits {
            if l.is_positive() {
                counts[l.var().idx()].0 += 1;
            } else {
                counts[l.var().idx()].1 += 1;
            }
        }
        counts
    }

    /// Checks the paper's restricted form: every clause has 2 or 3 literals
    /// and each variable occurs at most twice positively and at most once
    /// negatively.
    pub fn is_restricted_form(&self) -> bool {
        self.clauses().all(|c| c.len() == 2 || c.len() == 3)
            && self
                .occurrence_counts()
                .iter()
                .all(|&(p, n)| p <= 2 && n <= 1)
    }
}

impl fmt::Debug for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cnf")
            .field("num_vars", &self.num_vars)
            .field("clauses", &self.clauses().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_eval() {
        let l = Lit::pos(Var(0));
        assert_eq!(l.eval(&[Some(true)]), Some(true));
        assert_eq!(l.negated().eval(&[Some(true)]), Some(false));
        assert_eq!(l.eval(&[None]), None);
    }

    #[test]
    fn a_packed_literal_keeps_its_variable_polarity_and_order() {
        let top = Var((Var::LIMIT - 1) as u32);
        for v in [Var(0), Var(1), Var(7), top] {
            for positive in [false, true] {
                let l = Lit::new(v, positive);
                assert_eq!((l.var(), l.is_positive()), (v, positive));
                assert_eq!(l.negated().var(), v);
                assert_eq!(l.negated().is_positive(), !positive);
                assert_eq!(l.code(), 2 * v.idx() + positive as usize);
            }
        }
        // By variable, then ¬x before x: what sorting a clause relies on.
        let mut lits = vec![Lit::pos(Var(2)), Lit::neg(Var(2)), Lit::pos(Var(0))];
        lits.sort();
        assert_eq!(lits, [Lit::pos(Var(0)), Lit::neg(Var(2)), Lit::pos(Var(2))]);
    }

    #[test]
    #[should_panic(expected = "variable beyond Var::LIMIT")]
    fn a_variable_a_literal_cannot_pack_is_refused() {
        Lit::pos(Var(Var::LIMIT as u32));
    }

    #[test]
    fn formula_eval() {
        // (x1 ∨ ¬x2) ∧ (x2 ∨ x3)
        let f = Cnf::from_clauses(3, &[&[(0, true), (1, false)], &[(1, true), (2, true)]]);
        assert!(f.eval(&[true, true, false]));
        assert!(!f.eval(&[false, true, false]));
        assert!(f.eval(&[false, false, true]));
    }

    #[test]
    fn the_pool_gives_back_every_clause_as_added() {
        let (a, b, c) = (Lit::pos(Var(0)), Lit::neg(Var(1)), Lit::pos(Var(2)));
        let mut f = Cnf::new(3);
        f.add_clause([a, b]);
        f.add_clause([]);
        f.add_clause(vec![c, c, a]);
        f.add_clause([b]);
        assert_eq!(f.num_clauses(), 4);
        let clauses: Vec<&[Lit]> = f.clauses().collect();
        assert_eq!(clauses, [&[a, b][..], &[], &[c, c, a], &[b]]);
        for (i, clause) in clauses.iter().enumerate() {
            assert_eq!(f.clause(i), *clause);
        }
        assert_eq!(
            format!("{f:?}"),
            "Cnf { num_vars: 3, clauses: [[x1, ¬x2], [], [x3, x3, x1], [¬x2]] }"
        );
    }

    #[test]
    fn truncation_restores_the_formula_it_extended() {
        let base = Cnf::from_clauses(2, &[&[(0, true), (1, false)], &[(1, true)]]);
        let mut f = base.clone();
        f.num_vars += 2;
        f.add_clause([Lit::pos(Var(3)), Lit::neg(Var(0))]);
        f.add_clause([Lit::neg(Var(2))]);
        assert_ne!(f, base);
        f.truncate(base.num_vars, base.num_clauses());
        assert_eq!(f, base);
        // And it extends again as if never extended.
        f.add_clause([Lit::pos(Var(1))]);
        let mut g = base.clone();
        g.add_clause([Lit::pos(Var(1))]);
        assert_eq!(f, g);
    }

    #[test]
    #[should_panic(expected = "variable out of range")]
    fn an_out_of_range_literal_is_refused() {
        Cnf::new(1).add_clause([Lit::pos(Var(1))]);
    }

    #[test]
    fn occurrence_counts_and_restricted_form() {
        let f = Cnf::from_clauses(
            3,
            &[
                &[(0, true), (1, true), (2, true)],
                &[(0, false), (1, true), (2, false)],
            ],
        );
        assert_eq!(f.occurrence_counts(), vec![(1, 1), (2, 0), (1, 1)]);
        assert!(f.is_restricted_form());
        let g = Cnf::from_clauses(1, &[&[(0, true)]]);
        assert!(!g.is_restricted_form()); // unit clause
    }
}
