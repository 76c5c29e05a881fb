//! A conflict-driven DPLL satisfiability solver.
//!
//! The search is classic DPLL — unit propagation, branching, backtracking
//! — hardened with the standard machinery that makes `kplock-core`'s
//! `sat_check` *ordering* encodings tractable (thousands of transitivity
//! clauses over milestone-pair variables, whose UNSAT proofs blow up a
//! learning-free solver):
//!
//! * **two-watched-literal** propagation, so a propagation pass touches
//!   only clauses that might have become unit;
//! * **first-UIP conflict analysis** with clause learning and
//!   backjumping, so a refuted subspace is never revisited;
//! * **activity-driven branching** (VSIDS-style, bump on conflict,
//!   geometric decay) with phase saving;
//! * **geometric restarts** that keep learned clauses and activities;
//! * **pure-literal elimination**, applied once at the root.
//!
//! Everything is deterministic — no randomized tie-breaking — so solver
//! verdicts, witnesses, and statistics reproduce exactly across runs.

use crate::cnf::{Clause, Cnf, Lit, Var};

/// The result of solving.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a witness assignment (one value per variable).
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
}

impl SatResult {
    /// True if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// Watch-list key of a literal (2·var + polarity).
fn watch_key(l: Lit) -> usize {
    2 * l.var.idx() + l.positive as usize
}

/// Literal value under a partial assignment (free function so it can be
/// used while a clause is mutably borrowed).
fn lit_value(assignment: &[Option<bool>], l: Lit) -> Option<bool> {
    assignment[l.var.idx()].map(|v| v == l.positive)
}

/// Solver state.
pub struct Solver<'a> {
    cnf: &'a Cnf,
    /// Cleaned original clauses followed by learned clauses. The first two
    /// literals of every clause are its watched literals.
    clauses: Vec<Clause>,
    watches: Vec<Vec<usize>>,
    assignment: Vec<Option<bool>>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    queue_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    phase: Vec<bool>,
    /// Statistics: number of branching decisions made.
    pub decisions: u64,
    /// Statistics: number of unit propagations performed.
    pub propagations: u64,
}

const ACTIVITY_DECAY: f64 = 0.95;
const ACTIVITY_RESCALE: f64 = 1e100;

impl<'a> Solver<'a> {
    /// Creates a solver for `cnf`.
    pub fn new(cnf: &'a Cnf) -> Self {
        let n = cnf.num_vars;
        Solver {
            cnf,
            clauses: Vec::with_capacity(cnf.clauses.len()),
            watches: vec![Vec::new(); 2 * n],
            assignment: vec![None; n],
            level: vec![0; n],
            reason: vec![None; n],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            queue_head: 0,
            activity: vec![0.0; n],
            var_inc: 1.0,
            phase: vec![true; n],
            decisions: 0,
            propagations: 0,
        }
    }

    fn value(&self, l: Lit) -> Option<bool> {
        self.assignment[l.var.idx()].map(|v| v == l.positive)
    }

    fn assign(&mut self, l: Lit, reason: Option<usize>) {
        let v = l.var.idx();
        debug_assert!(self.assignment[v].is_none());
        self.assignment[v] = Some(l.positive);
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Root-level assignment that tolerates repeats; false on conflict.
    fn enqueue_root(&mut self, l: Lit) -> bool {
        match self.value(l) {
            Some(true) => true,
            Some(false) => false,
            None => {
                self.assign(l, None);
                true
            }
        }
    }

    fn backtrack_to(&mut self, target_level: usize) {
        while self.trail_lim.len() > target_level {
            let mark = self.trail_lim.pop().expect("level");
            while self.trail.len() > mark {
                let l = self.trail.pop().expect("trail");
                let v = l.var.idx();
                self.phase[v] = l.positive;
                self.assignment[v] = None;
                self.reason[v] = None;
            }
        }
        self.queue_head = self.trail.len();
    }

    /// Two-watched-literal unit propagation. Returns the index of a
    /// conflicting clause, or `None` when a fixpoint is reached.
    fn propagate(&mut self) -> Option<usize> {
        while self.queue_head < self.trail.len() {
            let p = self.trail[self.queue_head];
            self.queue_head += 1;
            let falsified = p.negated();
            let key = watch_key(falsified);
            let mut ws = std::mem::take(&mut self.watches[key]);
            let mut i = 0;
            while i < ws.len() {
                let ci = ws[i];
                if self.clauses[ci][0] == falsified {
                    self.clauses[ci].swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci][1], falsified);
                let first = self.clauses[ci][0];
                if lit_value(&self.assignment, first) == Some(true) {
                    i += 1;
                    continue;
                }
                // Find a replacement watch among the tail literals.
                let replacement = (2..self.clauses[ci].len())
                    .find(|&k| lit_value(&self.assignment, self.clauses[ci][k]) != Some(false));
                if let Some(k) = replacement {
                    self.clauses[ci].swap(1, k);
                    let new_key = watch_key(self.clauses[ci][1]);
                    self.watches[new_key].push(ci);
                    ws.swap_remove(i);
                    continue;
                }
                if lit_value(&self.assignment, first) == Some(false) {
                    self.watches[key] = ws;
                    return Some(ci); // conflict
                }
                self.propagations += 1;
                self.assign(first, Some(ci));
                i += 1;
            }
            self.watches[key] = ws;
        }
        None
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > ACTIVITY_RESCALE {
            for a in &mut self.activity {
                *a /= ACTIVITY_RESCALE;
            }
            self.var_inc /= ACTIVITY_RESCALE;
        }
    }

    /// First-UIP conflict analysis: resolves the conflict clause backwards
    /// along the trail until exactly one literal of the current decision
    /// level remains. Returns the learned (asserting) clause with that
    /// literal first, and the level to backjump to.
    fn analyze(&mut self, conflict: usize) -> (Clause, usize) {
        let current = self.trail_lim.len() as u32;
        let mut learnt: Vec<Lit> = Vec::new();
        let mut seen = vec![false; self.cnf.num_vars];
        let mut counter = 0usize;
        let mut index = self.trail.len();
        let mut clause_idx = conflict;
        let mut pivot: Option<Lit> = None;
        loop {
            // Skip the asserted literal (index 0) of reason clauses: it is
            // the pivot being resolved away.
            let skip = usize::from(pivot.is_some());
            for k in skip..self.clauses[clause_idx].len() {
                let q = self.clauses[clause_idx][k];
                let v = q.var.idx();
                if !seen[v] && self.level[v] > 0 {
                    seen[v] = true;
                    self.bump(v);
                    if self.level[v] == current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next marked literal on the trail (always at the current
            // level: lower levels were pushed to `learnt`, not marked for
            // resolution).
            loop {
                index -= 1;
                if seen[self.trail[index].var.idx()] {
                    break;
                }
            }
            let p = self.trail[index];
            seen[p.var.idx()] = false;
            counter -= 1;
            pivot = Some(p);
            if counter == 0 {
                break;
            }
            clause_idx = self.reason[p.var.idx()]
                .expect("a non-decision literal at the conflict level has a reason");
        }
        let uip = pivot.expect("conflict analysis found the UIP").negated();
        learnt.insert(0, uip);

        // Backjump to the second-highest level in the clause; keep a
        // literal of that level in the other watched slot so the clause
        // stays asserting after the jump.
        if learnt.len() == 1 {
            return (learnt, 0);
        }
        let mut best = 1;
        for k in 2..learnt.len() {
            if self.level[learnt[k].var.idx()] > self.level[learnt[best].var.idx()] {
                best = k;
            }
        }
        learnt.swap(1, best);
        let back = self.level[learnt[1].var.idx()] as usize;
        (learnt, back)
    }

    /// Assigns every variable occurring with only one polarity among
    /// not-yet-satisfied clauses (sound: a formula is satisfiable iff it
    /// is satisfiable with all its pure literals set).
    fn assign_pure_literals(&mut self) {
        let n = self.cnf.num_vars;
        let mut pos = vec![false; n];
        let mut neg = vec![false; n];
        for clause in &self.clauses {
            if clause.iter().any(|&l| self.value(l) == Some(true)) {
                continue;
            }
            for &l in clause {
                if self.assignment[l.var.idx()].is_none() {
                    if l.positive {
                        pos[l.var.idx()] = true;
                    } else {
                        neg[l.var.idx()] = true;
                    }
                }
            }
        }
        for v in 0..n {
            if self.assignment[v].is_none() && pos[v] != neg[v] {
                self.assign(
                    Lit {
                        var: Var(v as u32),
                        positive: pos[v],
                    },
                    None,
                );
            }
        }
    }

    /// Unassigned variable with the highest activity (ties to the lowest
    /// index), or `None` when the assignment is complete.
    fn pick_branch(&self) -> Option<Var> {
        let mut best: Option<usize> = None;
        for v in 0..self.cnf.num_vars {
            if self.assignment[v].is_none()
                && best.is_none_or(|b| self.activity[v] > self.activity[b])
            {
                best = Some(v);
            }
        }
        best.map(|v| Var(v as u32))
    }

    /// Loads the formula: deduplicates literals, drops tautologies,
    /// enqueues unit clauses at the root, watches the rest. Returns false
    /// if the formula is trivially unsatisfiable.
    fn load(&mut self) -> bool {
        for clause in &self.cnf.clauses {
            let mut c = clause.clone();
            c.sort();
            c.dedup();
            if c.windows(2).any(|w| w[0].var == w[1].var) {
                continue; // tautology: x ∨ ¬x
            }
            match c.len() {
                0 => return false,
                1 => {
                    if !self.enqueue_root(c[0]) {
                        return false;
                    }
                }
                _ => {
                    let ci = self.clauses.len();
                    self.watches[watch_key(c[0])].push(ci);
                    self.watches[watch_key(c[1])].push(ci);
                    self.clauses.push(c);
                }
            }
        }
        true
    }

    /// Decides satisfiability.
    pub fn solve(&mut self) -> SatResult {
        if !self.load() || self.propagate().is_some() {
            return SatResult::Unsat;
        }
        self.assign_pure_literals();
        if self.propagate().is_some() {
            return SatResult::Unsat;
        }
        let mut conflicts_since_restart = 0u64;
        let mut restart_limit = 100u64;
        loop {
            if let Some(conflict) = self.propagate() {
                if self.trail_lim.is_empty() {
                    return SatResult::Unsat;
                }
                let (learnt, back) = self.analyze(conflict);
                self.backtrack_to(back);
                let asserted = learnt[0];
                if learnt.len() == 1 {
                    self.assign(asserted, None);
                } else {
                    let ci = self.clauses.len();
                    self.watches[watch_key(learnt[0])].push(ci);
                    self.watches[watch_key(learnt[1])].push(ci);
                    self.clauses.push(learnt);
                    self.assign(asserted, Some(ci));
                }
                self.var_inc /= ACTIVITY_DECAY;
                conflicts_since_restart += 1;
                if conflicts_since_restart >= restart_limit {
                    conflicts_since_restart = 0;
                    restart_limit += restart_limit / 2;
                    self.backtrack_to(0);
                }
            } else {
                let Some(v) = self.pick_branch() else {
                    let model: Vec<bool> = self
                        .assignment
                        .iter()
                        .map(|v| v.expect("complete"))
                        .collect();
                    debug_assert!(self.cnf.eval(&model));
                    return SatResult::Sat(model);
                };
                self.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.assign(
                    Lit {
                        var: v,
                        positive: self.phase[v.idx()],
                    },
                    None,
                );
            }
        }
    }
}

/// One-shot convenience: solve `cnf`.
pub fn solve(cnf: &Cnf) -> SatResult {
    Solver::new(cnf).solve()
}

/// Brute-force satisfiability over all assignments (for cross-checking;
/// panics above 24 variables).
pub fn solve_brute_force(cnf: &Cnf) -> SatResult {
    assert!(cnf.num_vars <= 24, "brute force limited to 24 variables");
    for bits in 0u64..(1u64 << cnf.num_vars) {
        let assignment: Vec<bool> = (0..cnf.num_vars).map(|v| bits >> v & 1 == 1).collect();
        if cnf.eval(&assignment) {
            return SatResult::Sat(assignment);
        }
    }
    SatResult::Unsat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Cnf;

    #[test]
    fn simple_sat() {
        let f = Cnf::from_clauses(2, &[&[(0, true), (1, true)], &[(0, false), (1, true)]]);
        let SatResult::Sat(m) = solve(&f) else {
            panic!("should be sat");
        };
        assert!(f.eval(&m));
    }

    #[test]
    fn simple_unsat() {
        let f = Cnf::from_clauses(1, &[&[(0, true)], &[(0, false)]]);
        assert_eq!(solve(&f), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_2_into_1_unsat() {
        // p1 ∨ p2 forced each pigeon into hole 1; both can't share.
        // Variables: x_ij = pigeon i in hole j, 2 pigeons 1 hole.
        let f = Cnf::from_clauses(2, &[&[(0, true)], &[(1, true)], &[(0, false), (1, false)]]);
        assert_eq!(solve(&f), SatResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let f = Cnf::new(3);
        assert!(solve(&f).is_sat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut f = Cnf::new(1);
        f.add_clause(vec![]);
        assert_eq!(solve(&f), SatResult::Unsat);
    }

    #[test]
    fn tautological_clauses_are_ignored() {
        // (x ∨ ¬x) ∧ (¬y) is satisfiable; the tautology must not confuse
        // the watch lists.
        let f = Cnf::from_clauses(2, &[&[(0, true), (0, false)], &[(1, false)]]);
        let SatResult::Sat(m) = solve(&f) else {
            panic!("should be sat");
        };
        assert!(f.eval(&m));
    }

    #[test]
    fn duplicate_literals_are_deduplicated() {
        // (x ∨ x) ∧ (¬x ∨ ¬x): still plain x ∧ ¬x, unsatisfiable.
        let f = Cnf::from_clauses(1, &[&[(0, true), (0, true)], &[(0, false), (0, false)]]);
        assert_eq!(solve(&f), SatResult::Unsat);
    }

    #[test]
    fn learning_cracks_pigeonhole_quickly() {
        // 7 pigeons into 6 holes: hopeless for a learning-free solver at
        // this size, routine with first-UIP clause learning.
        let holes = 6;
        let pigeons = holes + 1;
        let var = |p: usize, h: usize| p * holes + h;
        let mut f = Cnf::new(pigeons * holes);
        for p in 0..pigeons {
            f.add_clause(
                (0..holes)
                    .map(|h| Lit::pos(Var(var(p, h) as u32)))
                    .collect(),
            );
        }
        for h in 0..holes {
            for p in 0..pigeons {
                for q in (p + 1)..pigeons {
                    f.add_clause(vec![
                        Lit::neg(Var(var(p, h) as u32)),
                        Lit::neg(Var(var(q, h) as u32)),
                    ]);
                }
            }
        }
        assert_eq!(solve(&f), SatResult::Unsat);
    }

    #[test]
    fn agrees_with_brute_force_on_small_formulas() {
        // Deterministic pseudo-random small formulas.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..60 {
            let nv = 3 + (next() % 4) as usize;
            let nc = 2 + (next() % 8) as usize;
            let mut f = Cnf::new(nv);
            for _ in 0..nc {
                let len = 1 + (next() % 3) as usize;
                let clause: Vec<_> = (0..len)
                    .map(|_| Lit {
                        var: Var((next() % nv as u64) as u32),
                        positive: next() % 2 == 0,
                    })
                    .collect();
                f.add_clause(clause);
            }
            assert_eq!(
                solve(&f).is_sat(),
                solve_brute_force(&f).is_sat(),
                "formula {f:?}"
            );
        }
    }
}
