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
//! The clause store is itself a [`Cnf`]: the cleaned input clauses, then
//! the learned ones, in one literal pool. The watch lists are rows over
//! one more pool. A solver copies the input's literal pool and clause
//! bounds once, with room for as many learned clauses and literals again,
//! and loading normalises each clause in place. Everything else a search
//! keeps per variable is one record per variable beside one value byte
//! per literal, and the trail, the decision levels and the learned-clause
//! buffer are sized for every variable at once. So a solve allocates a
//! fixed handful of buffers, none per clause, per literal or per conflict;
//! only a search that learns more than its input holds grows the clause
//! store, by doubling. `tests/pair_check_allocations.rs` pins what a pair
//! check allocates.
//!
//! Everything is deterministic — no randomized tie-breaking — so solver
//! verdicts, witnesses, and statistics reproduce exactly across runs.

use crate::cnf::{Cnf, Lit, Var};

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

/// [`Solver`]'s value of a literal no assignment has reached.
const FREE: u8 = 0;
/// [`Solver`]'s value of a literal an assignment made true.
const TRUE: u8 = 1;
/// [`Solver`]'s value of a literal an assignment made false.
const FALSE: u8 = 2;

/// [`VarState::reason`] of a decision or a root assignment.
const NO_REASON: u32 = u32::MAX;

/// Room [`Watches::lay_out`] gives each row beyond its input clauses.
const ROW_SLACK: u32 = 2;

/// The clauses watching each literal, as rows over one pool: row `l` is
/// `pool[start..start + len]`, with room up to `start + cap`. Loading
/// counts into row `l`'s room every stored input clause that contains `l`,
/// since propagation can move a clause's watch onto any of its literals,
/// and lays the rows out with [`ROW_SLACK`] more for learned clauses; the
/// pool gets half its size again as spare capacity. A row that outgrows its
/// room moves to the pool's end with twice the room, so the watch lists
/// share one allocation instead of holding one per literal, and a move
/// seldom copies the pool.
struct Watches {
    rows: Vec<WatchRow>,
    pool: Vec<u32>,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct WatchRow {
    start: u32,
    len: u32,
    cap: u32,
}

impl Watches {
    /// `literals` rows with no room yet and no pool.
    fn new(literals: usize) -> Self {
        Watches {
            rows: vec![WatchRow::default(); literals],
            pool: Vec::new(),
        }
    }

    /// Gives row `l` room for one more entry; before [`Watches::lay_out`].
    fn count(&mut self, l: usize) {
        self.rows[l].cap += 1;
    }

    /// Lays the rows out back to back, each with [`ROW_SLACK`] more room
    /// than it counted, over a pool with half its size again to spare.
    fn lay_out(&mut self) {
        let mut to = 0u32;
        for row in &mut self.rows {
            row.start = to;
            row.cap += ROW_SLACK;
            to = to.checked_add(row.cap).expect("watch lists fit a u32 pool");
        }
        self.pool = Vec::with_capacity(to as usize + to as usize / 2);
        self.pool.resize(to as usize, 0);
    }

    fn len(&self, l: usize) -> usize {
        self.rows[l].len as usize
    }

    /// The `i`th clause watching `l`.
    fn get(&self, l: usize, i: usize) -> u32 {
        self.pool[self.rows[l].start as usize + i]
    }

    fn push(&mut self, l: usize, ci: u32) {
        let row = &mut self.rows[l];
        if row.len == row.cap {
            let (start, len) = (row.start as usize, row.len as usize);
            let to = self.pool.len();
            row.start = u32::try_from(to).expect("watch lists fit a u32 pool");
            row.cap = (2 * row.cap).max(4);
            self.pool.extend_from_within(start..start + len);
            self.pool.resize(to + row.cap as usize, 0);
        }
        self.pool[(row.start + row.len) as usize] = ci;
        row.len += 1;
    }

    /// Removes the `i`th entry of row `l`, moving the row's last into it.
    fn swap_remove(&mut self, l: usize, i: usize) {
        let row = &mut self.rows[l];
        row.len -= 1;
        let start = row.start as usize;
        self.pool[start + i] = self.pool[start + row.len as usize];
    }
}

/// What the search keeps per variable beside its value, in one record so
/// that the variables take one allocation.
#[derive(Clone, Copy)]
struct VarState {
    activity: f64,
    /// Decision level of the assignment.
    level: u32,
    /// The clause that implied the assignment, or [`NO_REASON`].
    reason: u32,
    /// Saved phase: the polarity a decision on the variable takes.
    phase: bool,
    /// Conflict analysis: resolved or collected. False between analyses.
    seen: bool,
    /// The root pure-literal pass: whether `¬x`, then `x`, occurs free in
    /// a clause no assignment satisfies yet.
    occurs: [bool; 2],
}

impl VarState {
    const FRESH: VarState = VarState {
        activity: 0.0,
        level: 0,
        reason: NO_REASON,
        phase: true,
        seen: false,
        occurs: [false; 2],
    };
}

/// Solver state.
pub struct Solver<'a> {
    cnf: &'a Cnf,
    /// Cleaned original clauses followed by learned clauses. The first two
    /// literals of every clause are its watched literals.
    clauses: Cnf,
    /// Per literal code: the clauses watching it (laid out by `load`).
    watches: Watches,
    /// Per literal code: [`FREE`], [`TRUE`] or [`FALSE`]. An assignment
    /// sets a literal and its complement, so propagation reads one byte
    /// per literal it visits.
    values: Vec<u8>,
    vars: Vec<VarState>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    queue_head: usize,
    var_inc: f64,
    /// The clause the last analysis learned, asserting literal first.
    learnt: Vec<Lit>,
    /// Statistics: number of branching decisions made.
    pub decisions: u64,
    /// Statistics: number of unit propagations performed.
    pub propagations: u64,
}

const ACTIVITY_DECAY: f64 = 0.95;
const ACTIVITY_RESCALE: f64 = 1e100;

impl<'a> Solver<'a> {
    /// Creates a solver for `cnf`: copies its clauses, with room for as
    /// many learned ones again, and sizes everything kept per variable or
    /// per literal. A variable is assigned at most once on the trail, a
    /// level opens with a decision on a free variable and a learned clause
    /// holds distinct variables, so the trail, the level marks and the
    /// learned-clause buffer never outgrow the variable count.
    pub fn new(cnf: &'a Cnf) -> Self {
        let n = cnf.num_vars;
        Solver {
            cnf,
            clauses: cnf.copy_with_room(cnf.num_clauses(), cnf.num_lits()),
            watches: Watches::new(2 * n),
            values: vec![FREE; 2 * n],
            vars: vec![VarState::FRESH; n],
            trail: Vec::with_capacity(n),
            trail_lim: Vec::with_capacity(n),
            queue_head: 0,
            var_inc: 1.0,
            learnt: Vec::with_capacity(n),
            decisions: 0,
            propagations: 0,
        }
    }

    fn value(&self, l: Lit) -> Option<bool> {
        match self.values[l.code()] {
            FREE => None,
            v => Some(v == TRUE),
        }
    }

    /// Whether variable `v` is unassigned.
    fn is_free(&self, v: usize) -> bool {
        self.values[2 * v] == FREE
    }

    fn assign(&mut self, l: Lit, reason: u32) {
        let v = l.var().idx();
        debug_assert!(self.is_free(v));
        self.values[l.code()] = TRUE;
        self.values[l.negated().code()] = FALSE;
        let var = &mut self.vars[v];
        var.level = self.trail_lim.len() as u32;
        var.reason = reason;
        self.trail.push(l);
    }

    /// Root-level assignment that tolerates repeats; false on conflict.
    fn enqueue_root(&mut self, l: Lit) -> bool {
        match self.value(l) {
            Some(true) => true,
            Some(false) => false,
            None => {
                self.assign(l, NO_REASON);
                true
            }
        }
    }

    fn backtrack_to(&mut self, target_level: usize) {
        while self.trail_lim.len() > target_level {
            let mark = self.trail_lim.pop().expect("level");
            while self.trail.len() > mark {
                let l = self.trail.pop().expect("trail");
                let var = &mut self.vars[l.var().idx()];
                var.phase = l.is_positive();
                var.reason = NO_REASON;
                self.values[l.code()] = FREE;
                self.values[l.negated().code()] = FREE;
            }
        }
        self.queue_head = self.trail.len();
    }

    /// Watches the first two literals of clause `ci`.
    fn watch(&mut self, ci: usize) {
        let clause = self.clauses.clause(ci);
        let id = u32::try_from(ci).expect("clause ids fit a u32");
        self.watches.push(clause[0].code(), id);
        self.watches.push(clause[1].code(), id);
    }

    /// Two-watched-literal unit propagation. Returns the index of a
    /// conflicting clause, or `None` when a fixpoint is reached.
    fn propagate(&mut self) -> Option<usize> {
        while self.queue_head < self.trail.len() {
            let p = self.trail[self.queue_head];
            self.queue_head += 1;
            let falsified = p.negated();
            let key = falsified.code();
            let mut i = 0;
            while i < self.watches.len(key) {
                let id = self.watches.get(key, i);
                let ci = id as usize;
                let clause = self.clauses.clause_mut(ci);
                if clause[0] == falsified {
                    clause.swap(0, 1);
                }
                debug_assert_eq!(clause[1], falsified);
                let first = clause[0];
                if self.values[first.code()] == TRUE {
                    i += 1;
                    continue;
                }
                // Find a replacement watch among the tail literals.
                let replacement =
                    (2..clause.len()).find(|&k| self.values[clause[k].code()] != FALSE);
                if let Some(k) = replacement {
                    clause.swap(1, k);
                    // Never row `key`: the new watch is not false.
                    self.watches.push(clause[1].code(), id);
                    self.watches.swap_remove(key, i);
                    continue;
                }
                if self.values[first.code()] == FALSE {
                    return Some(ci); // conflict
                }
                self.propagations += 1;
                self.assign(first, id);
                i += 1;
            }
        }
        None
    }

    fn bump(&mut self, v: usize) {
        self.vars[v].activity += self.var_inc;
        if self.vars[v].activity > ACTIVITY_RESCALE {
            for var in &mut self.vars {
                var.activity /= ACTIVITY_RESCALE;
            }
            self.var_inc /= ACTIVITY_RESCALE;
        }
    }

    /// First-UIP conflict analysis: resolves the conflict clause backwards
    /// along the trail until exactly one literal of the current decision
    /// level remains. Leaves the learned (asserting) clause in `learnt`
    /// with that literal first, and returns the level to backjump to.
    fn analyze(&mut self, conflict: usize) -> usize {
        let current = self.trail_lim.len() as u32;
        // Slot 0 is the UIP's, filled in once it is found.
        self.learnt.clear();
        self.learnt.push(Lit::pos(Var(0)));
        let mut counter = 0usize;
        let mut index = self.trail.len();
        let mut clause_idx = conflict;
        let mut pivot: Option<Lit> = None;
        loop {
            // Skip the asserted literal (index 0) of reason clauses: it is
            // the pivot being resolved away.
            let skip = usize::from(pivot.is_some());
            for k in skip..self.clauses.clause(clause_idx).len() {
                let q = self.clauses.clause(clause_idx)[k];
                let v = q.var().idx();
                if !self.vars[v].seen && self.vars[v].level > 0 {
                    self.vars[v].seen = true;
                    self.bump(v);
                    if self.vars[v].level == current {
                        counter += 1;
                    } else {
                        self.learnt.push(q);
                    }
                }
            }
            // Next marked literal on the trail (always at the current
            // level: lower levels were pushed to `learnt`, not marked for
            // resolution).
            loop {
                index -= 1;
                if self.vars[self.trail[index].var().idx()].seen {
                    break;
                }
            }
            let p = self.trail[index];
            self.vars[p.var().idx()].seen = false;
            counter -= 1;
            pivot = Some(p);
            if counter == 0 {
                break;
            }
            let reason = self.vars[p.var().idx()].reason;
            assert_ne!(
                reason, NO_REASON,
                "a non-decision literal at the conflict level has a reason"
            );
            clause_idx = reason as usize;
        }
        self.learnt[0] = pivot.expect("conflict analysis found the UIP").negated();
        for l in &self.learnt[1..] {
            self.vars[l.var().idx()].seen = false;
        }

        // Backjump to the second-highest level in the clause; keep a
        // literal of that level in the other watched slot so the clause
        // stays asserting after the jump.
        let learnt = &mut self.learnt;
        if learnt.len() == 1 {
            return 0;
        }
        let level = |l: Lit| self.vars[l.var().idx()].level;
        let mut best = 1;
        for k in 2..learnt.len() {
            if level(learnt[k]) > level(learnt[best]) {
                best = k;
            }
        }
        learnt.swap(1, best);
        level(learnt[1]) as usize
    }

    /// Assigns every variable occurring with only one polarity among
    /// not-yet-satisfied clauses (sound: a formula is satisfiable iff it
    /// is satisfiable with all its pure literals set).
    fn assign_pure_literals(&mut self) {
        for clause in self.clauses.clauses() {
            if clause.iter().any(|&l| self.values[l.code()] == TRUE) {
                continue;
            }
            for &l in clause {
                if self.values[l.code()] == FREE {
                    self.vars[l.var().idx()].occurs[usize::from(l.is_positive())] = true;
                }
            }
        }
        for v in 0..self.vars.len() {
            let [neg, pos] = self.vars[v].occurs;
            if neg != pos {
                self.assign(Lit::new(Var(v as u32), pos), NO_REASON);
            }
        }
    }

    /// Unassigned variable with the highest activity (ties to the lowest
    /// index), or `None` when the assignment is complete.
    fn pick_branch(&self) -> Option<Var> {
        let mut best: Option<usize> = None;
        for v in 0..self.cnf.num_vars {
            if self.is_free(v) && best.is_none_or(|b| self.vars[v].activity > self.vars[b].activity)
            {
                best = Some(v);
            }
        }
        best.map(|v| Var(v as u32))
    }

    /// Loads the formula in the copy `new` made: normalises each clause in
    /// place ([`normalise`]), drops tautologies, enqueues unit clauses at
    /// the root, closes the rest up in order while counting the watch room
    /// of each of their literals, and watches them. Returns false if the
    /// formula is trivially unsatisfiable.
    fn load(&mut self) -> bool {
        let clauses = self.clauses.num_clauses();
        // Clause `i` starts at `next`; the bounds behind it are rewritten.
        let (mut next, mut to, mut kept) = (0, 0, 0);
        for i in 0..clauses {
            let (lits, bounds) = self.clauses.pool_mut();
            let (start, end) = (next, bounds[i + 1] as usize);
            next = end;
            match normalise(&mut lits[start..end]) {
                None => {} // tautology: x ∨ ¬x
                Some(0) => return false,
                Some(1) => {
                    let unit = lits[start];
                    if !self.enqueue_root(unit) {
                        return false;
                    }
                }
                Some(len) => {
                    lits.copy_within(start..start + len, to);
                    for l in &lits[to..to + len] {
                        self.watches.count(l.code());
                    }
                    to += len;
                    kept += 1;
                    bounds[kept] = to as u32;
                }
            }
        }
        self.clauses.truncate(self.cnf.num_vars, kept);
        self.watches.lay_out();
        for ci in 0..kept {
            self.watch(ci);
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
                let back = self.analyze(conflict);
                self.backtrack_to(back);
                let asserted = self.learnt[0];
                let reason = if self.learnt.len() > 1 {
                    let ci = self.clauses.num_clauses();
                    self.clauses.add_clause(self.learnt.iter().copied());
                    self.watch(ci);
                    ci as u32
                } else {
                    NO_REASON
                };
                self.assign(asserted, reason);
                self.var_inc /= ACTIVITY_DECAY;
                conflicts_since_restart += 1;
                if conflicts_since_restart >= restart_limit {
                    conflicts_since_restart = 0;
                    restart_limit += restart_limit / 2;
                    self.backtrack_to(0);
                }
            } else {
                let Some(v) = self.pick_branch() else {
                    let model: Vec<bool> =
                        self.values.chunks_exact(2).map(|v| v[1] == TRUE).collect();
                    debug_assert!(self.cnf.eval(&model));
                    return SatResult::Sat(model);
                };
                self.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let phase = self.vars[v.idx()].phase;
                self.assign(Lit::new(v, phase), NO_REASON);
            }
        }
    }
}

/// Puts a clause in the order the solver stores it, literals ascending
/// with no repeat: sorts it unless its variables already ascend, then
/// closes up repeated literals. Returns how many literals it keeps at the
/// front, or `None` for a tautology (`x` and `¬x`, adjacent once sorted).
fn normalise(c: &mut [Lit]) -> Option<usize> {
    if c.windows(2).all(|w| w[0].var() < w[1].var()) {
        return Some(c.len());
    }
    c.sort_unstable();
    let mut len = 1;
    for i in 1..c.len() {
        let (l, last) = (c[i], c[len - 1]);
        if l == last {
            continue;
        }
        if l.var() == last.var() {
            return None;
        }
        c[len] = l;
        len += 1;
    }
    Some(len)
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
    use proptest::prelude::*;

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
        assert_eq!(solve(&pigeonhole(6)), SatResult::Unsat);
    }

    /// `holes + 1` pigeons into `holes` holes: unsatisfiable.
    fn pigeonhole(holes: usize) -> Cnf {
        let pigeons = holes + 1;
        let var = |p: usize, h: usize| p * holes + h;
        let mut f = Cnf::new(pigeons * holes);
        for p in 0..pigeons {
            f.add_clause((0..holes).map(|h| Lit::pos(Var(var(p, h) as u32))));
        }
        for h in 0..holes {
            for p in 0..pigeons {
                for q in (p + 1)..pigeons {
                    f.add_clause([
                        Lit::neg(Var(var(p, h) as u32)),
                        Lit::neg(Var(var(q, h) as u32)),
                    ]);
                }
            }
        }
        f
    }

    #[test]
    fn watch_rows_behave_as_a_list_per_literal() {
        // Rows laid out with room, then pushed past it (moves to the pool's
        // end) and emptied by swap_remove, against one Vec per row.
        let mut rng = crate::gen::XorShift::new(0x5EED);
        for _ in 0..200 {
            let literals = 1 + rng.below(12);
            let mut watches = Watches::new(literals);
            for l in 0..literals {
                for _ in 0..rng.below(4) {
                    watches.count(l);
                }
            }
            watches.lay_out();
            let mut model = vec![Vec::new(); literals];
            for _ in 0..rng.below(300) {
                let l = rng.below(literals);
                if model[l].is_empty() || rng.below(3) > 0 {
                    let ci = rng.below(1 << 20) as u32;
                    watches.push(l, ci);
                    model[l].push(ci);
                } else {
                    let i = rng.below(model[l].len());
                    watches.swap_remove(l, i);
                    model[l].swap_remove(i);
                }
                for (r, want) in model.iter().enumerate() {
                    let got: Vec<u32> = (0..watches.len(r)).map(|i| watches.get(r, i)).collect();
                    assert_eq!(&got, want, "row {r}");
                }
            }
        }
    }

    /// The clause-by-clause load the one-copy [`Solver::load`] replaced:
    /// each input clause is copied into a buffer, sorted, deduplicated and
    /// added to an empty store, and its literals' watch room is counted in
    /// a vector per literal code. Fills `solver`, fresh from
    /// [`Solver::new`], as `load` would, and returns what `load` would.
    fn load_clause_by_clause(solver: &mut Solver<'_>) -> bool {
        let cnf = solver.cnf;
        solver.clauses = Cnf::new(cnf.num_vars);
        let mut occurs = vec![0u32; 2 * cnf.num_vars];
        let mut c = Vec::new();
        for clause in cnf.clauses() {
            c.clear();
            c.extend_from_slice(clause);
            c.sort_unstable();
            c.dedup();
            if c.windows(2).any(|w| w[0].var() == w[1].var()) {
                continue;
            }
            let ok = match c.len() {
                0 => false,
                1 => solver.enqueue_root(c[0]),
                _ => {
                    for l in &c {
                        occurs[l.code()] += 1;
                    }
                    solver.clauses.add_clause(c.iter().copied());
                    true
                }
            };
            if !ok {
                return false;
            }
        }
        for (row, n) in solver.watches.rows.iter_mut().zip(occurs) {
            row.cap = n;
        }
        solver.watches.lay_out();
        for ci in 0..solver.clauses.num_clauses() {
            solver.watch(ci);
        }
        true
    }

    /// Clause kinds [`load_agrees_with_the_clause_by_clause_reference`]
    /// reports, one bit each.
    const EMPTY: u32 = 1;
    const UNIT: u32 = 2;
    const DUPLICATE: u32 = 4;
    const TAUTOLOGY: u32 = 8;
    const UNSORTED: u32 = 16;
    /// And how the load ended.
    const LOADED: u32 = 32;
    const UNSAT_AT_LOAD: u32 = 64;

    /// Loads a random CNF of up to eight variables both ways — its clauses
    /// of up to five literals drawn with repeats, so some repeat a literal,
    /// hold both polarities of a variable or come unsorted, and about one
    /// in thirty is empty — and holds the one-copy load to the reference:
    /// the same verdict and, when both load, the same stored clauses in the
    /// same order, the same root units on the trail and the same watch rows
    /// and entries. Returns the kinds of clause the formula held and how
    /// the load ended.
    fn load_agrees_with_the_clause_by_clause_reference(seed: u64) -> u32 {
        let mut rng = crate::gen::XorShift::new(seed);
        let nv = 1 + rng.below(8);
        let mut f = Cnf::new(nv);
        let mut kinds = 0;
        for _ in 0..rng.below(13) {
            let len = if rng.below(30) == 0 {
                0
            } else {
                1 + rng.below(5)
            };
            f.add_clause((0..len).map(|_| Lit::new(Var(rng.below(nv) as u32), rng.flip())));
            let clause = f.clause(f.num_clauses() - 1);
            let mut sorted = clause.to_vec();
            sorted.sort_unstable();
            kinds |= match clause.len() {
                0 => EMPTY,
                1 => UNIT,
                _ => 0,
            };
            if sorted.windows(2).any(|w| w[0] == w[1]) {
                kinds |= DUPLICATE;
            }
            if sorted
                .windows(2)
                .any(|w| w[0].var() == w[1].var() && w[0] != w[1])
            {
                kinds |= TAUTOLOGY;
            }
            if clause.windows(2).any(|w| w[0] > w[1]) {
                kinds |= UNSORTED;
            }
        }
        let (mut got, mut want) = (Solver::new(&f), Solver::new(&f));
        let loaded = got.load();
        assert_eq!(
            loaded,
            load_clause_by_clause(&mut want),
            "seed {seed}: {f:?}"
        );
        if !loaded {
            return kinds | UNSAT_AT_LOAD;
        }
        assert_eq!(got.clauses, want.clauses, "seed {seed}: {f:?}");
        assert_eq!(got.trail, want.trail, "seed {seed}: {f:?}");
        assert_eq!(got.values, want.values, "seed {seed}: {f:?}");
        assert_eq!(got.watches.rows, want.watches.rows, "seed {seed}: {f:?}");
        assert_eq!(got.watches.pool, want.watches.pool, "seed {seed}: {f:?}");
        kinds | LOADED
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_one_copy_load_stores_what_the_clause_by_clause_load_did(seed in any::<u64>()) {
            load_agrees_with_the_clause_by_clause_reference(seed);
        }
    }

    #[test]
    fn the_load_differential_meets_every_clause_kind() {
        let seen = (0..256).fold(0, |seen, seed| {
            seen | load_agrees_with_the_clause_by_clause_reference(seed)
        });
        for (kind, name) in [
            (EMPTY, "an empty clause"),
            (UNIT, "a unit clause"),
            (DUPLICATE, "a repeated literal"),
            (TAUTOLOGY, "a tautology"),
            (UNSORTED, "an unsorted clause"),
            (LOADED, "a formula that loads"),
            (UNSAT_AT_LOAD, "a formula unsatisfiable at load"),
        ] {
            assert_ne!(seen & kind, 0, "no seed drew {name}");
        }
    }

    /// Holds [`Solver::assign_pure_literals`] to a naive scan on a random
    /// CNF of up to eight variables, about a third of its clauses units:
    /// after loading and root propagation, which satisfy some clauses
    /// first, the pass sets exactly the literals that occur free, with one
    /// polarity only, in the input clauses no assignment satisfies yet.
    /// Returns `[clauses of two or more literals root propagation
    /// satisfied, literals set]`, or `None` when the root conflicts, for the
    /// sweep that checks both occur.
    fn pure_literals_agree_with_a_scan(seed: u64) -> Option<[usize; 2]> {
        let mut rng = crate::gen::XorShift::new(seed);
        let nv = 1 + rng.below(8);
        let mut f = Cnf::new(nv);
        for _ in 0..1 + rng.below(12) {
            let len = if rng.below(3) == 0 {
                1
            } else {
                1 + rng.below(nv.min(4))
            };
            // Distinct variables: a tautology is no clause to the solver.
            let mut vars: Vec<usize> = Vec::new();
            while vars.len() < len {
                let v = rng.below(nv);
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            f.add_clause(vars.iter().map(|&v| Lit::new(Var(v as u32), rng.flip())));
        }
        let mut solver = Solver::new(&f);
        if !solver.load() || solver.propagate().is_some() {
            return None;
        }
        let value = |values: &[u8], l: Lit| values[l.code()];
        let open: Vec<&[Lit]> = f
            .clauses()
            .filter(|c| c.iter().all(|&l| value(&solver.values, l) != TRUE))
            .collect();
        let mut want: Vec<Lit> = Vec::new();
        for v in 0..nv {
            let free_in =
                |l: Lit| value(&solver.values, l) == FREE && open.iter().any(|c| c.contains(&l));
            let (pos, neg) = (Lit::pos(Var(v as u32)), Lit::neg(Var(v as u32)));
            match (free_in(pos), free_in(neg)) {
                (true, false) => want.push(pos),
                (false, true) => want.push(neg),
                _ => {}
            }
        }
        let before = solver.trail.len();
        solver.assign_pure_literals();
        let mut got = solver.trail[before..].to_vec();
        got.sort_unstable();
        assert_eq!(got, want, "seed {seed}: {f:?}");
        let satisfied = f.clauses().filter(|c| c.len() > 1).count()
            - open.iter().filter(|c| c.len() > 1).count();
        Some([satisfied, got.len()])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn pure_literals_are_the_ones_a_scan_finds(seed in any::<u64>()) {
            pure_literals_agree_with_a_scan(seed);
        }
    }

    #[test]
    fn the_pure_literal_scan_meets_satisfied_clauses_and_pure_literals() {
        let seen: Vec<[usize; 2]> = (0..256)
            .filter_map(pure_literals_agree_with_a_scan)
            .collect();
        assert!(
            seen.iter().any(|s| s[0] > 0),
            "root propagation satisfied nothing"
        );
        assert!(
            seen.iter().any(|s| s[0] > 0 && s[1] > 0),
            "no pure literal after it"
        );
        assert!(
            seen.iter().any(|s| s[1] == 0),
            "every formula had a pure literal"
        );
    }

    /// `[satisfiable, decisions, propagations, model digest]` summed over
    /// 48 random 3-CNFs at the satisfiability threshold (40 variables,
    /// 170 clauses), then over the 7-into-6 pigeonhole formula. The search
    /// is deterministic, so how clauses are stored must not move a figure.
    const PIN_SOLVER: [[u64; 4]; 2] = [
        [31, 1_764, 20_362, 7_131_438_125_581_509_026],
        [0, 828, 9_338, 0],
    ];

    #[test]
    fn solver_effort_is_pinned() {
        let mut got = [[0u64; 4]; 2];
        let mut tally = |row: usize, f: &Cnf| {
            let mut solver = Solver::new(f);
            let result = solver.solve();
            let r = &mut got[row];
            r[1] += solver.decisions;
            r[2] += solver.propagations;
            if let SatResult::Sat(model) = result {
                r[0] += 1;
                r[3] = model.iter().fold(r[3], |h, &b| {
                    (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
                });
            }
        };
        for seed in 0..48 {
            tally(0, &crate::gen::random_kcnf(seed, 40, 170, 3));
        }
        tally(1, &pigeonhole(6));
        assert_eq!(got, PIN_SOLVER);
    }

    #[test]
    fn agrees_with_brute_force_on_small_formulas() {
        // Deterministic pseudo-random small formulas, with repeated
        // literals, tautologies, units and the odd empty clause for the
        // load path; every model must be a model.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..400 {
            let nv = 1 + (next() % 6) as usize;
            let nc = 2 + (next() % 8) as usize;
            let mut f = Cnf::new(nv);
            for _ in 0..nc {
                let len = if next() % 16 == 0 {
                    0
                } else {
                    1 + (next() % 4) as usize
                };
                let clause: Vec<_> = (0..len)
                    .map(|_| Lit::new(Var((next() % nv as u64) as u32), next() % 2 == 0))
                    .collect();
                f.add_clause(clause);
            }
            let got = solve(&f);
            assert_eq!(
                got.is_sat(),
                solve_brute_force(&f).is_sat(),
                "formula {f:?}"
            );
            if let SatResult::Sat(model) = got {
                assert!(f.eval(&model), "formula {f:?}");
            }
        }
    }
}
