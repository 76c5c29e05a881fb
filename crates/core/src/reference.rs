//! Implementations the library replaced, kept as references for its
//! tests:
//!
//! * the round-by-round dominator closure that [`crate::closure`]'s
//!   incremental fixpoint replaced: `closure`'s tests hold the fixpoint to
//!   it on every dominator of random pairs;
//! * the pair paths' strict order over the shared entities, which
//!   [`crate::sat_check`]'s lazy cycle cuts replaced: `sat_check`'s tests
//!   hold both pair paths' verdicts to it;
//! * the deadlock pair formula as written by a walk up each milestone's
//!   DAG, which reading the nearest milestone predecessors off the
//!   transactions' closures replaced: `sat_check`'s tests hold
//!   [`crate::sat_check::pair_prefix_formula`] to it clause for clause.

use crate::closure::ClosureError;
use crate::conflict_graph::{arcs, Sections};
use crate::sat_check::{
    milestone_at, pair_prefix_formula, pair_sections, ran, second_lock, SatCheckError,
};
use kplock_model::{StepId, Transaction, TxnId, TxnSystem};
use kplock_sat::{Cnf, Lit, Var};

/// `R1` and `R2` of a closed pair, and the precedences added to each in
/// order.
pub(crate) struct Closed {
    pub(crate) r1: Transaction,
    pub(crate) r2: Transaction,
    pub(crate) added_a: Vec<(StepId, StepId)>,
    pub(crate) added_b: Vec<(StepId, StepId)>,
}

/// The closure of `{ta, tb}` with respect to the vertices `in_x` marks.
/// Each round that adds a precedence builds a new transaction through
/// `with_precedence` (whose closure the next `precedes` rebuilds), rebuilds
/// `D` over the strengthened pair, checks every arc of it, and rescans
/// every triple with `precedes`.
pub(crate) fn close_pair(
    ta: &Transaction,
    tb: &Transaction,
    sections: &[Sections],
    in_x: &[bool],
) -> Result<Closed, ClosureError> {
    let mut pair = Closed {
        r1: ta.clone(),
        r2: tb.clone(),
        added_a: Vec::new(),
        added_b: Vec::new(),
    };
    loop {
        // X must still dominate: no arc from V−X into X.
        let graph = arcs(&pair.r1, &pair.r2, sections);
        if graph.edges().any(|(u, v)| !in_x[u] && in_x[v]) {
            return Err(ClosureError::DominatorBroken);
        }
        let Some((x, y)) = unmet_triple(&pair.r1, &pair.r2, sections, in_x) else {
            return Ok(pair);
        };
        // Require Uy ≺₁ Ux and Ly ≺₂ Lx.
        let (ux_a, uy_a) = (sections[x].unlock_a, sections[y].unlock_a);
        let (lx_b, ly_b) = (sections[x].lock_b, sections[y].lock_b);
        // Neither closes a cycle: `D` has no arc into X (checked above),
        // and `Ux ≺₁ Uy` or `Lx ≺₂ Ly` would give one from `z`.
        const ACYCLIC: &str = "a dominator's triple requires no precedence that closes a cycle";
        if !pair.r1.precedes(uy_a, ux_a) {
            pair.r1 = pair.r1.with_precedence(uy_a, ux_a).expect(ACYCLIC);
            pair.added_a.push((uy_a, ux_a));
        }
        if !pair.r2.precedes(ly_b, lx_b) {
            pair.r2 = pair.r2.with_precedence(ly_b, lx_b).expect(ACYCLIC);
            pair.added_b.push((ly_b, lx_b));
        }
    }
}

/// The first triple `z ∈ V−X`, `x, y ∈ X` (`x ≠ y`) with `Lz ≺₁ Ux` and
/// `Ly ≺₂ Uz` whose required precedences `Uy ≺₁ Ux`, `Ly ≺₂ Lx` are not
/// both in place yet, as `(x, y)`; scanned by `z`, then `x`, then `y`.
fn unmet_triple(
    r1: &Transaction,
    r2: &Transaction,
    sections: &[Sections],
    in_x: &[bool],
) -> Option<(usize, usize)> {
    let x_vertices = || (0..sections.len()).filter(|&i| in_x[i]);
    for (z, sz) in sections.iter().enumerate() {
        if in_x[z] {
            continue;
        }
        for x in x_vertices() {
            let sx = &sections[x];
            if !r1.precedes(sz.lock_a, sx.unlock_a) {
                continue;
            }
            for y in x_vertices() {
                let sy = &sections[y];
                if x == y || !r2.precedes(sy.lock_b, sz.unlock_b) {
                    continue;
                }
                if !r1.precedes(sy.unlock_a, sx.unlock_a) || !r2.precedes(sy.lock_b, sx.lock_b) {
                    return Some((x, y));
                }
            }
        }
    }
    None
}

/// The pair core's variables over `n` shared entities, from `base` on:
/// the orientation `o_x` (`a`'s section on `x` runs first) at `base + x`,
/// then the strict order `r(x, y)` for `x < y` at its triangular index.
#[derive(Clone, Copy)]
struct PairOrder {
    n: usize,
    base: usize,
}

impl PairOrder {
    fn orient(self, x: usize) -> Var {
        Var((self.base + x) as u32)
    }

    /// Literal meaning "`x` comes before `y` in the order".
    fn before(self, x: usize, y: usize) -> Lit {
        let n = self.n;
        let (lo, hi) = (x.min(y), x.max(y));
        let r = Lit::pos(Var(
            (self.base + n + lo * (2 * n - lo - 1) / 2 + (hi - lo - 1)) as u32,
        ));
        if x < y {
            r
        } else {
            r.negated()
        }
    }

    /// The variables the core takes.
    fn vars(self) -> usize {
        self.n + self.n * self.n.saturating_sub(1) / 2
    }

    /// Emits the core both pair paths shared: transitivity of `r` over
    /// every triple, and one clause per possible section-graph arc,
    /// `¬o_x ∨ o_y ∨ r(x,y)` for `Lx ≺_b Uy` and `o_x ∨ ¬o_y ∨ r(x,y)` for
    /// `Lx ≺_a Uy`. On a prefix an arc also needs `second(y, o_y)`, the
    /// lock of `y` by the transaction whose section on `y` runs second,
    /// and the clause gains its negation; a complete schedule passes
    /// `None`.
    fn emit(
        self,
        cnf: &mut Cnf,
        ta: &Transaction,
        tb: &Transaction,
        sections: &[Sections],
        second: impl Fn(usize, bool) -> Option<Lit>,
    ) {
        let n = self.n;
        for x in 0..n {
            for y in (x + 1)..n {
                let xy = self.before(x, y);
                for z in (y + 1)..n {
                    let (yz, xz) = (self.before(y, z), self.before(x, z));
                    cnf.add_clause([xy.negated(), yz.negated(), xz]);
                    cnf.add_clause([xy, yz, xz.negated()]);
                }
            }
        }
        let unless = |lit: Option<Lit>| lit.map(Lit::negated);
        for (x, sx) in sections.iter().enumerate() {
            for (y, sy) in sections.iter().enumerate() {
                if x == y {
                    continue;
                }
                let (ox, oy, xy) = (self.orient(x), self.orient(y), self.before(x, y));
                if tb.precedes(sx.lock_b, sy.unlock_b) {
                    let guard = unless(second(y, false));
                    cnf.add_clause(
                        [Lit::neg(ox), Lit::pos(oy)]
                            .into_iter()
                            .chain(guard)
                            .chain([xy]),
                    );
                }
                if ta.precedes(sx.lock_a, sy.unlock_a) {
                    let guard = unless(second(y, true));
                    cnf.add_clause(
                        [Lit::pos(ox), Lit::neg(oy)]
                            .into_iter()
                            .chain(guard)
                            .chain([xy]),
                    );
                }
            }
        }
    }
}

/// Whether the pair `sys` has a complete legal non-serializable schedule,
/// by the order encoding: the core [`PairOrder::emit`] writes and two
/// clauses forcing a mixed orientation, solved once.
pub(crate) fn unsafe_by_order(sys: &TxnSystem) -> Result<bool, SatCheckError> {
    let sections = pair_sections(sys, TxnId(0), TxnId(1))?;
    let n = sections.len();
    if n < 2 {
        return Ok(false);
    }
    let (ta, tb) = (sys.txn(TxnId(0)), sys.txn(TxnId(1)));
    let order = PairOrder { n, base: 0 };
    let mut cnf = Cnf::new(order.vars());
    order.emit(&mut cnf, ta, tb, &sections, |_, _| None);
    cnf.add_clause((0..n).map(|x| Lit::pos(order.orient(x))));
    cnf.add_clause((0..n).map(|x| Lit::neg(order.orient(x))));
    Ok(kplock_sat::solve(&cnf).is_sat())
}

/// Whether some legal prefix of the pair `sys` stalls, by the order
/// encoding over the deadlock pair path's missing flags, legality and
/// stall clauses, solved once.
pub(crate) fn deadlocks_by_order(sys: &TxnSystem) -> Result<bool, SatCheckError> {
    let sections = pair_sections(sys, TxnId(0), TxnId(1))?;
    let n = sections.len();
    if n < 2 {
        return Ok(false);
    }
    let (ta, tb) = (sys.txn(TxnId(0)), sys.txn(TxnId(1)));
    let mut cnf = pair_prefix_formula((ta, tb), &sections, 0);
    let order = PairOrder { n, base: 4 * n };
    cnf.num_vars = 4 * n + order.vars();
    order.emit(&mut cnf, ta, tb, &sections, second_lock);
    Ok(kplock_sat::solve(&cnf).is_sat())
}

/// The walk's entry for a step that is no milestone.
const NO_MILESTONE: u32 = u32::MAX;

/// [`pair_prefix_formula`] as it was written before the closures: each
/// milestone's nearest milestone predecessors come from a walk up its DAG
/// that stops at milestones, which finds them and maybe more, filtered to
/// the milestones it found that no other one it found follows (a
/// `precedes` query per pair of finds). Then the same clauses in the same
/// order, the formula growing clause by clause.
pub(crate) fn pair_prefix_formula_by_walk(
    txns: (&Transaction, &Transaction),
    sections: &[Sections],
) -> Cnf {
    let n = sections.len();
    let at = |m: usize| milestone_at(txns, sections, m);
    let steps = txns.0.len() + txns.1.len();
    let mut milestone = vec![NO_MILESTONE; steps];
    for m in 0..4 * n {
        let (_, base, s) = at(m);
        milestone[base + s.idx()] = m as u32;
    }
    let orient = |i: usize| Var((4 * n + i) as u32);

    // Milestone `m`'s nearest milestone predecessors,
    // `preds[ends[m]..ends[m + 1]]`.
    let (mut preds, mut ends) = (Vec::new(), Vec::with_capacity(4 * n + 1));
    let (mut found, mut stack) = (Vec::new(), Vec::new());
    let mut seen = vec![NO_MILESTONE; steps];
    ends.push(0);
    for m in 0..4 * n {
        let (t, base, s) = at(m);
        stack.push(s.idx());
        while let Some(u) = stack.pop() {
            for &v in t.edge_graph().predecessors(u) {
                if seen[base + v] != m as u32 {
                    seen[base + v] = m as u32;
                    match milestone[base + v] {
                        NO_MILESTONE => stack.push(v),
                        q => found.push(q as usize),
                    }
                }
            }
        }
        let followed = |p: usize| found.iter().any(|&q| t.precedes(at(p).2, at(q).2));
        preds.extend(found.iter().filter(|&&p| !followed(p)));
        found.clear();
        ends.push(preds.len());
    }
    let preds_of = |m: usize| preds[ends[m]..ends[m + 1]].iter().copied();

    let mut cnf = Cnf::new(5 * n);
    for m in 0..4 * n {
        for q in preds_of(m) {
            cnf.add_clause([ran(m).negated(), ran(q)]);
        }
    }
    for i in 0..n {
        let (o, m) = (orient(i), 4 * i);
        cnf.add_clause([Lit::neg(o), ran(m + 2).negated(), ran(m + 1)]);
        cnf.add_clause([Lit::pos(o), ran(m).negated(), ran(m + 3)]);
    }
    for m in 0..4 * n {
        let missing = || preds_of(m).map(|q| ran(q).negated());
        let stalled = || std::iter::once(ran(m)).chain(missing());
        if m % 2 == 0 {
            let other = m ^ 2;
            cnf.add_clause(stalled().chain([ran(other)]));
            cnf.add_clause(stalled().chain([ran(other + 1).negated()]));
        } else {
            cnf.add_clause(stalled());
        }
    }
    cnf.add_clause((0..4 * n).map(|m| ran(m).negated()));
    cnf
}

/// `cnf`'s clauses as a multiset: each clause sorted, then the list sorted.
pub(crate) fn clause_multiset(cnf: &Cnf) -> Vec<Vec<Lit>> {
    let mut clauses: Vec<Vec<Lit>> = cnf
        .clauses()
        .map(|c| {
            let mut c = c.to_vec();
            c.sort_unstable();
            c
        })
        .collect();
    clauses.sort_unstable();
    clauses
}
