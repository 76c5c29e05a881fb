//! Implementations the library replaced, kept as references for its
//! tests:
//!
//! * the strict order over a pair's shared entities, which
//!   [`crate::sat_check`]'s lazy cycle cuts replaced: `sat_check`'s tests
//!   hold both checks' verdicts on pairs to it;
//! * the k-transaction order encoding, a strict order over every lock and
//!   unlock step of an entity two transactions lock, which the section
//!   graph replaced for three or more transactions: `sat_check`'s tests
//!   hold both checks' verdicts to it;
//! * the deadlock formula of a pair as written by a walk up each
//!   milestone's DAG, which reading the nearest milestone predecessors off
//!   the transactions' closures replaced: `sat_check`'s tests hold
//!   [`crate::sat_check::prefix_formula`] to it clause for clause;
//! * the witness as a `DiGraph` sorted by `kplock_graph::topo_sort`, which
//!   the merge replaced: `sat_check`'s tests hold the merge to it.

use crate::conflict_graph::Sections;
use crate::sat_check::{
    cycle_error, nodes_of, prefix_formula, ran, second_lock, Node, SatCheckError,
};
use kplock_graph::{topo_sort, DiGraph};
use kplock_model::{
    ActionKind, EntityId, Schedule, ScheduledStep, StepId, Transaction, TxnId, TxnSystem,
};
use kplock_sat::{Cnf, Lit, Var};

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

    /// Emits the core both checks shared on a pair: transitivity of `r`
    /// over every triple, and one clause per possible section-graph arc,
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

/// The pair `sys`'s nodes, one per shared entity, and their sections.
fn pair_nodes(sys: &TxnSystem) -> Result<(Vec<Node>, Vec<Sections>), SatCheckError> {
    let nodes = nodes_of(sys)?;
    let sections = (nodes.iter())
        .map(|p| {
            let [a, b] = p.sides;
            Sections {
                lock_a: a.lock,
                unlock_a: a.unlock,
                lock_b: b.lock,
                unlock_b: b.unlock,
            }
        })
        .collect();
    Ok((nodes, sections))
}

/// Whether the pair `sys` has a complete legal non-serializable schedule,
/// by the order encoding: the core [`PairOrder::emit`] writes and two
/// clauses forcing a mixed orientation, solved once.
pub(crate) fn unsafe_by_order(sys: &TxnSystem) -> Result<bool, SatCheckError> {
    let (_, sections) = pair_nodes(sys)?;
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
/// encoding over the deadlock check's missing flags, legality and stall
/// clauses, solved once.
pub(crate) fn deadlocks_by_order(sys: &TxnSystem) -> Result<bool, SatCheckError> {
    let (nodes, sections) = pair_nodes(sys)?;
    let n = sections.len();
    if n < 2 {
        return Ok(false);
    }
    let (ta, tb) = (sys.txn(TxnId(0)), sys.txn(TxnId(1)));
    let mut cnf = prefix_formula(sys.txns(), &nodes, 0);
    let order = PairOrder { n, base: 4 * n };
    cnf.num_vars = 4 * n + order.vars();
    order.emit(&mut cnf, ta, tb, &sections, |y, a_first| {
        second_lock(&nodes, y, a_first)
    });
    Ok(kplock_sat::solve(&cnf).is_sat())
}

/// How one milestone stands against another in the k-transaction order
/// encoding.
#[derive(Clone, Copy, Debug)]
enum Order {
    /// Fixed by the transaction's own precedence DAG: `true` if the first
    /// milestone precedes the second.
    Fixed(bool),
    /// Left to the solver: the literal meaning "the first precedes the
    /// second".
    Free(Lit),
}

impl Order {
    fn negated(self) -> Order {
        match self {
            Order::Fixed(first) => Order::Fixed(!first),
            Order::Free(lit) => Order::Free(lit.negated()),
        }
    }
}

/// One lock/unlock section of an entity two or more transactions lock, in
/// the k-transaction order encoding.
#[derive(Clone, Copy, Debug)]
struct Section {
    txn: usize,
    entity: EntityId,
    lock_m: usize,
    unlock_m: usize,
}

/// The k-transaction order encoding's core: the lock and unlock steps of
/// every entity two or more transactions lock are *milestones*, a
/// milestone pair one transaction's DAG orders (`precedes`) is a constant,
/// every other pair a variable, and transitivity clauses over every
/// milestone triple, the constants folded in, make the pairs a strict
/// total order.
struct Encoder {
    /// Milestone index → (transaction index, step).
    milestones: Vec<(usize, StepId)>,
    /// The order of each milestone pair `a < b`, at its triangular index.
    pairs: Vec<Order>,
    sections: Vec<Section>,
}

impl Encoder {
    /// The encoder and its core formula, which each check extends.
    fn new(sys: &TxnSystem) -> Result<(Self, Cnf), SatCheckError> {
        nodes_of(sys)?;
        let locked: Vec<(usize, EntityId)> = (sys.txns().iter().enumerate())
            .flat_map(|(i, t)| t.locked_entities().into_iter().map(move |e| (i, e)))
            .collect();
        let mut lockers = vec![0usize; sys.db().entity_count()];
        for &(_, e) in &locked {
            lockers[e.idx()] += 1;
        }
        let mut milestones = Vec::new();
        let mut sections = Vec::new();
        for &(i, e) in locked.iter().filter(|(_, e)| lockers[e.idx()] >= 2) {
            let t = sys.txn(TxnId::from_idx(i));
            let lock_m = milestones.len();
            milestones.push((i, t.lock_step(e).expect("admitted")));
            let unlock_m = milestones.len();
            milestones.push((i, t.unlock_step(e).expect("admitted")));
            sections.push(Section {
                txn: i,
                entity: e,
                lock_m,
                unlock_m,
            });
        }
        let m = milestones.len();
        let mut pairs = Vec::with_capacity(m * m.saturating_sub(1) / 2);
        let mut vars = 0usize;
        for a in 0..m {
            for b in (a + 1)..m {
                let ((ta, sa), (tb, sb)) = (milestones[a], milestones[b]);
                let t = sys.txn(TxnId::from_idx(ta));
                pairs.push(if ta == tb && t.precedes(sa, sb) {
                    Order::Fixed(true)
                } else if ta == tb && t.precedes(sb, sa) {
                    Order::Fixed(false)
                } else {
                    vars += 1;
                    Order::Free(Lit::pos(Var(vars as u32 - 1)))
                });
            }
        }
        let enc = Encoder {
            milestones,
            pairs,
            sections,
        };
        let mut cnf = Cnf::new(vars);
        for a in 0..m {
            for b in (a + 1)..m {
                let ab = enc.order(a, b);
                for c in (b + 1)..m {
                    let (bc, ac) = (enc.order(b, c), enc.order(a, c));
                    add_folded(&mut cnf, [ab.negated(), bc.negated(), ac]);
                    add_folded(&mut cnf, [ab, bc, ac.negated()]);
                }
            }
        }
        Ok((enc, cnf))
    }

    /// How milestone `a` stands against milestone `b`.
    fn order(&self, a: usize, b: usize) -> Order {
        let m = self.milestones.len();
        let (lo, hi) = (a.min(b), a.max(b));
        let pair = self.pairs[lo * (2 * m - lo - 1) / 2 + (hi - lo - 1)];
        if a < b {
            pair
        } else {
            pair.negated()
        }
    }

    /// Literal meaning "milestone `a` precedes milestone `b`", for
    /// milestones of distinct transactions: no constant orders those.
    fn before(&self, a: usize, b: usize) -> Lit {
        match self.order(a, b) {
            Order::Free(lit) => lit,
            Order::Fixed(_) => unreachable!("only one transaction's DAG fixes an order"),
        }
    }

    /// The section transaction `txn` holds on entity `e`.
    fn section(&self, txn: usize, e: EntityId) -> Section {
        *(self.sections.iter())
            .find(|s| s.txn == txn && s.entity == e)
            .expect("a section of an entity two transactions lock")
    }

    /// Every unordered pair of same-entity sections of distinct
    /// transactions.
    fn entity_pairs(&self) -> impl Iterator<Item = (Section, Section)> + '_ {
        let sections = &self.sections;
        (0..sections.len()).flat_map(move |a| {
            sections[a + 1..]
                .iter()
                .filter(move |b| b.entity == sections[a].entity && b.txn != sections[a].txn)
                .map(move |&b| (sections[a], b))
        })
    }
}

/// Adds `terms` as one clause with the constants folded in: a true one
/// satisfies the clause, a false one drops out of it.
fn add_folded(cnf: &mut Cnf, terms: [Order; 3]) {
    if terms.iter().any(|t| matches!(t, Order::Fixed(true))) {
        return;
    }
    cnf.add_clause(terms.into_iter().filter_map(|t| match t {
        Order::Free(lit) => Some(lit),
        Order::Fixed(_) => None,
    }));
}

/// Whether `sys` has a complete legal non-serializable schedule, by the
/// k-transaction order encoding: same-entity sections of distinct
/// transactions never overlap, and selectors pick realized conflict edges
/// in which every tail has an incoming edge; solved once.
pub(crate) fn unsafe_by_encoder(sys: &TxnSystem) -> Result<bool, SatCheckError> {
    let (enc, mut cnf) = Encoder::new(sys)?;
    for (a, b) in enc.entity_pairs() {
        cnf.add_clause([
            enc.before(a.unlock_m, b.lock_m),
            enc.before(b.unlock_m, a.lock_m),
        ]);
    }
    let mut candidates: Vec<(usize, usize, Vec<EntityId>)> = Vec::new();
    for i in 0..sys.len() {
        for j in (0..sys.len()).filter(|&j| j != i) {
            let shared = sys.shared_locked_entities(TxnId::from_idx(i), TxnId::from_idx(j));
            if !shared.is_empty() {
                candidates.push((i, j, shared));
            }
        }
    }
    if candidates.is_empty() {
        return Ok(false);
    }
    let sel_base = cnf.num_vars;
    cnf.num_vars += candidates.len();
    let sel = |idx: usize| Var((sel_base + idx) as u32);
    for (idx, (i, j, shared)) in candidates.iter().enumerate() {
        let realized = shared.iter().map(|&e| {
            let (si, sj) = (enc.section(*i, e), enc.section(*j, e));
            enc.before(si.unlock_m, sj.lock_m)
        });
        cnf.add_clause(std::iter::once(Lit::neg(sel(idx))).chain(realized));
        let incoming = (candidates.iter().enumerate())
            .filter(|(_, (_, kj, _))| kj == i)
            .map(|(kidx, _)| Lit::pos(sel(kidx)));
        cnf.add_clause(std::iter::once(Lit::neg(sel(idx))).chain(incoming));
    }
    cnf.add_clause((0..candidates.len()).map(|idx| Lit::pos(sel(idx))));
    Ok(kplock_sat::solve(&cnf).is_sat())
}

/// Whether some legal prefix of `sys` stalls every remaining step, by the
/// k-transaction order encoding: an executed flag per step closed
/// downward over the DAGs and linked to the milestone order, a holder flag
/// per section, and one clause per step saying "executed, or missing a
/// predecessor, or blocked"; solved once.
pub(crate) fn deadlocks_by_encoder(sys: &TxnSystem) -> Result<bool, SatCheckError> {
    let (enc, mut cnf) = Encoder::new(sys)?;
    let offsets: Vec<usize> = std::iter::once(0)
        .chain(sys.txns().iter().scan(0, |end, t| {
            *end += t.len();
            Some(*end)
        }))
        .collect();
    let total = offsets[sys.len()];
    let x_base = cnf.num_vars;
    let h_base = x_base + total;
    cnf.num_vars += total + enc.sections.len();
    let x = |t: usize, s: StepId| Var((x_base + offsets[t] + s.idx()) as u32);
    let ran = |m: usize| {
        let (t, s) = enc.milestones[m];
        x(t, s)
    };
    let h = |sec: usize| Var((h_base + sec) as u32);
    for (t, txn) in sys.txns().iter().enumerate() {
        for v in 0..txn.len() {
            for &p in txn.edge_graph().predecessors(v) {
                let (s, p) = (StepId::from_idx(v), StepId::from_idx(p));
                cnf.add_clause([Lit::neg(x(t, s)), Lit::pos(x(t, p))]);
            }
        }
    }
    for (a, b) in enc.entity_pairs() {
        // If both locks ran, the sections are disjoint and ordered.
        cnf.add_clause([
            Lit::neg(ran(a.lock_m)),
            Lit::neg(ran(b.lock_m)),
            enc.before(a.unlock_m, b.lock_m),
            enc.before(b.unlock_m, a.lock_m),
        ]);
        // A section ordered before a lock that ran has unlocked.
        cnf.add_clause([
            enc.before(a.unlock_m, b.lock_m).negated(),
            Lit::neg(ran(b.lock_m)),
            Lit::pos(ran(a.unlock_m)),
        ]);
        cnf.add_clause([
            enc.before(b.unlock_m, a.lock_m).negated(),
            Lit::neg(ran(a.lock_m)),
            Lit::pos(ran(b.unlock_m)),
        ]);
    }
    for (idx, sec) in enc.sections.iter().enumerate() {
        cnf.add_clause([Lit::neg(h(idx)), Lit::pos(ran(sec.lock_m))]);
        cnf.add_clause([Lit::neg(h(idx)), Lit::neg(ran(sec.unlock_m))]);
    }
    for (t, txn) in sys.txns().iter().enumerate() {
        for v in 0..txn.len() {
            let s = StepId::from_idx(v);
            let missing = (txn.edge_graph().predecessors(v).iter())
                .map(|&p| Lit::neg(x(t, StepId::from_idx(p))));
            let step = txn.step(s);
            let blockers = (enc.sections.iter().enumerate())
                .filter(|(_, sec)| {
                    step.kind == ActionKind::Lock && sec.txn != t && sec.entity == step.entity
                })
                .map(|(idx, _)| Lit::pos(h(idx)));
            cnf.add_clause(
                std::iter::once(Lit::pos(x(t, s)))
                    .chain(missing)
                    .chain(blockers),
            );
        }
    }
    cnf.add_clause((x_base..x_base + total).map(|v| Lit::neg(Var(v as u32))));
    Ok(kplock_sat::solve(&cnf).is_sat())
}

/// The witness as it was sorted before the merge: Kahn's sort
/// (`kplock_graph::topo_sort`, smallest node first) of the steps of `txns`,
/// numbered one transaction after the other, under their DAGs plus every
/// node's section arc `orient` picks, kept to the steps `executed` keeps
/// and the arcs between them, as a schedule with `txns[t]` as `TxnId(t)`.
pub(crate) fn schedule_by_sort(
    txns: &[&Transaction],
    nodes: &[Node],
    orient: impl Fn(usize) -> bool,
    executed: impl Fn(usize) -> bool,
) -> Result<Schedule, SatCheckError> {
    let offsets: Vec<usize> = std::iter::once(0)
        .chain(txns.iter().scan(0, |end, t| {
            *end += t.len();
            Some(*end)
        }))
        .collect();
    let dags = txns.iter().zip(&offsets).flat_map(|(t, &base)| {
        t.edge_graph()
            .edges()
            .map(move |(u, v)| (base + u, base + v))
    });
    let sections = nodes.iter().enumerate().map(|(p, node)| {
        let (first, second) = if orient(p) {
            (node.sides[0], node.sides[1])
        } else {
            (node.sides[1], node.sides[0])
        };
        (
            offsets[first.txn] + first.unlock.idx(),
            offsets[second.txn] + second.lock.idx(),
        )
    });
    let arcs = dags
        .chain(sections)
        .filter(|&(u, v)| executed(u) && executed(v));
    let order =
        topo_sort(&DiGraph::from_edges(offsets[txns.len()], arcs)).ok_or_else(cycle_error)?;
    let steps = (order.into_iter())
        .filter(|&v| executed(v))
        .map(|v| {
            let t = offsets.partition_point(|&o| o <= v) - 1;
            ScheduledStep {
                txn: TxnId::from_idx(t),
                step: StepId::from_idx(v - offsets[t]),
            }
        })
        .collect();
    Ok(Schedule::new(steps))
}

/// Transaction `t`'s steps in the order `kplock_graph::topo_sort` gives
/// them, for the tests that draw downward-closed step sets.
pub(crate) fn topological_order(t: &Transaction) -> Vec<usize> {
    topo_sort(t.edge_graph()).expect("a DAG")
}

/// The walk's entry for a step that is no milestone.
const NO_MILESTONE: u32 = u32::MAX;

/// [`prefix_formula`] on a pair as it was written before the closures:
/// each milestone's nearest milestone predecessors come from a walk up its
/// DAG that stops at milestones, which finds them and maybe more, filtered
/// to the milestones it found that no other one it found follows (a
/// `precedes` query per pair of finds). Then the same clauses in the same
/// order, the formula growing clause by clause. Shared entity `i` of the
/// pair has the milestones `4i` to `4i + 3`: `a`'s lock and unlock, then
/// `b`'s.
pub(crate) fn pair_prefix_formula_by_walk(
    txns: (&Transaction, &Transaction),
    nodes: &[Node],
) -> Cnf {
    let n = nodes.len();
    let at = |m: usize| {
        let side = nodes[m / 4].sides[m % 4 / 2];
        let t = [txns.0, txns.1][side.txn];
        let base = if side.txn == 0 { 0 } else { txns.0.len() };
        (t, base, [side.lock, side.unlock][m % 2])
    };
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
