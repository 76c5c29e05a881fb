//! Exact safety and deadlock decision by reduction *to* SAT.
//!
//! [`crate::reduction`] is the paper's Theorem 3 — CNF formulas become
//! two-transaction locking systems, proving unsafety NP-hard. This module
//! closes the equivalence from the other side: a [`TxnSystem`] becomes a
//! CNF formula whose models are exactly the reachable unsafe (or
//! deadlocked) states, decided by our own DPLL ([`kplock_sat`]). Unlike
//! the exhaustive oracle ([`crate::oracle::decide_exhaustive`]), which
//! enumerates interleavings state-by-state and is hard-capped at 8
//! transactions, the encoding is polynomial in the system size (the
//! search is the solver's job), and unlike the greedy
//! [`AvoidPlan`] it is exact, not conservative.
//!
//! # The section graph
//!
//! Both checks decide a system of any number of transactions over its
//! *nodes*: the pairs of sections of two transactions on an entity both
//! lock. A complete legal schedule is fixed, up to interleaving, by one
//! choice per node, whose section runs first; the node's orientation `o_p`
//! is true when the lower-numbered transaction's does. Nodes are numbered
//! by entity, then by transaction pair, so the nodes of a pair are its
//! shared entities in ascending order, the vertices of `D(T1, T2)`. Such a
//! schedule exists exactly when the precedence DAGs plus the section arcs
//! (each node's first unlock before its second lock) are acyclic. A cycle
//! there cannot stay inside one DAG, so it alternates through section
//! arcs: it enters a transaction `T` at its lock of a node `p` where `T`
//! locks second, and leaves it from its unlock of a node `q` where `T`
//! unlocks first, which needs `L_T(p) ≺_T U_T(q)` (`precedes`, the full
//! closure, so a path through a section no other transaction shares counts
//! too). So the union is acyclic exactly when the *section graph* on the
//! nodes is, with that arc `p → q`, and an arc depends on the two
//! orientations alone. The nodes of one entity are held to one order of
//! its sections by it too: a cyclic choice among three is a cycle.
//!
//! A 2-cycle `p → q → p` runs through both transactions of `p`, so `q` is a
//! node of the same pair, and with `p`'s lower transaction first it needs
//! `L_b(p) ≺_b U_b(q)` and `L_a(q) ≺_a U_a(p)`: `D`'s arc `q → p`, which the
//! clause `¬o_p ∨ o_q` forbids. Those clauses say that the entities each
//! pair runs lower transaction first are a dominator of its `D`; a longer
//! cycle is cut lazily (Corollary 2's closure meets it round by round):
//! each model's section graph goes into a [`CycleTest`], and while it has a
//! cycle the clause forbidding that cycle's orientations is added and the
//! formula solved again.
//!
//! [`check_safety`] asks for a complete schedule whose serialization graph
//! is cyclic. Selector variables pick conflict edges `Ti → Tj`, each
//! realized by a node that runs `Ti`'s section first, such that every
//! selected edge's tail has a selected incoming edge; in a finite graph
//! such a set holds a cycle, and every cycle is such a set. With two
//! transactions both selectors are forced, and their clauses fold to two
//! that make the orientation *mixed*: some node oriented each way. Fewer
//! than two nodes is safe without solving.
//!
//! [`check_deadlock`] decides over the same orientations, restricted to the
//! *milestones* a prefix has executed: the lock and unlock steps of the
//! nodes' sections. Only a lock on an entity another transaction locks can
//! be blocked, so in a stalled prefix a step that is no milestone has run
//! exactly when every milestone before it has, and needs no variable.
//! Missing flags `M(m)`, true when milestone `m` has not run, number first.
//! They mean "missing" rather than "executed" because the solver starts
//! every variable at phase `true`, so its first descent starts from the
//! empty prefix instead of running every milestone and backing out through
//! the stall clauses; the sign is all that differs, and models map one to
//! one. A missing milestone makes missing every milestone it is a nearest
//! milestone predecessor of: a milestone that precedes it, by the
//! transaction's cached closure, and precedes no other milestone that
//! does. *Legality* lets a node's second section lock only once its first
//! has unlocked. An arc of the section graph needs both sections of both
//! its nodes locked, which its orientations reduce to the second lock of
//! its head, so a 2-cycle clause gains the second lock of both nodes and a
//! cut the second lock of each node on the cycle; the alternation argument
//! holds as before, because a DAG path that ends at an executed step runs
//! through executed steps only. The *stall* is, per milestone, "ran, or
//! missing a nearest milestone predecessor, or a lock on `x` another
//! transaction holds", and "some milestone missing". Where one other
//! transaction locks `x` its holding is written inline, two clauses: its
//! lock of `x` ran and its unlock did not. Where two or more do, a holder
//! variable per section implies both. A pair has `5n` variables over `n`
//! shared entities, however long the transactions are.
//!
//! A model's witness is Kahn's sort, smallest step first, of the DAGs plus
//! the section arcs between consecutive sections of each entity in the
//! order the orientations give them, run as a merge of the transactions:
//! in-degree counts over their DAG rows and at most one section arc per
//! unlock step, with no graph built. A prefix keeps the steps no milestone
//! at or before which is missing. The schedule is re-verified against the
//! model-level definitions ([`Schedule::validate_complete`],
//! [`kplock_model::is_serializable`], oracle-style enabledness), so a
//! witness is never taken on the encoding's word alone. `crates/sim`
//! replays these witnesses through the lock-table machinery for the
//! dynamic half of the story. [`crate::multisite::decide_multisite`] ends
//! in the safety check of a pair.
//!
//! The checker mirrors the oracle's mode-blind contention rule (any
//! holder blocks a lock request), which coincides with write-aware
//! serializability only when every access is exclusive, so both checks
//! refuse systems using shared modes up front with a typed error — as
//! well as systems whose updates stray outside their entity's lock
//! section, where section-level ordering stops determining access-level
//! conflicts. Admission reads each transaction's steps twice, into a
//! flat table of its lock and unlock steps per entity, and the nodes come
//! off the tables.
//!
//! # Optimal certificates
//!
//! [`synthesize_optimal`] reuses the machinery for the avoidance arm: a
//! transaction set is certifiable iff the union of its hold-while-request
//! edges embeds in a total entity order, which is one selection variable
//! per transaction, one ordering variable per entity pair, and a
//! cardinality bound ([`kplock_sat::at_least_k`]). Iterating the bound
//! upward from the greedy count finds a *maximum* certifiable set and
//! quantifies exactly how conservative declaration-order greediness is.

use std::borrow::Borrow;
use std::fmt;

use kplock_graph::CycleTest;
use kplock_model::{
    is_serializable, ActionKind, EntityId, LockMode, ModelError, Schedule, ScheduledStep, StepId,
    Transaction, TxnId, TxnSystem,
};
use kplock_sat::{at_least_k, Cnf, Lit, SatResult, Solver, Var};

use crate::avoid::{hold_request_edges, AvoidPlan};
use crate::conflict_graph::Sections;

/// Why a system was refused (or a model failed to decode).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatCheckError {
    /// A lock or update step uses [`LockMode::Shared`]. The encoding
    /// mirrors the oracle's mode-blind semantics, which match
    /// serializability only for exclusive-only systems.
    SharedMode { txn: TxnId, step: StepId },
    /// A transaction fails Locking-level well-formedness.
    Invalid { txn: TxnId, error: ModelError },
    /// An update step lies outside its entity's lock/unlock section, so
    /// section disjointness would not govern its conflicts.
    UnprotectedUpdate { txn: TxnId, step: StepId },
    /// Internal: a satisfying model did not decode into a witness passing
    /// independent re-verification. Indicates an encoder bug.
    WitnessDecode(String),
}

impl fmt::Display for SatCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SatCheckError::SharedMode { txn, step } => {
                write!(f, "step {step} of {txn} uses a shared mode; the SAT checker decides exclusive-only systems")
            }
            SatCheckError::Invalid { txn, error } => {
                write!(f, "transaction {txn} is not well-formed: {error}")
            }
            SatCheckError::UnprotectedUpdate { txn, step } => {
                write!(
                    f,
                    "update step {step} of {txn} lies outside its lock section"
                )
            }
            SatCheckError::WitnessDecode(why) => {
                write!(f, "internal error: model failed witness decoding: {why}")
            }
        }
    }
}

impl std::error::Error for SatCheckError {}

/// Formula size and solver effort for one decision.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncodingStats {
    /// Total variables: the orientations, then the selectors, or the
    /// missing flags and holders, the check adds.
    pub vars: usize,
    /// Total clauses, with the cuts.
    pub clauses: usize,
    /// DPLL branching decisions, summed over every solve.
    pub decisions: u64,
    /// Unit propagations, summed over every solve.
    pub propagations: u64,
    /// Solver runs: one, and one more per cut, or none where nothing needs
    /// solving.
    pub solves: u64,
}

/// Verdict of [`check_safety`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatSafety {
    /// Every complete legal schedule is serializable.
    Safe,
    /// A complete legal non-serializable schedule exists; here is one,
    /// verified against [`kplock_model::is_serializable`].
    Unsafe(Schedule),
}

impl SatSafety {
    /// True for the [`SatSafety::Safe`] verdict.
    pub fn is_safe(&self) -> bool {
        matches!(self, SatSafety::Safe)
    }
}

/// Result of [`check_safety`].
#[derive(Clone, Debug)]
pub struct SafetyCheck {
    /// The verdict, with a replayable witness when unsafe.
    pub verdict: SatSafety,
    /// Encoding size and solver effort.
    pub stats: EncodingStats,
}

/// Result of [`check_deadlock`].
#[derive(Clone, Debug)]
pub struct DeadlockCheck {
    /// A legal prefix from which no step is enabled (verified by an
    /// oracle-style stall recheck), or `None` if no such prefix exists.
    pub deadlock: Option<Schedule>,
    /// Encoding size and solver effort.
    pub stats: EncodingStats,
}

/// A maximum certifiable transaction set, next to the greedy baseline.
#[derive(Clone, Debug)]
pub struct OptimalCertificate {
    /// Plan certifying a *maximum* jointly-certifiable set (restricted
    /// synthesis over the SAT-selected transactions).
    pub plan: AvoidPlan,
    /// What declaration-order greedy synthesis certifies.
    pub greedy_count: usize,
    /// The optimum; always ≥ `greedy_count`.
    pub optimal_count: usize,
    /// SAT invocations spent raising the cardinality bound.
    pub sat_calls: usize,
}

/// [`admit`]'s entry for a lock or unlock step a transaction does not have.
const NO_STEP: u32 = u32::MAX;

/// Refuses a transaction neither check models faithfully: one that is
/// not well-formed at [`kplock_model::Level::Locking`], locks in a shared
/// mode, or updates outside its entity's lock section. The error is the
/// first [`kplock_model::validate`] gives, else the first a scan of the
/// steps in order meets. Leaves in `ends[e]` the transaction's lock and
/// unlock step of entity `e` ([`NO_STEP`] where it has none); `chains` is
/// scratch room.
///
/// One pass over the steps fills `ends` and checks that each site's steps
/// form a chain: a step that follows the site's last step so far, or
/// precedes its first, is ordered against all of them. A step that does
/// neither leaves the verdict, and the pair to blame, to
/// [`kplock_model::validate::validate_site_totality`]. A second pass finds
/// the unmatched or inverted lock pair of the smallest entity, and the
/// first shared or unprotected step.
fn admit(
    sys: &TxnSystem,
    txn: TxnId,
    ends: &mut [[u32; 2]],
    chains: &mut Vec<[u32; 2]>,
) -> Result<(), SatCheckError> {
    let (db, t) = (sys.db(), sys.txn(txn));
    let invalid = |error| SatCheckError::Invalid { txn, error };
    let step = |v: u32| StepId::from_idx(v as usize);
    ends.fill([NO_STEP; 2]);
    chains.clear();
    chains.resize(db.site_count(), [NO_STEP; 2]);
    let mut chained = true;
    for (v, s) in t.steps().iter().enumerate() {
        let v = v as u32;
        match s.kind {
            ActionKind::Lock => ends[s.entity.idx()][0] = v,
            ActionKind::Unlock => ends[s.entity.idx()][1] = v,
            ActionKind::Update => {}
        }
        if chained {
            let [first, last] = &mut chains[db.site_of(s.entity).idx()];
            if *first == NO_STEP {
                (*first, *last) = (v, v);
            } else if t.precedes(step(*last), step(v)) {
                *last = v;
            } else if t.precedes(step(v), step(*first)) {
                *first = v;
            } else {
                chained = false;
            }
        }
    }
    if !chained {
        kplock_model::validate::validate_site_totality(db, t).map_err(invalid)?;
    }
    // The lock pair `validate` would blame, by entity, and the first step
    // the SAT checker refuses.
    let mut pair_error: Option<(EntityId, ModelError)> = None;
    let mut step_error = None;
    for (v, s) in t.steps().iter().enumerate() {
        let (sid, e) = (StepId::from_idx(v), s.entity);
        let [lock, unlock] = ends[e.idx()];
        let unpaired = match s.kind {
            ActionKind::Lock if unlock == NO_STEP => Some(ModelError::UnmatchedLockPair(e)),
            ActionKind::Lock if !t.precedes(sid, step(unlock)) => {
                Some(ModelError::UnlockBeforeLock(e))
            }
            ActionKind::Unlock if lock == NO_STEP => Some(ModelError::UnmatchedLockPair(e)),
            _ => None,
        };
        if let Some(error) = unpaired.filter(|_| pair_error.as_ref().is_none_or(|(f, _)| e < *f)) {
            pair_error = Some((e, error));
        }
        if step_error.is_some() {
            continue;
        }
        if s.kind != ActionKind::Unlock && s.mode == LockMode::Shared {
            step_error = Some(SatCheckError::SharedMode { txn, step: sid });
        } else if s.kind == ActionKind::Update
            && !(lock != NO_STEP
                && unlock != NO_STEP
                && t.precedes(step(lock), sid)
                && t.precedes(sid, step(unlock)))
        {
            step_error = Some(SatCheckError::UnprotectedUpdate { txn, step: sid });
        }
    }
    match (pair_error, step_error) {
        (Some((_, error)), _) => Err(invalid(error)),
        (None, Some(error)) => Err(error),
        (None, None) => Ok(()),
    }
}

/// A node of the section graph: the sections of two transactions on an
/// entity both lock, side `a` (`sides[0]`) the lower-numbered
/// transaction's. Sections are numbered by entity, then by transaction,
/// and section `s` has the deadlock check's milestones `2s`, its lock, and
/// `2s + 1`, its unlock.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Node {
    entity: EntityId,
    pub(crate) sides: [Side; 2],
}

/// One side of a node: a transaction's section on the node's entity.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Side {
    pub(crate) section: usize,
    pub(crate) txn: usize,
    pub(crate) lock: StepId,
    pub(crate) unlock: StepId,
}

impl Node {
    /// Its two transactions, `a`'s first.
    fn txns(&self) -> [usize; 2] {
        self.sides.map(|s| s.txn)
    }

    /// The side whose section runs second when `a_first` says whether
    /// `a`'s runs first.
    fn second(&self, a_first: bool) -> Side {
        self.sides[usize::from(a_first)]
    }
}

/// The nodes of one entity: the pairs of its `sections` sections in order,
/// `(0, 1), (0, 2), …, (c − 2, c − 1)`, the first of them node `base`.
#[derive(Clone, Copy)]
struct Run<'n> {
    base: usize,
    sections: usize,
    nodes: &'n [Node],
}

impl Run<'_> {
    /// The run's section `i`.
    fn side(&self, i: usize) -> Side {
        match i {
            0 => self.nodes[0].sides[0],
            _ => self.nodes[i - 1].sides[1],
        }
    }

    /// Whether the run's section `i` runs before its section `j` when
    /// node `p`'s orientation is `orient(p)`.
    fn before(&self, i: usize, j: usize, orient: &impl Fn(usize) -> bool) -> bool {
        let (lo, hi, c) = (i.min(j), i.max(j), self.sections);
        orient(self.base + lo * (2 * c - lo - 1) / 2 + (hi - lo - 1)) == (i < j)
    }
}

/// The runs of `nodes`, entity by entity.
fn runs(nodes: &[Node]) -> impl Iterator<Item = Run<'_>> {
    nodes
        .chunk_by(|p, q| p.entity == q.entity)
        .scan(0, |base, nodes| {
            let first = nodes[0].sides[0].section;
            let run = Run {
                base: *base,
                sections: nodes[nodes.len() - 1].sides[1].section - first + 1,
                nodes,
            };
            *base += nodes.len();
            Some(run)
        })
}

/// Every section of `nodes` once, in order.
pub(crate) fn sides(nodes: &[Node]) -> impl Iterator<Item = Side> + '_ {
    runs(nodes).flat_map(|run| (0..run.sections).map(move |i| run.side(i)))
}

/// The deadlock check's milestones: two per section.
fn milestone_count(nodes: &[Node]) -> usize {
    nodes.last().map_or(0, |p| 2 * (p.sides[1].section + 1))
}

/// Admits every transaction of `sys` ([`admit`]) and returns the section
/// graph's nodes, read off the transactions' lock and unlock steps per
/// entity.
pub(crate) fn nodes_of(sys: &TxnSystem) -> Result<Vec<Node>, SatCheckError> {
    let (k, n_e) = (sys.len(), sys.db().entity_count());
    let (mut ends, mut chains) = (vec![[NO_STEP; 2]; k * n_e], Vec::new());
    for t in 0..k {
        admit(
            sys,
            TxnId::from_idx(t),
            &mut ends[t * n_e..][..n_e],
            &mut chains,
        )?;
    }
    let ends = &ends;
    let lockers = |e: usize| (0..k).filter(move |&t| ends[t * n_e + e][0] != NO_STEP);
    let pairs = |c: usize| c * c.saturating_sub(1) / 2;
    let mut nodes = Vec::with_capacity((0..n_e).map(|e| pairs(lockers(e).count())).sum());
    let step = |v: u32| StepId::from_idx(v as usize);
    // The number of entity `e`'s first section.
    let mut first = 0;
    for e in 0..n_e {
        for (i, a) in lockers(e).enumerate() {
            for (j, b) in lockers(e).enumerate().skip(i + 1) {
                let side = |t: usize, section: usize| {
                    let [lock, unlock] = ends[t * n_e + e];
                    Side {
                        section,
                        txn: t,
                        lock: step(lock),
                        unlock: step(unlock),
                    }
                };
                nodes.push(Node {
                    entity: EntityId::from_idx(e),
                    sides: [side(a, first + i), side(b, first + j)],
                });
            }
        }
        let c = lockers(e).count();
        if c >= 2 {
            first += c;
        }
    }
    Ok(nodes)
}

/// Transaction `t`'s step `s` as a step of `txns`, numbered after every
/// step of the transactions before `t`.
fn step_number<T: Borrow<Transaction>>(txns: &[T], t: usize, s: StepId) -> usize {
    txns[..t].iter().map(|x| x.borrow().len()).sum::<usize>() + s.idx()
}

/// The transaction and step of step `v` of `txns` ([`step_number`]).
fn locate<T: Borrow<Transaction>>(txns: &[T], v: usize) -> (usize, usize) {
    let mut base = 0;
    for (t, x) in txns.iter().enumerate() {
        let len = x.borrow().len();
        if v < base + len {
            return (t, v - base);
        }
        base += len;
    }
    panic!("step {v} lies past the last transaction's")
}

/// One arc the section graph may have: `x → y`, there when `o_x == ox` and
/// `o_y == oy`. `two_cycle` marks an arc with `ox` true whose reverse
/// `y → x` exists under the same orientations: a 2-cycle, `D`'s arc
/// `y → x`.
#[derive(Clone, Copy)]
struct SectionArc {
    x: u32,
    y: u32,
    ox: bool,
    oy: bool,
    two_cycle: bool,
}

/// The arcs some orientation gives the section graph over `nodes`: per
/// node `x`, per other node `y`, the arc through the transaction that
/// locks second on `x` when `o_x` is true (`x`'s side `b`) and unlocks
/// first on `y`, then the one through `x`'s side `a`. Counted first, so
/// that the list is allocated once at its size and a formula can make
/// room for [`solve_sections`]' 2-cycle clauses before it is written.
struct SectionArcs {
    arcs: Vec<SectionArc>,
    /// How many of the arcs close a 2-cycle.
    two_cycles: usize,
    /// The section graph's nodes.
    nodes: usize,
}

impl SectionArcs {
    fn of<T: Borrow<Transaction>>(txns: &[T], nodes: &[Node]) -> Self {
        let between = |x: usize, y: usize| {
            let (p, q) = (&nodes[x], &nodes[y]);
            [true, false].into_iter().filter_map(move |ox| {
                let into = p.second(ox);
                // The same transaction's side of `y`, which runs first when
                // `o_y` is true exactly if it is side `a`.
                let side = (0..2).find(|&s| q.sides[s].txn == into.txn)?;
                let out = q.sides[side];
                let txn = txns[into.txn].borrow();
                txn.precedes(into.lock, out.unlock).then(|| {
                    let ta = txns[p.sides[0].txn].borrow();
                    SectionArc {
                        x: x as u32,
                        y: y as u32,
                        ox,
                        oy: side == 0,
                        two_cycle: ox
                            && q.txns() == p.txns()
                            && ta.precedes(q.sides[0].lock, p.sides[0].unlock),
                    }
                })
            })
        };
        let n = nodes.len();
        let arcs = || {
            (0..n)
                .flat_map(move |x| (0..n).filter(move |&y| y != x).map(move |y| (x, y)))
                .flat_map(move |(x, y)| between(x, y))
        };
        let (mut len, mut two_cycles) = (0, 0);
        for arc in arcs() {
            len += 1;
            two_cycles += usize::from(arc.two_cycle);
        }
        let mut list = Vec::with_capacity(len);
        list.extend(arcs());
        SectionArcs {
            arcs: list,
            two_cycles,
            nodes: n,
        }
    }
}

/// The search both checks share. `cnf` holds the orientation `o_p` of
/// node `p` (its side `a` runs first) at variable `base + p`, and what the
/// check needs besides; this adds the section graph, whose possible arcs
/// are `arcs`. On a prefix an arc into `y` also needs the literal
/// `second(y, o_y)` true, the lock of `y`'s second section (a complete
/// schedule passes `None`). Each 2-cycle gets a clause; then solve, lay the
/// model's arcs out in a [`CycleTest`], and while they have a cycle add the
/// clause forbidding its orientations and second locks and solve again.
/// Returns a model whose section graph is acyclic, if there is one, and
/// the effort summed over every solve.
fn solve_sections(
    cnf: &mut Cnf,
    arcs: &SectionArcs,
    base: usize,
    second: impl Fn(usize, bool) -> Option<Lit>,
) -> (Option<Vec<bool>>, EncodingStats) {
    let orient = |x: usize| Var((base + x) as u32);
    let unless = |lit: Option<Lit>| lit.map(Lit::negated);
    // A 2-cycle with `o_x` true is `D`'s arc `y → x`.
    for arc in arcs.arcs.iter().filter(|arc| arc.two_cycle) {
        let (x, y) = (arc.x as usize, arc.y as usize);
        let guards = unless(second(y, arc.oy))
            .into_iter()
            .chain(unless(second(x, arc.ox)));
        cnf.add_clause(
            [Lit::new(orient(x), !arc.ox), Lit::new(orient(y), !arc.oy)]
                .into_iter()
                .chain(guards),
        );
    }
    let mut stats = EncodingStats::default();
    let mut graph = CycleTest::default();
    let model = loop {
        let mut solver = Solver::new(cnf);
        let result = solver.solve();
        stats.solves += 1;
        stats.decisions += solver.decisions;
        stats.propagations += solver.propagations;
        let SatResult::Sat(model) = result else {
            break None;
        };
        let o = |x: usize| model[base + x];
        let holds = |lit: Option<Lit>| lit.is_none_or(|l| model[l.var().idx()] == l.is_positive());
        graph.clear();
        for arc in &arcs.arcs {
            let (x, y) = (arc.x as usize, arc.y as usize);
            if o(x) == arc.ox && o(y) == arc.oy && holds(second(y, o(y))) {
                graph.arc(arc.x, arc.y, 0);
            }
        }
        if !graph.has_cycle(arcs.nodes) {
            break Some(model);
        }
        let cut = graph.find_cycle(|_| 0).iter().flat_map(|&v| {
            let v = v as usize;
            [Lit::new(orient(v), !o(v))]
                .into_iter()
                .chain(unless(second(v, o(v))))
        });
        cnf.add_clause(cut);
    };
    stats.vars = cnf.num_vars;
    stats.clauses = cnf.num_clauses();
    (model, stats)
}

/// The witness: Kahn's sort, smallest node first, of the steps of `txns`
/// that `executed` keeps ([`step_number`]), under the DAGs plus, per
/// entity, an arc from the unlock of each section whose lock is kept to
/// the lock of the next such section in the order `orient` gives them, as
/// a schedule with `txns[t]` as `TxnId(t)`. An arc is kept when both its
/// ends are. On a model the orientations of an entity's kept sections are
/// an order, since a cyclic choice is a cycle of the section graph, so the
/// arcs between consecutive sections order every two of them.
///
/// A node's arcs are its DAG row and at most one section arc, which only
/// an unlock step has, so the sort counts in-degrees over those and takes
/// the smallest ready node off a bit set, with no graph built.
pub(crate) fn merge_schedule<T: Borrow<Transaction>>(
    txns: &[T],
    nodes: &[Node],
    orient: impl Fn(usize) -> bool,
    executed: impl Fn(usize) -> bool,
) -> Result<Schedule, SatCheckError> {
    let n = step_number(txns, txns.len(), StepId(0));
    let number = |s: Side, step: StepId| step_number(txns, s.txn, step);
    // Per node: its kept in-degree, then the head of its section arc.
    let mut node = vec![[0u32, NO_NODE]; n];
    for run in runs(nodes) {
        let c = run.sections;
        let locked = |i: usize| executed(number(run.side(i), run.side(i).lock));
        let before = |i: usize, j: usize| run.before(i, j, &orient);
        // The locked sections' places in the order, and each one's successor.
        let place = |i: usize| {
            (0..c)
                .filter(|&j| j != i && locked(j) && before(j, i))
                .count()
        };
        for i in (0..c).filter(|&i| locked(i)) {
            let after = place(i) + 1;
            let next = (0..c).find(|&j| j != i && locked(j) && before(i, j) && place(j) == after);
            let Some(j) = next else {
                continue;
            };
            let (u, v) = (
                number(run.side(i), run.side(i).unlock),
                number(run.side(j), run.side(j).lock),
            );
            if executed(u) && executed(v) {
                node[u][1] = v as u32;
                node[v][0] += 1;
            }
        }
    }
    // Step `u`'s DAG successors, numbered as steps of `txns`.
    let dag = |u: usize| {
        let (t, s) = locate(txns, u);
        let base = u - s;
        txns[t]
            .borrow()
            .edge_graph()
            .successors(s)
            .iter()
            .map(move |&v| base + v)
    };
    let mut kept = 0;
    for u in (0..n).filter(|&u| executed(u)) {
        kept += 1;
        for v in dag(u).filter(|&v| executed(v)) {
            node[v][0] += 1;
        }
    }
    let mut ready = vec![0u64; n.div_ceil(64)];
    for u in (0..n).filter(|&u| executed(u) && node[u][0] == 0) {
        ready[u / 64] |= 1 << (u % 64);
    }
    let mut steps = Vec::with_capacity(kept);
    while let Some(w) = ready.iter().position(|&bits| bits != 0) {
        let u = 64 * w + ready[w].trailing_zeros() as usize;
        ready[w] &= ready[w] - 1;
        let (txn, step) = locate(txns, u);
        steps.push(ScheduledStep {
            txn: TxnId::from_idx(txn),
            step: StepId::from_idx(step),
        });
        let section = (node[u][1] != NO_NODE).then_some(node[u][1] as usize);
        for v in dag(u).filter(|&v| executed(v)).chain(section) {
            node[v][0] -= 1;
            if node[v][0] == 0 {
                ready[v / 64] |= 1 << (v % 64);
            }
        }
    }
    if steps.len() < kept {
        return Err(cycle_error());
    }
    Ok(Schedule::new(steps))
}

/// A witness whose arcs and precedence DAGs form a cycle.
pub(crate) fn cycle_error() -> SatCheckError {
    SatCheckError::WitnessDecode("the witness's arcs and the precedence DAGs form a cycle".into())
}

/// [`merge_schedule`]'s entry for a step no section arc leaves.
const NO_NODE: u32 = u32::MAX;

/// [`cycle_formula`]'s entry for two transactions no node joins.
const NO_SELECTOR: u32 = u32::MAX;

/// The safety check's formula before the section graph: the orientation
/// `o_p` of node `p` at variable `p`, and a cycle in the serialization
/// graph. The selector of each ordered pair `i → j` of transactions a node
/// joins asserts that conflict edge: some node of theirs runs `i`'s section
/// first. Every selected edge's tail has a selected incoming edge, and
/// some edge is selected. With two transactions every cycle is theirs, so
/// both selectors are forced and the clauses fold to two: some node runs
/// each transaction's section first. Counted first and allocated once,
/// with room for `two_cycles` clauses of two literals, [`solve_sections`]'.
fn cycle_formula(k: usize, nodes: &[Node], two_cycles: usize) -> Cnf {
    let n = nodes.len();
    // Node `p`'s literal "transaction `i`'s section runs first".
    let first = |p: usize, i: usize| Lit::new(Var(p as u32), nodes[p].sides[0].txn == i);
    if k == 2 {
        let mut cnf = Cnf::with_capacity(n, 2 + two_cycles, 2 * n + 2 * two_cycles);
        for i in 0..2 {
            cnf.add_clause((0..n).map(|p| first(p, i)));
        }
        return cnf;
    }
    // The selector of `i → j` at `selector[i * k + j]`, numbered after the
    // orientations in row order.
    let mut selector = vec![NO_SELECTOR; k * k];
    for p in nodes {
        let [a, b] = p.txns();
        (selector[a * k + b], selector[b * k + a]) = (0, 0);
    }
    let mut edges = 0;
    for s in selector.iter_mut().filter(|s| **s != NO_SELECTOR) {
        *s = (n + edges) as u32;
        edges += 1;
    }
    let edge =
        |i: usize, j: usize| (selector[i * k + j] != NO_SELECTOR).then(|| Var(selector[i * k + j]));
    let selected =
        || (0..k).flat_map(move |i| (0..k).filter_map(move |j| edge(i, j).map(|s| (i, j, s))));
    let realized = |i: usize, j: usize| {
        let pair = [i.min(j), i.max(j)];
        (0..n)
            .filter(move |&p| nodes[p].txns() == pair)
            .map(move |p| first(p, i))
    };
    let into = |i: usize| (0..k).filter_map(move |l| edge(l, i)).map(Lit::pos);
    let clauses = 2 * edges + 1 + two_cycles;
    let mut lits = 3 * edges + 2 * two_cycles;
    for (i, j, _) in selected() {
        lits += realized(i, j).count() + into(i).count();
    }
    let mut cnf = Cnf::with_capacity(n + edges, clauses, lits);
    for (i, j, s) in selected() {
        cnf.add_clause(std::iter::once(Lit::neg(s)).chain(realized(i, j)));
        cnf.add_clause(std::iter::once(Lit::neg(s)).chain(into(i)));
    }
    cnf.add_clause(selected().map(|(_, _, s)| Lit::pos(s)));
    debug_assert_eq!(cnf.num_clauses() + two_cycles, clauses);
    cnf
}

/// Whether the transactions `txns`, admitted, have a complete legal
/// schedule that is not serializable, decided over their section graph's
/// `nodes` ([`nodes_of`], or `D`'s vertices for a pair), and an unverified
/// witness if so, with `txns[t]` as `TxnId(t)`, beside the model's
/// orientations: per node, whether its side `a` runs first, that is
/// whether the witness unlocks its entity in `a` before `b` locks it.
///
/// [`cycle_formula`] forces a serialization cycle, and [`solve_sections`]
/// keeps the section graph acyclic, so a model's orientations leave the
/// DAGs plus the section arcs acyclic and the schedule non-serializable.
fn unsafe_witness<T: Borrow<Transaction>>(
    txns: &[T],
    nodes: &[Node],
) -> Result<(Option<PairWitness>, EncodingStats), SatCheckError> {
    let n = nodes.len();
    // One node is one conflict edge, which makes no cycle.
    if n < 2 {
        return Ok((None, EncodingStats::default()));
    }
    let arcs = SectionArcs::of(txns, nodes);
    let mut cnf = cycle_formula(txns.len(), nodes, arcs.two_cycles);
    let (model, stats) = solve_sections(&mut cnf, &arcs, 0, |_, _| None);
    let Some(mut orient) = model else {
        return Ok((None, stats));
    };
    // The orientations come first; the selectors go.
    orient.truncate(n);
    let witness = merge_schedule(txns, nodes, |p| orient[p], |_| true)?;
    Ok((Some((witness, orient)), stats))
}

/// Decides whether some complete legal schedule of `sys` is
/// non-serializable, returning a verified witness schedule if so, over the
/// section graph (see the module doc).
///
/// Agrees with [`crate::oracle::decide_exhaustive`] on every system both
/// can decide (the triad proptests pin this).
pub fn check_safety(sys: &TxnSystem) -> Result<SafetyCheck, SatCheckError> {
    let nodes = nodes_of(sys)?;
    let (witness, stats) = unsafe_witness(sys.txns(), &nodes)?;
    let verdict = match witness {
        Some((schedule, _)) => SatSafety::Unsafe(verified_unsafe(sys, schedule)?),
        None => SatSafety::Safe,
    };
    Ok(SafetyCheck { verdict, stats })
}

/// Re-verifies a decoded safety witness against the model-level
/// definitions: a complete legal schedule that is not serializable.
fn verified_unsafe(sys: &TxnSystem, schedule: Schedule) -> Result<Schedule, SatCheckError> {
    schedule
        .validate_complete(sys)
        .map_err(|e| SatCheckError::WitnessDecode(format!("illegal witness: {e}")))?;
    if is_serializable(sys, &schedule) {
        return Err(SatCheckError::WitnessDecode(
            "decoded schedule is serializable".into(),
        ));
    }
    Ok(schedule)
}

/// Admits transactions `a` and `b` of `sys` ([`admit`]) and returns their
/// lock and unlock steps per entity, `a`'s entity `e` at `e` and `b`'s at
/// the entity count plus `e`.
pub(crate) fn admit_pair(
    sys: &TxnSystem,
    a: TxnId,
    b: TxnId,
) -> Result<Vec<[u32; 2]>, SatCheckError> {
    let n_e = sys.db().entity_count();
    let (mut ends, mut chains) = (vec![[NO_STEP; 2]; 2 * n_e], Vec::new());
    let (ends_a, ends_b) = ends.split_at_mut(n_e);
    admit(sys, a, ends_a, &mut chains)?;
    admit(sys, b, ends_b, &mut chains)?;
    Ok(ends)
}

/// [`pair_witness`]'s witness schedule and the model's orientation.
pub(crate) type PairWitness = (Schedule, Vec<bool>);

/// The safety check of the pair `ta`, `tb`, admitted by [`admit_pair`],
/// over `D(ta, tb)`'s vertices: `entities` in ascending order and their
/// `sections`. Returns an unverified witness with `ta` as `TxnId(0)` and
/// `tb` as `TxnId(1)` if one exists, beside the model's orientation: per
/// vertex, whether the witness unlocks it in `ta` before `tb` locks it.
pub(crate) fn pair_witness(
    (ta, tb): (&Transaction, &Transaction),
    entities: &[EntityId],
    sections: &[Sections],
) -> Result<(Option<PairWitness>, EncodingStats), SatCheckError> {
    unsafe_witness(&[ta, tb], &pair_nodes(entities, sections))
}

/// The section graph of a pair over its `D`'s vertices, `entities` in
/// ascending order and their `sections`: node `x` is vertex `x`, its side
/// `a` the first transaction's section (`TxnId(0)`), side `b` the
/// second's (`TxnId(1)`).
pub(crate) fn pair_nodes(entities: &[EntityId], sections: &[Sections]) -> Vec<Node> {
    (entities.iter().zip(sections).enumerate())
        .map(|(x, (&entity, s))| {
            let side = |txn: usize, lock, unlock| Side {
                section: 2 * x + txn,
                txn,
                lock,
                unlock,
            };
            Node {
                entity,
                sides: [side(0, s.lock_a, s.unlock_a), side(1, s.lock_b, s.unlock_b)],
            }
        })
        .collect()
}

/// The literal "milestone `m` ran" of [`prefix_formula`], whose variable
/// `m` is the milestone's missing flag.
pub(crate) fn ran(m: usize) -> Lit {
    Lit::neg(Var(m as u32))
}

/// [`solve_sections`]' guard on the deadlock check: the literal "the
/// second lock of node `y` ran", side `b`'s when `a_first` says `a`'s
/// section runs first, else side `a`'s.
pub(crate) fn second_lock(nodes: &[Node], y: usize, a_first: bool) -> Option<Lit> {
    Some(ran(2 * nodes[y].second(a_first).section))
}

/// The deadlock check's formula without the section graph. The *missing*
/// flag `M(m)` of milestone `m` is variable `m`, true when the milestone
/// has not run ([`ran`] is its negation); the orientation of node `p`
/// follows the milestones, at the milestone count plus `p`; then each
/// section of an entity three or more transactions lock has a holder
/// variable, in section order. The flags say "missing" rather than
/// "executed" because the solver starts every variable at phase `true`:
/// its first descent then starts from the empty prefix and runs
/// milestones as the clauses force them, where executed flags would run
/// every milestone first and back out through the stall clauses. The two
/// formulas differ only in the sign of those variables, so their models
/// map one to one.
///
/// Only a lock on an entity another transaction locks can be blocked, so
/// in a stalled prefix a step that is no milestone has run exactly when
/// every milestone before it has. A missing milestone makes the milestones
/// it is a nearest milestone predecessor of missing. The milestone order
/// is read off each transaction's cached closure into one bit matrix, row
/// `m` holding the milestones of `m`'s transaction before `m`; a
/// predecessor is nearest when no row of another predecessor holds it,
/// that is when none of its successors is a predecessor too. Legality,
/// `¬o_p ∨ M(L_b p) ∨ ¬M(U_a p)` and `o_p ∨ M(L_a p) ∨ ¬M(U_b p)`, lets a
/// node's second section lock only once its first has unlocked. A
/// milestone whose nearest milestone predecessors ran has run or is a lock
/// on `x` another transaction holds: where one other locks `x`, its lock of
/// `x` ran and its unlock did not, two clauses; where more do, one of
/// their holder variables, each of which implies both. Some milestone is
/// missing.
///
/// The formula is counted before it is written and allocated once, with
/// room for `two_cycles` more clauses of four literals, [`solve_sections`]'
/// 2-cycle clauses.
pub(crate) fn prefix_formula<T: Borrow<Transaction>>(
    txns: &[T],
    nodes: &[Node],
    two_cycles: usize,
) -> Cnf {
    let (n, milestones) = (nodes.len(), milestone_count(nodes));
    let orient = |p: usize| Var((milestones + p) as u32);
    // Section `s`'s milestones with their steps.
    let ends = |s: Side| [(2 * s.section, s.lock), (2 * s.section + 1, s.unlock)];
    // The milestones before each one, then its nearest milestone
    // predecessors, `stride` words a row.
    let stride = milestones.div_ceil(64);
    let mut words = vec![0u64; 2 * milestones * stride];
    let (before, nearest) = words.split_at_mut(milestones * stride);
    for s in sides(nodes) {
        let closure = txns[s.txn].borrow().closure();
        for r in sides(nodes).filter(|r| r.txn == s.txn) {
            for (m, to) in ends(s) {
                for (q, from) in ends(r).into_iter().filter(|&(q, _)| q != m) {
                    if closure.reaches(from.idx(), to.idx()) {
                        before[m * stride + q / 64] |= 1 << (q % 64);
                    }
                }
            }
        }
    }
    for m in 0..milestones {
        let preds = &before[m * stride..][..stride];
        for (k, &word) in preds.iter().enumerate() {
            let followed = ones(preds).fold(0, |acc, q| acc | before[q * stride + k]);
            nearest[m * stride + k] = word & !followed;
        }
    }
    let preds_of = |m: usize| ones(&nearest[m * stride..][..stride]);
    // Holders: one per section of a run of three or more.
    let holders = runs(nodes)
        .map(|run| run.sections)
        .filter(|&c| c >= 3)
        .sum::<usize>();

    // Counts first: the downward closure's two-literal clauses, legality,
    // the stall clauses, the holders and the last clause, plus the 2-cycle
    // clauses.
    let mut clauses = 2 * n + 2 * holders + 1 + two_cycles;
    let mut lits = 6 * n + 4 * holders + milestones + 4 * two_cycles;
    for run in runs(nodes) {
        for i in 0..run.sections {
            let [(lock, _), (unlock, _)] = ends(run.side(i));
            let (p, q) = (preds_of(lock).count(), preds_of(unlock).count());
            clauses += p + q;
            lits += 2 * (p + q);
            let (stall, stall_lits) = match run.sections {
                2 => (2, 2 * (p + 2)),
                c => (1, p + c),
            };
            clauses += stall + 1;
            lits += stall_lits + q + 1;
        }
    }
    let mut cnf = Cnf::with_capacity(milestones + n + holders, clauses, lits);
    // Downward closure: a milestone that ran has its nearest milestone
    // predecessors run.
    for m in 0..milestones {
        for q in preds_of(m) {
            cnf.add_clause([ran(m).negated(), ran(q)]);
        }
    }
    // Legality: a node's second section locks only once its first has
    // unlocked.
    for (p, node) in nodes.iter().enumerate() {
        let [(la, _), (ua, _)] = ends(node.sides[0]);
        let [(lb, _), (ub, _)] = ends(node.sides[1]);
        cnf.add_clause([Lit::neg(orient(p)), ran(lb).negated(), ran(ua)]);
        cnf.add_clause([Lit::pos(orient(p)), ran(la).negated(), ran(ub)]);
    }
    // The stall: a milestone whose nearest milestone predecessors ran has
    // run, or is a lock whose entity another transaction holds...
    let mut holder = milestones + n;
    for run in runs(nodes) {
        let c = run.sections;
        let held = |j: usize| Lit::pos(Var((holder + j) as u32));
        for i in 0..c {
            for (m, _) in ends(run.side(i)) {
                let missing = || preds_of(m).map(|q| ran(q).negated());
                let stalled = || std::iter::once(ran(m)).chain(missing());
                if m % 2 == 1 {
                    cnf.add_clause(stalled());
                } else if c == 2 {
                    let [(lock, _), (unlock, _)] = ends(run.side(1 - i));
                    cnf.add_clause(stalled().chain([ran(lock)]));
                    cnf.add_clause(stalled().chain([ran(unlock).negated()]));
                } else {
                    cnf.add_clause(stalled().chain((0..c).filter(|&j| j != i).map(held)));
                }
            }
        }
        if c >= 3 {
            // ... a holder has locked and not unlocked ...
            for j in 0..c {
                let [(lock, _), (unlock, _)] = ends(run.side(j));
                cnf.add_clause([held(j).negated(), ran(lock)]);
                cnf.add_clause([held(j).negated(), ran(unlock).negated()]);
            }
            holder += c;
        }
    }
    // ... and some milestone is missing, else every step has run.
    cnf.add_clause((0..milestones).map(|m| ran(m).negated()));
    debug_assert_eq!(cnf.num_clauses() + two_cycles, clauses);
    cnf
}

/// The set bits of `row`, ascending.
fn ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word), |&rest| Some(rest & rest.wrapping_sub(1)))
            .take_while(|&rest| rest != 0)
            .map(move |rest| 64 * w + rest.trailing_zeros() as usize)
    })
}

/// Decides whether some legal prefix of `sys` stalls every remaining step
/// (the oracle's `deadlock_reachable`), returning a verified prefix if so:
/// the formula `prefix_formula` writes, searched by `solve_sections`
/// with an arc into `y` guarded by the second lock of `y` having run
/// (`second_lock`). A cycle through the executed steps and the section
/// arcs alternates as on a complete schedule, since a DAG path that ends
/// at an executed step runs through executed steps only.
pub fn check_deadlock(sys: &TxnSystem) -> Result<DeadlockCheck, SatCheckError> {
    let nodes = nodes_of(sys)?;
    // A stalled transaction waits for an entity another one holds, and no
    // entity is held twice, so the waits close a cycle over two entities at
    // least: that takes two nodes.
    if nodes.len() < 2 {
        return Ok(DeadlockCheck {
            deadlock: None,
            stats: EncodingStats::default(),
        });
    }
    let txns = sys.txns();
    let arcs = SectionArcs::of(txns, &nodes);
    let mut cnf = prefix_formula(txns, &nodes, arcs.two_cycles);
    let milestones = milestone_count(&nodes);
    let second = |y: usize, a_first: bool| second_lock(&nodes, y, a_first);
    let (model, stats) = solve_sections(&mut cnf, &arcs, milestones, second);
    let Some(model) = model else {
        return Ok(DeadlockCheck {
            deadlock: None,
            stats,
        });
    };
    // A step ran iff no milestone of its transaction at or before it is
    // missing: the steps that did not are the union of the missing
    // milestones' closure rows, each transaction's words after those of
    // the transactions before it.
    let words = |t: usize| {
        txns[..t]
            .iter()
            .map(|x| x.len().div_ceil(64))
            .sum::<usize>()
    };
    let mut missed = vec![0u64; words(txns.len())];
    for s in sides(&nodes) {
        let (base, closure) = (words(s.txn), txns[s.txn].closure());
        for (m, step) in [(2 * s.section, s.lock), (2 * s.section + 1, s.unlock)] {
            if model[m] {
                for (w, row) in missed[base..].iter_mut().zip(closure.row(step.idx())) {
                    *w |= row;
                }
            }
        }
    }
    let executed = |v: usize| {
        let (t, s) = locate(txns, v);
        missed[words(t) + s / 64] >> (s % 64) & 1 == 0
    };
    let prefix = merge_schedule(txns, &nodes, |p| model[milestones + p], executed)?;
    Ok(DeadlockCheck {
        deadlock: Some(verified_deadlock(sys, prefix)?),
        stats,
    })
}

/// Step numbering: transaction `t`'s step `s` is node `offsets[t] + s`,
/// and `offsets[k]` counts every step.
fn step_offsets(sys: &TxnSystem) -> Vec<usize> {
    std::iter::once(0)
        .chain(sys.txns().iter().scan(0, |end, t| {
            *end += t.len();
            Some(*end)
        }))
        .collect()
}

/// Re-verifies a decoded deadlock witness: a legal prefix after which, as
/// the oracle's stall rule has it, the system is incomplete and no
/// remaining step of any transaction is enabled.
///
/// Transaction `t`'s step `s` is node `offsets[t] + s` of one done flag
/// per step, and `held[e]` counts the transactions whose lock of `e` ran
/// and whose unlock did not. Every transaction here was admitted, so each
/// lock has its unlock, and one whose lock of `e` has not run holds no `e`:
/// a remaining lock is contended exactly when `held` is not zero.
fn verified_deadlock(sys: &TxnSystem, prefix: Schedule) -> Result<Schedule, SatCheckError> {
    prefix
        .validate_prefix(sys)
        .map_err(|e| SatCheckError::WitnessDecode(format!("illegal prefix: {e}")))?;
    let offsets = step_offsets(sys);
    let mut done = vec![false; offsets[sys.len()]];
    let mut held = vec![0u32; sys.db().entity_count()];
    for ss in prefix.steps() {
        done[offsets[ss.txn.idx()] + ss.step.idx()] = true;
        let step = sys.txn(ss.txn).step(ss.step);
        match step.kind {
            ActionKind::Lock => held[step.entity.idx()] += 1,
            ActionKind::Unlock => held[step.entity.idx()] -= 1,
            ActionKind::Update => {}
        }
    }
    let mut any_remaining = false;
    for (i, t) in sys.txns().iter().enumerate() {
        let done = &done[offsets[i]..offsets[i + 1]];
        for v in 0..t.len() {
            if done[v] {
                continue;
            }
            any_remaining = true;
            let s = StepId::from_idx(v);
            if t.edge_graph().predecessors(v).iter().any(|&p| !done[p]) {
                continue; // not yet reachable, vacuously disabled
            }
            let step = t.step(s);
            if step.kind != ActionKind::Lock {
                return Err(SatCheckError::WitnessDecode(format!(
                    "non-lock step {s} of T{i} is enabled after the prefix"
                )));
            }
            if held[step.entity.idx()] == 0 {
                return Err(SatCheckError::WitnessDecode(format!(
                    "lock step {s} of T{i} is uncontended after the prefix"
                )));
            }
        }
    }
    if !any_remaining {
        return Err(SatCheckError::WitnessDecode(
            "prefix is a complete schedule, not a deadlock".into(),
        ));
    }
    Ok(prefix)
}

/// Finds a *maximum* certifiable transaction set by iterated SAT and
/// packages it as an [`AvoidPlan`], next to the greedy baseline count.
///
/// A set is certifiable iff the union of its members'
/// [`hold_request_edges`] admits a total entity order (acyclicity ⇔
/// embeddability in a total order): one selection variable per
/// transaction, one ordering variable per entity pair, transitivity, and
/// `selected → every edge ascends`. The cardinality bound walks upward
/// from the greedy count until UNSAT; the last satisfiable selection is
/// optimal.
pub fn synthesize_optimal(sys: &TxnSystem) -> OptimalCertificate {
    let k = sys.len();
    let n_e = sys.db().entity_count();
    let greedy = AvoidPlan::synthesize(sys);
    let greedy_count = greedy.certified_count();

    // Variables: s_t (selection) then r(x<y) (entity order).
    let rank_base = k;
    let rank = |a: usize, b: usize| -> Var {
        debug_assert!(a < b);
        Var((rank_base + a * (2 * n_e - a - 1) / 2 + (b - a - 1)) as u32)
    };
    let before_e = |a: EntityId, b: EntityId| -> Lit {
        if a.idx() < b.idx() {
            Lit::pos(rank(a.idx(), b.idx()))
        } else {
            Lit::neg(rank(b.idx(), a.idx()))
        }
    };
    // Each bound extends the base below, which is sized to it: two
    // transitivity clauses per entity triple, one clause per
    // hold-while-request edge.
    let edges: Vec<(usize, EntityId, EntityId)> = (sys.txns().iter().enumerate())
        .flat_map(|(t, txn)| {
            hold_request_edges(txn)
                .into_iter()
                .map(move |(x, y)| (t, x, y))
        })
        .collect();
    let triples = n_e * n_e.saturating_sub(1) * n_e.saturating_sub(2) / 6;
    let mut cnf = Cnf::with_capacity(
        k + n_e * n_e.saturating_sub(1) / 2,
        2 * triples + edges.len(),
        6 * triples + 2 * edges.len(),
    );
    for a in 0..n_e {
        for b in (a + 1)..n_e {
            for c in (b + 1)..n_e {
                let (ab, bc, ac) = (
                    before_e(EntityId::from_idx(a), EntityId::from_idx(b)),
                    before_e(EntityId::from_idx(b), EntityId::from_idx(c)),
                    before_e(EntityId::from_idx(a), EntityId::from_idx(c)),
                );
                cnf.add_clause([ab.negated(), bc.negated(), ac]);
                cnf.add_clause([ab, bc, ac.negated()]);
            }
        }
    }
    for (t, xe, ye) in edges {
        cnf.add_clause([Lit::neg(Var(t as u32)), before_e(xe, ye)]);
    }
    let s_lits: Vec<Lit> = (0..k).map(|t| Lit::pos(Var(t as u32))).collect();
    // Each bound extends this base and is cut back off it after its solve.
    let (base_vars, base_clauses) = (cnf.num_vars, cnf.num_clauses());

    let mut best: Option<Vec<TxnId>> = None;
    let mut sat_calls = 0usize;
    for target in (greedy_count + 1)..=k {
        at_least_k(&mut cnf, &s_lits, target);
        sat_calls += 1;
        let result = kplock_sat::solve(&cnf);
        cnf.truncate(base_vars, base_clauses);
        match result {
            SatResult::Sat(model) => {
                let selected: Vec<TxnId> =
                    (0..k).filter(|&t| model[t]).map(TxnId::from_idx).collect();
                debug_assert!(selected.len() >= target);
                best = Some(selected);
            }
            SatResult::Unsat => break,
        }
    }

    match best {
        Some(selected) => {
            let optimal_count = selected.len();
            let plan = AvoidPlan::synthesize_restricted(sys, &selected);
            // Restricted synthesis adds candidates greedily, but every
            // subset of a jointly-acyclic set is jointly acyclic, so it
            // certifies all of them.
            debug_assert_eq!(plan.certified_count(), optimal_count);
            OptimalCertificate {
                plan,
                greedy_count,
                optimal_count,
                sat_calls,
            }
        }
        None => OptimalCertificate {
            plan: greedy,
            greedy_count,
            optimal_count: greedy_count,
            sat_calls,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{decide_exhaustive, OracleOptions, OracleOutcome};
    use crate::policy::{insert_locks, LockStrategy};
    use kplock_model::{Database, TxnBuilder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sys_of(scripts: &[&str]) -> TxnSystem {
        let db = Database::from_spec(&[("x", 0), ("y", 1), ("z", 0)]);
        let txns = scripts
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut b = TxnBuilder::new(&db, format!("T{i}"));
                b.script(s).expect("script");
                b.build().expect("acyclic")
            })
            .collect();
        TxnSystem::new(db, txns)
    }

    #[test]
    fn opposed_two_phase_pair_is_safe_but_deadlocks() {
        let sys = sys_of(&["Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux"]);
        let safety = check_safety(&sys).unwrap();
        assert!(safety.verdict.is_safe());
        let dl = check_deadlock(&sys).unwrap();
        let prefix = dl.deadlock.expect("opposed lock orders deadlock");
        assert!(prefix.validate_prefix(&sys).is_ok());
        let report = decide_exhaustive(&sys, &OracleOptions::default());
        assert!(matches!(report.outcome, OracleOutcome::Safe));
        assert!(report.deadlock_reachable);
    }

    #[test]
    fn aligned_two_phase_pair_is_safe_and_deadlock_free() {
        let sys = sys_of(&["Lx Ly x y Ux Uy", "Lx Ly x y Ux Uy"]);
        let safety = check_safety(&sys).unwrap();
        assert!(safety.verdict.is_safe());
        let dl = check_deadlock(&sys).unwrap();
        assert!(dl.deadlock.is_none());
    }

    #[test]
    fn early_unlock_pair_is_unsafe_with_verified_witness() {
        // Classic non-2PL anomaly: both transactions release x before
        // touching y, so the sections can interleave into a cycle.
        let sys = sys_of(&["Lx x Ux Ly y Uy", "Lx x Ux Ly y Uy"]);
        let safety = check_safety(&sys).unwrap();
        let SatSafety::Unsafe(w) = safety.verdict else {
            panic!("early unlock must be unsafe");
        };
        w.validate_complete(&sys).unwrap();
        assert!(!is_serializable(&sys, &w));
        let report = decide_exhaustive(&sys, &OracleOptions::default());
        assert!(matches!(report.outcome, OracleOutcome::Unsafe(_)));
    }

    #[test]
    fn disjoint_transactions_are_trivially_safe() {
        let sys = sys_of(&["Lx x Ux", "Ly y Uy"]);
        // No entity is shared, so the section graph has no node.
        assert!(nodes_of(&sys).unwrap().is_empty());
        let safety = check_safety(&sys).unwrap();
        assert!(safety.verdict.is_safe());
        assert_eq!(safety.stats.decisions, 0);
        let dl = check_deadlock(&sys).unwrap();
        assert!(dl.deadlock.is_none());
        // No shared entity, so no milestone: nothing to solve.
        assert_eq!(dl.stats, EncodingStats::default());
    }

    #[test]
    fn only_cross_transaction_pairs_get_ordering_variables() {
        // Two sections of `x` make one node, one orientation variable. A
        // section no other transaction shares (`y`) adds nothing.
        for scripts in [["Lx x Ux", "Lx x Ux"], ["Lx x Ux Ly y Uy", "Lx x Ux"]] {
            let sys = sys_of(&scripts);
            assert_eq!(nodes_of(&sys).unwrap().len(), 1, "{scripts:?}");
        }
        // Three transactions locking `x` and `y` make three nodes per
        // entity. The safety check adds a selector per ordered pair of
        // transactions, six; the deadlock check two missing flags per
        // section, twelve, and, as three transactions lock each entity, a
        // holder per section, six.
        let sys = sys_of(&["Lx x Ux Ly y Uy"; 3]);
        assert_eq!(nodes_of(&sys).unwrap().len(), 6);
        assert_eq!(check_safety(&sys).unwrap().stats.vars, 6 + 6);
        assert_eq!(check_deadlock(&sys).unwrap().stats.vars, 12 + 6 + 6);
    }

    #[test]
    fn three_way_rotation_deadlocks_but_stays_safe() {
        let sys = sys_of(&["Lx Lz x z Ux Uz", "Lz Ly z y Uz Uy", "Ly Lx y x Uy Ux"]);
        assert!(check_safety(&sys).unwrap().verdict.is_safe());
        let dl = check_deadlock(&sys).unwrap();
        assert!(dl.deadlock.is_some());
        let report = decide_exhaustive(&sys, &OracleOptions::default());
        assert!(matches!(report.outcome, OracleOutcome::Safe));
        assert!(report.deadlock_reachable);
    }

    #[test]
    fn shared_modes_are_refused() {
        let db = Database::from_spec(&[("x", 0)]);
        let t = {
            let mut b = TxnBuilder::new(&db, "T0");
            b.script("SLx rx Ux").unwrap();
            b.build().unwrap()
        };
        let sys = TxnSystem::new(db, vec![t]);
        assert!(matches!(
            check_safety(&sys),
            Err(SatCheckError::SharedMode { .. })
        ));
    }

    /// Two-phase transactions over entities `e0`, `e1`, … at three sites,
    /// one per list, each locking its entities in the list's order.
    fn two_phase(entities: usize, orders: &[Vec<usize>]) -> TxnSystem {
        let names: Vec<String> = (0..entities).map(|i| format!("e{i}")).collect();
        let spec: Vec<(&str, usize)> = names
            .iter()
            .enumerate()
            .map(|(i, e)| (e.as_str(), i % 3))
            .collect();
        let db = Database::from_spec(&spec);
        let txns = orders
            .iter()
            .enumerate()
            .map(|(i, order)| {
                let script = ["L", "", "U"]
                    .iter()
                    .flat_map(|p| order.iter().map(move |e| format!("{p}e{e}")))
                    .collect::<Vec<_>>()
                    .join(" ");
                let mut b = TxnBuilder::new(&db, format!("T{i}"));
                b.script(&script).expect("script");
                b.build().expect("acyclic")
            })
            .collect();
        TxnSystem::new(db, txns)
    }

    #[test]
    fn a_lone_transaction_past_the_old_cap_is_decided() {
        // 162 lock and unlock steps, above the 160 the k-transaction
        // encoding once admitted, but no node: nothing to solve.
        let sys = two_phase(81, &[(0..81).collect()]);
        let safety = check_safety(&sys).expect("no cap");
        assert!(safety.verdict.is_safe());
        assert_eq!(safety.stats, EncodingStats::default());
        assert!(check_deadlock(&sys).unwrap().deadlock.is_none());
    }

    #[test]
    fn a_pair_is_decided_over_its_shared_entities() {
        // Two shared entities: two orientations. Each transaction has
        // `Lx ≺ Uy` and neither `Ly ≺ Ux`, so no 2-cycle gets a clause
        // beside the two that force a mixed orientation, and the first
        // model's section graph is acyclic.
        let sys = sys_of(&["Lx x Ux Ly y Uy", "Lx x Ux Ly y Uy"]);
        let check = check_safety(&sys).unwrap();
        assert!(!check.verdict.is_safe());
        assert_eq!((check.stats.vars, check.stats.clauses), (2, 2));
        assert_eq!(check.stats.solves, 1);
        // One shared entity cannot make a conflict cycle: nothing to solve.
        let sys = sys_of(&["Lx Ly x y Ux Uy", "Lx x Ux"]);
        let check = check_safety(&sys).unwrap();
        assert!(check.verdict.is_safe());
        assert_eq!(check.stats, EncodingStats::default());
    }

    #[test]
    fn the_pair_path_decides_past_the_old_cap() {
        // 324 lock and unlock steps, but one shared entity.
        let sys = two_phase(161, &[(0..161).collect(), vec![0]]);
        assert!(check_safety(&sys).unwrap().verdict.is_safe());
        // 161 shared entities, one more than the pair path once admitted:
        // every pair of them is a 2-cycle, so no orientation is mixed.
        let sys = two_phase(161, &[(0..161).collect(), (0..161).rev().collect()]);
        let check = check_safety(&sys).expect("no cap on the pair path");
        assert!(check.verdict.is_safe());
        assert_eq!((check.stats.vars, check.stats.solves), (161, 1));
    }

    #[test]
    fn a_pairs_deadlock_is_decided_over_its_shared_entities() {
        // Four executed flags per shared entity, one for each of its
        // milestones, then one orientation; the update steps get none.
        let sys = sys_of(&["Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux"]);
        let n = 2;
        let dl = check_deadlock(&sys).unwrap();
        assert_eq!(dl.stats.vars, 5 * n);
        // Each transaction has taken its first lock and waits for the
        // other's.
        let prefix = dl.deadlock.expect("opposed lock orders deadlock");
        assert_eq!(prefix.len(), 2);
        // One shared entity cannot stall both transactions.
        let sys = sys_of(&["Lx Ly x y Ux Uy", "Lx x Ux"]);
        assert!(check_deadlock(&sys).unwrap().deadlock.is_none());
    }

    #[test]
    fn the_deadlock_pair_path_decides_past_the_old_cap() {
        // 324 lock and unlock steps, but one shared entity.
        let sys = two_phase(161, &[(0..161).collect(), vec![0]]);
        assert!(check_deadlock(&sys).unwrap().deadlock.is_none());
        // 161 shared entities, one more than the pair path once admitted,
        // locked in opposite orders.
        let sys = two_phase(161, &[(0..161).collect(), (0..161).rev().collect()]);
        let dl = check_deadlock(&sys).expect("no cap on the pair path");
        assert_eq!(dl.stats.vars, 5 * 161);
        assert!(dl.deadlock.is_some(), "opposed lock orders deadlock");
    }

    #[test]
    fn a_pair_at_the_old_step_cap_is_still_admitted() {
        // Forty entities locked by both transactions in opposite orders:
        // 160 lock and unlock steps, the most the step count admitted, and
        // 40 shared entities.
        let sys = two_phase(40, &[(0..40).collect(), (0..40).rev().collect()]);
        let lock_steps: usize = sys
            .txns()
            .iter()
            .map(|t| 2 * t.locked_entities().len())
            .sum();
        assert_eq!(lock_steps, 160);
        let dl = check_deadlock(&sys).expect("admitted under the cap");
        assert!(dl.deadlock.is_some());
        assert!(check_safety(&sys).unwrap().verdict.is_safe());
    }

    /// [`admit`] as it read before the one-pass scan: `validate` at the
    /// locking level, then a scan of the steps with the lock and unlock
    /// steps looked up for every update.
    fn admit_by_validate(sys: &TxnSystem, txn: TxnId) -> Result<(), SatCheckError> {
        let t = sys.txn(txn);
        if let Err(error) = kplock_model::validate(sys.db(), t, kplock_model::Level::Locking) {
            return Err(SatCheckError::Invalid { txn, error });
        }
        for v in 0..t.len() {
            let sid = StepId::from_idx(v);
            let s = t.step(sid);
            if s.kind != ActionKind::Unlock && s.mode == LockMode::Shared {
                return Err(SatCheckError::SharedMode { txn, step: sid });
            }
            if s.kind == ActionKind::Update {
                let protected = t
                    .lock_step(s.entity)
                    .zip(t.unlock_step(s.entity))
                    .is_some_and(|(l, u)| t.precedes(l, sid) && t.precedes(sid, u));
                if !protected {
                    return Err(SatCheckError::UnprotectedUpdate { txn, step: sid });
                }
            }
        }
        Ok(())
    }

    /// A random pair, well-formed or not: each transaction takes a random
    /// subset of the entities, each with a lock in a random mode, up to two
    /// updates or reads and an unlock, either end sometimes left out, all
    /// shuffled, with each step after the one before it only at random.
    fn random_admission_pair(rng: &mut StdRng) -> TxnSystem {
        use kplock_model::{Step, Transaction};
        let sites = rng.gen_range(1..=3usize);
        let spec: Vec<(String, usize)> = (0..rng.gen_range(2..=5usize))
            .map(|e| (format!("e{e}"), rng.gen_range(0..sites)))
            .collect();
        let spec: Vec<(&str, usize)> = spec.iter().map(|(e, s)| (e.as_str(), *s)).collect();
        let db = Database::from_spec(&spec);
        let txns = (0..2)
            .map(|i| {
                let mut steps = Vec::new();
                for e in db.entities() {
                    if rng.gen_bool(0.3) {
                        continue;
                    }
                    if rng.gen_bool(0.9) {
                        let shared = rng.gen_bool(0.1);
                        let mode = if shared {
                            LockMode::Shared
                        } else {
                            LockMode::Exclusive
                        };
                        steps.push(Step::lock(e).with_mode(mode));
                    }
                    for _ in 0..rng.gen_range(0..=2usize) {
                        let read = rng.gen_bool(0.1);
                        steps.push(if read { Step::read(e) } else { Step::update(e) });
                    }
                    if rng.gen_bool(0.9) {
                        steps.push(Step::unlock(e));
                    }
                }
                // Mostly in section order, now and then shuffled.
                if rng.gen_bool(0.2) {
                    for v in (1..steps.len()).rev() {
                        steps.swap(v, rng.gen_range(0..=v));
                    }
                }
                let edges: Vec<(StepId, StepId)> = (1..steps.len())
                    .filter(|_| rng.gen_bool(0.9))
                    .map(|v| (StepId::from_idx(v - 1), StepId::from_idx(v)))
                    .collect();
                Transaction::new(format!("T{i}"), steps, edges).expect("one lock step per entity")
            })
            .collect();
        TxnSystem::new(db, txns)
    }

    /// Holds [`admit`] to [`admit_by_validate`] on each transaction of a
    /// random pair, and [`nodes_of`] to the sections looked up over
    /// `shared_locked_entities`. Returns each transaction's verdict, for the
    /// sweep that checks every kind occurs.
    fn admission_agrees_with_validate(seed: u64) -> Vec<Result<(), SatCheckError>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let sys = random_admission_pair(&mut rng);
        let (mut ends, mut chains) = (vec![[NO_STEP; 2]; sys.db().entity_count()], Vec::new());
        let verdicts: Vec<_> = sys
            .txn_ids()
            .map(|t| {
                let verdict = admit(&sys, t, &mut ends, &mut chains);
                assert_eq!(verdict, admit_by_validate(&sys, t), "seed {seed}, {t}");
                verdict
            })
            .collect();
        let flat = nodes_of(&sys).map(|nodes| {
            let quad = |[a, b]: [Side; 2]| [a.lock, a.unlock, b.lock, b.unlock];
            nodes.iter().map(|p| quad(p.sides)).collect()
        });
        let by_lookup = verdicts
            .iter()
            .cloned()
            .collect::<Result<(), _>>()
            .map(|()| {
                let shared = sys.shared_locked_entities(TxnId(0), TxnId(1));
                Sections::of(sys.txn(TxnId(0)), sys.txn(TxnId(1)), &shared).expect("admitted")
            });
        let quads = |s: Vec<Sections>| -> Vec<[StepId; 4]> {
            s.iter()
                .map(|s| [s.lock_a, s.unlock_a, s.lock_b, s.unlock_b])
                .collect()
        };
        assert_eq!(flat, by_lookup.map(quads), "seed {seed}");
        verdicts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn one_pass_admission_answers_as_validate(seed in any::<u64>()) {
            admission_agrees_with_validate(seed);
        }
    }

    #[test]
    fn one_pass_admission_meets_every_refusal() {
        let verdicts: Vec<_> = (0..512).flat_map(admission_agrees_with_validate).collect();
        let met = |f: &dyn Fn(&Result<(), SatCheckError>) -> bool| verdicts.iter().any(f);
        use ModelError::{SiteNotTotallyOrdered, UnlockBeforeLock, UnmatchedLockPair};
        assert!(met(&|v| v.is_ok()));
        assert!(met(&|v| matches!(
            v,
            Err(SatCheckError::Invalid {
                error: SiteNotTotallyOrdered(..),
                ..
            })
        )));
        assert!(met(&|v| matches!(
            v,
            Err(SatCheckError::Invalid {
                error: UnmatchedLockPair(_),
                ..
            })
        )));
        assert!(met(&|v| matches!(
            v,
            Err(SatCheckError::Invalid {
                error: UnlockBeforeLock(_),
                ..
            })
        )));
        assert!(met(&|v| matches!(v, Err(SatCheckError::SharedMode { .. }))));
        assert!(met(&|v| matches!(
            v,
            Err(SatCheckError::UnprotectedUpdate { .. })
        )));
    }

    /// Holds [`merge_schedule`] to the sort it replaced
    /// ([`crate::reference::schedule_by_sort`]) on a random pair
    /// shaped as `analysis_sat` draws them, under a random orientation
    /// (cyclic ones included) and over every step, then over a random
    /// downward-closed set of steps. Returns how many of the two sorts
    /// found a cycle, for the sweep that checks both outcomes occur.
    fn merge_agrees_with_sort(seed: u64) -> usize {
        use kplock_workload::{make_database, random_unlocked_txn, WorkloadParams};
        let mut rng = StdRng::seed_from_u64(seed);
        let p = WorkloadParams {
            sites: rng.gen_range(2..=4),
            entities_per_site: 2,
            steps_per_txn: rng.gen_range(4..=14),
            ..Default::default()
        };
        let strategy = [
            LockStrategy::Minimal,
            LockStrategy::TwoPhaseSync,
            LockStrategy::TwoPhaseLoose,
        ][rng.gen_range(0..3usize)];
        let db = make_database(&p);
        let txns = (0..2)
            .map(|i| {
                let t = random_unlocked_txn(&db, &p, &format!("T{i}"), &mut rng).expect("a DAG");
                insert_locks(&db, &t, strategy).expect("lockable")
            })
            .collect();
        let sys = TxnSystem::new(db, txns);
        let nodes = nodes_of(&sys).expect("admitted");
        let (ta, tb) = (sys.txn(TxnId(0)), sys.txn(TxnId(1)));
        let orient: Vec<bool> = nodes.iter().map(|_| rng.gen_bool(0.5)).collect();
        // Each transaction's steps in a topological order, each kept when
        // its predecessors are, at random.
        let mut executed = Vec::with_capacity(ta.len() + tb.len());
        for t in [ta, tb] {
            let base = executed.len();
            executed.resize(base + t.len(), false);
            for v in crate::reference::topological_order(t) {
                let preds = t.edge_graph().predecessors(v);
                executed[base + v] = preds.iter().all(|&p| executed[base + p]) && rng.gen_bool(0.8);
            }
        }
        let mut cycles = 0;
        for kept in [vec![true; executed.len()], executed] {
            let merged = merge_schedule(&[ta, tb], &nodes, |x| orient[x], |v| kept[v]);
            let sorted =
                crate::reference::schedule_by_sort(&[ta, tb], &nodes, |x| orient[x], |v| kept[v]);
            assert_eq!(merged, sorted, "seed {seed}");
            cycles += usize::from(merged.is_err());
        }
        cycles
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_merge_equals_the_sort(seed in any::<u64>()) {
            merge_agrees_with_sort(seed);
        }
    }

    #[test]
    fn the_merge_meets_acyclic_and_cyclic_orientations() {
        let cycles: Vec<usize> = (0..256).map(merge_agrees_with_sort).collect();
        assert!(
            cycles.iter().any(|&c| c > 0),
            "no orientation closed a cycle"
        );
        assert!(
            cycles.iter().any(|&c| c < 2),
            "every orientation closed a cycle"
        );
    }

    /// `sys`, a pair, with a chain of up to four private lock sections
    /// added to each transaction, on entities of its own at a site of its
    /// own. The chain hangs after a random step, or after none, and half the
    /// time leads into a random step that does not precede that one, so a
    /// path between two milestones may run through it.
    fn with_private_sections(sys: &TxnSystem, rng: &mut StdRng) -> TxnSystem {
        use kplock_model::{SiteId, Step};
        let mut db = sys.db().clone();
        let sites = db.site_count();
        let mut txns = Vec::new();
        for (i, t) in sys.txns().iter().enumerate() {
            let mut steps = t.steps().to_vec();
            let mut edges: Vec<(StepId, StepId)> = t
                .edge_graph()
                .edges()
                .map(|(u, v)| (StepId::from_idx(u), StepId::from_idx(v)))
                .collect();
            let after = rng
                .gen_bool(0.8)
                .then(|| StepId::from_idx(rng.gen_range(0..t.len())));
            let mut last = after;
            for k in 0..rng.gen_range(1..=4usize) {
                let e = db.add_entity(&format!("private{i}_{k}"), SiteId::from_idx(sites + i));
                for step in [Step::lock(e), Step::update(e), Step::unlock(e)] {
                    let id = StepId::from_idx(steps.len());
                    steps.push(step);
                    edges.extend(last.map(|l| (l, id)));
                    last = Some(id);
                }
            }
            let into = StepId::from_idx(rng.gen_range(0..t.len()));
            if rng.gen_bool(0.5) && after.is_none_or(|a| !t.precedes_eq(into, a)) {
                edges.push((last.expect("a chain"), into));
            }
            txns.push(Transaction::new(t.name(), steps, edges).expect("acyclic"));
        }
        TxnSystem::new(db, txns)
    }

    /// Holds [`prefix_formula`] to the DAG walk it replaced
    /// ([`crate::reference::pair_prefix_formula_by_walk`]) as clause
    /// multisets, and its variable count, on a pair drawn from `seed`: one
    /// shaped as `analysis_sat` draws them over two to six sites and 6 to 24
    /// steps under one of the three strategies, that pair with private
    /// sections added ([`with_private_sections`]), or the Theorem-3
    /// reduction of a random formula from (4, 3) to (12, 10).
    fn formula_agrees_with_the_walk(seed: u64) {
        use crate::reduction::reduce;
        use crate::reference::{clause_multiset, pair_prefix_formula_by_walk};
        use kplock_workload::{
            make_database, random_instance, random_unlocked_txn, WorkloadParams,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let sys = if seed % 3 == 2 {
            let (v, c) = [(4, 3), (6, 5), (8, 8), (12, 10)][rng.gen_range(0..4usize)];
            reduce(&random_instance(seed, v, c))
                .expect("restricted form")
                .sys
        } else {
            let p = WorkloadParams {
                sites: rng.gen_range(2..=6),
                entities_per_site: 2,
                steps_per_txn: rng.gen_range(6..=24),
                ..Default::default()
            };
            let strategy = [
                LockStrategy::Minimal,
                LockStrategy::TwoPhaseLoose,
                LockStrategy::TwoPhaseSync,
            ][rng.gen_range(0..3usize)];
            let db = make_database(&p);
            let txns = (0..2)
                .map(|i| {
                    let t =
                        random_unlocked_txn(&db, &p, &format!("T{i}"), &mut rng).expect("a DAG");
                    insert_locks(&db, &t, strategy).expect("lockable")
                })
                .collect();
            let sys = TxnSystem::new(db, txns);
            if seed % 3 == 1 {
                with_private_sections(&sys, &mut rng)
            } else {
                sys
            }
        };
        let nodes = nodes_of(&sys).expect("admitted");
        let txns = (sys.txn(TxnId(0)), sys.txn(TxnId(1)));
        let got = prefix_formula(sys.txns(), &nodes, 0);
        let want = pair_prefix_formula_by_walk(txns, &nodes);
        assert_eq!(got.num_vars, want.num_vars, "seed {seed}");
        assert_eq!(
            clause_multiset(&got),
            clause_multiset(&want),
            "seed {seed}: {nodes:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_closure_formula_is_the_walks(seed in any::<u64>()) {
            formula_agrees_with_the_walk(seed);
        }
    }

    /// Holds both pair paths on the pair `sys` to the order encoding they
    /// replaced ([`crate::reference`]) and, with `oracle`, to the
    /// exhaustive oracle where it finishes: equal verdicts. Every witness
    /// has passed [`verified_unsafe`] or [`verified_deadlock`], or the
    /// check would have answered an error. Returns `[unsafe, deadlocks,
    /// cuts, oracle decisions]`, the cuts summed over both checks.
    fn lazy_against_order(sys: &TxnSystem, context: &str, oracle: bool) -> [usize; 4] {
        let safety = check_safety(sys).unwrap_or_else(|e| panic!("{context}: {e}"));
        let deadlock = check_deadlock(sys).unwrap_or_else(|e| panic!("{context}: {e}"));
        let is_unsafe = !safety.verdict.is_safe();
        let deadlocks = deadlock.deadlock.is_some();
        let by_order = crate::reference::unsafe_by_order(sys).expect("admitted");
        assert_eq!(is_unsafe, by_order, "{context}: safety");
        let by_order = crate::reference::deadlocks_by_order(sys).expect("admitted");
        assert_eq!(deadlocks, by_order, "{context}: deadlock");
        let mut decided = false;
        if oracle {
            let report = decide_exhaustive(sys, &OracleOptions { max_states: 5_000 });
            decided = !matches!(report.outcome, OracleOutcome::Aborted);
            if decided {
                let safe = matches!(report.outcome, OracleOutcome::Safe);
                assert_eq!(is_unsafe, !safe, "{context}: safety against the oracle");
                assert_eq!(deadlocks, report.deadlock_reachable, "{context}: oracle");
            }
        }
        let cuts = |stats: EncodingStats| stats.solves.saturating_sub(1) as usize;
        [
            usize::from(is_unsafe),
            usize::from(deadlocks),
            cuts(safety.stats) + cuts(deadlock.stats),
            usize::from(decided),
        ]
    }

    /// The lazy pair paths decide as the order encoding on 2 000 random
    /// pairs over two to six sites and 6 to 24 steps, and as the
    /// exhaustive oracle wherever it finishes in 5 000 states (on about a
    /// quarter of them). Both verdicts occur often.
    #[test]
    fn the_lazy_pair_paths_decide_as_the_order_encoding() {
        use kplock_workload::{make_database, random_unlocked_txn, WorkloadParams};
        let strategies = [
            LockStrategy::Minimal,
            LockStrategy::TwoPhaseLoose,
            LockStrategy::TwoPhaseSync,
        ];
        let mut random = [0; 4];
        for i in 0..2_000usize {
            let mut rng = StdRng::seed_from_u64(46_000 + i as u64);
            let p = WorkloadParams {
                sites: 2 + i % 5,
                entities_per_site: 2 + (i / 5) % 2,
                steps_per_txn: 6 + (i / 10) % 19,
                ..Default::default()
            };
            let db = make_database(&p);
            let txns = (0..2)
                .map(|t| {
                    let t =
                        random_unlocked_txn(&db, &p, &format!("T{t}"), &mut rng).expect("a DAG");
                    insert_locks(&db, &t, strategies[i % 3]).expect("lockable")
                })
                .collect();
            let sys = TxnSystem::new(db, txns);
            let seen = lazy_against_order(&sys, &format!("random pair {i}"), true);
            for (total, n) in random.iter_mut().zip(seen) {
                *total += n;
            }
        }
        assert!((200..1_800).contains(&random[0]), "{random:?}");
        assert!((200..1_800).contains(&random[1]), "{random:?}");
        assert!(random[3] >= 400, "{random:?}");
    }

    /// The lazy pair paths decide as the order encoding on Theorem-3
    /// reductions, where the safety path needs cuts.
    #[test]
    fn the_lazy_pair_paths_decide_reductions_as_the_order_encoding() {
        use crate::reduction::reduce;
        use kplock_workload::{random_instance, unsat_restricted};

        // Satisfiable formulas from (4, 3) to (12, 10), then formulas DPLL
        // refutes: three at (6, 9), one at (12, 18) and `unsat_restricted`.
        let mut reductions = [0; 4];
        let mut safe = 0;
        let sizes = [(4, 3), (6, 5), (8, 8), (12, 10)];
        let formulas = sizes
            .iter()
            .flat_map(|&(v, c)| (0..3).map(move |seed| random_instance(seed, v, c)))
            .chain([53, 60, 61].map(|seed| random_instance(seed, 6, 9)))
            .chain([random_instance(191, 12, 18), unsat_restricted()]);
        for f in formulas {
            let sys = reduce(&f).expect("a restricted-form source").sys;
            let context = format!("reduction of {f:?}");
            let seen = lazy_against_order(&sys, &context, false);
            assert_eq!(seen[0] == 1, kplock_sat::solve(&f).is_sat(), "{context}");
            safe += 1 - seen[0];
            for (total, n) in reductions.iter_mut().zip(seen) {
                *total += n;
            }
        }
        assert_eq!(safe, 5, "{reductions:?}");
        assert!(reductions[2] > 0, "{reductions:?}");
    }

    /// `kplock_workload::random_system` under `strategy`, locked by this
    /// crate's [`insert_locks`] (the workload crate names another build of
    /// [`LockStrategy`]): the same seed draws the same system.
    fn random_system(p: &kplock_workload::WorkloadParams, strategy: LockStrategy) -> TxnSystem {
        use kplock_workload::{make_database, random_unlocked_txn};
        let db = make_database(p);
        let mut rng = StdRng::seed_from_u64(p.seed);
        let txns = (0..p.transactions)
            .map(|t| {
                let t =
                    random_unlocked_txn(&db, p, &format!("T{}", t + 1), &mut rng).expect("a DAG");
                insert_locks(&db, &t, strategy).expect("lockable")
            })
            .collect();
        TxnSystem::new(db, txns)
    }

    /// Holds both checks on `sys` to the k-transaction order encoding the
    /// section graph replaced ([`crate::reference`]) and to the exhaustive
    /// oracle wherever it finishes in `max_states`: equal verdicts. Every
    /// witness has passed [`verified_unsafe`] or [`verified_deadlock`], or
    /// the check would have answered an error. Returns `[unsafe, deadlocks,
    /// cuts, oracle decisions]`, the cuts summed over both checks.
    fn sections_against_encoder(sys: &TxnSystem, context: &str, max_states: usize) -> [usize; 4] {
        use crate::reference::{deadlocks_by_encoder, unsafe_by_encoder};
        let safety = check_safety(sys).unwrap_or_else(|e| panic!("{context}: {e}"));
        let deadlock = check_deadlock(sys).unwrap_or_else(|e| panic!("{context}: {e}"));
        let is_unsafe = !safety.verdict.is_safe();
        let deadlocks = deadlock.deadlock.is_some();
        assert_eq!(
            is_unsafe,
            unsafe_by_encoder(sys).unwrap(),
            "{context}: safety"
        );
        assert_eq!(
            deadlocks,
            deadlocks_by_encoder(sys).unwrap(),
            "{context}: deadlock"
        );
        let report = decide_exhaustive(sys, &OracleOptions { max_states });
        let decided = match report.outcome {
            OracleOutcome::Safe => {
                assert!(!is_unsafe, "{context}: the oracle finds it safe");
                assert_eq!(deadlocks, report.deadlock_reachable, "{context}: oracle");
                true
            }
            OracleOutcome::Unsafe(_) => {
                assert!(is_unsafe, "{context}: the oracle finds it unsafe");
                assert!(deadlocks || !report.deadlock_reachable, "{context}: oracle");
                true
            }
            OracleOutcome::Aborted => false,
        };
        let cuts = |stats: EncodingStats| stats.solves.saturating_sub(1) as usize;
        [
            usize::from(is_unsafe),
            usize::from(deadlocks),
            cuts(safety.stats) + cuts(deadlock.stats),
            usize::from(decided),
        ]
    }

    /// Both checks decide systems of three to five transactions as the
    /// k-transaction order encoding, and as the oracle where it finishes:
    /// 1 000 random systems over one to four sites and 4 to 12 steps (every
    /// third of 3 000 drawn so), every ring of three to six transactions,
    /// and the systems of three or four transactions of `tests/sat_check.rs`'
    /// `PIN_SAT_VERDICTS`. Both verdicts occur often, and so do cuts.
    #[test]
    fn the_section_graph_decides_as_the_order_encoding() {
        use kplock_workload::{ring_system, WorkloadParams};
        let strategies = [
            LockStrategy::Minimal,
            LockStrategy::TwoPhaseLoose,
            LockStrategy::TwoPhaseSync,
        ];
        let mut random = [0; 4];
        for i in (0..3_000usize).step_by(3) {
            let p = WorkloadParams {
                seed: 700_000 + i as u64,
                sites: 1 + i % 4,
                entities_per_site: 2 + (i / 4) % 2,
                transactions: 3 + (i / 8) % 3,
                steps_per_txn: 4 + (i / 24) % 9,
                cross_edge_percent: [0, 20, 50][(i / 216) % 3],
                ..Default::default()
            };
            let sys = random_system(&p, strategies[(i / 648) % 3]);
            let seen = sections_against_encoder(&sys, &format!("random system {i}"), 2_000);
            for (total, n) in random.iter_mut().zip(seen) {
                *total += n;
            }
        }
        assert!((200..800).contains(&random[0]), "{random:?}");
        assert!((200..800).contains(&random[1]), "{random:?}");
        assert!(random[2] > 0 && random[3] >= 150, "{random:?}");

        let mut rings = [0; 4];
        for k in 3..=6 {
            for early in std::iter::once(None).chain((0..k).map(Some)) {
                let context = format!("ring of {k}, early {early:?}");
                let seen = sections_against_encoder(&ring_system(k, early), &context, 2_000);
                assert_eq!(seen[0] == 1, early.is_some(), "{context}");
                for (total, n) in rings.iter_mut().zip(seen) {
                    *total += n;
                }
            }
        }
        assert_eq!(rings[0], 3 + 4 + 5 + 6, "{rings:?}");

        let mut pinned = 0;
        for i in (0..1_000usize).filter(|i| i % 3 != 0) {
            let p = WorkloadParams {
                seed: 31_000 + i as u64,
                sites: if i % 8 == 7 { 2 } else { 3 + i % 2 },
                entities_per_site: 2,
                transactions: 2 + i % 3,
                steps_per_txn: 6 + i % 7,
                ..Default::default()
            };
            let sys = random_system(&p, strategies[i % 3]);
            sections_against_encoder(&sys, &format!("pinned system {i}"), 0);
            pinned += 1;
        }
        assert_eq!(pinned, 666);
    }

    /// Systems of six and eight transactions with more lock and unlock
    /// steps than the 160 the k-transaction encoding admitted are decided,
    /// and every witness passes its verification.
    #[test]
    fn systems_past_the_old_cap_are_decided() {
        use kplock_workload::WorkloadParams;
        let lock_steps = |sys: &TxnSystem| -> usize {
            sys.txns()
                .iter()
                .map(|t| 2 * t.locked_entities().len())
                .sum()
        };
        for (seed, transactions, steps_per_txn, strategy, safe) in [
            (95_000, 6, 32, LockStrategy::TwoPhaseSync, true),
            (95_001, 6, 32, LockStrategy::TwoPhaseSync, true),
            (95_000, 8, 24, LockStrategy::TwoPhaseLoose, false),
            (95_001, 8, 24, LockStrategy::TwoPhaseLoose, false),
        ] {
            let p = WorkloadParams {
                seed,
                sites: 4,
                entities_per_site: 4,
                transactions,
                steps_per_txn,
                ..Default::default()
            };
            let sys = random_system(&p, strategy);
            let context = format!("seed {seed}, {transactions} transactions");
            assert!(lock_steps(&sys) > 160, "{context}: {}", lock_steps(&sys));
            let safety = check_safety(&sys).unwrap_or_else(|e| panic!("{context}: {e}"));
            assert_eq!(safety.verdict.is_safe(), safe, "{context}");
            check_deadlock(&sys).unwrap_or_else(|e| panic!("{context}: {e}"));
        }
    }

    #[test]
    fn optimal_certificate_beats_greedy_on_opposed_family() {
        // T0 ascends x→y; T1, T2 descend y→x. Greedy (declaration order)
        // keeps only T0; the optimum drops T0 and keeps both descenders.
        let sys = sys_of(&["Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", "Ly Lx y x Uy Ux"]);
        let opt = synthesize_optimal(&sys);
        assert_eq!(opt.greedy_count, 1);
        assert_eq!(opt.optimal_count, 2);
        assert_eq!(opt.plan.certified_count(), 2);
        opt.plan.verify(&sys).unwrap();
        assert!(opt.sat_calls >= 2);
    }

    #[test]
    fn optimal_matches_greedy_when_greedy_is_already_optimal() {
        let sys = sys_of(&["Lx Ly x y Ux Uy", "Lx Ly x y Ux Uy"]);
        let opt = synthesize_optimal(&sys);
        assert_eq!(opt.greedy_count, 2);
        assert_eq!(opt.optimal_count, 2);
        assert!(opt.plan.fully_certified());
    }
}
