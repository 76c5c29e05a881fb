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
//! # The pair path
//!
//! [`check_safety`] decides a system of two transactions over the
//! entities both lock, the vertices of `D(T1, T2)`. A complete legal
//! schedule of a pair is fixed, up to interleaving, by one choice per
//! shared entity: whose section runs first. Let S be the entities whose
//! T1 section runs first. Such a schedule exists exactly when both
//! precedence DAGs plus the section arcs (`U1x → L2x` for `x` in S,
//! `U2y → L1y` otherwise) are acyclic, and it is non-serializable exactly
//! when S is *mixed*, neither empty nor everything. A cycle in that union
//! cannot stay inside one DAG, so it alternates through section arcs: it
//! enters T2 at `L2x` for some `x` in S, leaves it from `U2y` for some `y`
//! not in S, which needs `L2x ≺₂ U2y`, and so on back in T1. So the union
//! is acyclic exactly when the *section graph* on the shared entities is,
//! with an arc `x → y` for `x` in S, `y` not in S, `L2x ≺₂ U2y`, and for
//! `x` not in S, `y` in S, `L1x ≺₁ U1y`. An arc depends on the two
//! orientations alone, so the formula is one orientation variable `o_x`
//! per shared entity, two clauses forcing S to be mixed, and one clause
//! per 2-cycle: `x → y → x` with `x` in S needs `L2x ≺₂ U2y` and
//! `L1y ≺₁ U1x`, which is `D`'s arc `y → x`, and `¬o_x ∨ o_y` forbids it.
//! Those clauses say that S is a proper dominator of `D`; a longer cycle
//! is cut lazily (Corollary 2's closure meets it round by round): each
//! model's section graph goes into a [`CycleTest`], and while it has a
//! cycle the clause forbidding that cycle's orientations is added and the
//! formula solved again. Fewer than two shared entities is safe without
//! solving. A model's witness is Kahn's sort, smallest step first, of
//! both DAGs plus the section arcs its orientation picks, run as a merge
//! of the two transactions: in-degree counts over their DAG rows and at
//! most one section arc per unlock step, with no graph built.
//! [`crate::multisite::decide_multisite`] ends in the same path.
//!
//! [`check_deadlock`] decides a pair over the same orientations,
//! restricted to the *milestones* a prefix has executed: the lock and
//! unlock steps of the shared entities, four per entity. In a pair only a
//! lock on a shared entity can be blocked, so in a stalled prefix a step
//! that is no milestone has run exactly when every milestone before it
//! has, and needs no variable. Missing flags `M(m)`, true when milestone
//! `m` has not run, number first. They mean "missing" rather than
//! "executed" because the solver starts every variable at phase `true`,
//! so its first descent starts from the empty prefix instead of running
//! every milestone and backing out through the stall clauses; the sign is
//! all that differs, and models map one to one. A missing milestone makes
//! missing every milestone it is a nearest milestone predecessor of: a
//! milestone that precedes it, by the transaction's cached closure, and
//! precedes no other milestone that does. *Legality*,
//! `¬o_x ∨ M(L2x) ∨ ¬M(U1x)` and `o_x ∨ M(L1x) ∨ ¬M(U2x)`, lets the second
//! section on `x` lock only once the first has unlocked. An arc of the
//! section graph needs both sections of both its entities locked, which
//! its orientations reduce to the second lock of its head, so a 2-cycle
//! clause gains `M(L1y) ∨ M(L2x)` and a cut the second lock of each
//! entity on the cycle; the alternation argument holds as before, because
//! a DAG path that ends at an executed step runs through executed steps
//! only. The *stall* is, per milestone, "ran, or missing a nearest
//! milestone predecessor, or a lock on `x` whose other section is held" —
//! the other transaction's lock of `x` ran and its unlock did not, two
//! clauses — and "some milestone missing". That is `5n` variables for `n`
//! shared entities, however long the transactions are. One function
//! solves and cuts for both checks; the deadlock check passes it the
//! "second lock ran" literals. Its witness is the same merge, over the
//! steps no milestone at or before which is missing, and the section arcs
//! of the entities both transactions have locked.
//!
//! # The k-transaction encoding
//!
//! Three or more transactions take this encoding. The lock and unlock
//! steps of every entity that at least two transactions lock are
//! *milestones*; a section no other transaction touches gets none. A milestone pair that one transaction's precedence
//! DAG already orders (its full closure, `precedes`) is a constant, and
//! every other pair gets one boolean saying which comes first.
//! Transitivity clauses over all milestone triples, with the constants
//! folded in, force the pairs to describe a total order. On top of that
//! shared core:
//!
//! * **Safety** ([`check_safety`] on three or more transactions) asks for
//!   a *complete* schedule whose serialization graph is cyclic.
//!   Same-entity lock sections of distinct transactions must not overlap
//!   (one disjointness clause per pair), a section order
//!   `unlock_i(e) ≺ lock_j(e)` realizes the conflict edge `i → j`, and
//!   selector variables must pick a set of realized edges in
//!   which every tail also has an incoming selected edge — in a finite
//!   graph such a set necessarily contains a directed cycle, and every
//!   actual cycle is such a set.
//! * **Deadlock** ([`check_deadlock`] on three or more transactions) asks
//!   for a reachable *prefix* in which no remaining step is enabled,
//!   mirroring the oracle's stall rule. Per-step executed flags are closed
//!   downward over the DAG and linked to the milestone order (an executed
//!   lock whose section is ordered after another executed section forces
//!   that section's unlock to be executed too), holder variables witness
//!   who blocks each stalled lock, and one clause per step says "executed,
//!   or missing a predecessor, or blocked".
//!
//! Leaving private sections out loses nothing: every clause between
//! transactions relates same-entity sections of both, and a precedence
//! path through a private section is still a constant between the shared
//! milestones at its two ends. So a cycle in the precedence DAGs plus the
//! decoded milestone chain contracts to a cycle in the total order, which
//! has none.
//!
//! A satisfying model is *decoded* — on the pair paths the orientation
//! picks the section arcs; here milestone counts give the total order —
//! a topological sort interleaves the remaining steps (here a
//! `kplock_graph::topo_sort` of the DAGs plus the milestone chain; on
//! the pair paths the merge above, which gives the same order), and the
//! resulting schedule is re-verified against the model-level definitions
//! ([`Schedule::validate_complete`], [`kplock_model::is_serializable`],
//! oracle-style enabledness), so a witness is never taken on the
//! encoding's word alone. `crates/sim` replays these witnesses through
//! the lock-table machinery for the dynamic half of the story.
//!
//! The checker mirrors the oracle's mode-blind contention rule (any
//! holder blocks a lock request), which coincides with write-aware
//! serializability only when every access is exclusive, so both paths
//! refuse systems using shared modes up front with a typed error — as
//! well as systems whose updates stray outside their entity's lock
//! section, where section-level ordering stops determining access-level
//! conflicts. Admission reads each transaction's steps twice, into a
//! flat table of its lock and unlock steps per entity, and a pair's
//! sections come off the two tables.
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

use std::fmt;

use kplock_graph::{topo_sort, CycleTest, DiGraph};
use kplock_model::{
    is_serializable, ActionKind, EntityId, LockMode, ModelError, Schedule, ScheduledStep, StepId,
    Transaction, TxnId, TxnSystem,
};
use kplock_sat::{at_least_k, Cnf, Lit, SatResult, Solver, Var};

use crate::avoid::{hold_request_edges, AvoidPlan};
use crate::conflict_graph::Sections;

/// Systems of three or more transactions with more lock and unlock steps
/// than this are refused: the k-transaction encoding grows with the cube
/// of its milestones, and the cap keeps it in the range our DPLL handles.
/// Its transitivity core grows with the steps of entities two
/// transactions lock only, but every step counts. The pair paths have no
/// cap: their formulas grow with the square of the shared entities at
/// worst.
const MAX_MILESTONES: usize = 160;

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
    /// A system of three or more transactions has more lock and unlock
    /// steps than the k-transaction encoding's cap of 160.
    TooLarge { milestones: usize, cap: usize },
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
            SatCheckError::TooLarge { milestones, cap } => {
                write!(
                    f,
                    "system has {milestones} milestones, above the cap of {cap}"
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
    /// Total variables (ordering + auxiliaries).
    pub vars: usize,
    /// Total clauses, with the pair paths' cuts.
    pub clauses: usize,
    /// DPLL branching decisions, summed over every solve.
    pub decisions: u64,
    /// Unit propagations, summed over every solve.
    pub propagations: u64,
    /// Solver runs: one on the k-transaction encoding, one more per cut
    /// on the pair paths, none where nothing needs solving.
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

/// One lock/unlock section of a shared entity in one transaction.
#[derive(Clone, Copy, Debug)]
struct Section {
    txn: usize,
    entity: EntityId,
    lock_m: usize,
    unlock_m: usize,
}

/// How one milestone stands against another in the order.
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

/// [`admit`]'s entry for a lock or unlock step a transaction does not have.
const NO_STEP: u32 = u32::MAX;

/// Refuses a transaction neither encoding models faithfully: one that is
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

/// `Encoder::section_of` entry of an entity the transaction does not
/// share.
const NO_SECTION: usize = usize::MAX;

/// The shared encoding core: milestones and their order.
struct Encoder<'a> {
    sys: &'a TxnSystem,
    /// Milestone index → (transaction index, step): the lock and unlock
    /// steps of the entities at least two transactions lock.
    milestones: Vec<(usize, StepId)>,
    /// The order of each milestone pair `a < b`, at its triangular index.
    pairs: Vec<Order>,
    sections: Vec<Section>,
    /// `transaction index · entity count + entity` → index into
    /// `sections`, or [`NO_SECTION`].
    section_of: Vec<usize>,
    /// Step numbering: transaction `t`'s step `s` is node
    /// `offsets[t] + s`, and `offsets[k]` counts every step.
    offsets: Vec<usize>,
}

impl<'a> Encoder<'a> {
    /// The encoder and the core formula (ordering variables and
    /// transitivity clauses), which each check extends in place.
    fn new(sys: &'a TxnSystem) -> Result<(Self, Cnf), SatCheckError> {
        let (mut ends, mut chains) = (vec![[NO_STEP; 2]; sys.db().entity_count()], Vec::new());
        for i in 0..sys.len() {
            admit(sys, TxnId::from_idx(i), &mut ends, &mut chains)?;
        }

        // Each transaction's locked entities, in ascending order, one
        // transaction after the other. The cap counts every lock/unlock
        // step, shared or not.
        let locked: Vec<(usize, EntityId)> = (sys.txns().iter().enumerate())
            .flat_map(|(i, t)| t.locked_entities().into_iter().map(move |e| (i, e)))
            .collect();
        let steps = 2 * locked.len();
        if steps > MAX_MILESTONES {
            return Err(SatCheckError::TooLarge {
                milestones: steps,
                cap: MAX_MILESTONES,
            });
        }

        // Only entities two transactions lock get milestones: every clause
        // between transactions relates same-entity sections, and a
        // precedence path through a private section still orders the
        // shared milestones at its ends (`precedes` is the full closure).
        let n_e = sys.db().entity_count();
        let mut lockers = vec![0usize; n_e];
        for &(_, e) in &locked {
            lockers[e.idx()] += 1;
        }
        let mut milestones = Vec::new();
        let mut sections = Vec::new();
        let mut section_of = vec![NO_SECTION; sys.len() * n_e];
        for &(i, e) in locked.iter().filter(|(_, e)| lockers[e.idx()] >= 2) {
            let t = sys.txn(TxnId::from_idx(i));
            let lock_m = milestones.len();
            milestones.push((i, t.lock_step(e).expect("validated pair")));
            let unlock_m = milestones.len();
            milestones.push((i, t.unlock_step(e).expect("validated pair")));
            section_of[i * n_e + e.idx()] = sections.len();
            sections.push(Section {
                txn: i,
                entity: e,
                lock_m,
                unlock_m,
            });
        }

        // A pair one transaction's DAG orders is a constant; every other
        // pair gets a variable.
        let m = milestones.len();
        let mut pairs = Vec::with_capacity(m * m.saturating_sub(1) / 2);
        let mut vars = 0usize;
        for a in 0..m {
            for b in (a + 1)..m {
                let (ta, sa) = milestones[a];
                let (tb, sb) = milestones[b];
                let t = sys.txn(TxnId::from_idx(ta));
                pairs.push(if ta == tb && t.precedes(sa, sb) {
                    Order::Fixed(true)
                } else if ta == tb && t.precedes(sb, sa) {
                    Order::Fixed(false)
                } else {
                    let var = Var(vars as u32);
                    vars += 1;
                    Order::Free(Lit::pos(var))
                });
            }
        }

        let enc = Encoder {
            sys,
            milestones,
            pairs,
            sections,
            section_of,
            offsets: step_offsets(sys),
        };
        // Room for the core: two three-literal clauses per triple at most.
        let triples = m * m.saturating_sub(1) * m.saturating_sub(2) / 6;
        let mut cnf = Cnf::with_capacity(vars, 2 * triples, 6 * triples);

        // Transitivity: forbid both cyclic orientations of every triple,
        // making any model's pair relation a strict total order.
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
        debug_assert_ne!(a, b);
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

    /// Whether the model puts milestone `a` before milestone `b`.
    fn precedes_in(&self, model: &[bool], a: usize, b: usize) -> bool {
        match self.order(a, b) {
            Order::Fixed(first) => first,
            Order::Free(lit) => model[lit.var().idx()] == lit.is_positive(),
        }
    }

    /// The section transaction `txn` holds on shared entity `e`.
    fn section(&self, txn: usize, e: EntityId) -> Section {
        self.sections[self.section_of[txn * self.sys.db().entity_count() + e.idx()]]
    }

    /// Decodes the model's milestone order restricted to the milestones
    /// `kept` keeps (over step nodes, numbered through `offsets`) and
    /// sorts the kept steps under the precedence DAGs plus that order
    /// ([`witness_schedule`]).
    fn decode(
        &self,
        model: &[bool],
        kept: impl Fn(usize) -> bool,
    ) -> Result<Schedule, SatCheckError> {
        let node = |a: usize| {
            let (t, s) = self.milestones[a];
            self.offsets[t] + s.idx()
        };
        // Total order over the kept milestones: sort by how many other
        // kept milestones come first.
        let mut chain: Vec<usize> = (0..self.milestones.len())
            .filter(|&a| kept(node(a)))
            .collect();
        let mut keys = vec![0usize; self.milestones.len()];
        for &a in &chain {
            keys[a] = chain
                .iter()
                .filter(|&&b| b != a && self.precedes_in(model, b, a))
                .count();
        }
        chain.sort_by_key(|&a| keys[a]);
        let txns: Vec<&Transaction> = self.sys.txns().iter().collect();
        let arcs = chain.windows(2).map(|w| (node(w[0]), node(w[1])));
        witness_schedule(&txns, &self.offsets, arcs, kept)
    }
}

/// The k-transaction encoder's witness: Kahn's sort
/// ([`kplock_graph::topo_sort`], smallest node first) of the steps of
/// `txns`, transaction `t`'s step `s` numbered `offsets[t] + s`, under
/// their precedence DAGs plus `arcs`, keeping the steps `kept` keeps and
/// the arcs between them, as a schedule with `txns[t]` as `TxnId(t)`.
/// A step that is not kept has no arc, so it moves no other step. The pair
/// paths run the same order directly ([`pair_schedule`]).
fn witness_schedule(
    txns: &[&Transaction],
    offsets: &[usize],
    arcs: impl Iterator<Item = (usize, usize)>,
    kept: impl Fn(usize) -> bool,
) -> Result<Schedule, SatCheckError> {
    let dags = txns.iter().zip(offsets).flat_map(|(t, &base)| {
        t.edge_graph()
            .edges()
            .map(move |(u, v)| (base + u, base + v))
    });
    let arcs = dags.chain(arcs).filter(|&(u, v)| kept(u) && kept(v));
    let order =
        topo_sort(&DiGraph::from_edges(offsets[txns.len()], arcs)).ok_or_else(cycle_error)?;
    let steps = order
        .into_iter()
        .filter(|&v| kept(v))
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

/// A witness whose arcs and precedence DAGs form a cycle.
fn cycle_error() -> SatCheckError {
    SatCheckError::WitnessDecode("the witness's arcs and the precedence DAGs form a cycle".into())
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

fn stats_of(cnf: &Cnf, solver: &Solver<'_>) -> EncodingStats {
    EncodingStats {
        vars: cnf.num_vars,
        clauses: cnf.num_clauses(),
        decisions: solver.decisions,
        propagations: solver.propagations,
        solves: 1,
    }
}

/// Decides whether some complete legal schedule of `sys` is
/// non-serializable, returning a verified witness schedule if so. A
/// system of two transactions takes the pair path, any other the
/// k-transaction encoding (see the module doc).
///
/// Agrees with [`crate::oracle::decide_exhaustive`] on every system both
/// can decide (the triad proptests pin this).
pub fn check_safety(sys: &TxnSystem) -> Result<SafetyCheck, SatCheckError> {
    if sys.len() == 2 {
        let sections = pair_sections(sys, TxnId(0), TxnId(1))?;
        let (witness, stats) = pair_witness((sys.txn(TxnId(0)), sys.txn(TxnId(1))), &sections)?;
        let verdict = match witness {
            Some((schedule, _)) => SatSafety::Unsafe(verified_unsafe(sys, schedule)?),
            None => SatSafety::Safe,
        };
        return Ok(SafetyCheck { verdict, stats });
    }
    let (enc, mut cnf) = Encoder::new(sys)?;

    // Same-entity sections of distinct transactions never overlap in a
    // complete legal schedule: one must fully precede the other.
    by_entity_pairs(&enc, |a, b| {
        cnf.add_clause([
            enc.before(a.unlock_m, b.lock_m),
            enc.before(b.unlock_m, a.lock_m),
        ]);
    });

    // Conflict-edge candidates: ordered transaction pairs sharing a locked
    // entity. sel(i→j) asserts the serialization graph has edge i → j.
    let mut candidates: Vec<(usize, usize, Vec<EntityId>)> = Vec::new();
    for i in 0..sys.len() {
        for j in 0..sys.len() {
            if i == j {
                continue;
            }
            let shared = sys.shared_locked_entities(TxnId::from_idx(i), TxnId::from_idx(j));
            if !shared.is_empty() {
                candidates.push((i, j, shared));
            }
        }
    }
    if candidates.is_empty() {
        // No two transactions conflict: the serialization graph is edgeless
        // and every complete schedule serializable.
        return Ok(SafetyCheck {
            verdict: SatSafety::Safe,
            stats: EncodingStats {
                vars: cnf.num_vars,
                clauses: cnf.num_clauses(),
                ..Default::default()
            },
        });
    }
    let sel_base = cnf.num_vars;
    cnf.num_vars += candidates.len();
    let sel = |idx: usize| Var((sel_base + idx) as u32);

    for (idx, (i, j, shared)) in candidates.iter().enumerate() {
        // A selected edge must be realized by some shared entity whose
        // section order runs i before j.
        let realized = shared.iter().map(|&e| {
            let (si, sj) = (enc.section(*i, e), enc.section(*j, e));
            enc.before(si.unlock_m, sj.lock_m)
        });
        cnf.add_clause(std::iter::once(Lit::neg(sel(idx))).chain(realized));
        // Every selected edge's tail has an incoming selected edge; any
        // nonempty such set contains a directed cycle, and conversely an
        // actual cycle selects itself.
        let incoming = candidates
            .iter()
            .enumerate()
            .filter(|(_, (_, kj, _))| kj == i)
            .map(|(kidx, _)| Lit::pos(sel(kidx)));
        cnf.add_clause(std::iter::once(Lit::neg(sel(idx))).chain(incoming));
    }
    cnf.add_clause((0..candidates.len()).map(|idx| Lit::pos(sel(idx))));

    let mut solver = Solver::new(&cnf);
    let result = solver.solve();
    let stats = stats_of(&cnf, &solver);
    match result {
        SatResult::Unsat => Ok(SafetyCheck {
            verdict: SatSafety::Safe,
            stats,
        }),
        SatResult::Sat(model) => Ok(SafetyCheck {
            verdict: SatSafety::Unsafe(verified_unsafe(sys, enc.decode(&model, |_| true)?)?),
            stats,
        }),
    }
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

/// The sections of the pair `a`, `b` on the entities both lock, the
/// vertices of `D(a, b)` in ascending entity order, once [`admit_pair`] has
/// admitted both; they are read off its lock and unlock steps.
pub(crate) fn pair_sections(
    sys: &TxnSystem,
    a: TxnId,
    b: TxnId,
) -> Result<Vec<Sections>, SatCheckError> {
    let n_e = sys.db().entity_count();
    let ends = admit_pair(sys, a, b)?;
    let (ends_a, ends_b) = ends.split_at(n_e);
    let step = |v: u32| StepId::from_idx(v as usize);
    let shared = || (0..n_e).filter(|&e| ends_a[e][0] != NO_STEP && ends_b[e][0] != NO_STEP);
    let mut sections = Vec::with_capacity(shared().count());
    sections.extend(shared().map(|e| Sections {
        lock_a: step(ends_a[e][0]),
        unlock_a: step(ends_a[e][1]),
        lock_b: step(ends_b[e][0]),
        unlock_b: step(ends_b[e][1]),
    }));
    Ok(sections)
}

/// One arc the section graph of a pair may have: `x → y`, there when
/// `o_x == first` and `o_y != first`. `two_cycle` marks an arc with `x` in
/// S whose reverse `y → x` (with `y` not in S) exists too: a 2-cycle, which
/// is `D`'s arc `y → x`.
#[derive(Clone, Copy)]
struct SectionArc {
    x: u32,
    y: u32,
    first: bool,
    two_cycle: bool,
}

/// The arcs some orientation gives the section graph of a pair over its
/// shared entities: per entity `x`, per other entity `y`, the arc `x → y`
/// with `x` in S (`Lx ≺_b Uy`), then the one with `x` not in S
/// (`Lx ≺_a Uy`). Counted first, so that the list is allocated once at its
/// size and a formula can make room for [`solve_pair`]'s 2-cycle clauses
/// before it is written.
struct SectionArcs {
    arcs: Vec<SectionArc>,
    /// How many of the arcs close a 2-cycle.
    two_cycles: usize,
    /// The shared entities, the section graph's nodes.
    nodes: usize,
}

impl SectionArcs {
    fn of((ta, tb): (&Transaction, &Transaction), sections: &[Sections]) -> Self {
        // Per ordered pair: the arc with `x` in S, whether it closes a
        // 2-cycle, the arc with `x` not in S.
        let kinds = |x: usize, y: usize| {
            let (sx, sy) = (&sections[x], &sections[y]);
            let in_s = tb.precedes(sx.lock_b, sy.unlock_b);
            [
                in_s,
                in_s && ta.precedes(sy.lock_a, sx.unlock_a),
                ta.precedes(sx.lock_a, sy.unlock_a),
            ]
        };
        let nodes = sections.len();
        let pairs = || {
            (0..nodes).flat_map(move |x| (0..nodes).filter(move |&y| y != x).map(move |y| (x, y)))
        };
        let (mut len, mut two_cycles) = (0, 0);
        for (x, y) in pairs() {
            let [in_s, two_cycle, out_s] = kinds(x, y);
            len += usize::from(in_s) + usize::from(out_s);
            two_cycles += usize::from(two_cycle);
        }
        let mut arcs = Vec::with_capacity(len);
        for (x, y) in pairs() {
            let [in_s, two_cycle, out_s] = kinds(x, y);
            let (x, y) = (x as u32, y as u32);
            if in_s {
                arcs.push(SectionArc {
                    x,
                    y,
                    first: true,
                    two_cycle,
                });
            }
            if out_s {
                arcs.push(SectionArc {
                    x,
                    y,
                    first: false,
                    two_cycle: false,
                });
            }
        }
        SectionArcs {
            arcs,
            two_cycles,
            nodes,
        }
    }
}

/// The search both pair paths share. `cnf` holds the orientation `o_x`
/// of shared entity `x` (`a`'s section on `x` runs first) at variable
/// `base + x`, and what the path needs besides; this adds the section
/// graph, whose possible arcs are `arcs`. Its arc `x → y` is there when
/// `o_x ∧ ¬o_y` and `Lx ≺_b Uy`, or `¬o_x ∧ o_y` and `Lx ≺_a Uy`; on a
/// prefix it also needs the literal `second(y, o_y)` true, the lock of `y`
/// by the transaction whose section on `y` runs second (a complete
/// schedule passes `None`). Each 2-cycle gets a clause; then solve, lay the
/// model's arcs out in a [`CycleTest`], and while they have a cycle add
/// the clause forbidding its orientations and second locks and solve
/// again. Returns a model whose section graph is acyclic, if there is one,
/// and the effort summed over every solve.
fn solve_pair(
    cnf: &mut Cnf,
    arcs: &SectionArcs,
    base: usize,
    second: impl Fn(usize, bool) -> Option<Lit>,
) -> (Option<Vec<bool>>, EncodingStats) {
    let orient = |x: usize| Var((base + x) as u32);
    let unless = |lit: Option<Lit>| lit.map(Lit::negated);
    // A 2-cycle with `x` in S is `D`'s arc `y → x`.
    for arc in arcs.arcs.iter().filter(|arc| arc.two_cycle) {
        let (x, y) = (arc.x as usize, arc.y as usize);
        let guards = unless(second(y, false))
            .into_iter()
            .chain(unless(second(x, true)));
        cnf.add_clause(
            [Lit::neg(orient(x)), Lit::pos(orient(y))]
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
            if o(x) == arc.first && o(y) != arc.first && holds(second(y, o(y))) {
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

/// The pair paths' witness: Kahn's sort, smallest node first, of the
/// steps `executed` keeps, `b`'s numbered after `a`'s, under both DAGs plus
/// the section arcs `orient` picks, as a schedule of `TxnId(0)` and
/// `TxnId(1)` — [`witness_schedule`]'s order, run on the pair directly. An
/// arc is kept when both its ends are, so a section arc joins two sections
/// that are both locked.
///
/// A node's arcs are its DAG row and at most one section arc, which only
/// an unlock step has, so the sort counts in-degrees over those and takes
/// the smallest ready node off a bit set, with no graph built.
fn pair_schedule(
    ta: &Transaction,
    tb: &Transaction,
    sections: &[Sections],
    orient: impl Fn(usize) -> bool,
    executed: impl Fn(usize) -> bool,
) -> Result<Schedule, SatCheckError> {
    let off = ta.len();
    let n = off + tb.len();
    // Per node: its kept in-degree, then the head of its section arc.
    let mut node = vec![[0u32, NO_NODE]; n];
    for (x, s) in sections.iter().enumerate() {
        let (u, v) = if orient(x) {
            (s.unlock_a.idx(), off + s.lock_b.idx())
        } else {
            (off + s.unlock_b.idx(), s.lock_a.idx())
        };
        if executed(u) && executed(v) {
            node[u][1] = v as u32;
            node[v][0] += 1;
        }
    }
    // Node `u`'s DAG successors, numbered as nodes.
    let dag = |u: usize| {
        let (t, base) = if u < off { (ta, 0) } else { (tb, off) };
        t.edge_graph()
            .successors(u - base)
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
        let (txn, step) = if u < off { (0, u) } else { (1, u - off) };
        steps.push(ScheduledStep {
            txn: TxnId(txn),
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

/// [`pair_witness`]'s witness schedule and the model's orientation.
pub(crate) type PairWitness = (Schedule, Vec<bool>);

/// The pair path: whether the transactions `ta` and `tb`, admitted by
/// [`admit_pair`], have a complete legal schedule that is not
/// serializable, decided over `sections`, theirs on the entities both lock
/// in ascending entity order (the vertices of `D(ta, tb)`, as
/// [`pair_sections`] or `D` read them), and an unverified witness if so,
/// with `ta` as `TxnId(0)` and `tb` as `TxnId(1)`, beside the model's
/// orientation: per shared entity, whether `ta`'s section runs first, that
/// is whether the witness unlocks it in `ta` before `tb` locks it.
///
/// Two clauses force the orientation set S to be mixed, and
/// [`solve_pair`] keeps the section graph acyclic, so a model's
/// orientation leaves both DAGs plus the section arcs acyclic and the
/// schedule non-serializable.
pub(crate) fn pair_witness(
    (ta, tb): (&Transaction, &Transaction),
    sections: &[Sections],
) -> Result<(Option<PairWitness>, EncodingStats), SatCheckError> {
    let n = sections.len();
    // One section per transaction cannot make a conflict cycle.
    if n < 2 {
        return Ok((None, EncodingStats::default()));
    }
    let arcs = SectionArcs::of((ta, tb), sections);
    let two_cycles = arcs.two_cycles;
    let mut cnf = Cnf::with_capacity(n, 2 + two_cycles, 2 * n + 2 * two_cycles);
    cnf.add_clause((0..n).map(|x| Lit::pos(Var(x as u32))));
    cnf.add_clause((0..n).map(|x| Lit::neg(Var(x as u32))));
    let (model, stats) = solve_pair(&mut cnf, &arcs, 0, |_, _| None);
    let Some(model) = model else {
        return Ok((None, stats));
    };
    // The formula has no variable but the orientations.
    let orient = model;
    let witness = pair_schedule(ta, tb, sections, |x| orient[x], |_| true)?;
    Ok((Some((witness, orient)), stats))
}

/// [`pair_schedule`]'s entry for a node no section arc leaves.
const NO_NODE: u32 = u32::MAX;

/// The deadlock pair path: whether some legal prefix of the pair `sys`
/// stalls every remaining step, decided over its *milestones*, the lock
/// and unlock steps of the `n` entities both transactions lock: the
/// formula [`pair_prefix_formula`] writes, searched by [`solve_pair`] with
/// an arc into `y` guarded by the second lock of `y` having run
/// ([`second_lock`]). A cycle through the executed steps and the section
/// arcs alternates as on a complete schedule, since a DAG path that ends at
/// an executed step runs through executed steps only. Fewer than two shared
/// entities cannot deadlock and need no formula.
fn pair_deadlock(sys: &TxnSystem) -> Result<DeadlockCheck, SatCheckError> {
    let sections = pair_sections(sys, TxnId(0), TxnId(1))?;
    let n = sections.len();
    // Each transaction of a stalled pair waits for an entity the other
    // holds, and no entity is held twice: that takes two shared entities.
    if n < 2 {
        return Ok(DeadlockCheck {
            deadlock: None,
            stats: EncodingStats::default(),
        });
    }
    let txns = (sys.txn(TxnId(0)), sys.txn(TxnId(1)));
    let arcs = SectionArcs::of(txns, &sections);
    let mut cnf = pair_prefix_formula(txns, &sections, arcs.two_cycles);
    let (model, stats) = solve_pair(&mut cnf, &arcs, 4 * n, second_lock);
    let Some(model) = model else {
        return Ok(DeadlockCheck {
            deadlock: None,
            stats,
        });
    };
    // A step ran iff no milestone of its transaction at or before it is
    // missing: the steps that did not are the union of the missing
    // milestones' closure rows, `a`'s words first.
    let (ta, tb) = txns;
    let words_a = ta.len().div_ceil(64);
    let mut missed = vec![0u64; words_a + tb.len().div_ceil(64)];
    for m in (0..4 * n).filter(|&m| model[m]) {
        let (t, base, s) = milestone_at(txns, &sections, m);
        let words = if base == 0 {
            &mut missed[..words_a]
        } else {
            &mut missed[words_a..]
        };
        for (w, row) in words.iter_mut().zip(t.closure().row(s.idx())) {
            *w |= row;
        }
    }
    let ran = |v: usize| {
        let (word, bit) = match v.checked_sub(ta.len()) {
            None => (v / 64, v % 64),
            Some(u) => (words_a + u / 64, u % 64),
        };
        missed[word] >> bit & 1 == 0
    };
    let orient = |i: usize| model[4 * n + i];
    let prefix = pair_schedule(ta, tb, &sections, orient, ran)?;
    Ok(DeadlockCheck {
        deadlock: Some(verified_deadlock(sys, prefix)?),
        stats,
    })
}

/// The literal "milestone `m` ran" of [`pair_prefix_formula`], whose
/// variable `m` is the milestone's missing flag.
pub(crate) fn ran(m: usize) -> Lit {
    Lit::neg(Var(m as u32))
}

/// [`solve_pair`]'s guard on the deadlock pair path: the literal "the
/// second lock of shared entity `y` ran", `b`'s (milestone `4y + 2`) when
/// `a`'s section runs first, else `a`'s (milestone `4y`).
pub(crate) fn second_lock(y: usize, a_first: bool) -> Option<Lit> {
    Some(ran(4 * y + 2 * usize::from(a_first)))
}

/// Milestone `m` of a pair whose shared entity `i` gives milestones `4i`
/// to `4i + 3`, `a`'s lock and unlock, then `b`'s: its transaction, the
/// number of that transaction's first step (`b`'s steps come after
/// `a`'s) and its step.
pub(crate) fn milestone_at<'t>(
    (ta, tb): (&'t Transaction, &'t Transaction),
    sections: &[Sections],
    m: usize,
) -> (&'t Transaction, usize, StepId) {
    let s = sections[m / 4];
    let step = [s.lock_a, s.unlock_a, s.lock_b, s.unlock_b][m % 4];
    if m % 4 < 2 {
        (ta, 0, step)
    } else {
        (tb, ta.len(), step)
    }
}

/// The deadlock pair path's formula without the section graph, over
/// `5n` variables for `n` shared entities: the *missing* flag `M(m)` of
/// milestone `m` ([`milestone_at`]) is variable `m`, true when the
/// milestone has not run ([`ran`] is its negation), and the orientation of
/// entity `x` is variable `4n + x`. The flags say "missing" rather than
/// "executed" because the solver starts every variable at phase `true`:
/// its first descent then starts from the empty prefix and runs
/// milestones as the clauses force them, where executed flags would run
/// every milestone first and back out through the stall clauses. The two
/// formulas differ only in the sign of those variables, so their models
/// map one to one.
///
/// In a pair only a lock on a shared entity can be blocked, so in a
/// stalled prefix a step that is no milestone has run exactly when every
/// milestone before it has. A missing milestone makes the milestones it
/// is a nearest milestone predecessor of missing. Each transaction's
/// milestone order is read off its cached closure into one bit matrix, row
/// `j` holding the milestones before its milestone `j`; a predecessor is
/// nearest when no row of another predecessor holds it, that is when none
/// of its successors is a predecessor too. Legality,
/// `¬o_x ∨ M(Lb x) ∨ ¬M(Ua x)` and `o_x ∨ M(La x) ∨ ¬M(Ub x)`, lets the
/// second section on `x` lock only once the first has unlocked. A
/// milestone whose nearest milestone predecessors ran has run or is a lock
/// on `x` the other transaction holds, written as two clauses: its lock of
/// `x` ran, and its unlock did not. Some milestone is missing.
///
/// The formula is counted before it is written and allocated once, with
/// room for `two_cycles` more clauses of four literals, [`solve_pair`]'s
/// 2-cycle clauses.
pub(crate) fn pair_prefix_formula(
    txns: (&Transaction, &Transaction),
    sections: &[Sections],
    two_cycles: usize,
) -> Cnf {
    let n = sections.len();
    let orient = |i: usize| Var((4 * n + i) as u32);
    // Each transaction's milestone `j` is its lock (`j` even) or unlock of
    // shared entity `j / 2`, the pair's milestone `4 (j / 2) + 2t + j % 2`
    // for transaction `t`. The two matrices, then milestone `m`'s nearest
    // milestone predecessors at row `m`, each row `stride` words over the
    // milestones of `m`'s own transaction.
    let stride = (2 * n).div_ceil(64);
    let matrix = 2 * n * stride;
    let mut words = vec![0u64; 2 * matrix + 4 * n * stride];
    let (before_a, rest) = words.split_at_mut(matrix);
    let (before_b, nearest) = rest.split_at_mut(matrix);
    for (t, (txn, before)) in [(txns.0, before_a), (txns.1, before_b)]
        .into_iter()
        .enumerate()
    {
        let step = |j: usize| {
            let s = &sections[j / 2];
            [[s.lock_a, s.unlock_a], [s.lock_b, s.unlock_b]][t][j % 2].idx()
        };
        let closure = txn.closure();
        for j in 0..2 * n {
            for q in (0..2 * n).filter(|&q| q != j && closure.reaches(step(q), step(j))) {
                before[j * stride + q / 64] |= 1 << (q % 64);
            }
        }
        for j in 0..2 * n {
            let preds = &before[j * stride..][..stride];
            let m = 4 * (j / 2) + 2 * t + j % 2;
            for (k, &word) in preds.iter().enumerate() {
                let followed = ones(preds).fold(0, |acc, q| acc | before[q * stride + k]);
                nearest[m * stride + k] = word & !followed;
            }
        }
    }
    let preds_of = |m: usize| {
        let t = m % 4 / 2;
        ones(&nearest[m * stride..][..stride]).map(move |q| 4 * (q / 2) + 2 * t + q % 2)
    };

    // Counts first: the downward closure's two-literal clauses, legality,
    // the stall clauses and the last clause, plus the 2-cycle clauses.
    let (mut clauses, mut lits) = (8 * n + 1 + two_cycles, 10 * n + 4 * two_cycles);
    for m in 0..4 * n {
        let p = preds_of(m).count();
        let stall = if m % 2 == 0 { 2 * (p + 2) } else { p + 1 };
        clauses += p;
        lits += 2 * p + stall;
    }
    let mut cnf = Cnf::with_capacity(5 * n, clauses, lits);
    // Downward closure: a milestone that ran has its nearest milestone
    // predecessors run.
    for m in 0..4 * n {
        for q in preds_of(m) {
            cnf.add_clause([ran(m).negated(), ran(q)]);
        }
    }
    // Legality: the second section on an entity locks only once the first
    // has unlocked.
    for i in 0..n {
        let (o, m) = (orient(i), 4 * i);
        cnf.add_clause([Lit::neg(o), ran(m + 2).negated(), ran(m + 1)]);
        cnf.add_clause([Lit::pos(o), ran(m).negated(), ran(m + 3)]);
    }
    // The stall: a milestone whose nearest milestone predecessors ran has
    // run, or is a lock whose entity the other transaction holds...
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
    // ... and some milestone is missing, else every step has run.
    cnf.add_clause((0..4 * n).map(|m| ran(m).negated()));
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
/// (the oracle's `deadlock_reachable`), returning a verified prefix if so.
/// A system of two transactions takes the pair path, any other the
/// k-transaction encoding (see the module doc).
pub fn check_deadlock(sys: &TxnSystem) -> Result<DeadlockCheck, SatCheckError> {
    if sys.len() == 2 {
        return pair_deadlock(sys);
    }
    let (enc, mut cnf) = Encoder::new(sys)?;

    // Executed flag per step.
    let total = enc.offsets[sys.len()];
    let x_base = cnf.num_vars;
    cnf.num_vars += total;
    let x = |t: usize, s: StepId| Var((x_base + enc.offsets[t] + s.idx()) as u32);
    // Holder flag per section: h asserts the section's transaction holds
    // the entity in the final state (locked, not yet unlocked).
    let h_base = cnf.num_vars;
    cnf.num_vars += enc.sections.len();
    let h = |sec: usize| Var((h_base + sec) as u32);

    for (t, txn) in sys.txns().iter().enumerate() {
        for v in 0..txn.len() {
            let s = StepId::from_idx(v);
            // Downward closure: an executed step's DAG predecessors are
            // executed.
            for &p in txn.edge_graph().predecessors(v) {
                cnf.add_clause([Lit::neg(x(t, s)), Lit::pos(x(t, StepId::from_idx(p)))]);
            }
        }
    }

    by_entity_pairs(&enc, |a, b| {
        let (la, ua) = (enc.milestones[a.lock_m], enc.milestones[a.unlock_m]);
        let (lb, ub) = (enc.milestones[b.lock_m], enc.milestones[b.unlock_m]);
        // If both locks executed, the sections are disjoint and ordered.
        cnf.add_clause([
            Lit::neg(x(la.0, la.1)),
            Lit::neg(x(lb.0, lb.1)),
            enc.before(a.unlock_m, b.lock_m),
            enc.before(b.unlock_m, a.lock_m),
        ]);
        // Cross-transaction closure: a section ordered before an executed
        // lock has released (its unlock executed), in both directions.
        cnf.add_clause([
            enc.before(a.unlock_m, b.lock_m).negated(),
            Lit::neg(x(lb.0, lb.1)),
            Lit::pos(x(ua.0, ua.1)),
        ]);
        cnf.add_clause([
            enc.before(b.unlock_m, a.lock_m).negated(),
            Lit::neg(x(la.0, la.1)),
            Lit::pos(x(ub.0, ub.1)),
        ]);
    });

    for (idx, sec) in enc.sections.iter().enumerate() {
        let l = enc.milestones[sec.lock_m];
        let u = enc.milestones[sec.unlock_m];
        cnf.add_clause([Lit::neg(h(idx)), Lit::pos(x(l.0, l.1))]);
        cnf.add_clause([Lit::neg(h(idx)), Lit::neg(x(u.0, u.1))]);
    }

    // The stall condition: every step is executed, or missing a
    // predecessor, or a lock blocked by some holder.
    for (t, txn) in sys.txns().iter().enumerate() {
        for v in 0..txn.len() {
            let s = StepId::from_idx(v);
            let missing = txn
                .edge_graph()
                .predecessors(v)
                .iter()
                .map(|&p| Lit::neg(x(t, StepId::from_idx(p))));
            let step = txn.step(s);
            let blockers = enc
                .sections
                .iter()
                .enumerate()
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

    // ... and at least one step is missing, else the state is complete.
    cnf.add_clause((x_base..x_base + total).map(|v| Lit::neg(Var(v as u32))));

    let mut solver = Solver::new(&cnf);
    let result = solver.solve();
    let stats = stats_of(&cnf, &solver);
    match result {
        SatResult::Unsat => Ok(DeadlockCheck {
            deadlock: None,
            stats,
        }),
        SatResult::Sat(model) => {
            let prefix = enc.decode(&model, |v| model[x_base + v])?;
            Ok(DeadlockCheck {
                deadlock: Some(verified_deadlock(sys, prefix)?),
                stats,
            })
        }
    }
}

/// Invokes `f` on every unordered pair of same-entity sections of
/// distinct transactions.
fn by_entity_pairs(enc: &Encoder<'_>, mut f: impl FnMut(Section, Section)) {
    for (ai, a) in enc.sections.iter().enumerate() {
        for b in enc.sections.iter().skip(ai + 1) {
            if a.entity == b.entity && a.txn != b.txn {
                f(*a, *b);
            }
        }
    }
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
        // No entity is shared, so nothing is ordered.
        let (enc, core) = Encoder::new(&sys).unwrap();
        assert!(enc.milestones.is_empty());
        assert_eq!((core.num_vars, core.num_clauses()), (0, 0));
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
        // Four milestones make six pairs; each transaction fixes its own
        // lock before its unlock, which leaves the four cross pairs. A
        // section no other transaction shares (`y`) adds nothing.
        for scripts in [["Lx x Ux", "Lx x Ux"], ["Lx x Ux Ly y Uy", "Lx x Ux"]] {
            let sys = sys_of(&scripts);
            let (enc, core) = Encoder::new(&sys).unwrap();
            assert_eq!(enc.milestones.len(), 4, "{scripts:?}");
            assert_eq!(core.num_vars, 4, "{scripts:?}");
        }
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
    fn milestone_cap_is_enforced() {
        let sys = two_phase(81, &[(0..81).collect()]);
        assert!(matches!(
            check_safety(&sys),
            Err(SatCheckError::TooLarge {
                milestones: 162,
                cap: 160
            })
        ));
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
        assert_eq!(lock_steps, MAX_MILESTONES);
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
    /// random pair, and [`pair_sections`] to the sections looked up over
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
        let flat = pair_sections(&sys, TxnId(0), TxnId(1));
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
        assert_eq!(flat.map(quads), by_lookup.map(quads), "seed {seed}");
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

    /// The pair witness as it was sorted before the merge: both DAGs and
    /// the section arcs as a `DiGraph`, through [`witness_schedule`].
    fn pair_schedule_by_sort(
        ta: &Transaction,
        tb: &Transaction,
        sections: &[Sections],
        orient: impl Fn(usize) -> bool,
        executed: impl Fn(usize) -> bool,
    ) -> Result<Schedule, SatCheckError> {
        let off = ta.len();
        let section_arcs = sections.iter().enumerate().map(|(x, s)| {
            if orient(x) {
                (s.unlock_a.idx(), off + s.lock_b.idx())
            } else {
                (off + s.unlock_b.idx(), s.lock_a.idx())
            }
        });
        let offsets = [0, off, off + tb.len()];
        witness_schedule(&[ta, tb], &offsets, section_arcs, executed)
    }

    /// Holds [`pair_schedule`] to [`pair_schedule_by_sort`] on a random pair
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
        let sections = pair_sections(&sys, TxnId(0), TxnId(1)).expect("admitted");
        let (ta, tb) = (sys.txn(TxnId(0)), sys.txn(TxnId(1)));
        let orient: Vec<bool> = sections.iter().map(|_| rng.gen_bool(0.5)).collect();
        // Each transaction's steps in a topological order, each kept when
        // its predecessors are, at random.
        let mut executed = Vec::with_capacity(ta.len() + tb.len());
        for t in [ta, tb] {
            let base = executed.len();
            executed.resize(base + t.len(), false);
            for v in topo_sort(t.edge_graph()).expect("a DAG") {
                let preds = t.edge_graph().predecessors(v);
                executed[base + v] = preds.iter().all(|&p| executed[base + p]) && rng.gen_bool(0.8);
            }
        }
        let mut cycles = 0;
        for kept in [vec![true; executed.len()], executed] {
            let merged = pair_schedule(ta, tb, &sections, |x| orient[x], |v| kept[v]);
            let sorted = pair_schedule_by_sort(ta, tb, &sections, |x| orient[x], |v| kept[v]);
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

    /// Holds [`pair_prefix_formula`] to the DAG walk it replaced
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
        let sections = pair_sections(&sys, TxnId(0), TxnId(1)).expect("admitted");
        let txns = (sys.txn(TxnId(0)), sys.txn(TxnId(1)));
        let got = pair_prefix_formula(txns, &sections, 0);
        let want = pair_prefix_formula_by_walk(txns, &sections);
        assert_eq!(got.num_vars, want.num_vars, "seed {seed}");
        assert_eq!(
            clause_multiset(&got),
            clause_multiset(&want),
            "seed {seed}: {sections:?}"
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
