//! Deadlock **avoidance** plans: the paper's static analysis packaged for
//! a runtime.
//!
//! Theorems 1–3 decide, *before anything runs*, whether a declared
//! transaction set can misbehave. This module turns that decision into
//! something a lock manager can consume: an [`AvoidPlan`] certifies a
//! subset of the declared transactions against one global **safe lock
//! order** and synthesizes per-site local controllers (the order
//! restricted to each site's entities). A certified transaction only
//! ever holds an entity while requesting a *later* one in the order, so
//! no wait-for cycle among certified transactions can exist — avoidance
//! needs **no runtime messages** and no wait-for graph; transactions
//! outside the certified set fall back to a runtime discipline of the
//! caller's choice (the simulator uses wound-wait).
//!
//! # The certification condition
//!
//! For one transaction, draw an edge `x → y` between locked entities
//! whenever some execution can **hold `x` while the request for `y` is
//! pending**. With steps issued as soon as their predecessors complete,
//! that is possible exactly when neither `Ux ≺ Ly` (x is always gone
//! before y is asked for) nor `Ly ≺ Lx` (y is always granted before x is
//! even requested):
//!
//! ```text
//! edge x → y   ⇔   ¬(Ux ≺ Ly)  ∧  ¬(Ly ≺ Lx)
//! ```
//!
//! A set of transactions is **certified** when the union of these
//! per-transaction digraphs is acyclic; any topological order of the
//! union is a safe lock order σ. Soundness (why no wait-for cycle can
//! form, FIFO queues included): in a hypothetical cycle each member
//! waits for one entity; follow it around. A member *holding* `eᵢ`
//! while waiting for `eᵢ₊₁` contributes the edge `eᵢ → eᵢ₊₁`, so
//! σ(eᵢ) < σ(eᵢ₊₁); a member merely *queued ahead* on the same entity
//! keeps σ equal but strictly decreases the queue position. Around a
//! cycle σ must return to its start, forcing every hop to be a queue
//! hop — and queue positions cannot decrease forever. Contradiction.
//!
//! Certification is conservative (partial orders are judged by what they
//! *could* do), deterministic, and polynomial — the same complexity
//! class the paper's Theorem 2 places the two-site decision in, and the
//! practical counterweight to Theorem 3's many-site hardness: the plan
//! certifies what it can and meters the rest.

use kplock_graph::{DiGraph, TopoOrder};
use kplock_model::{ActionKind, EntityId, SiteId, StepId, Transaction, TxnId, TxnSystem};
use std::fmt;

/// Why a plan failed [`AvoidPlan::verify`] against a system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AvoidPlanError {
    /// The plan was synthesized from a different number of transactions.
    TxnCountMismatch {
        /// Transactions the plan knows about.
        plan: usize,
        /// Transactions the system declares.
        system: usize,
    },
    /// The safe lock order is not a permutation of the database's
    /// entities.
    OrderNotPermutation,
    /// A certified transaction can hold `held` while requesting
    /// `requested`, yet the safe order puts `requested` first — the
    /// controller would not prevent that wait from closing a cycle.
    EdgeViolation {
        /// The offending certified transaction.
        txn: TxnId,
        /// The entity it can hold.
        held: EntityId,
        /// The σ-earlier entity it can request while holding `held`.
        requested: EntityId,
    },
}

impl fmt::Display for AvoidPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AvoidPlanError::TxnCountMismatch { plan, system } => write!(
                f,
                "plan certifies {plan} transactions but the system declares {system}"
            ),
            AvoidPlanError::OrderNotPermutation => {
                write!(f, "safe lock order is not a permutation of the entities")
            }
            AvoidPlanError::EdgeViolation {
                txn,
                held,
                requested,
            } => write!(
                f,
                "certified {txn:?} can hold {held:?} while requesting {requested:?}, \
                 which the safe order places earlier"
            ),
        }
    }
}

impl std::error::Error for AvoidPlanError {}

/// One site's local controller: the global safe lock order restricted to
/// the entities stored at that site.
///
/// This is all a site needs at runtime — certified transactions request
/// its entities in ascending controller rank, so the site can assert
/// conformance (and make escalation decisions) from purely local
/// knowledge, without a message to anyone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteController {
    /// The site this controller is local to.
    pub site: SiteId,
    /// The site's entities in global safe-lock-order position.
    pub order: Vec<EntityId>,
}

/// A runtime-consumable avoidance plan for one declared transaction set:
/// which transactions are certified, the global safe lock order
/// certifying them, and the per-site controllers derived from it.
///
/// Build one with [`AvoidPlan::synthesize`] (greedy maximal certified
/// set) or [`AvoidPlan::synthesize_restricted`] (certification restricted
/// to a candidate subset — the knob `kplock-workload`'s `avoid_mix_sweep`
/// uses to control the certified fraction, and the way to force an empty
/// certified set for fallback-equivalence tests).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AvoidPlan {
    /// Number of declared transactions the plan was synthesized from.
    txns: usize,
    /// `certified[t]` — transaction `t` is covered by the certificate.
    certified: Vec<bool>,
    /// The global safe lock order: every database entity, σ-ascending.
    order: Vec<EntityId>,
    /// `rank[e.idx()]` — position of entity `e` in [`AvoidPlan::order`].
    rank: Vec<usize>,
    /// Per-site restrictions of the order, one per database site.
    controllers: Vec<SiteController>,
}

/// The hold-while-request edges of one transaction: `(x, y)` whenever
/// some execution can hold `x` while the lock request for `y` is
/// outstanding (see the module docs for the derivation). These are the
/// constraints a safe lock order must respect for this transaction.
/// Ordered by `x`, then `y`, ascending.
pub fn hold_request_edges(t: &Transaction) -> Vec<(EntityId, EntityId)> {
    let mut edges = Vec::new();
    EdgeScratch::default().fill(t, false, &mut edges);
    edges
}

/// The buffers [`hold_request_edges`] fills from, kept across
/// transactions: one section per locked entity, ascending by entity.
#[derive(Default)]
struct EdgeScratch {
    /// `(entity, lock step, unlock step)`.
    sections: Vec<(EntityId, StepId, Option<StepId>)>,
}

impl EdgeScratch {
    /// Fills `edges` with `t`'s [`hold_request_edges`], in their order,
    /// and returns `true`. With `refuse_two_cycles`, stops at the first
    /// pair of concurrent lock steps and returns `false`: such a pair can
    /// hold either entity while requesting the other, an edge each way,
    /// so `t` alone is uncertifiable.
    fn fill(
        &mut self,
        t: &Transaction,
        refuse_two_cycles: bool,
        edges: &mut Vec<(EntityId, EntityId)>,
    ) -> bool {
        edges.clear();
        self.sections.clear();
        for (i, s) in t.steps().iter().enumerate() {
            if s.kind == ActionKind::Lock {
                let lock = StepId::from_idx(i);
                self.sections
                    .push((s.entity, lock, t.unlock_step(s.entity)));
            }
        }
        self.sections.sort_unstable_by_key(|&(e, ..)| e);
        for &(x, lx, ux) in &self.sections {
            for &(y, ly, _) in &self.sections {
                if x == y {
                    continue;
                }
                // `Ux ≺ Ly` forces x released before y is requested; a
                // missing unlock step means x is held to the end and never
                // rules the overlap out.
                let released_first = ux.is_some_and(|ux| t.precedes(ux, ly));
                // `Ly ≺ Lx` forces y granted before x is even requested.
                let granted_first = t.precedes(ly, lx);
                if !released_first && !granted_first {
                    // Neither lock precedes the other: `y → x` is an edge
                    // too (`Uy ≺ Lx` would put `Ly` before `Lx`).
                    if refuse_two_cycles && !t.precedes(lx, ly) {
                        return false;
                    }
                    edges.push((x, y));
                }
            }
        }
        true
    }
}

impl AvoidPlan {
    /// Synthesizes a plan with a **greedy maximal** certified set:
    /// transactions are considered in declaration order and kept whenever
    /// the union hold-while-request digraph stays acyclic. Deterministic;
    /// a transaction locking at most one entity is always certified.
    pub fn synthesize(sys: &TxnSystem) -> AvoidPlan {
        let all: Vec<TxnId> = (0..sys.len()).map(TxnId::from_idx).collect();
        Self::synthesize_restricted(sys, &all)
    }

    /// Synthesizes a plan whose certified set is drawn only from
    /// `candidates` (greedily, in declaration order); every other
    /// transaction is left to the runtime fallback even if it would have
    /// certified. A candidate naming no transaction of `sys` is skipped.
    /// `synthesize_restricted(sys, &[])` yields the empty certificate —
    /// pure fallback, the arm equivalence tests pin against wound-wait.
    ///
    /// The certified union is kept in one [`TopoOrder`]: each candidate's
    /// edges go in as a batch, rolled back if one would close a cycle, so
    /// no candidate copies or re-sorts the union. A candidate with two
    /// concurrent lock steps is refused before any edge goes in.
    pub fn synthesize_restricted(sys: &TxnSystem, candidates: &[TxnId]) -> AvoidPlan {
        let n_ents = sys.db().entity_count();
        let mut candidate = vec![false; sys.len()];
        for &t in candidates {
            if let Some(c) = candidate.get_mut(t.idx()) {
                *c = true;
            }
        }
        let mut certified = vec![false; sys.len()];
        let mut union = DiGraph::new(n_ents);
        let mut kept = TopoOrder::new(n_ents);
        let mut scratch = EdgeScratch::default();
        let mut edges = Vec::new();
        for (i, t) in sys.txns().iter().enumerate() {
            if !candidate[i] || !scratch.fill(t, true, &mut edges) {
                continue;
            }
            kept.begin();
            let fits = edges.iter().all(|&(x, y)| {
                let (x, y) = (x.idx(), y.idx());
                union.has_edge(x, y) || kept.add_edge(x, y)
            });
            if !fits {
                kept.rollback();
                continue;
            }
            for &(x, y) in &edges {
                union.add_edge(x.idx(), y.idx());
            }
            certified[i] = true;
        }
        let order: Vec<EntityId> = kplock_graph::topo_sort(&union)
            .expect("certified union digraph is acyclic by construction")
            .into_iter()
            .map(EntityId::from_idx)
            .collect();
        let mut rank = vec![0usize; n_ents];
        for (pos, &e) in order.iter().enumerate() {
            rank[e.idx()] = pos;
        }
        let controllers = (0..sys.db().site_count())
            .map(|s| {
                let site = SiteId::from_idx(s);
                SiteController {
                    site,
                    order: order
                        .iter()
                        .copied()
                        .filter(|&e| sys.db().site_of(e) == site)
                        .collect(),
                }
            })
            .collect();
        AvoidPlan {
            txns: sys.len(),
            certified,
            order,
            rank,
            controllers,
        }
    }

    /// Whether `t` is covered by the certificate (its lock behavior
    /// conforms to the safe order and it may run controller-governed).
    pub fn is_certified(&self, t: TxnId) -> bool {
        self.certified.get(t.idx()).copied().unwrap_or(false)
    }

    /// The certified transactions, ascending.
    pub fn certified(&self) -> Vec<TxnId> {
        self.certified
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c)
            .map(|(i, _)| TxnId::from_idx(i))
            .collect()
    }

    /// Number of declared transactions the plan covers (certified or not).
    pub fn txn_count(&self) -> usize {
        self.txns
    }

    /// Number of certified transactions.
    pub fn certified_count(&self) -> usize {
        self.certified.iter().filter(|&&c| c).count()
    }

    /// Number of transactions left to the runtime fallback.
    pub fn fallback_count(&self) -> usize {
        self.txns - self.certified_count()
    }

    /// True when every declared transaction is certified — the regime
    /// where the Theorem-level guarantee holds outright: no deadlock can
    /// form and the fallback never engages.
    pub fn fully_certified(&self) -> bool {
        self.certified.iter().all(|&c| c)
    }

    /// The global safe lock order (every database entity, σ-ascending).
    pub fn lock_order(&self) -> &[EntityId] {
        &self.order
    }

    /// Position of `e` in the safe lock order; certified transactions
    /// acquire in ascending rank.
    pub fn entity_rank(&self, e: EntityId) -> usize {
        self.rank[e.idx()]
    }

    /// The per-site local controllers, one per database site.
    pub fn controllers(&self) -> &[SiteController] {
        &self.controllers
    }

    /// The controller local to `site`.
    pub fn controller(&self, site: SiteId) -> &SiteController {
        &self.controllers[site.idx()]
    }

    /// Re-checks the certificate against a system: the plan must cover
    /// exactly its transactions, the safe order must be a permutation of
    /// its entities, and every certified transaction's
    /// [`hold_request_edges`] must ascend in the order. This is the
    /// machine-checkable core of the conformance suite — a plan that
    /// verifies cannot let certified transactions deadlock.
    pub fn verify(&self, sys: &TxnSystem) -> Result<(), AvoidPlanError> {
        if self.txns != sys.len() {
            return Err(AvoidPlanError::TxnCountMismatch {
                plan: self.txns,
                system: sys.len(),
            });
        }
        let n_ents = sys.db().entity_count();
        let mut seen = vec![false; n_ents];
        for &e in &self.order {
            if e.idx() >= n_ents || seen[e.idx()] {
                return Err(AvoidPlanError::OrderNotPermutation);
            }
            seen[e.idx()] = true;
        }
        if self.order.len() != n_ents {
            return Err(AvoidPlanError::OrderNotPermutation);
        }
        let mut scratch = EdgeScratch::default();
        let mut edges = Vec::new();
        for (i, t) in sys.txns().iter().enumerate() {
            if !self.certified[i] {
                continue;
            }
            scratch.fill(t, false, &mut edges);
            for &(x, y) in &edges {
                if self.entity_rank(x) >= self.entity_rank(y) {
                    return Err(AvoidPlanError::EdgeViolation {
                        txn: TxnId::from_idx(i),
                        held: x,
                        requested: y,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{insert_locks, LockStrategy};
    use kplock_model::{Database, TxnBuilder};
    use kplock_workload::{make_database, random_unlocked_txn, WorkloadParams};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// [`hold_request_edges`] as it read before the section table: the
    /// lock and unlock steps looked up again for every ordered pair.
    fn reference_edges(t: &Transaction) -> Vec<(EntityId, EntityId)> {
        let ents = t.locked_entities();
        let mut edges = Vec::new();
        for &x in &ents {
            for &y in &ents {
                if x == y {
                    continue;
                }
                let lx = t.lock_step(x).expect("locked entity has a lock step");
                let ly = t.lock_step(y).expect("locked entity has a lock step");
                let released_first = t.unlock_step(x).is_some_and(|ux| t.precedes(ux, ly));
                let granted_first = t.precedes(ly, lx);
                if !released_first && !granted_first {
                    edges.push((x, y));
                }
            }
        }
        edges
    }

    /// Greedy synthesis as it ran before the kept order: each candidate's
    /// edges added to a copy of the union, which is sorted again. The
    /// certified flags and the safe lock order.
    fn reference_synthesis(sys: &TxnSystem, candidates: &[TxnId]) -> (Vec<bool>, Vec<EntityId>) {
        let mut candidate = vec![false; sys.len()];
        for &t in candidates {
            if t.idx() < sys.len() {
                candidate[t.idx()] = true;
            }
        }
        let mut certified = vec![false; sys.len()];
        let mut kept = DiGraph::new(sys.db().entity_count());
        for (i, t) in sys.txns().iter().enumerate() {
            if !candidate[i] {
                continue;
            }
            let mut with_t = kept.clone();
            for (x, y) in reference_edges(t) {
                with_t.add_edge(x.idx(), y.idx());
            }
            if kplock_graph::is_acyclic(&with_t) {
                kept = with_t;
                certified[i] = true;
            }
        }
        let order = kplock_graph::topo_sort(&kept).expect("acyclic by construction");
        (
            certified,
            order.into_iter().map(EntityId::from_idx).collect(),
        )
    }

    /// A random system of `kplock-workload`'s generator, locked by one of
    /// the three strategies, with `read_percent` of its accesses reads.
    fn random_system(rng: &mut StdRng, read_percent: u32) -> TxnSystem {
        let p = WorkloadParams {
            sites: rng.gen_range(1..4usize),
            entities_per_site: rng.gen_range(2..5usize),
            steps_per_txn: rng.gen_range(2..9usize),
            cross_edge_percent: rng.gen_range(0..101u32),
            read_percent,
            ..Default::default()
        };
        let strategy = [
            LockStrategy::Minimal,
            LockStrategy::TwoPhaseLoose,
            LockStrategy::TwoPhaseSync,
        ][rng.gen_range(0..3usize)];
        let db = make_database(&p);
        let txns = (0..rng.gen_range(1..13usize))
            .map(|t| {
                let unlocked = random_unlocked_txn(&db, &p, &format!("T{t}"), rng).unwrap();
                insert_locks(&db, &unlocked, strategy).unwrap()
            })
            .collect();
        TxnSystem::new(db, txns)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The section-table edges and the kept-order synthesis against
        /// their references, on random systems at 0, 50 and 90 % reads:
        /// the same edges in the same order, and on every transaction and
        /// on a random candidate subset (out-of-range ids included) the
        /// same certified set and the same safe lock order.
        #[test]
        fn synthesis_matches_the_clone_and_resort_reference(
            seed in any::<u64>(),
            reads in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let sys = random_system(&mut rng, [0, 50, 90][reads]);
            for t in sys.txns() {
                prop_assert_eq!(hold_request_edges(t), reference_edges(t));
            }
            let all: Vec<TxnId> = (0..sys.len()).map(TxnId::from_idx).collect();
            let subset: Vec<TxnId> = (0..sys.len() + 2)
                .filter(|_| rng.gen_range(0..2u32) == 0)
                .map(TxnId::from_idx)
                .collect();
            for candidates in [&all, &subset] {
                let plan = AvoidPlan::synthesize_restricted(&sys, candidates);
                let (certified, order) = reference_synthesis(&sys, candidates);
                prop_assert_eq!(&plan.certified, &certified);
                prop_assert_eq!(plan.lock_order(), &order[..]);
                prop_assert!(plan.verify(&sys).is_ok());
            }
        }
    }

    #[test]
    fn a_candidate_naming_no_transaction_is_skipped() {
        let s = kplock_workload::certified_mix(4, 2, 1, 2);
        let p = AvoidPlan::synthesize_restricted(&s, &[TxnId(99)]);
        assert_eq!(p.certified_count(), 0);
        p.verify(&s).unwrap();
        let p = AvoidPlan::synthesize_restricted(&s, &[TxnId(99), TxnId(1)]);
        assert_eq!(p.certified(), vec![TxnId(1)]);
    }

    fn sys(scripts: &[&str], spec: &[(&str, usize)]) -> TxnSystem {
        let db = Database::from_spec(spec);
        let txns = scripts
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut b = TxnBuilder::new(&db, format!("T{}", i + 1));
                b.script(s).unwrap();
                b.build().unwrap()
            })
            .collect();
        TxnSystem::new(db, txns)
    }

    #[test]
    fn aligned_lock_orders_certify_fully() {
        let s = sys(
            &["Lx Ly x y Ux Uy", "Lx Ly x y Ux Uy", "Ly y Uy"],
            &[("x", 0), ("y", 1)],
        );
        let p = AvoidPlan::synthesize(&s);
        assert!(p.fully_certified());
        assert_eq!(p.certified_count(), 3);
        assert_eq!(p.fallback_count(), 0);
        p.verify(&s).unwrap();
        // x precedes y in the safe order: both transactions hold x while
        // requesting y.
        let (x, y) = (s.db().entity("x").unwrap(), s.db().entity("y").unwrap());
        assert!(p.entity_rank(x) < p.entity_rank(y));
    }

    #[test]
    fn opposed_lock_orders_leave_one_uncertified() {
        let s = sys(
            &["Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux"],
            &[("x", 0), ("y", 0)],
        );
        let p = AvoidPlan::synthesize(&s);
        // Greedy keeps T1; T2's y→x edge would close a cycle.
        assert!(p.is_certified(TxnId(0)));
        assert!(!p.is_certified(TxnId(1)));
        assert_eq!(p.fallback_count(), 1);
        p.verify(&s).unwrap();
    }

    #[test]
    fn two_phase_release_before_request_needs_no_edge() {
        // Non-overlapping holds: x is unlocked before y is requested, so
        // no constraint x→y exists and the *opposite* order elsewhere
        // still certifies.
        let s = sys(
            &["Lx x Ux Ly y Uy", "Ly Lx y x Uy Ux"],
            &[("x", 0), ("y", 0)],
        );
        let t1 = &s.txns()[0];
        assert_eq!(hold_request_edges(t1), vec![]);
        let p = AvoidPlan::synthesize(&s);
        assert!(p.fully_certified(), "disjoint holds conflict with nothing");
        p.verify(&s).unwrap();
    }

    #[test]
    fn concurrent_locks_constrain_both_ways() {
        // A partial order that leaves Lx and Ly unordered can hold either
        // entity while requesting the other: both edges appear and the
        // transaction alone is uncertifiable.
        // Distinct sites: same-site steps would be auto-chained by the
        // builder and the chains would not be concurrent.
        let db = Database::from_spec(&[("x", 0), ("y", 1)]);
        let mut b = TxnBuilder::new(&db, "T1");
        // Two independent chains: Lx x Ux || Ly y Uy (script per chain).
        b.script("Lx x Ux").unwrap();
        b.script("Ly y Uy").unwrap();
        let t = b.build().unwrap();
        let s = TxnSystem::new(db, vec![t]);
        let edges = hold_request_edges(&s.txns()[0]);
        assert_eq!(edges.len(), 2, "both directions: {edges:?}");
        let p = AvoidPlan::synthesize(&s);
        assert!(!p.is_certified(TxnId(0)));
        p.verify(&s).unwrap();
    }

    #[test]
    fn restricted_synthesis_controls_the_certified_set() {
        let s = sys(
            &["Lx Ly x y Ux Uy", "Lx Ly x y Ux Uy"],
            &[("x", 0), ("y", 1)],
        );
        let none = AvoidPlan::synthesize_restricted(&s, &[]);
        assert_eq!(none.certified_count(), 0);
        assert_eq!(none.fallback_count(), 2);
        assert!(!none.fully_certified());
        none.verify(&s).unwrap();
        let one = AvoidPlan::synthesize_restricted(&s, &[TxnId(1)]);
        assert_eq!(one.certified(), vec![TxnId(1)]);
        one.verify(&s).unwrap();
    }

    #[test]
    fn controllers_partition_the_order_by_site() {
        let s = sys(
            &["Lx Ly Lz x y z Ux Uy Uz"],
            &[("x", 0), ("y", 1), ("z", 0)],
        );
        let p = AvoidPlan::synthesize(&s);
        assert_eq!(p.controllers().len(), 2);
        let total: usize = p.controllers().iter().map(|c| c.order.len()).sum();
        assert_eq!(total, 3, "controllers partition the entities");
        for c in p.controllers() {
            for w in c.order.windows(2) {
                assert!(
                    p.entity_rank(w[0]) < p.entity_rank(w[1]),
                    "controller order must ascend in σ"
                );
            }
            assert_eq!(p.controller(c.site).order, c.order);
        }
    }

    #[test]
    fn verify_catches_mismatch_and_violation() {
        let s1 = sys(&["Lx Ly x y Ux Uy"], &[("x", 0), ("y", 0)]);
        let s2 = sys(
            &["Lx Ly x y Ux Uy", "Lx Ly x y Ux Uy"],
            &[("x", 0), ("y", 0)],
        );
        let p = AvoidPlan::synthesize(&s1);
        assert_eq!(
            p.verify(&s2),
            Err(AvoidPlanError::TxnCountMismatch { plan: 1, system: 2 })
        );
        // Forge a plan whose order contradicts the transaction: x held
        // while y requested, yet y ranked first.
        let (x, y) = (s1.db().entity("x").unwrap(), s1.db().entity("y").unwrap());
        let forged = AvoidPlan {
            order: vec![y, x],
            rank: {
                let mut r = vec![0; 2];
                r[y.idx()] = 0;
                r[x.idx()] = 1;
                r
            },
            ..AvoidPlan::synthesize(&s1)
        };
        assert!(matches!(
            forged.verify(&s1),
            Err(AvoidPlanError::EdgeViolation { held, requested, .. })
                if held == x && requested == y
        ));
        let errs = [
            AvoidPlanError::TxnCountMismatch { plan: 1, system: 2 }.to_string(),
            AvoidPlanError::OrderNotPermutation.to_string(),
        ];
        assert!(errs[0].contains("1") && errs[0].contains("2"));
        assert!(errs[1].contains("permutation"));
    }

    #[test]
    fn synthesis_is_deterministic() {
        let s = sys(
            &["Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", "Lx x Ux"],
            &[("x", 0), ("y", 1)],
        );
        assert_eq!(AvoidPlan::synthesize(&s), AvoidPlan::synthesize(&s));
    }
}
