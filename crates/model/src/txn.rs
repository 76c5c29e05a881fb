//! Transactions: partially ordered sets of steps, totally ordered per site.

use crate::action::{ActionKind, Step};
use crate::entity::Database;
use crate::error::ModelError;
use crate::ids::{EntityId, IdMap, SiteId, StepId};
use kplock_graph::{Closure, DiGraph};
use std::sync::OnceLock;

/// A (locked) transaction: the paper's triple `T = (S, A, e)`.
///
/// Steps are indexed densely by [`StepId`]. The precedence relation is kept
/// as the direct edge graph (the dag drawn in the paper's figures); its
/// transitive closure, which makes `precedes` O(1), is quadratic in the
/// step count and is built by the first [`Transaction::precedes`],
/// [`Transaction::precedes_eq`] or [`Transaction::concurrent`] and kept
/// from then on (a clone taken afterwards carries it). Code that walks
/// direct edges only — step issue, schedule validation, the serialization
/// graph — never pays for it; construction compacts the edge graph
/// ([`DiGraph::shrink_to_fit`]) so those walks read rows that sit side
/// by side in step order. Construction guarantees acyclicity;
/// site-totality and locking discipline are checked by `crate::validate`.
#[derive(Clone, Debug)]
pub struct Transaction {
    name: String,
    steps: Vec<Step>,
    graph: DiGraph,
    /// Row `s` = steps reachable from `s` (including `s` itself).
    closure: OnceLock<Closure>,
    /// Lock/unlock step per entity (validated unique).
    lock_of: IdMap<EntityId, StepId>,
    unlock_of: IdMap<EntityId, StepId>,
    /// Every update step, sorted by (entity, step): `update_steps(e)` is
    /// one contiguous run.
    updates: Vec<(EntityId, StepId)>,
}

impl Transaction {
    /// Builds a transaction from steps and direct precedence edges.
    ///
    /// Fails if the precedence relation is cyclic or an entity has duplicate
    /// lock/unlock steps. (Deeper well-formedness checks live in `crate::validate`.)
    pub fn new(
        name: impl Into<String>,
        steps: Vec<Step>,
        edges: impl IntoIterator<Item = (StepId, StepId)>,
    ) -> Result<Self, ModelError> {
        let n = steps.len();
        let mut graph = DiGraph::new(n);
        for (a, b) in edges {
            if a.idx() >= n {
                return Err(ModelError::BadStepId(a));
            }
            if b.idx() >= n {
                return Err(ModelError::BadStepId(b));
            }
            graph.add_edge(a.idx(), b.idx());
        }
        Self::from_graph(name.into(), steps, graph)
    }

    fn from_graph(name: String, steps: Vec<Step>, mut graph: DiGraph) -> Result<Self, ModelError> {
        if kplock_graph::topo_sort(&graph).is_none() {
            // Find a node on a cycle for the error message.
            let c = kplock_graph::find_cycle(&graph).expect("cycle exists");
            return Err(ModelError::CyclicPrecedence(StepId::from_idx(c[0])));
        }
        // Step issue and the history audit walk these rows on every step:
        // side by side in step order, with no spare room.
        graph.shrink_to_fit();
        let mut lock_of = IdMap::default();
        let mut unlock_of = IdMap::default();
        let update_count = steps
            .iter()
            .filter(|s| s.kind == ActionKind::Update)
            .count();
        let mut updates = Vec::with_capacity(update_count);
        for (i, s) in steps.iter().enumerate() {
            let map = match s.kind {
                ActionKind::Lock => &mut lock_of,
                ActionKind::Unlock => &mut unlock_of,
                ActionKind::Update => {
                    updates.push((s.entity, StepId::from_idx(i)));
                    continue;
                }
            };
            if map.insert(s.entity, StepId::from_idx(i)).is_some() {
                return Err(ModelError::DuplicateLockStep(s.entity));
            }
        }
        updates.sort_unstable();
        Ok(Transaction {
            name,
            steps,
            graph,
            closure: OnceLock::new(),
            lock_of,
            unlock_of,
            updates,
        })
    }

    /// The transaction's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of steps.
    #[inline]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the transaction has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The step with the given id.
    #[inline]
    pub fn step(&self, s: StepId) -> Step {
        self.steps[s.idx()]
    }

    /// All steps in id order.
    #[inline]
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Iterates over step ids.
    pub fn step_ids(&self) -> impl Iterator<Item = StepId> {
        (0..self.steps.len()).map(StepId::from_idx)
    }

    /// The direct precedence edges (the dag of the paper's figures).
    #[inline]
    pub fn edge_graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The reflexive-transitive closure of the precedence relation, built
    /// here if no question has built it yet.
    #[inline]
    pub fn closure(&self) -> &Closure {
        self.closure.get_or_init(|| {
            kplock_graph::transitive_closure(&self.graph)
                .expect("construction proved the precedence acyclic")
        })
    }

    /// Whether the transitive closure has been built yet (tests assert
    /// that the simulator never builds it).
    #[doc(hidden)]
    pub fn closure_is_built(&self) -> bool {
        self.closure.get().is_some()
    }

    /// Strict precedence in the partial order: `a ≺ b`.
    #[inline]
    pub fn precedes(&self, a: StepId, b: StepId) -> bool {
        a != b && self.closure().reaches(a.idx(), b.idx())
    }

    /// `a ≼ b`: precedes or equal.
    #[inline]
    pub fn precedes_eq(&self, a: StepId, b: StepId) -> bool {
        self.closure().reaches(a.idx(), b.idx())
    }

    /// True if neither `a ≺ b` nor `b ≺ a` (and `a != b`).
    #[inline]
    pub fn concurrent(&self, a: StepId, b: StepId) -> bool {
        a != b && !self.precedes(a, b) && !self.precedes(b, a)
    }

    /// The `lock e` step, if present.
    #[inline]
    pub fn lock_step(&self, e: EntityId) -> Option<StepId> {
        self.lock_of.get(&e).copied()
    }

    /// The `unlock e` step, if present.
    #[inline]
    pub fn unlock_step(&self, e: EntityId) -> Option<StepId> {
        self.unlock_of.get(&e).copied()
    }

    /// Entities with a lock step, in ascending id order.
    pub fn locked_entities(&self) -> Vec<EntityId> {
        let mut v: Vec<EntityId> = self.lock_of.keys().copied().collect();
        v.sort();
        v
    }

    /// All `update e` steps, in ascending id order.
    pub fn update_steps(&self, e: EntityId) -> Vec<StepId> {
        let from = self.updates.partition_point(|&(x, _)| x < e);
        let to = self.updates.partition_point(|&(x, _)| x <= e);
        self.updates[from..to].iter().map(|&(_, s)| s).collect()
    }

    /// True if some step updates `e`: one binary search in the update
    /// index, no allocation. "Locks `e` but never updates it" — a lock
    /// section that counts as an access of its own — is
    /// `!has_update(e)`.
    #[inline]
    pub fn has_update(&self, e: EntityId) -> bool {
        let at = self.updates.partition_point(|&(x, _)| x < e);
        self.updates.get(at).is_some_and(|&(x, _)| x == e)
    }

    /// Steps located at `site` (by the entity's stored-at function), in id
    /// order.
    pub fn steps_at_site(&self, db: &Database, site: SiteId) -> Vec<StepId> {
        self.step_ids()
            .filter(|&s| db.site_of(self.step(s).entity) == site)
            .collect()
    }

    /// Returns a new transaction with the extra precedence `a ≺ b`, or an
    /// error if that would create a cycle. Used by the Theorem-2 closure
    /// construction, which repeatedly strengthens partial orders.
    pub fn with_precedence(&self, a: StepId, b: StepId) -> Result<Transaction, ModelError> {
        if self.precedes(b, a) || a == b {
            return Err(ModelError::WouldCreateCycle(a, b));
        }
        if self.precedes(a, b) {
            return Ok(self.clone());
        }
        self.strengthened(&[(a, b)])
    }

    /// A new transaction with the extra direct edges `extra`, built once
    /// however many there are; an error if one names no step or they close
    /// a cycle. Its closure is built afresh at its first question.
    pub fn strengthened(&self, extra: &[(StepId, StepId)]) -> Result<Transaction, ModelError> {
        let mut graph = self.graph.clone();
        for &(a, b) in extra {
            for s in [a, b] {
                if s.idx() >= self.len() {
                    return Err(ModelError::BadStepId(s));
                }
            }
            graph.add_edge(a.idx(), b.idx());
        }
        Self::from_graph(self.name.clone(), self.steps.clone(), graph)
    }

    /// Whether `order` (a permutation of all steps) is a linear extension.
    pub fn is_linear_extension(&self, order: &[StepId]) -> bool {
        let as_idx: Vec<usize> = order.iter().map(|s| s.idx()).collect();
        kplock_graph::is_topological_order(&self.graph, &as_idx)
    }

    /// A totally ordered copy of this transaction following `order`
    /// (each consecutive pair gets an edge). Fails if `order` is not a
    /// linear extension.
    pub fn linearized(&self, order: &[StepId]) -> Result<Transaction, ModelError> {
        if !self.is_linear_extension(order) {
            return Err(ModelError::IllegalSchedule(
                "order is not a linear extension".into(),
            ));
        }
        let steps: Vec<Step> = order.iter().map(|&s| self.step(s)).collect();
        let edges = (0..steps.len().saturating_sub(1))
            .map(|i| (StepId::from_idx(i), StepId::from_idx(i + 1)));
        Transaction::new(self.name.clone(), steps, edges)
    }

    /// True iff the partial order is already total.
    pub fn is_total_order(&self) -> bool {
        self.total_order().is_some()
    }

    /// For a total order, the steps in execution order.
    pub fn total_order(&self) -> Option<Vec<StepId>> {
        let order = kplock_graph::topo_sort(&self.graph)?;
        // Total iff consecutive steps are joined by a *direct* edge: a
        // longer path between them would put a third step strictly
        // between two neighbours of a topological order. Direct edges
        // only, so this never builds the closure.
        order
            .windows(2)
            .all(|w| self.graph.has_edge(w[0], w[1]))
            .then(|| order.into_iter().map(StepId::from_idx).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::TxnSystem;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The threaded runner shares the system across its workers; a
    /// `OnceCell` or `RefCell` behind the lazy closure would take that
    /// away.
    #[test]
    fn transactions_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Transaction>();
        assert_send_sync::<TxnSystem>();
    }

    /// `is_total_order` as it was defined: no two steps concurrent.
    fn is_total_order_by_closure(t: &Transaction) -> bool {
        let n = t.len();
        (0..n)
            .all(|a| ((a + 1)..n).all(|b| !t.concurrent(StepId::from_idx(a), StepId::from_idx(b))))
    }

    /// `total_order` as it was defined: the topological sort, if each
    /// consecutive pair is ordered.
    fn total_order_by_closure(t: &Transaction) -> Option<Vec<StepId>> {
        let order = kplock_graph::topo_sort(t.edge_graph())?;
        let ids: Vec<StepId> = order.into_iter().map(StepId::from_idx).collect();
        ids.windows(2)
            .all(|w| t.precedes(w[0], w[1]))
            .then_some(ids)
    }

    /// A transaction of `n ≤ 70` update steps (rows of one and two words)
    /// over a random dag under a random relabelling: chains with and
    /// without redundant skip edges, chains missing a link, antichains,
    /// stacked diamonds, per-site chains with cross edges, sparse dags.
    fn random_dag_txn(rng: &mut StdRng) -> Transaction {
        let n = rng.gen_range(1..=70usize);
        let mut label: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            label.swap(i, rng.gen_range(0..=i));
        }
        // Edges run from lower to higher position, so the graph is a dag.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let chain = |edges: &mut Vec<(usize, usize)>, nodes: &[usize]| {
            edges.extend(nodes.windows(2).map(|w| (w[0], w[1])));
        };
        let all: Vec<usize> = (0..n).collect();
        match rng.gen_range(0..6u32) {
            0 => {
                chain(&mut edges, &all);
                for _ in 0..rng.gen_range(0..=n) {
                    let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    edges.push((a.min(b), a.max(b)));
                }
            }
            1 => {
                chain(&mut edges, &all);
                if n > 1 {
                    let cut = rng.gen_range(0..n - 1);
                    edges.remove(cut);
                    if cut > 0 && rng.gen_bool(0.5) {
                        edges.push((cut - 1, cut + 1));
                    }
                }
            }
            2 => {}
            3 => {
                let mut at = 0;
                while at + 1 < n {
                    let width = rng.gen_range(1..=4usize).min(n - at - 1);
                    let sink = (at + width + 1).min(n - 1);
                    for mid in at + 1..=at + width {
                        edges.push((at, mid));
                        edges.push((mid, sink));
                    }
                    at = sink;
                }
            }
            4 => {
                let sites = rng.gen_range(1..=4usize);
                for s in 0..sites {
                    let at_site: Vec<usize> = (s..n).step_by(sites).collect();
                    chain(&mut edges, &at_site);
                }
                for _ in 0..rng.gen_range(0..=n / 2) {
                    let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    edges.push((a.min(b), a.max(b)));
                }
            }
            _ => {
                for _ in 0..rng.gen_range(0..=2 * n) {
                    let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    edges.push((a.min(b), a.max(b)));
                }
            }
        }
        let steps = (0..n).map(|_| Step::update(EntityId(0))).collect();
        let edges = edges
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| (StepId::from_idx(label[a]), StepId::from_idx(label[b])));
        Transaction::new("T", steps, edges).unwrap()
    }

    /// `reach[a][b]`: a path of direct edges from `a` to `b`, the empty
    /// one included — by depth-first search over `edge_graph()`.
    fn reach_by_dfs(t: &Transaction) -> Vec<Vec<bool>> {
        let g = t.edge_graph();
        (0..t.len())
            .map(|start| {
                let mut seen = vec![false; t.len()];
                let mut stack = vec![start];
                seen[start] = true;
                while let Some(v) = stack.pop() {
                    for &w in g.successors(v) {
                        if !std::mem::replace(&mut seen[w], true) {
                            stack.push(w);
                        }
                    }
                }
                seen
            })
            .collect()
    }

    fn assert_precedence_is_reachability(t: &Transaction) {
        let reach = reach_by_dfs(t);
        for a in t.step_ids() {
            for b in t.step_ids() {
                let (ab, ba) = (reach[a.idx()][b.idx()], reach[b.idx()][a.idx()]);
                assert_eq!(t.precedes_eq(a, b), ab, "{a:?} ≼ {b:?}");
                assert_eq!(t.precedes(a, b), a != b && ab, "{a:?} ≺ {b:?}");
                assert_eq!(t.concurrent(a, b), !ab && !ba, "{a:?} ∥ {b:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn totality_from_direct_edges_matches_the_closure(seed in any::<u64>()) {
            let t = random_dag_txn(&mut StdRng::seed_from_u64(seed));
            let (total, order) = (t.is_total_order(), t.total_order());
            prop_assert!(!t.closure_is_built());
            prop_assert_eq!(total, is_total_order_by_closure(&t));
            prop_assert_eq!(order, total_order_by_closure(&t));
        }

        #[test]
        fn precedes_is_reachability_over_direct_edges(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = random_dag_txn(&mut rng);
            let cloned_before = t.clone();
            prop_assert!(!t.closure_is_built());
            assert_precedence_is_reachability(&t);
            let cloned_after = t.clone();
            prop_assert!(t.closure_is_built() && cloned_after.closure_is_built());
            prop_assert!(!cloned_before.closure_is_built());
            assert_precedence_is_reachability(&cloned_before);
            assert_precedence_is_reachability(&cloned_after);

            let reach = reach_by_dfs(&t);
            for _ in 0..4 {
                let a = StepId::from_idx(rng.gen_range(0..t.len()));
                let b = StepId::from_idx(rng.gen_range(0..t.len()));
                match t.with_precedence(a, b) {
                    Ok(stronger) => {
                        prop_assert!(!reach[b.idx()][a.idx()]);
                        prop_assert!(stronger.precedes(a, b));
                        assert_precedence_is_reachability(&stronger);
                    }
                    Err(e) => {
                        prop_assert!(reach[b.idx()][a.idx()]);
                        prop_assert_eq!(e, ModelError::WouldCreateCycle(a, b));
                    }
                }
            }
        }
    }

    fn two_step_txn() -> Transaction {
        let x = EntityId(0);
        Transaction::new(
            "T",
            vec![Step::lock(x), Step::unlock(x)],
            [(StepId(0), StepId(1))],
        )
        .unwrap()
    }

    #[test]
    fn precedence_queries() {
        let t = two_step_txn();
        assert!(t.precedes(StepId(0), StepId(1)));
        assert!(!t.precedes(StepId(1), StepId(0)));
        assert!(!t.precedes(StepId(0), StepId(0)));
        assert!(t.precedes_eq(StepId(0), StepId(0)));
        assert!(!t.concurrent(StepId(0), StepId(1)));
    }

    #[test]
    fn rejects_cycles() {
        let x = EntityId(0);
        let r = Transaction::new(
            "T",
            vec![Step::lock(x), Step::unlock(x)],
            [(StepId(0), StepId(1)), (StepId(1), StepId(0))],
        );
        assert!(matches!(r, Err(ModelError::CyclicPrecedence(_))));
    }

    #[test]
    fn rejects_duplicate_locks() {
        let x = EntityId(0);
        let r = Transaction::new("T", vec![Step::lock(x), Step::lock(x)], []);
        assert_eq!(r.unwrap_err(), ModelError::DuplicateLockStep(EntityId(0)));
    }

    #[test]
    fn lock_lookup() {
        let t = two_step_txn();
        assert_eq!(t.lock_step(EntityId(0)), Some(StepId(0)));
        assert_eq!(t.unlock_step(EntityId(0)), Some(StepId(1)));
        assert_eq!(t.locked_entities(), vec![EntityId(0)]);
    }

    #[test]
    fn with_precedence_detects_cycles() {
        let x = EntityId(0);
        let y = EntityId(1);
        let t = Transaction::new("T", vec![Step::update(x), Step::update(y)], []).unwrap();
        assert!(t.concurrent(StepId(0), StepId(1)));
        let t2 = t.with_precedence(StepId(0), StepId(1)).unwrap();
        assert!(t2.precedes(StepId(0), StepId(1)));
        assert!(matches!(
            t2.with_precedence(StepId(1), StepId(0)),
            Err(ModelError::WouldCreateCycle(_, _))
        ));
        // Adding an already-implied precedence is a no-op.
        let t3 = t2.with_precedence(StepId(0), StepId(1)).unwrap();
        assert!(t3.precedes(StepId(0), StepId(1)));
    }

    #[test]
    fn strengthening_adds_every_edge_or_refuses() {
        let [x, y, z] = [0, 1, 2].map(EntityId);
        let steps = vec![Step::update(x), Step::update(y), Step::update(z)];
        let t = Transaction::new("T", steps, []).unwrap();
        let (s0, s1, s2) = (StepId(0), StepId(1), StepId(2));
        let chain = t.strengthened(&[(s0, s1), (s1, s2)]).unwrap();
        assert!(chain.precedes(s0, s2) && chain.is_total_order());
        assert!(matches!(
            t.strengthened(&[(s0, s1), (s1, s0)]),
            Err(ModelError::CyclicPrecedence(_))
        ));
        assert_eq!(
            t.strengthened(&[(s0, StepId(3))]).unwrap_err(),
            ModelError::BadStepId(StepId(3))
        );
    }

    #[test]
    fn totality_checks() {
        let x = EntityId(0);
        let y = EntityId(1);
        let partial = Transaction::new("T", vec![Step::update(x), Step::update(y)], []).unwrap();
        assert!(!partial.is_total_order());
        assert!(partial.total_order().is_none());
        let total = partial.with_precedence(StepId(0), StepId(1)).unwrap();
        assert!(total.is_total_order());
        assert_eq!(total.total_order().unwrap(), vec![StepId(0), StepId(1)]);
    }

    #[test]
    fn linear_extension_roundtrip() {
        let x = EntityId(0);
        let y = EntityId(1);
        let t = Transaction::new("T", vec![Step::update(x), Step::update(y)], []).unwrap();
        assert!(t.is_linear_extension(&[StepId(1), StepId(0)]));
        let lin = t.linearized(&[StepId(1), StepId(0)]).unwrap();
        assert!(lin.is_total_order());
        assert_eq!(lin.step(StepId(0)).entity, y);
        assert!(t.linearized(&[StepId(0)]).is_err());
    }
}
