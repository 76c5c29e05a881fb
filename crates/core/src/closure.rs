//! The dominator-closure construction (Definition 3, Lemmas 2 and 3) and
//! certificate extraction (proof of Theorem 2, Corollary 2).
//!
//! Given a dominator `X` of `D(T1, T2)`, the closure repeatedly finds
//! triples `z ∈ V−X`, `x, y ∈ X` with `Lz ≺₁ Ux` and `Ly ≺₂ Uz` and adds
//! the precedences `Uy ≺₁ Ux` and `Ly ≺₂ Lx`. For two sites this always
//! succeeds and preserves the dominator (Lemmas 2–3); for three or more
//! sites it can fail by growing a `D`-arc into `X`. Each round checks the
//! dominator first, and a required precedence could only close a cycle
//! where `D` already has an arc into `X`, so no other failure occurs.
//! From a successfully closed
//! system, Corollary 2 extracts a certificate of unsafeness via two
//! priority topological sorts.
//!
//! What one attempt costs: the closure is a fixpoint over the pair's two
//! reachability bit matrices. They start as the transactions' own
//! closures, borrowed, and one is copied only when the closure adds a
//! precedence to it. Adding `u ≺ v` is refused exactly when `v` already
//! precedes `u`, as a transaction refuses an edge that closes a cycle;
//! otherwise every row that reaches `u` and not `v` takes in row `v`
//! ([`kplock_graph::Closure::add_arc`]): `n` bit tests and at most
//! `n·⌈n/64⌉` word operations for `n` steps. The triples are bit masks
//! over `D`'s vertices: per `z ∈ V−X`, `A_z = {x ∈ X : Lz ≺₁ Ux}` and
//! `B_z = {y ∈ X : Ly ≺₂ Uz}`, where `A_z ∩ B_z` holds the arcs of `D`
//! from `z` into `X`, so `X` dominates while every one is empty. An
//! attempt builds its masks with two bit tests per pair of a vertex in
//! `X` and one outside, and each added precedence updates them with one
//! bit test per vertex, before the matrix takes it.
//! The first unmet triple is then the first `y ∈ B_z` outside
//! `{y : Uy ≼₁ Ux ∧ Ly ≼₂ Lx}`, a mask built in a round only for the
//! `x ∈ A_z` the scan reaches. No transaction is built or cloned and no
//! `D` is rebuilt per round. After the fixpoint the certificate reads the
//! strengthened edge graphs, each built once, through index arrays — a
//! step's rank, its position in `t1` — and the schedule is a two-way
//! merge of `t1` and `t2`. [`close_wrt_dominator`] alone builds the
//! strengthened transactions and an owned system, because its
//! [`Closure`] holds one.

use crate::certificate::UnsafetyCertificate;
use crate::conflict_graph::{ConflictDigraph, Sections};
use crate::total_pair::orientation_schedule;
use kplock_graph::{topo_sort_by_key, Closure as Reach, DiGraph};
use kplock_model::{EntityId, StepId, Transaction, TxnId, TxnSystem};
use std::borrow::Cow;

/// A successfully closed system.
#[derive(Clone, Debug)]
pub struct Closure {
    /// The strengthened system (transactions `txn_a`, `txn_b` replaced by
    /// `R1`, `R2`; all other transactions untouched).
    pub system: TxnSystem,
    /// First transaction of the pair.
    pub txn_a: TxnId,
    /// Second transaction of the pair.
    pub txn_b: TxnId,
    /// The dominator the closure was taken with respect to.
    pub dominator: Vec<EntityId>,
    /// Precedences added to `txn_a` (audit trail).
    pub added_a: Vec<(StepId, StepId)>,
    /// Precedences added to `txn_b`.
    pub added_b: Vec<(StepId, StepId)>,
}

/// Why a closure attempt failed (on a pair with `D`, possible only with
/// ≥ 3 sites).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClosureError {
    /// After strengthening, `D(R1, R2)` gained an arc from outside into the
    /// dominator, so `X` no longer dominates.
    DominatorBroken,
    /// The final orientation produced no legal schedule.
    OrientationInfeasible,
    /// A transaction lacks the lock or unlock step of an entity both lock,
    /// so `D(Ta, Tb)` is not defined.
    IllFormed,
}

/// One transaction of a closed pair: the reachability matrix of `R1` (or
/// `R2`) — the transaction's own closure until the fixpoint adds a
/// precedence to it, a strengthened copy after — and the precedences
/// added, in order.
struct Side<'s> {
    txn: TxnId,
    reach: Cow<'s, Reach>,
    added: Vec<(StepId, StepId)>,
}

impl<'s> Side<'s> {
    fn of(txn: TxnId, t: &'s Transaction) -> Self {
        Side {
            txn,
            reach: Cow::Borrowed(t.closure()),
            added: Vec::new(),
        }
    }

    /// Whether the order lacks `from ≺ to`. A required precedence never
    /// has `to` before `from`: the closure checks the dominator before each
    /// round, and the precedences a triple `(z, x, y)` requires close a
    /// cycle only where `D` already has the arc `z → y` or `z → x`
    /// (`Ux ≺₁ Uy` would give `Lz ≺₁ Uy` beside `Ly ≺₂ Uz`, and `Lx ≺₂ Ly`
    /// would give `Lx ≺₂ Uz` beside `Lz ≺₁ Ux`).
    fn lacks(&self, from: StepId, to: StepId) -> bool {
        !self.reach.reaches(from.idx(), to.idx())
    }

    /// Adds `from ≺ to`, which the order lacks.
    fn add(&mut self, from: StepId, to: StepId) {
        let inserted = self.reach.to_mut().add_arc(from.idx(), to.idx());
        debug_assert!(inserted, "an arc against no path back is never refused");
        self.added.push((from, to));
    }

    /// The direct edges of `R1` (or `R2`): `t`'s own, or a copy with the
    /// added precedences, built once.
    fn edge_graph(&self, t: &'s Transaction) -> Cow<'s, DiGraph> {
        if self.added.is_empty() {
            return Cow::Borrowed(t.edge_graph());
        }
        let mut g = t.edge_graph().clone();
        for &(u, v) in &self.added {
            g.add_edge(u.idx(), v.idx());
        }
        Cow::Owned(g)
    }
}

/// `in_x[i]`: is `shared[i]` (ascending) in the dominator? Entities of
/// `dominator` that are not shared mark nothing.
fn membership(shared: &[EntityId], dominator: &[EntityId]) -> Vec<bool> {
    let mut in_x = vec![false; shared.len()];
    for &e in dominator {
        if let Ok(i) = shared.binary_search(&e) {
            in_x[i] = true;
        }
    }
    in_x
}

/// Closes `{Ta, Tb}` with respect to `dominator` (a set of shared locked
/// entities forming a dominator of `D(Ta, Tb)`).
pub fn close_wrt_dominator(
    sys: &TxnSystem,
    a: TxnId,
    b: TxnId,
    dominator: &[EntityId],
) -> Result<Closure, ClosureError> {
    let (d, sections) =
        ConflictDigraph::build_with_sections(sys, a, b).ok_or(ClosureError::IllFormed)?;
    let in_x = membership(&d.entities, dominator);
    let pair = Pair::new(sys, &d, &sections);
    let (side_a, side_b) = close_pair(&pair, &in_x)?;
    // The result owns its system; the decision procedures keep the pair
    // borrowed and never build one.
    let mut txns = sys.txns().to_vec();
    for side in [&side_a, &side_b] {
        if !side.added.is_empty() {
            let r = sys.txn(side.txn).strengthened(&side.added);
            txns[side.txn.idx()] = r.expect("the fixpoint adds no precedence that closes a cycle");
        }
    }
    Ok(Closure {
        system: TxnSystem::new(sys.db().clone(), txns),
        txn_a: a,
        txn_b: b,
        dominator: dominator.to_vec(),
        added_a: side_a.added,
        added_b: side_b.added,
    })
}

/// A pair under closure attempts: its transactions and its vertices'
/// sections.
pub(crate) struct Pair<'s> {
    sys: &'s TxnSystem,
    a: TxnId,
    b: TxnId,
    ta: &'s Transaction,
    tb: &'s Transaction,
    sections: &'s [Sections],
}

impl<'s> Pair<'s> {
    /// `d`'s pair of `sys`, with `d`'s vertices' sections.
    pub(crate) fn new(sys: &'s TxnSystem, d: &ConflictDigraph, sections: &'s [Sections]) -> Self {
        Pair {
            sys,
            a: d.txn_a,
            b: d.txn_b,
            ta: sys.txn(d.txn_a),
            tb: sys.txn(d.txn_b),
            sections,
        }
    }
}

/// The closure of the pair with respect to the vertices `in_x` marks:
/// while an unmet triple `(z, x, y)` is left, require `Uy ≺₁ Ux` and
/// `Ly ≺₂ Lx`. Fails as soon as `X` stops dominating (checked before each
/// round's search).
fn close_pair<'s>(pair: &Pair<'s>, in_x: &[bool]) -> Result<(Side<'s>, Side<'s>), ClosureError> {
    let (mut side_a, mut side_b) = (Side::of(pair.a, pair.ta), Side::of(pair.b, pair.tb));
    let mut triples = Triples::new(pair, in_x);
    loop {
        if triples.dominator_broken() {
            return Err(ClosureError::DominatorBroken);
        }
        let Some((x, y)) = triples.first_unmet(&side_a.reach, &side_b.reach) else {
            return Ok((side_a, side_b));
        };
        let (sx, sy) = (&pair.sections[x], &pair.sections[y]);
        // Require Uy ≺₁ Ux and Ly ≺₂ Lx.
        let (uy, ux) = (sy.unlock_a, sx.unlock_a);
        if side_a.lacks(uy, ux) {
            triples.before_arc_a(&side_a.reach, uy.idx(), ux.idx());
            side_a.add(uy, ux);
        }
        let (ly, lx) = (sy.lock_b, sx.lock_b);
        if side_b.lacks(ly, lx) {
            triples.before_arc_b(&side_b.reach, ly.idx(), lx.idx());
            side_b.add(ly, lx);
        }
    }
}

/// Definition 3's triples as bit masks over the vertices (bit `i` for
/// vertex `i`): per vertex `z` outside `X`, `A_z = {x ∈ X : Lz ≺₁ Ux}`
/// and `B_z = {y ∈ X : Ly ≺₂ Uz}`, kept up to date as precedences arrive;
/// and per `x ∈ X`, `met_x = {y ∈ X : Uy ≼₁ Ux ∧ Ly ≼₂ Lx}`, read off the
/// matrices at its first use in a round.
struct Triples<'a> {
    sections: &'a [Sections],
    /// Words per mask.
    words: usize,
    /// Which vertices are in `X`.
    in_x: &'a [bool],
    /// `A_z` and `B_z`, one row per vertex (zero for those in `X`).
    a_masks: Vec<u64>,
    b_masks: Vec<u64>,
    /// `met_x`, one row per vertex, valid this round where `met_built[x]`.
    met: Vec<u64>,
    met_built: Vec<bool>,
    /// A mask's worth of scratch.
    gained: Vec<u64>,
}

impl<'a> Triples<'a> {
    fn new<'s: 'a>(pair: &Pair<'s>, in_x: &'a [bool]) -> Self {
        let k = pair.sections.len();
        let w = k.div_ceil(64);
        let (r1, r2) = (pair.ta.closure(), pair.tb.closure());
        let mut a_masks = vec![0; k * w];
        let mut b_masks = vec![0; k * w];
        for (x, sx) in pair.sections.iter().enumerate().filter(|&(x, _)| in_x[x]) {
            let (word, bit) = (x / 64, 1 << (x % 64));
            for (z, sz) in pair.sections.iter().enumerate().filter(|&(z, _)| !in_x[z]) {
                if r1.reaches(sz.lock_a.idx(), sx.unlock_a.idx()) {
                    a_masks[z * w + word] |= bit;
                }
                if r2.reaches(sx.lock_b.idx(), sz.unlock_b.idx()) {
                    b_masks[z * w + word] |= bit;
                }
            }
        }
        Triples {
            sections: pair.sections,
            words: w,
            a_masks,
            b_masks,
            met: vec![0; k * w],
            met_built: vec![false; k],
            gained: vec![0; w],
            in_x,
        }
    }

    /// The vertices in `X` (`true`) or outside it (`false`), ascending.
    fn vertices(&self, in_x: bool) -> impl Iterator<Item = usize> + 'a {
        let marks = self.in_x;
        (0..marks.len()).filter(move |&i| marks[i] == in_x)
    }

    /// Whether `D(R1, R2)` has an arc from `V−X` into `X`: bit `x` of
    /// `A_z ∩ B_z` is the arc `z → x`.
    fn dominator_broken(&self) -> bool {
        let mut masks = self.a_masks.iter().zip(&self.b_masks);
        masks.any(|(a, b)| a & b != 0)
    }

    /// Before `R1` takes the arc `u → v`: each `Lz` that reaches `u` is
    /// about to reach every `Ux` that `v` reaches.
    fn before_arc_a(&mut self, r1: &Reach, u: usize, v: usize) {
        let w = self.words;
        self.gained.fill(0);
        for x in self.vertices(true) {
            if r1.reaches(v, self.sections[x].unlock_a.idx()) {
                self.gained[x / 64] |= 1 << (x % 64);
            }
        }
        for z in self.vertices(false) {
            if r1.reaches(self.sections[z].lock_a.idx(), u) {
                let a_z = &mut self.a_masks[z * w..][..w];
                for (m, &g) in a_z.iter_mut().zip(&self.gained) {
                    *m |= g;
                }
            }
        }
    }

    /// Before `R2` takes the arc `u → v`: each `Ly` that reaches `u` is
    /// about to reach every `Uz` that `v` reaches.
    fn before_arc_b(&mut self, r2: &Reach, u: usize, v: usize) {
        let w = self.words;
        self.gained.fill(0);
        for y in self.vertices(true) {
            if r2.reaches(self.sections[y].lock_b.idx(), u) {
                self.gained[y / 64] |= 1 << (y % 64);
            }
        }
        for z in self.vertices(false) {
            if r2.reaches(v, self.sections[z].unlock_b.idx()) {
                let b_z = &mut self.b_masks[z * w..][..w];
                for (m, &g) in b_z.iter_mut().zip(&self.gained) {
                    *m |= g;
                }
            }
        }
    }

    /// The first triple `z ∈ V−X`, `x, y ∈ X` (`x ≠ y`) with `Lz ≺₁ Ux`
    /// and `Ly ≺₂ Uz` whose required precedences `Uy ≺₁ Ux`, `Ly ≺₂ Lx`
    /// are not both in place yet, as `(x, y)`; scanned by `z`, then `x`,
    /// then `y`.
    fn first_unmet(&mut self, r1: &Reach, r2: &Reach) -> Option<(usize, usize)> {
        let w = self.words;
        self.met_built.fill(false);
        for z in self.vertices(false) {
            for word in 0..w {
                let mut a_bits = self.a_masks[z * w + word];
                while a_bits != 0 {
                    let x = word * 64 + a_bits.trailing_zeros() as usize;
                    a_bits &= a_bits - 1;
                    self.build_met(x, r1, r2);
                    // `met_x` holds `x` itself (both orders are
                    // reflexive here), so `y ≠ x` needs no test of its own.
                    let met = &self.met[x * w..][..w];
                    let b_z = &self.b_masks[z * w..][..w];
                    for (k, (&b, &m)) in b_z.iter().zip(met).enumerate() {
                        let open = b & !m;
                        if open != 0 {
                            return Some((x, k * 64 + open.trailing_zeros() as usize));
                        }
                    }
                }
            }
        }
        None
    }

    /// Builds `met_x` at its first use in a round.
    fn build_met(&mut self, x: usize, r1: &Reach, r2: &Reach) {
        if std::mem::replace(&mut self.met_built[x], true) {
            return;
        }
        let (sx, ys) = (&self.sections[x], self.vertices(true));
        let row = &mut self.met[x * self.words..][..self.words];
        row.fill(0);
        for y in ys {
            let sy = &self.sections[y];
            if r1.reaches(sy.unlock_a.idx(), sx.unlock_a.idx())
                && r2.reaches(sy.lock_b.idx(), sx.lock_b.idx())
            {
                row[y / 64] |= 1 << (y % 64);
            }
        }
    }
}

/// Corollary 2's certificate from the closed pair: `r1` and `r2` are the
/// direct edges of `R1` and `R2`, `reach_1` is `R1`'s order.
fn extract_certificate(
    pair: &Pair<'_>,
    r1: &DiGraph,
    reach_1: &Reach,
    r2: &DiGraph,
    x_set: &[EntityId],
    in_x: &[bool],
) -> Result<UnsafetyCertificate, ClosureError> {
    // "Place the Ux (x ∈ X) steps as early as possible in t1". Concretely:
    // rank the X-unlocks in an order consistent with R1's partial order
    // (the closure makes the relevant ones comparable), then emit each step
    // keyed by the rank of the earliest X-unlock it is an ancestor of —
    // steps not needed for any X-unlock come last. This realizes the
    // proof's property: if Uy ≺₁⁺ Ux for every x ∈ X with Lz ≺₁⁺ Ux, then
    // Uy precedes Lz in t1 (the whole ancestor cone of Uy carries smaller
    // keys than Lz).
    let x_unlocks_1: Vec<StepId> = x_set
        .iter()
        .map(|&e| pair.ta.unlock_step(e).expect("dominator entity locked"))
        .collect();
    // Rank = position in a topological order of the X-unlocks under R1's
    // precedence (a partial-order-respecting total order; index tiebreak).
    let mut offsets = vec![0];
    let mut later = Vec::new();
    for (i, &u) in x_unlocks_1.iter().enumerate() {
        let after_u = |j: usize| j != i && reach_1.reaches(u.idx(), x_unlocks_1[j].idx());
        later.extend((0..x_unlocks_1.len()).filter(|&j| after_u(j)));
        offsets.push(later.len());
    }
    let mini = DiGraph::from_successor_rows(&offsets, later);
    let mini_order = topo_sort_by_key(&mini, |v| v).expect("partial order is acyclic");
    // target[v]: the smallest rank of an X-unlock that step v precedes or
    // is. Ranks are handed out in order, each to the ancestors of its
    // X-unlock that hold none yet: an ancestor that holds one already has
    // every one of its own ancestors holding one too, so the backward walk
    // stops there and visits each step once overall.
    let m1 = r1.node_count();
    let mut target = vec![usize::MAX; m1];
    let mut x_unlock = vec![false; m1];
    let mut stack = Vec::new();
    for (rank, &i) in mini_order.iter().enumerate() {
        let u = x_unlocks_1[i].idx();
        x_unlock[u] = true;
        if target[u] == usize::MAX {
            target[u] = rank;
            stack.push(u);
        }
        while let Some(v) = stack.pop() {
            for &w in r1.predecessors(v) {
                if target[w] == usize::MAX {
                    target[w] = rank;
                    stack.push(w);
                }
            }
        }
    }
    let t1_idx = topo_sort_by_key(r1, |v| (target[v], if x_unlock[v] { 0usize } else { 1 }, v))
        .expect("transaction partial orders are acyclic");
    let t1_order: Vec<StepId> = t1_idx.iter().map(|&v| StepId::from_idx(v)).collect();

    // Each X-lock of R2 is deferred behind the position of its Ux in t1.
    let mut at_in_t1 = vec![0; m1];
    for (at, &v) in t1_idx.iter().enumerate() {
        at_in_t1[v] = at;
    }
    let mut deferred_to = vec![None; r2.node_count()];
    for (&e, ux) in x_set.iter().zip(&x_unlocks_1) {
        if let Some(lx) = pair.tb.lock_step(e) {
            deferred_to[lx.idx()] = Some(at_in_t1[ux.idx()]);
        }
    }
    let t2_idx = topo_sort_by_key(r2, |v| match deferred_to[v] {
        Some(at) => (1usize, at, v),
        None => (0, 0, v),
    })
    .expect("acyclic");
    let t2_order: Vec<StepId> = t2_idx.iter().map(|&v| StepId::from_idx(v)).collect();

    let schedule = orientation_schedule(
        (pair.a, pair.ta, &t1_order),
        (pair.b, pair.tb, &t2_order),
        pair.sections,
        in_x,
    )
    .ok_or(ClosureError::OrientationInfeasible)?;

    Ok(UnsafetyCertificate {
        txn_a: pair.a,
        txn_b: pair.b,
        t1_order,
        t2_order,
        dominator: x_set.to_vec(),
        schedule,
    })
}

/// Corollary-2 pipeline: attempt closure with respect to `dominator`,
/// extract a certificate and verify it. `None` if any stage fails —
/// soundness is preserved because only verified certificates are returned.
pub fn try_unsafety_via_dominator(
    sys: &TxnSystem,
    a: TxnId,
    b: TxnId,
    dominator: &[EntityId],
) -> Option<UnsafetyCertificate> {
    let (d, sections) = ConflictDigraph::build_with_sections(sys, a, b)?;
    // A certificate names only vertices of D in its dominator, or fails
    // verification.
    if dominator.iter().any(|&e| d.vertex_of(e).is_none()) {
        return None;
    }
    let in_x = membership(&d.entities, dominator);
    unsafety_via_dominator(&Pair::new(sys, &d, &sections), dominator, &in_x)
}

/// [`try_unsafety_via_dominator`] on a pair the caller read once for all
/// its attempts: `dominator` lists vertices of its `D` and `in_x` marks
/// the same ones. The closure borrows the transactions' closures and
/// copies one only when it adds a precedence to it; the certificate is
/// checked against the pair's system.
pub(crate) fn unsafety_via_dominator(
    pair: &Pair<'_>,
    dominator: &[EntityId],
    in_x: &[bool],
) -> Option<UnsafetyCertificate> {
    let (side_a, side_b) = close_pair(pair, in_x).ok()?;
    let (r1, r2) = (side_a.edge_graph(pair.ta), side_b.edge_graph(pair.tb));
    let cert = extract_certificate(pair, &r1, &side_a.reach, &r2, dominator, in_x).ok()?;
    cert.verify(pair.sys).ok()?;
    Some(cert)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{insert_locks, LockStrategy};
    use crate::reduction::reduce;
    use crate::reference;
    use kplock_graph::{dominators, find_dominator};
    use kplock_model::{Database, Step, TxnBuilder};
    use kplock_workload::{make_database, random_instance, random_unlocked_txn, WorkloadParams};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// How the attempts of [`the_fixpoint_against_the_reference`] ended:
    /// closed with no precedence added, closed with some,
    /// `DominatorBroken`.
    type Outcomes = [usize; 3];

    /// A random pair at two to four sites, locked minimally or by loose
    /// two-phase locking.
    fn random_locked_pair(rng: &mut StdRng) -> TxnSystem {
        let p = WorkloadParams {
            sites: rng.gen_range(2..=4usize),
            entities_per_site: rng.gen_range(2..=4usize),
            steps_per_txn: rng.gen_range(4..=12usize),
            cross_edge_percent: rng.gen_range(0..=100u32),
            ..Default::default()
        };
        let strategy =
            [LockStrategy::Minimal, LockStrategy::TwoPhaseLoose][rng.gen_range(0..2usize)];
        let db = make_database(&p);
        let txns = ["T1", "T2"].map(|name| {
            let unlocked = random_unlocked_txn(&db, &p, name, rng).expect("a dag");
            insert_locks(&db, &unlocked, strategy).expect("lockable")
        });
        TxnSystem::new(db, txns.to_vec())
    }

    /// A random pair in the shape of the paper's Fig. 5: four to seven
    /// entities, one per site, each locked, updated and unlocked by both
    /// transactions, and random precedences from a lock step to another
    /// entity's unlock step. The entities below a random `m` are meant to
    /// dominate: a precedence in both transactions realizes an arc of `D`,
    /// none from the rest into them, and one in a single transaction sets
    /// up a closure's triple (`Lz ≺₁ Ux`, or `Ly ≺₂ Uz`), alone or as
    /// Fig. 5's gadget of four. Here closures fail, where on the random
    /// locked pairs they almost never do.
    fn random_fig5_pair(rng: &mut StdRng) -> TxnSystem {
        let k = rng.gen_range(4..=7usize);
        let m = rng.gen_range(2..k - 1);
        let names: Vec<String> = (0..k).map(|e| format!("e{e}")).collect();
        let spec: Vec<(&str, usize)> = names.iter().map(String::as_str).zip(0..k).collect();
        let db = Database::from_spec(&spec);
        let sections = (0..k).flat_map(|e| {
            let e = EntityId::from_idx(e);
            [Step::lock(e), Step::update(e), Step::unlock(e)]
        });
        let steps: Vec<Step> = sections.collect();
        let lock = |e: usize| StepId::from_idx(3 * e);
        let unlock = |e: usize| StepId::from_idx(3 * e + 2);
        let chains = (0..k).flat_map(|e| {
            let update = StepId::from_idx(3 * e + 1);
            [(lock(e), update), (update, unlock(e))]
        });
        let mut edges_1: Vec<_> = chains.clone().collect();
        let mut edges_2: Vec<_> = chains.collect();
        for _ in 0..rng.gen_range(k..=3 * k) {
            let (x, z) = (rng.gen_range(0..m), rng.gen_range(m..k));
            let (x2, z2) = ((x + 1) % m, m + (z - m + 1) % (k - m));
            match rng.gen_range(0..4u32) {
                0 => {
                    // An arc p → q, not from outside into `0..m`.
                    let (p, q) = (rng.gen_range(0..k), rng.gen_range(0..k));
                    if p != q && (p < m || q >= m) {
                        edges_1.push((lock(p), unlock(q)));
                        edges_2.push((lock(q), unlock(p)));
                    }
                }
                1 => edges_1.push((lock(z), unlock(x))),
                2 => edges_2.push((lock(x), unlock(z))),
                _ => {
                    // Fig. 5's gadget: the triples (z, x, x2) and
                    // (z2, x2, x) require `Ux2 ≺₁ Ux` and `Ux ≺₁ Ux2`.
                    edges_1.extend([(lock(z), unlock(x)), (lock(z2), unlock(x2))]);
                    edges_2.extend([(lock(x2), unlock(z)), (lock(x), unlock(z2))]);
                }
            }
        }
        // Every precedence runs from a lock to an unlock, so none closes
        // a cycle.
        let t1 = Transaction::new("T1", steps.clone(), edges_1).expect("acyclic");
        let t2 = Transaction::new("T2", steps, edges_2).expect("acyclic");
        TxnSystem::new(db, vec![t1, t2])
    }

    /// Closes `sys`'s pair with respect to each of the first 256
    /// dominators of its `D`, by the fixpoint and by the round-by-round
    /// reference, and asserts the same `Result` variant, the same added
    /// precedences in order and the same precedence relation on `R1` and
    /// `R2`.
    fn the_fixpoint_against_the_reference(sys: &TxnSystem, context: &str) -> Outcomes {
        let ids = (TxnId(0), TxnId(1));
        let (ta, tb) = (sys.txn(ids.0), sys.txn(ids.1));
        let (d, sections) = ConflictDigraph::build_with_sections(sys, ids.0, ids.1)
            .expect("every shared entity is locked and unlocked");
        let pair = Pair::new(sys, &d, &sections);
        let mut outcomes = [0; 3];
        for bits in dominators(&d.graph).take(256) {
            let (_, in_x) = d.resolve_dominator(&bits);
            let got = close_pair(&pair, &in_x);
            let want = reference::close_pair(ta, tb, &sections, &in_x);
            let context = format!("{context}, dominator {bits:?}");
            match (got, want) {
                (Ok(sides), Ok(closed)) => {
                    for ((side, t), r) in [(&sides.0, ta), (&sides.1, tb)]
                        .into_iter()
                        .zip([&closed.r1, &closed.r2])
                    {
                        let want = r.closure();
                        assert_eq!(&*side.reach, want, "{context}");
                        let graph = kplock_graph::transitive_closure(&side.edge_graph(t));
                        assert_eq!(graph.as_ref(), Some(want), "{context}");
                        let r = t.strengthened(&side.added).expect("acyclic");
                        assert_eq!(r.closure(), want, "{context}");
                    }
                    assert_eq!(sides.0.added, closed.added_a, "{context}");
                    assert_eq!(sides.1.added, closed.added_b, "{context}");
                    let added = sides.0.added.len() + sides.1.added.len();
                    outcomes[usize::from(added > 0)] += 1;
                }
                (Err(e), Err(f)) => {
                    assert_eq!(e, f, "{context}");
                    match e {
                        ClosureError::DominatorBroken => outcomes[2] += 1,
                        other => panic!("closure answered {other:?} ({context})"),
                    }
                }
                (got, want) => panic!(
                    "fixpoint {:?}, reference {:?} ({context})",
                    got.err(),
                    want.err()
                ),
            }
        }
        outcomes
    }

    /// Three pairs for one seed through the differential: a random
    /// locked pair, a random Fig. 5-shaped pair, and the reduction of a
    /// random formula with three variables and two clauses. Only the
    /// reductions' closures run long enough, round after round, for a
    /// mask the fixpoint forgot to update to show.
    fn differential(seed: u64) -> Outcomes {
        let mut rng = StdRng::seed_from_u64(seed);
        let locked = random_locked_pair(&mut rng);
        let fig5 = random_fig5_pair(&mut rng);
        let formula = random_instance(seed, 3, 2);
        let reduced = reduce(&formula).expect("a restricted-form source").sys;
        let outcomes = [
            the_fixpoint_against_the_reference(&locked, &format!("locked pair {seed}")),
            the_fixpoint_against_the_reference(&fig5, &format!("Fig. 5 pair {seed}")),
            the_fixpoint_against_the_reference(&reduced, &format!("reduction {seed}")),
        ];
        std::array::from_fn(|i| outcomes.iter().map(|o| o[i]).sum())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn the_fixpoint_closes_as_the_round_by_round_reference(seed in any::<u64>()) {
            differential(seed);
        }
    }

    /// The differential reaches every way an attempt ends. A cycle is
    /// not among them: see `Side::lacks`.
    #[test]
    fn the_differential_reaches_every_outcome() {
        let mut total = [0; 3];
        for seed in 0..64 {
            for (t, n) in total.iter_mut().zip(differential(seed)) {
                *t += n;
            }
        }
        assert!(total.iter().all(|&n| n > 0), "outcomes {total:?}");
    }

    /// A two-site system whose D(T1,T2) is `x ↔ y` with `z` isolated:
    /// dominators are {x, y} and {z}; the system is unsafe by Corollary 2.
    fn two_site_dominator_system() -> TxnSystem {
        let db = Database::from_spec(&[("x", 0), ("y", 0), ("z", 1)]);
        // T1: site 0 chain Ly Lx Uy Ux; site 1 chain Lz Uz; Lz ≺ Ux.
        let mut b1 = TxnBuilder::new(&db, "T1");
        b1.script("Ly Lx Uy Ux").unwrap();
        let [lz, _uz]: [_; 2] = b1.script("Lz Uz").unwrap().try_into().unwrap();
        let ux = kplock_model::StepId(3);
        b1.edge(lz, ux);
        let t1 = b1.build().unwrap();
        // T2: site 0 chain Ly Lx Uy Ux; site 1 chain Lz Uz; Ly ≺ Uz.
        let mut b2 = TxnBuilder::new(&db, "T2");
        let site0 = b2.script("Ly Lx Uy Ux").unwrap();
        let site1 = b2.script("Lz Uz").unwrap();
        b2.edge(site0[0], site1[1]); // Ly -> Uz
        let t2 = b2.build().unwrap();
        TxnSystem::new(db, vec![t1, t2])
    }

    #[test]
    fn closure_succeeds_on_two_sites_and_produces_certificate() {
        let sys = two_site_dominator_system();
        let d = ConflictDigraph::build(&sys, TxnId(0), TxnId(1));
        assert!(!d.is_strongly_connected(), "test premise");
        let dom_bits = find_dominator(&d.graph).unwrap();
        let dom: Vec<EntityId> = dom_bits.iter().map(|i| d.entities[i]).collect();
        let cert = try_unsafety_via_dominator(&sys, TxnId(0), TxnId(1), &dom)
            .expect("two-site closure must succeed (Lemma 3)");
        cert.verify(&sys).unwrap();
    }

    #[test]
    fn explicit_xy_dominator_also_works() {
        let sys = two_site_dominator_system();
        let x = sys.db().entity("x").unwrap();
        let y = sys.db().entity("y").unwrap();
        let cert = try_unsafety_via_dominator(&sys, TxnId(0), TxnId(1), &[x, y])
            .expect("closure w.r.t. {x,y}");
        cert.verify(&sys).unwrap();
        assert_eq!(cert.dominator, vec![x, y]);
    }

    #[test]
    fn closure_is_idempotent_when_nothing_to_add() {
        // Totally ordered pair: already closed w.r.t. any dominator.
        let db = Database::centralized(&["x", "y"]);
        let mut b1 = TxnBuilder::new(&db, "t1");
        b1.script("Lx x Ux Ly y Uy").unwrap();
        let t1 = b1.build().unwrap();
        let mut b2 = TxnBuilder::new(&db, "t2");
        b2.script("Ly y Uy Lx x Ux").unwrap();
        let t2 = b2.build().unwrap();
        let sys = TxnSystem::new(db, vec![t1, t2]);
        let d = ConflictDigraph::build(&sys, TxnId(0), TxnId(1));
        let dom_bits = find_dominator(&d.graph).unwrap();
        let dom: Vec<EntityId> = dom_bits.iter().map(|i| d.entities[i]).collect();
        let c = close_wrt_dominator(&sys, TxnId(0), TxnId(1), &dom).unwrap();
        assert!(c.added_a.is_empty() && c.added_b.is_empty());
    }
}
