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
//! The closure goes round by round, as the paper states it: a round that
//! adds a precedence builds the strengthened transaction, rebuilds `D`
//! over the strengthened pair and rescans every triple. No decision runs
//! it. Theorem 2's witness ([`crate::two_site`]) and the multisite
//! procedure's ([`crate::multisite`]) come off the section graph, whose
//! orientation by `X` is acyclic exactly when a schedule running `Ta`
//! first on `X` and `Tb` first elsewhere exists.

use crate::certificate::UnsafetyCertificate;
use crate::conflict_graph::{arcs, ConflictDigraph, Sections};
use crate::total_pair::orientation_schedule;
use kplock_graph::{topo_sort_by_key, DiGraph};
use kplock_model::{EntityId, StepId, Transaction, TxnId, TxnSystem};

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

/// `R1` and `R2` of a closed pair, and the precedences added to each in
/// order.
struct Closed {
    r1: Transaction,
    r2: Transaction,
    added_a: Vec<(StepId, StepId)>,
    added_b: Vec<(StepId, StepId)>,
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
    let closed = close_pair(sys.txn(a), sys.txn(b), &sections, &in_x)?;
    let mut txns = sys.txns().to_vec();
    txns[a.idx()] = closed.r1;
    txns[b.idx()] = closed.r2;
    Ok(Closure {
        system: TxnSystem::new(sys.db().clone(), txns),
        txn_a: a,
        txn_b: b,
        dominator: dominator.to_vec(),
        added_a: closed.added_a,
        added_b: closed.added_b,
    })
}

/// The closure of `{ta, tb}` with respect to the vertices `in_x` marks:
/// while an unmet triple `(z, x, y)` is left, require `Uy ≺₁ Ux` and
/// `Ly ≺₂ Lx`. Each round that adds a precedence builds a new transaction
/// through `with_precedence`, rebuilds `D` over the strengthened pair,
/// checks every arc of it, and rescans every triple with `precedes`. Fails
/// as soon as `X` stops dominating (checked before each round's search).
fn close_pair(
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

/// Corollary 2's certificate from the pair `(a, b)` closed with respect to
/// the vertices `in_x` marks, whose entities are `x_set`.
fn extract_certificate(
    (a, b): (TxnId, TxnId),
    closed: &Closed,
    sections: &[Sections],
    x_set: &[EntityId],
    in_x: &[bool],
) -> Result<UnsafetyCertificate, ClosureError> {
    let (r1, r2) = (&closed.r1, &closed.r2);
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
        .map(|&e| r1.unlock_step(e).expect("dominator entity locked"))
        .collect();
    // Rank = position in a topological order of the X-unlocks under R1's
    // precedence (a partial-order-respecting total order; index tiebreak).
    let mut offsets = vec![0];
    let mut later = Vec::new();
    for (i, &u) in x_unlocks_1.iter().enumerate() {
        let after_u = |j: usize| j != i && r1.precedes(u, x_unlocks_1[j]);
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
    let m1 = r1.len();
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
            for &w in r1.edge_graph().predecessors(v) {
                if target[w] == usize::MAX {
                    target[w] = rank;
                    stack.push(w);
                }
            }
        }
    }
    let t1_idx = topo_sort_by_key(r1.edge_graph(), |v| {
        (target[v], if x_unlock[v] { 0usize } else { 1 }, v)
    })
    .expect("transaction partial orders are acyclic");
    let t1_order: Vec<StepId> = t1_idx.iter().map(|&v| StepId::from_idx(v)).collect();

    // Each X-lock of R2 is deferred behind the position of its Ux in t1.
    let mut at_in_t1 = vec![0; m1];
    for (at, &v) in t1_idx.iter().enumerate() {
        at_in_t1[v] = at;
    }
    let mut deferred_to = vec![None; r2.len()];
    for (&e, ux) in x_set.iter().zip(&x_unlocks_1) {
        if let Some(lx) = r2.lock_step(e) {
            deferred_to[lx.idx()] = Some(at_in_t1[ux.idx()]);
        }
    }
    let t2_idx = topo_sort_by_key(r2.edge_graph(), |v| match deferred_to[v] {
        Some(at) => (1usize, at, v),
        None => (0, 0, v),
    })
    .expect("acyclic");
    let t2_order: Vec<StepId> = t2_idx.iter().map(|&v| StepId::from_idx(v)).collect();

    let schedule = orientation_schedule((a, r1, &t1_order), (b, r2, &t2_order), sections, in_x)
        .ok_or(ClosureError::OrientationInfeasible)?;

    Ok(UnsafetyCertificate {
        txn_a: a,
        txn_b: b,
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
    let closed = close_pair(sys.txn(a), sys.txn(b), &sections, &in_x).ok()?;
    let cert = extract_certificate((a, b), &closed, &sections, dominator, &in_x).ok()?;
    cert.verify(sys).ok()?;
    Some(cert)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_graph::find_dominator;
    use kplock_model::{Database, TxnBuilder};

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
