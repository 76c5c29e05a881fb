//! Theorem 3: the reduction from restricted CNF satisfiability to
//! unsafety of a two-transaction multisite system.
//!
//! Given a CNF formula `F` in the paper's restricted form (clauses of width
//! 2–3; each variable ≤ 2 positive and ≤ 1 negative occurrences), this
//! module builds transactions `T1(F)`, `T2(F)` — every entity stored at its
//! own site — such that `{T1(F), T2(F)}` is **unsafe iff `F` is
//! satisfiable**.
//!
//! The intended conflict digraph `D` (Fig. 8) consists of:
//!
//! * an **upper cycle** through `u`, the clause-literal nodes `c_ij` and
//!   separating dummies;
//! * a **middle row**: for each variable `k`, nodes `w_k` and `w'_k`
//!   (direct descendants of `u`); if `x_k` occurs twice positively, two
//!   copies of `w_k` joined by arcs in both directions, only the first a
//!   direct descendant of `u`;
//! * a **lower cycle** through `v`, the nodes `z_k`, `z'_k` and dummies,
//!   with `v` a direct descendant of every middle node that descends
//!   directly from `u`.
//!
//! Dominators of `D` are exactly "upper cycle + a subset of middle SCCs";
//! reading `w_k ∈ X` as `x_k = true` and `w'_k ∈ X` as `x_k = false`, the
//! *completion gadgets* make the dominator closure (Definition 3) fail
//! exactly on the **undesirable** dominators — those choosing both
//! polarities of a variable, or satisfying no literal of some clause. Thus
//! a closure certificate (Corollary 2) exists iff `F` has a satisfying
//! assignment.
//!
//! Every intended arc `(p, q)` is realized sparsely by `Lp ≺₁ Uq` and
//! `Lq ≺₂ Up`; since all cross-entity precedences run from lock steps to
//! unlock steps, the transitive closure introduces no unintended
//! Definition-1 arcs — [`Reduction::verify_intended`] checks this.

use crate::conflict_graph::ConflictDigraph;
use kplock_graph::DiGraph;
use kplock_model::{Database, EntityId, SiteId, Step, StepId, Transaction, TxnId, TxnSystem};
use kplock_sat::{solve, Cnf, SatResult};
use std::collections::HashMap;

/// What role an entity/node plays in the construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// The upper-cycle anchor `u`.
    U,
    /// A dummy node of the upper cycle.
    UpperDummy,
    /// The node `c_ij` for the `j`-th literal of clause `i`.
    ClauseLit {
        /// Clause index.
        clause: usize,
        /// Literal position within the clause.
        lit: usize,
    },
    /// `w_k` (copy 0 is the primary, direct descendant of `u`).
    WPos {
        /// Variable index.
        var: usize,
        /// Copy number (0 or 1).
        copy: usize,
    },
    /// `w'_k`, the negation's middle node.
    WNeg {
        /// Variable index.
        var: usize,
    },
    /// The lower-cycle anchor `v`.
    V,
    /// `z_k` (`neg == false`) or `z'_k` (`neg == true`).
    Z {
        /// Variable index.
        var: usize,
        /// Whether this is the negation's node.
        neg: bool,
    },
    /// A dummy node of the lower cycle.
    LowerDummy,
}

/// Errors from [`reduce`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReductionError {
    /// The formula is not in the paper's restricted form.
    NotRestricted,
    /// A clause contains a repeated variable (dedupe/tautology-eliminate
    /// first).
    RepeatedVariable(usize),
}

impl std::fmt::Display for ReductionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReductionError::NotRestricted => {
                write!(
                    f,
                    "formula not in restricted form (use kplock_sat::to_restricted_form)"
                )
            }
            ReductionError::RepeatedVariable(c) => {
                write!(f, "clause {c} repeats a variable")
            }
        }
    }
}

impl std::error::Error for ReductionError {}

/// The full output of the Theorem-3 construction.
#[derive(Clone, Debug)]
pub struct Reduction {
    /// The source formula.
    pub cnf: Cnf,
    /// `{T1(F), T2(F)}`, one site per entity.
    pub sys: TxnSystem,
    /// Role of each entity (indexed by entity id).
    pub kinds: Vec<NodeKind>,
    /// The intended digraph `D` over entity indices.
    pub intended: DiGraph,
}

impl Reduction {
    /// The actual `D(T1(F), T2(F))`.
    pub fn d_graph(&self) -> ConflictDigraph {
        ConflictDigraph::build(&self.sys, TxnId(0), TxnId(1))
    }

    /// Checks that the constructed `D` equals the intended digraph
    /// (vertex sets coincide because both transactions lock everything).
    pub fn verify_intended(&self) -> bool {
        let d = self.d_graph();
        if d.entities.len() != self.intended.node_count() {
            return false;
        }
        if d.graph.edge_count() != self.intended.edge_count() {
            return false;
        }
        let matches = d.graph.edges().all(|(a, b)| self.intended.has_edge(a, b));
        matches
    }

    /// The dominator corresponding to an assignment: upper cycle plus the
    /// middle SCCs of the true literals.
    pub fn dominator_for_assignment(&self, assignment: &[bool]) -> Vec<EntityId> {
        let mut x = Vec::new();
        for (i, kind) in self.kinds.iter().enumerate() {
            let include = match kind {
                NodeKind::U | NodeKind::UpperDummy | NodeKind::ClauseLit { .. } => true,
                NodeKind::WPos { var, .. } => assignment[*var],
                NodeKind::WNeg { var } => !assignment[*var],
                _ => false,
            };
            if include {
                x.push(EntityId::from_idx(i));
            }
        }
        x
    }

    /// Reads a dominator as a (partial) assignment: `Some(true)` if `w_k`
    /// is in, `Some(false)` if `w'_k` is in, `None` if neither, and an
    /// error (`Err(var)`) if both are (undesirable type 1).
    pub fn assignment_of_dominator(&self, dom: &[EntityId]) -> Result<Vec<Option<bool>>, usize> {
        let mut out = vec![None; self.cnf.num_vars];
        for e in dom {
            match &self.kinds[e.idx()] {
                NodeKind::WPos { var, copy: 0 } => match out[*var] {
                    Some(false) => return Err(*var),
                    _ => out[*var] = Some(true),
                },
                NodeKind::WNeg { var } => match out[*var] {
                    Some(true) => return Err(*var),
                    _ => out[*var] = Some(false),
                },
                _ => {}
            }
        }
        Ok(out)
    }

    /// Whether a dominator is *desirable*: consistent polarities and every
    /// clause contains a literal made true.
    pub fn is_desirable(&self, dom: &[EntityId]) -> bool {
        let Ok(assignment) = self.assignment_of_dominator(dom) else {
            return false;
        };
        self.cnf.clauses().all(|c| {
            c.iter()
                .any(|l| assignment[l.var().idx()] == Some(l.is_positive()))
        })
    }

    /// Decides satisfiability of the source formula with DPLL (the paper's
    /// equivalence: satisfiable iff the transaction pair is unsafe).
    pub fn solve_formula(&self) -> SatResult {
        solve(&self.cnf)
    }

    /// Human-readable entity label.
    pub fn label(&self, e: EntityId) -> String {
        self.sys.db().name_of(e).to_string()
    }
}

/// Builds the Theorem-3 reduction for a restricted-form formula.
pub fn reduce(cnf: &Cnf) -> Result<Reduction, ReductionError> {
    if !cnf.is_restricted_form() {
        return Err(ReductionError::NotRestricted);
    }
    for (ci, c) in cnf.clauses().enumerate() {
        let mut vars: Vec<_> = c.iter().map(|l| l.var()).collect();
        vars.sort();
        vars.dedup();
        if vars.len() != c.len() {
            return Err(ReductionError::RepeatedVariable(ci));
        }
    }

    // ---- 1. Create the node set. ------------------------------------
    let mut db = Database::new();
    let mut kinds: Vec<NodeKind> = Vec::new();
    let add = |db: &mut Database, kinds: &mut Vec<NodeKind>, name: String, kind: NodeKind| {
        let site = SiteId::from_idx(kinds.len()); // one site per entity
        let e = db.add_entity(&name, site);
        kinds.push(kind);
        e
    };

    let u = add(&mut db, &mut kinds, "u".into(), NodeKind::U);
    let mut upper_cycle: Vec<EntityId> = vec![u];
    let mut clause_nodes: Vec<Vec<EntityId>> = Vec::new();
    let mut dummy_count = 0usize;
    for (i, clause) in cnf.clauses().enumerate() {
        let mut row = Vec::new();
        for j in 0..clause.len() {
            let d = add(
                &mut db,
                &mut kinds,
                format!("ud{dummy_count}"),
                NodeKind::UpperDummy,
            );
            dummy_count += 1;
            upper_cycle.push(d);
            let c = add(
                &mut db,
                &mut kinds,
                format!("c{}_{}", i + 1, j + 1),
                NodeKind::ClauseLit { clause: i, lit: j },
            );
            upper_cycle.push(c);
            row.push(c);
        }
        clause_nodes.push(row);
    }
    // Final dummy closing the upper cycle back to u.
    let closing = add(
        &mut db,
        &mut kinds,
        format!("ud{dummy_count}"),
        NodeKind::UpperDummy,
    );
    upper_cycle.push(closing);

    // Middle row.
    let occurrences = cnf.occurrence_counts();
    let mut wpos: Vec<Vec<EntityId>> = Vec::new();
    let mut wneg: Vec<EntityId> = Vec::new();
    for (k, occ) in occurrences.iter().enumerate() {
        let copies = if occ.0 == 2 { 2 } else { 1 };
        let mut row = Vec::new();
        for copy in 0..copies {
            let name = if copy == 0 {
                format!("w{}", k + 1)
            } else {
                format!("w{}_{}", k + 1, copy + 1)
            };
            row.push(add(
                &mut db,
                &mut kinds,
                name,
                NodeKind::WPos { var: k, copy },
            ));
        }
        wpos.push(row);
        wneg.push(add(
            &mut db,
            &mut kinds,
            format!("w{}'", k + 1),
            NodeKind::WNeg { var: k },
        ));
    }

    // Lower cycle.
    let v = add(&mut db, &mut kinds, "v".into(), NodeKind::V);
    let mut lower_cycle: Vec<EntityId> = vec![v];
    let mut zpos: Vec<EntityId> = Vec::new();
    let mut zneg: Vec<EntityId> = Vec::new();
    let mut ldummy = 0usize;
    for k in 0..cnf.num_vars {
        let d = add(
            &mut db,
            &mut kinds,
            format!("ld{ldummy}"),
            NodeKind::LowerDummy,
        );
        ldummy += 1;
        lower_cycle.push(d);
        let z = add(
            &mut db,
            &mut kinds,
            format!("z{}", k + 1),
            NodeKind::Z { var: k, neg: false },
        );
        lower_cycle.push(z);
        zpos.push(z);
        let d = add(
            &mut db,
            &mut kinds,
            format!("ld{ldummy}"),
            NodeKind::LowerDummy,
        );
        ldummy += 1;
        lower_cycle.push(d);
        let z2 = add(
            &mut db,
            &mut kinds,
            format!("z{}'", k + 1),
            NodeKind::Z { var: k, neg: true },
        );
        lower_cycle.push(z2);
        zneg.push(z2);
    }
    let closing_low = add(
        &mut db,
        &mut kinds,
        format!("ld{ldummy}"),
        NodeKind::LowerDummy,
    );
    lower_cycle.push(closing_low);

    // ---- 2. Intended arcs. -------------------------------------------
    let n = kinds.len();
    let mut intended = DiGraph::new(n);
    let arc = |g: &mut DiGraph, p: EntityId, q: EntityId| {
        g.add_edge(p.idx(), q.idx());
    };
    for w in upper_cycle.windows(2) {
        arc(&mut intended, w[0], w[1]);
    }
    arc(&mut intended, *upper_cycle.last().unwrap(), u);
    for k in 0..cnf.num_vars {
        arc(&mut intended, u, wpos[k][0]);
        arc(&mut intended, u, wneg[k]);
        if wpos[k].len() == 2 {
            arc(&mut intended, wpos[k][0], wpos[k][1]);
            arc(&mut intended, wpos[k][1], wpos[k][0]);
        }
        arc(&mut intended, wpos[k][0], v);
        arc(&mut intended, wneg[k], v);
    }
    for w in lower_cycle.windows(2) {
        arc(&mut intended, w[0], w[1]);
    }
    arc(&mut intended, *lower_cycle.last().unwrap(), v);

    // ---- 3. Transactions: Lx x Ux per entity + cross edges. ----------
    let mut steps1: Vec<Step> = Vec::new();
    let mut steps2: Vec<Step> = Vec::new();
    let mut lock1: HashMap<EntityId, StepId> = HashMap::new();
    let mut unlock1: HashMap<EntityId, StepId> = HashMap::new();
    let mut lock2: HashMap<EntityId, StepId> = HashMap::new();
    let mut unlock2: HashMap<EntityId, StepId> = HashMap::new();
    let mut edges1: Vec<(StepId, StepId)> = Vec::new();
    let mut edges2: Vec<(StepId, StepId)> = Vec::new();
    for i in 0..n {
        let e = EntityId::from_idx(i);
        for (steps, lock, unlock, edges) in [
            (&mut steps1, &mut lock1, &mut unlock1, &mut edges1),
            (&mut steps2, &mut lock2, &mut unlock2, &mut edges2),
        ] {
            let l = StepId::from_idx(steps.len());
            steps.push(Step::lock(e));
            let up = StepId::from_idx(steps.len());
            steps.push(Step::update(e));
            let ul = StepId::from_idx(steps.len());
            steps.push(Step::unlock(e));
            edges.push((l, up));
            edges.push((up, ul));
            lock.insert(e, l);
            unlock.insert(e, ul);
        }
    }
    // Realize intended arcs.
    for (p, q) in intended.edges() {
        let (p, q) = (EntityId::from_idx(p), EntityId::from_idx(q));
        edges1.push((lock1[&p], unlock1[&q]));
        edges2.push((lock2[&q], unlock2[&p]));
    }
    // Gadget (a): Lz_k ≺₁ Uw_k, Lz'_k ≺₁ Uw'_k; Lw_k ≺₂ Uz'_k,
    // Lw'_k ≺₂ Uz_k.
    for k in 0..cnf.num_vars {
        edges1.push((lock1[&zpos[k]], unlock1[&wpos[k][0]]));
        edges1.push((lock1[&zneg[k]], unlock1[&wneg[k]]));
        edges2.push((lock2[&wpos[k][0]], unlock2[&zneg[k]]));
        edges2.push((lock2[&wneg[k]], unlock2[&zpos[k]]));
    }
    // Gadgets (b)/(c): per occurrence, with the index shift.
    let mut pos_seen = vec![0usize; cnf.num_vars];
    for (i, clause) in cnf.clauses().enumerate() {
        let width = clause.len();
        for (j, lit) in clause.iter().enumerate() {
            let v = lit.var().idx();
            let m = if lit.is_positive() {
                let copy = pos_seen[v].min(wpos[v].len() - 1);
                pos_seen[v] += 1;
                wpos[v][copy]
            } else {
                wneg[v]
            };
            let c_here = clause_nodes[i][j];
            let c_next = clause_nodes[i][(j + 1) % width];
            edges1.push((lock1[&m], unlock1[&c_here]));
            edges2.push((lock2[&c_next], unlock2[&m]));
        }
    }

    let t1 = Transaction::new("T1(F)", steps1, edges1).expect("reduction T1 acyclic");
    let t2 = Transaction::new("T2(F)", steps2, edges2).expect("reduction T2 acyclic");
    let sys = TxnSystem::new(db, vec![t1, t2]);
    Ok(Reduction {
        cnf: cnf.clone(),
        sys,
        kinds,
        intended,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::try_unsafety_via_dominator;
    use kplock_model::Level;
    use kplock_sat::SatResult;

    /// The paper's Fig. 8 example: F = (x1 ∨ x2 ∨ x3) ∧ (¬x1 ∨ x2 ∨ ¬x3).
    pub(crate) fn fig8_formula() -> Cnf {
        Cnf::from_clauses(
            3,
            &[
                &[(0, true), (1, true), (2, true)],
                &[(0, false), (1, true), (2, false)],
            ],
        )
    }

    #[test]
    fn fig8_reduction_is_well_formed() {
        let r = reduce(&fig8_formula()).unwrap();
        r.sys.validate(Level::Strict).unwrap();
        assert!(r.verify_intended(), "D(T1,T2) != intended digraph");
    }

    #[test]
    fn fig8_satisfiable_gives_verified_certificate() {
        let r = reduce(&fig8_formula()).unwrap();
        let SatResult::Sat(model) = r.solve_formula() else {
            panic!("fig8 formula is satisfiable");
        };
        let dom = r.dominator_for_assignment(&model);
        let cert = try_unsafety_via_dominator(&r.sys, TxnId(0), TxnId(1), &dom)
            .expect("desirable dominator must close");
        cert.verify(&r.sys).unwrap();
    }

    #[test]
    fn undesirable_dominators_fail() {
        let r = reduce(&fig8_formula()).unwrap();
        // Type 1: both polarities of x1.
        let mut dom = r.dominator_for_assignment(&[true, true, true]);
        // Add w1' too.
        let w1n = r
            .kinds
            .iter()
            .position(|k| matches!(k, NodeKind::WNeg { var: 0 }))
            .unwrap();
        dom.push(EntityId::from_idx(w1n));
        assert!(!r.is_desirable(&dom));
        assert!(try_unsafety_via_dominator(&r.sys, TxnId(0), TxnId(1), &dom).is_none());

        // Type 2: upper cycle alone falsifies clause 1.
        let upper_only: Vec<EntityId> = r
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| {
                matches!(
                    k,
                    NodeKind::U | NodeKind::UpperDummy | NodeKind::ClauseLit { .. }
                )
            })
            .map(|(i, _)| EntityId::from_idx(i))
            .collect();
        assert!(!r.is_desirable(&upper_only));
        assert!(try_unsafety_via_dominator(&r.sys, TxnId(0), TxnId(1), &upper_only).is_none());
    }

    #[test]
    fn dominator_assignment_roundtrip() {
        let r = reduce(&fig8_formula()).unwrap();
        // A genuine model: clause 1 via x1, clause 2 via x2.
        let model = [true, true, false];
        let dom = r.dominator_for_assignment(&model);
        let back = r.assignment_of_dominator(&dom).unwrap();
        for (k, &m) in model.iter().enumerate() {
            assert_eq!(back[k], Some(m));
        }
        assert!(r.is_desirable(&dom));
    }

    #[test]
    fn rejects_unrestricted_formulas() {
        // Unit clause.
        let f = Cnf::from_clauses(1, &[&[(0, true)]]);
        assert_eq!(reduce(&f).unwrap_err(), ReductionError::NotRestricted);
        // Repeated variable.
        let f = Cnf::from_clauses(2, &[&[(0, true), (0, false), (1, true)]]);
        assert!(matches!(
            reduce(&f),
            Err(ReductionError::RepeatedVariable(0)) | Err(ReductionError::NotRestricted)
        ));
    }

    #[test]
    fn two_literal_clauses_work() {
        // (x1 ∨ x2) ∧ (¬x1 ∨ ¬x2): satisfiable.
        let f = Cnf::from_clauses(2, &[&[(0, true), (1, true)], &[(0, false), (1, false)]]);
        let r = reduce(&f).unwrap();
        assert!(r.verify_intended());
        let SatResult::Sat(model) = r.solve_formula() else {
            panic!("satisfiable");
        };
        let dom = r.dominator_for_assignment(&model);
        let cert = try_unsafety_via_dominator(&r.sys, TxnId(0), TxnId(1), &dom)
            .expect("closure certificate");
        cert.verify(&r.sys).unwrap();
    }
}
