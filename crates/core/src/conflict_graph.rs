//! The conflict digraph `D(T1, T2)` (Definition 1).
//!
//! Vertices are the entities locked (and unlocked) by **both** transactions.
//! There is an arc `(x, y)` iff `Lx` precedes `Uy` in `T1` **and** `Ly`
//! precedes `Ux` in `T2`. Geometrically (Fig. 4): in every coordinated
//! plane compatible with the pair, the upper-left corner of the
//! `x`-rectangle lies above and to the left of the lower-right corner of the
//! `y`-rectangle.
//!
//! Self-arcs `(x, x)` would hold trivially for every well-formed pair
//! (`Lx ≺ Ux` in both) and never affect strong connectivity or dominators,
//! so we omit them.

use kplock_graph::{is_strongly_connected, BitSet, DiGraph};
use kplock_model::{EntityId, StepId, Transaction, TxnId, TxnSystem};

/// `D(T1, T2)` with its entity labelling.
#[derive(Clone, Debug)]
pub struct ConflictDigraph {
    /// Transaction on the "1" side of Definition 1.
    pub txn_a: TxnId,
    /// Transaction on the "2" side.
    pub txn_b: TxnId,
    /// Vertex `i` is entity `entities[i]` (ascending order).
    pub entities: Vec<EntityId>,
    /// The arc structure.
    pub graph: DiGraph,
}

/// The four steps that bound one vertex's lock sections: `Lx` and `Ux` in
/// `Ta`, then in `Tb`. A closure only adds precedences, so these are the
/// steps of the strengthened pair too.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Sections {
    pub(crate) lock_a: StepId,
    pub(crate) unlock_a: StepId,
    pub(crate) lock_b: StepId,
    pub(crate) unlock_b: StepId,
}

impl Sections {
    /// The sections of entities both transactions lock, in the given
    /// order; `None` if a transaction lacks the lock or unlock step of one.
    pub(crate) fn of(ta: &Transaction, tb: &Transaction, shared: &[EntityId]) -> Option<Vec<Self>> {
        let mut sections = Vec::with_capacity(shared.len());
        for &e in shared {
            sections.push(Sections {
                lock_a: ta.lock_step(e)?,
                unlock_a: ta.unlock_step(e)?,
                lock_b: tb.lock_step(e)?,
                unlock_b: tb.unlock_step(e)?,
            });
        }
        Some(sections)
    }
}

impl ConflictDigraph {
    /// Builds `D(Ta, Tb)` for two transactions of a system.
    ///
    /// # Panics
    /// If a transaction lacks the lock or unlock step of an entity both
    /// lock, where Definition 1 does not apply.
    pub fn build(sys: &TxnSystem, a: TxnId, b: TxnId) -> Self {
        Self::build_with_sections(sys, a, b)
            .expect("every shared entity is locked and unlocked in both transactions")
            .0
    }

    /// Builds `D(Ta, Tb)` and returns beside it each vertex's
    /// [`Sections`], which the closure and the certificate read; `None`
    /// if a transaction lacks the lock or unlock step of a shared entity.
    pub(crate) fn build_with_sections(
        sys: &TxnSystem,
        a: TxnId,
        b: TxnId,
    ) -> Option<(Self, Vec<Sections>)> {
        let (ta, tb) = (sys.txn(a), sys.txn(b));
        let entities = sys.shared_locked_entities(a, b);
        let sections = Sections::of(ta, tb, &entities)?;
        let d = ConflictDigraph {
            txn_a: a,
            txn_b: b,
            entities,
            graph: arcs(ta, tb, &sections),
        };
        Some((d, sections))
    }

    /// A dominator given as vertex bits, as its entities (ascending) and
    /// as vertex membership.
    pub(crate) fn resolve_dominator(&self, bits: &BitSet) -> (Vec<EntityId>, Vec<bool>) {
        let entities = bits.iter().map(|i| self.entities[i]).collect();
        let in_x = (0..self.entities.len()).map(|i| bits.contains(i)).collect();
        (entities, in_x)
    }

    /// Index of an entity among the vertices.
    pub fn vertex_of(&self, e: EntityId) -> Option<usize> {
        self.entities.binary_search(&e).ok()
    }

    /// Theorem 1's condition: is `D` strongly connected?
    pub fn is_strongly_connected(&self) -> bool {
        is_strongly_connected(&self.graph)
    }

    /// Whether the arc `(x, y)` is present.
    pub fn has_arc(&self, x: EntityId, y: EntityId) -> bool {
        match (self.vertex_of(x), self.vertex_of(y)) {
            (Some(i), Some(j)) => self.graph.has_edge(i, j),
            _ => false,
        }
    }
}

/// The arcs of `D(ta, tb)` over vertices with the given sections, laid
/// out row by row: `O(k²)` precedence queries, each one bit of a closure.
pub(crate) fn arcs(ta: &Transaction, tb: &Transaction, sections: &[Sections]) -> DiGraph {
    let mut offsets = Vec::with_capacity(sections.len() + 1);
    let mut targets = Vec::new();
    offsets.push(0);
    for (i, x) in sections.iter().enumerate() {
        for (j, y) in sections.iter().enumerate() {
            if i != j && ta.precedes(x.lock_a, y.unlock_a) && tb.precedes(y.lock_b, x.unlock_b) {
                targets.push(j);
            }
        }
        offsets.push(targets.len());
    }
    DiGraph::from_successor_rows(&offsets, targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_model::{Database, TxnBuilder, TxnSystem};

    fn pair(script1: &str, script2: &str, spec: &[(&str, usize)]) -> TxnSystem {
        let db = Database::from_spec(spec);
        let mut b1 = TxnBuilder::new(&db, "T1");
        b1.script(script1).unwrap();
        let t1 = b1.build().unwrap();
        let mut b2 = TxnBuilder::new(&db, "T2");
        b2.script(script2).unwrap();
        let t2 = b2.build().unwrap();
        TxnSystem::new(db, vec![t1, t2])
    }

    #[test]
    fn two_phase_totals_give_complete_digraph() {
        // Both transactions lock everything before unlocking anything:
        // every (x,y) pair satisfies Definition 1.
        let sys = pair("Lx Ly x y Ux Uy", "Ly Lx y x Uy Ux", &[("x", 0), ("y", 0)]);
        let d = ConflictDigraph::build(&sys, TxnId(0), TxnId(1));
        assert_eq!(d.entities.len(), 2);
        assert_eq!(d.graph.edge_count(), 2); // both directions, no self-arcs
        assert!(d.is_strongly_connected());
    }

    #[test]
    fn non_two_phase_centralized_pair_not_strongly_connected() {
        // T1 releases x before acquiring y; T2 likewise in opposite order:
        // classic unsafe pair. D must not be strongly connected.
        let sys = pair("Lx x Ux Ly y Uy", "Ly y Uy Lx x Ux", &[("x", 0), ("y", 0)]);
        let d = ConflictDigraph::build(&sys, TxnId(0), TxnId(1));
        // Arc (x,y): Lx <1 Uy (yes) and Ly <2 Ux (yes) => present.
        // Arc (y,x): Ly <1 Ux (no: Ly comes after Ux in T1).
        let x = sys.db().entity("x").unwrap();
        let y = sys.db().entity("y").unwrap();
        assert!(d.has_arc(x, y));
        assert!(!d.has_arc(y, x));
        assert!(!d.is_strongly_connected());
    }

    #[test]
    fn vertices_are_shared_entities_only() {
        let sys = pair(
            "Lx x Ux Ly y Uy",
            "Lx x Ux Lz z Uz",
            &[("x", 0), ("y", 0), ("z", 0)],
        );
        let d = ConflictDigraph::build(&sys, TxnId(0), TxnId(1));
        assert_eq!(d.entities, vec![sys.db().entity("x").unwrap()]);
        // One vertex: strongly connected by convention.
        assert!(d.is_strongly_connected());
    }

    #[test]
    fn distributed_concurrency_removes_arcs() {
        // x at site 0, y at site 1. T1 locks both concurrently (no cross
        // edges): Lx and Uy are concurrent, so arc (x,y) requires Lx <1 Uy
        // which fails.
        let db = Database::from_spec(&[("x", 0), ("y", 1)]);
        let mut b1 = TxnBuilder::new(&db, "T1");
        b1.script("Lx x Ux").unwrap(); // site 0 chain
        b1.script("Ly y Uy").unwrap(); // site 1 chain, concurrent
        let t1 = b1.build().unwrap();
        let mut b2 = TxnBuilder::new(&db, "T2");
        b2.script("Lx x Ux").unwrap();
        b2.script("Ly y Uy").unwrap();
        let t2 = b2.build().unwrap();
        let sys = TxnSystem::new(db, vec![t1, t2]);
        let d = ConflictDigraph::build(&sys, TxnId(0), TxnId(1));
        assert_eq!(d.graph.edge_count(), 0);
        assert!(!d.is_strongly_connected());
    }
}
