//! The round-by-round dominator closure that [`crate::closure`]'s
//! incremental fixpoint replaced, kept as a reference: `closure`'s tests
//! hold the fixpoint to it on every dominator of random pairs.

use crate::closure::ClosureError;
use crate::conflict_graph::{arcs, Sections};
use kplock_model::{StepId, Transaction, TxnId};

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
    (a, b): (TxnId, TxnId),
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
        if !pair.r1.precedes(uy_a, ux_a) {
            pair.r1 =
                pair.r1
                    .with_precedence(uy_a, ux_a)
                    .map_err(|_| ClosureError::CycleCreated {
                        txn: a,
                        from: uy_a,
                        to: ux_a,
                    })?;
            pair.added_a.push((uy_a, ux_a));
        }
        if !pair.r2.precedes(ly_b, lx_b) {
            pair.r2 =
                pair.r2
                    .with_precedence(ly_b, lx_b)
                    .map_err(|_| ClosureError::CycleCreated {
                        txn: b,
                        from: ly_b,
                        to: lx_b,
                    })?;
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
