//! Dominators in the sense of Kanellakis & Papadimitriou (Definition 2).
//!
//! A *dominator* of a directed graph `D = (V, A)` is a nonempty **proper**
//! subset `X` of `V` with no incoming arcs from `V − X`. A directed graph has
//! a dominator iff it is not strongly connected. (This is unrelated to the
//! "dominator tree" of flow-graph analysis.)
//!
//! Structurally, `X` is a dominator iff it is a nonempty proper union of
//! strongly connected components that is closed under predecessors
//! ("ancestor-closed" in the condensation DAG).

use crate::bitset::BitSet;
use crate::condensation::{condensation, Condensation};
use crate::digraph::DiGraph;
use std::collections::{HashSet, VecDeque};

/// Checks Definition 2 directly: `x` is nonempty, proper, and has no
/// incoming arc from outside.
pub fn is_dominator(g: &DiGraph, x: &BitSet) -> bool {
    let n = g.node_count();
    let size = x.count();
    if size == 0 || size >= n {
        return false;
    }
    for v in x.iter() {
        for &u in g.predecessors(v) {
            if !x.contains(u) {
                return false;
            }
        }
    }
    true
}

/// Returns some dominator if one exists (i.e. iff `g` is not strongly
/// connected and has at least two nodes): the members of a source SCC.
pub fn find_dominator(g: &DiGraph) -> Option<BitSet> {
    let n = g.node_count();
    if n < 2 {
        return None;
    }
    let c = condensation(g);
    if c.dag.node_count() < 2 {
        return None;
    }
    let src = *c
        .source_components()
        .first()
        .expect("a DAG always has a source");
    Some(BitSet::from_indices(n, c.sccs.members[src].iter().copied()))
}

/// The dominators of `g`, drawn one at a time in breadth-first order
/// over predecessor-closed sets of strongly connected components: a set
/// is extended by each component, in index order, whose predecessors it
/// holds, and each new proper set is yielded as it is found. A caller
/// that stops at the first dominator that serves pays for no more.
pub struct Dominators {
    c: Condensation,
    n: usize,
    /// The component set being extended, and the next component to try.
    cur: Option<BitSet>,
    comp: usize,
    queue: VecDeque<BitSet>,
    seen: HashSet<BitSet>,
}

/// The dominators of `g` (none if `g` is strongly connected or has fewer
/// than two nodes), lazily; see [`Dominators`].
pub fn dominators(g: &DiGraph) -> Dominators {
    let c = condensation(g);
    let (n, k) = (g.node_count(), c.dag.node_count());
    let empty = BitSet::new(k);
    Dominators {
        n,
        cur: (k >= 2 && n >= 2).then(|| empty.clone()),
        comp: 0,
        queue: VecDeque::new(),
        seen: HashSet::from([empty]),
        c,
    }
}

impl Iterator for Dominators {
    type Item = BitSet;

    fn next(&mut self) -> Option<BitSet> {
        let k = self.c.dag.node_count();
        while let Some(cur) = &self.cur {
            while self.comp < k {
                let comp = self.comp;
                self.comp += 1;
                if cur.contains(comp)
                    || !self
                        .c
                        .dag
                        .predecessors(comp)
                        .iter()
                        .all(|&p| cur.contains(p))
                {
                    continue;
                }
                let mut next = cur.clone();
                next.insert(comp);
                if !self.seen.insert(next.clone()) {
                    continue;
                }
                // Proper exactly when some component is left out.
                let proper = next.count() < k;
                let nodes = proper.then(|| comps_to_nodes(&self.c, &next, self.n));
                self.queue.push_back(next);
                if nodes.is_some() {
                    return nodes;
                }
            }
            self.cur = self.queue.pop_front();
            self.comp = 0;
        }
        None
    }
}

/// Enumerates all dominators of `g`, up to `cap` of them.
///
/// Dominators are exactly the nonempty proper predecessor-closed unions of
/// SCCs; there can be exponentially many, hence the cap. Returns the
/// first `cap` dominators in [`dominators`]' order and whether they are
/// all of them.
pub fn enumerate_dominators(g: &DiGraph, cap: usize) -> (Vec<BitSet>, bool) {
    let mut all = dominators(g);
    let found: Vec<BitSet> = all.by_ref().take(cap).collect();
    let exhaustive = all.next().is_none();
    (found, exhaustive)
}

fn comps_to_nodes(c: &Condensation, comps: &BitSet, n: usize) -> BitSet {
    BitSet::from_indices(
        n,
        comps
            .iter()
            .flat_map(|ci| c.sccs.members[ci].iter().copied()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strongly_connected_has_no_dominator() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        assert!(find_dominator(&g).is_none());
        let (all, exhaustive) = enumerate_dominators(&g, 100);
        assert!(all.is_empty() && exhaustive);
    }

    #[test]
    fn chain_dominators() {
        // 0 -> 1 -> 2: dominators are {0}, {0,1}.
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        let d = find_dominator(&g).unwrap();
        assert!(is_dominator(&g, &d));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![0]);
        let (all, exhaustive) = enumerate_dominators(&g, 100);
        assert!(exhaustive);
        let mut sets: Vec<Vec<usize>> = all.iter().map(|b| b.iter().collect()).collect();
        sets.sort();
        assert_eq!(sets, vec![vec![0], vec![0, 1]]);
    }

    /// A graph with exactly `cap` dominators is enumerated exhaustively.
    #[test]
    fn exactly_cap_dominators_are_all_of_them() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        for (cap, found, exhaustive) in [(0, 0, false), (1, 1, false), (2, 2, true), (3, 2, true)] {
            let (all, all_found) = enumerate_dominators(&g, cap);
            assert_eq!((all.len(), all_found), (found, exhaustive), "cap {cap}");
        }
    }

    #[test]
    fn two_sources() {
        // 0 -> 2 <- 1: dominators {0},{1},{0,1}.
        let g = DiGraph::from_edges(3, [(0, 2), (1, 2)]);
        let (all, _) = enumerate_dominators(&g, 100);
        let mut sets: Vec<Vec<usize>> = all.iter().map(|b| b.iter().collect()).collect();
        sets.sort();
        assert_eq!(sets, vec![vec![0], vec![0, 1], vec![1]]);
        for d in &all {
            assert!(is_dominator(&g, d));
        }
    }

    #[test]
    fn scc_granularity() {
        // {0,1} cycle -> 2. Dominator must contain whole cycle: {0,1} only.
        let g = DiGraph::from_edges(3, [(0, 1), (1, 0), (1, 2)]);
        let (all, _) = enumerate_dominators(&g, 100);
        let mut sets: Vec<Vec<usize>> = all.iter().map(|b| b.iter().collect()).collect();
        sets.sort();
        assert_eq!(sets, vec![vec![0, 1]]);
    }

    #[test]
    fn is_dominator_rejects_improper_sets() {
        let g = DiGraph::from_edges(2, [(0, 1)]);
        assert!(!is_dominator(&g, &BitSet::new(2))); // empty
        assert!(!is_dominator(&g, &BitSet::from_indices(2, [0, 1]))); // not proper
        assert!(!is_dominator(&g, &BitSet::from_indices(2, [1]))); // incoming arc
        assert!(is_dominator(&g, &BitSet::from_indices(2, [0])));
    }

    #[test]
    fn has_dominator_iff_not_strongly_connected() {
        // Easy to check on small random-ish graphs.
        let cases: Vec<(usize, Vec<(usize, usize)>)> = vec![
            (4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]),
            (4, vec![(0, 1), (1, 2), (2, 3)]),
            (5, vec![(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (1, 2)]),
            (2, vec![]),
            (1, vec![]),
        ];
        for (n, edges) in cases {
            let g = DiGraph::from_edges(n, edges);
            let sc = crate::scc::is_strongly_connected(&g);
            assert_eq!(find_dominator(&g).is_none(), sc || n < 2, "n={n}");
        }
    }
}
