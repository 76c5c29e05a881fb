//! Incremental wait-for-graph deadlock detection for [`crate::LockManager`].
//!
//! [`WaitForGraph`] keeps the waits-for relation *materialized*, updated
//! per entity as requests block, grant, release or cancel. Two events can
//! close a cycle: a request *blocking* (adding edges from the requester),
//! and a release *granting* (the entity's remaining waiters retarget onto
//! the new holder) — so detection must run after both, which is exactly
//! what [`crate::LockManager`] does; every deadlock is then found at the
//! moment it forms. (The simulator keeps no such mirror: its site tables
//! are its one record of who waits, and its detectors scan them.)
//!
//! Cycle search and strongly-connected-component analysis reuse
//! `kplock-graph` ([`kplock_graph::find_cycle`], [`kplock_graph::tarjan_scc`])
//! — the same machinery behind the paper's Theorem 1/2 deciders — rather
//! than reimplementing graph walks here.

use kplock_graph::DiGraph;
use kplock_model::{EntityId, IdMap};
use std::hash::Hash;

/// A wait-for graph over owners, maintained incrementally per entity.
///
/// Each entity contributes the bipartite edge set *waiters × holders*; the
/// graph is their union. [`WaitForGraph::update_entity`] replaces one
/// entity's contribution in `O(edges of e)`, so the caller pays only for
/// the entity whose lock state just changed.
#[derive(Clone, Debug)]
pub struct WaitForGraph<O> {
    per_entity: IdMap<EntityId, Vec<(O, O)>>,
}

impl<O> Default for WaitForGraph<O> {
    fn default() -> Self {
        WaitForGraph {
            per_entity: IdMap::default(),
        }
    }
}

impl<O: Copy + Eq + Ord + Hash> WaitForGraph<O> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces entity `e`'s contribution with `edges` (typically
    /// `QueueTable::entity_waits_for(e)` after a state change). An empty
    /// `edges` removes the entity. Returns whether the contribution
    /// actually changed.
    pub fn update_entity(&mut self, e: EntityId, edges: Vec<(O, O)>) -> bool {
        if edges.is_empty() {
            self.per_entity.remove(&e).is_some()
        } else if self.per_entity.get(&e) == Some(&edges) {
            false
        } else {
            self.per_entity.insert(e, edges);
            true
        }
    }

    /// All edges `(waiter, holder)`, ascending and deduplicated (two
    /// entities may induce the same owner pair).
    fn edges(&self) -> Vec<(O, O)> {
        let mut out: Vec<(O, O)> = self.per_entity.values().flatten().copied().collect();
        out.sort();
        out.dedup();
        out
    }

    /// Interns owners (sorted, so results are deterministic regardless of
    /// hash-map iteration order) and builds the [`DiGraph`] — over the
    /// owners on an edge only, so the graph costs what the waits cost,
    /// however many owners the tables have seen.
    fn build(&self) -> (Vec<O>, DiGraph) {
        let edges = self.edges();
        let mut owners: Vec<O> = edges.iter().flat_map(|&(w, h)| [w, h]).collect();
        owners.sort();
        owners.dedup();
        let index: IdMap<O, usize> = owners.iter().enumerate().map(|(i, &o)| (o, i)).collect();
        let mut g = DiGraph::new(owners.len());
        for &(w, h) in &edges {
            if w != h {
                g.add_edge(index[&w], index[&h]);
            }
        }
        (owners, g)
    }

    /// Finds one deadlock cycle, as the owners along it, if any exists.
    pub fn find_cycle(&self) -> Option<Vec<O>> {
        let (owners, g) = self.build();
        kplock_graph::find_cycle(&g).map(|c| c.into_iter().map(|i| owners[i]).collect())
    }

    /// Every deadlocked owner group: the nontrivial strongly connected
    /// components of the graph, each sorted, the list sorted by first
    /// member. Exactly what a global periodic scan would report, so
    /// incremental maintenance can be checked against a from-scratch scan.
    pub fn deadlocked_groups(&self) -> Vec<Vec<O>> {
        let (owners, g) = self.build();
        let sccs = kplock_graph::tarjan_scc(&g);
        let mut out: Vec<Vec<O>> = sccs
            .members
            .iter()
            .filter(|c| c.len() > 1)
            .map(|c| {
                let mut grp: Vec<O> = c.iter().map(|&i| owners[i]).collect();
                grp.sort();
                grp
            })
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    #[test]
    fn no_cycle_on_chains() {
        let mut g: WaitForGraph<u32> = WaitForGraph::new();
        g.update_entity(e(0), vec![(1, 0)]);
        g.update_entity(e(1), vec![(2, 1)]);
        assert_eq!(g.find_cycle(), None);
        assert!(g.deadlocked_groups().is_empty());
    }

    #[test]
    fn detects_and_clears_a_two_cycle() {
        let mut g: WaitForGraph<u32> = WaitForGraph::new();
        g.update_entity(e(0), vec![(1, 0)]);
        g.update_entity(e(1), vec![(0, 1)]);
        let mut c = g.find_cycle().unwrap();
        c.sort();
        assert_eq!(c, vec![0, 1]);
        assert_eq!(g.deadlocked_groups(), vec![vec![0, 1]]);
        // The victim's edges disappear; so does the cycle.
        g.update_entity(e(1), vec![]);
        assert_eq!(g.find_cycle(), None);
    }

    #[test]
    fn duplicate_edges_from_two_entities_survive_one_removal() {
        let mut g: WaitForGraph<u32> = WaitForGraph::new();
        // Entities 0 and 1 both induce the edge (1, 0).
        g.update_entity(e(0), vec![(1, 0)]);
        g.update_entity(e(1), vec![(1, 0), (0, 1)]);
        assert!(g.find_cycle().is_some());
        g.update_entity(e(1), vec![]);
        assert_eq!(g.edges(), vec![(1, 0)]);
        assert_eq!(g.find_cycle(), None);
    }

    #[test]
    fn self_edges_are_ignored() {
        let mut g: WaitForGraph<u32> = WaitForGraph::new();
        g.update_entity(e(0), vec![(0, 0)]);
        assert_eq!(g.find_cycle(), None);
    }

    #[test]
    fn multiple_disjoint_deadlocks_reported() {
        let mut g: WaitForGraph<u32> = WaitForGraph::new();
        g.update_entity(e(0), vec![(0, 1), (1, 0)]);
        g.update_entity(e(1), vec![(2, 3), (3, 2)]);
        assert_eq!(g.deadlocked_groups(), vec![vec![0, 1], vec![2, 3]]);
    }
}
