//! A compact directed graph over `0..n` node indices.

/// Directed graph as successor and predecessor lists: O(nodes + edges) to
/// build and to hold. Both lists keep first-occurrence order, which
/// [`crate::find_cycle`] and [`crate::topo_sort`] traverse in. Edge
/// membership scans the shorter of the two lists an edge would sit in.
#[derive(Clone, Debug, Default)]
pub struct DiGraph {
    succ: Vec<Vec<usize>>,
    pred: Vec<Vec<usize>>,
    edge_count: usize,
}

impl DiGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            succ: vec![Vec::new(); n],
            pred: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.succ.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds edge `u -> v` (self-loops allowed); returns `true` if new.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        if self.has_edge(u, v) {
            return false;
        }
        self.succ[u].push(v);
        self.pred[v].push(u);
        self.edge_count += 1;
        true
    }

    /// Edge membership, in O(min(out-degree of `u`, in-degree of `v`)).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        let (succ, pred) = (&self.succ[u], &self.pred[v]);
        if succ.len() <= pred.len() {
            succ.contains(&v)
        } else {
            pred.contains(&u)
        }
    }

    /// Successors of `u`.
    pub fn successors(&self, u: usize) -> &[usize] {
        &self.succ[u]
    }

    /// Predecessors of `u`.
    pub fn predecessors(&self, u: usize) -> &[usize] {
        &self.pred[u]
    }

    /// All edges as `(u, v)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.succ
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u, v)))
    }

    /// Builds a graph from an edge list.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut g = DiGraph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// The reverse graph.
    pub fn reversed(&self) -> DiGraph {
        DiGraph::from_edges(self.node_count(), self.edges().map(|(u, v)| (v, u)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    #[test]
    fn add_and_query() {
        let mut g = DiGraph::new(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(0, 1));
        assert!(g.add_edge(1, 2));
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.successors(0), &[1]);
        assert_eq!(g.predecessors(2), &[1]);
    }

    #[test]
    fn reverse() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        let r = g.reversed();
        assert!(r.has_edge(1, 0) && r.has_edge(2, 1));
        assert_eq!(r.edge_count(), 2);
    }

    #[test]
    fn self_loop() {
        let mut g = DiGraph::new(1);
        assert!(g.add_edge(0, 0));
        assert!(g.has_edge(0, 0));
    }

    #[test]
    fn edges_iterator() {
        let g = DiGraph::from_edges(4, [(0, 1), (2, 3), (0, 2)]);
        let mut es: Vec<_> = g.edges().collect();
        es.sort();
        assert_eq!(es, vec![(0, 1), (0, 2), (2, 3)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The graph against the obvious model, a set of pairs plus
        /// insertion-ordered lists, on multigraph edge lists with
        /// duplicates, self-loops and one hub on a third of the edges (so
        /// membership scans run from both ends).
        #[test]
        fn matches_a_set_and_insertion_order_model(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..=24usize);
            let hub = rng.gen_range(0..n);
            let mut g = DiGraph::new(n);
            let mut set: HashSet<(usize, usize)> = HashSet::new();
            let mut succ = vec![Vec::new(); n];
            let mut pred = vec![Vec::new(); n];
            for _ in 0..rng.gen_range(0..=4 * n) {
                let (mut u, mut v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                match rng.gen_range(0..6u32) {
                    0 => u = hub,
                    1 => v = hub,
                    2 => v = u,
                    _ => {}
                }
                let fresh = set.insert((u, v));
                if fresh {
                    succ[u].push(v);
                    pred[v].push(u);
                }
                prop_assert_eq!(g.add_edge(u, v), fresh);
            }
            prop_assert_eq!(g.edge_count(), set.len());
            prop_assert_eq!(g.edges().collect::<HashSet<_>>(), set.clone());
            for u in 0..n {
                prop_assert_eq!(g.successors(u), succ[u].as_slice());
                prop_assert_eq!(g.predecessors(u), pred[u].as_slice());
                for v in 0..n {
                    prop_assert_eq!(g.has_edge(u, v), set.contains(&(u, v)));
                }
            }
        }
    }
}
