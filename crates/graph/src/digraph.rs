//! A compact directed graph over `0..n` node indices.

/// Directed graph as successor and predecessor lists: O(nodes + edges) to
/// build and to hold. Both lists keep first-occurrence order, which
/// [`crate::find_cycle`] and [`crate::topo_sort`] traverse in. Edge
/// membership scans the shorter of the two lists an edge would sit in.
///
/// Each direction is one row table over one pool of targets, so a graph
/// is four buffers however many nodes it has. A row with room takes a new
/// edge in place, the row at the end of the pool grows in place, and any
/// other full row moves to the end with twice its capacity, leaving a
/// hole behind. [`DiGraph::shrink_to_fit`] rewrites both pools without
/// holes, rows side by side in node order: the compressed-row layout,
/// which [`DiGraph::from_successor_rows`] builds directly.
#[derive(Clone, Debug, Default)]
pub struct DiGraph {
    succ: Rows,
    pred: Rows,
    edge_count: usize,
}

/// One adjacency direction: row `u` is `pool[start..start + len]`, with
/// `pool[start + len..start + cap]` reserved for it.
#[derive(Clone, Debug, Default)]
struct Rows {
    rows: Vec<Row>,
    pool: Vec<usize>,
}

#[derive(Clone, Copy, Debug, Default)]
struct Row {
    start: u32,
    len: u32,
    cap: u32,
}

/// A pool offset as a row field.
fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("a DiGraph direction holds fewer than 2^32 edge slots")
}

impl Rows {
    fn new(n: usize) -> Self {
        Rows {
            rows: vec![Row::default(); n],
            pool: Vec::new(),
        }
    }

    #[inline]
    fn get(&self, u: usize) -> &[usize] {
        let Row { start, len, .. } = self.rows[u];
        let start = start as usize;
        &self.pool[start..start + len as usize]
    }

    fn push(&mut self, u: usize, v: usize) {
        let row = &mut self.rows[u];
        let (start, len, cap) = (row.start as usize, row.len as usize, row.cap as usize);
        if len < cap {
            self.pool[start + len] = v;
        } else if start + cap == self.pool.len() {
            self.pool.push(v);
            row.cap = offset(cap + 1);
        } else {
            let to = self.pool.len();
            let cap = (2 * len).max(1);
            self.pool.extend_from_within(start..start + len);
            self.pool.push(v);
            self.pool.resize(to + cap, 0);
            row.start = offset(to);
            row.cap = offset(cap);
        }
        row.len += 1;
    }

    fn shrink_to_fit(&mut self) {
        let mut pool = Vec::with_capacity(self.rows.iter().map(|r| r.len as usize).sum());
        for row in &mut self.rows {
            let start = row.start as usize;
            row.start = offset(pool.len());
            row.cap = row.len;
            pool.extend_from_slice(&self.pool[start..][..row.len as usize]);
        }
        self.pool = pool;
    }
}

impl DiGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            succ: Rows::new(n),
            pred: Rows::new(n),
            edge_count: 0,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.succ.rows.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds edge `u -> v` (self-loops allowed); returns `true` if new.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        if self.has_edge(u, v) {
            return false;
        }
        self.succ.push(u, v);
        self.pred.push(v, u);
        self.edge_count += 1;
        true
    }

    /// Edge membership, in O(min(out-degree of `u`, in-degree of `v`)).
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        let (succ, pred) = (self.successors(u), self.predecessors(v));
        if succ.len() <= pred.len() {
            succ.contains(&v)
        } else {
            pred.contains(&u)
        }
    }

    /// Successors of `u`.
    #[inline]
    pub fn successors(&self, u: usize) -> &[usize] {
        self.succ.get(u)
    }

    /// Predecessors of `u`.
    #[inline]
    pub fn predecessors(&self, u: usize) -> &[usize] {
        self.pred.get(u)
    }

    /// Rewrites both directions with no spare room: each pool holds
    /// exactly [`DiGraph::edge_count`] targets, rows side by side in node
    /// order. Lists and their order are unchanged, and edges may still be
    /// added afterwards. For a graph that is built once and then walked.
    pub fn shrink_to_fit(&mut self) {
        self.succ.shrink_to_fit();
        self.pred.shrink_to_fit();
    }

    /// All edges as `(u, v)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.node_count()).flat_map(move |u| self.successors(u).iter().map(move |&v| (u, v)))
    }

    /// Builds a graph from successor lists laid out as compressed rows:
    /// node `u`'s successors are `targets[offsets[u]..offsets[u + 1]]`,
    /// so `offsets` has one entry more than the graph has nodes, starts at
    /// 0 and ends at `targets.len()`. The result is the graph
    /// [`DiGraph::add_edge`] builds when called for every row in node
    /// order and every target in row order — the same successor and
    /// predecessor lists in the same order — but with no membership scan
    /// per edge, and already compact (as after [`DiGraph::shrink_to_fit`]).
    ///
    /// # Panics
    /// Panics if `offsets` is not such a sequence, a target is not a node,
    /// or a row names a target twice.
    pub fn from_successor_rows(offsets: &[usize], targets: Vec<usize>) -> Self {
        let n = offsets
            .len()
            .checked_sub(1)
            .expect("offsets has n + 1 entries");
        assert!(
            offsets[0] == 0 && offsets[n] == targets.len(),
            "offsets run from 0 to the number of targets"
        );
        let mut succ = Rows::new(n);
        let mut in_degree = vec![0usize; n];
        for (u, row) in succ.rows.iter_mut().enumerate() {
            let (start, end) = (offsets[u], offsets[u + 1]);
            assert!(start <= end, "offsets never decrease");
            *row = Row {
                start: offset(start),
                len: offset(end - start),
                cap: offset(end - start),
            };
            for &v in &targets[start..end] {
                in_degree[v] += 1;
            }
        }
        let mut pred = Rows::new(n);
        let mut at = 0;
        for (row, &len) in pred.rows.iter_mut().zip(&in_degree) {
            *row = Row {
                start: offset(at),
                len: 0,
                cap: offset(len),
            };
            at += len;
        }
        pred.pool = vec![0; targets.len()];
        // Rows fill in ascending source order, so a repeated target in row
        // `u` would find `u` already at the end of its predecessor row.
        for u in 0..n {
            for &v in &targets[offsets[u]..offsets[u + 1]] {
                let row = &mut pred.rows[v];
                let end = (row.start + row.len) as usize;
                assert!(
                    row.len == 0 || pred.pool[end - 1] != u,
                    "edge {u} -> {v} given twice"
                );
                pred.pool[end] = u;
                row.len += 1;
            }
        }
        succ.pool = targets;
        DiGraph {
            edge_count: succ.pool.len(),
            succ,
            pred,
        }
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

    /// Each pool holds exactly its edges, in node order.
    fn assert_compact(g: &DiGraph) {
        for rows in [&g.succ, &g.pred] {
            assert_eq!(rows.pool.len(), g.edge_count());
            let mut at = 0;
            for row in &rows.rows {
                assert_eq!((row.start as usize, row.cap), (at, row.len));
                at += row.len as usize;
            }
        }
    }

    #[test]
    fn shrink_to_fit_leaves_each_pool_exactly_its_edges() {
        // Rows 0 and 2 alternate, so each moves past the other and leaves
        // holes; node 1 has no edges and node 3 only incoming ones.
        let mut g = DiGraph::from_edges(4, [(0, 1), (2, 0), (0, 2), (2, 3), (0, 3), (2, 1)]);
        assert!(g.succ.pool.len() > g.edge_count());
        g.shrink_to_fit();
        assert_compact(&g);
        assert_eq!(g.successors(0), &[1, 2, 3]);
        assert_eq!(g.successors(2), &[0, 3, 1]);
        assert_eq!(g.predecessors(3), &[2, 0]);
        assert!(g.successors(1).is_empty() && g.successors(3).is_empty());
        assert_eq!(g.edge_count(), 6);
        g.shrink_to_fit();
        assert_compact(&g);
        let mut empty = DiGraph::new(5);
        empty.shrink_to_fit();
        assert_compact(&empty);
        assert_eq!(empty.node_count(), 5);
    }

    /// Successor rows without repeats, as `(offsets, targets)`: up to 24
    /// nodes, rows empty to full, self-loops included.
    fn random_rows(rng: &mut StdRng) -> (Vec<usize>, Vec<usize>) {
        let n = rng.gen_range(0..=24usize);
        let (mut offsets, mut targets) = (vec![0], Vec::new());
        for u in 0..n {
            let mut row: Vec<usize> = (0..n).filter(|_| rng.gen_range(0..4u32) == 0).collect();
            if rng.gen_bool(0.2) {
                row = (0..n).collect();
            }
            if rng.gen_bool(0.5) && !row.contains(&u) {
                row.push(u);
            }
            for i in (1..row.len()).rev() {
                row.swap(i, rng.gen_range(0..=i));
            }
            targets.extend(row);
            offsets.push(targets.len());
        }
        (offsets, targets)
    }

    #[test]
    #[should_panic(expected = "given twice")]
    fn successor_rows_reject_a_repeated_edge() {
        DiGraph::from_successor_rows(&[0, 2, 2], vec![1, 1]);
    }

    #[test]
    fn successor_rows_of_no_nodes() {
        let g = DiGraph::from_successor_rows(&[0], Vec::new());
        assert_eq!((g.node_count(), g.edge_count()), (0, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `from_successor_rows` against `add_edge` one edge at a time, row
        /// by row: the same lists in the same order, the same edge count
        /// and membership answers, compact pools — and `add_edge` still
        /// works on the result, on the full rows it starts with.
        #[test]
        fn successor_rows_build_what_add_edge_builds(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (offsets, targets) = random_rows(&mut rng);
            let n = offsets.len() - 1;
            let mut want = DiGraph::new(n);
            for u in 0..n {
                for &v in &targets[offsets[u]..offsets[u + 1]] {
                    prop_assert!(want.add_edge(u, v));
                }
            }
            let mut got = DiGraph::from_successor_rows(&offsets, targets);
            assert_compact(&got);
            for round in 0..2 {
                prop_assert_eq!(got.node_count(), n);
                prop_assert_eq!(got.edge_count(), want.edge_count());
                for u in 0..n {
                    prop_assert_eq!(got.successors(u), want.successors(u));
                    prop_assert_eq!(got.predecessors(u), want.predecessors(u));
                    for v in 0..n {
                        prop_assert_eq!(got.has_edge(u, v), want.has_edge(u, v));
                    }
                }
                if round == 0 && n > 0 {
                    for _ in 0..rng.gen_range(0..=2 * n) {
                        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                        prop_assert_eq!(got.add_edge(u, v), want.add_edge(u, v));
                    }
                }
            }
        }

        /// The graph against the obvious model, a set of pairs plus
        /// insertion-ordered lists, on multigraph edge lists with
        /// duplicates, self-loops and one hub on a third of the edges (so
        /// membership scans run from both ends). At random points the
        /// graph is compacted, and sometimes replaced by a clone of the
        /// compacted graph that later edges go to (how
        /// `Transaction::with_precedence` strengthens an order).
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
                match rng.gen_range(0..16u32) {
                    0 => {
                        g.shrink_to_fit();
                        assert_compact(&g);
                    }
                    1 => {
                        g.shrink_to_fit();
                        g = g.clone();
                    }
                    _ => {}
                }
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
            if rng.gen_bool(0.5) {
                g.shrink_to_fit();
                assert_compact(&g);
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
