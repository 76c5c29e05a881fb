//! Cycle detection and (capped) simple-cycle enumeration.
//!
//! One finder answers "is there a cycle, and which one?" across the
//! workspace: [`CycleTest`], buffers over a graph given as `u32` arcs and
//! laid out as compressed rows. [`find_cycle`] and [`has_cycle`] run it
//! over a [`DiGraph`]; the simulator's deadlock scan runs it over the
//! wait-for arcs it gathers from the site tables, its rows in the order a
//! detector names.
//!
//! Proposition 2 requires, for every directed cycle of the transaction
//! conflict graph G, checking that a derived union graph has a cycle;
//! [`simple_cycles`] enumerates simple cycles by a plain depth-first
//! search from each root, capped to keep the (inherently exponential)
//! search bounded.

use crate::digraph::DiGraph;
use std::collections::HashSet;

/// Buffers that answer, for a graph given as arcs between `u32` nodes,
/// whether it has a cycle ([`CycleTest::has_cycle`]), which one a
/// depth-first search meets first ([`CycleTest::find_cycle`]) and whether
/// a node reaches itself ([`CycleTest::reaches_itself`]). Kept across
/// graphs, so that once warm none of these allocates; what the buffers
/// hold between graphs means nothing.
///
/// A graph is [`CycleTest::clear`], then [`CycleTest::arc`] for each arc
/// (repeats and self-loops allowed), then [`CycleTest::has_cycle`], which
/// lays the rows out and must come before either other question.
#[derive(Clone, Debug, Default)]
pub struct CycleTest {
    /// The arcs as (tail, head, row key), in the order given.
    arcs: Vec<(u32, u32, u64)>,
    /// The graph in compressed rows: node `v`'s successors are
    /// `targets[offsets[v]..offsets[v + 1]]`, in no particular order.
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// Per node, its predecessors not yet peeled off; and the nodes with
    /// none left, waiting to be peeled (the reachability stack of
    /// [`CycleTest::reaches_itself`], and the roots of
    /// [`CycleTest::find_cycle`]).
    indegree: Vec<u32>,
    ready: Vec<u32>,
    /// [`CycleTest::find_cycle`]'s rows: the same spans of `offsets`,
    /// each entry a target node with its key, filled in arc order through
    /// `cursor` and then sorted.
    keyed: Vec<(u64, u32)>,
    cursor: Vec<u32>,
    /// The depth-first search: colour and tree parent per node, and the
    /// stack of (node, next entry in its row); the colours are
    /// [`CycleTest::reaches_itself`]'s seen marks too.
    colour: Vec<u8>,
    parent: Vec<u32>,
    frames: Vec<(u32, u32)>,
    /// The cycle [`CycleTest::find_cycle`] named.
    cycle: Vec<u32>,
}

const WHITE: u8 = 0;
const GRAY: u8 = 1;
const BLACK: u8 = 2;

impl CycleTest {
    /// Starts a graph.
    pub fn clear(&mut self) {
        self.arcs.clear();
    }

    /// Adds the arc `u → v`, which [`CycleTest::find_cycle`] takes in
    /// ascending `key` among `u`'s arcs.
    #[inline]
    pub fn arc(&mut self, u: u32, v: u32, key: u64) {
        self.arcs.push((u, v, key));
    }

    /// Whether the graph on nodes `0..nodes` has a cycle, in time linear
    /// in its nodes and arcs and, once warm, with no allocation and no
    /// sort. Lays the arcs out as compressed rows, then peels off every
    /// node no cycle passes through (Kahn's algorithm: a node whose
    /// predecessors are all gone goes next); a cycle exists exactly when a
    /// node is left.
    ///
    /// # Panics
    /// Panics if `nodes` or the number of arcs is 2^32 or more.
    pub fn has_cycle(&mut self, nodes: usize) -> bool {
        let CycleTest {
            arcs,
            offsets,
            targets,
            indegree,
            ready,
            ..
        } = self;
        let fits =
            |n: usize| u32::try_from(n).expect("a CycleTest holds fewer than 2^32 nodes and arcs");
        let n = fits(nodes);
        fits(arcs.len());
        offsets.clear();
        offsets.resize(nodes + 1, 0);
        indegree.clear();
        indegree.resize(nodes, 0);
        for &(u, v, _) in arcs.iter() {
            offsets[u as usize] += 1;
            indegree[v as usize] += 1;
        }
        // Each offset becomes the end of its node's row; placing the row's
        // targets steps it back to the row's start.
        let mut end = 0;
        for offset in offsets.iter_mut() {
            end += *offset;
            *offset = end;
        }
        targets.clear();
        targets.resize(arcs.len(), 0);
        for &(u, v, _) in arcs.iter() {
            let at = &mut offsets[u as usize];
            *at -= 1;
            targets[*at as usize] = v;
        }
        ready.clear();
        ready.extend((0..n).filter(|&v| indegree[v as usize] == 0));
        let mut peeled = 0;
        while let Some(v) = ready.pop() {
            peeled += 1;
            for &w in &targets[span(offsets, v)] {
                let left = &mut indegree[w as usize];
                *left -= 1;
                if *left == 0 {
                    ready.push(w);
                }
            }
        }
        peeled < nodes
    }

    /// The cycle a depth-first search meets first, as nodes `v0, …, vk`
    /// with arcs `v0 → … → vk → v0`, empty when there is none. Each row
    /// goes in ascending arc key, then by target; the roots go in
    /// ascending `root_key`, then by node. So the cycle is
    /// [`find_cycle`]'s on the [`DiGraph`] whose rows list the arcs in
    /// that order, first occurrence kept, with its nodes numbered in root
    /// order. A repeated arc needs no dedup, as the search finds its
    /// target black the second time. After a [`CycleTest::has_cycle`].
    pub fn find_cycle(&mut self, mut root_key: impl FnMut(u32) -> u64) -> &[u32] {
        let CycleTest {
            arcs,
            offsets,
            ready: roots,
            keyed,
            cursor,
            colour,
            parent,
            frames,
            cycle,
            ..
        } = self;
        cycle.clear();
        let n = offsets.len() - 1;
        cursor.clear();
        cursor.extend_from_slice(&offsets[..n]);
        keyed.clear();
        keyed.resize(arcs.len(), (0, 0));
        for &(u, v, key) in arcs.iter() {
            let at = &mut cursor[u as usize];
            keyed[*at as usize] = (key, v);
            *at += 1;
        }
        for v in 0..n as u32 {
            keyed[span(offsets, v)].sort_unstable();
        }
        roots.clear();
        roots.extend(0..n as u32);
        roots.sort_unstable_by_key(|&v| (root_key(v), v));
        colour.clear();
        colour.resize(n, WHITE);
        parent.resize(n, 0);
        for &root in roots.iter() {
            if colour[root as usize] != WHITE {
                continue;
            }
            colour[root as usize] = GRAY;
            frames.push((root, offsets[root as usize]));
            while let Some(&mut (v, ref mut at)) = frames.last_mut() {
                if *at == offsets[v as usize + 1] {
                    colour[v as usize] = BLACK;
                    frames.pop();
                    continue;
                }
                let w = keyed[*at as usize].1;
                *at += 1;
                match colour[w as usize] {
                    WHITE => {
                        colour[w as usize] = GRAY;
                        parent[w as usize] = v;
                        frames.push((w, offsets[w as usize]));
                    }
                    GRAY => {
                        // A back arc v → w: the cycle is w … v.
                        let mut cur = v;
                        cycle.push(cur);
                        while cur != w {
                            cur = parent[cur as usize];
                            cycle.push(cur);
                        }
                        cycle.reverse();
                        frames.clear();
                        return cycle;
                    }
                    _ => {}
                }
            }
        }
        cycle
    }

    /// Whether node `v` is on a cycle: it reaches itself, by a self-loop
    /// or through a strongly connected component with more than one node.
    /// After a [`CycleTest::has_cycle`].
    pub fn reaches_itself(&mut self, v: u32) -> bool {
        let CycleTest {
            offsets,
            targets,
            ready: stack,
            colour: seen,
            ..
        } = self;
        seen.clear();
        seen.resize(offsets.len() - 1, 0);
        stack.clear();
        stack.push(v);
        while let Some(u) = stack.pop() {
            for &w in &targets[span(offsets, u)] {
                if w == v {
                    return true;
                }
                if seen[w as usize] == 0 {
                    seen[w as usize] = 1;
                    stack.push(w);
                }
            }
        }
        false
    }
}

/// Node `v`'s span of the compressed rows `offsets` index.
fn span(offsets: &[u32], v: u32) -> std::ops::Range<usize> {
    offsets[v as usize] as usize..offsets[v as usize + 1] as usize
}

/// A [`CycleTest`] holding `g`'s edges, its rows laid out, and whether
/// `g` has a cycle.
fn laid_out(g: &DiGraph) -> (CycleTest, bool) {
    // `g.edges()` lists each row in order, so arc indices keep it.
    let mut test = CycleTest::default();
    for (i, (u, v)) in g.edges().enumerate() {
        test.arc(u as u32, v as u32, i as u64);
    }
    let cyclic = test.has_cycle(g.node_count());
    (test, cyclic)
}

/// Finds one directed cycle if any exists, as a node sequence
/// `v0, v1, ..., vk` with edges `v0->v1->...->vk->v0`: the first a
/// depth-first search meets with roots in ascending order and each
/// node's successors in the order they were added.
pub fn find_cycle(g: &DiGraph) -> Option<Vec<usize>> {
    let (mut test, cyclic) = laid_out(g);
    if !cyclic {
        return None;
    }
    let cycle = test.find_cycle(u64::from);
    Some(cycle.iter().map(|&v| v as usize).collect())
}

/// True iff `g` contains a directed cycle (self-loops count).
pub fn has_cycle(g: &DiGraph) -> bool {
    laid_out(g).1
}

/// Enumerates simple directed cycles (as node sequences, smallest node
/// first), stopping after `cap` cycles. Returns `(cycles, exhaustive)`.
///
/// Straightforward DFS-based enumeration rooted at each node, visiting only
/// nodes `>= root` so every cycle is reported exactly once from its minimal
/// node. Self-loops are reported as single-node cycles.
pub fn simple_cycles(g: &DiGraph, cap: usize) -> (Vec<Vec<usize>>, bool) {
    let n = g.node_count();
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut exhaustive = true;

    'roots: for root in 0..n {
        // DFS path enumeration from root back to root, over nodes >= root.
        let mut path: Vec<usize> = vec![root];
        let mut on_path: HashSet<usize> = HashSet::from([root]);
        let mut iters: Vec<usize> = vec![0];
        while !path.is_empty() {
            let v = *path.last().unwrap();
            let i = *iters.last().unwrap();
            if i < g.successors(v).len() {
                *iters.last_mut().unwrap() += 1;
                let w = g.successors(v)[i];
                if w == root {
                    out.push(path.clone());
                    if out.len() >= cap {
                        exhaustive = false;
                        break 'roots;
                    }
                } else if w > root && !on_path.contains(&w) {
                    path.push(w);
                    on_path.insert(w);
                    iters.push(0);
                }
            } else {
                on_path.remove(&v);
                path.pop();
                iters.pop();
            }
        }
    }
    (out, exhaustive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scc::tarjan_scc;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The colouring depth-first search `find_cycle` ran before
    /// [`CycleTest`] answered for it, kept as the reference: roots in
    /// ascending order, each row in insertion order.
    fn reference_find_cycle(g: &DiGraph) -> Option<Vec<usize>> {
        let n = g.node_count();
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; n];
        let mut parent = vec![usize::MAX; n];
        let mut frames: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if color[root] != Color::White {
                continue;
            }
            frames.push((root, 0));
            color[root] = Color::Gray;
            while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
                if *pos < g.successors(v).len() {
                    let w = g.successors(v)[*pos];
                    *pos += 1;
                    match color[w] {
                        Color::White => {
                            color[w] = Color::Gray;
                            parent[w] = v;
                            frames.push((w, 0));
                        }
                        Color::Gray => {
                            let mut cycle = vec![v];
                            let mut cur = v;
                            while cur != w {
                                cur = parent[cur];
                                cycle.push(cur);
                            }
                            cycle.reverse();
                            return Some(cycle);
                        }
                        Color::Black => {}
                    }
                } else {
                    color[v] = Color::Black;
                    frames.pop();
                }
            }
        }
        None
    }

    fn check_is_cycle(g: &DiGraph, c: &[usize]) {
        for i in 0..c.len() {
            let u = c[i];
            let v = c[(i + 1) % c.len()];
            assert!(g.has_edge(u, v), "missing edge {u}->{v} in cycle {c:?}");
        }
    }

    #[test]
    fn finds_a_cycle() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 1), (2, 3)]);
        let c = find_cycle(&g).unwrap();
        check_is_cycle(&g, &c);
        assert!(has_cycle(&g));
    }

    #[test]
    fn dag_has_no_cycle() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (0, 3)]);
        assert!(find_cycle(&g).is_none());
        let (cycles, exhaustive) = simple_cycles(&g, 100);
        assert!(cycles.is_empty() && exhaustive);
    }

    #[test]
    fn enumerates_all_cycles_of_k3() {
        // Complete digraph on 3 nodes: 3 two-cycles + 2 three-cycles.
        let mut g = DiGraph::new(3);
        for u in 0..3 {
            for v in 0..3 {
                if u != v {
                    g.add_edge(u, v);
                }
            }
        }
        let (cycles, exhaustive) = simple_cycles(&g, 1000);
        assert!(exhaustive);
        assert_eq!(cycles.len(), 5);
        for c in &cycles {
            check_is_cycle(&g, c);
        }
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 0);
        assert!(has_cycle(&g));
        let (cycles, _) = simple_cycles(&g, 10);
        assert_eq!(cycles, vec![vec![0]]);
    }

    #[test]
    fn find_cycle_lists_the_nodes_in_edge_order() {
        assert_eq!(find_cycle(&DiGraph::from_edges(1, [(0, 0)])), Some(vec![0]));
        let ring = DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        assert_eq!(find_cycle(&ring), Some(vec![0, 1, 2]));
        assert_eq!(find_cycle(&DiGraph::new(0)), None);
    }

    #[test]
    fn cap_is_respected() {
        let mut g = DiGraph::new(4);
        for u in 0..4 {
            for v in 0..4 {
                if u != v {
                    g.add_edge(u, v);
                }
            }
        }
        let (cycles, exhaustive) = simple_cycles(&g, 3);
        assert_eq!(cycles.len(), 3);
        assert!(!exhaustive);
    }

    /// Random arc lists over 1–24 nodes with repeats and self-loops.
    fn random_arcs(rng: &mut StdRng) -> (usize, Vec<(usize, usize)>) {
        let n = rng.gen_range(1..=24usize);
        let mut arcs = Vec::new();
        for _ in 0..rng.gen_range(0..=2 * n) {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            arcs.push((u, if rng.gen_range(0..12u32) == 0 { u } else { v }));
            if rng.gen_range(0..5u32) == 0 {
                arcs.push(arcs[rng.gen_range(0..arcs.len())]);
            }
        }
        (n, arcs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Against the reference search and Tarjan's components, on random
        /// graphs with repeated arcs and self-loops: `has_cycle` says yes
        /// exactly when a component has two or more nodes or a node has a
        /// self-loop, `find_cycle` names the reference's cycle along arcs
        /// that exist, and a node reaches itself exactly when it sits in
        /// such a component or on a self-loop. One `CycleTest` fed the raw
        /// arcs, with random row and root keys, names the reference's
        /// cycle on the graph whose rows and numbering follow those keys.
        #[test]
        fn the_cycle_test_answers_as_the_reference_and_tarjan(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, arcs) = random_arcs(&mut rng);
            let g = DiGraph::from_edges(n, arcs.iter().copied());
            let sccs = tarjan_scc(&g);
            let on_cycle = |v: usize| sccs.members[sccs.comp[v]].len() > 1 || g.has_edge(v, v);
            let cyclic = (0..n).any(on_cycle);
            prop_assert_eq!(has_cycle(&g), cyclic);
            let found = find_cycle(&g);
            prop_assert_eq!(&found, &reference_find_cycle(&g));
            prop_assert_eq!(found.is_some(), cyclic);
            if let Some(c) = &found {
                check_is_cycle(&g, c);
            }

            let row_keys: Vec<u64> = arcs.iter().map(|_| rng.gen_range(0..4)).collect();
            let mut test = CycleTest::default();
            test.arc(0, 0, 0); // a previous graph's arc, cleared
            test.clear();
            for (&(u, v), &key) in arcs.iter().zip(&row_keys) {
                test.arc(u as u32, v as u32, key);
            }
            prop_assert_eq!(test.has_cycle(n), cyclic);
            for v in 0..n {
                prop_assert_eq!(test.reaches_itself(v as u32), on_cycle(v));
            }
            let root_keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4)).collect();
            let mut roots: Vec<usize> = (0..n).collect();
            roots.sort_by_key(|&v| (root_keys[v], v));
            let mut rank = vec![0; n];
            for (r, &v) in roots.iter().enumerate() {
                rank[v] = r;
            }
            let mut by_key: Vec<usize> = (0..arcs.len()).collect();
            by_key.sort_by_key(|&i| (row_keys[i], arcs[i].1));
            let relabelled = DiGraph::from_edges(
                n,
                by_key.iter().map(|&i| (rank[arcs[i].0], rank[arcs[i].1])),
            );
            let want = reference_find_cycle(&relabelled)
                .map(|c| c.into_iter().map(|r| roots[r]).collect::<Vec<_>>());
            let got = test.find_cycle(|v| root_keys[v as usize]);
            let got: Vec<usize> = got.iter().map(|&v| v as usize).collect();
            prop_assert_eq!((!got.is_empty()).then_some(got), want);
        }
    }
}
