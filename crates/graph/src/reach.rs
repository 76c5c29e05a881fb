//! Transitive closure of an acyclic graph.

use crate::digraph::DiGraph;

/// The reflexive-transitive closure of an acyclic graph as one row-major
/// bit matrix: `n` rows of `⌈n/64⌉` words in a single allocation, row `a`
/// holding the nodes reachable from `a` (`a` itself included).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Closure {
    words: Vec<u64>,
    n: usize,
}

impl Closure {
    /// True iff there is a path `a -> ... -> b`, the empty path at `a == b`
    /// included. False for a `b` that is not a node; panics for an `a`
    /// that is not one.
    #[inline]
    pub fn reaches(&self, a: usize, b: usize) -> bool {
        b < self.n && self.words[a * self.n.div_ceil(64) + b / 64] & (1 << (b % 64)) != 0
    }

    /// Row `a` as `⌈n/64⌉` words: bit `b % 64` of word `b / 64` is set iff
    /// [`Closure::reaches`]`(a, b)`, and no bit past the last node is.
    /// Panics for an `a` that is not a node.
    #[inline]
    pub fn row(&self, a: usize) -> &[u64] {
        assert!(a < self.n, "row {a} of a closure over {} nodes", self.n);
        let stride = self.n.div_ceil(64);
        &self.words[a * stride..][..stride]
    }
}

/// Row `dst` |= row `src` of a matrix of `stride`-word rows; `dst != src`.
fn or_row(words: &mut [u64], stride: usize, dst: usize, src: usize) {
    let (row_dst, row_src) = if dst < src {
        let (lo, hi) = words.split_at_mut(src * stride);
        (&mut lo[dst * stride..][..stride], &hi[..stride])
    } else {
        let (lo, hi) = words.split_at_mut(dst * stride);
        (&mut hi[..stride], &lo[src * stride..][..stride])
    };
    for (d, s) in row_dst.iter_mut().zip(row_src) {
        *d |= *s;
    }
}

/// The closure of `g`, or `None` if `g` has a cycle.
///
/// O(V·E/64): rows are filled in reverse topological order, each the union
/// of its successors' finished rows.
pub fn transitive_closure(g: &DiGraph) -> Option<Closure> {
    let order = crate::topo::topo_sort(g)?;
    let n = g.node_count();
    let stride = n.div_ceil(64);
    let mut words = vec![0u64; n * stride];
    for &v in order.iter().rev() {
        words[v * stride + v / 64] |= 1 << (v % 64);
        for &w in g.successors(v) {
            // Acyclic, so `w != v`.
            or_row(&mut words, stride, v, w);
        }
    }
    Some(Closure { words, n })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Nodes reachable from `start` (itself included) by depth-first
    /// search: the reference the closure's rows are compared against.
    fn reachable_from(g: &DiGraph, start: usize) -> Vec<bool> {
        let mut seen = vec![false; g.node_count()];
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(v) = stack.pop() {
            for &w in g.successors(v) {
                if !std::mem::replace(&mut seen[w], true) {
                    stack.push(w);
                }
            }
        }
        seen
    }

    fn assert_matches_dfs(g: &DiGraph) {
        let tc = transitive_closure(g).expect("acyclic");
        for v in 0..g.node_count() {
            let row: Vec<bool> = (0..g.node_count()).map(|w| tc.reaches(v, w)).collect();
            assert_eq!(row, reachable_from(g, v), "row {v}");
        }
    }

    #[test]
    fn reachability_on_chain() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let tc = transitive_closure(&g).unwrap();
        let from_1: Vec<usize> = (0..4).filter(|&w| tc.reaches(1, w)).collect();
        assert_eq!(from_1, vec![1, 2, 3]);
        assert!(tc.reaches(0, 3));
        assert!(!tc.reaches(3, 0));
        assert!(!tc.reaches(0, 4), "not a node");
    }

    #[test]
    fn closure_matches_per_node_dfs() {
        assert_matches_dfs(&DiGraph::from_edges(
            5,
            [(0, 1), (1, 2), (0, 3), (3, 2), (2, 4)],
        ));
        assert_matches_dfs(&DiGraph::new(0));
    }

    #[test]
    fn closure_on_cyclic_graph() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 0), (1, 2)]);
        assert!(transitive_closure(&g).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random dags whose rows span up to four words, under a random
        /// relabelling so that rows are finished in no index order.
        #[test]
        fn closure_matches_dfs_on_random_dags(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..=200usize);
            let mut label: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                label.swap(i, rng.gen_range(0..=i));
            }
            let mut g = DiGraph::new(n);
            for _ in 0..rng.gen_range(0..=3 * n) {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b {
                    g.add_edge(label[a.min(b)], label[a.max(b)]);
                }
            }
            assert_matches_dfs(&g);
        }

        /// Each row holds exactly the nodes `reaches` answers for, one bit
        /// per node and nothing past the last, on random dags whose rows
        /// span up to four words.
        #[test]
        fn a_row_holds_what_reaches_answers(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..=200usize);
            let mut g = DiGraph::new(n);
            for _ in 0..rng.gen_range(0..=3 * n) {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b {
                    g.add_edge(a.min(b), a.max(b));
                }
            }
            let tc = transitive_closure(&g).expect("arcs ascend");
            for a in 0..n {
                let row = tc.row(a);
                prop_assert_eq!(row.len(), n.div_ceil(64));
                for b in 0..64 * row.len() {
                    let bit = row[b / 64] >> (b % 64) & 1 == 1;
                    prop_assert_eq!(bit, tc.reaches(a, b), "row {}, node {}", a, b);
                }
            }
        }
    }
}
