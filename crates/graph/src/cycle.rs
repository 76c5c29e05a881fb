//! Cycle detection and (capped) simple-cycle enumeration.
//!
//! Proposition 2 requires, for every directed cycle of the transaction
//! conflict graph G, checking that a derived union graph has a cycle; we
//! enumerate simple cycles with Johnson's algorithm, capped to keep the
//! (inherently exponential) search bounded.

use crate::digraph::DiGraph;
use std::collections::HashSet;

/// Finds one directed cycle if any exists, as a node sequence
/// `v0, v1, ..., vk` with edges `v0->v1->...->vk->v0`.
pub fn find_cycle(g: &DiGraph) -> Option<Vec<usize>> {
    let n = g.node_count();
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; n];
    let mut parent = vec![usize::MAX; n];
    // Iterative DFS with explicit frames; one stack serves every root, as
    // each root's search leaves it empty.
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
                        // Found a back edge v -> w: reconstruct w ... v.
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

/// True iff `g` contains a directed cycle (self-loops count).
pub fn has_cycle(g: &DiGraph) -> bool {
    find_cycle(g).is_some()
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
}
