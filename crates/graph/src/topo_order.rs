//! A topological order kept under edge insertion.
//!
//! [`TopoOrder`] is the workspace's one dynamic topological order (Pearce
//! & Kelly, "A dynamic topological sort algorithm for directed acyclic
//! graphs", JEA 2006): the simulator's online audit keeps the committed
//! transactions in one as serialization edges arrive, and avoid-plan
//! synthesis keeps the certified union of hold-while-request edges in one,
//! trying each candidate's edges in a batch it can roll back.

/// The end of an edge list.
const NONE: u32 = u32::MAX;

/// A topological order of a graph on `0..n`, kept as edges are added: an
/// edge `x → y` with `x` already ahead of `y` costs nothing; otherwise the
/// nodes `y` reaches ahead of `x`, and those reaching `x` behind `y`, trade
/// places — or `y` reaches `x`, and the edge would close a cycle, so it is
/// refused ([`TopoOrder::add_edge`] returns `false`) and the graph stays
/// acyclic.
///
/// Edges added after [`TopoOrder::begin`] form a batch that
/// [`TopoOrder::rollback`] takes out again. The positions stay as the
/// batch left them: an order valid for a graph is valid for each of its
/// subgraphs. A repeated edge is kept as a parallel edge; callers that
/// repeat edges drop the repeats themselves.
#[derive(Clone, Debug)]
pub struct TopoOrder {
    /// Per node, its position and its edge lists.
    nodes: Vec<Node>,
    /// The position [`TopoOrder::place_last`] gives next.
    next: u32,
    /// Every edge, threaded onto both its ends' lists, newest first.
    edges: Vec<Edge>,
    /// The number of edges at the latest [`TopoOrder::begin`].
    batch: usize,
    /// The stamp of the latest search, and the search buffers.
    search: u32,
    stack: Vec<u32>,
    ahead: Vec<u32>,
    behind: Vec<u32>,
    pool: Vec<u32>,
}

/// One node of [`TopoOrder`].
#[derive(Clone, Copy, Debug)]
struct Node {
    /// Its position: distinct across nodes, ascending along every edge.
    ord: u32,
    /// The first of its out- and of its in-edges.
    out: u32,
    into: u32,
    /// `seen == search`: the latest search visited it.
    seen: u32,
}

/// One edge `from → to` of [`TopoOrder`], with the next edge out of `from`
/// and the next into `to`.
#[derive(Clone, Copy, Debug)]
struct Edge {
    from: u32,
    to: u32,
    next_out: u32,
    next_into: u32,
}

impl TopoOrder {
    /// The order of `n` nodes and no edges, in index order.
    pub fn new(n: usize) -> Self {
        let next = u32::try_from(n).expect("a TopoOrder holds fewer than 2^32 nodes");
        TopoOrder {
            nodes: (0..next)
                .map(|ord| Node {
                    ord,
                    out: NONE,
                    into: NONE,
                    seen: 0,
                })
                .collect(),
            next,
            edges: Vec::new(),
            batch: 0,
            search: 0,
            stack: Vec::new(),
            ahead: Vec::new(),
            behind: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Moves `v`, which has no edge yet, behind every other node.
    #[inline]
    pub fn place_last(&mut self, v: usize) {
        let node = &mut self.nodes[v];
        debug_assert!(
            node.out == NONE && node.into == NONE,
            "node {v} is placed last after its edges"
        );
        node.ord = self.next;
        self.next += 1;
    }

    /// Starts a batch: [`TopoOrder::rollback`] takes out the edges added
    /// from here on.
    #[inline]
    pub fn begin(&mut self) {
        self.batch = self.edges.len();
    }

    /// Takes out every edge added since the latest [`TopoOrder::begin`]
    /// (since [`TopoOrder::new`] if none). The positions stay, valid for
    /// the edges that remain.
    pub fn rollback(&mut self) {
        while self.edges.len() > self.batch {
            let e = self.edges.pop().expect("the batch has an edge");
            self.nodes[e.from as usize].out = e.next_out;
            self.nodes[e.to as usize].into = e.next_into;
        }
    }

    /// Adds the edge `x → y` and returns `true`, reordering what lies
    /// between its ends if `y` stands ahead of `x`; returns `false`, adding
    /// nothing, if `y` reaches `x` (or `x == y`) and the edge would close
    /// a cycle.
    #[inline]
    pub fn add_edge(&mut self, x: usize, y: usize) -> bool {
        if self.nodes[x].ord < self.nodes[y].ord {
            self.thread(x, y);
            return true;
        }
        x != y && self.reorder(x, y)
    }

    /// Threads the edge `x → y` onto both its ends' lists.
    #[inline]
    fn thread(&mut self, x: usize, y: usize) {
        let edge = u32::try_from(self.edges.len())
            .ok()
            .filter(|&e| e != NONE)
            .expect("a TopoOrder holds fewer than 2^32 - 1 edges");
        self.edges.push(Edge {
            from: x as u32,
            to: y as u32,
            next_out: self.nodes[x].out,
            next_into: self.nodes[y].into,
        });
        self.nodes[x].out = edge;
        self.nodes[y].into = edge;
    }

    /// [`TopoOrder::add_edge`] for an edge against the order.
    fn reorder(&mut self, x: usize, y: usize) -> bool {
        let (lo, hi) = (self.nodes[y].ord, self.nodes[x].ord);
        // Forward from `y` through what lies ahead of `x`: meeting `x`
        // closes a cycle.
        self.search += 1;
        let mark = self.search;
        self.ahead.clear();
        self.stack.push(y as u32);
        self.nodes[y].seen = mark;
        while let Some(v) = self.stack.pop() {
            self.ahead.push(v);
            let mut e = self.nodes[v as usize].out;
            while e != NONE {
                let Edge {
                    to: w, next_out, ..
                } = self.edges[e as usize];
                if w as usize == x {
                    self.stack.clear();
                    return false;
                }
                let n = &mut self.nodes[w as usize];
                if n.seen != mark && n.ord < hi {
                    n.seen = mark;
                    self.stack.push(w);
                }
                e = next_out;
            }
        }
        // Backward from `x` through what lies behind `y`.
        self.behind.clear();
        self.stack.push(x as u32);
        self.nodes[x].seen = mark;
        while let Some(v) = self.stack.pop() {
            self.behind.push(v);
            let mut e = self.nodes[v as usize].into;
            while e != NONE {
                let Edge {
                    from: w, next_into, ..
                } = self.edges[e as usize];
                let n = &mut self.nodes[w as usize];
                if n.seen != mark && n.ord > lo {
                    n.seen = mark;
                    self.stack.push(w);
                }
                e = next_into;
            }
        }
        // The two sets share out their positions: `behind` first.
        let nodes = &mut self.nodes;
        self.behind.sort_unstable_by_key(|&v| nodes[v as usize].ord);
        self.ahead.sort_unstable_by_key(|&v| nodes[v as usize].ord);
        self.pool.clear();
        self.pool.extend(
            self.behind
                .iter()
                .chain(&self.ahead)
                .map(|&v| nodes[v as usize].ord),
        );
        self.pool.sort_unstable();
        for (&v, &at) in self.behind.iter().chain(&self.ahead).zip(&self.pool) {
            nodes[v as usize].ord = at;
        }
        self.thread(x, y);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DiGraph;
    use crate::topo::{is_acyclic, is_topological_order};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The edges `o` holds, as a graph, each list in insertion order.
    fn graph_of(o: &TopoOrder) -> DiGraph {
        DiGraph::from_edges(
            o.nodes.len(),
            o.edges.iter().map(|e| (e.from as usize, e.to as usize)),
        )
    }

    /// The nodes, first to last.
    fn order(o: &TopoOrder) -> Vec<usize> {
        let mut order: Vec<usize> = (0..o.nodes.len()).collect();
        order.sort_unstable_by_key(|&v| o.nodes[v].ord);
        order
    }

    /// Every edge, by walking the lists: the edges out of each node and
    /// into each node, sorted, which must agree.
    fn threaded(o: &TopoOrder) -> Vec<(usize, usize)> {
        let walk = |first: fn(&Node) -> u32, next: fn(&Edge) -> u32| {
            let mut all = Vec::new();
            for node in &o.nodes {
                let mut e = first(node);
                while e != NONE {
                    let edge = &o.edges[e as usize];
                    all.push((edge.from as usize, edge.to as usize));
                    e = next(edge);
                }
            }
            all.sort_unstable();
            all
        };
        let out = walk(|n| n.out, |e| e.next_out);
        assert_eq!(out, walk(|n| n.into, |e| e.next_into));
        out
    }

    /// An edge against the order reorders just the region between its
    /// ends; the one closing a cycle is refused.
    #[test]
    fn the_order_absorbs_backward_edges_until_one_closes_a_cycle() {
        let mut o = TopoOrder::new(4);
        for t in 0..4 {
            o.place_last(t);
        }
        assert!(o.add_edge(3, 1)); // 3 must now precede 1
        assert!(o.add_edge(1, 2));
        assert_eq!(order(&o), [0, 3, 1, 2]);
        assert!(!o.add_edge(2, 3));
        assert!(!o.add_edge(0, 0), "a self-loop is a cycle");
        assert_eq!(threaded(&o), [(1, 2), (3, 1)]);
    }

    #[test]
    fn rollback_takes_out_the_batch_and_keeps_a_valid_order() {
        let mut o = TopoOrder::new(3);
        assert!(o.add_edge(0, 1));
        o.begin();
        assert!(o.add_edge(2, 0));
        assert_eq!(order(&o), [2, 0, 1]);
        assert!(!o.add_edge(1, 2));
        o.rollback();
        assert_eq!(threaded(&o), [(0, 1)]);
        assert_eq!(
            order(&o),
            [2, 0, 1],
            "positions stay as the batch left them"
        );
        assert!(o.add_edge(1, 2), "the rolled-back edge no longer blocks");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random batches of random edges, each batch kept or rolled back
        /// at random: a batch is accepted edge by edge exactly when the
        /// edges held plus the batch so far stay acyclic, the order is a
        /// topological order of the held edges after every batch, and a
        /// rollback restores the held edges exactly.
        #[test]
        fn the_order_accepts_exactly_the_acyclic_batches(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..16usize);
            let mut o = TopoOrder::new(n);
            let mut held: Vec<(usize, usize)> = Vec::new();
            for _ in 0..rng.gen_range(1..12usize) {
                o.begin();
                let before = held.clone();
                let mut accepted = true;
                for _ in 0..rng.gen_range(1..6usize) {
                    let (x, y) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    held.push((x, y));
                    let acyclic = is_acyclic(&DiGraph::from_edges(n, held.iter().copied()));
                    prop_assert_eq!(o.add_edge(x, y), acyclic, "edge {} -> {}", x, y);
                    if !acyclic {
                        held.pop();
                        accepted = false;
                        break;
                    }
                }
                if !accepted || rng.gen_range(0..4u32) == 0 {
                    o.rollback();
                    held = before;
                }
                let mut want = held.clone();
                want.sort_unstable();
                prop_assert_eq!(threaded(&o), want);
                prop_assert!(is_topological_order(&graph_of(&o), &order(&o)));
            }
        }
    }
}
