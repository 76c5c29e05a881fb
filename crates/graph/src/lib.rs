//! Graph algorithms for the `kplock` workspace.
//!
//! This crate provides the graph-theoretic substrate used by the
//! reproduction of Kanellakis & Papadimitriou, *Is Distributed Locking
//! Harder?*: strongly connected components and condensations (Theorems 1
//! and 2 reduce safety to strong connectivity of the conflict digraph
//! `D(T1,T2)`), dominators in the paper's Definition-2 sense, priority
//! topological sorts (the certificate construction of Theorem 2), cycle
//! enumeration (Proposition 2), dense bitsets (dominator membership) and
//! the transitive closure of a transaction's partial order as one flat bit
//! matrix, which takes arcs one at a time as the dominator closure adds
//! precedences. A graph costs what its nodes and edges cost; only the
//! closure is quadratic, and only for whoever asks for it.
//!
//! The workspace has one cycle finder, [`CycleTest`]: reusable buffers
//! over `u32` arcs that lay them out as compressed rows, peel them
//! (Kahn's algorithm) to say whether a cycle exists, and on a yes name the
//! first cycle a depth-first search meets, its rows and roots in an order
//! the caller keys. [`find_cycle`] and [`has_cycle`] run it over a
//! [`DiGraph`]; the simulator's deadlock scan runs it over the wait-for
//! arcs of its site tables, warm, so a scan allocates nothing.
//!
//! It has one dynamic topological order, [`TopoOrder`]: an order of a
//! graph kept as edges arrive (Pearce & Kelly), which refuses an edge
//! that would close a cycle and takes a batch of edges back out on
//! request. The simulator's online audit keeps its serialization graph
//! in one; avoid-plan synthesis tries each candidate's edges in one.
//!
//! # Example
//!
//! ```
//! use kplock_graph::{find_cycle, is_strongly_connected, tarjan_scc, DiGraph};
//!
//! // Two 2-cycles bridged one way: strongly connected components {0,1}
//! // and {2,3}, reachable 0→2 but not back.
//! let g = DiGraph::from_edges(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]);
//! assert!(!is_strongly_connected(&g));
//! assert_eq!(tarjan_scc(&g).count(), 2);
//! let cycle = find_cycle(&g).unwrap();
//! assert!(g.has_edge(cycle[cycle.len() - 1], cycle[0])); // closes up
//! ```

pub mod bitset;
pub mod condensation;
pub mod cycle;
pub mod digraph;
pub mod dominator;
pub mod reach;
pub mod scc;
pub mod topo;
pub mod topo_order;

pub use bitset::BitSet;
pub use condensation::{condensation, Condensation};
pub use cycle::{find_cycle, has_cycle, simple_cycles, CycleTest};
pub use digraph::DiGraph;
pub use dominator::{dominators, enumerate_dominators, find_dominator, is_dominator, Dominators};
pub use reach::{transitive_closure, Closure};
pub use scc::{is_strongly_connected, tarjan_scc, Sccs};
pub use topo::{is_acyclic, is_topological_order, topo_sort, topo_sort_by_key};
pub use topo_order::TopoOrder;
