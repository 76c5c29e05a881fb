//! The paper's contribution: safety decision procedures for distributed
//! locked transaction systems.
//!
//! *Is Distributed Locking Harder?* (Kanellakis & Papadimitriou) asks
//! whether deciding safety of locked transactions survives the move from
//! centralized to distributed databases. This crate implements every
//! result:
//!
//! | Paper | Here |
//! |---|---|
//! | Definition 1 — conflict digraph `D(T1,T2)` | [`conflict_graph`] |
//! | Theorem 1 — strong connectivity ⇒ safe | [`conflict_graph::ConflictDigraph::is_strongly_connected`], used by all deciders |
//! | Lemmas 2–3, Definition 3 — dominator closure | [`closure`] (the construction; no decision runs it) |
//! | Theorem 2, Corollary 1 — two sites: safe ⟺ strongly connected, O(n²) | [`two_site`]: a dominator orients the section graph, and the merge is the witness |
//! | Corollary 2 — closed w.r.t. dominator ⇒ unsafe | [`closure::try_unsafety_via_dominator`] |
//! | Theorem 3 — many sites: coNP-complete (SAT reduction) | [`reduction`] |
//! | Theorem 3, converse direction — system → CNF, exact decision | [`sat_check`] |
//! | Proposition 2 — k transactions | [`multi_txn`] |
//! | Locking policies (2PL, tree) | [`policy`] |
//!
//! Ground truth for all of it: the exact oracles in [`oracle`], and
//! machine-checkable certificates in [`certificate`].
//!
//! # Example
//!
//! The classic centralized anomaly (non-two-phase, opposite entity
//! orders) is decided unsafe with a counterexample schedule attached:
//!
//! ```
//! use kplock_core::{analyze_pair, SafetyVerdict};
//! use kplock_model::{Database, TxnBuilder, TxnSystem};
//!
//! let db = Database::from_spec(&[("x", 0), ("y", 0)]);
//! let mut b1 = TxnBuilder::new(&db, "T1");
//! b1.script("Lx x Ux Ly y Uy").unwrap();
//! let t1 = b1.build().unwrap();
//! let mut b2 = TxnBuilder::new(&db, "T2");
//! b2.script("Ly y Uy Lx x Ux").unwrap();
//! let t2 = b2.build().unwrap();
//! let sys = TxnSystem::new(db, vec![t1, t2]);
//!
//! let analysis = analyze_pair(&sys);
//! assert!(!analysis.strongly_connected); // Theorem 1's condition fails...
//! match analysis.verdict {
//!     SafetyVerdict::Unsafe(cert) => cert.verify(&sys).unwrap(), // ...provably
//!     _ => unreachable!(),
//! }
//! ```

pub mod analysis;
pub mod avoid;
pub mod certificate;
pub mod closure;
pub mod conflict_graph;
pub mod counting;
pub mod multi_txn;
pub mod multisite;
pub mod oracle;
pub mod policy;
pub mod reduction;
#[cfg(test)]
mod reference;
pub mod sat_check;
pub mod total_pair;
pub mod two_site;

pub use analysis::{analyze_pair, PairAnalysis};
pub use avoid::{hold_request_edges, AvoidPlan, AvoidPlanError, SiteController};
pub use certificate::{CertificateError, SafeProof, SafetyVerdict, UnsafetyCertificate};
pub use closure::{close_wrt_dominator, try_unsafety_via_dominator, Closure, ClosureError};
pub use conflict_graph::ConflictDigraph;
pub use counting::{count_schedules, ScheduleCounts};
pub use multi_txn::{proposition2, Prop2Verdict};
pub use multisite::{decide_multisite, MultisiteOptions};
pub use oracle::{
    decide_by_extensions, decide_exhaustive, OracleOptions, OracleOutcome, OracleReport,
};
pub use reduction::{reduce, NodeKind, Reduction, ReductionError};
pub use sat_check::{
    check_deadlock, check_safety, synthesize_optimal, DeadlockCheck, EncodingStats,
    OptimalCertificate, SafetyCheck, SatCheckError, SatSafety,
};
pub use total_pair::decide_total_pair;
pub use two_site::{decide_two_site, TwoSiteError};
