//! Workloads: random distributed transaction systems, the paper's figure
//! instances, and named Theorem-3 reduction inputs.
//!
//! # Example
//!
//! ```
//! use kplock_core::policy::LockStrategy;
//! use kplock_model::{Level, LockMode};
//! use kplock_workload::{random_system, WorkloadParams};
//!
//! // A seeded mixed read/write workload: 3 sites, 4 transactions, 60%
//! // reads, locked with synchronized 2PL. Same seed, same system.
//! let sys = random_system(&WorkloadParams {
//!     seed: 42,
//!     sites: 3,
//!     transactions: 4,
//!     read_percent: 60,
//!     strategy: LockStrategy::TwoPhaseSync,
//!     ..Default::default()
//! });
//! sys.validate(Level::Strict).unwrap();
//! // Read-only entities got shared locks from the lock inserter.
//! let shared_locks = sys
//!     .txns()
//!     .iter()
//!     .flat_map(|t| t.steps())
//!     .filter(|s| s.kind == kplock_model::ActionKind::Lock && s.mode == LockMode::Shared)
//!     .count();
//! assert!(shared_locks > 0);
//! ```

pub mod avoidance;
pub mod fault;
pub mod figures;
pub mod hierarchy;
pub mod reduction_instances;
pub mod ring;
pub mod scenarios;
pub mod suite;
pub mod txn_gen;
pub mod zipf;

pub use avoidance::{avoid_mix_sweep, certified_mix, opposed_mix, AvoidScenario};
pub use fault::{fault_plan_ladder, fault_sweep, FaultScenario, FAULT_ARMS, FAULT_ARMS_WITH_AVOID};
pub use figures::{fig1, fig2, fig3, fig5};
pub use hierarchy::{
    hierarchy_sweep, hierarchy_system, two_level_catalog, AccessProfile, HierarchyParams,
    HierarchyScenario,
};
pub use reduction_instances::{fig8_formula, fig8_reduction, random_instance, unsat_restricted};
pub use ring::ring_system;
pub use scenarios::{hot_site_sweep, resolution_sweep, site_count_sweep, zipf_sweep, Scenario};
pub use suite::{figure_corpus, regression_corpus, NamedSystem};
pub use txn_gen::{make_database, random_pair, random_system, random_unlocked_txn, WorkloadParams};
pub use zipf::Zipf;
