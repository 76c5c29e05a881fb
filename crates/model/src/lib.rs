//! Data model for the `kplock` workspace: the paper's Section 2.
//!
//! A *distributed database* partitions entities into sites; a *transaction*
//! is a partially ordered set of lock/update/unlock steps that is totally
//! ordered at each site; a *schedule* is a legal interleaving; a system is
//! *safe* when all its schedules are serializable. This crate defines those
//! objects, their well-formedness rules, and conflict-serializability of
//! schedules; the safety algorithms themselves live in `kplock-core`.
//!
//! # Example
//!
//! Build the paper's classic non-two-phase pair from scripts and check the
//! model-level facts directly:
//!
//! ```
//! use kplock_model::{ActionKind, Database, Level, LockMode, TxnBuilder};
//!
//! let db = Database::from_spec(&[("x", 0), ("y", 1)]); // x at site 0, y at site 1
//! let mut b = TxnBuilder::new(&db, "T1");
//! let ids = b.script("Lx x Ux SLy ry Uy").unwrap(); // exclusive x, shared (read) y
//! let t = b.build().unwrap();
//!
//! assert_eq!(t.step(ids[0]).kind, ActionKind::Lock);
//! assert_eq!(t.step(ids[3]).mode, LockMode::Shared);
//! assert!(t.precedes(ids[0], ids[2])); // Lx before Ux: scripts are chains
//! kplock_model::validate(&db, &t, Level::Strict).unwrap(); // well-locked
//! ```

pub mod action;
pub mod builder;
pub mod display;
pub mod entity;
pub mod error;
pub mod extensions;
pub mod hierarchy;
pub mod ids;
pub mod projection;
#[cfg(test)]
mod reference;
pub mod schedule;
pub mod serializability;
pub mod system;
pub mod txn;
pub mod validate;

pub use action::{ActionKind, LockMode, Step};
pub use builder::TxnBuilder;
pub use entity::Database;
pub use error::ModelError;
pub use extensions::{count_linear_extensions, linear_extensions, LinearExtensions};
pub use hierarchy::{child_mode_under, plan_parent, ChildLocks, Granularity, ParentPlan};
pub use ids::{EntityId, IdHasher, IdMap, IdSet, SiteId, StepId, TxnId};
pub use projection::{projection_respects_site_orders, schedule_at_site, txn_site_order};
pub use schedule::{Schedule, ScheduledStep};
pub use serializability::{
    equivalent_serial_order, is_serializable, serialization_graph, step_accesses, AccessKind,
};
pub use system::TxnSystem;
pub use txn::Transaction;
pub use validate::{validate, Level};
