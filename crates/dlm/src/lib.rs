//! A sharded reader–writer distributed lock-manager service layer.
//!
//! The paper's model — and the simulator's original table — is one
//! exclusive lock table per site with FIFO queues. This crate keeps that
//! one table ([`QueueTable`], its protocol specified in [`table`]) and
//! generalizes it along the two axes that dominate real lock-manager
//! throughput:
//!
//! * **Modes** ([`kplock_model::LockMode`]): the `IS`/`IX`/`S`/`SIX`/`X`
//!   lattice with FIFO fairness and in-place upgrade;
//! * **Sharding** ([`ShardedTable`]): hash-partitioned tables, one mutex
//!   per shard, so independent entities never contend, plus batched
//!   acquire/release that locks each shard once per batch;
//!
//! and offers **incremental wait-for-graph detection** ([`WaitForGraph`],
//! [`LockManager`]) built on `kplock-graph`'s cycle/SCC machinery: the
//! graph is updated per entity as requests block and checked exactly when
//! a block occurs, so a deadlock is reported the moment it forms. (The
//! simulator does not use it: its detectors scan the site tables' own
//! wait-for edges, [`QueueTable::waits_for_into`].)
//!
//! Detection's counterpart is timestamp-ordering **prevention**
//! ([`prevent`], [`QueueTable::request_with_priority`]): wound-wait,
//! wait-die and no-wait decide at request time — from birth-stamp
//! priorities, with no graph at all — whether a wait may exist, so no
//! cycle can ever form and there is nothing left to detect.
//!
//! A service that can *crash* also needs a recovery contract: [`lease`]
//! stamps every grant with a [`Lease`] and mirrors the holder set in a
//! [`LeaseTable`], so a recovering shard can rebuild exactly the grants
//! whose leases survived the outage — and the caller knows which holders
//! to fence or abort. The same module's [`DelegationLedger`] records
//! which grants have been handed to a remote cache as *delegated
//! ownership* (the DLM-side half of client-side lock caching: the hold
//! stays in the table, release authority moves to the delegate until a
//! conflicting request revokes it). The table's
//! [`LockError::AlreadyQueued`] refusal and
//! [`QueueTable::release_idempotent`] make duplicated or retransmitted
//! request/release messages safe, the table-side half of running over an
//! unreliable network.
//!
//! Exclusive-only, single-shard use reproduces the simulator's original
//! semantics bit-for-bit — `kplock-sim`'s table is a thin wrapper over
//! [`QueueTable`] — while protocol violations surface as typed
//! [`LockError`]s at this API boundary instead of panics.
//!
//! # Example
//!
//! Two readers share an entity; a writer queues behind them; releasing the
//! readers grants the writer; a wait-for cycle is detected the instant it
//! forms:
//!
//! ```
//! use kplock_dlm::{LockManager, ManagedAcquire};
//! use kplock_model::{EntityId, LockMode};
//!
//! let m: LockManager<u32> = LockManager::new(16); // 16 shards
//! let (a, b) = (EntityId(0), EntityId(1));
//!
//! // Shared access coexists; exclusive queues FIFO behind it.
//! assert_eq!(m.acquire(a, 1, LockMode::Shared).unwrap(), ManagedAcquire::Granted);
//! assert_eq!(m.acquire(a, 2, LockMode::Shared).unwrap(), ManagedAcquire::Granted);
//! assert_eq!(m.acquire(a, 3, LockMode::Exclusive).unwrap(), ManagedAcquire::Queued);
//! m.release(a, 1).unwrap();
//! assert_eq!(m.release(a, 2).unwrap().granted, vec![(3, LockMode::Exclusive)]);
//!
//! // Deadlock: 3 holds a; 4 holds b; they request each other's entity.
//! assert_eq!(m.acquire(b, 4, LockMode::Exclusive).unwrap(), ManagedAcquire::Granted);
//! assert_eq!(m.acquire(b, 3, LockMode::Exclusive).unwrap(), ManagedAcquire::Queued);
//! match m.acquire(a, 4, LockMode::Exclusive).unwrap() {
//!     ManagedAcquire::Deadlock(mut cycle) => {
//!         cycle.sort();
//!         assert_eq!(cycle, vec![3, 4]); // found at block time, no scan
//!     }
//!     other => panic!("expected a deadlock, got {other:?}"),
//! }
//! let _ = m.abort(4); // victim out; 3 is granted b
//! assert_eq!(m.table().holds(b, 3), Some(LockMode::Exclusive));
//! ```

mod admission;
pub mod deadlock;
pub mod error;
pub mod lease;
pub mod manager;
pub mod prevent;
pub mod queue_table;
pub mod sharded;
pub mod table;

pub use deadlock::WaitForGraph;
pub use error::LockError;
pub use lease::{DelegationEntry, DelegationLedger, Lease, LeaseTable};
pub use manager::{Aborted, BatchReleased, LockManager, ManagedAcquire, Released};
pub use prevent::{PreventionOutcome, PreventionScheme, Priority};
pub use queue_table::QueueTable;
pub use sharded::ShardedTable;
pub use table::{Acquire, CancelOutcome, EntityGrants, Grants};
