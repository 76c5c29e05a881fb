//! Hash-sharded lock tables.
//!
//! A single mutex-guarded lock table serializes *every* request, even for
//! unrelated entities; under multi-core load the mutex, not the lock logic,
//! becomes the bottleneck. [`ShardedTable`] hash-partitions the entity
//! space into `n` independent [`QueueTable`]s, each behind its own
//! `parking_lot::Mutex`, so requests for entities in different shards never
//! contend. The `dlm_ops` workload of the repo benchmark measures the
//! effect (see ARCHITECTURE.md §9).
//!
//! Batched entry points ([`ShardedTable::acquire_batch`],
//! [`ShardedTable::release_batch`]) sort requests by shard and lock each
//! shard exactly once per batch, the lock-manager analogue of the paper's
//! per-site total order: one round-trip per shard instead of one per
//! entity.

use crate::error::LockError;
use crate::prevent::{PreventionOutcome, PreventionScheme, Priority};
use crate::queue_table::QueueTable;
use crate::table::{Acquire, CancelOutcome, EntityGrants, Grants};
use kplock_model::{EntityId, LockMode};
use parking_lot::{Mutex, MutexGuard};
use std::hash::Hash;

/// A sharded reader–writer lock table: `shards` independent
/// [`QueueTable`]s, each guarded by its own mutex.
#[derive(Debug)]
pub struct ShardedTable<O> {
    shards: Vec<Mutex<QueueTable<O>>>,
}

impl<O: Copy + Eq + Ord + Hash> ShardedTable<O> {
    /// Creates a table with `shards` partitions (at least 1).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1);
        ShardedTable {
            shards: (0..n).map(|_| Mutex::new(QueueTable::new())).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard an entity maps to (Fibonacci multiplicative hash — entity
    /// ids are dense small integers, so modulo alone would put consecutive
    /// entities in consecutive shards and correlated workloads in one).
    pub fn shard_index(&self, e: EntityId) -> usize {
        let h = (e.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (h as usize) % self.shards.len()
    }

    /// Locks the shard owning `e` and returns the guard. For callers (like
    /// the real-thread runner) that must compose several table calls with
    /// external bookkeeping atomically.
    pub fn lock_shard(&self, e: EntityId) -> MutexGuard<'_, QueueTable<O>> {
        self.shards[self.shard_index(e)].lock()
    }

    /// Locks shard `idx` directly.
    pub fn lock_shard_index(&self, idx: usize) -> MutexGuard<'_, QueueTable<O>> {
        self.shards[idx].lock()
    }

    /// Requests `mode` on `e` for `o`. See [`QueueTable::request`].
    pub fn acquire(&self, e: EntityId, o: O, mode: LockMode) -> Result<Acquire, LockError> {
        self.lock_shard(e).request(e, o, mode)
    }

    /// Requests `mode` on `e` for `o` under a timestamp-ordering deadlock
    /// prevention scheme. See [`QueueTable::request_with_priority`]; only
    /// `e`'s shard is locked — prevention needs no cross-shard state.
    pub fn acquire_with_priority(
        &self,
        e: EntityId,
        o: O,
        mode: LockMode,
        scheme: PreventionScheme,
        prio: impl Fn(O) -> Priority,
    ) -> Result<PreventionOutcome<O>, LockError> {
        self.lock_shard(e)
            .request_with_priority(e, o, mode, scheme, prio)
    }

    /// Releases `o`'s lock on `e`; returns the grants this unblocked.
    /// See [`QueueTable::release`].
    pub fn release(&self, e: EntityId, o: O) -> Result<Grants<O>, LockError> {
        self.lock_shard(e).release(e, o)
    }

    /// Releases `o`'s lock on `e`, appending unblocked grants to `out` —
    /// the zero-allocation hot path when the caller reuses the buffer.
    pub fn release_into(&self, e: EntityId, o: O, out: &mut Grants<O>) -> Result<(), LockError> {
        self.lock_shard(e).release_into(e, o, out)
    }

    /// Acquires a batch of locks for `o`, locking every touched shard only
    /// once, in ascending `(shard, entity)` order. Note the batch *queues
    /// and continues* on conflict rather than blocking per resource, so —
    /// unlike classic ordered blocking acquisition — the canonical order
    /// does **not** rule out deadlock between two batch clients (A granted
    /// `e0` / queued on `e1`, B granted `e1` / queued on `e0` is still
    /// possible); run batches through [`crate::LockManager`] for
    /// detection. Returns per-entity outcomes in the *input* order. Fails
    /// atomically-per-request: earlier grants *and queued requests* stay
    /// in place if a later request errors — to abort, call
    /// [`Self::cancel_waits`] (drops the queued ones) and then
    /// [`Self::release_all`] (drops the holds), in that order.
    pub fn acquire_batch(
        &self,
        o: O,
        reqs: &[(EntityId, LockMode)],
    ) -> Result<Vec<(EntityId, Acquire)>, LockError> {
        let mut order: Vec<usize> = (0..reqs.len()).collect();
        order.sort_by_key(|&i| (self.shard_index(reqs[i].0), reqs[i].0));
        let mut out = vec![None; reqs.len()];
        let mut i = 0;
        while i < order.len() {
            let shard = self.shard_index(reqs[order[i]].0);
            let mut guard = self.shards[shard].lock();
            while i < order.len() && self.shard_index(reqs[order[i]].0) == shard {
                let (e, mode) = reqs[order[i]];
                out[order[i]] = Some(guard.request(e, o, mode)?);
                i += 1;
            }
        }
        Ok(reqs
            .iter()
            .zip(out)
            .map(|(&(e, _), a)| (e, a.expect("every request processed")))
            .collect())
    }

    /// Releases a batch of locks for `o`, locking every touched shard only
    /// once; returns `(entity, grants)` in ascending `(shard, entity)`
    /// order.
    pub fn release_batch(&self, o: O, entities: &[EntityId]) -> Result<EntityGrants<O>, LockError> {
        let mut sorted: Vec<EntityId> = entities.to_vec();
        sorted.sort_by_key(|&e| (self.shard_index(e), e));
        let mut out = Vec::with_capacity(sorted.len());
        let mut i = 0;
        while i < sorted.len() {
            let shard = self.shard_index(sorted[i]);
            let mut guard = self.shards[shard].lock();
            while i < sorted.len() && self.shard_index(sorted[i]) == shard {
                let e = sorted[i];
                out.push((e, guard.release(e, o)?));
                i += 1;
            }
        }
        Ok(out)
    }

    /// The mode `o` holds on `e`, if any.
    pub fn holds(&self, e: EntityId, o: O) -> Option<LockMode> {
        self.lock_shard(e).holds(e, o)
    }

    /// Current holders of `e` with their modes.
    pub fn holders(&self, e: EntityId) -> Vec<(O, LockMode)> {
        self.lock_shard(e).holders(e)
    }

    /// Entities held by `o` across all shards, ascending.
    pub fn held_by(&self, o: O) -> Vec<EntityId> {
        let mut v = Vec::new();
        for s in &self.shards {
            v.extend(s.lock().held_by(o));
        }
        v.sort();
        v
    }

    /// Cancels `o`'s waits across all shards; outcomes are merged in
    /// ascending entity order.
    pub fn cancel_waits(&self, o: O) -> CancelOutcome<O> {
        let mut out = CancelOutcome::default();
        for s in &self.shards {
            let co = s.lock().cancel_waits(o);
            out.cancelled.extend(co.cancelled);
            out.granted.extend(co.granted);
        }
        out.cancelled.sort();
        out.granted.sort_by_key(|&(e, _)| e);
        out
    }

    /// Releases everything `o` holds across all shards; `(entity, grants)`
    /// pairs ascending by entity.
    pub fn release_all(&self, o: O) -> EntityGrants<O> {
        let mut out = Vec::new();
        for s in &self.shards {
            out.extend(s.lock().release_all(o));
        }
        out.sort_by_key(|&(e, _)| e);
        out
    }

    /// The waits-for edges induced by entity `e`.
    pub fn entity_waits_for(&self, e: EntityId) -> Vec<(O, O)> {
        self.lock_shard(e).entity_waits_for(e)
    }

    /// All waits-for edges across all shards, ascending.
    ///
    /// Not an atomic snapshot: shards are read one at a time, so a
    /// concurrent release can be seen by one shard and not another. Fine
    /// for periodic detection (a stale edge only delays or repeats a
    /// finding); the incremental [`crate::LockManager`] avoids the issue.
    pub fn waits_for(&self) -> Vec<(O, O)> {
        let mut out = Vec::new();
        for s in &self.shards {
            s.lock().waits_for_into(&mut out);
        }
        out.sort();
        out
    }

    /// True when no shard holds or queues anything.
    pub fn is_idle(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_idle())
    }

    /// Checks every shard's structural invariants plus the sharding
    /// invariant (each entity's state lives in its hash shard only).
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, s) in self.shards.iter().enumerate() {
            let t = s.lock();
            t.check_invariants()?;
            for e in t.active_entities() {
                if self.shard_index(e) != i {
                    return Err(format!("{e} stored in shard {i}, hashes to {}", {
                        self.shard_index(e)
                    }));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> LockMode {
        LockMode::Exclusive
    }
    fn s() -> LockMode {
        LockMode::Shared
    }

    #[test]
    fn shard_routing_is_stable_and_total() {
        let t: ShardedTable<u32> = ShardedTable::new(16);
        for i in 0..1000 {
            let e = EntityId(i);
            let idx = t.shard_index(e);
            assert!(idx < 16);
            assert_eq!(idx, t.shard_index(e));
        }
        // Shard count 0 is clamped to 1.
        let t: ShardedTable<u32> = ShardedTable::new(0);
        assert_eq!(t.shard_count(), 1);
    }

    #[test]
    fn acquire_release_across_shards() {
        let t: ShardedTable<u32> = ShardedTable::new(4);
        for i in 0..64 {
            assert_eq!(t.acquire(EntityId(i), 0, x()).unwrap(), Acquire::Granted);
        }
        assert_eq!(t.held_by(0).len(), 64);
        t.check_invariants().unwrap();
        for (e, grants) in t.release_all(0) {
            assert!(grants.is_empty(), "{e} had no waiters");
        }
        assert!(t.is_idle());
    }

    #[test]
    fn batch_acquire_locks_each_shard_once_and_reports_input_order() {
        let t: ShardedTable<u32> = ShardedTable::new(4);
        let reqs: Vec<(EntityId, LockMode)> = (0..32).map(|i| (EntityId(i), s())).collect();
        let out = t.acquire_batch(7, &reqs).unwrap();
        assert_eq!(out.len(), 32);
        for (i, &(e, a)) in out.iter().enumerate() {
            assert_eq!(e, EntityId(i as u32));
            assert_eq!(a, Acquire::Granted);
        }
        // A conflicting exclusive batch queues everywhere.
        let out = t.acquire_batch(8, &reqs.iter().map(|&(e, _)| (e, x())).collect::<Vec<_>>());
        assert!(out.unwrap().iter().all(|&(_, a)| a == Acquire::Queued));
        let entities: Vec<EntityId> = reqs.iter().map(|&(e, _)| e).collect();
        let grants = t.release_batch(7, &entities).unwrap();
        let total: usize = grants.iter().map(|(_, g)| g.len()).sum();
        assert_eq!(total, 32, "every queued request granted on release");
        assert!(grants
            .iter()
            .all(|(_, g)| g.iter().all(|&(o, m)| o == 8 && m == x())));
        t.check_invariants().unwrap();
    }

    #[test]
    fn batch_errors_surface() {
        let t: ShardedTable<u32> = ShardedTable::new(2);
        assert_eq!(
            t.release_batch(1, &[EntityId(0)]).unwrap_err(),
            LockError::NotHolder {
                entity: EntityId(0)
            }
        );
    }

    #[test]
    fn cross_shard_waits_for_aggregates() {
        let t: ShardedTable<u32> = ShardedTable::new(4);
        for i in 0..8 {
            t.acquire(EntityId(i), 0, x()).unwrap();
            t.acquire(EntityId(i), 1, x()).unwrap();
        }
        assert_eq!(t.waits_for(), vec![(1, 0); 8]);
        let co = t.cancel_waits(1);
        assert_eq!(co.cancelled.len(), 8);
        assert!(t.waits_for().is_empty());
    }
}
