//! Property tests for the sharded reader–writer table.
//!
//! Invariants under random interleavings of acquire/release/abort:
//!
//! * never S+X (or X+X) granted on one entity at once — via
//!   `check_invariants` after every operation, and `check_entity` of each
//!   entity the operation touched beside it;
//! * no queued waiter is ever lost: every request that queued is either
//!   granted by a later release or explicitly cancelled, and draining the
//!   table grants everything that is still pending;
//! * exclusive-only behavior is step-for-step identical to the paper
//!   simulator's original FIFO table (reimplemented here as the reference
//!   model).

use kplock_dlm::{Acquire, ShardedTable};
use kplock_model::{EntityId, LockMode};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};

const OWNERS: u32 = 6;
const ENTITIES: u32 = 8;

/// Applies a random operation; returns the entities it operated on.
fn random_op(
    rng: &mut StdRng,
    t: &ShardedTable<u32>,
    pending: &mut HashSet<(EntityId, u32)>,
) -> Result<Vec<EntityId>, String> {
    let o = rng.gen_range(0..OWNERS);
    let e = EntityId(rng.gen_range(0..ENTITIES));
    let mut touched = Vec::new();
    match rng.gen_range(0u32..10) {
        // Acquire (weighted toward it so queues actually build up).
        0..=5 => {
            let mode = if rng.gen_range(0u32..2) == 0 {
                LockMode::Shared
            } else {
                LockMode::Exclusive
            };
            // Skip protocol violations the API rejects.
            if pending.contains(&(e, o)) {
                return Ok(touched);
            }
            touched.push(e);
            match t.acquire(e, o, mode) {
                Ok(Acquire::Granted) => {}
                Ok(Acquire::Queued) => {
                    pending.insert((e, o));
                }
                Err(err) => return Err(format!("acquire: {err}")),
            }
        }
        // Release one held entity. Releasing also cancels the releaser's
        // own pending upgrade on that entity, so clear it from `pending`.
        6..=7 => {
            if let Some(&h) = t.held_by(o).first() {
                touched.push(h);
                let grants = t.release(h, o).map_err(|err| format!("release: {err}"))?;
                pending.remove(&(h, o));
                for (w, _) in grants {
                    if !pending.remove(&(h, w)) {
                        return Err(format!("grant of {h} to {w} was never pending"));
                    }
                }
            }
        }
        // Abort: cancel waits + release everything.
        _ => {
            let cancelled = t.cancel_waits(o);
            touched.extend(&cancelled.cancelled);
            for &e in &cancelled.cancelled {
                if !pending.remove(&(e, o)) {
                    return Err(format!("cancelled wait ({e},{o}) was never pending"));
                }
            }
            for (e, grants) in cancelled.granted {
                for (w, _) in grants {
                    if !pending.remove(&(e, w)) {
                        return Err(format!("cancel-grant of {e} to {w} was never pending"));
                    }
                }
            }
            for (e, grants) in t.release_all(o) {
                touched.push(e);
                pending.remove(&(e, o)); // a pending upgrade dies with the hold
                for (w, _) in grants {
                    if !pending.remove(&(e, w)) {
                        return Err(format!("abort-grant of {e} to {w} was never pending"));
                    }
                }
            }
        }
    }
    Ok(touched)
}

/// Releases everything until the table is empty; every still-pending
/// request must be granted along the way (no waiter lost).
fn drain(t: &ShardedTable<u32>, pending: &mut HashSet<(EntityId, u32)>) -> Result<(), String> {
    for _ in 0..10_000 {
        if t.is_idle() {
            if pending.is_empty() {
                return Ok(());
            }
            return Err(format!(
                "table idle but {} requests never granted",
                pending.len()
            ));
        }
        let mut progressed = false;
        for o in 0..OWNERS {
            for (e, grants) in t.release_all(o) {
                progressed = true;
                pending.remove(&(e, o)); // a pending upgrade dies with the hold
                for (w, _) in grants {
                    if !pending.remove(&(e, w)) {
                        return Err(format!("drain-grant of {e} to {w} was never pending"));
                    }
                }
            }
        }
        if !progressed {
            // Only waiters left whose holders released: impossible unless a
            // waiter was deadlocked on itself — cancel the rest explicitly.
            return Err("no release possible but table not idle".into());
        }
    }
    Err("drain did not converge".into())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// S/X exclusion and structural invariants hold after every operation,
    /// for every shard count.
    #[test]
    fn never_grants_incompatible_modes(seed in 0u64..10_000) {
        for shards in [1usize, 4, 16] {
            let mut rng = StdRng::seed_from_u64(seed);
            let t: ShardedTable<u32> = ShardedTable::new(shards);
            let mut pending = HashSet::new();
            for step in 0..120 {
                match random_op(&mut rng, &t, &mut pending) {
                    Err(e) => prop_assert!(false, "seed {} shards {} step {}: {}", seed, shards, step, e),
                    // The incremental audit's premise: an operation can
                    // break only the entities it operated on.
                    Ok(touched) => for e in touched {
                        if let Err(err) = t.lock_shard(e).check_entity(e) {
                            prop_assert!(false, "seed {} shards {} step {}: {}", seed, shards, step, err);
                        }
                    },
                }
                if let Err(e) = t.check_invariants() {
                    prop_assert!(false, "seed {} shards {} step {}: {}", seed, shards, step, e);
                }
            }
        }
    }

    /// Every queued waiter is eventually granted (or was explicitly
    /// cancelled): drain the table and demand the pending set empties.
    #[test]
    fn no_queued_waiter_is_lost(seed in 0u64..10_000) {
        for shards in [1usize, 16] {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
            let t: ShardedTable<u32> = ShardedTable::new(shards);
            let mut pending = HashSet::new();
            for step in 0..150 {
                if let Err(e) = random_op(&mut rng, &t, &mut pending) {
                    prop_assert!(false, "seed {} shards {} step {}: {}", seed, shards, step, e);
                }
            }
            if let Err(e) = drain(&t, &mut pending) {
                prop_assert!(false, "seed {} shards {}: {}", seed, shards, e);
            }
        }
    }

    /// The per-owner reverse index behind `held_by` (and the entity
    /// indexes behind `active_entities`/`waits_for`) return exactly what
    /// the O(entities) scans they replaced would have: recompute held_by
    /// by scanning `active_entities() × holders()` and demand equality
    /// after every random operation.
    #[test]
    fn reverse_indexes_match_the_scans_they_replaced(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(3));
        let t: ShardedTable<u32> = ShardedTable::new(4);
        let mut pending = HashSet::new();
        for step in 0..150 {
            if let Err(e) = random_op(&mut rng, &t, &mut pending) {
                prop_assert!(false, "seed {} step {}: {}", seed, step, e);
            }
            // check_invariants cross-validates every index against a
            // direct scan of the states map; do the held_by comparison
            // here explicitly as well.
            if let Err(e) = t.check_invariants() {
                prop_assert!(false, "seed {} step {}: {}", seed, step, e);
            }
            let mut by_scan: HashMap<u32, Vec<EntityId>> = HashMap::new();
            for shard in 0..t.shard_count() {
                let guard = t.lock_shard_index(shard);
                for e in guard.active_entities() {
                    for (h, _) in guard.holders(e) {
                        by_scan.entry(h).or_default().push(e);
                    }
                }
            }
            for o in 0..OWNERS {
                let mut expect = by_scan.remove(&o).unwrap_or_default();
                expect.sort();
                prop_assert_eq!(
                    t.held_by(o),
                    expect,
                    "seed {} step {}: held_by({}) diverged from scan",
                    seed,
                    step,
                    o
                );
            }
        }
    }

    /// Exclusive-only requests through the new table behave exactly like
    /// the original simulator FIFO table (modelled here): same grant
    /// decisions, same grantees on release, same waits-for edges.
    #[test]
    fn exclusive_only_matches_the_original_fifo_table(seed in 0u64..10_000) {
        // Reference model: the pre-refactor `sim::LockTable` semantics.
        #[derive(Default)]
        struct OldTable {
            holder: HashMap<EntityId, u32>,
            queue: HashMap<EntityId, VecDeque<u32>>,
        }
        impl OldTable {
            fn request(&mut self, e: EntityId, o: u32) -> bool {
                if let std::collections::hash_map::Entry::Vacant(v) = self.holder.entry(e) {
                    v.insert(o);
                    true
                } else {
                    self.queue.entry(e).or_default().push_back(o);
                    false
                }
            }
            fn release(&mut self, e: EntityId, o: u32) -> Option<u32> {
                assert_eq!(self.holder.remove(&e), Some(o));
                let next = self.queue.get_mut(&e).and_then(|q| q.pop_front());
                if let Some(n) = next {
                    self.holder.insert(e, n);
                }
                next
            }
        }

        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
        let t: ShardedTable<u32> = ShardedTable::new(4);
        let mut old = OldTable::default();
        let mut queued: HashSet<(EntityId, u32)> = HashSet::new();
        for step in 0..200 {
            let o = rng.gen_range(0..OWNERS);
            let e = EntityId(rng.gen_range(0..ENTITIES));
            if rng.gen_range(0u32..3) < 2 {
                // Skip requests the old table would self-deadlock on and
                // the new one rejects or short-circuits.
                if old.holder.get(&e) == Some(&o) || queued.contains(&(e, o)) {
                    continue;
                }
                let new_granted =
                    t.acquire(e, o, LockMode::Exclusive).unwrap() == Acquire::Granted;
                let old_granted = old.request(e, o);
                prop_assert_eq!(new_granted, old_granted, "seed {} step {}", seed, step);
                if !new_granted {
                    queued.insert((e, o));
                }
            } else if old.holder.get(&e) == Some(&o) {
                let new_grants = t.release(e, o).unwrap();
                let old_next = old.release(e, o);
                let expect: Vec<(u32, LockMode)> =
                    old_next.into_iter().map(|n| (n, LockMode::Exclusive)).collect();
                prop_assert_eq!(&new_grants, &expect, "seed {} step {}", seed, step);
                for (w, _) in new_grants {
                    queued.remove(&(e, w));
                }
            }
            // Waits-for edges agree too.
            let mut old_edges: Vec<(u32, u32)> = old
                .queue
                .iter()
                .filter_map(|(e, q)| old.holder.get(e).map(|&h| (q, h)))
                .flat_map(|(q, h)| q.iter().map(move |&w| (w, h)))
                .collect();
            old_edges.sort();
            prop_assert_eq!(t.waits_for(), old_edges, "seed {} step {}", seed, step);
        }
    }
}
