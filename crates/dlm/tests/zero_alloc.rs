//! Proof of the `QueueTable` zero-allocation claim: a counting global
//! allocator wraps `System`, the table is warmed through every code
//! path the steady-state loop will take (so arenas, free lists, hash
//! maps and the per-owner index reach their high-water capacity), and
//! then a thousand more contended lock/unlock rounds must perform *no*
//! heap allocation at all.
//!
//! A global allocator is process-wide and libtest runs the tests of a
//! binary on parallel threads, so the counter is **per thread**: each
//! test reads only the allocations its own thread made, and no other
//! test — present or future — can land inside its measurement window.

use kplock_dlm::{Acquire, PreventionOutcome, PreventionScheme, QueueTable};
use kplock_model::{EntityId, LockMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation (alloc, alloc_zeroed, and growth reallocs) of
/// the calling thread; frees are uncounted — the claim is about acquiring
/// memory.
struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor, so touching it from
    // inside the allocator can neither allocate nor recurse.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those allocations belong to no measurement.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const X: LockMode = LockMode::Exclusive;
const S: LockMode = LockMode::Shared;

/// One steady-state round over `ents` for the owners `base + 1 ..= base +
/// 3`: an exclusive holder, a queued second writer granted by the first's
/// release, a shared pair, and a priority-path grant — every hot-path
/// shape the table serves.
fn round(t: &mut QueueTable<u32>, base: u32, ents: &[EntityId], buf: &mut Vec<(u32, LockMode)>) {
    let (a, b, c) = (base + 1, base + 2, base + 3);
    for &e in ents {
        // Contended exclusive hand-off.
        assert_eq!(t.request(e, a, X).unwrap(), Acquire::Granted);
        assert_eq!(t.request(e, b, X).unwrap(), Acquire::Queued);
        buf.clear();
        t.release_into(e, a, buf).unwrap();
        assert_eq!(buf.as_slice(), &[(b, X)]);
        buf.clear();
        t.release_into(e, b, buf).unwrap();
        assert!(buf.is_empty());

        // Shared coexistence.
        assert_eq!(t.request(e, a, S).unwrap(), Acquire::Granted);
        assert_eq!(t.request(e, b, S).unwrap(), Acquire::Granted);
        buf.clear();
        t.release_into(e, a, buf).unwrap();
        buf.clear();
        t.release_into(e, b, buf).unwrap();

        // The prevention admission path (uncontended: Granted, and the
        // obstacle scratch buffer is reused).
        let outcome = t
            .request_with_priority(e, c, X, PreventionScheme::WoundWait, |o| (u64::from(o), 0))
            .unwrap();
        assert_eq!(outcome, PreventionOutcome::Granted);
        buf.clear();
        t.release_into(e, c, buf).unwrap();
    }
}

/// Warms a table with 50 rounds, then counts this thread's allocations
/// over 1 000 more. `base_of(i)` picks round `i`'s owner ids.
fn steady_state_allocations(base_of: impl Fn(u32) -> u32) -> u64 {
    let mut t: QueueTable<u32> = QueueTable::new();
    let ents: Vec<EntityId> = (0..8).map(EntityId).collect();
    let mut buf: Vec<(u32, LockMode)> = Vec::with_capacity(8);

    // Warm-up: drive every path until all capacities hit steady state.
    for i in 0..50 {
        round(&mut t, base_of(i), &ents, &mut buf);
    }
    t.check_invariants().unwrap();

    let before = allocations();
    for i in 50..1_050 {
        round(&mut t, base_of(i), &ents, &mut buf);
    }
    let allocated = allocations() - before;
    t.check_invariants().unwrap();
    assert!(t.is_idle());
    allocated
}

#[test]
fn queue_table_steady_state_performs_zero_allocations() {
    let allocated = steady_state_allocations(|_| 0);
    assert_eq!(
        allocated, 0,
        "QueueTable allocated {allocated} times across 1000 steady-state rounds"
    );
}

/// The simulator's owners are `(txn, epoch)` pairs, so every restart is an
/// owner the table has never seen. Fresh owner ids every round must cost
/// nothing either: the per-owner index drops an owner's entry when its
/// last hold goes and hands the buffer to the next newcomer. (An index
/// that kept one entry per owner ever seen — as this table once did —
/// grows its map and allocates a buffer per new owner, and fails here.)
#[test]
fn owner_churn_performs_zero_allocations() {
    let allocated = steady_state_allocations(|i| 3 * i);
    assert_eq!(
        allocated, 0,
        "QueueTable allocated {allocated} times across 1000 rounds of fresh owners"
    );
}
