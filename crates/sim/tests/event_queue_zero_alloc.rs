//! Proof of the `EventQueue` claim that a warm calendar allocates
//! nothing — the twin of `crates/dlm/tests/zero_alloc.rs`: a counting
//! global allocator wraps `System`, one lap of the ring — every tick of
//! it filled and drained — grows the slab past anything the steady state
//! will hold, and then ten thousand push/pop rounds inside the window must
//! perform *no* heap allocation at all.
//!
//! A global allocator is process-wide and libtest runs the tests of a
//! binary on parallel threads, so the counter is **per thread**: each
//! test reads only the allocations its own thread made.

use kplock_model::{EntityId, SiteId, StepId, TxnId};
use kplock_sim::{EventKind, EventQueue, Instance, Payload};
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

/// The calendar's window in ticks (`event.rs`'s `WINDOW`): one lap.
const LAP: u64 = 1024;

/// Events in flight during the measured rounds, and per tick of the
/// warm-up lap — so the queue never holds more than its warm-up did,
/// whichever way its buckets are stored.
const IN_FLIGHT: u32 = 4;

/// A wire message, the event the engine pushes most: 64 bytes, no heap.
fn message(n: u32) -> EventKind {
    let request = Payload::LockRequest {
        inst: Instance {
            txn: TxnId(n),
            epoch: 0,
        },
        entity: EntityId(n),
        step: StepId(0),
    };
    EventKind::ToSite(SiteId(0), request)
}

#[test]
fn a_warm_calendar_performs_zero_allocations() {
    let mut q = EventQueue::new();
    // Warm-up: one lap, every tick of it filled and drained.
    for t in 0..LAP {
        for n in 0..IN_FLIGHT {
            q.push(t, message(n));
        }
    }
    let mut now = 0;
    while let Some((t, _)) = q.pop() {
        now = t;
    }
    assert_eq!(now, LAP - 1);

    // Steady state: each pop schedules its successor a few ticks on, as a
    // handler does — the delays differ, so the events spread out and
    // bunch up again, ten laps' worth.
    for n in 0..IN_FLIGHT {
        q.push(now + 1, message(n));
    }
    let before = allocations();
    for round in 0..10_000u64 {
        let (t, ev) = q.pop().expect("four in flight");
        assert!(t >= now);
        now = t;
        q.push(t + round % 13, ev);
    }
    let allocated = allocations() - before;
    assert_eq!(q.len(), IN_FLIGHT as usize);
    assert!(now > 10 * LAP, "the ring wrapped: tick {now}");
    assert_eq!(
        allocated, 0,
        "EventQueue allocated {allocated} times across 10 000 warm push/pop rounds"
    );
}
