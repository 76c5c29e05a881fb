//! A transaction costs what its steps and edges cost: building one
//! allocates memory linear in its length, because the n × n transitive
//! closure is not part of construction — it is built by the first
//! `precedes` and only then. A counting global allocator wraps `System`
//! and the bytes `Transaction::new` allocates on a chain are compared at
//! two lengths.
//!
//! The counter is **per thread** (a global allocator is process-wide and
//! libtest runs a binary's tests on parallel threads), so each test reads
//! only what its own thread allocated.

use kplock_model::{EntityId, Step, StepId, Transaction};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Sums the bytes the calling thread asks for (alloc, alloc_zeroed, and
/// the growth of a realloc); frees are uncounted.
struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor, so touching it from
    // inside the allocator can neither allocate nor recurse.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those allocations belong to no measurement.
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method hands its arguments unchanged to `System`, whose
// contract the caller already upholds; counting only touches a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes this thread allocates inside `f`.
fn bytes_allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// An `n`-step chain, the shape of a hierarchy scan: `Lx`, `n − 2`
/// updates, `Ux`. Steps and edges are made outside the measured call.
fn chain_parts(n: usize) -> (Vec<Step>, Vec<(StepId, StepId)>) {
    let x = EntityId(0);
    let mut steps = vec![Step::update(x); n];
    steps[0] = Step::lock(x);
    steps[n - 1] = Step::unlock(x);
    let edges = (1..n)
        .map(|i| (StepId::from_idx(i - 1), StepId::from_idx(i)))
        .collect();
    (steps, edges)
}

fn bytes_to_build_chain(n: usize) -> u64 {
    let (steps, edges) = chain_parts(n);
    let (t, bytes) = bytes_allocated(|| Transaction::new("scan", steps, edges).unwrap());
    assert!(!t.closure_is_built());
    bytes
}

#[test]
fn building_a_transaction_allocates_linearly_in_its_length() {
    let (short, long) = (bytes_to_build_chain(1_000), bytes_to_build_chain(4_000));
    // Four times the steps: linear is 4 ×, an n × n bit matrix 16 ×.
    assert!(
        long < 6 * short,
        "4 000 steps allocated {long} bytes, 1 000 steps {short}"
    );
}

#[test]
fn the_first_precedes_pays_for_the_closure_once() {
    let n = 1_000;
    let (steps, edges) = chain_parts(n);
    let t = Transaction::new("scan", steps, edges).unwrap();
    let (first, last) = (StepId::from_idx(0), StepId::from_idx(n - 1));
    let (ordered, built) = bytes_allocated(|| t.precedes(first, last));
    assert!(ordered && t.closure_is_built());
    // One matrix of n rows of ⌈n/64⌉ words, beside the topological sort.
    let matrix = (n * n.div_ceil(64) * 8) as u64;
    assert!(built >= matrix && built < 2 * matrix, "{built} bytes");
    let (ordered, again) = bytes_allocated(|| t.precedes(last, first));
    assert!(!ordered);
    assert_eq!(again, 0);
}
