//! Pins how often a pair check calls the allocator. A counting global
//! allocator wraps `System`; after a warm-up pass (which builds each
//! transaction's cached closure), `check_safety` and then `check_deadlock`
//! run on each of the 1 700 pairs the benchmark's `analysis_sat` draws on
//! seed 1, and the mean allocator calls (allocations and reallocations) per
//! call of each must stay under its bound.
//!
//! A check's allocations are a fixed handful of buffers: admission's
//! tables, the sections, the arc list and the formula, each allocated once
//! at its final size, the solver's clause store, watch rows, values,
//! per-variable records, trail, level marks and learned-clause buffer, the
//! model, and the witness and its verification. A buffer that grows by
//! doubling or one allocated per clause, per literal or per conflict shows
//! here as a higher mean.
//!
//! The counter is per thread, like `crates/sim/tests/event_queue_zero_alloc.rs`,
//! and this binary holds this one test, so that nothing else runs under the
//! counting allocator.

use kplock::core::policy::LockStrategy;
use kplock::core::{check_deadlock, check_safety};
use kplock::model::TxnSystem;
use kplock::workload::{random_pair, WorkloadParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation (alloc, alloc_zeroed and reallocs) of the
/// calling thread; frees are uncounted.
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

/// Allocator calls made so far by the calling thread.
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

/// The pairs `analysis_sat` draws on seed 1: its input seeds are
/// `1000 · seed + i`, one pair in eight has two sites and the rest three or
/// four, with 6 to 12 steps under the three strategies in turn.
fn analysis_sat_pairs() -> Vec<TxnSystem> {
    let strategies = [
        LockStrategy::Minimal,
        LockStrategy::TwoPhaseLoose,
        LockStrategy::TwoPhaseSync,
    ];
    (0..1_700usize)
        .map(|i| {
            random_pair(&WorkloadParams {
                seed: 1_000 + i as u64,
                sites: if i % 8 == 7 { 2 } else { 3 + i % 2 },
                entities_per_site: 2,
                steps_per_txn: 6 + i % 7,
                strategy: strategies[i % 3],
                ..Default::default()
            })
        })
        .collect()
}

/// The mean allocator calls per `check_safety` and per `check_deadlock`.
/// Before each pair check set-up was cut they read 41.9 and 53.7; these
/// bounds sit just above what the checks make now (see CHANGES).
const MAX_MEAN_CALLS: [f64; 2] = [29.0, 24.0];

#[test]
fn a_pair_check_allocates_a_fixed_handful_of_buffers() {
    let pairs = analysis_sat_pairs();
    let run = |sys: &TxnSystem, calls: &mut [u64; 2]| {
        let before = allocations();
        let safety = check_safety(sys).expect("exclusive-only pairs encode");
        let between = allocations();
        let deadlock = check_deadlock(sys).expect("exclusive-only pairs encode");
        let after = allocations();
        drop((safety, deadlock));
        calls[0] += between - before;
        calls[1] += after - between;
    };
    let mut warm_up = [0; 2];
    for sys in &pairs {
        run(sys, &mut warm_up);
    }
    let mut calls = [0; 2];
    for sys in &pairs {
        run(sys, &mut calls);
    }
    let mean = calls.map(|c| c as f64 / pairs.len() as f64);
    println!(
        "allocator calls per call: check_safety {:.1}, check_deadlock {:.1}",
        mean[0], mean[1]
    );
    for (name, (mean, bound)) in ["check_safety", "check_deadlock"]
        .into_iter()
        .zip(mean.into_iter().zip(MAX_MEAN_CALLS))
    {
        assert!(
            mean <= bound,
            "{name} makes {mean:.2} allocator calls per call, above {bound}"
        );
    }
}
