//! Fixed-seed pins for probe detection-latency attribution.
//!
//! A Chandy–Misra–Haas probe can be launched by an *early* wait-edge and
//! then close a cycle whose final edge forms while the probe is still in
//! flight. `Metrics::detection_latency_ticks` must attribute the cycle to
//! that last-formed edge's appearance tick — a cycle cannot predate its
//! final edge — not to the probe's own (earlier) launch tick, which
//! overcounted by exactly the head start the probe had.
//!
//! The scenario pins the race deterministically: a two-site, two-phase
//! cross cycle where T2 arrives `d` ticks after T1, with `d` smaller than
//! the fixed message latency. T1 blocks first and its probe departs; T2's
//! blocking edge (the cycle's final edge) appears `d` ticks later, while
//! that probe is still on the wire; the probe arrives, finds the cycle,
//! and closes it. Under the old accounting every `d` reported the same
//! latency (abort tick minus probe launch); under last-formed-edge
//! attribution the reported latency shrinks by exactly `d`.

use kplock::model::{Database, TxnBuilder, TxnSystem};
use kplock::sim::{run_with_arrivals, DeadlockDetection, LatencyModel, SimConfig};

/// Two-phase transactions locking x (site 0) and y (site 1) in opposite
/// orders: a guaranteed cross-site cycle once both block.
fn cross_cycle() -> TxnSystem {
    let db = Database::from_spec(&[("x", 0), ("y", 1)]);
    let mut b1 = TxnBuilder::new(&db, "T1");
    b1.script("Lx x Ly y Uy Ux").unwrap();
    let t1 = b1.build().unwrap();
    let mut b2 = TxnBuilder::new(&db, "T2");
    b2.script("Ly y Lx x Ux Uy").unwrap();
    let t2 = b2.build().unwrap();
    TxnSystem::new(db, vec![t1, t2])
}

fn probe_cfg() -> SimConfig {
    SimConfig {
        latency: LatencyModel::Fixed(5),
        resolution: DeadlockDetection::Probe.into(),
        invariant_audit: true,
        ..Default::default()
    }
}

#[test]
fn in_flight_close_is_charged_from_the_last_formed_edge() {
    // Timeline at latency 5, stagger d = 3: T1 blocks on y at tick 25 and
    // its probe departs for site 0; T2 blocks on x at tick 28 (the edge
    // that completes the cycle); the probe arrives at 30, closes, and the
    // abort order lands at 35. Detection latency is 35 − 28 = 7 ticks.
    // The pre-fix accounting said 35 − 25 = 10, charging the cycle for
    // three ticks during which it did not exist.
    let sys = cross_cycle();
    let r = run_with_arrivals(&sys, &probe_cfg(), &[0, 3]).unwrap();
    assert!(r.finished());
    assert_eq!(r.metrics.deadlocks_resolved, 1);
    assert_eq!(r.metrics.phantom_probe_aborts, 0);
    assert_eq!(
        r.metrics.detection_latency_ticks, 7,
        "cycle must be attributed to its last-formed edge (tick 28), \
         not the in-flight probe's launch (tick 25)"
    );
}

#[test]
fn latency_tracks_the_final_edge_across_staggers() {
    // Sweeping the stagger inside one network latency: the cycle's final
    // edge forms d ticks later each time, so the reported latency must
    // fall by exactly d. The old accounting was blind to d — the closing
    // probe always launched at the same tick — and reported a constant.
    let sys = cross_cycle();
    let latencies: Vec<u64> = (0u64..5)
        .map(|d| {
            let r = run_with_arrivals(&sys, &probe_cfg(), &[0, d]).unwrap();
            assert!(r.finished(), "stagger {d}");
            assert_eq!(r.metrics.deadlocks_resolved, 1, "stagger {d}");
            r.metrics.detection_latency_ticks
        })
        .collect();
    assert_eq!(
        latencies,
        vec![10, 9, 8, 7, 6],
        "latency must shrink tick-for-tick with the final edge's delay"
    );
}

#[test]
fn simultaneous_blocks_are_unchanged_by_the_attribution_fix() {
    // With no stagger both edges appear at the same tick, the maximum is
    // that tick, and the fix is a no-op: one network hop for the closing
    // probe plus one for the abort order, at latency 5 → 10 ticks.
    let sys = cross_cycle();
    let r = run_with_arrivals(&sys, &probe_cfg(), &[0, 0]).unwrap();
    assert_eq!(r.metrics.detection_latency_ticks, 10);
}
