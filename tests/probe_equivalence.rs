//! Fixed-seed equivalence: distributed probe detection vs the global scan.
//!
//! The probe detector ([`kplock::sim::DeadlockDetection::Probe`]) sees only
//! site-local wait-edges and talks over the latency-modelled network; the
//! periodic scan reads a god's-eye wait-for graph. On the pinned regression
//! workloads both must resolve every deadlock — same committed outcome,
//! same aborted transactions where the cycle is deterministic — with the
//! probes paying the message/latency costs the scan never sees. Both run
//! under `invariant_audit`, whose phantom-kill count (a cross-check of
//! every probe abort against the site tables, measurement-only) confirms
//! no victim was killed off-cycle.

use kplock::core::policy::LockStrategy;
use kplock::sim::{run, DeadlockDetection, LatencyModel, SimConfig, SimReport, VictimPolicy};
use kplock::workload::{fig5, random_system, site_count_sweep, WorkloadParams};

fn with_detection(cfg: &SimConfig, detection: DeadlockDetection) -> SimConfig {
    SimConfig {
        resolution: detection.into(),
        invariant_audit: true,
        ..cfg.clone()
    }
}

/// The transactions that were ever aborted (committed after at least one
/// restart).
fn aborted_set(r: &SimReport) -> Vec<usize> {
    r.committed_epoch
        .iter()
        .enumerate()
        .filter(|&(_, &e)| e.is_some_and(|ep| ep > 0))
        .map(|(i, _)| i)
        .collect()
}

/// Runs one system under Periodic and Probe and applies the shared
/// assertions: both complete, both commit everything serializably, probes
/// never kill off-cycle. Returns the pair of reports for workload-specific
/// checks.
fn check_equivalence(sys: &kplock::model::TxnSystem, cfg: &SimConfig) -> (SimReport, SimReport) {
    let scan = run(sys, &with_detection(cfg, DeadlockDetection::Periodic)).unwrap();
    let probe = run(sys, &with_detection(cfg, DeadlockDetection::Probe)).unwrap();
    assert!(scan.finished(), "periodic scan must finish");
    assert!(
        probe.finished(),
        "probe detection must resolve every deadlock the scan resolves ({:?})",
        probe.outcome
    );
    assert_eq!(scan.metrics.committed, probe.metrics.committed);
    assert!(scan.audit.serializable && probe.audit.serializable);
    assert_eq!(
        probe.metrics.phantom_probe_aborts, 0,
        "probe aborted a transaction that was on no cycle"
    );
    (scan, probe)
}

#[test]
fn pinned_random_workload_resolves_identically() {
    // The same system pinned by tests/sim_regression.rs.
    let sys = random_system(&WorkloadParams {
        seed: 21,
        sites: 3,
        entities_per_site: 2,
        transactions: 4,
        steps_per_txn: 6,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    });
    let cfg = SimConfig {
        latency: LatencyModel::Uniform(1, 20),
        seed: 7,
        ..Default::default()
    };
    check_equivalence(&sys, &cfg);
}

#[test]
fn pinned_deadlock_prone_workload_aborts_the_same_set() {
    // Deadlock-prone pinned workload: the scan resolves one cycle here
    // (see PIN_DEADLOCK); probes must resolve the equivalent deadlocks and
    // land on the same committed/aborted sets, possibly at different ticks.
    let sys = random_system(&WorkloadParams {
        seed: 23,
        sites: 2,
        entities_per_site: 2,
        transactions: 4,
        steps_per_txn: 6,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    });
    let cfg = SimConfig {
        latency: LatencyModel::Fixed(5),
        victim_policy: VictimPolicy::Oldest,
        ..Default::default()
    };
    let (scan, probe) = check_equivalence(&sys, &cfg);
    assert_eq!(aborted_set(&scan), aborted_set(&probe));
}

#[test]
fn fig5_runs_clean_under_probes() {
    let cfg = SimConfig {
        latency: LatencyModel::Uniform(1, 9),
        seed: 3,
        ..Default::default()
    };
    let (scan, probe) = check_equivalence(&fig5(), &cfg);
    // fig5 is safe and deadlock-free under these timings: neither scheme
    // aborts anything. But its locks do block, and blocking launches
    // chases — the probe scheme pays network cost for waits that never
    // were deadlocks, a price the god's-eye scan never shows.
    assert_eq!(scan.metrics.aborts, 0);
    assert_eq!(probe.metrics.aborts, 0);
    assert_eq!(scan.metrics.deadlocks_resolved, 0);
    assert!(
        probe.metrics.probe_messages > 0,
        "cross-site waits trigger chases even without deadlock"
    );
}

#[test]
fn guaranteed_cross_site_cycle_same_victim_both_policies() {
    use kplock::model::{Database, TxnBuilder, TxnSystem};
    let db = Database::from_spec(&[("x", 0), ("y", 1)]);
    let mut b1 = TxnBuilder::new(&db, "T1");
    b1.script("Lx Ly x y Ux Uy").unwrap();
    let t1 = b1.build().unwrap();
    let mut b2 = TxnBuilder::new(&db, "T2");
    b2.script("Ly Lx y x Uy Ux").unwrap();
    let t2 = b2.build().unwrap();
    let sys = TxnSystem::new(db, vec![t1, t2]);
    for policy in [VictimPolicy::Youngest, VictimPolicy::Oldest] {
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            victim_policy: policy,
            ..Default::default()
        };
        let (scan, probe) = check_equivalence(&sys, &cfg);
        assert_eq!(
            aborted_set(&scan),
            aborted_set(&probe),
            "same cycle, same policy ({policy:?}) must kill the same victim"
        );
        assert!(probe.metrics.probe_messages > 0, "the cycle spans sites");
    }
}

#[test]
fn site_sweep_probes_pay_more_as_distribution_grows() {
    // Across a site-count sweep (same data, same offered work), probes
    // must stay equivalent to the scan; their message overhead is the
    // measured price of distribution.
    let base = WorkloadParams {
        seed: 31,
        transactions: 5,
        steps_per_txn: 6,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    };
    let cfg = SimConfig {
        latency: LatencyModel::Fixed(5),
        ..Default::default()
    };
    for sc in site_count_sweep(&base, 6, &[1, 2, 3, 6]) {
        let (_, probe) = check_equivalence(&sc.system, &cfg);
        if sc.value == 1 {
            assert_eq!(
                probe.metrics.probe_messages, 0,
                "one site: every chase is local"
            );
        }
    }
}

#[test]
fn probe_runs_are_deterministic() {
    let sys = random_system(&WorkloadParams {
        seed: 23,
        sites: 2,
        entities_per_site: 2,
        transactions: 4,
        steps_per_txn: 6,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    });
    let cfg = SimConfig {
        latency: LatencyModel::Uniform(1, 20),
        seed: 9,
        resolution: DeadlockDetection::Probe.into(),
        ..Default::default()
    };
    let a = run(&sys, &cfg).unwrap();
    let b = run(&sys, &cfg).unwrap();
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.committed_epoch, b.committed_epoch);
}
