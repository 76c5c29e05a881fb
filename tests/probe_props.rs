//! Property-based invariants for the distributed probe detector.
//!
//! On random multi-site systems under synchronized 2PL (no transaction
//! releases a lock while a lock request is pending — the model in which
//! Chandy–Misra–Haas is provably exact):
//!
//! * **completeness** — every cycle the global scan finds is eventually
//!   found by probes: whenever the periodic-scan run completes, the probe
//!   run completes too (an unfound cycle would stall or time out);
//! * **soundness** — probes never abort a non-cycle member: the
//!   measurement-only `probe_audit` cross-check counts zero phantom kills.

use kplock::core::policy::LockStrategy;
use kplock::sim::{run, DeadlockDetection, LatencyModel, RunOutcome, SimConfig};
use kplock::workload::{random_system, WorkloadParams};
use proptest::prelude::*;

fn system(seed: u64, sites: usize, txns: usize) -> kplock::model::TxnSystem {
    random_system(&WorkloadParams {
        seed,
        sites,
        entities_per_site: 2,
        transactions: txns,
        steps_per_txn: 6,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Completeness + soundness on random multi-site sync-2PL systems.
    #[test]
    fn probes_find_every_cycle_and_only_real_cycles(
        seed in 0u64..400,
        sim_seed in 0u64..50,
        sites in 2usize..5,
        txns in 2usize..6,
    ) {
        let sys = system(seed, sites, txns);
        let base = SimConfig {
            latency: LatencyModel::Uniform(1, 20),
            seed: sim_seed,
            ..Default::default()
        };
        let scan = run(&sys, &base).unwrap();
        prop_assert_ne!(scan.outcome, RunOutcome::Stalled);
        if !scan.finished() {
            return Ok(()); // scan livelocks are not the probe's bug
        }
        let probe_cfg = SimConfig {
            resolution: DeadlockDetection::Probe.into(),
            probe_audit: true,
            ..base
        };
        let probe = run(&sys, &probe_cfg).unwrap();
        prop_assert_eq!(
            probe.outcome,
            RunOutcome::Completed,
            "probe run did not complete: an undetected cycle (seed {}, sim {})",
            seed,
            sim_seed
        );
        prop_assert_eq!(probe.metrics.committed, sys.len());
        prop_assert!(probe.audit.serializable, "sync-2PL must audit clean");
        prop_assert_eq!(
            probe.metrics.phantom_probe_aborts,
            0,
            "probe aborted a non-cycle member (seed {}, sim {})",
            seed,
            sim_seed
        );
        // Detection work is only spent when something actually blocked
        // across sites; a deadlock-free run costs zero aborts both ways.
        if scan.metrics.deadlocks_resolved == 0 && probe.metrics.deadlocks_resolved == 0 {
            prop_assert_eq!(probe.metrics.aborts, scan.metrics.aborts);
        }
    }

    /// Under skewed hot-site load the invariants must hold too — the case
    /// where every probe chase funnels through one site.
    #[test]
    fn probes_survive_hot_site_skew(seed in 0u64..200, hot in 50u32..=100) {
        let sys = random_system(&WorkloadParams {
            seed,
            sites: 3,
            entities_per_site: 2,
            transactions: 4,
            steps_per_txn: 5,
            hot_site_percent: hot,
            strategy: LockStrategy::TwoPhaseSync,
            ..Default::default()
        });
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            resolution: DeadlockDetection::Probe.into(),
            probe_audit: true,
            ..Default::default()
        };
        let r = run(&sys, &cfg).unwrap();
        prop_assert_eq!(r.outcome, RunOutcome::Completed);
        prop_assert!(r.audit.serializable);
        prop_assert_eq!(r.metrics.phantom_probe_aborts, 0);
    }
}
