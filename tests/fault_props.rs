//! The fault-injection safety harness: under *any* seeded plan of message
//! loss, duplication and reordering — and scheduled site crashes — the
//! engine's safety invariants must hold for every resolution scheme.
//!
//! Three nets catch a violation:
//!
//! * [`SimConfig::invariant_audit`] asserts the touched lock table's
//!   structural invariants after every site event — no S+X co-hold, no
//!   double-granted X, upgraders hold, nobody both holds and waits — so a
//!   duplicated grant or a bad recovery rebuild panics at the exact tick
//!   it becomes observable;
//! * the engine's abort path asserts no *committed* transaction is ever
//!   aborted — a wound, probe order, rejection or lease expiry arriving
//!   late must be dropped by the epoch/commit validation, never re-run a
//!   finished transaction (observably: `committed <= sys.len()`);
//! * completed runs must audit legal and conflict-serializable: whatever
//!   the network mangled, the committed history is still a 2PL history.
//!
//! Liveness is asserted only where the scheme guarantees it (a faulty run
//! may honestly time out); what may never happen is a *stall* under
//! retransmission, or a safety violation anywhere.

use kplock::core::policy::LockStrategy;
use kplock::sim::{
    run, DeadlockDetection, DeadlockResolution, FaultPlan, PreventionScheme, RunOutcome, SimConfig,
    SiteCrash,
};
use kplock::workload::{random_system, WorkloadParams};
use proptest::prelude::*;

/// All six resolution arms: every detector and every preventer.
const SCHEMES: [DeadlockResolution; 6] = [
    DeadlockResolution::Detect(DeadlockDetection::Periodic),
    DeadlockResolution::Detect(DeadlockDetection::OnBlock),
    DeadlockResolution::Detect(DeadlockDetection::Probe),
    DeadlockResolution::Prevent(PreventionScheme::WoundWait),
    DeadlockResolution::Prevent(PreventionScheme::WaitDie),
    DeadlockResolution::Prevent(PreventionScheme::NoWait),
];

fn system(seed: u64, sites: usize, txns: usize, read_percent: u32) -> kplock::model::TxnSystem {
    random_system(&WorkloadParams {
        seed,
        sites,
        entities_per_site: 2,
        transactions: txns,
        steps_per_txn: 5,
        read_percent,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    })
}

fn check_run(
    sys: &kplock::model::TxnSystem,
    cfg: &SimConfig,
    tag: &str,
) -> Result<(), TestCaseError> {
    // `run` panics on any invariant violation (the audit is on) or on an
    // abort of a committed transaction — both are the harness firing.
    let r = run(sys, cfg).expect("valid config");
    prop_assert!(
        r.metrics.committed <= sys.len(),
        "{tag}: a transaction committed twice"
    );
    if cfg.faults.retransmit_after > 0 {
        // A stall with retransmission on: a lost message was never retried.
        r.assert_not_stalled(cfg, tag);
    }
    if r.outcome == RunOutcome::Completed {
        prop_assert_eq!(r.metrics.committed, sys.len(), "{}", tag);
        r.audit
            .legal
            .as_ref()
            .unwrap_or_else(|e| panic!("{tag}: illegal committed history: {e}"));
        prop_assert!(
            r.audit.serializable,
            "{}: sync-2PL commits must stay serializable under faults",
            tag
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 256 seeded loss/dup/reorder plans (rates up to 0.3), each run
    /// under all six resolution schemes on a shared/exclusive sync-2PL
    /// workload. Safety must hold everywhere.
    #[test]
    fn channel_faults_never_break_safety(
        wl_seed in 0u64..500,
        fault_seed in 0u64..1000,
        sim_seed in 0u64..100,
        loss_pm in 0u32..=300,
        dup_pm in 0u32..=300,
        reorder_pm in 0u32..=300,
        sites in 2usize..4,
        txns in 2usize..5,
        read_percent in 0u32..=50,
    ) {
        let sys = system(wl_seed, sites, txns, read_percent);
        let faults = FaultPlan {
            seed: fault_seed,
            loss: f64::from(loss_pm) / 1000.0,
            duplication: f64::from(dup_pm) / 1000.0,
            reorder: f64::from(reorder_pm) / 1000.0,
            reorder_window: 8,
            retransmit_after: 80,
            ..FaultPlan::none()
        };
        for resolution in SCHEMES {
            let cfg = SimConfig {
                seed: sim_seed,
                latency: kplock::sim::LatencyModel::Fixed(4),
                resolution,
                invariant_audit: true,
                faults: faults.clone(),
                max_time: 300_000,
                ..Default::default()
            };
            check_run(&sys, &cfg, &format!(
                "wl {wl_seed} faults {fault_seed} loss {loss_pm} dup {dup_pm} reorder {reorder_pm} under {resolution:?}"
            ))?;
        }
    }

    /// Crashes on top of lossy channels: a random outage (sometimes
    /// outliving the lease ttl, so holders expire and abort) plus
    /// moderate loss/dup, across all six schemes.
    #[test]
    fn crashes_with_lease_expiry_never_break_safety(
        wl_seed in 0u64..300,
        fault_seed in 0u64..1000,
        crash_site in 0usize..2,
        crash_at in 10u64..200,
        down_for in 1u64..400,
        lease_ttl in 0u64..250,
        loss_pm in 0u32..=200,
        scheme_idx in 0usize..6,
    ) {
        let sys = system(wl_seed, 2, 3, 30);
        let faults = FaultPlan {
            seed: fault_seed,
            loss: f64::from(loss_pm) / 1000.0,
            duplication: 0.1,
            reorder: 0.1,
            reorder_window: 8,
            retransmit_after: 80,
            lease_ttl,
            crashes: vec![SiteCrash { site: crash_site, at: crash_at, down_for }],
        };
        let cfg = SimConfig {
            latency: kplock::sim::LatencyModel::Fixed(4),
            resolution: SCHEMES[scheme_idx],
            invariant_audit: true,
            faults,
            max_time: 300_000,
            ..Default::default()
        };
        check_run(&sys, &cfg, &format!(
            "wl {wl_seed} faults {fault_seed} crash@{crash_at}+{down_for} ttl {lease_ttl} under {:?}",
            SCHEMES[scheme_idx]
        ))?;
    }
}
