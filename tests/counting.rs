//! Integration: exact schedule counting against the decision procedures,
//! and the concurrency-vs-safety trade-off it quantifies.

use kplock::core::policy::LockStrategy;
use kplock::core::{count_schedules, decide_two_site};
use kplock::model::TxnId;
use kplock::workload::{random_pair, WorkloadParams};

#[test]
fn counting_safety_agrees_with_theorem2() {
    let mut compared = 0;
    for seed in 0..40 {
        let sys = random_pair(&WorkloadParams {
            seed,
            strategy: LockStrategy::Minimal,
            sites: 2,
            entities_per_site: 2,
            steps_per_txn: 4,
            ..Default::default()
        });
        let Some(counts) = count_schedules(&sys, 2_000_000) else {
            continue;
        };
        let verdict = decide_two_site(&sys, TxnId(0), TxnId(1)).unwrap();
        assert_eq!(
            counts.is_safe(),
            verdict.is_safe(),
            "seed {seed}: counting vs Theorem 2"
        );
        compared += 1;
    }
    assert!(compared >= 30);
}

#[test]
fn sync_two_phase_never_wastes_schedules() {
    // For sync-2PL systems every legal schedule is serializable.
    for seed in 0..20 {
        let sys = random_pair(&WorkloadParams {
            seed,
            strategy: LockStrategy::TwoPhaseSync,
            sites: 2,
            entities_per_site: 2,
            steps_per_txn: 4,
            ..Default::default()
        });
        if let Some(c) = count_schedules(&sys, 2_000_000) {
            assert_eq!(c.legal, c.serializable, "seed {seed}");
            assert!((c.serializable_fraction() - 1.0).abs() < 1e-12);
        }
    }
}

#[test]
fn synchronization_only_removes_schedules() {
    // Sync-2PL is loose 2PL plus barrier precedences on the same steps, so
    // its legal-schedule set is a subset: counting must reflect that.
    for seed in 0..15 {
        let count_for = |strategy: LockStrategy| {
            let sys = random_pair(&WorkloadParams {
                seed,
                strategy,
                sites: 2,
                entities_per_site: 2,
                steps_per_txn: 4,
                ..Default::default()
            });
            count_schedules(&sys, 4_000_000).map(|c| c.legal)
        };
        let (Some(loose), Some(sync)) = (
            count_for(LockStrategy::TwoPhaseLoose),
            count_for(LockStrategy::TwoPhaseSync),
        ) else {
            continue;
        };
        assert!(sync <= loose, "seed {seed}: sync {sync} > loose {loose}");
    }
}
