//! Integration: exact schedule counting against the decision procedures,
//! and the concurrency-vs-safety trade-off it quantifies.

use kplock::core::policy::LockStrategy;
use kplock::core::{
    count_schedules, decide_exhaustive, decide_two_site, OracleOptions, OracleOutcome,
};
use kplock::model::TxnId;
use kplock::workload::{random_pair, random_system, WorkloadParams};

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

/// `[Safe, Unsafe, states explored, legal, serializable, digest]` of
/// `decide_exhaustive` and `count_schedules` on 216 small systems: 1, 2 and
/// 3 sites, pairs of four steps and triples of three, the three lock
/// strategies, 12 seeds each. The digest folds, per system, the oracle's
/// outcome (0 safe, 1 unsafe, 2 aborted), its witness steps,
/// `states_explored` and `deadlock_reachable`, then the counter's
/// `(legal, serializable, deadlock_reachable)`. How the two searches walk
/// the product state space may change; what they answer must not.
const PIN_EXHAUSTIVE: [u64; 6] = [
    138,
    78,
    427_536,
    34_217_911_668_200_935,
    31_603_253_451_917_997,
    17_770_005_443_015_134_640,
];

/// FNV-1a over `words`, continuing from `digest`.
fn fold(digest: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(digest, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn exhaustive_oracle_and_counter_are_pinned() {
    let strategies = [
        LockStrategy::Minimal,
        LockStrategy::TwoPhaseLoose,
        LockStrategy::TwoPhaseSync,
    ];
    let mut got = [0u64; 6];
    got[5] = 0xcbf2_9ce4_8422_2325;
    for sites in 1..=3 {
        for (transactions, steps_per_txn) in [(2, 4), (3, 3)] {
            for strategy in strategies {
                for seed in 0..12u64 {
                    let sys = random_system(&WorkloadParams {
                        seed,
                        sites,
                        entities_per_site: 2,
                        transactions,
                        steps_per_txn,
                        strategy,
                        ..Default::default()
                    });
                    let report = decide_exhaustive(&sys, &OracleOptions::default());
                    let counts = count_schedules(&sys, 2_000_000).expect("inside the cap");
                    let mut h = match &report.outcome {
                        OracleOutcome::Safe => {
                            got[0] += 1;
                            fold(got[5], [0])
                        }
                        OracleOutcome::Unsafe(witness) => {
                            got[1] += 1;
                            let steps = witness.steps().iter();
                            let h = fold(got[5], [1]);
                            fold(
                                h,
                                steps.flat_map(|s| [s.txn.idx(), s.step.idx()].map(|w| w as u64)),
                            )
                        }
                        OracleOutcome::Aborted => panic!("aborted ({sites} sites, seed {seed})"),
                    };
                    assert_eq!(
                        counts.is_safe(),
                        matches!(report.outcome, OracleOutcome::Safe),
                        "{sites} sites, {transactions} txns, {strategy:?}, seed {seed}"
                    );
                    assert_eq!(counts.deadlock_reachable, report.deadlock_reachable);
                    got[2] += report.states_explored as u64;
                    got[3] += counts.legal as u64;
                    got[4] += counts.serializable as u64;
                    h = fold(
                        h,
                        [
                            report.states_explored as u64,
                            u64::from(report.deadlock_reachable),
                        ],
                    );
                    got[5] = fold(
                        h,
                        [
                            counts.legal as u64,
                            (counts.legal >> 64) as u64,
                            counts.serializable as u64,
                            (counts.serializable >> 64) as u64,
                            u64::from(counts.deadlock_reachable),
                        ],
                    );
                }
            }
        }
    }
    assert_eq!(got, PIN_EXHAUSTIVE);
}
