//! Property-based invariants for timestamp-ordering deadlock prevention,
//! plus fixed equivalence checks against the detection arm.
//!
//! The schemes' claim (Rosenkrantz–Stearns–Lewis) is structural: because a
//! wait is admitted only when it points the right way along the birth
//! order — old → young under wait-die, young → old under wound-wait,
//! nowhere under no-wait — the waits-for relation embeds in a strict
//! order and **no cycle can ever form**. Observably, on any workload:
//!
//! * a prevention run never reports a resolved deadlock (there is no
//!   detector and nothing for one to find), never stalls (a stall is an
//!   unbroken cycle), and spends zero probe messages;
//! * wound-wait and wait-die always complete: the globally oldest
//!   transaction can be neither wounded nor killed, so it commits, and
//!   induction finishes the rest (no-wait completes on these workloads
//!   too, but its guarantee is only probabilistic — jittered backoff);
//! * under synchronized 2PL the committed history audits serializable,
//!   exactly as under detection.

use kplock::core::policy::LockStrategy;
use kplock::sim::{run, DeadlockDetection, PreventionScheme, RunOutcome, SimConfig};
use kplock::workload::{fig5, random_system, WorkloadParams};
use proptest::prelude::*;

const SCHEMES: [PreventionScheme; 3] = [
    PreventionScheme::WoundWait,
    PreventionScheme::WaitDie,
    PreventionScheme::NoWait,
];

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

    /// No cycle ever forms: prevention runs on random multi-site sync-2PL
    /// systems complete with zero resolved deadlocks and no detection
    /// traffic, and every abort is a prevention restart.
    #[test]
    fn prevention_admits_no_cycle_and_completes(
        seed in 0u64..300,
        sim_seed in 0u64..50,
        sites in 2usize..5,
        txns in 2usize..6,
        scheme_idx in 0usize..3,
    ) {
        let sys = system(seed, sites, txns);
        let scheme = SCHEMES[scheme_idx];
        let cfg = SimConfig {
            latency: kplock::sim::LatencyModel::Uniform(1, 20),
            seed: sim_seed,
            resolution: scheme.into(),
            ..Default::default()
        };
        let r = run(&sys, &cfg).unwrap();
        // A stall is an unbroken cycle: impossible under prevention.
        r.assert_not_stalled(&cfg, format_args!("workload seed {seed}"));
        prop_assert_eq!(r.metrics.deadlocks_resolved, 0, "{:?} has no detector", scheme);
        prop_assert_eq!(r.metrics.probe_messages, 0);
        prop_assert_eq!(r.metrics.detection_latency_ticks, 0);
        prop_assert_eq!(
            r.metrics.aborts, r.metrics.prevention_restarts,
            "every abort under prevention is a prevention restart"
        );
        prop_assert!(
            r.metrics.committed <= sys.len(),
            "a transaction committed twice — an in-flight wound must not \
             abort (and re-run) an already-committed victim"
        );
        // Wound-wait and wait-die carry a hard termination guarantee.
        if scheme != PreventionScheme::NoWait {
            prop_assert_eq!(
                r.outcome,
                RunOutcome::Completed,
                "{:?} must commit everything (seed {}, sim {})",
                scheme, seed, sim_seed
            );
        }
        if r.finished() {
            prop_assert_eq!(r.metrics.committed, sys.len());
            prop_assert!(r.audit.serializable, "sync-2PL must audit clean");
        }
    }

    /// Skewed hot-site load concentrates the conflicts — the restart-heavy
    /// worst case for prevention. The invariants must hold regardless.
    #[test]
    fn prevention_survives_hot_site_skew(seed in 0u64..200, hot in 50u32..=100, scheme_idx in 0usize..3) {
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
        let scheme = SCHEMES[scheme_idx];
        let cfg = SimConfig {
            latency: kplock::sim::LatencyModel::Fixed(5),
            resolution: scheme.into(),
            ..Default::default()
        };
        let r = run(&sys, &cfg).unwrap();
        r.assert_not_stalled(&cfg, format_args!("workload seed {seed}, hot {hot}"));
        prop_assert_eq!(r.metrics.deadlocks_resolved, 0);
        if scheme != PreventionScheme::NoWait {
            prop_assert_eq!(r.outcome, RunOutcome::Completed);
        }
        if r.finished() {
            prop_assert!(r.audit.serializable);
        }
    }
}

/// On the pinned *deadlock-free* regression workloads (fig5 and the
/// seed-23 system, whose pinned detection runs resolve zero deadlocks —
/// see `tests/sim_regression.rs`), every prevention scheme must commit
/// exactly the transaction set the detector commits: everything. Where
/// the detector also never aborted, the committed *sets* agree trivially;
/// the point pinned here is that prevention introduces no spurious
/// incompleteness and stays serializable on workloads where it has
/// nothing to prevent.
#[test]
fn prevention_commits_the_detectors_transaction_set_on_deadlock_free_pins() {
    let seed23 = random_system(&WorkloadParams {
        seed: 23,
        sites: 2,
        entities_per_site: 2,
        transactions: 4,
        steps_per_txn: 6,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    });
    let cases: [(&str, kplock::model::TxnSystem, SimConfig); 2] = [
        (
            "fig5",
            fig5(),
            SimConfig {
                latency: kplock::sim::LatencyModel::Uniform(1, 9),
                seed: 3,
                ..Default::default()
            },
        ),
        (
            "seed23",
            seed23,
            SimConfig {
                latency: kplock::sim::LatencyModel::Fixed(5),
                victim_policy: kplock::sim::VictimPolicy::Oldest,
                ..Default::default()
            },
        ),
    ];
    for (name, sys, base) in cases {
        let detect = run(
            &sys,
            &SimConfig {
                resolution: DeadlockDetection::Periodic.into(),
                ..base.clone()
            },
        )
        .unwrap();
        assert!(detect.finished());
        assert_eq!(
            detect.metrics.deadlocks_resolved, 0,
            "{name} must be deadlock-free under detection for this test"
        );
        for scheme in SCHEMES {
            let prevent = run(
                &sys,
                &SimConfig {
                    resolution: scheme.into(),
                    ..base.clone()
                },
            )
            .unwrap();
            assert_eq!(
                prevent.outcome,
                RunOutcome::Completed,
                "{name} under {scheme:?}"
            );
            assert_eq!(
                prevent.metrics.committed, detect.metrics.committed,
                "{name} under {scheme:?}: same committed transaction set"
            );
            assert_eq!(prevent.metrics.deadlocks_resolved, 0);
            assert!(prevent.audit.serializable, "{name} under {scheme:?}");
        }
    }
}

/// Determinism: prevention runs replay bit-identically, like every other
/// resolution arm (same seed, same report).
#[test]
fn prevention_runs_are_deterministic() {
    let sys = system(23, 2, 4);
    for scheme in SCHEMES {
        let cfg = SimConfig {
            latency: kplock::sim::LatencyModel::Uniform(1, 20),
            seed: 9,
            resolution: scheme.into(),
            ..Default::default()
        };
        let a = run(&sys, &cfg).unwrap();
        let b = run(&sys, &cfg).unwrap();
        assert_eq!(a.metrics, b.metrics, "{scheme:?}");
        assert_eq!(a.committed_epoch, b.committed_epoch);
    }
}
