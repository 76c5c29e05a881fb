//! Integration: the simulator respects the theory.
//!
//! * Systems proven safe never commit a non-serializable history, under any
//!   seed/latency/victim-policy combination.
//! * Systems proven unsafe exhibit an anomaly for some timing.
//! * Runs are deterministic given a seed.

use kplock::core::policy::LockStrategy;
use kplock::core::{analyze_pair, SafetyVerdict};
use kplock::sim::{run, LatencyModel, SimConfig, VictimPolicy};
use kplock::workload::{fig1, fig3, random_pair, WorkloadParams};

#[test]
fn safe_systems_never_commit_anomalies() {
    let mut safe_checked = 0;
    for seed in 0..30 {
        let sys = random_pair(&WorkloadParams {
            seed,
            strategy: LockStrategy::TwoPhaseSync,
            sites: 2,
            entities_per_site: 2,
            steps_per_txn: 5,
            ..Default::default()
        });
        let verdict = analyze_pair(&sys).verdict;
        assert!(matches!(verdict, SafetyVerdict::Safe(_)));
        safe_checked += 1;
        for sim_seed in 0..20 {
            for policy in [VictimPolicy::Youngest, VictimPolicy::Oldest] {
                let cfg = SimConfig {
                    seed: sim_seed,
                    latency: LatencyModel::Uniform(1, 25),
                    victim_policy: policy,
                    ..Default::default()
                };
                let r = run(&sys, &cfg).expect("valid config");
                assert!(r.finished(), "workload seed {seed}, sim seed {sim_seed}");
                r.audit.legal.as_ref().unwrap();
                assert!(
                    r.audit.serializable,
                    "safe system committed an anomaly (workload {seed}, sim {sim_seed})"
                );
            }
        }
    }
    assert!(safe_checked > 0);
}

#[test]
fn fig1_exhibits_anomaly_for_some_timing() {
    let sys = fig1();
    let found = (0..400).any(|seed| {
        let cfg = SimConfig {
            seed,
            latency: LatencyModel::Uniform(1, 60),
            ..Default::default()
        };
        let r = run(&sys, &cfg).expect("valid config");
        r.assert_not_stalled(&cfg, "Fig. 1");
        r.finished() && !r.audit.serializable
    });
    assert!(
        found,
        "Fig. 1 is unsafe; some timing must commit an anomaly"
    );
}

#[test]
fn fig3_exhibits_anomaly_for_some_timing() {
    let sys = fig3();
    let found = (0..400).any(|seed| {
        let cfg = SimConfig {
            seed,
            latency: LatencyModel::Uniform(1, 60),
            ..Default::default()
        };
        let r = run(&sys, &cfg).expect("valid config");
        r.assert_not_stalled(&cfg, "Fig. 3");
        r.finished() && !r.audit.serializable
    });
    assert!(
        found,
        "Fig. 3 is unsafe; some timing must commit an anomaly"
    );
}

#[test]
fn victim_policy_ablation_both_terminate() {
    // Deadlock-heavy workload: opposite lock orders.
    let sys = random_pair(&WorkloadParams {
        seed: 5,
        strategy: LockStrategy::TwoPhaseSync,
        sites: 2,
        entities_per_site: 3,
        steps_per_txn: 6,
        ..Default::default()
    });
    for policy in [VictimPolicy::Youngest, VictimPolicy::Oldest] {
        for seed in 0..10 {
            let cfg = SimConfig {
                seed,
                latency: LatencyModel::Uniform(1, 10),
                victim_policy: policy,
                ..Default::default()
            };
            let r = run(&sys, &cfg).expect("valid config");
            assert!(r.finished(), "{policy:?} seed {seed}");
            assert!(r.audit.serializable);
        }
    }
}
