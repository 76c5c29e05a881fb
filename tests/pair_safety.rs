//! Integration: the Theorem-2 decision procedure against the exact oracle
//! on randomized two-site workloads, across locking strategies.

use kplock::core::policy::LockStrategy;
use kplock::core::{
    decide_exhaustive, decide_two_site_system, ConflictDigraph, OracleOptions, OracleOutcome,
    SafetyVerdict,
};
use kplock::model::{Database, TxnBuilder, TxnId, TxnSystem};
use kplock::workload::{random_pair, WorkloadParams};

fn check_agreement(params: &WorkloadParams) {
    let sys = random_pair(params);
    let verdict = decide_two_site_system(&sys).expect("two sites");
    let oracle = decide_exhaustive(&sys, &OracleOptions::default());
    let oracle_safe = match oracle.outcome {
        OracleOutcome::Safe => true,
        OracleOutcome::Unsafe(_) => false,
        OracleOutcome::Aborted => return, // too big; skip
    };
    assert_eq!(
        verdict.is_safe(),
        oracle_safe,
        "Theorem 2 disagrees with the oracle (seed {}, {:?})",
        params.seed,
        params.strategy
    );
    if let SafetyVerdict::Unsafe(cert) = &verdict {
        cert.verify(&sys).expect("certificate must verify");
    }
}

#[test]
fn theorem2_agrees_with_oracle_minimal_locking() {
    for seed in 0..60 {
        check_agreement(&WorkloadParams {
            seed,
            strategy: LockStrategy::Minimal,
            sites: 2,
            entities_per_site: 2,
            steps_per_txn: 5,
            ..Default::default()
        });
    }
}

#[test]
fn theorem2_agrees_with_oracle_loose_two_phase() {
    for seed in 0..60 {
        check_agreement(&WorkloadParams {
            seed,
            strategy: LockStrategy::TwoPhaseLoose,
            sites: 2,
            entities_per_site: 2,
            steps_per_txn: 5,
            ..Default::default()
        });
    }
}

#[test]
fn sync_two_phase_is_always_safe() {
    for seed in 0..60 {
        let sys = random_pair(&WorkloadParams {
            seed,
            strategy: LockStrategy::TwoPhaseSync,
            sites: 2,
            entities_per_site: 2,
            steps_per_txn: 5,
            ..Default::default()
        });
        let verdict = decide_two_site_system(&sys).expect("two sites");
        assert!(
            verdict.is_safe(),
            "synchronized 2PL must be safe (seed {seed})"
        );
    }
}

#[test]
fn centralized_pairs_match_oracle_too() {
    // One site: the classical case; Theorem 2 degenerates to the
    // centralized strong-connectivity condition.
    for seed in 0..40 {
        check_agreement(&WorkloadParams {
            seed,
            strategy: LockStrategy::Minimal,
            sites: 1,
            entities_per_site: 3,
            steps_per_txn: 6,
            ..Default::default()
        });
    }
}

/// A safe pair whose concurrency grows with distribution: two entities at
/// site 0 locked in synchronized-2PL fashion (D complete, so safe by
/// Theorem 1) plus one private entity per transaction at each further
/// site, each a concurrent per-site chain.
fn wide_safe_pair(sites: usize) -> TxnSystem {
    let mut spec: Vec<(String, usize)> = vec![("a".into(), 0), ("b".into(), 0)];
    for s in 1..sites {
        spec.push((format!("p{s}"), s)); // private to T1
        spec.push((format!("q{s}"), s)); // private to T2
    }
    let spec_ref: Vec<(&str, usize)> = spec.iter().map(|(n, s)| (n.as_str(), *s)).collect();
    let db = Database::from_spec(&spec_ref);
    let mk = |name: &str, private: char| {
        let mut b = TxnBuilder::new(&db, name);
        b.script("La Lb a b Ua Ub").unwrap();
        for s in 1..sites {
            b.script(&format!("L{private}{s} {private}{s} U{private}{s}"))
                .unwrap();
        }
        b.build().unwrap()
    };
    let (t1, t2) = (mk("T1", 'p'), mk("T2", 'q'));
    TxnSystem::new(db, vec![t1, t2])
}

#[test]
fn oracle_states_multiply_with_site_count_while_theorem1_reads_only_d() {
    // The title question as a count. Theorem 1 proves every one of these
    // pairs safe from the two-entity digraph D alone, whatever the number
    // of sites; the oracle has to exhaust the reachable product space,
    // which each further site multiplies by 16.
    for (sites, states) in [(2, 432), (3, 6_912), (4, 110_592)] {
        let sys = wide_safe_pair(sites);
        assert!(ConflictDigraph::build(&sys, TxnId(0), TxnId(1)).is_strongly_connected());
        let report = decide_exhaustive(&sys, &OracleOptions::default());
        assert!(
            matches!(report.outcome, OracleOutcome::Safe),
            "{sites} sites"
        );
        assert_eq!(report.states_explored, states, "{sites} sites");
    }
}

#[test]
fn lemma1_extension_oracle_agrees_with_state_oracle() {
    for seed in 0..25 {
        let sys = random_pair(&WorkloadParams {
            seed,
            strategy: LockStrategy::Minimal,
            sites: 2,
            entities_per_site: 2,
            steps_per_txn: 4,
            ..Default::default()
        });
        let state = decide_exhaustive(&sys, &OracleOptions::default());
        let OracleOutcome::Safe = state.outcome else {
            // For unsafe systems check the extension oracle finds it too.
            let ext = kplock::core::decide_by_extensions(
                &sys,
                kplock::model::TxnId(0),
                kplock::model::TxnId(1),
                200_000,
            );
            if let Some(v) = ext {
                assert!(v.is_unsafe(), "seed {seed}");
                v.certificate().unwrap().verify(&sys).unwrap();
            }
            continue;
        };
        let ext = kplock::core::decide_by_extensions(
            &sys,
            kplock::model::TxnId(0),
            kplock::model::TxnId(1),
            200_000,
        );
        if let Some(v) = ext {
            assert!(v.is_safe(), "seed {seed}");
        }
    }
}
