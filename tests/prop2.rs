//! Integration: Proposition 2 (k transactions) against the exact oracle on
//! randomized centralized and two-site systems, and against the SAT
//! checker's k-transaction encoding at three and four sites.

use kplock::core::policy::LockStrategy;
use kplock::core::{
    check_safety, decide_exhaustive, proposition2, OracleOptions, OracleOutcome, Prop2Options,
    Prop2Verdict,
};
use kplock::model::TxnSystem;
use kplock::workload::{certified_mix, random_system, WorkloadParams};

fn run_case(params: &WorkloadParams) -> Option<(bool, bool)> {
    let sys = random_system(params);
    let report = proposition2(&sys, &Prop2Options::default());
    let prop2_safe = match report.verdict {
        Prop2Verdict::Safe => true,
        Prop2Verdict::UnsafePair | Prop2Verdict::UnsafeCycle => false,
        Prop2Verdict::Unknown => return None,
    };
    let oracle = decide_exhaustive(
        &sys,
        &OracleOptions {
            max_states: 4_000_000,
        },
    );
    let oracle_safe = match oracle.outcome {
        OracleOutcome::Safe => true,
        OracleOutcome::Unsafe(_) => false,
        OracleOutcome::Aborted => return None,
    };
    Some((prop2_safe, oracle_safe))
}

#[test]
fn prop2_agrees_with_oracle_centralized_three_txns() {
    let mut checked = 0;
    for seed in 0..40 {
        let params = WorkloadParams {
            seed,
            sites: 1,
            entities_per_site: 3,
            transactions: 3,
            steps_per_txn: 4,
            strategy: LockStrategy::Minimal,
            ..Default::default()
        };
        if let Some((p, o)) = run_case(&params) {
            assert_eq!(p, o, "Proposition 2 disagrees with oracle (seed {seed})");
            checked += 1;
        }
    }
    assert!(checked >= 20, "too many skipped cases ({checked} checked)");
}

#[test]
fn prop2_agrees_with_oracle_two_sites() {
    let mut checked = 0;
    for seed in 0..40 {
        let params = WorkloadParams {
            seed,
            sites: 2,
            entities_per_site: 2,
            transactions: 3,
            steps_per_txn: 4,
            strategy: LockStrategy::Minimal,
            ..Default::default()
        };
        if let Some((p, o)) = run_case(&params) {
            assert_eq!(p, o, "Proposition 2 disagrees with oracle (seed {seed})");
            checked += 1;
        }
    }
    assert!(checked >= 20, "too many skipped cases ({checked} checked)");
}

#[test]
fn sync_two_phase_systems_pass_prop2() {
    for seed in 0..20 {
        let sys = random_system(&WorkloadParams {
            seed,
            sites: 2,
            entities_per_site: 2,
            transactions: 4,
            steps_per_txn: 4,
            strategy: LockStrategy::TwoPhaseSync,
            ..Default::default()
        });
        let report = proposition2(&sys, &Prop2Options::default());
        assert_eq!(report.verdict, Prop2Verdict::Safe, "seed {seed}");
    }
}

/// Proposition 2 decides its pairs through `decide_multisite`, which ends
/// in the SAT pair path, so it is exact at any number of sites; the SAT
/// checker decides the same systems through its k-transaction encoding.
/// The two are held to each other where the oracle cannot follow: three
/// and four sites, three and four transactions, on shapes that are mostly
/// safe (synchronized 2PL and `certified_mix`), with loosely two-phase
/// systems beside them so that unsafe pairs and cycles occur too.
#[test]
fn prop2_agrees_with_the_sat_checker_at_three_and_four_sites() {
    let mut systems: Vec<TxnSystem> = Vec::new();
    for seed in 0..48u64 {
        for strategy in [LockStrategy::TwoPhaseSync, LockStrategy::TwoPhaseLoose] {
            systems.push(random_system(&WorkloadParams {
                seed,
                sites: 3 + seed as usize % 2,
                entities_per_site: 2,
                transactions: 3 + (seed as usize / 2) % 2,
                steps_per_txn: 6,
                strategy,
                ..Default::default()
            }));
        }
    }
    for (entities, certified, fallback) in [(3, 1, 2), (3, 0, 3), (4, 2, 2), (4, 0, 4), (4, 1, 2)] {
        for sites in (3..=4).filter(|&s| s <= entities) {
            systems.push(certified_mix(entities, certified, fallback, sites));
        }
    }
    let mut safe = 0;
    for (i, sys) in systems.iter().enumerate() {
        let report = proposition2(sys, &Prop2Options::default());
        let prop2_safe = match report.verdict {
            Prop2Verdict::Safe => true,
            Prop2Verdict::UnsafePair | Prop2Verdict::UnsafeCycle => false,
            Prop2Verdict::Unknown => panic!("system {i}: Proposition 2 answered Unknown"),
        };
        let check = check_safety(sys).expect("exclusive-only systems encode");
        assert_eq!(
            prop2_safe,
            check.verdict.is_safe(),
            "system {i}: Proposition 2 and the SAT checker disagree"
        );
        safe += usize::from(prop2_safe);
    }
    assert!(2 * safe > systems.len(), "{safe} of {} safe", systems.len());
}
