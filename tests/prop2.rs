//! Integration: Proposition 2 (k transactions) against the exact oracle on
//! randomized centralized and two-site systems, and against the SAT
//! checker's section graph at three and four sites.

use kplock::core::policy::LockStrategy;
use kplock::core::{
    check_safety, decide_exhaustive, proposition2, OracleOptions, OracleOutcome, Prop2Verdict,
};
use kplock::model::{Database, TxnBuilder, TxnSystem};
use kplock::workload::{certified_mix, random_system, ring_system, WorkloadParams};

fn run_case(params: &WorkloadParams) -> Option<(bool, bool)> {
    let sys = random_system(params);
    let verdict = proposition2(&sys);
    let prop2_safe = match verdict {
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
        let verdict = proposition2(&sys);
        assert_eq!(verdict, Prop2Verdict::Safe, "seed {seed}");
    }
}

/// Proposition 2 decides its pairs through `decide_multisite`, which ends
/// in the SAT pair path, so it is exact at any number of sites; the SAT
/// checker decides the same systems whole, over the section graph of all
/// their transactions.
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
        let verdict = proposition2(sys);
        let prop2_safe = match verdict {
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

/// Ring systems (`ring_system`) at k = 3–6, with no early release and with
/// each transaction in turn releasing early: every pair shares at most one
/// entity and is safe, so Proposition 2 decides each ring by its cycle
/// half. It is held to the SAT checker's section graph, and to
/// the prediction that a ring is safe exactly when nobody releases early,
/// so both `Safe` and `UnsafeCycle` occur.
#[test]
fn prop2_decides_rings_as_the_sat_checker() {
    for k in 3..=6 {
        for early in std::iter::once(None).chain((0..k).map(Some)) {
            let sys = ring_system(k, early);
            let verdict = proposition2(&sys);
            let check = check_safety(&sys).expect("exclusive-only systems encode");
            assert_eq!(
                verdict == Prop2Verdict::Safe,
                check.verdict.is_safe(),
                "k {k}, early {early:?}: Proposition 2 answered {verdict:?}"
            );
            let expected = match early {
                None => Prop2Verdict::Safe,
                Some(_) => Prop2Verdict::UnsafeCycle,
            };
            assert_eq!(verdict, expected, "k {k}, early {early:?}");
        }
    }
}

/// FNV-1a over words, as the other pins fold theirs.
fn fold(digest: u64, words: impl IntoIterator<Item = usize>) -> u64 {
    words.into_iter().fold(digest, |h, w| {
        (h ^ w as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The count of each `Prop2Verdict` (`Safe`, `UnsafePair`, `UnsafeCycle`,
/// `Unknown`), then one digest folding every verdict's discriminant in
/// order. The inputs are `PIN_SAT_VERDICTS`' systems with three or four
/// transactions (`tests/sat_check.rs`), then the four centralized
/// three-transaction cases of `multi_txn.rs`' unit tests, two of which
/// are the only inputs that reach `UnsafeCycle`. However Proposition 2
/// orders its work, it must answer each of these systems as it does here.
const PIN_PROP2_VERDICTS: [u64; 5] = [337, 331, 2, 0, 10_009_631_514_918_963_320];

#[test]
fn prop2_verdicts_are_pinned() {
    let strategies = [
        LockStrategy::Minimal,
        LockStrategy::TwoPhaseLoose,
        LockStrategy::TwoPhaseSync,
    ];
    let mut systems: Vec<TxnSystem> = (0..1_000usize)
        .filter(|i| i % 3 != 0)
        .map(|i| {
            random_system(&WorkloadParams {
                seed: 31_000 + i as u64,
                sites: if i % 8 == 7 { 2 } else { 3 + i % 2 },
                entities_per_site: 2,
                transactions: 2 + i % 3,
                steps_per_txn: 6 + i % 7,
                strategy: strategies[i % 3],
                ..Default::default()
            })
        })
        .collect();
    let db = Database::centralized(&["x", "y", "z"]);
    for scripts in [
        ["Lx Ly x y Ux Uy", "Ly Lz y z Uy Uz", "Lz Lx z x Uz Ux"],
        ["Lx x Ux Ly y Uy", "Ly y Uy Lz z Uz", "Lz z Uz Lx x Ux"],
        ["Lx Ly x y Ux Uy", "Ly y Uy Lz z Uz", "Lz Lx z x Uz Ux"],
        ["Lx Ly x y Uy Ux", "Ly Lz y z Uz Uy", "Lx Lz x z Ux Uz"],
    ] {
        let txns = scripts.iter().enumerate().map(|(i, s)| {
            let mut b = TxnBuilder::new(&db, format!("T{}", i + 1));
            b.script(s).unwrap();
            b.build().unwrap()
        });
        systems.push(TxnSystem::new(db.clone(), txns.collect()));
    }
    let mut got = [0, 0, 0, 0, 0xcbf2_9ce4_8422_2325];
    for sys in &systems {
        let verdict = proposition2(sys) as usize;
        got[verdict] += 1;
        got[4] = fold(got[4], [verdict]);
    }
    assert_eq!(got, PIN_PROP2_VERDICTS);
}
