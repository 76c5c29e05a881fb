//! The triad property: three independent deciders must agree on every
//! random small system and on every system of the named corpus (the
//! exact-decision gate).
//!
//! * `decide_exhaustive` — the oracle, brute-force interleaving search;
//! * `check_safety` / `check_deadlock` — the Theorem-3-converse SAT
//!   encoding decided by our DPLL;
//! * `AvoidPlan::synthesize` — the greedy polynomial certificate, whose
//!   fully-certified verdict is a *sufficient* condition the other two
//!   must never contradict.
//!
//! On top of verdict agreement, every `Unsafe` answer must carry a
//! witness that replays through the per-site lock tables to a legal,
//! non-serializable history, and every deadlock answer a prefix that
//! replays to a waits-for cycle — the SAT checker never gets to be
//! "right" by accident.

use kplock::core::policy::LockStrategy;
use kplock::core::{
    check_deadlock, check_safety, decide_exhaustive, synthesize_optimal, OracleOptions,
    OracleOutcome, SatSafety,
};
use kplock::model::{Database, SiteId, Step, StepId, Transaction, TxnBuilder, TxnId, TxnSystem};
use kplock::sim::{replay_deadlock, replay_violation, AvoidPlan};
use kplock::workload::{
    certified_mix, opposed_mix, random_pair, random_system, regression_corpus, WorkloadParams,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Holds `sys` to all three deciders at once. `expected_safe` is the
/// verdict known a priori, where there is one; `expect_gap` demands that
/// the optimum certify strictly more than greedy.
fn cross_examine(
    sys: &TxnSystem,
    expected_safe: Option<bool>,
    expect_gap: bool,
) -> Result<(), TestCaseError> {
    let safety = check_safety(sys).expect("exclusive-only systems must encode");
    let deadlock = check_deadlock(sys).expect("exclusive-only systems must encode");
    if let Some(expected) = expected_safe {
        prop_assert_eq!(safety.verdict.is_safe(), expected, "pinned expectation");
    }

    // Every verdict ships replayable evidence.
    if let SatSafety::Unsafe(witness) = &safety.verdict {
        let audit = replay_violation(sys, witness)
            .map_err(|e| TestCaseError::fail(format!("witness must replay: {e}")))?;
        prop_assert!(audit.legal.is_ok());
        prop_assert!(!audit.serializable);
    }
    if let Some(prefix) = &deadlock.deadlock {
        let evidence = replay_deadlock(sys, prefix)
            .map_err(|e| TestCaseError::fail(format!("prefix must replay: {e}")))?;
        prop_assert!(evidence.cycle.len() >= 2);
    }

    // Oracle cross-examination, wherever it finishes.
    let report = decide_exhaustive(sys, &OracleOptions::default());
    match report.outcome {
        OracleOutcome::Safe => {
            prop_assert!(safety.verdict.is_safe(), "oracle safe, SAT unsafe");
            // A completed Safe exploration also decides deadlock
            // reachability exactly.
            prop_assert_eq!(
                deadlock.deadlock.is_some(),
                report.deadlock_reachable,
                "deadlock verdicts disagree"
            );
        }
        OracleOutcome::Unsafe(_) => {
            prop_assert!(!safety.verdict.is_safe(), "oracle unsafe, SAT safe");
        }
        OracleOutcome::Aborted => {}
    }

    // Greedy is a sufficient condition: a fully-certified plan means
    // no reachable deadlock and (under sync-2PL) safety; the exact
    // deciders must not contradict it.
    let greedy = AvoidPlan::synthesize(sys);
    prop_assert!(greedy.verify(sys).is_ok());
    if greedy.fully_certified() {
        prop_assert!(
            deadlock.deadlock.is_none(),
            "certified set reached a deadlock"
        );
    }

    // And the iterated-SAT optimum dominates greedy, verifiably.
    let opt = synthesize_optimal(sys);
    prop_assert!(opt.optimal_count >= opt.greedy_count);
    prop_assert_eq!(opt.greedy_count, greedy.certified_count());
    prop_assert!(opt.plan.verify(sys).is_ok());
    if expect_gap {
        prop_assert!(
            opt.optimal_count > opt.greedy_count,
            "expected a strict greedy-vs-optimal gap"
        );
    }
    Ok(())
}

/// `n` copies of "lock x, unlock it, then lock y": unsafe for `n ≥ 2`,
/// never deadlocked.
fn early_unlock(n: usize) -> TxnSystem {
    let db = Database::from_spec(&[("x", 0), ("y", 1)]);
    let txns = (0..n)
        .map(|i| {
            let mut b = TxnBuilder::new(&db, format!("E{i}"));
            b.script("Lx x Ux Ly y Uy").expect("script");
            b.build().expect("acyclic")
        })
        .collect();
    TxnSystem::new(db, txns)
}

/// The exact-decision gate's corpus: `(name, system, expected safety,
/// expect a greedy-vs-optimal gap)`.
fn gate_corpus() -> Vec<(String, TxnSystem, Option<bool>, bool)> {
    let mut cases: Vec<(String, TxnSystem, Option<bool>, bool)> = regression_corpus()
        .into_iter()
        .map(|ns| (ns.name.to_string(), ns.sys, ns.expected_safe, false))
        .collect();
    // Synchronized 2PL: safe (deadlock-prone, but every complete schedule
    // serializable), and greedy certifies the lone ascender where the
    // optimum certifies the `k` descenders.
    for k in 2..=5 {
        let name = format!("opposed(1+{k})");
        cases.push((name, opposed_mix(k, 2), Some(true), true));
    }
    for (entities, certified, fallback) in [(3, 1, 2), (3, 0, 3), (4, 2, 2), (4, 0, 4)] {
        let name = format!("mix(e{entities},c{certified},f{fallback})");
        let sys = certified_mix(entities, certified, fallback, 2);
        cases.push((name, sys, Some(true), false));
    }
    cases
}

/// The exact-decision gate: the named corpus, every system held to its
/// pinned expectation and to `cross_examine`.
#[test]
fn exact_decision_gate_holds_on_the_full_corpus() {
    let mut cases = gate_corpus();
    assert_eq!(cases.len(), 27);
    // One transaction more than the oracle's encoding holds: the checker
    // alone decides it.
    cases.push(("earlyunlock(9)".into(), early_unlock(9), Some(false), false));
    for (name, sys, expected_safe, expect_gap) in &cases {
        cross_examine(sys, *expected_safe, *expect_gap).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// `sys` with a third transaction that has no step: it shares no entity,
/// so the padded system is safe and deadlocks exactly when `sys` is and
/// does. Its safety formula keeps the selectors that a pair's folds into
/// two clauses.
fn padded(sys: &TxnSystem) -> TxnSystem {
    let empty = TxnBuilder::new(sys.db(), "pad")
        .build()
        .expect("an empty transaction");
    let mut txns = sys.txns().to_vec();
    txns.push(empty);
    TxnSystem::new(sys.db().clone(), txns)
}

/// Holds both checks on the pair `sys` to the same checks on
/// `padded(sys)`: equal verdicts, and every witness replays to a
/// violation and every prefix to a waits-for cycle. Returns whether the
/// pair deadlocks.
fn pair_and_padded_decide_alike(sys: &TxnSystem, name: &str) -> bool {
    assert_eq!(sys.len(), 2, "{name}");
    let pad = padded(sys);
    let [pair, padded] = [sys, &pad].map(|s| {
        let safety = check_safety(s).unwrap_or_else(|e| panic!("{name}: {e}"));
        let deadlock = check_deadlock(s).unwrap_or_else(|e| panic!("{name}: {e}"));
        if let SatSafety::Unsafe(witness) = &safety.verdict {
            let audit = replay_violation(s, witness)
                .unwrap_or_else(|e| panic!("{name}: witness must replay: {e}"));
            assert!(audit.legal.is_ok() && !audit.serializable, "{name}");
        }
        if let Some(prefix) = &deadlock.deadlock {
            let evidence = replay_deadlock(s, prefix)
                .unwrap_or_else(|e| panic!("{name}: prefix must replay: {e}"));
            assert!(evidence.cycle.len() >= 2, "{name}");
        }
        [safety.verdict.is_safe(), deadlock.deadlock.is_some()]
    });
    assert_eq!(pair, padded, "{name}: [safe, deadlocks] disagree");
    pair[1]
}

/// A pair and the pair plus an empty transaction decide alike on 1 000
/// random pairs over two to six sites and on every pair of the gate's
/// corpus.
#[test]
fn a_pair_and_the_pair_plus_an_empty_transaction_decide_alike() {
    let strategies = [
        LockStrategy::Minimal,
        LockStrategy::TwoPhaseLoose,
        LockStrategy::TwoPhaseSync,
    ];
    let mut deadlocks = 0;
    for i in 0..1_000usize {
        let sys = random_pair(&WorkloadParams {
            seed: 47_000 + i as u64,
            sites: 2 + i % 5,
            entities_per_site: 2 + (i / 5) % 2,
            steps_per_txn: 6 + (i / 10) % 9,
            strategy: strategies[i % 3],
            ..Default::default()
        });
        deadlocks += usize::from(pair_and_padded_decide_alike(
            &sys,
            &format!("random pair {i}"),
        ));
    }
    // Both verdicts occur often enough to test.
    assert!((100..900).contains(&deadlocks), "{deadlocks} deadlock");
    let mut pairs = 0;
    for (name, sys, _, _) in gate_corpus() {
        if sys.len() == 2 {
            pair_and_padded_decide_alike(&sys, &name);
            pairs += 1;
        }
    }
    assert!(pairs > 0);
}

/// T0 locks `x` then `y`, T1 `y` then `x`, and each runs `pad` lock
/// sections of entities no one else locks, at a site of its own, between
/// its two locks.
fn opposed_core(pad: usize) -> TxnSystem {
    let mut spec = vec![("x".to_string(), 0), ("y".to_string(), 1)];
    for i in 0..pad {
        spec.push((format!("p{i}"), 2));
        spec.push((format!("q{i}"), 3));
    }
    let spec: Vec<(&str, usize)> = spec.iter().map(|(e, s)| (e.as_str(), *s)).collect();
    let db = Database::from_spec(&spec);
    let sections = |p: char| {
        (0..pad)
            .map(|i| format!("L{p}{i} {p}{i} U{p}{i}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let scripts = [
        format!("Lx x {} Ly y Ux Uy", sections('p')),
        format!("Ly y {} Lx x Uy Ux", sections('q')),
    ];
    let txns = scripts
        .iter()
        .enumerate()
        .map(|(i, script)| {
            let mut b = TxnBuilder::new(&db, format!("T{i}"));
            b.script(script).expect("script");
            b.build().expect("acyclic")
        })
        .collect();
    TxnSystem::new(db, txns)
}

/// The deadlock check's formula on a pair is over the milestones of the two
/// shared entities: padding each transaction with 8 or 64 private lock
/// sections leaves its variables (`5n`) and clauses as they are, and the
/// verdict too. The prefix runs every private section,
/// since none can be blocked.
#[test]
fn the_deadlock_pair_formula_does_not_grow_with_private_sections() {
    let n = 2;
    let mut sizes = Vec::new();
    for pad in [0, 8, 64] {
        let sys = opposed_core(pad);
        assert_eq!(sys.txn(TxnId(0)).len(), 6 + 3 * pad);
        let dl = check_deadlock(&sys).unwrap();
        assert_eq!(dl.stats.vars, 5 * n, "pad {pad}");
        sizes.push((dl.stats.vars, dl.stats.clauses));
        let prefix = dl.deadlock.expect("opposed lock orders deadlock");
        assert_eq!(prefix.len(), 2 * (2 + 3 * pad), "pad {pad}");
        let evidence = replay_deadlock(&sys, &prefix).expect("the prefix replays");
        assert_eq!(evidence.cycle.len(), 2);
    }
    assert!(sizes.windows(2).all(|w| w[0] == w[1]), "{sizes:?}");
}

/// `sys`, a pair, with a chain of up to eight lock sections added to each
/// transaction on entities of its own at a site of its own, keeping it
/// within 24 steps. The chain hangs after a random step, or after none,
/// and half the time leads into a random step that does not precede that
/// one, so a path between two milestones may run through it.
fn with_private_tails(sys: &TxnSystem, rng: &mut StdRng) -> TxnSystem {
    let mut db = sys.db().clone();
    let sites = db.site_count();
    let mut txns = Vec::new();
    for (i, t) in sys.txns().iter().enumerate() {
        let mut steps = t.steps().to_vec();
        let mut edges: Vec<(StepId, StepId)> = t
            .edge_graph()
            .edges()
            .map(|(u, v)| (StepId::from_idx(u), StepId::from_idx(v)))
            .collect();
        let after = rng
            .gen_bool(0.8)
            .then(|| StepId::from_idx(rng.gen_range(0..t.len())));
        let mut last = after;
        for k in 0..rng.gen_range(0..=24usize.saturating_sub(t.len()) / 3) {
            let e = db.add_entity(&format!("tail{i}_{k}"), SiteId::from_idx(sites + i));
            for step in [Step::lock(e), Step::update(e), Step::unlock(e)] {
                let id = StepId::from_idx(steps.len());
                steps.push(step);
                edges.extend(last.map(|l| (l, id)));
                last = Some(id);
            }
        }
        let into = StepId::from_idx(rng.gen_range(0..t.len()));
        if steps.len() > t.len()
            && rng.gen_bool(0.5)
            && after.is_none_or(|a| !t.precedes_eq(into, a))
        {
            edges.push((last.expect("a tail"), into));
        }
        txns.push(Transaction::new(t.name(), steps, edges).expect("acyclic"));
    }
    TxnSystem::new(db, txns)
}

/// The deadlock check on 1 000 random pairs over two to five sites with
/// long private tails: it decides as on the padded pair, its prefixes
/// replay, and wherever the oracle finishes it decides as the oracle too.
#[test]
fn the_deadlock_pair_path_decides_pairs_with_private_tails() {
    let strategies = [
        LockStrategy::Minimal,
        LockStrategy::TwoPhaseLoose,
        LockStrategy::TwoPhaseSync,
    ];
    let oracle = OracleOptions { max_states: 20_000 };
    let (mut deadlocks, mut oracle_decided) = (0, 0);
    for i in 0..1_000usize {
        let base = random_pair(&WorkloadParams {
            seed: 52_000 + i as u64,
            sites: 2 + i % 4,
            entities_per_site: 2,
            steps_per_txn: 2 + (i / 4) % 4,
            strategy: strategies[i % 3],
            ..Default::default()
        });
        let sys = with_private_tails(&base, &mut StdRng::seed_from_u64(i as u64));
        assert!(sys.txns().iter().all(|t| t.len() <= 24));
        let name = format!("tailed pair {i}");
        let deadlock = pair_and_padded_decide_alike(&sys, &name);
        deadlocks += usize::from(deadlock);
        let report = decide_exhaustive(&sys, &oracle);
        match report.outcome {
            OracleOutcome::Safe => {
                assert_eq!(deadlock, report.deadlock_reachable, "{name}");
                oracle_decided += 1;
            }
            OracleOutcome::Unsafe(_) if report.deadlock_reachable => {
                assert!(deadlock, "{name}");
                oracle_decided += 1;
            }
            _ => {}
        }
    }
    assert!((100..900).contains(&deadlocks), "{deadlocks} deadlock");
    assert!(oracle_decided >= 500, "the oracle decided {oracle_decided}");
}

/// T0 locks `x` (site 0), then `y` (site 1), two-phase, and its only path
/// from `x`'s section to `y`'s lock runs through a section of `p` at a
/// third site that no one else locks. T1 locks the same two entities in
/// the opposite order. The oracle finds the pair safe and deadlock-prone.
/// Only the path through `p` orders T0's lock of `x` before its lock of
/// `y`; an order that forgot it would let T0 release `y` before locking
/// `x` and fit all of T1 between the two.
#[test]
fn a_path_through_a_private_section_orders_the_shared_ones() {
    let db = Database::from_spec(&[("x", 0), ("y", 1), ("p", 2)]);
    let t0 = {
        let mut b = TxnBuilder::new(&db, "T0");
        let lx = b.lock("x").unwrap();
        let x = b.update("x").unwrap();
        let lp = b.lock("p").unwrap();
        b.update("p").unwrap();
        let up = b.unlock("p").unwrap();
        let ly = b.lock("y").unwrap();
        b.update("y").unwrap();
        let uy = b.unlock("y").unwrap();
        let ux = b.unlock("x").unwrap();
        b.edge(x, lp).edge(up, ly).edge(uy, ux);
        let t = b.build().unwrap();
        assert!(t.precedes(lx, ly));
        t
    };
    let t1 = {
        let mut b = TxnBuilder::new(&db, "T1");
        b.script("Ly Lx y x Uy Ux").unwrap();
        b.build().unwrap()
    };
    let sys = TxnSystem::new(db, vec![t0, t1]);
    let report = decide_exhaustive(&sys, &OracleOptions::default());
    assert!(matches!(report.outcome, OracleOutcome::Safe));
    assert!(report.deadlock_reachable);
    cross_examine(&sys, Some(true), false).unwrap();
    // Padded, the safety check runs its selectors; on both, the section
    // graph reads the path through `p` off `precedes`.
    cross_examine(&padded(&sys), Some(true), false).unwrap();
}

/// What the checker answers and spends on 128 pairs drawn as the
/// benchmark's `analysis_sat` draws them: `[vars, clauses, decisions,
/// propagations, witnesses, witness digest]` summed over `check_safety`,
/// then over `check_deadlock` (every input a pair, so each row is a pair
/// path). The solver is deterministic, so a change
/// to how formulas or clauses are stored must leave every figure as it is.
const PIN_SAT_EFFORT: [[u64; 6]; 2] = [
    [474, 989, 222, 405, 82, 11_535_314_434_218_933_127],
    [2_370, 6_516, 581, 4_372, 57, 1_613_014_049_526_198_663],
];

/// `[optimal, greedy, sat_calls, certified digest]` summed over
/// `synthesize_optimal` on `opposed_mix(2..=6, 2)` and four
/// `certified_mix` systems.
const PIN_OPTIMAL: [u64; 4] = [27, 12, 24, 12_300_642_475_212_287_261];

/// FNV-1a over `words`, continuing from `digest`.
fn fold(digest: u64, words: impl IntoIterator<Item = usize>) -> u64 {
    words.into_iter().fold(digest, |h, w| {
        (h ^ w as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn checker_effort_on_benchmark_shaped_pairs_is_pinned() {
    let strategies = [
        LockStrategy::Minimal,
        LockStrategy::TwoPhaseLoose,
        LockStrategy::TwoPhaseSync,
    ];
    let mut got = [[0u64; 6]; 2];
    for i in 0..128usize {
        let sys = random_pair(&WorkloadParams {
            seed: 31_000 + i as u64,
            sites: if i % 8 == 7 { 2 } else { 3 + i % 2 },
            entities_per_site: 2,
            steps_per_txn: 6 + i % 7,
            strategy: strategies[i % 3],
            ..Default::default()
        });
        let safety = check_safety(&sys).expect("exclusive-only pairs encode");
        let deadlock = check_deadlock(&sys).expect("exclusive-only pairs encode");
        let unsafe_witness = match &safety.verdict {
            SatSafety::Unsafe(w) => Some(w),
            SatSafety::Safe => None,
        };
        for (row, stats, witness) in [
            (0, safety.stats, unsafe_witness),
            (1, deadlock.stats, deadlock.deadlock.as_ref()),
        ] {
            let r = &mut got[row];
            r[0] += stats.vars as u64;
            r[1] += stats.clauses as u64;
            r[2] += stats.decisions;
            r[3] += stats.propagations;
            if let Some(w) = witness {
                r[4] += 1;
                r[5] = fold(
                    r[5],
                    w.steps().iter().flat_map(|s| [s.txn.idx(), s.step.idx()]),
                );
            }
        }
    }
    assert_eq!(got, PIN_SAT_EFFORT);

    let mut systems: Vec<TxnSystem> = (2..=6).map(|d| opposed_mix(d, 2)).collect();
    for (entities, certified, fallback) in [(3, 1, 2), (3, 0, 3), (4, 2, 2), (4, 0, 4)] {
        systems.push(certified_mix(entities, certified, fallback, 2));
    }
    let mut optimal = [0u64; 4];
    for sys in &systems {
        let opt = synthesize_optimal(sys);
        optimal[0] += opt.optimal_count as u64;
        optimal[1] += opt.greedy_count as u64;
        optimal[2] += opt.sat_calls as u64;
        optimal[3] = fold(optimal[3], opt.plan.certified().iter().map(|t| t.idx()));
    }
    assert_eq!(optimal, PIN_OPTIMAL);
}

/// `[unsafe, deadlocking, verdict digest]` over 1 000 systems of two to
/// four transactions drawn as `PIN_SAT_EFFORT`'s pairs are: the digest
/// folds each system's (safe, deadlock) bits in order. Only the verdicts
/// are pinned, so any encoding that decides the same systems the same way
/// leaves every figure as it is.
const PIN_SAT_VERDICTS: [u64; 3] = [645, 626, 8_743_685_319_548_111_453];

#[test]
fn checker_verdicts_on_benchmark_shaped_systems_are_pinned() {
    let strategies = [
        LockStrategy::Minimal,
        LockStrategy::TwoPhaseLoose,
        LockStrategy::TwoPhaseSync,
    ];
    let mut got = [0u64; 3];
    for i in 0..1_000usize {
        let sys = random_system(&WorkloadParams {
            seed: 31_000 + i as u64,
            sites: if i % 8 == 7 { 2 } else { 3 + i % 2 },
            entities_per_site: 2,
            transactions: 2 + i % 3,
            steps_per_txn: 6 + i % 7,
            strategy: strategies[i % 3],
            ..Default::default()
        });
        let safe = check_safety(&sys)
            .expect("exclusive-only systems encode")
            .verdict
            .is_safe();
        let deadlock = check_deadlock(&sys)
            .expect("exclusive-only systems encode")
            .deadlock
            .is_some();
        got[0] += u64::from(!safe);
        got[1] += u64::from(deadlock);
        got[2] = fold(got[2], [usize::from(safe), usize::from(deadlock)]);
    }
    assert_eq!(got, PIN_SAT_VERDICTS);
}

/// `[witnesses, witness digest, solves]` for `check_safety`, then for
/// `check_deadlock`, over the systems of `PIN_SAT_VERDICTS`'s 1 000 that
/// have three or four transactions, folded as `PIN_SAT_EFFORT`'s are: the
/// witnesses of three or more transactions, which no other pin sees, and
/// the solver runs, one per system that needs solving and one more per
/// cut.
const PIN_K_WITNESSES: [[u64; 3]; 2] = [
    [331, 11_161_975_981_223_436_034, 3_487],
    [528, 17_904_793_145_831_910_184, 666],
];

#[test]
fn k_transaction_witnesses_are_pinned() {
    let strategies = [
        LockStrategy::Minimal,
        LockStrategy::TwoPhaseLoose,
        LockStrategy::TwoPhaseSync,
    ];
    let mut got = [[0u64; 3]; 2];
    for i in (0..1_000usize).filter(|i| i % 3 != 0) {
        let sys = random_system(&WorkloadParams {
            seed: 31_000 + i as u64,
            sites: if i % 8 == 7 { 2 } else { 3 + i % 2 },
            entities_per_site: 2,
            transactions: 2 + i % 3,
            steps_per_txn: 6 + i % 7,
            strategy: strategies[i % 3],
            ..Default::default()
        });
        assert!(sys.len() >= 3);
        let safety = check_safety(&sys).expect("exclusive-only systems encode");
        let deadlock = check_deadlock(&sys).expect("exclusive-only systems encode");
        let unsafe_witness = match &safety.verdict {
            SatSafety::Unsafe(w) => Some(w),
            SatSafety::Safe => None,
        };
        for (row, stats, witness) in [
            (0, safety.stats, unsafe_witness),
            (1, deadlock.stats, deadlock.deadlock.as_ref()),
        ] {
            if let Some(w) = witness {
                got[row][0] += 1;
                got[row][1] = fold(
                    got[row][1],
                    w.steps().iter().flat_map(|s| [s.txn.idx(), s.step.idx()]),
                );
            }
            got[row][2] += stats.solves;
        }
    }
    assert_eq!(got, PIN_K_WITNESSES);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Oracle, SAT checker, and greedy plan agree on random systems; SAT
    /// witnesses replay to real violations/stalls. Sizes stay modest not
    /// for the solver's sake (clause learning handles far bigger) but for
    /// the oracle's: it explores interleavings outright, and the triad
    /// only bites where the oracle actually finishes.
    #[test]
    fn oracle_sat_and_greedy_agree(
        seed in 0u64..10_000,
        sites in 1usize..4,
        txns in 2usize..5,
        steps_per_txn in 4usize..7,
        strategy_idx in 0usize..3,
    ) {
        let strategy = [
            LockStrategy::Minimal,
            LockStrategy::TwoPhaseLoose,
            LockStrategy::TwoPhaseSync,
        ][strategy_idx];
        let sys = random_system(&WorkloadParams {
            seed,
            sites,
            entities_per_site: 2,
            transactions: txns,
            steps_per_txn,
            cross_edge_percent: 20,
            read_percent: 0, // exclusive-only: the checker's domain
            strategy,
            ..Default::default()
        });
        cross_examine(&sys, None, false)?;
    }
}
