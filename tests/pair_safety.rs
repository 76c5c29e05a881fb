//! Integration: the Theorem-2 decision procedure against the exact oracle
//! on randomized two-site workloads, across locking strategies.

use kplock::core::closure::{close_wrt_dominator, try_unsafety_via_dominator, ClosureError};
use kplock::core::policy::{centralized_image_safe, LockStrategy};
use kplock::core::{
    analyze_pair, check_safety, count_schedules, decide_by_extensions, decide_exhaustive,
    decide_multisite, decide_two_site, proposition2, reduce, ConflictDigraph, MultisiteOptions,
    OracleOptions, OracleOutcome, Prop2Verdict, SafeProof, SafetyVerdict, TwoSiteError,
};
use kplock::graph::{enumerate_dominators, find_dominator};
use kplock::model::{Database, EntityId, TxnBuilder, TxnId, TxnSystem};
use kplock::sat::solve;
use kplock::workload::{
    fig8_formula, random_instance, random_pair, unsat_restricted, WorkloadParams,
};
use proptest::prelude::*;

fn check_agreement(params: &WorkloadParams) {
    let sys = random_pair(params);
    let verdict = decide_two_site(&sys, TxnId(0), TxnId(1)).expect("two sites");
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
        let verdict = decide_two_site(&sys, TxnId(0), TxnId(1)).expect("two sites");
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

/// `T0` locks `x` and never unlocks it; `TxnBuilder` accepts that, and
/// `D(T0, T1)` is not defined. Every pair decision answers instead of
/// panicking, at one, two and three sites: `Unknown`, or for Theorem 2 a
/// typed error; so do Lemma 1's deciders and the dominator closure.
#[test]
fn a_pair_without_an_unlock_step_is_answered_not_a_panic() {
    for sites in [[0, 0, 0], [0, 1, 1], [0, 1, 2]] {
        let db = Database::from_spec(&[("x", sites[0]), ("y", sites[1]), ("z", sites[2])]);
        let txns = ["Lx x Ly y Uy", "Ly y Uy Lx x Ux"].map(|s| {
            let mut b = TxnBuilder::new(&db, "T");
            b.script(s).unwrap();
            b.build().unwrap()
        });
        let sys = TxnSystem::new(db, txns.to_vec());
        let analysis = analyze_pair(&sys);
        assert!(matches!(analysis.verdict, SafetyVerdict::Unknown));
        assert!(analysis.d.entities.is_empty());
        let m = sys.db().site_count();
        let expected = if m <= 2 {
            TwoSiteError::IllFormed
        } else {
            TwoSiteError::TooManySites(m)
        };
        let err = decide_two_site(&sys, TxnId(0), TxnId(1)).err();
        assert_eq!(err, Some(expected));
        let options = MultisiteOptions::default();
        let v = decide_multisite(&sys, TxnId(0), TxnId(1), &options);
        assert!(matches!(v, SafetyVerdict::Unknown));
        assert_eq!(proposition2(&sys), Prop2Verdict::Unknown);
        let v = decide_by_extensions(&sys, TxnId(0), TxnId(1), 1_000);
        assert!(matches!(v, Some(SafetyVerdict::Unknown)));
        let v = centralized_image_safe(&sys, 1_000);
        assert!(matches!(v, Some(SafetyVerdict::Unknown)));
        let x = sys.db().entity("x").unwrap();
        let closed = close_wrt_dominator(&sys, TxnId(0), TxnId(1), &[x]);
        assert_eq!(closed.err(), Some(ClosureError::IllFormed));
        let report = decide_exhaustive(&sys, &OracleOptions::default());
        assert!(matches!(report.outcome, OracleOutcome::Aborted));
        assert_eq!(report.states_explored, 0);
        assert_eq!(count_schedules(&sys, 1_000_000), None);
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

/// `[TrivialOverlap, StronglyConnected, Unsafe, digest]` over 256 pairs
/// drawn as the benchmark's `analysis_poly` draws its two-site pairs
/// ([`poly_pairs`]): two sites, 8, 16, 32 and 64 steps (64 seeds each),
/// the three lock strategies in turn. The digest folds, per pair, `D`'s
/// entities and every successor and predecessor list in order, then each
/// unsafe verdict's dominator, `t1_order`, `t2_order` and schedule. How
/// `D`, the witness and the certificate are computed may change; what they
/// answer must not.
const PIN_TWO_SITE: [u64; 4] = [0, 133, 123, 8_953_844_291_730_035_676];

/// [`PIN_TWO_SITE`]'s pairs with Corollary 2's closure in the place of
/// Theorem 2's witness: on each unsafe pair the closure with respect to
/// `find_dominator`'s `X` succeeds (Lemma 3), and
/// `try_unsafety_via_dominator`'s certificate for `X` is folded where the
/// verdict's is, as [`PIN_TWO_SITE`] folds. How the closure is computed may
/// change; what it answers must not.
const PIN_TWO_SITE_CLOSURE: [u64; 4] = [0, 133, 123, 4_473_012_567_045_643_842];

/// The title question as a curve: what the SAT pair path spends deciding
/// Theorem 3's pairs, against [`PIN_TWO_SITE`]'s pairs, which Theorem 2
/// decides in `O(n²)` without a solver. Per formula size `(v, c)` of
/// `reduce(random_instance(seed, v, c))`, summed over seeds 0, 1 and 2:
/// `[v, c, shared entities, unsafe pairs, vars, clauses, decisions,
/// propagations, solves]` of `check_safety`, which takes the pair path.
/// Every one of these formulas is satisfiable, so every pair unsafe. The
/// formula has one variable per shared entity and one clause per 2-cycle
/// of the section graph, plus one per cut: each solve after a pair's first
/// follows a cut.
const PIN_PAIR_PATH_CURVE: [[u64; 9]; 4] = [
    [4, 3, 132, 3, 132, 180, 227, 1_116, 17],
    [6, 5, 208, 3, 208, 280, 465, 2_384, 23],
    [8, 8, 288, 3, 288, 384, 786, 4_145, 29],
    [12, 10, 385, 3, 385, 517, 1_715, 8_132, 42],
];

/// `[Safe, Unsafe, Unknown, digest]` of `decide_multisite` on the
/// reductions of `random_instance(seed, 4, 3)` for 12 seeds — the
/// formula size `analysis_sat` times — then of the Fig. 8 formula and of
/// `unsat_restricted`, whose pair is safe and which only the pair path
/// proves so. The digest folds each verdict's kind and proof, and each
/// certificate as [`PIN_TWO_SITE`] does; the 13 certificates come from the
/// pair path's witnesses.
const PIN_MULTISITE: [u64; 4] = [1, 13, 0, 2_090_196_364_374_900_659];

/// `[Safe, Unsafe, Unknown, digest]` of `decide_multisite` on the
/// reductions of `random_instance(seed, 5, 4)` for seeds 0 to 5, the next
/// size up from [`PIN_MULTISITE`]'s and the one `analysis_sat` traces as
/// `v5c4`, folded as [`PIN_MULTISITE`] folds its verdicts.
const PIN_MULTISITE_V5C4: [u64; 4] = [0, 6, 0, 7_383_531_995_164_486_363];

/// The closure round by round, on the reductions of
/// `random_instance(seed, 5, 4)` for seeds 0 to 5: for each of the first
/// 64 dominators of `D` (in enumeration order), `[dominators, closed,
/// cycles, DominatorBroken, certificates, digest]`. The cycles column is 0:
/// a required precedence never closes a cycle, so no error names one. The
/// digest folds the dominator, `close_wrt_dominator`'s result kind,
/// `added_a` and `added_b` in order, and
/// `try_unsafety_via_dominator`'s certificate as [`PIN_TWO_SITE`] folds
/// one. How the closure is computed may change; what it adds, in what
/// order, and where it fails must not.
const PIN_CLOSURE: [u64; 6] = [384, 3, 0, 381, 3, 12_117_069_929_690_145_020];

/// FNV-1a over `words`, continuing from `digest`.
fn fold(digest: u64, words: impl IntoIterator<Item = usize>) -> u64 {
    words.into_iter().fold(digest, |h, w| {
        (h ^ w as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fold_digraph(h: u64, d: &ConflictDigraph) -> u64 {
    let mut h = fold(h, d.entities.iter().map(|e| e.idx()));
    for v in 0..d.graph.node_count() {
        h = fold(h, [usize::MAX]);
        h = fold(h, d.graph.successors(v).iter().copied());
        h = fold(h, [usize::MAX - 1]);
        h = fold(h, d.graph.predecessors(v).iter().copied());
    }
    h
}

fn fold_verdict(h: u64, v: &SafetyVerdict) -> u64 {
    match v {
        SafetyVerdict::Safe(proof) => fold(h, [1, *proof as usize]),
        SafetyVerdict::Unknown => fold(h, [3]),
        SafetyVerdict::Unsafe(cert) => {
            let mut h = fold(h, [2, cert.txn_a.idx(), cert.txn_b.idx()]);
            h = fold(h, cert.dominator.iter().map(|e| e.idx()));
            h = fold(h, cert.t1_order.iter().map(|s| s.idx()));
            h = fold(h, cert.t2_order.iter().map(|s| s.idx()));
            fold(
                h,
                cert.schedule
                    .steps()
                    .iter()
                    .flat_map(|s| [s.txn.idx(), s.step.idx()]),
            )
        }
    }
}

/// `sites`-site pairs at each of `step_counts`, 64 seeds each, drawn as
/// the benchmark's `analysis_poly` draws its two-site pairs: a quarter as
/// many entities per site as steps (at least two), the three lock
/// strategies in turn. Each comes with a description for messages.
fn poly_pairs(
    sites: usize,
    step_counts: &[usize],
) -> impl Iterator<Item = (TxnSystem, String)> + '_ {
    let strategies = [
        LockStrategy::Minimal,
        LockStrategy::TwoPhaseLoose,
        LockStrategy::TwoPhaseSync,
    ];
    step_counts.iter().flat_map(move |&steps| {
        (0..64u64).map(move |seed| {
            let sys = random_pair(&WorkloadParams {
                seed,
                sites,
                entities_per_site: (steps / 4).max(2),
                steps_per_txn: steps,
                strategy: strategies[seed as usize % 3],
                ..Default::default()
            });
            (sys, format!("seed {seed}, {sites} sites, {steps} steps"))
        })
    })
}

/// [`PIN_TWO_SITE`]'s pairs.
const PIN_TWO_SITE_STEPS: [usize; 4] = [8, 16, 32, 64];

#[test]
fn two_site_decisions_on_benchmark_shaped_pairs_are_pinned() {
    let (a, b) = (TxnId(0), TxnId(1));
    let mut got = [0u64; 4];
    got[3] = 0xcbf2_9ce4_8422_2325;
    for (sys, context) in poly_pairs(2, &PIN_TWO_SITE_STEPS) {
        let d = ConflictDigraph::build(&sys, a, b);
        let strongly_connected = d.is_strongly_connected();
        let verdict = decide_two_site(&sys, a, b).expect("two sites");
        let analysis = analyze_pair(&sys);
        let (lone, shared) = (fold_digraph(0, &d), fold_digraph(0, &analysis.d));
        assert_eq!(lone, shared, "analyze_pair's D ({context})");
        assert_eq!(analysis.strongly_connected, strongly_connected);
        assert_eq!(
            fold_verdict(0, &verdict),
            fold_verdict(0, &analysis.verdict),
            "analyze_pair's verdict ({context})"
        );
        match &verdict {
            SafetyVerdict::Safe(SafeProof::TrivialOverlap) => got[0] += 1,
            SafetyVerdict::Safe(SafeProof::StronglyConnected) => got[1] += 1,
            SafetyVerdict::Unsafe(cert) => {
                cert.verify(&sys).expect("certificate must verify");
                got[2] += 1;
            }
            other => panic!("Theorem 2 answered {other:?} ({context})"),
        }
        got[3] = fold_verdict(fold_digraph(got[3], &d), &verdict);
    }
    assert_eq!(got, PIN_TWO_SITE);
}

#[test]
fn two_site_closures_on_benchmark_shaped_pairs_are_pinned() {
    let (a, b) = (TxnId(0), TxnId(1));
    let mut got = [0u64; 4];
    got[3] = 0xcbf2_9ce4_8422_2325;
    for (sys, context) in poly_pairs(2, &PIN_TWO_SITE_STEPS) {
        let d = ConflictDigraph::build(&sys, a, b);
        let verdict = if d.entities.len() < 2 {
            got[0] += 1;
            SafetyVerdict::Safe(SafeProof::TrivialOverlap)
        } else if d.is_strongly_connected() {
            got[1] += 1;
            SafetyVerdict::Safe(SafeProof::StronglyConnected)
        } else {
            let bits = find_dominator(&d.graph).expect("not strongly connected");
            let dom: Vec<EntityId> = bits.iter().map(|i| d.entities[i]).collect();
            if let Err(e) = close_wrt_dominator(&sys, a, b, &dom) {
                panic!("Lemma 3: the closure fails with {e:?} ({context})");
            }
            let cert = try_unsafety_via_dominator(&sys, a, b, &dom)
                .unwrap_or_else(|| panic!("Corollary 2: no certificate ({context})"));
            got[2] += 1;
            SafetyVerdict::Unsafe(Box::new(cert))
        };
        got[3] = fold_verdict(fold_digraph(got[3], &d), &verdict);
    }
    assert_eq!(got, PIN_TWO_SITE_CLOSURE);
}

/// `D` and the section graph read no lock mode, and the certificate's
/// check does: a pair that reads in shared mode may have a Theorem-2
/// witness that serializes. Over 600 pairs at one site and 600 at two,
/// half their steps reads, `decide_two_site` and `analyze_pair` answer
/// alike and never panic, every `Unsafe` verifies, and 4 pairs at one site
/// and 19 at two are `Unknown`, seed 72 at one site (8 steps, minimal
/// locking) among them.
#[test]
fn two_site_decisions_on_shared_mode_pairs_answer_without_a_panic() {
    let strategies = [
        LockStrategy::Minimal,
        LockStrategy::TwoPhaseLoose,
        LockStrategy::TwoPhaseSync,
    ];
    let (a, b) = (TxnId(0), TxnId(1));
    let mut unknown = [0; 2];
    for sites in [1, 2] {
        for seed in 0..600u64 {
            let sys = random_pair(&WorkloadParams {
                seed,
                sites,
                entities_per_site: 3,
                steps_per_txn: 6 + (seed % 10) as usize,
                read_percent: 50,
                strategy: strategies[seed as usize % 3],
                ..Default::default()
            });
            let context = format!("seed {seed}, {sites} sites");
            let verdict = decide_two_site(&sys, a, b).expect("two sites");
            let analysis = analyze_pair(&sys);
            assert_eq!(
                fold_verdict(0, &verdict),
                fold_verdict(0, &analysis.verdict),
                "analyze_pair's verdict ({context})"
            );
            match &verdict {
                SafetyVerdict::Unsafe(cert) => cert.verify(&sys).expect("certificate must verify"),
                SafetyVerdict::Unknown => unknown[sites - 1] += 1,
                SafetyVerdict::Safe(_) => {}
            }
            if (seed, sites) == (72, 1) {
                assert!(
                    matches!(verdict, SafetyVerdict::Unknown),
                    "{context}: {verdict:?}"
                );
            }
        }
    }
    assert_eq!(unknown, [4, 19]);
}

/// Theorem 2 from the SAT side: at two sites every dominator closes
/// (Lemmas 2 and 3), and a closed dominator's certificate runs the
/// section graph of its orientation without a cycle, so every model of
/// the pair path's 2-cycle clauses is a witness. On [`PIN_TWO_SITE`]'s
/// pairs and on one-site pairs at 8 and 16 steps the pair path takes one
/// solve and no cut wherever it solves at all (two or more shared
/// entities), and answers as Theorem 2.
#[test]
fn the_pair_path_needs_one_solve_at_two_sites() {
    let mut solved = 0;
    let pairs = poly_pairs(2, &PIN_TWO_SITE_STEPS).chain(poly_pairs(1, &[8, 16]));
    for (sys, context) in pairs {
        let check = check_safety(&sys).expect("an exclusive, well-formed pair");
        let shared = sys.shared_locked_entities(TxnId(0), TxnId(1)).len();
        assert_eq!(check.stats.solves, u64::from(shared >= 2), "{context}");
        let verdict = decide_two_site(&sys, TxnId(0), TxnId(1)).expect("two sites");
        assert_eq!(check.verdict.is_safe(), verdict.is_safe(), "{context}");
        solved += usize::from(shared >= 2);
    }
    assert!(solved > 200, "{solved} pairs solved");
}

/// Corollary 2 from the SAT side: the pair path's witness realizes its
/// own dominator X, the entities whose `Ta` section it runs first. Every
/// precedence the closure with respect to X requires holds in the
/// witness, so the closure never breaks X and succeeds. Returns whether
/// the pair was unsafe.
fn the_witness_dominator_closes(sys: &TxnSystem, context: &str) -> bool {
    let (a, b) = (TxnId(0), TxnId(1));
    let verdict = decide_multisite(sys, a, b, &MultisiteOptions::default());
    let Some(cert) = verdict.certificate() else {
        return false;
    };
    if let Err(e) = close_wrt_dominator(sys, a, b, &cert.dominator) {
        panic!("{context}: the witness's dominator fails to close: {e:?}");
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random pairs at two to six sites and 6 to 24 steps.
    #[test]
    fn the_witness_dominator_closes_on_random_pairs(seed in any::<u64>()) {
        let strategies = [
            LockStrategy::Minimal,
            LockStrategy::TwoPhaseLoose,
            LockStrategy::TwoPhaseSync,
        ];
        let sys = random_pair(&WorkloadParams {
            seed,
            sites: 2 + (seed % 5) as usize,
            entities_per_site: 2 + (seed / 5 % 2) as usize,
            steps_per_txn: 6 + (seed / 10 % 19) as usize,
            strategy: strategies[(seed / 190 % 3) as usize],
            ..Default::default()
        });
        the_witness_dominator_closes(&sys, &format!("seed {seed}"));
    }
}

/// The same on Theorem-3 reductions from (4, 3) to (8, 8), all unsafe,
/// where the pair path cuts before it finds its witness.
#[test]
fn the_witness_dominator_closes_on_reductions() {
    for (v, c) in [(4, 3), (6, 5), (8, 8)] {
        for seed in 0..3 {
            let sys = reduce(&random_instance(seed, v, c))
                .expect("a restricted-form source")
                .sys;
            let context = format!("({v}, {c}) seed {seed}");
            assert!(the_witness_dominator_closes(&sys, &context), "{context}");
        }
    }
}

#[test]
fn multisite_decisions_on_timed_reductions_are_pinned() {
    let mut got = [0u64; 4];
    got[3] = 0xcbf2_9ce4_8422_2325;
    let sources = (0..12u64)
        .map(|seed| random_instance(seed, 4, 3))
        .chain([fig8_formula(), unsat_restricted()]);
    for cnf in sources {
        let sys = reduce(&cnf).expect("a restricted-form source").sys;
        let v = decide_multisite(&sys, TxnId(0), TxnId(1), &MultisiteOptions::default());
        match &v {
            SafetyVerdict::Safe(_) => got[0] += 1,
            SafetyVerdict::Unsafe(cert) => {
                cert.verify(&sys).expect("certificate must verify");
                got[1] += 1;
            }
            SafetyVerdict::Unknown => got[2] += 1,
        }
        got[3] = fold_verdict(got[3], &v);
    }
    assert_eq!(got, PIN_MULTISITE);
}

#[test]
fn multisite_decisions_at_five_by_four_are_pinned() {
    let mut got = [0u64; 4];
    got[3] = 0xcbf2_9ce4_8422_2325;
    for seed in 0..6u64 {
        let sys = reduce(&random_instance(seed, 5, 4))
            .expect("a restricted-form source")
            .sys;
        let v = decide_multisite(&sys, TxnId(0), TxnId(1), &MultisiteOptions::default());
        match &v {
            SafetyVerdict::Safe(_) => got[0] += 1,
            SafetyVerdict::Unsafe(cert) => {
                cert.verify(&sys).expect("certificate must verify");
                got[1] += 1;
            }
            SafetyVerdict::Unknown => got[2] += 1,
        }
        got[3] = fold_verdict(got[3], &v);
    }
    assert_eq!(got, PIN_MULTISITE_V5C4);
}

#[test]
fn closures_on_five_by_four_reductions_are_pinned() {
    let (a, b) = (TxnId(0), TxnId(1));
    let mut got = [0u64; 6];
    got[5] = 0xcbf2_9ce4_8422_2325;
    for seed in 0..6u64 {
        let sys = reduce(&random_instance(seed, 5, 4))
            .expect("a restricted-form source")
            .sys;
        let d = ConflictDigraph::build(&sys, a, b);
        let (doms, _) = enumerate_dominators(&d.graph, 64);
        for bits in &doms {
            let dom: Vec<EntityId> = bits.iter().map(|i| d.entities[i]).collect();
            got[0] += 1;
            let mut h = fold(got[5], dom.iter().map(|e| e.idx()));
            match close_wrt_dominator(&sys, a, b, &dom) {
                Ok(c) => {
                    got[1] += 1;
                    h = fold(h, [0]);
                    h = fold(h, c.added_a.iter().flat_map(|&(u, v)| [u.idx(), v.idx()]));
                    h = fold(h, [usize::MAX]);
                    h = fold(h, c.added_b.iter().flat_map(|&(u, v)| [u.idx(), v.idx()]));
                }
                Err(ClosureError::DominatorBroken) => {
                    got[3] += 1;
                    h = fold(h, [2]);
                }
                Err(other) => panic!("closure answered {other:?} (seed {seed})"),
            }
            h = match try_unsafety_via_dominator(&sys, a, b, &dom) {
                Some(cert) => {
                    got[4] += 1;
                    fold_verdict(h, &SafetyVerdict::Unsafe(Box::new(cert)))
                }
                None => fold(h, [usize::MAX - 1]),
            };
            got[5] = h;
        }
    }
    assert_eq!(got, PIN_CLOSURE);
}

#[test]
fn pair_path_effort_on_reductions_is_a_pinned_curve() {
    let mut got = [[0u64; 9]; 4];
    for (row, (v, c)) in got.iter_mut().zip([(4, 3), (6, 5), (8, 8), (12, 10)]) {
        row[0] = v as u64;
        row[1] = c as u64;
        for seed in 0..3 {
            let f = random_instance(seed, v, c);
            let sys = reduce(&f).expect("a restricted-form source").sys;
            let check = check_safety(&sys).expect("inside the default cap");
            // Theorem 3: unsafe exactly when the formula is satisfiable.
            assert_eq!(!check.verdict.is_safe(), solve(&f).is_sat());
            row[2] += sys.shared_locked_entities(TxnId(0), TxnId(1)).len() as u64;
            row[3] += u64::from(!check.verdict.is_safe());
            row[4] += check.stats.vars as u64;
            row[5] += check.stats.clauses as u64;
            row[6] += check.stats.decisions;
            row[7] += check.stats.propagations;
            row[8] += check.stats.solves;
        }
    }
    assert_eq!(got, PIN_PAIR_PATH_CURVE);
}
