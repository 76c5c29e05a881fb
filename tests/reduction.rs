//! Integration: Theorem 3 end-to-end — `F` satisfiable ⟺ `{T1(F), T2(F)}`
//! unsafe — validated with DPLL, the dominator-closure prover, and the
//! full multisite procedure.

use kplock::core::closure::try_unsafety_via_dominator;
use kplock::core::reduction::reduce;
use kplock::core::{
    check_deadlock, check_safety, decide_exhaustive, decide_multisite, MultisiteOptions,
    OracleOptions, OracleOutcome, SafeProof, SafetyVerdict,
};
use kplock::graph::enumerate_dominators;
use kplock::model::{EntityId, Level, TxnId};
use kplock::sat::{solve, to_restricted_form, SatResult};
use kplock::workload::{random_instance, unsat_restricted};

#[test]
fn constructed_transactions_are_well_formed() {
    for seed in 0..20 {
        let f = random_instance(seed, 5, 4);
        let r = reduce(&f).unwrap();
        r.sys.validate(Level::Strict).unwrap();
        assert!(r.verify_intended(), "seed {seed}: D != intended");
    }
}

#[test]
fn satisfiable_iff_some_dominator_closes() {
    // Exhaustively enumerate the dominators of small instances and compare
    // "some dominator yields a verified certificate" with DPLL.
    for seed in 0..25 {
        let f = random_instance(seed, 4, 3);
        let r = reduce(&f).unwrap();
        let d = r.d_graph();
        let (doms, exhaustive) = enumerate_dominators(&d.graph, 100_000);
        assert!(exhaustive, "seed {seed}");
        let any_certificate = doms.iter().any(|bits| {
            let dom: Vec<EntityId> = bits.iter().map(|i| d.entities[i]).collect();
            try_unsafety_via_dominator(&r.sys, TxnId(0), TxnId(1), &dom).is_some()
        });
        let sat = solve(&f).is_sat();
        assert_eq!(
            any_certificate, sat,
            "seed {seed}: Theorem 3 equivalence violated for {f:?}"
        );
    }
}

#[test]
fn desirable_dominators_close_and_undesirable_fail() {
    for seed in 0..15 {
        let f = random_instance(seed, 5, 4);
        let r = reduce(&f).unwrap();
        let d = r.d_graph();
        let (doms, _) = enumerate_dominators(&d.graph, 4_096);
        for bits in &doms {
            let dom: Vec<EntityId> = bits.iter().map(|i| d.entities[i]).collect();
            let cert = try_unsafety_via_dominator(&r.sys, TxnId(0), TxnId(1), &dom);
            assert_eq!(
                cert.is_some(),
                r.is_desirable(&dom),
                "seed {seed}: dominator/closure mismatch"
            );
            if let Some(c) = cert {
                c.verify(&r.sys).unwrap();
            }
        }
    }
}

#[test]
fn unsat_instance_resists_all_closure_attempts() {
    let f = unsat_restricted();
    let r = reduce(&f).unwrap();
    assert!(r.verify_intended());
    let d = r.d_graph();
    // The instance has many dominators (2^middle-SCCs); sample within cap.
    let (doms, _) = enumerate_dominators(&d.graph, 3_000);
    for bits in &doms {
        let dom: Vec<EntityId> = bits.iter().map(|i| d.entities[i]).collect();
        assert!(
            try_unsafety_via_dominator(&r.sys, TxnId(0), TxnId(1), &dom).is_none(),
            "an UNSAT instance must not admit a certificate"
        );
    }
}

#[test]
fn multisite_procedure_on_reduction_instances() {
    // The instances are far beyond exhaustive search: the multisite
    // procedure must say Unsafe exactly when SAT, with a certificate from
    // the pair path's witness, and Safe when UNSAT, through the same path.
    let opts = MultisiteOptions::default();
    for seed in [3, 7, 11] {
        let f = random_instance(seed, 4, 3);
        let r = reduce(&f).unwrap();
        let verdict = decide_multisite(&r.sys, TxnId(0), TxnId(1), &opts);
        match solve(&f) {
            SatResult::Sat(_) => {
                let cert = verdict.certificate().expect("SAT => certificate");
                cert.verify(&r.sys).unwrap();
            }
            SatResult::Unsat => {
                assert!(
                    matches!(verdict, SafetyVerdict::Safe(SafeProof::Unsatisfiable)),
                    "UNSAT instances are safe, and the pair path proves it: {verdict:?}"
                );
            }
        }
    }
}

#[test]
fn systems_beyond_the_oracles_encoding_are_decided_by_the_pair_path() {
    // A (12, 10) instance has 396-step transactions, six times what the
    // oracle's state encoding holds, and the pair path decides it: unsafe
    // exactly when the formula is satisfiable, with a certificate that
    // verifies.
    let f = random_instance(1, 12, 10);
    let r = reduce(&f).unwrap();
    assert!(r.sys.txn(TxnId(0)).len() > 64);
    let verdict = decide_multisite(&r.sys, TxnId(0), TxnId(1), &MultisiteOptions::default());
    match solve(&f) {
        SatResult::Sat(_) => {
            let cert = verdict.certificate().expect("SAT => certificate");
            cert.verify(&r.sys).unwrap();
        }
        SatResult::Unsat => assert!(verdict.is_safe(), "{verdict:?}"),
    }
    // `check_safety` decides it too.
    let check = check_safety(&r.sys).expect("an exclusive, well-formed pair");
    assert_eq!(check.verdict.is_safe(), verdict.is_safe());
    // The oracle and the schedule counter refuse it outright.
    let report = decide_exhaustive(&r.sys, &OracleOptions::default());
    assert!(matches!(report.outcome, OracleOutcome::Aborted));
    assert_eq!(report.states_explored, 0);
    assert_eq!(kplock::core::count_schedules(&r.sys, 1_000_000), None);

    // Nine transactions are one more than it holds.
    let db = kplock::model::Database::from_spec(&[("x", 0)]);
    let txns = (0..9)
        .map(|i| {
            let mut b = kplock::model::TxnBuilder::new(&db, format!("T{i}"));
            b.script("Lx x Ux").unwrap();
            b.build().unwrap()
        })
        .collect();
    let nine = kplock::model::TxnSystem::new(db, txns);
    let report = decide_exhaustive(&nine, &OracleOptions::default());
    assert!(matches!(report.outcome, OracleOutcome::Aborted));
    assert_eq!(kplock::core::count_schedules(&nine, 1_000_000), None);
}

#[test]
fn a_reduction_past_the_old_pair_cap_is_decided() {
    // A (24, 20) instance shares more than 160 entities, the most the pair
    // paths once admitted; both checks and the multisite procedure decide
    // it, and the safety verdicts agree with DPLL on the source formula.
    let f = random_instance(0, 24, 20);
    let r = reduce(&f).unwrap();
    assert!(r.sys.shared_locked_entities(TxnId(0), TxnId(1)).len() > 160);
    let sat = solve(&f).is_sat();
    let verdict = decide_multisite(&r.sys, TxnId(0), TxnId(1), &MultisiteOptions::default());
    match verdict.certificate() {
        Some(cert) => cert.verify(&r.sys).unwrap(),
        None => assert!(matches!(
            verdict,
            SafetyVerdict::Safe(SafeProof::Unsatisfiable)
        )),
    }
    assert_eq!(verdict.is_unsafe(), sat, "{verdict:?}");
    let check = check_safety(&r.sys).expect("an exclusive, well-formed pair");
    assert_eq!(!check.verdict.is_safe(), sat);
    check_deadlock(&r.sys).expect("an exclusive, well-formed pair");
}

#[test]
fn restricted_form_conversion_composes_with_reduction() {
    // Arbitrary small CNF -> restricted form -> reduction; satisfiability
    // must be preserved through both hops.
    let raw = kplock::sat::Cnf::from_clauses(
        4,
        &[
            &[(0, true), (1, true), (2, true), (3, true)],
            &[(0, false), (1, false)],
            &[(2, false), (3, true)],
            &[(0, true), (2, true)],
        ],
    );
    let restricted = to_restricted_form(&raw);
    assert!(restricted.decided.is_none());
    assert!(restricted.cnf.is_restricted_form());
    let r = reduce(&restricted.cnf).unwrap();
    assert!(r.verify_intended());
    let sat = solve(&raw).is_sat();
    assert_eq!(solve(&restricted.cnf).is_sat(), sat);
    if let SatResult::Sat(model) = solve(&restricted.cnf) {
        let dom = r.dominator_for_assignment(&model);
        let cert = try_unsafety_via_dominator(&r.sys, TxnId(0), TxnId(1), &dom)
            .expect("model gives a certificate");
        cert.verify(&r.sys).unwrap();
    }
}
