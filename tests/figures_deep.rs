//! Deep cross-validation of the paper's figure instances: every claim the
//! paper makes about each figure, checked by at least two independent
//! mechanisms.

use kplock::core::closure::{close_wrt_dominator, ClosureError};
use kplock::core::{
    count_schedules, decide_by_extensions, decide_exhaustive, decide_two_site, ConflictDigraph,
    OracleOptions, OracleOutcome,
};
use kplock::graph::enumerate_dominators;
use kplock::model::{EntityId, TxnId};
use kplock::sat::all_models;
use kplock::workload::{fig1, fig3, fig5, fig8_formula, fig8_reduction, figure_corpus};

#[test]
fn fig1_three_ways() {
    let sys = fig1();
    // 1. Theorem 2.
    let v = decide_two_site(&sys, TxnId(0), TxnId(1)).unwrap();
    assert!(v.is_unsafe());
    // 2. State-space oracle.
    let o = decide_exhaustive(&sys, &OracleOptions::default());
    assert!(matches!(o.outcome, OracleOutcome::Unsafe(_)));
    // 3. Lemma-1 extension oracle.
    let e = decide_by_extensions(&sys, TxnId(0), TxnId(1), 2_000_000).unwrap();
    assert!(e.is_unsafe());
    e.certificate().unwrap().verify(&sys).unwrap();
}

#[test]
fn fig3_counting_confirms_unsafety() {
    let sys = fig3();
    let c = count_schedules(&sys, 5_000_000).expect("small system");
    assert!(c.legal > 0);
    assert!(
        c.serializable < c.legal,
        "unsafe: some legal schedule is non-serializable ({c:?})"
    );
}

#[test]
fn fig5_closure_contradiction_is_the_paper_argument() {
    // The paper: closure w.r.t. the only dominator {x1, x2} forces Ux1 to
    // both precede and follow Ux2. The closure checks the dominator before
    // each round, so it reports the arc into {x1, x2} that ordering grows.
    let sys = fig5();
    let d = ConflictDigraph::build(&sys, TxnId(0), TxnId(1));
    let (doms, exhaustive) = enumerate_dominators(&d.graph, 100);
    assert!(exhaustive);
    assert_eq!(doms.len(), 1);
    let dom: Vec<EntityId> = doms[0].iter().map(|i| d.entities[i]).collect();
    let err = close_wrt_dominator(&sys, TxnId(0), TxnId(1), &dom).unwrap_err();
    assert_eq!(err, ClosureError::DominatorBroken);
    // And exhaustive counting shows full safety.
    let c = count_schedules(&sys, 10_000_000).expect("fits");
    assert_eq!(c.legal, c.serializable, "Fig. 5 is safe");
}

#[test]
fn fig8_models_inject_into_desirable_dominators() {
    let f = fig8_formula();
    let (models, exhaustive) = all_models(&f, 100);
    assert!(exhaustive);
    assert!(!models.is_empty());
    let r = fig8_reduction();
    for m in &models {
        let dom = r.dominator_for_assignment(m);
        assert!(r.is_desirable(&dom), "model {m:?} must map to desirable");
    }
    // Full assignments are a subset of the desirable dominators (partial
    // assignments also count as desirable when they cover every clause).
    let d = r.d_graph();
    let (doms, _) = enumerate_dominators(&d.graph, 10_000);
    let desirable = doms
        .iter()
        .filter(|bits| {
            let dom: Vec<EntityId> = bits.iter().map(|i| d.entities[i]).collect();
            r.is_desirable(&dom)
        })
        .count();
    assert!(desirable >= models.len());
}

#[test]
fn corpus_expectations_via_counting() {
    for named in figure_corpus() {
        let Some(expected_safe) = named.expected_safe else {
            continue;
        };
        if let Some(c) = count_schedules(&named.sys, 5_000_000) {
            assert_eq!(c.is_safe(), expected_safe, "{}", named.name);
        }
    }
}
