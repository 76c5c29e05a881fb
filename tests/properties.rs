//! Property-based tests (proptest) for the paper's core invariants.

use kplock::core::policy::LockStrategy;
use kplock::core::{
    decide_exhaustive, decide_total_pair, ConflictDigraph, OracleOptions, SafetyVerdict,
};
use kplock::geometry::{has_deadlock, plane_is_safe, PlanePicture};
use kplock::model::{linear_extensions, TxnId, TxnSystem};
use kplock::workload::{random_pair, WorkloadParams};
use proptest::prelude::*;

fn small_pair(seed: u64, strategy: LockStrategy) -> TxnSystem {
    random_pair(&WorkloadParams {
        seed,
        strategy,
        sites: 2,
        entities_per_site: 2,
        steps_per_txn: 4,
        cross_edge_percent: 40,
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fig. 4 / Definition 1 semantics: an arc (x, y) of D(T1,T2) exists
    /// iff in EVERY pair of linear extensions, Lx precedes Uy in t1 and Ly
    /// precedes Ux in t2.
    #[test]
    fn definition1_arcs_quantify_over_all_extensions(seed in 0u64..500) {
        let sys = small_pair(seed, LockStrategy::Minimal);
        let d = ConflictDigraph::build(&sys, TxnId(0), TxnId(1));
        let t1 = sys.txn(TxnId(0));
        let t2 = sys.txn(TxnId(1));
        let e1 = linear_extensions(t1);
        let e2 = linear_extensions(t2);
        for (i, &x) in d.entities.iter().enumerate() {
            for (j, &y) in d.entities.iter().enumerate() {
                if i == j { continue; }
                let lx = t1.lock_step(x).unwrap();
                let uy = t1.unlock_step(y).unwrap();
                let ly = t2.lock_step(y).unwrap();
                let ux = t2.unlock_step(x).unwrap();
                let holds_everywhere = e1.iter().all(|o| {
                    o.iter().position(|&s| s == lx).unwrap()
                        < o.iter().position(|&s| s == uy).unwrap()
                }) && e2.iter().all(|o| {
                    o.iter().position(|&s| s == ly).unwrap()
                        < o.iter().position(|&s| s == ux).unwrap()
                });
                prop_assert_eq!(
                    d.graph.has_edge(i, j),
                    holds_everywhere,
                    "arc ({:?},{:?}) mismatch", x, y
                );
            }
        }
    }

    /// D of the partial orders is contained in D of any extension pair.
    #[test]
    fn d_graph_monotone_under_linearization(seed in 0u64..500) {
        let sys = small_pair(seed, LockStrategy::Minimal);
        let d = ConflictDigraph::build(&sys, TxnId(0), TxnId(1));
        let t1 = sys.txn(TxnId(0));
        let t2 = sys.txn(TxnId(1));
        let e1 = linear_extensions(t1).into_iter().next().unwrap();
        let e2 = linear_extensions(t2).into_iter().next().unwrap();
        let lin = TxnSystem::new(
            sys.db().clone(),
            vec![t1.linearized(&e1).unwrap(), t2.linearized(&e2).unwrap()],
        );
        // Map entities: ids are unchanged by linearization.
        let d_lin = ConflictDigraph::build(&lin, TxnId(0), TxnId(1));
        for (u, v) in d.graph.edges() {
            prop_assert!(
                d_lin.graph.has_edge(u, v),
                "extension lost an arc"
            );
        }
    }

    /// For pairs of TOTAL orders, the graph method and the geometric method
    /// (Proposition 1) agree exactly.
    #[test]
    fn total_order_graph_equals_geometry(seed in 0u64..500) {
        let sys = small_pair(seed, LockStrategy::Minimal);
        let t1 = sys.txn(TxnId(0));
        let t2 = sys.txn(TxnId(1));
        let e1 = linear_extensions(t1).into_iter().next().unwrap();
        let e2 = linear_extensions(t2).into_iter().next().unwrap();
        let lin = TxnSystem::new(
            sys.db().clone(),
            vec![t1.linearized(&e1).unwrap(), t2.linearized(&e2).unwrap()],
        );
        let graph_verdict = decide_total_pair(&lin, TxnId(0), TxnId(1));
        let plane = PlanePicture::new(&lin, TxnId(0), TxnId(1)).unwrap();
        prop_assert_eq!(graph_verdict.is_safe(), plane_is_safe(&plane));
        if let SafetyVerdict::Unsafe(cert) = &graph_verdict {
            prop_assert!(cert.verify(&lin).is_ok());
        }
    }

    /// For centralized pairs of total orders, the plane has a deadlock
    /// region exactly when the oracle reaches a stalled state. (The oracle
    /// searches breadth-first and a stalled state is at least two steps
    /// short of complete, so an unsafe completion ending the search early
    /// hides none.)
    #[test]
    fn geometric_deadlock_equals_oracle_deadlock(seed in 0u64..500) {
        let sys = random_pair(&WorkloadParams {
            seed,
            strategy: LockStrategy::Minimal,
            sites: 1,
            entities_per_site: 2,
            steps_per_txn: 6,
            cross_edge_percent: 0,
            ..Default::default()
        });
        if !(sys.txn(TxnId(0)).is_total_order() && sys.txn(TxnId(1)).is_total_order()) {
            return Ok(());
        }
        let plane = PlanePicture::new(&sys, TxnId(0), TxnId(1)).unwrap();
        let oracle = decide_exhaustive(&sys, &OracleOptions::default());
        prop_assert_eq!(has_deadlock(&plane), oracle.deadlock_reachable);
    }

    /// Theorem 1 soundness on arbitrary (multi-site) pairs: strong
    /// connectivity of D implies every extension plane is safe.
    #[test]
    fn theorem1_sound_for_random_pairs(seed in 0u64..300) {
        let sys = random_pair(&WorkloadParams {
            seed,
            strategy: LockStrategy::Minimal,
            sites: 3,
            entities_per_site: 1,
            steps_per_txn: 4,
            cross_edge_percent: 50,
            ..Default::default()
        });
        let d = ConflictDigraph::build(&sys, TxnId(0), TxnId(1));
        if !d.is_strongly_connected() {
            return Ok(());
        }
        let t1 = sys.txn(TxnId(0));
        let t2 = sys.txn(TxnId(1));
        for e1 in linear_extensions(t1).into_iter().take(12) {
            for e2 in linear_extensions(t2).into_iter().take(12) {
                let lin = TxnSystem::new(
                    sys.db().clone(),
                    vec![t1.linearized(&e1).unwrap(), t2.linearized(&e2).unwrap()],
                );
                let plane = PlanePicture::new(&lin, TxnId(0), TxnId(1)).unwrap();
                prop_assert!(plane_is_safe(&plane), "Theorem 1 violated");
            }
        }
    }

    /// The schedule embedded in any Theorem-2 certificate is reproducible:
    /// legal, complete, and its serialization graph has a cycle through the
    /// dominator entities.
    #[test]
    fn certificates_always_verify(seed in 0u64..500) {
        let sys = small_pair(seed, LockStrategy::Minimal);
        let verdict = kplock::core::decide_two_site(&sys, TxnId(0), TxnId(1)).unwrap();
        if let SafetyVerdict::Unsafe(cert) = verdict {
            prop_assert!(cert.verify(&sys).is_ok());
            prop_assert!(!cert.dominator.is_empty());
        }
    }
}
