//! Second property suite: closure invariants (Lemmas 2–3), simulator
//! invariants, and schedule algebra.

use kplock::core::closure::close_wrt_dominator;
use kplock::core::policy::LockStrategy;
use kplock::core::ConflictDigraph;
use kplock::graph::find_dominator;
use kplock::model::{is_serializable, projection_respects_site_orders, EntityId, Schedule, TxnId};
use kplock::sim::{run, LatencyModel, SimConfig};
use kplock::workload::{random_pair, random_system, WorkloadParams};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Lemma 3 (two sites): the closure never fails, and the chosen set
    /// remains a dominator of the strengthened system's D.
    #[test]
    fn lemma3_closure_succeeds_on_two_sites(seed in 0u64..500) {
        let sys = random_pair(&WorkloadParams {
            seed,
            strategy: LockStrategy::Minimal,
            sites: 2,
            entities_per_site: 2,
            steps_per_txn: 5,
            ..Default::default()
        });
        let d = ConflictDigraph::build(&sys, TxnId(0), TxnId(1));
        let Some(dom_bits) = find_dominator(&d.graph) else {
            return Ok(()); // strongly connected: nothing to close
        };
        let dom: Vec<EntityId> = dom_bits.iter().map(|i| d.entities[i]).collect();
        let closure = close_wrt_dominator(&sys, TxnId(0), TxnId(1), &dom);
        prop_assert!(closure.is_ok(), "Lemma 3 violated: {:?}", closure.err());
        let closure = closure.unwrap();
        // X still dominates D(R1, R2).
        let d2 = ConflictDigraph::build(&closure.system, TxnId(0), TxnId(1));
        for (u, v) in d2.graph.edges() {
            let from_out = !dom.contains(&d2.entities[u]);
            let into_x = dom.contains(&d2.entities[v]);
            prop_assert!(!(from_out && into_x), "dominator broken after closure");
        }
        // The strengthened partial orders extend the originals.
        for t in [TxnId(0), TxnId(1)] {
            let orig = sys.txn(t);
            let strong = closure.system.txn(t);
            for a in orig.step_ids() {
                for b in orig.step_ids() {
                    if orig.precedes(a, b) {
                        prop_assert!(strong.precedes(a, b), "closure lost a precedence");
                    }
                }
            }
        }
    }

    /// Serial schedules of any system are legal and serializable, in every
    /// transaction order.
    #[test]
    fn serial_schedules_always_serializable(seed in 0u64..500, flip in any::<bool>()) {
        let sys = random_pair(&WorkloadParams {
            seed,
            strategy: LockStrategy::Minimal,
            sites: 2,
            entities_per_site: 2,
            steps_per_txn: 4,
            ..Default::default()
        });
        let order = if flip {
            vec![TxnId(1), TxnId(0)]
        } else {
            vec![TxnId(0), TxnId(1)]
        };
        let s = Schedule::serial(&sys, &order);
        prop_assert!(s.validate_complete(&sys).is_ok());
        prop_assert!(is_serializable(&sys, &s));
    }

    /// Simulator invariants on arbitrary workloads: committed histories are
    /// legal and project correctly onto every site.
    #[test]
    fn simulator_histories_are_legal_and_projectable(
        seed in 0u64..200,
        sim_seed in 0u64..50,
    ) {
        let sys = random_system(&WorkloadParams {
            seed,
            strategy: LockStrategy::Minimal,
            sites: 2,
            entities_per_site: 2,
            transactions: 3,
            steps_per_txn: 4,
            ..Default::default()
        });
        let cfg = SimConfig {
            seed: sim_seed,
            latency: LatencyModel::Uniform(1, 15),
            ..Default::default()
        };
        let r = run(&sys, &cfg).expect("valid config");
        r.assert_not_stalled(&cfg, format_args!("workload seed {seed}"));
        prop_assert!(r.finished(), "runs must finish");
        prop_assert!(r.audit.legal.is_ok(), "{:?}", r.audit.legal);
        prop_assert!(projection_respects_site_orders(&sys, &r.audit.schedule));
    }

    /// Deterministic replay: same seed, same audit, same commit epochs.
    #[test]
    fn simulator_replay_is_exact(seed in 0u64..100) {
        let sys = random_pair(&WorkloadParams {
            seed,
            strategy: LockStrategy::Minimal,
            sites: 2,
            entities_per_site: 2,
            steps_per_txn: 4,
            ..Default::default()
        });
        let cfg = SimConfig {
            seed,
            latency: LatencyModel::Uniform(1, 30),
            ..Default::default()
        };
        let a = run(&sys, &cfg).expect("valid config");
        a.assert_not_stalled(&cfg, format_args!("workload seed {seed}"));
        let b = run(&sys, &cfg).expect("valid config");
        prop_assert_eq!(a.audit.schedule, b.audit.schedule);
        prop_assert_eq!(a.metrics, b.metrics);
        prop_assert_eq!(a.committed_epoch, b.committed_epoch);
    }
}
