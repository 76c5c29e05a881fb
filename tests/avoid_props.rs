//! Property-based invariants for the avoidance arm: a certified set can
//! never engage any deadlock machinery.
//!
//! The paper's Theorems 1–3 decide safety of a *declared* transaction
//! set before anything runs; `AvoidPlan` packages that decision as a safe
//! lock order plus per-site controllers. The runtime claim tested here is
//! absolute: on **any** workload whose transactions are all certified,
//! an avoidance run resolves zero deadlocks, restarts nothing, sends no
//! detection traffic, and completes — the guarantee is structural, not
//! statistical, so it must hold for every generated case, not most.

use kplock::core::policy::LockStrategy;
use kplock::model::TxnSystem;
use kplock::sim::{run, AvoidPlan, DeadlockResolution, RunOutcome, SimConfig};
use kplock::workload::{random_system, WorkloadParams};
use proptest::prelude::*;

fn system(seed: u64, sites: usize, txns: usize) -> TxnSystem {
    random_system(&WorkloadParams {
        seed,
        sites,
        entities_per_site: 2,
        transactions: txns,
        steps_per_txn: 6,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fully-certified workloads run clean: carve the greedy certificate
    /// out of a random system into its own (by construction fully
    /// certified) sub-system and run it under avoidance — no deadlock is
    /// resolved, nothing restarts, no probe crosses the wire, everything
    /// commits serializably.
    #[test]
    fn certified_sets_never_engage_deadlock_machinery(
        seed in 0u64..500,
        sim_seed in 0u64..50,
        sites in 2usize..5,
        txns in 2usize..6,
    ) {
        let sys = system(seed, sites, txns);
        let greedy = AvoidPlan::synthesize(&sys);
        prop_assert!(greedy.verify(&sys).is_ok(), "synthesized plans self-verify");
        prop_assert_eq!(
            greedy.certified_count() + greedy.fallback_count(),
            sys.len(),
            "the certificate partitions the declared set"
        );
        let certified = greedy.certified();
        // A transaction whose partial order leaves two lock steps
        // concurrent is uncertifiable even alone (it constrains both
        // directions), so a rare workload certifies nothing — skip it;
        // the remaining ~250 cases keep the property non-vacuous.
        if certified.is_empty() {
            return Ok(());
        }
        let sub = TxnSystem::new(
            sys.db().clone(),
            certified
                .iter()
                .map(|t| sys.txns()[t.idx()].clone())
                .collect(),
        );
        // A jointly-certified set re-certifies in full: greedy merged
        // exactly these edge digraphs into one acyclic union.
        let plan = AvoidPlan::synthesize(&sub);
        prop_assert!(plan.fully_certified(), "seed {}: carved set must re-certify", seed);
        let cfg = SimConfig {
            latency: kplock::sim::LatencyModel::Uniform(1, 20),
            seed: sim_seed,
            resolution: DeadlockResolution::Avoid,
            avoid: Some(plan),
            ..Default::default()
        };
        let r = run(&sub, &cfg).unwrap();
        r.assert_not_stalled(&cfg, format_args!("workload seed {seed}"));
        prop_assert_eq!(
            r.outcome,
            RunOutcome::Completed,
            "certified sets always finish (seed {}, sim {})", seed, sim_seed
        );
        prop_assert_eq!(r.metrics.deadlocks_resolved, 0, "no cycle can form");
        prop_assert_eq!(r.metrics.prevention_restarts, 0, "the fallback never engages");
        prop_assert_eq!(r.metrics.aborts, 0);
        prop_assert_eq!(r.metrics.probe_messages, 0);
        prop_assert_eq!(r.metrics.detection_latency_ticks, 0);
        prop_assert_eq!(r.metrics.avoid_certified, sub.len());
        prop_assert_eq!(r.metrics.avoid_fallbacks, 0);
        prop_assert_eq!(r.metrics.committed, sub.len());
        prop_assert!(r.audit.serializable, "sync-2PL must audit clean");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mixed sets stay cycle-free and finish: the greedy certificate on
    /// the *full* random system shields what it covers while wound-wait
    /// meters the rest — still no resolved deadlock anywhere, and every
    /// abort is a fallback restart.
    #[test]
    fn mixed_sets_complete_without_resolving_a_deadlock(
        seed in 0u64..300,
        sim_seed in 0u64..50,
        sites in 2usize..5,
        txns in 2usize..6,
    ) {
        let sys = system(seed, sites, txns);
        let plan = AvoidPlan::synthesize(&sys);
        let cfg = SimConfig {
            latency: kplock::sim::LatencyModel::Uniform(1, 20),
            seed: sim_seed,
            resolution: DeadlockResolution::Avoid,
            avoid: Some(plan.clone()),
            ..Default::default()
        };
        let r = run(&sys, &cfg).unwrap();
        r.assert_not_stalled(&cfg, format_args!("workload seed {seed}"));
        prop_assert_eq!(
            r.outcome,
            RunOutcome::Completed,
            "certified transactions cannot be wounded and the fallback is \
             wound-wait, which terminates (seed {}, sim {})", seed, sim_seed
        );
        prop_assert_eq!(r.metrics.deadlocks_resolved, 0);
        prop_assert_eq!(r.metrics.probe_messages, 0);
        prop_assert_eq!(r.metrics.aborts, r.metrics.prevention_restarts);
        prop_assert_eq!(r.metrics.avoid_certified, plan.certified_count());
        prop_assert_eq!(r.metrics.avoid_fallbacks, plan.fallback_count());
        prop_assert!(r.audit.serializable);
        // Certified transactions are never victims: they commit on their
        // first attempt, epoch 0.
        for t in plan.certified() {
            prop_assert_eq!(
                r.committed_epoch[t.idx()],
                Some(0),
                "certified {:?} was restarted (seed {}, sim {})", t, seed, sim_seed
            );
        }
        // Deterministic replay, like every other arm.
        let again = run(&sys, &cfg).unwrap();
        prop_assert_eq!(r.metrics, again.metrics);
        prop_assert_eq!(r.committed_epoch, again.committed_epoch);
    }
}
