//! Property-based invariants for the distributed probe detector.
//!
//! On random multi-site systems under synchronized 2PL (no transaction
//! releases a lock while a lock request is pending — the model in which
//! Chandy–Misra–Haas is provably exact):
//!
//! * **completeness** — every cycle the global scan finds is eventually
//!   found by probes: whenever the periodic-scan run completes, the probe
//!   run completes too (an unfound cycle would stall or time out);
//! * **soundness** — probes never abort a non-cycle member: the
//!   `invariant_audit` harness's measurement-only cross-check counts zero
//!   phantom kills.
//!
//! And at the benchmark's `sim_hot` shape and beyond, where a search is
//! bounded by its marks and completed by its re-chases (`probe.rs` module
//! doc, rules 4 and 5): every batch completes, inside a pinned message
//! ceiling.

use kplock::core::policy::LockStrategy;
use kplock::sim::{run, DeadlockDetection, LatencyModel, RunOutcome, SimConfig};
use kplock::workload::{random_system, WorkloadParams};
use proptest::prelude::*;

fn system(seed: u64, sites: usize, txns: usize) -> kplock::model::TxnSystem {
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

/// A closed batch of the shape `sim_hot` runs (`benchmark/src/workloads/
/// sim.rs`, `hot_system` and `hot_config`): 8-step transactions over
/// 4 sites × 8 entities, Zipf 0.6, half reads, sync 2PL, under probe
/// detection at `Uniform(2, 8)` latency with the phantom audit on.
fn hot_run(seed: u64, transactions: usize) -> kplock::sim::SimReport {
    let sys = random_system(&WorkloadParams {
        seed,
        sites: 4,
        entities_per_site: 8,
        transactions,
        steps_per_txn: 8,
        zipf_theta: 0.6,
        read_percent: 50,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    });
    let cfg = SimConfig {
        seed,
        latency: LatencyModel::Uniform(2, 8),
        resolution: DeadlockDetection::Probe.into(),
        invariant_audit: true,
        ..Default::default()
    };
    let r = run(&sys, &cfg).unwrap();
    r.assert_not_stalled(&cfg, format_args!("workload seed {seed}"));
    assert_eq!(r.outcome, RunOutcome::Completed, "seed {seed}");
    assert_eq!(r.metrics.committed, transactions, "seed {seed}");
    assert!(r.audit.serializable, "seed {seed}");
    r
}

/// `sim_hot` inputs (benchmark seed 11) on which a search bounded by marks
/// alone stalls: the edge that completes the deadlock closes several
/// cycles at once, or the one order a search produced is dropped because a
/// path member moved on, and the cycle passed over has no new edge left to
/// launch another search. Which inputs stall depends on the order messages
/// happen to land in: 11018, 11081 and 11096 did in the prototype that
/// sized the change, 11000, 11010, 11012 and 11096 do with this engine's
/// re-chase switched off (31 of that seed's 130 inputs do). All complete
/// because every abort order re-chases its initiator.
#[test]
fn the_inputs_that_stall_with_marks_alone_complete() {
    for seed in [11018, 11081, 11096, 11000, 11010, 11012] {
        let r = hot_run(seed, 24);
        assert_eq!(r.metrics.phantom_probe_aborts, 0, "seed {seed}");
    }
}

/// 64 transactions on the same 32 entities. Enumeration sent 2.0 M probe
/// messages a run at this size (40.3 M over seeds 11000..11020, 90 s);
/// the marked search sends 158 k (3.17 M, 1.7 s), under 200 k on each of
/// those seeds.
#[test]
fn a_64_transaction_batch_completes_within_the_message_bound() {
    let r = hot_run(11000, 64);
    let sent = r.metrics.probe_messages;
    assert!(sent <= 250_000, "{sent} probe messages");
}

/// 256 transactions: the batch that exhausted memory under enumeration.
/// Measured in release at this commit: 11 234 641 probe messages of
/// 11 552 661, 9 191 aborts, 14.8 s, peak RSS 17.3 MiB (`sim_hot` itself
/// reads 33). Minutes in a debug build, hence ignored:
/// `cargo test --release --test probe_props -- --ignored`.
#[test]
#[ignore]
fn a_256_transaction_batch_completes() {
    hot_run(11000, 256);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random `sim_hot` inputs complete, and no run sends more than half
    /// again the most any of 2 000 sampled runs sent (16 228; the mean is
    /// 9 200, against enumeration's 16 500). Phantom kills are not
    /// asserted zero here, unlike below: with half the locks shared, the
    /// table reports a shared request queued behind an exclusive one as
    /// waiting on the *compatible* holders ahead of both
    /// (`QueueTable::entity_waits_for`), and when the exclusive waiter
    /// aborts, that edge vanishes with both its ends alive — about one
    /// executed abort in 650 at this shape, under enumeration as under
    /// the search (ROADMAP item 4).
    #[test]
    fn hot_batches_complete_within_the_message_bound(seed in 0u64..1_000_000) {
        let r = hot_run(seed, 24);
        let sent = r.metrics.probe_messages;
        prop_assert!(sent <= 25_000, "seed {}: {} probe messages", seed, sent);
    }

    /// Completeness + soundness on random multi-site sync-2PL systems.
    #[test]
    fn probes_find_every_cycle_and_only_real_cycles(
        seed in 0u64..400,
        sim_seed in 0u64..50,
        sites in 2usize..5,
        txns in 2usize..6,
    ) {
        let sys = system(seed, sites, txns);
        let base = SimConfig {
            latency: LatencyModel::Uniform(1, 20),
            seed: sim_seed,
            ..Default::default()
        };
        let scan = run(&sys, &base).unwrap();
        scan.assert_not_stalled(&base, format_args!("workload seed {seed}"));
        if !scan.finished() {
            return Ok(()); // scan livelocks are not the probe's bug
        }
        let probe_cfg = SimConfig {
            resolution: DeadlockDetection::Probe.into(),
            invariant_audit: true,
            ..base
        };
        let probe = run(&sys, &probe_cfg).unwrap();
        probe.assert_not_stalled(&probe_cfg, format_args!("workload seed {seed}"));
        prop_assert_eq!(
            probe.outcome,
            RunOutcome::Completed,
            "probe run did not complete: an undetected cycle (seed {}, sim {})",
            seed,
            sim_seed
        );
        prop_assert_eq!(probe.metrics.committed, sys.len());
        prop_assert!(probe.audit.serializable, "sync-2PL must audit clean");
        prop_assert_eq!(
            probe.metrics.phantom_probe_aborts,
            0,
            "probe aborted a non-cycle member (seed {}, sim {})",
            seed,
            sim_seed
        );
        // Detection work is only spent when something actually blocked
        // across sites; a deadlock-free run costs zero aborts both ways.
        if scan.metrics.deadlocks_resolved == 0 && probe.metrics.deadlocks_resolved == 0 {
            prop_assert_eq!(probe.metrics.aborts, scan.metrics.aborts);
        }
    }

    /// Under skewed hot-site load the invariants must hold too — the case
    /// where every probe chase funnels through one site.
    #[test]
    fn probes_survive_hot_site_skew(seed in 0u64..200, hot in 50u32..=100) {
        let sys = random_system(&WorkloadParams {
            seed,
            sites: 3,
            entities_per_site: 2,
            transactions: 4,
            steps_per_txn: 5,
            hot_site_percent: hot,
            strategy: LockStrategy::TwoPhaseSync,
            ..Default::default()
        });
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            resolution: DeadlockDetection::Probe.into(),
            invariant_audit: true,
            ..Default::default()
        };
        let r = run(&sys, &cfg).unwrap();
        r.assert_not_stalled(&cfg, format_args!("workload seed {seed}, hot {hot}"));
        prop_assert_eq!(r.outcome, RunOutcome::Completed);
        prop_assert!(r.audit.serializable);
        prop_assert_eq!(r.metrics.phantom_probe_aborts, 0);
    }
}
