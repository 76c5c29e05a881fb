//! Property harness for delegated lock ownership ([`Delegation::On`]):
//! the cached fast path, the revocation protocol and the crash wipe must
//! preserve every safety net the remote-only engine already passes.
//!
//! The core property is *equivalence*: on any workload, under any seeded
//! loss/duplication/reorder plan and any of the six resolution arms,
//! turning delegation on changes message counts — never outcomes. A run
//! that completes commits the same transaction set (all of them, by 2PL
//! completion), audits legal and conflict-serializable, and a run with
//! retransmission on never stalls: a lost or duplicated revocation must
//! be re-driven by the demander's retransmissions, not wedge the site.
//!
//! Liveness of the revocation path itself gets a dedicated storm test:
//! a chain of single-entity transactions in which every grant is
//! delegated and every successor must demand it back.

use kplock::core::policy::LockStrategy;
use kplock::model::{Database, TxnBuilder, TxnSystem};
use kplock::sim::{
    run, run_with_arrivals, DeadlockDetection, DeadlockResolution, Delegation, FaultPlan,
    LatencyModel, PreventionScheme, RunOutcome, SimConfig,
};
use kplock::workload::{random_system, WorkloadParams};
use proptest::prelude::*;

/// All six resolution arms: every detector and every preventer.
const SCHEMES: [DeadlockResolution; 6] = [
    DeadlockResolution::Detect(DeadlockDetection::Periodic),
    DeadlockResolution::Detect(DeadlockDetection::OnBlock),
    DeadlockResolution::Detect(DeadlockDetection::Probe),
    DeadlockResolution::Prevent(PreventionScheme::WoundWait),
    DeadlockResolution::Prevent(PreventionScheme::WaitDie),
    DeadlockResolution::Prevent(PreventionScheme::NoWait),
];

fn system(seed: u64, sites: usize, txns: usize, read_percent: u32) -> TxnSystem {
    random_system(&WorkloadParams {
        seed,
        sites,
        entities_per_site: 2,
        transactions: txns,
        steps_per_txn: 5,
        read_percent,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    })
}

fn check_pair(sys: &TxnSystem, base: &SimConfig, tag: &str) -> Result<(), TestCaseError> {
    // `run` panics on any invariant violation (the audit is on) or on an
    // abort of a committed transaction — both are the harness firing.
    let off_cfg = SimConfig {
        delegation: Delegation::Off,
        ..base.clone()
    };
    let on_cfg = SimConfig {
        delegation: Delegation::On,
        ..base.clone()
    };
    let off = run(sys, &off_cfg).expect("valid config");
    let on = run(sys, &on_cfg).expect("valid config");
    for (mode, r, cfg) in [("off", &off, &off_cfg), ("on", &on, &on_cfg)] {
        prop_assert!(
            r.metrics.committed <= sys.len(),
            "{tag} [{mode}]: a transaction committed twice"
        );
        if base.faults.retransmit_after > 0 {
            r.assert_not_stalled(cfg, format_args!("{tag} [{mode}]"));
        }
        if r.outcome == RunOutcome::Completed {
            prop_assert_eq!(r.metrics.committed, sys.len(), "{} [{}]", tag, mode);
            r.audit
                .legal
                .as_ref()
                .unwrap_or_else(|e| panic!("{tag} [{mode}]: illegal history: {e}"));
            prop_assert!(
                r.audit.serializable,
                "{} [{}]: committed history must stay serializable",
                tag,
                mode
            );
        }
    }
    // Equivalence: delegation changes the wire protocol, never what
    // commits. (Timeouts are honest under faults — only compare when
    // both runs finished inside the budget.)
    if on.outcome == RunOutcome::Completed && off.outcome == RunOutcome::Completed {
        prop_assert_eq!(
            on.metrics.committed,
            off.metrics.committed,
            "{}: modes disagree on the committed set",
            tag
        );
        prop_assert_eq!(
            on.metrics.aborts == 0,
            on.committed_epoch.iter().all(|e| *e == Some(0)),
            "{}: epoch bookkeeping is inconsistent",
            tag
        );
    }
    // The delegation counters only move when the knob is on.
    prop_assert_eq!(off.metrics.cache_hits, 0, "{}", tag);
    prop_assert_eq!(off.metrics.revocations, 0, "{}", tag);
    prop_assert_eq!(off.metrics.messages_saved, 0, "{}", tag);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 256 seeded loss/dup/reorder plans (rates up to 0.3), each run
    /// with delegation off and on under all six resolution arms: same
    /// committed outcomes, no stalls, clean audits everywhere.
    #[test]
    fn delegation_commits_the_same_set_under_channel_faults(
        wl_seed in 0u64..500,
        fault_seed in 0u64..1000,
        sim_seed in 0u64..100,
        loss_pm in 0u32..=300,
        dup_pm in 0u32..=300,
        reorder_pm in 0u32..=300,
        sites in 2usize..4,
        txns in 2usize..5,
        read_percent in 0u32..=50,
    ) {
        let sys = system(wl_seed, sites, txns, read_percent);
        let faults = FaultPlan {
            seed: fault_seed,
            loss: f64::from(loss_pm) / 1000.0,
            duplication: f64::from(dup_pm) / 1000.0,
            reorder: f64::from(reorder_pm) / 1000.0,
            reorder_window: 8,
            retransmit_after: 80,
            ..FaultPlan::none()
        };
        for resolution in SCHEMES {
            let base = SimConfig {
                seed: sim_seed,
                latency: LatencyModel::Fixed(4),
                resolution,
                invariant_audit: true,
                faults: faults.clone(),
                max_time: 300_000,
                ..Default::default()
            };
            check_pair(&sys, &base, &format!(
                "wl {wl_seed} faults {fault_seed} loss {loss_pm} dup {dup_pm} reorder {reorder_pm} under {resolution:?}"
            ))?;
        }
    }

    /// Crashes on top of lossy channels with delegation on: the wipe
    /// must clear the site ledger and the coordinator caches together,
    /// whatever the outage straddles — a delegated ack in flight, a
    /// pending revocation, a lease about to expire.
    #[test]
    fn delegated_runs_survive_crashes_with_lease_expiry(
        wl_seed in 0u64..300,
        fault_seed in 0u64..1000,
        crash_site in 0usize..2,
        crash_at in 10u64..200,
        down_for in 1u64..400,
        lease_ttl in 0u64..250,
        loss_pm in 0u32..=200,
        scheme_idx in 0usize..6,
    ) {
        let sys = system(wl_seed, 2, 3, 30);
        let faults = FaultPlan {
            seed: fault_seed,
            loss: f64::from(loss_pm) / 1000.0,
            duplication: 0.1,
            reorder: 0.1,
            reorder_window: 8,
            retransmit_after: 80,
            lease_ttl,
            crashes: vec![kplock::sim::SiteCrash { site: crash_site, at: crash_at, down_for }],
        };
        let base = SimConfig {
            latency: LatencyModel::Fixed(4),
            resolution: SCHEMES[scheme_idx],
            invariant_audit: true,
            faults,
            max_time: 300_000,
            ..Default::default()
        };
        check_pair(&sys, &base, &format!(
            "wl {wl_seed} faults {fault_seed} site {crash_site} crash@{crash_at}+{down_for} ttl {lease_ttl} loss {loss_pm} under {:?}",
            SCHEMES[scheme_idx]
        ))?;
    }
}

/// A revocation storm: five staggered transactions take turns on one
/// entity. Each finishes before its successor arrives, so every commit
/// leaves a delegated *residue* entry the successor's request must
/// demand back — revoke, drain, re-delegate, five times down the chain,
/// on the detection and the prevention arms alike.
#[test]
fn revocation_storm_drains_the_chain_to_completion() {
    let db = Database::from_spec(&[("x", 0)]);
    let txns: Vec<_> = (0..5)
        .map(|i| {
            let mut b = TxnBuilder::new(&db, format!("T{}", i + 1));
            b.script("Lx x Ux").unwrap();
            b.build().unwrap()
        })
        .collect();
    let sys = TxnSystem::new(db, txns);
    let arrivals = vec![0, 40, 80, 120, 160];
    for resolution in SCHEMES {
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            delegation: Delegation::On,
            resolution,
            invariant_audit: true,
            ..Default::default()
        };
        let r = run_with_arrivals(&sys, &cfg, &arrivals).expect("valid config");
        assert_eq!(r.outcome, RunOutcome::Completed, "{resolution:?}");
        assert_eq!(r.metrics.committed, 5, "{resolution:?}");
        assert!(
            r.metrics.revocations >= 3,
            "{resolution:?}: the chain must actually revoke, got {}",
            r.metrics.revocations
        );
        r.audit.legal.as_ref().unwrap();
        assert!(r.audit.serializable, "{resolution:?}");
    }
}

/// ROADMAP item 1's shape — the `sim_deleg` system (3 sites × 24
/// entities, 16 transactions × 10 steps, 95 % of steps at one site,
/// reads 90 % on even seeds and 10 % on odd ones, sync 2PL) with workload
/// seed = sim seed = fault seed, `lease_ttl` 400, no crash — run with the
/// audit on. The table checks see nothing: the site's table and the
/// coordinator's cache disagree about who holds, and each is internally
/// consistent. What the audit does see is the first update the stale
/// cache lets through to a site that no longer shows the hold.
fn item_1_run(
    seed: u64,
    resolution: DeadlockResolution,
    (loss, duplication, reorder): (f64, f64, f64),
    delegation: Delegation,
) -> kplock::sim::SimReport {
    let sys = random_system(&WorkloadParams {
        seed,
        sites: 3,
        entities_per_site: 24,
        transactions: 16,
        steps_per_txn: 10,
        hot_site_percent: 95,
        read_percent: if seed.is_multiple_of(2) { 90 } else { 10 },
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    });
    let cfg = SimConfig {
        seed,
        resolution,
        delegation,
        invariant_audit: true,
        faults: FaultPlan {
            lease_ttl: 400,
            ..FaultPlan::lossy(seed, loss, duplication, reorder)
        },
        ..Default::default()
    };
    let r = run(&sys, &cfg).expect("valid config");
    assert_eq!(r.outcome, RunOutcome::Completed, "seed {seed}");
    r
}

const LOSSY: (f64, f64, f64) = (0.05, 0.02, 0.10);
const REORDER_ONLY: (f64, f64, f64) = (0.0, 0.0, 0.10);

/// The three pinned reproducers of ROADMAP item 1, shortest first, each
/// with what the history's online audit says of the history an unaudited
/// release run commits: the tick of the recorded lock step that
/// double-locks, both instances and the entity.
const ITEM_1_PINS: [(u64, DeadlockResolution, (f64, f64, f64)); 3] = [
    // "tick 602: T4 (epoch 3) locks e2 already held by T1 (epoch 2)"
    (4288, SCHEMES[3], LOSSY),
    // "tick 2092: T1 (epoch 0) locks e10 already held by T5 (epoch 2)"
    (4449, SCHEMES[0], LOSSY),
    // "tick 2499: T6 (epoch 37) locks e4 already held by T7 (epoch 29)"
    (4102, SCHEMES[5], REORDER_ONLY),
];

fn item_1_pin_is_legal(pin: usize) {
    let (seed, resolution, rates) = ITEM_1_PINS[pin];
    let r = item_1_run(seed, resolution, rates, Delegation::On);
    r.audit
        .legal
        .as_ref()
        .unwrap_or_else(|e| panic!("seed {seed} under {resolution:?}: {e}"));
}

#[test]
#[ignore = "ROADMAP item 1: delegation double-grant under reordering"]
fn item_1_seed_4288_wound_wait_commits_a_legal_schedule() {
    item_1_pin_is_legal(0);
}

#[test]
#[ignore = "ROADMAP item 1: delegation double-grant under reordering"]
fn item_1_seed_4449_periodic_commits_a_legal_schedule() {
    item_1_pin_is_legal(1);
}

#[test]
#[ignore = "ROADMAP item 1: delegation double-grant under reordering"]
fn item_1_seed_4102_no_wait_reorder_only_commits_a_legal_schedule() {
    item_1_pin_is_legal(2);
}

/// ROADMAP item 1(c), first step: the audit stops the shortest pin at the
/// event — an update reaching a site whose table does not show the
/// updater holding the entity (site 0, tick 1124, `e2`: the entity the
/// illegal history double-locks) — identically in debug and `--release`
/// builds. With the audit off a release run goes on to commit the
/// illegal history quoted above. Item 1's fix deletes this test and
/// un-ignores the three pins.
#[test]
#[should_panic(expected = "update without a covering lock")]
fn item_1_seed_4288_wound_wait_is_caught_by_the_audit_at_the_uncovered_update() {
    let (seed, resolution, rates) = ITEM_1_PINS[0];
    item_1_run(seed, resolution, rates, Delegation::On);
}

/// The same three runs with delegation off: the fault plans are not the
/// culprit.
#[test]
fn item_1_pins_are_legal_and_serializable_with_delegation_off() {
    for (seed, resolution, rates) in ITEM_1_PINS {
        let r = item_1_run(seed, resolution, rates, Delegation::Off);
        r.audit
            .legal
            .as_ref()
            .unwrap_or_else(|e| panic!("seed {seed} under {resolution:?}: {e}"));
        assert!(r.audit.serializable, "seed {seed} under {resolution:?}");
    }
}
