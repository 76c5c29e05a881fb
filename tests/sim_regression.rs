//! Fixed-seed regression pins for the discrete-event simulator.
//!
//! The engine's default path (exclusive locks, FIFO grants, periodic
//! deadlock scan) must stay *bit-identical* across refactors of the lock
//! table: the paper-reproduction experiments depend on exact replay. Each
//! test here pins the full `Metrics` of a deterministic run; if one fails
//! after an intentional semantic change, re-derive the constants with the
//! printed actual values and justify the change in the PR.

use kplock_core::policy::LockStrategy;
use kplock_model::hierarchy::Granularity;
use kplock_model::TxnSystem;
use kplock_sim::{
    draw_arrivals, run, run_with_arrivals, ArrivalConfig, AvoidPlan, DeadlockDetection,
    DeadlockResolution, Delegation, FaultPlan, LatencyModel, Metrics, PreventionScheme, RunOutcome,
    SimConfig, SiteCrash, VictimPolicy,
};
use kplock_workload::{
    avoid_mix_sweep, fault_plan_ladder, fig5, hierarchy_system, hot_site_sweep, random_system,
    resolution_sweep, site_count_sweep, zipf_sweep, AccessProfile, HierarchyParams, WorkloadParams,
};

/// Column sums of `row(seed)` over seeds `0..seeds`: the integers the
/// per-run averages in ARCHITECTURE's tables are quotients of.
fn sum_over<const N: usize>(seeds: u64, row: impl Fn(u64) -> [u64; N]) -> [u64; N] {
    let mut sums = [0; N];
    for seed in 0..seeds {
        for (sum, v) in sums.iter_mut().zip(row(seed)) {
            *sum += v;
        }
    }
    sums
}

fn metrics(m: &Metrics) -> (usize, usize, u64, u64, usize, u64) {
    (
        m.committed,
        m.aborts,
        m.messages,
        m.lock_wait_ticks,
        m.deadlocks_resolved,
        m.makespan,
    )
}

#[test]
fn fixed_seed_random_system_is_pinned() {
    let sys = random_system(&WorkloadParams {
        seed: 21,
        sites: 3,
        entities_per_site: 2,
        transactions: 4,
        steps_per_txn: 6,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    });
    let cfg = SimConfig {
        latency: LatencyModel::Uniform(1, 20),
        seed: 7,
        ..Default::default()
    };
    let r = run(&sys, &cfg).expect("valid config");
    assert!(r.finished());
    assert_eq!(
        metrics(&r.metrics),
        PIN_RANDOM,
        "actual: {:?}",
        metrics(&r.metrics)
    );
}

#[test]
fn fixed_seed_deadlock_prone_run_is_pinned() {
    let sys = random_system(&WorkloadParams {
        seed: 23,
        sites: 2,
        entities_per_site: 2,
        transactions: 4,
        steps_per_txn: 6,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    });
    let cfg = SimConfig {
        latency: LatencyModel::Fixed(5),
        victim_policy: VictimPolicy::Oldest,
        ..Default::default()
    };
    let r = run(&sys, &cfg).expect("valid config");
    assert!(r.finished());
    assert_eq!(
        metrics(&r.metrics),
        PIN_DEADLOCK,
        "actual: {:?}",
        metrics(&r.metrics)
    );
}

#[test]
fn fixed_seed_fig5_run_is_pinned() {
    let cfg = SimConfig {
        latency: LatencyModel::Uniform(1, 9),
        seed: 3,
        ..Default::default()
    };
    let r = run(&fig5(), &cfg).expect("valid config");
    assert!(r.finished());
    assert!(r.audit.serializable, "fig5 is safe");
    assert_eq!(
        metrics(&r.metrics),
        PIN_FIG5,
        "actual: {:?}",
        metrics(&r.metrics)
    );
}

#[test]
fn fixed_seed_prevention_runs_are_pinned() {
    // The same seed-23 workload as PIN_DEADLOCK, run under each
    // prevention scheme. Wound-wait lands bit-identical to the detection
    // pin — on this workload every admitted wait already points young →
    // old, so nothing is ever wounded — while wait-die and no-wait trade
    // waiting (fewer lock-wait ticks) for restarts. Pinning all three
    // keeps the prevention path as replay-stable as the default one.
    let sys = random_system(&WorkloadParams {
        seed: 23,
        sites: 2,
        entities_per_site: 2,
        transactions: 4,
        steps_per_txn: 6,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    });
    for (scheme, pin) in [
        (PreventionScheme::WoundWait, PIN_WOUND_WAIT),
        (PreventionScheme::WaitDie, PIN_WAIT_DIE),
        (PreventionScheme::NoWait, PIN_NO_WAIT),
    ] {
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            resolution: scheme.into(),
            ..Default::default()
        };
        let r = run(&sys, &cfg).expect("valid config");
        assert!(r.finished(), "{scheme:?}");
        assert_eq!(r.metrics.deadlocks_resolved, 0, "{scheme:?}");
        assert_eq!(r.metrics.prevention_restarts, r.metrics.aborts);
        assert_eq!(
            metrics(&r.metrics),
            pin,
            "{scheme:?} actual: {:?}",
            metrics(&r.metrics)
        );
    }
}

#[test]
fn fixed_avoidance_runs_are_pinned() {
    // The RNG-free certified-mix family at Fixed(5): the fully certified
    // rung (avoidance's Theorem-level regime — zero aborts by contract)
    // and a half-certified rung whose fallback half is metered by
    // wound-wait. Both runs are deterministic, so the full metric tuples
    // pin exact replay of the avoidance arm like the arms above.
    let sweep = avoid_mix_sweep(4, 4, 2, &[4, 2]);
    for (sc, pin) in sweep.iter().zip([PIN_AVOID_FULL, PIN_AVOID_MIXED]) {
        let r = run(&sc.system, &sc.config(5)).expect("valid config");
        assert!(r.finished(), "{}", sc.name);
        assert_eq!(r.metrics.deadlocks_resolved, 0, "{}", sc.name);
        assert_eq!(r.metrics.avoid_certified, sc.certified, "{}", sc.name);
        assert_eq!(
            metrics(&r.metrics),
            pin,
            "{} actual: {:?}",
            sc.name,
            metrics(&r.metrics)
        );
    }
}

#[test]
fn pinned_mixed_avoidance_run_survives_the_fault_ladder() {
    // The PIN_AVOID_MIXED scenario re-run under the loss and duplication
    // rungs of the canonical fault ladder, with the per-step lock-table
    // invariant audit on: faulty channels may reorder the fallback's
    // wounds but must never let a cycle through the certificate or
    // corrupt a table. (Outcome-shape assertions, not metric pins — the
    // point is safety under faults, and the clean-run pin above already
    // guards replay.)
    let sc = &avoid_mix_sweep(4, 4, 2, &[2])[0];
    for (name, faults) in fault_plan_ladder(97, &[0.15], 0.20) {
        if !(name.starts_with("loss=") || name.starts_with("dup=")) {
            continue;
        }
        let cfg = SimConfig {
            faults,
            invariant_audit: true,
            max_time: 400_000,
            ..sc.config(5)
        };
        let r = run(&sc.system, &cfg).expect("valid config");
        assert_ne!(r.outcome, RunOutcome::Stalled, "{name}");
        assert_eq!(r.metrics.deadlocks_resolved, 0, "{name}");
        assert_eq!(r.metrics.probe_messages, 0, "{name}");
        if r.outcome == RunOutcome::Completed {
            assert!(r.audit.serializable, "{name}");
        }
    }
}

#[test]
fn fixed_seed_delegated_run_is_pinned() {
    // The PIN_RANDOM workload re-run with delegated ownership on: the
    // full metric tuple plus the delegation counters pin the cached
    // fast path, the revocation protocol and the what-if accounting.
    // (`Delegation::Off` needs no twin pin — it is the default every
    // other test in this file already runs.)
    let sys = random_system(&WorkloadParams {
        seed: 21,
        sites: 3,
        entities_per_site: 2,
        transactions: 4,
        steps_per_txn: 6,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    });
    let cfg = SimConfig {
        latency: LatencyModel::Uniform(1, 20),
        seed: 7,
        delegation: Delegation::On,
        invariant_audit: true,
        ..Default::default()
    };
    let r = run(&sys, &cfg).expect("valid config");
    assert!(r.finished());
    assert!(r.audit.serializable);
    let deleg = |m: &Metrics| {
        (
            m.lock_traffic,
            m.cache_hits,
            m.revocations,
            m.messages_saved,
        )
    };
    assert_eq!(
        (metrics(&r.metrics), deleg(&r.metrics)),
        PIN_DELEGATED,
        "actual: {:?}",
        (metrics(&r.metrics), deleg(&r.metrics))
    );
    // The cache never sends what it saves: saved messages are not in the
    // wire count, so On strictly undercuts the Off pin's total.
    assert!(r.metrics.messages < PIN_RANDOM.2);
}

#[test]
fn duplicated_grants_never_extend_leases_under_the_dup_heavy_ladder() {
    // Satellite regression: a duplicated grant message re-lands at the
    // lease table and must NOT slide the renewal clock — the lease keys
    // off the original grant. Dup-heavy channels plus a crash that
    // outlives the ttl make the distinction observable: with the old
    // sliding clock, lucky duplicates "renew" doomed leases just before
    // the outage and rescue holders that rightly expire, deflating
    // `leases_expired`. The exact count (and completion) is pinned for
    // both delegation modes.
    let sys = random_system(&WorkloadParams {
        seed: 23,
        sites: 2,
        entities_per_site: 2,
        transactions: 4,
        steps_per_txn: 6,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    });
    for (delegation, pin) in [
        (Delegation::Off, PIN_DUP_LEASES_OFF),
        (Delegation::On, PIN_DUP_LEASES_ON),
    ] {
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            delegation,
            invariant_audit: true,
            faults: FaultPlan {
                seed: 11,
                duplication: 0.8,
                reorder_window: 6,
                retransmit_after: 80,
                lease_ttl: 40,
                crashes: vec![SiteCrash {
                    site: 0,
                    at: 30,
                    down_for: 90,
                }],
                ..FaultPlan::none()
            },
            max_time: 500_000,
            ..Default::default()
        };
        let r = run(&sys, &cfg).expect("valid config");
        assert_eq!(r.outcome, RunOutcome::Completed, "{delegation:?}");
        assert!(r.audit.serializable, "{delegation:?}");
        assert!(r.metrics.messages_duplicated > 0, "dup must bite");
        assert_eq!(r.metrics.recoveries, 1, "{delegation:?}");
        assert_eq!(
            (r.metrics.leases_expired, r.metrics.committed),
            pin,
            "{delegation:?} actual: {:?}",
            (r.metrics.leases_expired, r.metrics.committed)
        );
        assert!(
            r.metrics.leases_expired >= 1,
            "{delegation:?}: a 90-tick outage must outlive a 40-tick lease"
        );
    }
}

#[test]
fn scan_1e5_lock_request_counts_are_pinned() {
    // Lock requests the sites serve for ten scans over a 100-file ×
    // 1 000-record catalog, clean and under loss: flat needs one per
    // record, the hierarchy one escalated file lock per scan. The counts
    // are machine-independent, so any drift is a change in workload
    // generation, escalation or admission. (`tests/hierarchy.rs` runs
    // the same catalog with the invariant audit on and holds the ≥5×
    // bar; the counts do not depend on the audit.)
    let p = HierarchyParams {
        profile: AccessProfile::Scan,
        files: 100,
        records_per_file: 1000,
        sites: 4,
        transactions: 10,
        zipf_theta: 0.6,
        arrival_gap: 50,
        seed: 3,
    };
    let hier16 = Granularity::Hierarchical {
        escalation_threshold: 16,
    };
    for (g, pin, wire_pin) in [
        (Granularity::Flat, PIN_SCAN_FLAT, PIN_SCAN_FLAT_WIRE),
        (hier16, PIN_SCAN_HIER16, PIN_SCAN_HIER16_WIRE),
    ] {
        let sc = hierarchy_system(&p, g);
        let runs = [FaultPlan::none(), FaultPlan::lossy(7, 0.05, 0.02, 0.10)].map(|faults| {
            let cfg = SimConfig {
                latency: LatencyModel::Fixed(5),
                seed: 17,
                faults,
                max_time: 20_000_000,
                ..Default::default()
            };
            let r = run_with_arrivals(&sc.system, &cfg, &sc.arrivals).expect("valid config");
            assert!(r.finished(), "{}", sc.name);
            r.audit
                .legal
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: illegal schedule: {e}", sc.name));
            assert_eq!(r.metrics.deadlocks_resolved, 0, "{}", sc.name);
            (
                r.metrics.lock_requests,
                [r.metrics.messages, r.metrics.makespan],
            )
        });
        assert_eq!(runs.map(|(requests, _)| requests), pin, "{}", sc.name);
        assert_eq!(runs.map(|(_, wire)| wire), wire_pin, "{}", sc.name);
    }
}

#[test]
fn delegation_lock_traffic_counts_are_pinned() {
    // Acquire/release wire traffic of read-heavy skewed workloads (3
    // sites × 24 entities, 10 sync-2PL transactions × 10 steps, 90 %
    // reads), summed over sim seeds 0..20, delegation off and on under
    // both ordering-based preventers. Delegation must keep cutting the
    // traffic by at least a third on the two headline pairs.
    let base = WorkloadParams {
        seed: 42,
        sites: 3,
        entities_per_site: 24,
        transactions: 10,
        steps_per_txn: 10,
        read_percent: 90,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    };
    let hot95 = hot_site_sweep(&base, &[95]).pop().expect("one");
    let zipf09 = zipf_sweep(&base, &[0.9]).pop().expect("one");
    // Per delegation mode: lock traffic, cache hits, revocations, aborts.
    let traffic = |sys: &TxnSystem, scheme: PreventionScheme| {
        [Delegation::Off, Delegation::On].map(|delegation| {
            sum_over(20, |seed| {
                let cfg = SimConfig {
                    seed,
                    latency: LatencyModel::Fixed(5),
                    resolution: scheme.into(),
                    delegation,
                    max_time: 2_000_000,
                    ..Default::default()
                };
                let r = run(sys, &cfg).expect("valid config");
                assert_eq!(
                    r.outcome,
                    RunOutcome::Completed,
                    "{scheme:?} {delegation:?}"
                );
                let m = &r.metrics;
                [m.lock_traffic, m.cache_hits, m.revocations, m.aborts as u64]
            })
        })
    };
    let sums = [
        traffic(&hot95.system, PreventionScheme::WoundWait),
        traffic(&hot95.system, PreventionScheme::WaitDie),
        traffic(&zipf09.system, PreventionScheme::WoundWait),
        traffic(&zipf09.system, PreventionScheme::WaitDie),
    ];
    let counts = sums.map(|[off, on]| [off[0], on[0]]);
    assert_eq!(counts, PIN_DELEG_TRAFFIC);
    assert_eq!(sums.map(|[_, on]| [on[1], on[2], on[3]]), PIN_DELEG_CACHE);
    // An abort drops its cache, so a restart re-acquires remotely what it
    // held: the saving is the unlocks served from the cache, not a halving
    // (1.50× and 1.73× here).
    for [off, on] in [counts[1], counts[2]] {
        assert!(
            2 * off >= 3 * on,
            "delegation must cut {off} by a third, got {on}"
        );
    }
}

#[test]
fn fixed_seed_detector_fault_and_lease_paths_are_pinned() {
    // The PIN_RANDOM workload (one guaranteed deadlock at this seed) on
    // the arms no pin above reaches: block-time and probe detection,
    // lossy channels with retransmission under probes and under
    // wound-wait, and a site crash against a finite lease ttl with
    // delegation on.
    let sys = random_system(&WorkloadParams {
        seed: 21,
        sites: 3,
        entities_per_site: 2,
        transactions: 4,
        steps_per_txn: 6,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    });
    let clean = FaultPlan::none();
    let lossy = FaultPlan::lossy(5, 0.15, 0.10, 0.20);
    let crash = FaultPlan {
        seed: 11,
        loss: 0.05,
        reorder_window: 6,
        retransmit_after: 80,
        lease_ttl: 40,
        crashes: vec![SiteCrash {
            site: 0,
            at: 60,
            down_for: 90,
        }],
        ..FaultPlan::none()
    };
    let probe = DeadlockResolution::Detect(DeadlockDetection::Probe);
    let arm = |resolution, faults: &FaultPlan, delegation| SimConfig {
        latency: LatencyModel::Uniform(1, 20),
        seed: 7,
        invariant_audit: true,
        max_time: 500_000,
        resolution,
        faults: faults.clone(),
        delegation,
        ..Default::default()
    };
    let arms = [
        arm(DeadlockDetection::OnBlock.into(), &clean, Delegation::Off),
        arm(probe, &clean, Delegation::Off),
        arm(probe, &lossy, Delegation::Off),
        arm(PreventionScheme::WoundWait.into(), &lossy, Delegation::Off),
        arm(DeadlockResolution::default(), &crash, Delegation::On),
    ];
    for (i, (cfg, pin)) in arms.iter().zip(PIN_REWIRED).enumerate() {
        let r = run(&sys, cfg).expect("valid config");
        assert_eq!(r.outcome, RunOutcome::Completed, "arm {i}");
        assert!(r.audit.serializable, "arm {i}");
        let m = &r.metrics;
        let mut got = vec![
            m.committed as u64,
            m.aborts as u64,
            m.messages,
            m.lock_wait_ticks,
            m.deadlocks_resolved as u64,
            m.makespan,
            m.probe_messages,
            m.detection_latency_ticks,
            m.lock_requests,
            m.lock_traffic,
            m.messages_dropped,
            m.messages_duplicated,
            m.leases_expired as u64,
            m.recoveries as u64,
            m.cache_hits,
            m.revocations,
        ];
        got.extend(
            r.committed_epoch
                .iter()
                .map(|e| u64::from(e.expect("done"))),
        );
        assert_eq!(got, pin, "arm {i}");
        // What the chases cost, from the run's own counters: messages per
        // initiation and closes per executed abort are ratios of these.
        let chases = [m.probe_initiations, m.probe_closes];
        assert_eq!(chases, PIN_CHASES[i], "arm {i}");
    }
}

#[test]
fn long_transaction_and_open_loop_runs_are_pinned() {
    // Where step issue and commit detection do the most work: two scans
    // of 1 000 records each (3 000-step transactions, one ready step at a
    // time) locked record by record and with one escalated file lock, and
    // 64 contended transactions arriving open-loop under periodic
    // detection and wound-wait, where aborts reset a coordinator's
    // progress mid-flight. Messages and ticks move if any step is issued
    // in another order (the latency RNG is drawn per send) or any commit
    // is noticed at another event.
    let p = HierarchyParams {
        profile: AccessProfile::Scan,
        files: 20,
        records_per_file: 1000,
        sites: 4,
        transactions: 2,
        zipf_theta: 0.6,
        arrival_gap: 50,
        seed: 3,
    };
    let hier16 = Granularity::Hierarchical {
        escalation_threshold: 16,
    };
    let open = random_system(&WorkloadParams {
        seed: 29,
        sites: 4,
        entities_per_site: 4,
        transactions: 64,
        steps_per_txn: 8,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    });
    let arrivals = draw_arrivals(
        open.len(),
        &ArrivalConfig {
            mean_gap: 20,
            seed: 29,
        },
    );
    let scan = |g| {
        let sc = hierarchy_system(&p, g);
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            seed: 17,
            max_time: 20_000_000,
            ..Default::default()
        };
        run_with_arrivals(&sc.system, &cfg, &sc.arrivals).expect("valid config")
    };
    let arrive = |resolution| {
        let cfg = SimConfig {
            latency: LatencyModel::Uniform(1, 20),
            seed: 29,
            resolution,
            ..Default::default()
        };
        run_with_arrivals(&open, &cfg, &arrivals).expect("valid config")
    };
    let runs = [
        scan(Granularity::Flat),
        scan(hier16),
        arrive(DeadlockResolution::default()),
        arrive(PreventionScheme::WoundWait.into()),
    ];
    for (i, (r, (pin, epochs))) in runs.iter().zip(PIN_LONG).enumerate() {
        assert_eq!(r.outcome, RunOutcome::Completed, "run {i}");
        assert!(r.audit.serializable, "run {i}");
        let m = &r.metrics;
        let got = [
            m.messages,
            m.elapsed_ticks,
            m.lock_requests,
            m.aborts as u64,
        ];
        let got_epochs: Vec<u32> = r.committed_epoch.iter().map(|e| e.expect("done")).collect();
        assert_eq!((got, &got_epochs[..]), (pin, epochs), "run {i}");
    }
}

#[test]
fn section_5_detection_cost_by_site_count_is_pinned() {
    // ARCHITECTURE §5, "What distribution costs, measured": the same data
    // (6 entities, 5 sync-2PL transactions) spread over 1, 2, 3 and 6
    // sites under the three detectors at latency 10, summed over sim
    // seeds 0..60.
    let base = WorkloadParams {
        seed: 31,
        transactions: 5,
        steps_per_txn: 6,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    };
    let detectors = [
        DeadlockDetection::Periodic,
        DeadlockDetection::OnBlock,
        DeadlockDetection::Probe,
    ];
    let sweep = site_count_sweep(&base, 6, &[1, 2, 3, 6]);
    for (sc, pin) in sweep.iter().zip(PIN_DETECTION_BY_SITES) {
        let rows = detectors.map(|detection| {
            sum_over(60, |seed| {
                let cfg = SimConfig {
                    seed,
                    latency: LatencyModel::Fixed(10),
                    resolution: detection.into(),
                    ..Default::default()
                };
                let r = run(&sc.system, &cfg).expect("valid config");
                assert_eq!(
                    r.outcome,
                    RunOutcome::Completed,
                    "{} {detection:?}",
                    sc.name
                );
                let m = &r.metrics;
                [
                    m.deadlocks_resolved as u64,
                    m.messages,
                    m.probe_messages,
                    m.detection_latency_ticks,
                ]
            })
        });
        assert_eq!(rows, pin, "{}", sc.name);
    }
}

#[test]
fn hot_batch_global_detector_sums_are_pinned() {
    // The global scan where it works hardest: sixteen `sim_hot`-shaped
    // batches (24 sync-2PL transactions of 8 steps over 4 sites × 8
    // entities, Zipf 0.6, half reads) at latency 2..=8, workload and sim
    // seed equal, under OnBlock and Periodic. A run resolves dozens of
    // cycles, so these sums move if a scan picks another cycle, victim or
    // iteration count anywhere.
    let detectors = [DeadlockDetection::OnBlock, DeadlockDetection::Periodic];
    let rows = detectors.map(|detection| {
        sum_over(16, |seed| {
            let sys = random_system(&WorkloadParams {
                seed,
                sites: 4,
                entities_per_site: 8,
                transactions: 24,
                steps_per_txn: 8,
                zipf_theta: 0.6,
                read_percent: 50,
                strategy: LockStrategy::TwoPhaseSync,
                ..Default::default()
            });
            let cfg = SimConfig {
                seed,
                latency: LatencyModel::Uniform(2, 8),
                resolution: detection.into(),
                ..Default::default()
            };
            let r = run(&sys, &cfg).expect("valid config");
            assert_eq!(r.outcome, RunOutcome::Completed, "{detection:?} {seed}");
            let m = &r.metrics;
            [
                m.committed as u64,
                m.aborts as u64,
                m.messages,
                m.deadlocks_resolved as u64,
                m.detection_latency_ticks,
                m.lock_wait_ticks,
                m.makespan,
            ]
        })
    });
    assert_eq!(rows, PIN_ONBLOCK_HOT, "actual: {rows:?}");
}

#[test]
fn hot_batch_probe_sums_are_pinned() {
    // The distributed detector at `sim_hot`'s shape: the sixteen batches
    // of `hot_batch_global_detector_sums_are_pinned` under Probe. A run
    // launches thousands of searches and closes dozens of cycles, so these
    // sums move if a site examines, routes or closes anything differently
    // — or if a probe's path, its order or an RNG draw behind it moves.
    let row = sum_over(16, |seed| {
        let sys = random_system(&WorkloadParams {
            seed,
            sites: 4,
            entities_per_site: 8,
            transactions: 24,
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
            ..Default::default()
        };
        let r = run(&sys, &cfg).expect("valid config");
        assert_eq!(r.outcome, RunOutcome::Completed, "{seed}");
        let m = &r.metrics;
        [
            m.committed as u64,
            m.aborts as u64,
            m.messages,
            m.probe_messages,
            m.probe_initiations,
            m.probe_closes,
            m.deadlocks_resolved as u64,
            m.detection_latency_ticks,
            m.elapsed_ticks,
        ]
    });
    assert_eq!(row, PIN_PROBE_HOT, "actual: {row:?}");
}

/// The five arms §6 compares, in its table's order.
const RESOLUTION_ARMS: [DeadlockResolution; 5] = [
    DeadlockResolution::Detect(DeadlockDetection::Periodic),
    DeadlockResolution::Detect(DeadlockDetection::Probe),
    DeadlockResolution::Prevent(PreventionScheme::WoundWait),
    DeadlockResolution::Prevent(PreventionScheme::WaitDie),
    DeadlockResolution::Prevent(PreventionScheme::NoWait),
];

/// `sys` under each of [`RESOLUTION_ARMS`] at a fixed latency: deadlocks,
/// prevention restarts, probe messages and makespan, summed over sim
/// seeds 0..40.
fn resolution_rows(sys: &TxnSystem, latency: u64) -> [[u64; 4]; 5] {
    RESOLUTION_ARMS.map(|resolution| {
        sum_over(40, |seed| {
            let cfg = SimConfig {
                seed,
                latency: LatencyModel::Fixed(latency),
                resolution,
                ..Default::default()
            };
            let r = run(sys, &cfg).expect("valid config");
            assert_eq!(r.outcome, RunOutcome::Completed, "{resolution:?}");
            let m = &r.metrics;
            if matches!(resolution, DeadlockResolution::Prevent(_)) {
                assert_eq!(m.deadlocks_resolved, 0, "{resolution:?}");
            }
            [
                m.deadlocks_resolved as u64,
                m.prevention_restarts as u64,
                m.probe_messages,
                m.makespan,
            ]
        })
    })
}

#[test]
fn section_6_prevention_vs_detection_is_pinned() {
    // ARCHITECTURE §6, "The trade, measured": the rotated-lock-order
    // workload (6 entities, 4 sync-2PL transactions) over 1, 2, 3 and 6
    // sites at latency 10, then the 3-site system at latency 40.
    let sweep = resolution_sweep(6, 4, &[1, 2, 3, 6]);
    for (sc, pin) in sweep.iter().zip(PIN_RESOLUTION_BY_SITES) {
        assert_eq!(resolution_rows(&sc.system, 10), pin, "{}", sc.name);
    }
    assert_eq!(
        resolution_rows(&sweep[2].system, 40),
        PIN_RESOLUTION_LATENCY_40
    );
}

#[test]
fn section_7_fault_cost_by_loss_rate_is_pinned() {
    // ARCHITECTURE §7, "What faults cost, measured": the 3-site
    // rotated-lock-order system of §6 at latency 10 over channels losing
    // 0, 10 and 30 % of all messages, probes against wound-wait, summed
    // over fault seeds 0..30 (the sim seed stays at its default). Every
    // run must complete: that is the table's 30/30 column.
    let sys = &resolution_sweep(6, 4, &[3])[0].system;
    let arms = [
        DeadlockResolution::Detect(DeadlockDetection::Probe),
        DeadlockResolution::Prevent(PreventionScheme::WoundWait),
    ];
    for (loss, pin) in [0.0, 0.1, 0.3].into_iter().zip(PIN_FAULT_COST) {
        let rows = arms.map(|resolution| {
            sum_over(30, |seed| {
                let faults = if loss > 0.0 {
                    FaultPlan::lossy(seed, loss, 0.0, 0.0)
                } else {
                    FaultPlan::none()
                };
                let cfg = SimConfig {
                    latency: LatencyModel::Fixed(10),
                    resolution,
                    faults,
                    max_time: 2_000_000,
                    ..Default::default()
                };
                let r = run(sys, &cfg).expect("valid config");
                assert_eq!(r.outcome, RunOutcome::Completed, "{loss} {resolution:?}");
                let m = &r.metrics;
                [
                    m.messages_dropped,
                    m.messages,
                    m.deadlocks_resolved as u64,
                    m.detection_latency_ticks,
                    m.prevention_restarts as u64,
                    m.makespan,
                ]
            })
        });
        assert_eq!(rows, pin, "loss {loss}");
    }
}

#[test]
fn section_11_detect_prevent_avoid_is_pinned() {
    // ARCHITECTURE §11, "The three-way trade, measured": three RNG-free
    // families (6 entities, 4 transactions, 3 sites) at latency 5 — the
    // aligned mix certified 4/4, the half-certified mix, and the rotated
    // orders of §6, of which greedy synthesis certifies one — each under
    // periodic, probe, wound-wait and the avoidance arm, one run each.
    let mut families: Vec<(TxnSystem, AvoidPlan)> = avoid_mix_sweep(6, 4, 3, &[4, 2])
        .into_iter()
        .map(|sc| (sc.system, sc.plan))
        .collect();
    let rotated = resolution_sweep(6, 4, &[3]).pop().expect("one").system;
    let plan = AvoidPlan::synthesize(&rotated);
    families.push((rotated, plan));
    let certified: Vec<usize> = families.iter().map(|(_, p)| p.certified_count()).collect();
    assert_eq!(certified, [4, 2, 1]);

    let arms = [
        DeadlockResolution::Detect(DeadlockDetection::Periodic),
        DeadlockResolution::Detect(DeadlockDetection::Probe),
        DeadlockResolution::Prevent(PreventionScheme::WoundWait),
        DeadlockResolution::Avoid,
    ];
    for (i, ((sys, plan), pin)) in families.iter().zip(PIN_THREE_WAY).enumerate() {
        let rows = arms.map(|resolution| {
            let avoiding = resolution == DeadlockResolution::Avoid;
            let cfg = SimConfig {
                latency: LatencyModel::Fixed(5),
                resolution,
                avoid: avoiding.then(|| plan.clone()),
                ..Default::default()
            };
            let r = run(sys, &cfg).expect("valid config");
            assert_eq!(
                r.outcome,
                RunOutcome::Completed,
                "family {i} {resolution:?}"
            );
            assert!(r.audit.serializable, "family {i} {resolution:?}");
            let m = &r.metrics;
            [
                m.deadlocks_resolved as u64,
                m.prevention_restarts as u64,
                m.messages,
                m.probe_messages,
                m.makespan,
            ]
        });
        assert_eq!(rows, pin, "family {i}");
    }
}

// Pinned values, captured from the seed engine before the kplock-dlm
// lock-table refactor (PR 2) and required to survive it unchanged.
const PIN_RANDOM: (usize, usize, u64, u64, usize, u64) = (4, 1, 122, 875, 1, 402);
const PIN_DEADLOCK: (usize, usize, u64, u64, usize, u64) = (4, 0, 100, 660, 0, 250);
const PIN_FIG5: (usize, usize, u64, u64, usize, u64) = (2, 0, 48, 54, 0, 53);

// Prevention pins (PR 4): (committed, aborts, messages, lock_wait_ticks,
// deadlocks_resolved, makespan) on the seed-23 workload at Fixed(5).
const PIN_WOUND_WAIT: (usize, usize, u64, u64, usize, u64) = (4, 0, 100, 660, 0, 250);
const PIN_WAIT_DIE: (usize, usize, u64, u64, usize, u64) = (4, 9, 136, 80, 0, 287);
const PIN_NO_WAIT: (usize, usize, u64, u64, usize, u64) = (4, 10, 140, 0, 0, 293);

// Avoidance pins (PR 7): the certified-mix family (4 entities over 2
// sites, 4 transactions) at Fixed(5) — fully certified, then half.
const PIN_AVOID_FULL: (usize, usize, u64, u64, usize, u64) = (4, 0, 96, 480, 0, 360);
const PIN_AVOID_MIXED: (usize, usize, u64, u64, usize, u64) = (4, 5, 118, 329, 0, 400);

// Delegation pins (PR 10): the PIN_RANDOM workload with delegated
// ownership on — the base tuple plus
// (lock_traffic, cache_hits, revocations, messages_saved).
#[allow(clippy::type_complexity)]
const PIN_DELEGATED: ((usize, usize, u64, u64, usize, u64), (u64, u64, u64, u64)) =
    ((4, 1, 111, 1135, 1, 439), (61, 15, 10, 24));

// Satellite pins (PR 10): (leases_expired, committed) on the seed-23
// workload under dup=0.8 channels and a 90-tick outage against a
// 40-tick lease ttl, per delegation mode.
const PIN_DUP_LEASES_OFF: (usize, usize) = (2, 4);
const PIN_DUP_LEASES_ON: (usize, usize) = (2, 4);

// Count pins (PR 9, PR 10; in `BENCH_10.json` until PR 14 moved them
// here): lock requests of the 10⁵-record scan as [clean, lossy], and
// lock traffic as [delegation off, on] for hot95 wound-wait, hot95
// wait-die, zipf09 wound-wait, zipf09 wait-die.
const PIN_SCAN_FLAT: [u64; 2] = [10_000, 11_752];
const PIN_SCAN_HIER16: [u64; 2] = [30, 334];
const PIN_DELEG_TRAFFIC: [[u64; 2]; 4] = [
    [7_558, 4_718],
    [11_102, 7_391],
    [9_300, 5_368],
    [10_020, 6_468],
];

// Rewired-path pins (PR 15; literals from a run of the PR 14 engine), one
// row per arm — on-block, probe, probe+lossy, wound-wait+lossy,
// crash+lease+delegation: committed, aborts, messages, lock_wait_ticks,
// deadlocks_resolved, makespan, probe_messages, detection_latency_ticks,
// lock_requests, lock_traffic, messages_dropped, messages_duplicated,
// leases_expired, recoveries, cache_hits, revocations, then the four
// commit epochs.
// The two probe rows are PR 23's: a chase is a marked search with
// re-chases since then, finds another cycle first and kills another victim.
#[rustfmt::skip]
const PIN_REWIRED: [[u64; 20]; 5] = [
    [4, 3, 132, 860, 3, 515, 0, 1, 26, 82, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2],
    [4, 2, 205, 1198, 2, 472, 69, 35, 24, 80, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1],
    [4, 4, 428, 3825, 4, 1635, 200, 58, 72, 149, 72, 32, 0, 0, 0, 0, 0, 0, 3, 1],
    [4, 10, 261, 3752, 0, 1705, 0, 0, 86, 178, 48, 21, 0, 0, 0, 0, 0, 0, 1, 9],
    [4, 4, 231, 2406, 2, 892, 0, 32, 55, 143, 20, 0, 2, 1, 15, 10, 1, 0, 2, 1],
];

// Chase-cost pins (PR 23), the same five arms: probe_initiations and
// probe_closes, beside the probe_messages above. Arm 1 sends 69 messages
// for 21 searches (3.3 each) and its coordinators receive 4 orders for the
// 2 aborts they execute; nothing but a probe arm counts anything.
const PIN_CHASES: [[u64; 2]; 5] = [[0; 2], [21, 4], [79, 8], [0; 2], [0; 2]];

// Long-transaction and open-loop pins (PR 16; literals from a run of the
// PR 15 engine), one row per run — flat scan, hier16 scan, 64 arrivals
// under periodic detection, the same under wound-wait: messages,
// elapsed_ticks, lock_requests, aborts, then every commit epoch.
#[rustfmt::skip]
const PIN_LONG: [([u64; 4], &[u32]); 4] = [
    ([12000, 30152, 2000, 0], &[0, 0]),
    ([4024, 10212, 6, 0], &[0, 0]),
    ([7376, 9695, 3609, 804], &[
        0, 0, 0, 0, 0, 24, 24, 9, 7, 2, 24, 34, 0, 25, 13, 9, 0, 0, 0, 10, 0, 7, 7, 24, 4, 13, 15,
        25, 33, 0, 0, 39, 0, 12, 12, 2, 6, 18, 25, 4, 26, 0, 12, 8, 22, 30, 0, 6, 13, 6, 18, 34,
        26, 23, 32, 10, 19, 6, 2, 9, 23, 16, 11, 25,
    ]),
    ([24094, 7590, 9995, 2834], &[
        0, 0, 1, 0, 1, 5, 5, 6, 8, 8, 11, 12, 13, 15, 17, 18, 18, 20, 20, 22, 25, 25, 27, 28, 29,
        34, 32, 37, 36, 42, 41, 41, 44, 43, 44, 50, 49, 48, 50, 48, 54, 57, 62, 61, 62, 62, 69, 71,
        75, 79, 77, 79, 80, 85, 77, 81, 85, 88, 90, 90, 91, 90, 95, 101,
    ]),
];

// Table pins (PR 20; literals printed by the PR 18 `experiments` binary,
// which this PR deletes, with each row's integer sums printed beside its
// per-run averages).
// Every probe row of §§5, 6, 7 and 11 but §6's latency-40 one and §11's
// aligned family was re-pinned by PR 23 (the marked search); no other row
// moved.

// §13: [messages, makespan] of the 10⁵-record scan as [clean, lossy], and
// §14: [cache_hits, revocations, aborts] with delegation on, in
// `PIN_DELEG_TRAFFIC`'s row order.
const PIN_SCAN_FLAT_WIRE: [[u64; 2]; 2] = [[60_000, 60_188], [68_134, 113_456]];
const PIN_SCAN_HIER16_WIRE: [[u64; 2]; 2] = [[20_120, 20_447], [22_798, 37_918]];
const PIN_DELEG_CACHE: [[u64; 3]; 4] = [
    [1_620, 220, 82],
    [1_638, 247, 366],
    [1_880, 200, 110],
    [1_800, 205, 206],
];

// §5: per site count (1, 2, 3, 6) and detector (periodic, on-block,
// probe), over 60 seeds: deadlocks, messages, probe messages, detection
// latency ticks.
#[rustfmt::skip]
const PIN_DETECTION_BY_SITES: [[[u64; 4]; 3]; 4] = [
    [[0, 8160, 0, 0], [0, 8160, 0, 0], [0, 8160, 0, 0]],
    [[120, 8220, 0, 1800], [120, 8100, 0, 0], [120, 9540, 1020, 3000]],
    [[240, 10082, 0, 8400], [240, 9780, 0, 0], [240, 16392, 5892, 4800]],
    [[0, 8160, 0, 0], [0, 8160, 0, 0], [0, 13620, 5460, 0]],
];

// Hot-batch pins (literals from a run of the engine before the scan gained
// its cycle-existence test, which must leave them unchanged): over the
// sixteen batches, under OnBlock then Periodic: committed, aborts,
// messages, deadlocks_resolved, detection_latency_ticks, lock_wait_ticks,
// makespan.
const PIN_ONBLOCK_HOT: [[u64; 7]; 2] = [
    [384, 909, 25_042, 909, 13_712, 305_046, 19_210],
    [384, 947, 26_325, 947, 42_490, 530_991, 26_863],
];

// The same sixteen batches under Probe: committed, aborts, messages,
// probe_messages, probe_initiations, probe_closes, deadlocks_resolved,
// detection_latency_ticks, elapsed_ticks.
const PIN_PROBE_HOT: [u64; 9] = [384, 967, 175_657, 145_118, 9_648, 4_029, 967, 9_286, 23_189];

// §6: per site count (1, 2, 3, 6) and arm (periodic, probe, wound-wait,
// wait-die, no-wait), over 40 seeds: deadlocks, prevention restarts, probe
// messages, makespan; then the 3-site system at latency 40.
#[rustfmt::skip]
const PIN_RESOLUTION_BY_SITES: [[[u64; 4]; 5]; 4] = [
    [[440, 0, 0, 87600], [440, 0, 0, 78000], [0, 248, 0, 47280], [0, 1500, 0, 66681], [0, 1911, 0, 68678]],
    [[440, 0, 0, 87600], [440, 0, 2105, 83200], [0, 248, 0, 47280], [0, 1500, 0, 66681], [0, 1911, 0, 68678]],
    [[440, 0, 0, 87600], [440, 0, 4002, 84400], [0, 248, 0, 47280], [0, 1500, 0, 66681], [0, 1911, 0, 68678]],
    [[440, 0, 0, 87600], [440, 0, 10865, 84800], [0, 248, 0, 47280], [0, 1500, 0, 66681], [0, 1911, 0, 68678]],
];
#[rustfmt::skip]
const PIN_RESOLUTION_LATENCY_40: [[u64; 4]; 5] = [
    [440, 0, 0, 302400], [440, 0, 3840, 337600], [0, 303, 0, 191320], [0, 2989, 0, 275868], [0, 6621, 0, 462851],
];

// §7: per loss rate (0, 0.10, 0.30) and arm (probe, wound-wait), over 30
// fault seeds: messages dropped, messages, deadlocks, detection latency
// ticks, prevention restarts, makespan.
#[rustfmt::skip]
const PIN_FAULT_COST: [[[u64; 6]; 2]; 3] = [
    [[0, 10560, 330, 8100, 0, 63300], [0, 5220, 0, 0, 210, 35700]],
    [[1737, 16877, 302, 6510, 0, 115764], [784, 7268, 0, 0, 211, 77396]],
    [[8995, 30024, 294, 6332, 0, 373610], [3623, 11906, 0, 0, 232, 247530]],
];

// §11: per family (aligned 4/4, mixed 2/4, rotated 1/4) and arm (periodic,
// probe, wound-wait, avoid), one run: deadlocks, prevention restarts,
// messages, probe messages, makespan.
#[rustfmt::skip]
const PIN_THREE_WAY: [[[u64; 5]; 4]; 3] = [
    [[0, 0, 144, 0, 540], [0, 0, 156, 12, 540], [0, 0, 144, 0, 540], [0, 0, 144, 0, 540]],
    [[7, 0, 213, 0, 945], [7, 0, 280, 60, 910], [0, 5, 166, 0, 580], [0, 5, 166, 0, 580]],
    [[11, 0, 241, 0, 1145], [11, 0, 358, 106, 1055], [0, 6, 170, 0, 590], [0, 6, 170, 0, 590]],
];
