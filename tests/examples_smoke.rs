//! Smoke tests covering the core path of each of the seven `examples/`
//! mains, so the examples cannot silently rot. Each test exercises the same
//! API sequence as its example (with trimmed iteration counts) and asserts
//! the example's own invariants; CI additionally executes the example
//! binaries.

use kplock::core::closure::try_unsafety_via_dominator;
use kplock::core::policy::{insert_locks, LockStrategy};
use kplock::core::{analyze_pair, count_schedules, SafetyVerdict};
use kplock::geometry::{find_separation, render, PlanePicture};
use kplock::graph::enumerate_dominators;
use kplock::model::{Database, EntityId, TxnBuilder, TxnId, TxnSystem};
use kplock::sat::SatResult;
use kplock::sim::{run, run_threaded, LatencyModel, SimConfig, ThreadedConfig, VictimPolicy};
use kplock::workload::{
    fig1, fig2, fig3, fig5, fig8_formula, fig8_reduction, random_pair, random_system,
    WorkloadParams,
};

/// Core path of `examples/quickstart.rs`: build a distributed pair with the
/// script DSL, decide safety, verify the Theorem-2 certificate.
#[test]
fn quickstart_core_path() {
    let db = Database::from_spec(&[("x", 0), ("y", 0), ("w", 1), ("z", 1)]);

    let mut b = TxnBuilder::new(&db, "T1");
    b.script("Lx x Ux Ly y Uy").unwrap();
    b.script("Lw w Uw").unwrap();
    let t1 = b.build().unwrap();

    let mut b = TxnBuilder::new(&db, "T2");
    b.script("Ly y Uy Lx x Ux").unwrap();
    b.script("Lw w Uw").unwrap();
    let t2 = b.build().unwrap();

    let sys = TxnSystem::new(db, vec![t1, t2]);
    let analysis = analyze_pair(&sys);
    assert!(!analysis.strongly_connected);
    let SafetyVerdict::Unsafe(cert) = &analysis.verdict else {
        panic!("quickstart pair must be unsafe, got {:?}", analysis.verdict);
    };
    assert!(!cert.dominator.is_empty());
    cert.verify(&sys).expect("certificate verifies");
}

/// Core path of `examples/bank_transfer.rs`: the cross-branch transfer pair
/// is unsafe under minimal and loose-2PL locking, safe under synchronized
/// 2PL; the simulator agrees dynamically.
#[test]
fn bank_transfer_core_path() {
    let build = |strategy: LockStrategy| {
        let db = Database::from_spec(&[("alice", 0), ("bob", 0), ("carol", 1), ("dave", 1)]);
        let mut b = TxnBuilder::new(&db, "transfer-1");
        let d1 = b.update("alice").unwrap();
        let c1 = b.update("carol").unwrap();
        b.edge(d1, c1);
        let d2 = b.update("bob").unwrap();
        let c2 = b.update("dave").unwrap();
        b.edge(d2, c2);
        let t1 = b.build().unwrap();
        let mut b = TxnBuilder::new(&db, "transfer-2");
        let d1 = b.update("carol").unwrap();
        let c1 = b.update("alice").unwrap();
        b.edge(d1, c1);
        let d2 = b.update("dave").unwrap();
        let c2 = b.update("bob").unwrap();
        b.edge(d2, c2);
        let t2 = b.build().unwrap();
        let locked = vec![
            insert_locks(&db, &t1, strategy).unwrap(),
            insert_locks(&db, &t2, strategy).unwrap(),
        ];
        TxnSystem::new(db, locked)
    };

    for (strategy, expect_safe) in [
        (LockStrategy::Minimal, false),
        (LockStrategy::TwoPhaseLoose, false),
        (LockStrategy::TwoPhaseSync, true),
    ] {
        let sys = build(strategy);
        let analysis = analyze_pair(&sys);
        assert_eq!(
            matches!(analysis.verdict, SafetyVerdict::Safe(_)),
            expect_safe,
            "{strategy:?}"
        );
        let mut anomalies = 0;
        for seed in 0..20 {
            let r = run(
                &sys,
                &SimConfig {
                    seed,
                    latency: LatencyModel::Uniform(1, 40),
                    ..Default::default()
                },
            )
            .expect("valid config");
            assert!(r.finished());
            r.audit.legal.as_ref().expect("history must be legal");
            if !r.audit.serializable {
                anomalies += 1;
            }
        }
        if expect_safe {
            assert_eq!(anomalies, 0, "{strategy:?}: safe system showed anomaly");
        }
    }
}

/// Core path of `examples/lock_manager_sim.rs`: seeded simulator sweeps
/// (explicit resolution/faults builders, outcome asserted on the enum), a
/// threaded run, and the faulty-network section with crash recovery.
#[test]
fn lock_manager_sim_core_path() {
    use kplock::sim::{DeadlockResolution, FaultPlan, RunOutcome, SiteCrash};
    let sys = random_system(&WorkloadParams {
        sites: 3,
        entities_per_site: 2,
        transactions: 4,
        steps_per_txn: 6,
        cross_edge_percent: 30,
        read_percent: 0,
        hot_site_percent: 0,
        zipf_theta: 0.0,
        strategy: LockStrategy::TwoPhaseSync,
        seed: 42,
    });
    let mut commits = 0;
    for seed in 0..10 {
        let r = run(
            &sys,
            &SimConfig {
                seed,
                latency: LatencyModel::Uniform(1, 30),
                resolution: DeadlockResolution::default(),
                faults: FaultPlan::none(),
                victim_policy: VictimPolicy::Youngest,
                ..Default::default()
            },
        )
        .expect("valid config");
        assert_eq!(r.outcome, RunOutcome::Completed, "run must finish");
        r.audit.legal.as_ref().expect("history must be legal");
        assert!(r.audit.serializable, "2PL-sync histories are serializable");
        commits += r.metrics.committed;
    }
    assert_eq!(commits, 40, "4 transactions x 10 runs all commit");

    // The faulty-network section: lossy channels plus a crash whose
    // outage outlives the lease ttl, exactly as the example runs it.
    let mut faults = FaultPlan::lossy(7, 0.15, 0.10, 0.10);
    faults.lease_ttl = 150;
    faults.crashes = vec![SiteCrash {
        site: 0,
        at: 100,
        down_for: 200,
    }];
    let r = run(
        &sys,
        &SimConfig {
            latency: LatencyModel::Uniform(1, 30),
            invariant_audit: true,
            faults,
            max_time: 1_000_000,
            ..Default::default()
        },
    )
    .expect("valid config");
    assert_ne!(
        r.outcome,
        RunOutcome::Stalled,
        "retransmission keeps it live"
    );
    r.audit.legal.as_ref().expect("history must be legal");
    assert_eq!(r.metrics.recoveries, 1, "the outage ends inside the run");
    if r.outcome == RunOutcome::Completed {
        assert!(r.audit.serializable);
    }

    // The real-thread runner is timeout-based and can legitimately exhaust
    // its attempt budget on an oversubscribed machine; retry before calling
    // that a failure. Legality/serializability must hold on every run.
    let mut finished = false;
    for _ in 0..3 {
        let threaded = run_threaded(&sys, &ThreadedConfig::default()).expect("valid config");
        threaded.audit.legal.as_ref().expect("legal history");
        assert!(threaded.audit.serializable);
        if threaded.finished {
            finished = true;
            break;
        }
    }
    assert!(finished, "threaded runner never finished in 3 attempts");
}

/// Core path of `examples/policy_comparison.rs`: synchronized 2PL is always
/// safe and never admits more schedules than minimal locking.
#[test]
fn policy_comparison_core_path() {
    let mut minimal_legal: u128 = 0;
    let mut sync_legal: u128 = 0;
    for seed in 0..6 {
        let params = |strategy| WorkloadParams {
            sites: 2,
            entities_per_site: 2,
            steps_per_txn: 4,
            strategy,
            seed,
            ..Default::default()
        };
        let minimal = random_pair(&params(LockStrategy::Minimal));
        let sync = random_pair(&params(LockStrategy::TwoPhaseSync));
        assert!(
            matches!(analyze_pair(&sync).verdict, SafetyVerdict::Safe(_)),
            "2PL-sync must be safe (Theorem 1)"
        );
        minimal_legal += count_schedules(&minimal, 5_000_000).expect("small").legal;
        let counts = count_schedules(&sync, 5_000_000).expect("small");
        assert_eq!(
            counts.legal, counts.serializable,
            "safe => all serializable"
        );
        sync_legal += counts.legal;
    }
    assert!(
        sync_legal <= minimal_legal,
        "stricter locking cannot add schedules"
    );
}

/// Core path of `examples/sat_reduction.rs`: the Fig. 8 reduction's
/// dominator table matches the formula's satisfying assignments.
#[test]
fn sat_reduction_core_path() {
    let f = fig8_formula();
    let r = fig8_reduction();
    assert!(r.verify_intended());

    let d = r.d_graph();
    let (doms, exhaustive) = enumerate_dominators(&d.graph, 10_000);
    assert!(exhaustive);
    let mut certificates = 0;
    for dom_bits in &doms {
        let dom: Vec<EntityId> = dom_bits.iter().map(|i| d.entities[i]).collect();
        let desirable = r.is_desirable(&dom);
        let cert = try_unsafety_via_dominator(&r.sys, TxnId(0), TxnId(1), &dom);
        assert_eq!(desirable, cert.is_some(), "Theorem 3 soundness");
        if cert.is_some() {
            certificates += 1;
        }
    }
    match kplock::sat::solve(&f) {
        SatResult::Sat(_) => assert!(certificates > 0),
        SatResult::Unsat => assert_eq!(certificates, 0),
    }
}

/// Core path of `examples/paper_figures.rs`: figure instances decide the
/// way the paper says, and the Fig. 2 plane renders with a separation.
#[test]
fn paper_figures_core_path() {
    let f1 = fig1();
    assert!(matches!(
        analyze_pair(&f1).verdict,
        SafetyVerdict::Unsafe(_)
    ));

    let sys = fig2();
    let plane = PlanePicture::new(&sys, TxnId(0), TxnId(1)).unwrap();
    let w = find_separation(&plane).expect("Fig. 2 is unsafe");
    let picture = render(&sys, &plane, Some(&w.path));
    assert!(!picture.is_empty());

    assert!(matches!(
        analyze_pair(&fig3()).verdict,
        SafetyVerdict::Unsafe(_)
    ));
    let f5 = fig5();
    let a5 = analyze_pair(&f5);
    assert!(
        !a5.strongly_connected,
        "Fig. 5: D is not strongly connected"
    );
    assert!(
        matches!(a5.verdict, SafetyVerdict::Safe(_)),
        "Fig. 5: yet the system is safe"
    );
}

/// Core path of `examples/exact_check.rs`: the SAT checker's unsafety
/// witness replays to a non-serializable history, its deadlock prefix
/// replays to a waits-for cycle, and `synthesize_optimal` beats greedy
/// on the opposed family.
#[test]
fn exact_check_core_path() {
    use kplock::core::{check_deadlock, check_safety, synthesize_optimal, SatSafety};
    use kplock::sim::{replay_deadlock, replay_violation};
    use kplock::workload::opposed_mix;

    let db = Database::from_spec(&[("x", 0), ("y", 1)]);
    let txns = (0..2)
        .map(|i| {
            let mut b = TxnBuilder::new(&db, format!("E{i}"));
            b.script("Lx x Ux Ly y Uy").unwrap();
            b.build().unwrap()
        })
        .collect();
    let sys = TxnSystem::new(db, txns);
    let report = check_safety(&sys).expect("encodes");
    let SatSafety::Unsafe(witness) = &report.verdict else {
        panic!("early unlock must be unsafe");
    };
    let audit = replay_violation(&sys, witness).expect("witness replays");
    assert!(audit.legal.is_ok() && !audit.serializable);

    let sys = opposed_mix(2, 2);
    assert!(check_safety(&sys).expect("encodes").verdict.is_safe());
    let dl = check_deadlock(&sys).expect("encodes");
    let prefix = dl.deadlock.as_ref().expect("deadlock reachable");
    let evidence = replay_deadlock(&sys, prefix).expect("prefix replays");
    assert!(evidence.cycle.len() >= 2);

    let opt = synthesize_optimal(&sys);
    assert!(opt.optimal_count > opt.greedy_count);
    opt.plan.verify(&sys).expect("optimal plan verifies");
}
