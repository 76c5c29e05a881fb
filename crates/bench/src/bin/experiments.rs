//! Prints the paper-style result tables (ARCHITECTURE.md quotes them).
//!
//! Run with: `cargo run --release -p kplock-bench --bin experiments`

use kplock_bench::centralized_pair;
use kplock_core::closure::try_unsafety_via_dominator;
use kplock_core::policy::LockStrategy;
use kplock_core::reduction::reduce;
use kplock_core::{
    analyze_pair, decide_exhaustive, decide_total_pair, decide_two_site_system, proposition2,
    ConflictDigraph, OracleOptions, OracleOutcome, Prop2Options, Prop2Verdict, SafetyVerdict,
};
use kplock_geometry::{plane_is_safe, PlanePicture};
use kplock_model::{EntityId, TxnId};
use kplock_sat::solve;
use kplock_sim::{
    run, DeadlockDetection, DeadlockResolution, LatencyModel, PreventionScheme, SimConfig,
    VictimPolicy,
};
use kplock_workload::{
    fig1, fig2, fig3, fig5, fig8_formula, random_instance, random_system, resolution_sweep,
    site_count_sweep, unsat_restricted, WorkloadParams,
};

fn exp_figures() {
    println!("## F1–F5: figure verification\n");
    println!("| figure | property | result |");
    println!("|---|---|---|");
    let sys = fig1();
    let v = decide_two_site_system(&sys).unwrap();
    let ok = v.certificate().map(|c| c.verify(&sys).is_ok()) == Some(true);
    println!("| Fig. 1 | two-site system unsafe, witness schedule verifies | {ok} |");

    let sys = fig2();
    let plane = PlanePicture::new(&sys, TxnId(0), TxnId(1)).unwrap();
    let rx = *plane.rect_of(sys.db().entity("x").unwrap()).unwrap();
    let rz = *plane.rect_of(sys.db().entity("z").unwrap()).unwrap();
    let sep = kplock_geometry::separate(&plane, &rz, &rx).is_some();
    println!("| Fig. 2 | curve separates x- and z-rectangles (Prop. 1) | {sep} |");

    let sys = fig3();
    let a = analyze_pair(&sys);
    println!(
        "| Fig. 3 | D not strongly connected; unsafe by Thm 2 | {} |",
        !a.strongly_connected && a.verdict.is_unsafe()
    );

    let sys = fig5();
    let a = analyze_pair(&sys);
    let safe_exhaustive = matches!(a.verdict, SafetyVerdict::Safe(_));
    println!(
        "| Fig. 5 | D not strongly connected yet SAFE (4 sites) | {} |",
        !a.strongly_connected && safe_exhaustive
    );
    println!();
}

fn exp_fig8() {
    println!("## F8/F9: Theorem-3 reduction on the Fig. 8 formula\n");
    let f = fig8_formula();
    let r = reduce(&f).unwrap();
    let d = r.d_graph();
    let (doms, _) = kplock_graph::enumerate_dominators(&d.graph, 10_000);
    let mut desirable = 0;
    let mut certs = 0;
    for bits in &doms {
        let dom: Vec<EntityId> = bits.iter().map(|i| d.entities[i]).collect();
        if r.is_desirable(&dom) {
            desirable += 1;
        }
        if try_unsafety_via_dominator(&r.sys, TxnId(0), TxnId(1), &dom).is_some() {
            certs += 1;
        }
    }
    println!("| quantity | value |");
    println!("|---|---|");
    println!(
        "| entities (one site each) | {} |",
        r.sys.db().entity_count()
    );
    println!("| steps per transaction | {} |", r.sys.txn(TxnId(0)).len());
    println!("| D matches intended digraph | {} |", r.verify_intended());
    println!("| dominators | {} |", doms.len());
    println!("| desirable dominators | {desirable} |");
    println!("| dominators yielding verified certificates | {certs} |");
    println!("| DPLL verdict | {:?} |", solve(&f).is_sat());
    println!(
        "| equivalence desirable == certificate | {} |",
        desirable == certs
    );
    println!();
}

fn exp_c2_centralized() {
    println!("## C2: centralized pair — graph method vs geometric method\n");
    println!("| n | agree |");
    println!("|---|---|");
    for &n in &[8usize, 16, 32, 64] {
        let sys = centralized_pair(11, n);
        let gv = decide_total_pair(&sys, TxnId(0), TxnId(1));
        let plane = PlanePicture::new(&sys, TxnId(0), TxnId(1)).unwrap();
        let agree = gv.is_safe() == plane_is_safe(&plane);
        println!("| {n} | {agree} |");
    }
    println!();
}

fn exp_c3_reduction() {
    println!("## C3 (Theorem 3): reduction pipeline scaling\n");
    println!("| formula | entities | steps/txn | SAT |");
    println!("|---|---|---|---|");
    for &(vars, clauses) in &[(4usize, 3usize), (6, 5), (8, 7), (12, 10), (16, 14)] {
        let f = random_instance(1, vars, clauses);
        let r = reduce(&f).unwrap();
        println!(
            "| {vars}v/{clauses}c | {} | {} | {} |",
            r.sys.db().entity_count(),
            r.sys.txn(TxnId(0)).len(),
            solve(&f).is_sat()
        );
    }
    let f = unsat_restricted();
    let r = reduce(&f).unwrap();
    println!(
        "| unsat_restricted | {} | {} | false |",
        r.sys.db().entity_count(),
        r.sys.txn(TxnId(0)).len()
    );
    println!();
}

fn exp_c4_jump() {
    println!("## C4: exhaustive oracle vs polynomial test (the complexity jump)\n");
    // Safe (synchronized-2PL) instances force the oracle to exhaust the
    // whole reachable product space; Theorem 2 answers from D alone.
    println!("| distribution | verdict | oracle states |");
    println!("|---|---|---|");
    for &sites in &[2usize, 3, 4, 5, 6] {
        let sys = wide_safe_pair(sites);
        let n = sys.txn(TxnId(0)).len();
        let opts = OracleOptions {
            max_states: 50_000_000,
        };
        let report = decide_exhaustive(&sys, &opts);
        // The polynomial side: Theorem 1's strong-connectivity test (the
        // instances keep D complete, so it proves safety at any #sites).
        assert!(ConflictDigraph::build(&sys, TxnId(0), TxnId(1)).is_strongly_connected());
        let verdict = match report.outcome {
            OracleOutcome::Safe => "safe",
            OracleOutcome::Unsafe(_) => "unsafe",
            OracleOutcome::Aborted => "aborted",
        };
        println!(
            "| {sites} sites ({n} steps/txn) | {verdict} | {} |",
            report.states_explored
        );
    }
    println!();
}

fn exp_c5_prop2() {
    println!("## C5 (Proposition 2): k-transaction analysis\n");
    println!("| k | verdict | pairs checked | cycles checked |");
    println!("|---|---|---|---|");
    for k in [2usize, 3, 4, 5, 6] {
        let sys = random_system(&WorkloadParams {
            seed: 13,
            sites: 2,
            entities_per_site: 3,
            transactions: k,
            steps_per_txn: 5,
            strategy: LockStrategy::TwoPhaseSync,
            ..Default::default()
        });
        let report = proposition2(&sys, &Prop2Options::default());
        let verdict = match report.verdict {
            Prop2Verdict::Safe => "safe",
            Prop2Verdict::UnsafePair => "unsafe(pair)",
            Prop2Verdict::UnsafeCycle => "unsafe(cycle)",
            Prop2Verdict::Unknown => "unknown",
        };
        println!(
            "| {k} | {verdict} | {} | {} |",
            report.pair_verdicts.len(),
            report.cycle_checks.len()
        );
    }
    println!();
}

fn exp_s1_sim() {
    println!("## S1: simulator — strategy × contention\n");
    println!(
        "| strategy | contention | commits/run | aborts/run | msgs/run | wait/run | anomalies |"
    );
    println!("|---|---|---|---|---|---|---|");
    for strategy in [
        LockStrategy::Minimal,
        LockStrategy::TwoPhaseLoose,
        LockStrategy::TwoPhaseSync,
    ] {
        for (label, entities) in [("high", 1usize), ("low", 4)] {
            let sys = random_system(&WorkloadParams {
                seed: 21,
                sites: 3,
                entities_per_site: entities,
                transactions: 4,
                steps_per_txn: 6,
                strategy,
                ..Default::default()
            });
            let runs = 60u64;
            let mut commits = 0usize;
            let mut aborts = 0usize;
            let mut msgs = 0u64;
            let mut wait = 0u64;
            let mut anomalies = 0usize;
            for seed in 0..runs {
                let r = run(
                    &sys,
                    &SimConfig {
                        seed,
                        latency: LatencyModel::Uniform(1, 20),
                        ..Default::default()
                    },
                )
                .expect("valid config");
                if !r.finished() {
                    continue;
                }
                commits += r.metrics.committed;
                aborts += r.metrics.aborts;
                msgs += r.metrics.messages;
                wait += r.metrics.lock_wait_ticks;
                if !r.audit.serializable {
                    anomalies += 1;
                }
            }
            println!(
                "| {strategy:?} | {label} | {:.1} | {:.1} | {} | {} | {anomalies}/{runs} |",
                commits as f64 / runs as f64,
                aborts as f64 / runs as f64,
                msgs / runs,
                wait / runs
            );
        }
    }
    println!();
}

fn exp_s2_victim_ablation() {
    println!("## Ablation: deadlock victim policy\n");
    println!("| policy | deadlocks/run | aborts/run | makespan avg |");
    println!("|---|---|---|---|");
    // Deadlock-prone workload: four two-phase transactions locking the
    // same entities in rotated orders.
    let sys = deadlock_prone_system();
    for policy in [VictimPolicy::Youngest, VictimPolicy::Oldest] {
        let runs = 60u64;
        let mut deadlocks = 0usize;
        let mut aborts = 0usize;
        let mut makespan = 0u64;
        for seed in 0..runs {
            let r = run(
                &sys,
                &SimConfig {
                    seed,
                    latency: LatencyModel::Fixed(5),
                    victim_policy: policy,
                    ..Default::default()
                },
            )
            .expect("valid config");
            deadlocks += r.metrics.deadlocks_resolved;
            aborts += r.metrics.aborts;
            makespan += r.metrics.makespan;
        }
        println!(
            "| {policy:?} | {:.2} | {:.2} | {} |",
            deadlocks as f64 / runs as f64,
            aborts as f64 / runs as f64,
            makespan / runs
        );
    }
    println!();
}

fn exp_d1_detection() {
    println!("## D1: deadlock detection — centralized scans vs distributed probes\n");
    println!(
        "Distributed (Probe) detection sees only site-local wait-edges; its\n\
         costs below are *simulated* messages and ticks, the units the paper\n\
         argues in. The scan schemes consult a global graph for free.\n"
    );
    println!("| sites | scheme | deadlocks/run | msgs/run | probe msgs/run | detect lat/deadlock | makespan avg |");
    println!("|---|---|---|---|---|---|---|");
    let base = WorkloadParams {
        seed: 31,
        transactions: 5,
        steps_per_txn: 6,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    };
    for sc in site_count_sweep(&base, 6, &[1, 2, 3, 6]) {
        for (detection, tag) in [
            (DeadlockDetection::Periodic, "periodic"),
            (DeadlockDetection::OnBlock, "onblock"),
            (DeadlockDetection::Probe, "probe"),
        ] {
            let runs = 60u64;
            let (mut deadlocks, mut msgs, mut probes, mut lat, mut makespan) = (0, 0, 0, 0, 0u64);
            for seed in 0..runs {
                let r = run(
                    &sc.system,
                    &SimConfig {
                        seed,
                        latency: LatencyModel::Fixed(10),
                        resolution: detection.into(),
                        ..Default::default()
                    },
                )
                .expect("valid config");
                assert!(r.finished(), "{} under {tag}", sc.name);
                deadlocks += r.metrics.deadlocks_resolved;
                msgs += r.metrics.messages;
                probes += r.metrics.probe_messages;
                lat += r.metrics.detection_latency_ticks;
                makespan += r.metrics.makespan;
            }
            println!(
                "| {} | {tag} | {:.2} | {} | {} | {} | {} |",
                sc.value,
                deadlocks as f64 / runs as f64,
                msgs / runs,
                probes / runs,
                if deadlocks > 0 {
                    lat / deadlocks as u64
                } else {
                    0
                },
                makespan / runs
            );
        }
    }
    println!();
}

/// The five arms of the resolution axis compared in D2.
const D2_ARMS: [(DeadlockResolution, &str); 5] = [
    (
        DeadlockResolution::Detect(DeadlockDetection::Periodic),
        "periodic",
    ),
    (
        DeadlockResolution::Detect(DeadlockDetection::Probe),
        "probe",
    ),
    (
        DeadlockResolution::Prevent(PreventionScheme::WoundWait),
        "wound-wait",
    ),
    (
        DeadlockResolution::Prevent(PreventionScheme::WaitDie),
        "wait-die",
    ),
    (
        DeadlockResolution::Prevent(PreventionScheme::NoWait),
        "no-wait",
    ),
];

/// Runs `sys` under every D2 arm and prints one row per arm with the
/// given leading cells. Restarts-vs-messages is the trade the table
/// exists to show: detection pays probe messages and detection latency,
/// prevention pays restarts.
fn d2_rows(lead: &str, sys: &kplock_model::TxnSystem, latency: u64) {
    for (resolution, tag) in D2_ARMS {
        let runs = 40u64;
        let (mut deadlocks, mut restarts, mut aborts, mut msgs, mut probes, mut makespan) =
            (0usize, 0usize, 0usize, 0u64, 0u64, 0u64);
        for seed in 0..runs {
            let r = run(
                sys,
                &SimConfig {
                    seed,
                    latency: LatencyModel::Fixed(latency),
                    resolution,
                    ..Default::default()
                },
            )
            .expect("valid config");
            assert!(r.finished(), "{lead} under {tag}");
            if matches!(resolution, DeadlockResolution::Prevent(_)) {
                assert_eq!(r.metrics.deadlocks_resolved, 0, "{lead} under {tag}");
            }
            deadlocks += r.metrics.deadlocks_resolved;
            restarts += r.metrics.prevention_restarts;
            aborts += r.metrics.aborts;
            msgs += r.metrics.messages;
            probes += r.metrics.probe_messages;
            makespan += r.metrics.makespan;
        }
        println!(
            "| {lead} | {tag} | {:.2} | {:.2} | {:.2} | {} | {} | {} |",
            deadlocks as f64 / runs as f64,
            restarts as f64 / runs as f64,
            aborts as f64 / runs as f64,
            msgs / runs,
            probes / runs,
            makespan / runs
        );
    }
}

fn exp_d2_prevention() {
    println!("## D2: deadlock resolution — detection vs prevention\n");
    println!(
        "Prevention (wound-wait / wait-die / no-wait) never lets a cycle\n\
         form: it answers from the requester's and holders' birth stamps,\n\
         locally at the table, and pays in *restarts* what detection pays\n\
         in probe messages and detection latency. Same rotated-lock-order\n\
         workload everywhere (6 entities, 4 sync-2PL transactions); only\n\
         the swept axis changes.\n"
    );
    println!("### Site count (latency 10)\n");
    println!("| sites | scheme | deadlocks/run | prevention restarts/run | aborts/run | msgs/run | probe msgs/run | makespan avg |");
    println!("|---|---|---|---|---|---|---|---|");
    for sc in resolution_sweep(6, 4, &[1, 2, 3, 6]) {
        d2_rows(&sc.value.to_string(), &sc.system, 10);
    }
    println!();
    println!("### Network latency (3 sites)\n");
    println!("| latency | scheme | deadlocks/run | prevention restarts/run | aborts/run | msgs/run | probe msgs/run | makespan avg |");
    println!("|---|---|---|---|---|---|---|---|");
    let three_sites = &resolution_sweep(6, 4, &[3])[0];
    for latency in [2u64, 10, 40] {
        d2_rows(&latency.to_string(), &three_sites.system, latency);
    }
    println!();
    println!("### Hot-site skew (3 sites, latency 10, random sync-2PL load)\n");
    println!("| hot % | scheme | deadlocks/run | prevention restarts/run | aborts/run | msgs/run | probe msgs/run | makespan avg |");
    println!("|---|---|---|---|---|---|---|---|");
    for hot in [0u32, 50, 90] {
        let sys = random_system(&WorkloadParams {
            seed: 31,
            sites: 3,
            entities_per_site: 2,
            transactions: 5,
            steps_per_txn: 6,
            hot_site_percent: hot,
            strategy: LockStrategy::TwoPhaseSync,
            ..Default::default()
        });
        d2_rows(&hot.to_string(), &sys, 10);
    }
    println!();
}

fn exp_d3_faults() {
    use kplock_sim::{FaultPlan, RunOutcome};
    println!("## D3: fault injection — detection latency and restarts vs loss rate\n");
    println!(
        "Same rotated-lock-order workload as D2 (6 entities, 4 sync-2PL\n\
         transactions, 3 sites, latency 10), now over lossy channels with\n\
         coordinator retransmission. Probes must survive the same faulty\n\
         network as the data — lost probes are re-chased on retransmit —\n\
         while wound-wait's restarts come from local arithmetic and only\n\
         suffer the data traffic's retries. 30 fault seeds per row.\n"
    );
    println!("| loss | scheme | completed | drops/run | msgs/run | deadlocks/run | detect lat/deadlock | restarts/run | makespan avg |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let sys = &resolution_sweep(6, 4, &[3])[0].system;
    for &loss in &[0.0f64, 0.05, 0.1, 0.2, 0.3] {
        for (resolution, tag) in [
            (
                DeadlockResolution::Detect(DeadlockDetection::Probe),
                "probe",
            ),
            (
                DeadlockResolution::Prevent(PreventionScheme::WoundWait),
                "wound-wait",
            ),
        ] {
            let runs = 30u64;
            let (mut completed, mut drops, mut msgs, mut deadlocks, mut lat, mut restarts) =
                (0u64, 0u64, 0u64, 0usize, 0u64, 0usize);
            let mut makespan = 0u64;
            for seed in 0..runs {
                let faults = if loss > 0.0 {
                    FaultPlan::lossy(seed, loss, 0.0, 0.0)
                } else {
                    FaultPlan::none()
                };
                let r = run(
                    sys,
                    &SimConfig {
                        latency: LatencyModel::Fixed(10),
                        resolution,
                        faults,
                        max_time: 2_000_000,
                        ..Default::default()
                    },
                )
                .expect("valid config");
                if r.outcome == RunOutcome::Completed {
                    completed += 1;
                    makespan += r.metrics.makespan;
                }
                drops += r.metrics.messages_dropped;
                msgs += r.metrics.messages;
                deadlocks += r.metrics.deadlocks_resolved;
                lat += r.metrics.detection_latency_ticks;
                restarts += r.metrics.prevention_restarts;
            }
            println!(
                "| {loss:.2} | {tag} | {completed}/{runs} | {:.1} | {} | {:.2} | {} | {:.2} | {} |",
                drops as f64 / runs as f64,
                msgs / runs,
                deadlocks as f64 / runs as f64,
                if deadlocks > 0 {
                    lat / deadlocks as u64
                } else {
                    0
                },
                restarts as f64 / runs as f64,
                makespan.checked_div(completed).unwrap_or(0),
            );
        }
    }
    println!();
}

fn exp_d4_avoidance() {
    use kplock_sim::{AvoidPlan, RunOutcome};
    use kplock_workload::avoid_mix_sweep;
    println!("## D4: deadlock resolution — detect vs prevent vs avoid\n");
    println!(
        "The avoidance arm runs the paper's static analysis at runtime: a\n\
         plan synthesized before the run certifies transactions against a\n\
         safe lock order (per-site local controllers) and meters the rest\n\
         through wound-wait. Three deterministic workload families at\n\
         latency 5: the fully certified aligned mix (avoidance's silent\n\
         regime — zero deadlock-handling work of any kind), a half\n\
         certified mix (the boundary), and the rotated-lock-order family\n\
         (pairwise-opposed orders; greedy certification covers exactly one\n\
         transaction). `cert` is certified/declared under the avoid arm.\n"
    );
    println!(
        "| family | scheme | cert | deadlocks | restarts | aborts | msgs | probe msgs | makespan |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let rotated = resolution_sweep(6, 4, &[3]).pop().expect("one scenario");
    let families: Vec<(&str, kplock_model::TxnSystem, AvoidPlan)> = {
        let mut fams = Vec::new();
        for sc in avoid_mix_sweep(6, 4, 3, &[4, 2]) {
            let name: &'static str = if sc.certified == 4 {
                "aligned certified=4/4"
            } else {
                "mixed certified=2/4"
            };
            fams.push((name, sc.system, sc.plan));
        }
        let plan = AvoidPlan::synthesize(&rotated.system);
        assert_eq!(plan.certified_count(), 1, "rotated orders certify one");
        fams.push(("rotated certified=1/4", rotated.system, plan));
        fams
    };
    for (family, sys, plan) in &families {
        for (resolution, tag) in [
            (
                DeadlockResolution::Detect(DeadlockDetection::Periodic),
                "periodic",
            ),
            (
                DeadlockResolution::Detect(DeadlockDetection::Probe),
                "probe",
            ),
            (
                DeadlockResolution::Prevent(PreventionScheme::WoundWait),
                "wound-wait",
            ),
            (DeadlockResolution::Avoid, "avoid"),
        ] {
            let cfg = SimConfig {
                latency: LatencyModel::Fixed(5),
                resolution,
                avoid: (resolution == DeadlockResolution::Avoid).then(|| plan.clone()),
                ..Default::default()
            };
            let r = run(sys, &cfg).expect("valid config");
            assert_eq!(r.outcome, RunOutcome::Completed, "{family} under {tag}");
            assert!(r.audit.serializable, "{family} under {tag}");
            if resolution == DeadlockResolution::Avoid {
                // The headline claim: avoidance never resolves a deadlock,
                // and on certified sets it is *silent* — no restarts, no
                // detection messages.
                assert_eq!(r.metrics.deadlocks_resolved, 0, "{family}");
                assert_eq!(r.metrics.probe_messages, 0, "{family}");
                if plan.fully_certified() {
                    assert_eq!(r.metrics.prevention_restarts, 0, "{family}");
                    assert_eq!(r.metrics.aborts, 0, "{family}");
                }
            }
            let cert = if resolution == DeadlockResolution::Avoid {
                format!("{}/{}", plan.certified_count(), plan.txn_count())
            } else {
                "—".to_string()
            };
            println!(
                "| {family} | {tag} | {cert} | {} | {} | {} | {} | {} | {} |",
                r.metrics.deadlocks_resolved,
                r.metrics.prevention_restarts,
                r.metrics.aborts,
                r.metrics.messages,
                r.metrics.probe_messages,
                r.metrics.makespan,
            );
        }
    }
    println!();
}

fn exp_safety_rates() {
    println!("## Strategy safety rates (static analysis, 40 random two-site pairs)\n");
    println!("| strategy | safe | unsafe | D strongly connected |");
    println!("|---|---|---|---|");
    for strategy in [
        LockStrategy::Minimal,
        LockStrategy::TwoPhaseLoose,
        LockStrategy::TwoPhaseSync,
    ] {
        let mut safe = 0;
        let mut unsafe_ = 0;
        let mut sc = 0;
        for seed in 0..40 {
            let sys = kplock_workload::random_pair(&WorkloadParams {
                seed,
                sites: 2,
                entities_per_site: 2,
                steps_per_txn: 5,
                strategy,
                ..Default::default()
            });
            let d = ConflictDigraph::build(&sys, TxnId(0), TxnId(1));
            if d.is_strongly_connected() {
                sc += 1;
            }
            match decide_two_site_system(&sys).unwrap() {
                SafetyVerdict::Safe(_) => safe += 1,
                SafetyVerdict::Unsafe(_) => unsafe_ += 1,
                SafetyVerdict::Unknown => {}
            }
        }
        println!("| {strategy:?} | {safe} | {unsafe_} | {sc} |");
    }
    println!();
}

fn exp_d5_sat_checker() {
    use kplock_core::{check_deadlock, check_safety, synthesize_optimal, SatSafety};
    use kplock_sim::{replay_deadlock, replay_violation};
    use kplock_workload::{certified_mix, opposed_mix};

    println!("## D5: exact decision — oracle vs SAT checker vs greedy vs optimal\n");
    println!(
        "The SAT checker (`kplock_core::sat_check`) encodes unsafety and\n\
         deadlock reachability as CNF over lock/unlock interleaving\n\
         variables and decides them with our own DPLL; the exhaustive\n\
         oracle explores the state space directly but is hard-capped at 8\n\
         transactions (`—` beyond). Every verdict here is cross-checked:\n\
         SAT witnesses replay through the per-site lock tables to an\n\
         actual non-serializable history or waits-for cycle, and the two\n\
         deciders must agree wherever both run. The last two columns\n\
         quantify greedy conservatism: on the opposed family the greedy\n\
         plan certifies exactly 1 transaction while iterated-SAT\n\
         `synthesize_optimal` certifies all descenders.\n"
    );
    println!(
        "| family | txns | milestones | oracle | states | sat | clauses | dl(sat) | greedy | optimal |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");

    // (name, system, expect strict greedy<optimal gap).
    let mut families: Vec<(String, kplock_model::TxnSystem, bool)> = Vec::new();
    for k in [1usize, 2, 3, 5, 7] {
        families.push((format!("opposed(1+{k})"), opposed_mix(k, 2), k >= 2));
    }
    for n in [2usize, 3, 4, 6, 9] {
        // n early-unlock transactions over x then y: unsafe for n ≥ 2,
        // beyond the oracle's cap at n = 9.
        let db = kplock_model::Database::from_spec(&[("x", 0), ("y", 1)]);
        let txns = (0..n)
            .map(|i| {
                let mut b = kplock_model::TxnBuilder::new(&db, format!("E{i}"));
                b.script("Lx x Ux Ly y Uy").expect("script");
                b.build().expect("acyclic")
            })
            .collect();
        families.push((
            format!("earlyunlock({n})"),
            kplock_model::TxnSystem::new(db, txns),
            false,
        ));
    }
    for n in [3usize, 4] {
        families.push((
            format!("rotated(e3,f{n})"),
            certified_mix(3, 0, n, 2),
            false,
        ));
    }

    let mut gap_seen = false;
    for (name, sys, expect_gap) in &families {
        let safety = check_safety(sys).expect("encodable system");
        let sat_verdict = match &safety.verdict {
            SatSafety::Safe => "safe",
            SatSafety::Unsafe(w) => {
                let audit = replay_violation(sys, w).expect("witness must replay");
                assert!(!audit.serializable);
                "unsafe"
            }
        };
        let dl = check_deadlock(sys).expect("encodable system");
        if let Some(prefix) = &dl.deadlock {
            replay_deadlock(sys, prefix).expect("deadlock prefix must replay");
        }

        let (oracle_cell, states_cell) = if sys.len() <= 8 {
            let report = decide_exhaustive(sys, &OracleOptions::default());
            let verdict = match report.outcome {
                OracleOutcome::Safe => {
                    assert_eq!(sat_verdict, "safe", "{name}: SAT disagrees with oracle");
                    assert_eq!(
                        dl.deadlock.is_some(),
                        report.deadlock_reachable,
                        "{name}: deadlock verdicts disagree"
                    );
                    "safe"
                }
                OracleOutcome::Unsafe(_) => {
                    assert_eq!(sat_verdict, "unsafe", "{name}: SAT disagrees with oracle");
                    "unsafe"
                }
                OracleOutcome::Aborted => "aborted",
            };
            (verdict.to_string(), report.states_explored.to_string())
        } else {
            ("—".to_string(), "—".to_string())
        };

        let opt = synthesize_optimal(sys);
        assert!(opt.optimal_count >= opt.greedy_count, "{name}");
        if *expect_gap {
            assert!(
                opt.optimal_count > opt.greedy_count,
                "{name}: expected strict greedy-vs-optimal gap"
            );
            gap_seen = true;
        }
        opt.plan.verify(sys).expect("optimal plan verifies");

        let milestones = sys
            .txns()
            .iter()
            .map(|t| 2 * t.locked_entities().len())
            .sum::<usize>();
        println!(
            "| {name} | {} | {milestones} | {oracle_cell} | {states_cell} | {sat_verdict} | {} | {} | {} | {} |",
            sys.len(),
            safety.stats.clauses,
            if dl.deadlock.is_some() { "yes" } else { "no" },
            opt.greedy_count,
            opt.optimal_count,
        );
    }
    assert!(gap_seen, "D5 must exhibit a family where optimal > greedy");
    println!();
}

fn exp_d6_hierarchy() {
    use kplock_model::hierarchy::Granularity;
    use kplock_sim::{run_with_arrivals, FaultPlan};
    use kplock_workload::{hierarchy_system, AccessProfile, HierarchyParams};
    println!("## D6: multi-granularity locking — hierarchical vs flat at 10⁵ records\n");
    println!(
        "Scan-heavy open-loop traffic over a two-level catalog of 100 files\n\
         × 1000 records (10⁵ entities on 4 sites): every transaction scans\n\
         one Zipf-chosen file and updates two records. The flat arm locks\n\
         each record individually; the hierarchical arm escalates to one\n\
         `SIX` file lock plus `X` record locks on the writes (threshold\n\
         16). Identical logical accesses in both arms, full-matrix\n\
         invariant audit armed everywhere, including the lossy fault rows\n\
         (5% loss / 2% duplication / 10% reorder).\n"
    );
    println!(
        "| granularity | resolution | faults | lock reqs | reqs/shard | msgs | deadlocks | makespan |"
    );
    println!("|---|---|---|---|---|---|---|---|");
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
    let arms = [
        ("flat", Granularity::Flat),
        (
            "hier(t=16)",
            Granularity::Hierarchical {
                escalation_threshold: 16,
            },
        ),
    ];
    let mut headline: Vec<u64> = Vec::new(); // [flat, hier] lock reqs, detect/none row
    for (glabel, g) in arms {
        let sc = hierarchy_system(&p, g);
        for (resolution, rtag) in [
            (
                DeadlockResolution::Detect(DeadlockDetection::Periodic),
                "periodic",
            ),
            (
                DeadlockResolution::Detect(DeadlockDetection::Probe),
                "probe",
            ),
            (
                DeadlockResolution::Prevent(PreventionScheme::WoundWait),
                "wound-wait",
            ),
        ] {
            for (faults, ftag) in [
                (FaultPlan::none(), "none"),
                (FaultPlan::lossy(7, 0.05, 0.02, 0.10), "lossy"),
            ] {
                let r = run_with_arrivals(
                    &sc.system,
                    &SimConfig {
                        seed: 17,
                        latency: LatencyModel::Fixed(5),
                        resolution,
                        faults,
                        invariant_audit: true,
                        max_time: 20_000_000,
                        ..Default::default()
                    },
                    &sc.arrivals,
                )
                .expect("valid config");
                assert!(r.finished(), "{glabel}/{rtag}/{ftag}");
                r.audit
                    .legal
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{glabel}/{rtag}/{ftag}: {e}"));
                assert_eq!(
                    r.metrics.deadlocks_resolved, 0,
                    "{glabel}/{rtag}/{ftag}: one-file scans must not deadlock"
                );
                if rtag == "periodic" && ftag == "none" {
                    headline.push(r.metrics.lock_requests);
                }
                println!(
                    "| {glabel} | {rtag} | {ftag} | {} | {} | {} | {} | {} |",
                    r.metrics.lock_requests,
                    r.metrics.lock_requests / p.sites as u64,
                    r.metrics.messages,
                    r.metrics.deadlocks_resolved,
                    r.metrics.makespan,
                );
            }
        }
    }
    let (flat, hier) = (headline[0], headline[1]);
    assert!(
        flat >= 5 * hier,
        "acceptance: expected ≥5× fewer lock requests hierarchically, got flat {flat} vs hier {hier}"
    );
    println!(
        "\n(headline: flat needs {:.1}× the lock requests of hierarchical — gate is ≥5×)\n",
        flat as f64 / hier as f64
    );
}

fn exp_d7_delegation() {
    use kplock_sim::{Delegation, FaultPlan, RunOutcome};
    use kplock_workload::{hot_site_sweep, zipf_sweep};
    println!("## D7: delegated ownership — cached grants vs always-remote\n");
    println!(
        "Read-heavy skewed traffic (3 sites, 24 entities/site, 10 sync-2PL\n\
         transactions of 10 steps, 90% reads, latency 5), summed over 20\n\
         sim seeds per cell. The hot-site workload sends 95% of accesses to\n\
         site 0; the Zipfian workload skews within-site entity choice at\n\
         θ = 0.9. `off`/`on` count acquire/release messages (lock traffic)\n\
         without and with delegation; a cache hit is a re-acquire served\n\
         from a delegated grant with zero messages. Shared grants delegate\n\
         to any number of reader coordinators at once, so the read-mostly\n\
         mix revokes rarely and even no-wait's retries land as cache hits\n\
         (at write-heavy mixes its retry storms instead ping-pong entries\n\
         through revoke/re-grant cycles and delegation loses outright).\n"
    );
    println!(
        "| workload | scheme | off acq/rel | on acq/rel | ratio | cache hits | revocations | saved | aborts(on) |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
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
    let mut scenarios = hot_site_sweep(&base, &[95]);
    scenarios.extend(zipf_sweep(&base, &[0.9]));
    let arms = [
        (
            DeadlockResolution::Detect(DeadlockDetection::Periodic),
            "periodic",
        ),
        (
            DeadlockResolution::Detect(DeadlockDetection::OnBlock),
            "on-block",
        ),
        (
            DeadlockResolution::Detect(DeadlockDetection::Probe),
            "probe",
        ),
        (
            DeadlockResolution::Prevent(PreventionScheme::WoundWait),
            "wound-wait",
        ),
        (
            DeadlockResolution::Prevent(PreventionScheme::WaitDie),
            "wait-die",
        ),
        (
            DeadlockResolution::Prevent(PreventionScheme::NoWait),
            "no-wait",
        ),
    ];
    let runs = 20u64;
    // Per workload: the best (off, on) lock-traffic pair across arms.
    let mut headline: Vec<(String, &str, u64, u64)> = Vec::new();
    for sc in &scenarios {
        let mut best: Option<(&str, u64, u64)> = None;
        for (resolution, tag) in arms {
            let (mut off_lt, mut on_lt) = (0u64, 0u64);
            let (mut hits, mut revs, mut saved, mut aborts) = (0u64, 0u64, 0u64, 0usize);
            for seed in 0..runs {
                let mk = |delegation| SimConfig {
                    seed,
                    latency: LatencyModel::Fixed(5),
                    resolution,
                    delegation,
                    invariant_audit: true,
                    max_time: 2_000_000,
                    ..Default::default()
                };
                for delegation in [Delegation::Off, Delegation::On] {
                    let r = run(&sc.system, &mk(delegation)).expect("valid config");
                    assert_eq!(r.outcome, RunOutcome::Completed, "{}/{tag}", sc.name);
                    r.audit
                        .legal
                        .as_ref()
                        .unwrap_or_else(|e| panic!("{}/{tag}: {e}", sc.name));
                    if delegation == Delegation::Off {
                        off_lt += r.metrics.lock_traffic;
                    } else {
                        on_lt += r.metrics.lock_traffic;
                        hits += r.metrics.cache_hits;
                        revs += r.metrics.revocations;
                        saved += r.metrics.messages_saved;
                        aborts += r.metrics.aborts;
                    }
                }
            }
            if best.is_none_or(|(_, bo, bn)| off_lt * bn > bo * on_lt) {
                best = Some((tag, off_lt, on_lt));
            }
            println!(
                "| {} | {tag} | {off_lt} | {on_lt} | {:.2} | {hits} | {revs} | {saved} | {aborts} |",
                sc.name,
                off_lt as f64 / on_lt as f64,
            );
        }
        let (tag, off_lt, on_lt) = best.expect("six arms ran");
        headline.push((sc.name.clone(), tag, off_lt, on_lt));
    }
    println!();
    for (name, tag, off_lt, on_lt) in &headline {
        assert!(
            *off_lt >= 2 * on_lt,
            "acceptance: expected ≥2× acquire/release reduction on {name}, \
             best arm {tag} got off {off_lt} vs on {on_lt}"
        );
        println!(
            "(headline: {name} {tag} cuts acquire/release traffic {:.2}× — gate is ≥2×)",
            *off_lt as f64 / *on_lt as f64
        );
    }

    // Revocation under a hostile network: 30% loss with coordinator
    // retransmission, plus 5% duplication and 10% reorder so revokes are
    // also duplicated and delivered late. Every resolution arm must still
    // complete with a legal, serializable history — the audit would flag a
    // stale cached grant surviving a revocation the instant it double-owns
    // an entity.
    println!("\n30%-loss fault plan (5% dup, 10% reorder), delegation on, 10 fault seeds:\n");
    println!("| workload | scheme | completed | drops/run | revocations | leases expired | makespan avg |");
    println!("|---|---|---|---|---|---|---|");
    for sc in &scenarios {
        for (resolution, tag) in arms {
            let runs = 10u64;
            let (mut drops, mut revs, mut expired, mut makespan) = (0u64, 0u64, 0usize, 0u64);
            for seed in 0..runs {
                let r = run(
                    &sc.system,
                    &SimConfig {
                        seed,
                        latency: LatencyModel::Fixed(5),
                        resolution,
                        delegation: Delegation::On,
                        faults: FaultPlan::lossy(seed, 0.3, 0.05, 0.10),
                        invariant_audit: true,
                        max_time: 20_000_000,
                        ..Default::default()
                    },
                )
                .expect("valid config");
                assert_eq!(r.outcome, RunOutcome::Completed, "{}/{tag}/loss", sc.name);
                r.audit
                    .legal
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{}/{tag}/loss: {e}", sc.name));
                assert!(r.audit.serializable, "{}/{tag}/loss", sc.name);
                drops += r.metrics.messages_dropped;
                revs += r.metrics.revocations;
                expired += r.metrics.leases_expired;
                makespan += r.metrics.makespan;
            }
            println!(
                "| {} | {tag} | {runs}/{runs} | {:.1} | {revs} | {expired} | {} |",
                sc.name,
                drops as f64 / runs as f64,
                makespan / runs,
            );
        }
    }
    println!();
}

fn exp_oracle_deadlock() {
    println!("## Geometric vs state-space deadlock detection (centralized pairs)\n");
    println!("| seed | geometric deadlock | oracle deadlock | agree |");
    println!("|---|---|---|---|");
    let mut all_agree = true;
    for seed in 0..8 {
        let sys = centralized_pair(seed, 6);
        let t1 = sys.txn(TxnId(0));
        let t2 = sys.txn(TxnId(1));
        if !(t1.is_total_order() && t2.is_total_order()) {
            continue;
        }
        let plane = PlanePicture::new(&sys, TxnId(0), TxnId(1)).unwrap();
        let geo = kplock_geometry::has_deadlock(&plane);
        let oracle = decide_exhaustive(&sys, &OracleOptions::default());
        let odl = oracle.deadlock_reachable;
        let agree = geo == odl;
        all_agree &= agree;
        println!("| {seed} | {geo} | {odl} | {agree} |");
    }
    println!("(all agree: {all_agree})\n");
}

/// Four two-phase transactions locking x, y, z in rotated orders: a
/// deadlock-prone but safe workload.
fn deadlock_prone_system() -> kplock_model::TxnSystem {
    use kplock_model::{Database, TxnBuilder, TxnSystem};
    let db = Database::from_spec(&[("x", 0), ("y", 0), ("z", 1)]);
    let orders = [
        "Lx Ly Lz x y z Ux Uy Uz",
        "Ly Lz Lx y z x Uy Uz Ux",
        "Lz Lx Ly z x y Uz Ux Uy",
        "Lx Lz Ly x z y Ux Uz Uy",
    ];
    let txns = orders
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut b = TxnBuilder::new(&db, format!("T{}", i + 1));
            b.script(s).unwrap();
            b.build().unwrap()
        })
        .collect();
    TxnSystem::new(db, txns)
}

/// A *safe* pair whose concurrency grows with distribution: two entities at
/// site 0 accessed in synchronized-2PL fashion (D complete => safe by
/// Theorem 1), plus one private entity per extra site, each a concurrent
/// per-site chain. The oracle's reachable product space grows exponentially
/// with the number of sites; Theorem 2 only ever looks at D.
fn wide_safe_pair(sites: usize) -> kplock_model::TxnSystem {
    use kplock_model::{Database, TxnBuilder, TxnSystem};
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

fn exp_s3_load_sweep() {
    println!("## S3: open-loop load sweep (arrival spacing vs contention)\n");
    println!("| mean gap | lock-wait/run | deadlocks/run | anomalies |");
    println!("|---|---|---|---|");
    let sys = random_system(&WorkloadParams {
        seed: 31,
        sites: 3,
        entities_per_site: 2,
        transactions: 6,
        steps_per_txn: 5,
        strategy: LockStrategy::Minimal,
        ..Default::default()
    });
    for gap in [0u64, 50, 200, 800] {
        let runs = 40u64;
        let mut wait = 0u64;
        let mut deadlocks = 0usize;
        let mut anomalies = 0usize;
        for seed in 0..runs {
            let r = kplock_sim::run_open_loop(
                &sys,
                &SimConfig {
                    seed,
                    latency: LatencyModel::Uniform(1, 20),
                    ..Default::default()
                },
                &kplock_sim::ArrivalConfig {
                    mean_gap: gap,
                    seed,
                },
            )
            .expect("valid config");
            if !r.finished() {
                continue;
            }
            wait += r.metrics.lock_wait_ticks;
            deadlocks += r.metrics.deadlocks_resolved;
            if !r.audit.serializable {
                anomalies += 1;
            }
        }
        println!(
            "| {gap} | {} | {:.2} | {anomalies}/{runs} |",
            wait / runs,
            deadlocks as f64 / runs as f64
        );
    }
    println!();
}

fn main() {
    println!("# kplock experiment tables\n");
    println!("(regenerate with `cargo run --release -p kplock-bench --bin experiments`)\n");
    exp_figures();
    exp_fig8();
    exp_c2_centralized();
    exp_c3_reduction();
    exp_c4_jump();
    exp_c5_prop2();
    exp_safety_rates();
    exp_s1_sim();
    exp_s2_victim_ablation();
    exp_s3_load_sweep();
    exp_d1_detection();
    exp_d2_prevention();
    exp_d3_faults();
    exp_d4_avoidance();
    exp_d5_sat_checker();
    exp_d6_hierarchy();
    exp_d7_delegation();
    exp_oracle_deadlock();
}
