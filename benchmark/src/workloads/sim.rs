//! The five simulator workloads: lists of `run` / `run_with_arrivals`
//! calls over generated systems.
//!
//! Every system is two-phase locked (`TwoPhaseSync`, or `hierarchy_system`
//! and `certified_mix`, two-phase by construction) and therefore safe, so a
//! run that does not complete, commits an illegal schedule or commits a
//! non-serializable one is a failed call. Configurations are
//! `SimConfig::default()` except for the fields named, and no table
//! implementation is named: the runs use whatever `TableSpec::default()` is.

use super::{generate, input_seed, probe_txn_build, ratio};
use crate::harness::{Metrics, Outcome, Scale, Workload};
use crate::trace::{Summary, Tracer};
use kplock_core::policy::LockStrategy;
use kplock_core::AvoidPlan;
use kplock_model::{is_serializable, Granularity, TxnSystem};
use kplock_sim::{
    draw_arrivals, run, run_with_arrivals, ArrivalConfig, DeadlockDetection, DeadlockResolution,
    Delegation, FaultPlan, LatencyModel, PreventionScheme, RunOutcome, SimConfig, SiteCrash,
};
use kplock_workload::{
    certified_mix, hierarchy_system, random_system, AccessProfile, HierarchyParams, WorkloadParams,
};
use std::collections::BTreeMap;

/// The resolution arms, by the names the per-layer metrics use.
const ARMS: [(&str, DeadlockResolution); 7] = [
    (
        "periodic",
        DeadlockResolution::Detect(DeadlockDetection::Periodic),
    ),
    (
        "onblock",
        DeadlockResolution::Detect(DeadlockDetection::OnBlock),
    ),
    (
        "probe",
        DeadlockResolution::Detect(DeadlockDetection::Probe),
    ),
    (
        "woundwait",
        DeadlockResolution::Prevent(PreventionScheme::WoundWait),
    ),
    (
        "waitdie",
        DeadlockResolution::Prevent(PreventionScheme::WaitDie),
    ),
    (
        "nowait",
        DeadlockResolution::Prevent(PreventionScheme::NoWait),
    ),
    ("avoid", DeadlockResolution::Avoid),
];

// Full sizes. A pass is sized to take one to two and a half seconds on the
// two-core development box, so a 10 s run makes four to ten passes. Both
// ends matter: the median of a call's times stops getting steadier after
// about four passes, and the more inputs a pass has the less its
// percentiles and its throughput depend on which inputs the seed drew.
const HOT_SYSTEMS: usize = 130;
const HOT_TXNS: usize = 24;
const OPEN_SYSTEMS: usize = 20;
const SCAN_SEEDS: usize = 24;
const DELEG_SYSTEMS: usize = 150;
const AUDIT_HOT_SYSTEMS: usize = 300;
const AUDIT_SCANS: usize = 80;

/// One `run` or `run_with_arrivals` call.
struct SimCall {
    sys: usize,
    cfg: SimConfig,
    /// Arrival tick per transaction; `None` is a closed batch (`run`).
    arrivals: Option<Vec<u64>>,
    /// The totals this call's counts go to: its arm and whatever else the
    /// workload splits by. Calls of the pass also count towards `"all"`.
    keys: Vec<&'static str>,
    input_seed: u64,
}

/// Counts and wall time summed over the calls of one pass.
#[derive(Default)]
struct Totals {
    calls: u64,
    wall_ns: u64,
    m: kplock_sim::Metrics,
}

impl Totals {
    fn add(&mut self, m: &kplock_sim::Metrics, ns: u64) {
        self.calls += 1;
        self.wall_ns += ns;
        let t = &mut self.m;
        t.committed += m.committed;
        t.aborts += m.aborts;
        t.messages += m.messages;
        t.lock_wait_ticks += m.lock_wait_ticks;
        t.lock_requests += m.lock_requests;
        t.deadlocks_resolved += m.deadlocks_resolved;
        t.probe_messages += m.probe_messages;
        t.detection_latency_ticks += m.detection_latency_ticks;
        t.prevention_restarts += m.prevention_restarts;
        t.messages_dropped += m.messages_dropped;
        t.messages_duplicated += m.messages_duplicated;
        t.lock_traffic += m.lock_traffic;
        t.cache_hits += m.cache_hits;
        t.revocations += m.revocations;
        t.leases_expired += m.leases_expired;
        t.recoveries += m.recoveries;
        t.avoid_certified += m.avoid_certified;
        t.avoid_fallbacks += m.avoid_fallbacks;
        t.elapsed_ticks += m.elapsed_ticks;
    }

    fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }
}

/// A simulator workload.
pub struct Sim {
    systems: Vec<TxnSystem>,
    /// The calls of a pass, then the reference arms over the same systems
    /// that only a traced run makes.
    calls: Vec<SimCall>,
    timed: usize,
    totals: BTreeMap<&'static str, Totals>,
}

/// Makes one call, checks the report and adds its counts to `totals`.
fn exec(
    systems: &[TxnSystem],
    call: &SimCall,
    reference: bool,
    totals: &mut BTreeMap<&'static str, Totals>,
    tr: &mut Tracer,
) -> Outcome {
    let sys = &systems[call.sys];
    // Reference arms get a span name of their own, so that per-commit
    // engine time is the pass's alone.
    let span = if reference {
        "sim.engine.run.ref"
    } else {
        "sim.engine.run"
    };
    let (result, ns) = tr.span(span, |_| match &call.arrivals {
        Some(arrivals) => run_with_arrivals(sys, &call.cfg, arrivals),
        None => run(sys, &call.cfg),
    });
    let report = match result {
        Ok(report) => report,
        Err(e) => return Outcome::new(0, ns, Some(format!("configuration rejected: {e}"))),
    };
    let m = &report.metrics;
    tr.annotate(&[
        ("committed", m.committed as u64),
        ("aborts", m.aborts as u64),
        ("messages", m.messages),
        ("elapsed_ticks", m.elapsed_ticks),
    ]);
    let mut failure = if report.outcome != RunOutcome::Completed {
        Some(format!("run ended {:?}", report.outcome))
    } else if let Err(e) = &report.audit.legal {
        Some(format!("illegal committed schedule: {e}"))
    } else if !report.audit.serializable {
        Some("non-serializable commit of a two-phase system".to_string())
    } else {
        None
    };
    if tr.on() && !reference {
        // The benchmark's own validation of the committed schedule: an
        // outside estimate of what the engine's end-of-run audit costs.
        let schedule = &report.audit.schedule;
        let (agrees, _) = tr.span("model.audit_recheck", |_| {
            schedule.validate_complete(sys).is_ok() == report.audit.legal.is_ok()
                && is_serializable(sys, schedule) == report.audit.serializable
        });
        tr.annotate(&[("committed", m.committed as u64)]);
        if !agrees && failure.is_none() {
            failure = Some("the engine's audit disagrees with a recheck".to_string());
        }
    }
    for &key in &call.keys {
        totals.entry(key).or_default().add(m, ns);
    }
    Outcome::new(m.committed as u64, ns, failure)
}

impl Workload for Sim {
    fn calls(&self) -> usize {
        self.timed
    }

    fn extras(&self) -> usize {
        self.calls.len() - self.timed
    }

    fn call(&mut self, i: usize, tr: &mut Tracer) -> Outcome {
        let reference = i >= self.timed;
        exec(
            &self.systems,
            &self.calls[i],
            reference,
            &mut self.totals,
            tr,
        )
    }

    fn describe(&self, i: usize) -> String {
        let call = &self.calls[i];
        let arm: Vec<&str> = call.keys.iter().copied().filter(|&k| k != "all").collect();
        format!("input seed {} arm {}", call.input_seed, arm.join("/"))
    }

    fn begin_pass(&mut self) {
        self.totals.clear();
    }

    fn layer_metrics(&self, _spans: &Summary, out: &mut Metrics) {
        let mut set = |name: &str, v: f64| {
            out.insert(name.to_string(), v);
        };
        let of = |key: &str| self.totals.get(key);
        let Some(all) = of("all") else { return };
        let m = &all.m;
        let commits = m.committed as f64;
        let per_commit = |count: f64| ratio(count, commits);

        set("msgs_per_commit", per_commit(m.messages as f64));
        set("ticks_per_commit", per_commit(m.elapsed_ticks as f64));
        set("aborts_per_commit", per_commit(m.aborts as f64));
        set(
            "sim.engine.msgs_per_s",
            ratio(m.messages as f64, all.wall_s()),
        );
        set(
            "sim.engine.probe_msgs_per_commit",
            per_commit(m.probe_messages as f64),
        );
        set(
            "sim.engine.deadlocks_per_commit",
            per_commit(m.deadlocks_resolved as f64),
        );
        set(
            "sim.engine.prevention_restarts_per_commit",
            per_commit(m.prevention_restarts as f64),
        );
        set(
            "sim.engine.detection_latency_ticks_per_deadlock",
            ratio(
                m.detection_latency_ticks as f64,
                m.deadlocks_resolved as f64,
            ),
        );
        set(
            "sim.engine.wait_ticks_per_commit",
            per_commit(m.lock_wait_ticks as f64),
        );
        set(
            "sim.engine.avoid_certified_share",
            ratio(
                m.avoid_certified as f64,
                (m.avoid_certified + m.avoid_fallbacks) as f64,
            ),
        );
        set(
            "sim.engine.lock_requests_per_commit",
            per_commit(m.lock_requests as f64),
        );
        set(
            "sim.engine.lock_traffic_per_commit",
            per_commit(m.lock_traffic as f64),
        );
        // Lock and unlock steps served from a coordinator's delegated
        // cache, as a share of those plus the requests sites served.
        set(
            "sim.engine.cache_hit_share",
            ratio(m.cache_hits as f64, (m.cache_hits + m.lock_requests) as f64),
        );
        set(
            "sim.engine.revocations_per_commit",
            per_commit(m.revocations as f64),
        );
        // Fault counts are taken over the calls that inject faults, where
        // the workload has such calls.
        let lossy = of("lossy").unwrap_or(all);
        set(
            "sim.engine.msgs_dropped_share",
            ratio(lossy.m.messages_dropped as f64, lossy.m.messages as f64),
        );
        set(
            "sim.engine.msgs_duplicated_share",
            ratio(lossy.m.messages_duplicated as f64, lossy.m.messages as f64),
        );
        let crashed: Vec<&Totals> = ["crash", "lossy"].into_iter().filter_map(of).collect();
        let crashed_calls = crashed.iter().map(|t| t.calls).sum::<u64>() as f64;
        set(
            "sim.engine.leases_expired_per_call",
            ratio(
                crashed.iter().map(|t| t.m.leases_expired).sum::<usize>() as f64,
                crashed_calls,
            ),
        );
        set(
            "sim.engine.recoveries_per_call",
            ratio(
                crashed.iter().map(|t| t.m.recoveries).sum::<usize>() as f64,
                crashed_calls,
            ),
        );

        for (arm, _) in ARMS {
            if let Some(t) = of(arm) {
                set(
                    &format!("sim.engine.commits_per_s.{arm}"),
                    ratio(t.m.committed as f64, t.wall_s()),
                );
                set(
                    &format!("sim.engine.time_share.{arm}"),
                    ratio(t.wall_s(), all.wall_s()),
                );
            }
        }
        for mix in ["reads90", "reads10"] {
            if let Some(t) = of(mix) {
                set(
                    &format!("sim.engine.commits_per_s.{mix}"),
                    ratio(t.m.committed as f64, t.wall_s()),
                );
            }
        }
        for granularity in ["flat", "hier16"] {
            if let Some(t) = of(granularity) {
                set(
                    &format!("sim.engine.us_per_msg.{granularity}"),
                    ratio(t.wall_ns as f64 / 1e3, t.m.messages as f64),
                );
            }
        }

        // Same-input ratios between an arm of the pass and its reference
        // arm.
        let walls = |num: &str, den: &str| Some(ratio(of(num)?.wall_s(), of(den)?.wall_s()));
        if let (Some(on), Some(off)) = (of("clean"), of("ref.deleg_off")) {
            set(
                "sim.engine.delegation_msg_ratio",
                ratio(off.m.messages as f64, on.m.messages as f64),
            );
        }
        for (metric, num, den) in [
            ("sim.engine.delegation_wall_ratio", "clean", "ref.deleg_off"),
            ("sim.engine.faulty_wall_ratio", "lossy", "ref.deleg_off"),
            ("sim.engine.audit_slowdown.hot", "hot", "ref.hot_unaudited"),
            (
                "sim.engine.audit_slowdown.scan",
                "scan",
                "ref.scan_unaudited",
            ),
        ] {
            if let Some(r) = walls(num, den) {
                set(metric, r);
            }
        }
    }
}

impl Sim {
    fn new(systems: Vec<TxnSystem>, mut calls: Vec<SimCall>, extras: Vec<SimCall>) -> Sim {
        for call in &mut calls {
            call.keys.push("all");
        }
        let timed = calls.len();
        calls.extend(extras);
        Sim {
            systems,
            calls,
            timed,
            totals: BTreeMap::new(),
        }
    }
}

/// 24 transactions of 8 steps over 4 sites × 8 entities, Zipf 0.6, half
/// reads: small and hot, so every arm spends its time resolving conflicts.
/// 24 is also as large as probe detection stays affordable: its message
/// count grows so fast with the batch that 256 transactions exhaust memory.
fn hot_system(seed: u64) -> TxnSystem {
    random_system(&WorkloadParams {
        seed,
        sites: 4,
        entities_per_site: 8,
        transactions: HOT_TXNS,
        steps_per_txn: 8,
        zipf_theta: 0.6,
        read_percent: 50,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    })
}

fn hot_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        latency: LatencyModel::Uniform(2, 8),
        ..Default::default()
    }
}

/// The avoidance arm's input: `certified` transactions locking 8 entities
/// on 4 sites in ascending order, the other 24 − `certified` in rotated
/// orders that contradict it. `AvoidPlan::synthesize` certifies no
/// transaction of a `random_system` — lock steps at different sites are
/// unordered, so each transaction's own hold-while-request digraph is
/// cyclic — and the arm would run as its wound-wait fallback alone.
fn avoid_system(seed: u64) -> TxnSystem {
    let certified = 4 + (seed % 9) as usize;
    certified_mix(8, certified, HOT_TXNS - certified, 4)
}

/// `sim_hot`: a closed batch under all seven resolution arms. Six run the
/// same random system; the avoidance arm runs [`avoid_system`] under the
/// same configuration.
pub fn hot(seed: u64, scale: Scale, tr: &mut Tracer) -> Sim {
    let n = scale.n(HOT_SYSTEMS);
    let seeds: Vec<u64> = (0..n).map(|i| input_seed(seed, i)).collect();
    let systems: Vec<TxnSystem> = generate(tr, || {
        let random = seeds.iter().map(|&s| hot_system(s));
        let certifiable = seeds.iter().map(|&s| avoid_system(s));
        random.chain(certifiable).collect()
    });
    probe_txn_build(tr, &systems);
    let mut calls = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        for (arm, resolution) in ARMS {
            let avoid = resolution == DeadlockResolution::Avoid;
            let sys = if avoid { n + i } else { i };
            let plan = avoid.then(|| {
                let (plan, _) = tr.span("core.avoid.synthesize", |_| {
                    AvoidPlan::synthesize(&systems[sys])
                });
                tr.annotate(&[("txns", systems[sys].len() as u64)]);
                plan
            });
            calls.push(SimCall {
                sys,
                cfg: SimConfig {
                    resolution,
                    avoid: plan,
                    ..hot_config(seed)
                },
                arrivals: None,
                keys: vec![arm],
                input_seed: seed,
            });
        }
    }
    Sim::new(systems, calls, Vec::new())
}

/// `sim_open`: 1 024 uniform-key transactions arriving open-loop (mean gap
/// 20 ticks) over 4 sites × 256 entities, under periodic detection and
/// wound-wait. Lock queues stay almost empty; the event loop and the
/// per-coordinator bookkeeping are what runs.
pub fn open(seed: u64, scale: Scale, tr: &mut Tracer) -> Sim {
    let n = scale.n(OPEN_SYSTEMS);
    let seeds: Vec<u64> = (0..n).map(|i| input_seed(seed, i)).collect();
    let systems: Vec<TxnSystem> = generate(tr, || {
        seeds
            .iter()
            .map(|&seed| {
                random_system(&WorkloadParams {
                    seed,
                    sites: 4,
                    entities_per_site: 256,
                    transactions: 1024,
                    steps_per_txn: 8,
                    strategy: LockStrategy::TwoPhaseSync,
                    ..Default::default()
                })
            })
            .collect()
    });
    probe_txn_build(tr, &systems);
    let mut calls = Vec::new();
    for (i, sys) in systems.iter().enumerate() {
        let arrivals = draw_arrivals(
            sys.len(),
            &ArrivalConfig {
                mean_gap: 20,
                seed: seeds[i],
            },
        );
        for (arm, resolution) in [ARMS[0], ARMS[3]] {
            calls.push(SimCall {
                sys: i,
                cfg: SimConfig {
                    seed: seeds[i],
                    resolution,
                    ..Default::default()
                },
                arrivals: Some(arrivals.clone()),
                keys: vec![arm],
                input_seed: seeds[i],
            });
        }
    }
    Sim::new(systems, calls, Vec::new())
}

fn scan_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        latency: LatencyModel::Fixed(5),
        max_time: 20_000_000,
        ..Default::default()
    }
}

/// `sim_scan`: two scan transactions of 1 000 records each (plus a few
/// writes) over a 20-file catalog, the same logical accesses locked
/// record by record (`flat`) and with one escalated file lock (`hier16`).
pub fn scan(seed: u64, scale: Scale, tr: &mut Tracer) -> Sim {
    let n = scale.n(SCAN_SEEDS);
    let arms = [
        ("flat", Granularity::Flat),
        (
            "hier16",
            Granularity::Hierarchical {
                escalation_threshold: 16,
            },
        ),
    ];
    let mut calls = Vec::new();
    let systems: Vec<TxnSystem> = generate(tr, || {
        let mut systems = Vec::new();
        for i in 0..n {
            let params = HierarchyParams {
                profile: AccessProfile::Scan,
                files: 20,
                records_per_file: 1000,
                sites: 4,
                transactions: 2,
                zipf_theta: 0.6,
                arrival_gap: 50,
                seed: input_seed(seed, i),
            };
            for (arm, granularity) in arms {
                let scenario = hierarchy_system(&params, granularity);
                calls.push(SimCall {
                    sys: systems.len(),
                    cfg: scan_config(params.seed),
                    arrivals: Some(scenario.arrivals),
                    keys: vec![arm],
                    input_seed: params.seed,
                });
                systems.push(scenario.system);
            }
        }
        systems
    });
    probe_txn_build(tr, &systems);
    Sim::new(systems, calls, Vec::new())
}

/// `sim_deleg`: 16 transactions of 10 steps with 95 % of steps at one of 3
/// sites; even inputs read 90 % and odd inputs 10 %, so a gain for readers
/// that costs writers (revocation storms) shows. Each system runs under
/// four arms in three settings:
///
/// * `clean` — delegation on, no faults: ledger, cached grants, revocation;
/// * `crash` — delegation on, 400-tick leases, site 1 down from tick 300 to
///   500: lease-based recovery with delegated grants outstanding;
/// * `lossy` — delegation off, the same crash plus message loss (5 %),
///   duplication (2 %) and reordering (10 %) with retransmission.
///
/// Delegation on is never combined with channel faults: together they
/// commit an illegal schedule about once in a thousand runs under the
/// prevention arms, and a workload may not contain operations known to
/// fail. `README.md` has the reproduction.
pub fn deleg(seed: u64, scale: Scale, tr: &mut Tracer) -> Sim {
    let n = scale.n(DELEG_SYSTEMS);
    let seeds: Vec<u64> = (0..n).map(|i| input_seed(seed, i)).collect();
    let mix = |i: usize| {
        if i.is_multiple_of(2) {
            (90, "reads90")
        } else {
            (10, "reads10")
        }
    };
    let systems: Vec<TxnSystem> = generate(tr, || {
        seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                random_system(&WorkloadParams {
                    seed,
                    sites: 3,
                    entities_per_site: 24,
                    transactions: 16,
                    steps_per_txn: 10,
                    hot_site_percent: 95,
                    read_percent: mix(i).0,
                    strategy: LockStrategy::TwoPhaseSync,
                    ..Default::default()
                })
            })
            .collect()
    });
    probe_txn_build(tr, &systems);
    let crash = |seed| FaultPlan {
        seed,
        retransmit_after: 120,
        lease_ttl: 400,
        crashes: vec![SiteCrash {
            site: 1,
            at: 300,
            down_for: 200,
        }],
        ..FaultPlan::none()
    };
    let lossy = |seed| FaultPlan {
        lease_ttl: 400,
        crashes: crash(seed).crashes,
        ..FaultPlan::lossy(seed, 0.05, 0.02, 0.10)
    };
    let (mut calls, mut extras) = (Vec::new(), Vec::new());
    for (i, &seed) in seeds.iter().enumerate() {
        for (arm, resolution) in [ARMS[0], ARMS[1], ARMS[3], ARMS[4]] {
            let settings = [
                ("clean", Delegation::On, FaultPlan::none()),
                ("crash", Delegation::On, crash(seed)),
                ("lossy", Delegation::Off, lossy(seed)),
                // Only a traced run makes this one: the clean setting
                // without delegation, which both ratios are taken against.
                ("ref.deleg_off", Delegation::Off, FaultPlan::none()),
            ];
            for (setting, delegation, faults) in settings {
                let reference = setting.starts_with("ref.");
                let call = SimCall {
                    sys: i,
                    cfg: SimConfig {
                        seed,
                        resolution,
                        delegation,
                        faults,
                        ..Default::default()
                    },
                    arrivals: None,
                    keys: if reference {
                        vec![setting]
                    } else {
                        vec![arm, mix(i).1, setting]
                    },
                    input_seed: seed,
                };
                if reference { &mut extras } else { &mut calls }.push(call);
            }
        }
    }
    Sim::new(systems, calls, extras)
}

/// `sim_audit`: `invariant_audit` on. Hot systems under the default arm,
/// and flat scans of 2 transactions over 20 files × 100 records, where
/// the per-event sweep of every table costs most. Two transactions, because
/// scans of one file serialize and then cost half as much to audit: with
/// more of them the call times split into modes whose mix the seed decides.
/// The same calls with the audit off are the traced run's reference arms.
pub fn audit(seed: u64, scale: Scale, tr: &mut Tracer) -> Sim {
    let hot_n = scale.n(AUDIT_HOT_SYSTEMS);
    let scan_n = scale.n(AUDIT_SCANS);
    let mut scans = Vec::new();
    let systems: Vec<TxnSystem> = generate(tr, || {
        let mut systems: Vec<TxnSystem> = (0..hot_n)
            .map(|i| hot_system(input_seed(seed, i)))
            .collect();
        for i in hot_n..hot_n + scan_n {
            let scenario = hierarchy_system(
                &HierarchyParams {
                    profile: AccessProfile::Scan,
                    files: 20,
                    records_per_file: 100,
                    sites: 4,
                    transactions: 2,
                    zipf_theta: 0.6,
                    arrival_gap: 50,
                    seed: input_seed(seed, i),
                },
                Granularity::Flat,
            );
            scans.push(scenario.arrivals);
            systems.push(scenario.system);
        }
        systems
    });
    probe_txn_build(tr, &systems);
    let (mut calls, mut extras) = (Vec::new(), Vec::new());
    for i in 0..systems.len() {
        let seed = input_seed(seed, i);
        let (cfg, arrivals, key, reference) = match i.checked_sub(hot_n) {
            None => (hot_config(seed), None, "hot", "ref.hot_unaudited"),
            Some(s) => (
                scan_config(seed),
                Some(scans[s].clone()),
                "scan",
                "ref.scan_unaudited",
            ),
        };
        extras.push(SimCall {
            sys: i,
            cfg: cfg.clone(),
            arrivals: arrivals.clone(),
            keys: vec![reference],
            input_seed: seed,
        });
        calls.push(SimCall {
            sys: i,
            cfg: SimConfig {
                invariant_audit: true,
                ..cfg
            },
            arrivals,
            keys: vec!["periodic", key],
            input_seed: seed,
        });
    }
    Sim::new(systems, calls, extras)
}
