//! `kplock-bench`: the lock-table performance driver behind
//! `BENCH_*.json` (see README "Benchmark trajectory").
//!
//! Sweeps threads × shards × resolution arm × fault plan × workload
//! across five suites:
//!
//! * `hot_loop` — raw [`kplock_dlm::ShardedTable`] acquire/release
//!   cycles on real threads (disjoint entities per thread, so on a
//!   single core nothing blocks cross-thread and the numbers measure
//!   the table data structure, not the scheduler);
//! * `sim` — full deterministic simulator runs under probe detection,
//!   wound-wait prevention, certificate-driven avoidance, and a lossy
//!   fault plan;
//! * `threaded` — the OS-thread runner under timeout, prevention and
//!   avoidance;
//! * `hierarchy`, `delegation` — deterministic lock-request and
//!   lock-traffic counts, pinned exactly by the gate.
//!
//! Each configuration yields one [`BenchRecord`] (throughput,
//! p50/p99/p999 latency, restarts, probe messages). `--out PATH` writes
//! the JSON trajectory; `--check BASELINE` joins current records against
//! a committed baseline by `id`, normalizes out machine speed with the
//! median ratio, and fails on any record slower than
//! `median × (1 − tolerance)` — the CI perf gate.
//!
//! ```text
//! kplock-bench [--smoke|--full] [--out PATH] [--check BASELINE] [--tolerance F]
//! ```

use kplock_bench::record::{self, BenchRecord};
use kplock_bench::two_site_pair;
use kplock_dlm::ShardedTable;
use kplock_model::{Database, EntityId, LockMode, TxnBuilder, TxnSystem};
use kplock_sim::{
    run, run_threaded, AvoidPlan, DeadlockDetection, DeadlockResolution, FaultPlan, LatencyModel,
    PreventionScheme, SimConfig, ThreadedConfig, ThreadedResolution,
};
use std::sync::Barrier;
use std::time::{Duration, Instant};

struct Opts {
    smoke: bool,
    out: Option<String>,
    check: Option<String>,
    tolerance: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: kplock-bench [--smoke|--full] [--out PATH] [--check BASELINE] [--tolerance F]"
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        smoke: false,
        out: None,
        check: None,
        tolerance: 0.15,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => opts.smoke = true,
            "--full" => opts.smoke = false,
            "--out" => opts.out = Some(args.next().unwrap_or_else(|| usage())),
            "--check" => opts.check = Some(args.next().unwrap_or_else(|| usage())),
            "--tolerance" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.tolerance = v.parse().unwrap_or_else(|_| usage());
            }
            _ => usage(),
        }
    }
    opts
}

/// Work scales per mode: smoke keeps CI under control, full is the
/// recorded trajectory.
struct Scale {
    hot_rounds: u64,
    /// Hot-loop repetitions per configuration; the *fastest* repetition
    /// is recorded. On a timeshared box interference is strictly
    /// additive, so best-of-N approximates the clean measurement and
    /// keeps the `--check` gate from flaking on scheduler noise.
    hot_reps: u32,
    sim_reps: u64,
    thr_reps: u64,
}

impl Scale {
    fn for_mode(smoke: bool) -> Scale {
        if smoke {
            // Same hot-loop measurement length as full — a shorter
            // measured phase has a different cache-warmth profile and
            // is not comparable per record — only fewer repetitions
            // and sim/threaded reps.
            Scale {
                hot_rounds: 30_000,
                hot_reps: 3,
                sim_reps: 3,
                thr_reps: 2,
            }
        } else {
            Scale {
                hot_rounds: 30_000,
                hot_reps: 5,
                sim_reps: 12,
                thr_reps: 6,
            }
        }
    }
}

fn main() {
    let opts = parse_opts();
    let scale = Scale::for_mode(opts.smoke);
    let mode = if opts.smoke { "smoke" } else { "full" };
    eprintln!("kplock-bench: mode={mode}");

    let mut records = Vec::new();
    hot_loop_suite(&mut records, &scale);
    sim_suite(&mut records, &scale);
    threaded_suite(&mut records, &scale);
    hierarchy_suite(&mut records);
    delegation_suite(&mut records);

    println!(
        "{:<38} {:>12} {:>9} {:>9} {:>9}",
        "id", "ops/s", "p50us", "p99us", "p999us"
    );
    for r in &records {
        println!(
            "{:<38} {:>12.0} {:>9.2} {:>9.2} {:>9.2}",
            r.id, r.throughput_ops_per_s, r.p50_us, r.p99_us, r.p999_us
        );
    }

    if let Some(path) = &opts.out {
        std::fs::write(path, record::to_json(mode, &records)).unwrap_or_else(|e| {
            eprintln!("kplock-bench: cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("kplock-bench: wrote {} records to {path}", records.len());
    }

    if let Some(baseline) = &opts.check {
        match check_against(baseline, &records, opts.tolerance) {
            Ok(summary) => println!("{summary}"),
            Err(err) => {
                eprintln!("kplock-bench: REGRESSION GATE FAILED\n{err}");
                std::process::exit(1);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Suite: hot_loop — raw sharded-table cycles on real threads.
// ---------------------------------------------------------------------

const X: LockMode = LockMode::Exclusive;
/// Entities each hot-loop thread cycles over.
const HOT_ENTS: u32 = 4;
/// The `table` label of every record that exercises the lock table, and
/// the table segment of its id — kept from when a second implementation
/// was swept, so ids still join against the committed baseline.
const TABLE: &str = "queue";

fn hot_loop_suite(records: &mut Vec<BenchRecord>, scale: &Scale) {
    for threads in [1usize, 8] {
        for shards in [4usize, 16] {
            for contended in [true, false] {
                records.push(hot_record(threads, shards, contended, scale));
            }
        }
    }
}

fn hot_record(threads: usize, shards: usize, contended: bool, scale: &Scale) -> BenchRecord {
    let rounds = scale.hot_rounds;
    // Best-of-N (see [`Scale::hot_reps`]): keep the fastest repetition.
    let mut best: Option<(u64, Duration, Vec<u64>)> = None;
    for _ in 0..scale.hot_reps {
        let sample = hot_loop(threads, shards, contended, rounds);
        if best.as_ref().is_none_or(|(_, e, _)| sample.1 < *e) {
            best = Some(sample);
        }
    }
    let (ops, elapsed, lat_ns) = best.expect("hot_reps >= 1");
    let workload = if contended {
        "contended"
    } else {
        "uncontended"
    };
    let (p50, p99, p999) = percentiles_us(lat_ns);
    let elapsed_ms = elapsed.as_secs_f64() * 1e3;
    BenchRecord {
        id: format!("hot/{workload}/{TABLE}/t{threads}/s{shards}"),
        suite: "hot_loop".to_string(),
        workload: workload.to_string(),
        table: TABLE.to_string(),
        threads: threads as u32,
        shards: shards as u32,
        resolution: "none".to_string(),
        fault_plan: "none".to_string(),
        ops,
        elapsed_ms,
        throughput_ops_per_s: ops as f64 / elapsed.as_secs_f64(),
        p50_us: p50,
        p99_us: p99,
        p999_us: p999,
        restarts: 0,
        probe_messages: 0,
    }
}

/// Drives `threads` OS threads over one sharded table; every thread owns
/// a disjoint entity set, so no acquire ever waits on another thread —
/// the measurement is pure table-operation cost. The contended pattern
/// still exercises the queue machinery: a second owner queues behind the
/// first and is granted by its release.
///
/// Returns `(ops, measured_elapsed, latency_samples_ns)`; a latency
/// sample is one full lock/unlock cycle on one entity.
fn hot_loop(
    threads: usize,
    shards: usize,
    contended: bool,
    rounds: u64,
) -> (u64, Duration, Vec<u64>) {
    let table: ShardedTable<u32> = ShardedTable::new(shards);
    let warmup = (rounds / 10).max(1);
    let barrier = Barrier::new(threads + 1);
    let ops_per_ent: u64 = if contended { 4 } else { 2 };

    let (lat, elapsed) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for tid in 0..threads {
            let table = &table;
            let barrier = &barrier;
            handles.push(scope.spawn(move || {
                let a = tid as u32 * 2;
                let b = a + 1;
                let ents: Vec<EntityId> = (0..HOT_ENTS)
                    .map(|k| EntityId(tid as u32 * HOT_ENTS + k))
                    .collect();
                let mut buf: Vec<(u32, LockMode)> = Vec::new();
                let cycle = |e: EntityId, buf: &mut Vec<(u32, LockMode)>| {
                    table.acquire(e, a, X).expect("fresh acquire");
                    if contended {
                        table.acquire(e, b, X).expect("queued acquire");
                        buf.clear();
                        table.release_into(e, a, buf).expect("holder release");
                        debug_assert_eq!(buf.as_slice(), &[(b, X)]);
                        buf.clear();
                        table.release_into(e, b, buf).expect("granted release");
                    } else {
                        buf.clear();
                        table.release_into(e, a, buf).expect("holder release");
                    }
                };
                for _ in 0..warmup {
                    for &e in &ents {
                        cycle(e, &mut buf);
                    }
                }
                barrier.wait();
                // Time the measured phase *inside* the worker: on a
                // single-core box the whole phase can run before the
                // spawning thread is rescheduled, so an outside
                // timestamp would undershoot wildly.
                let t0 = Instant::now();
                let mut lats = Vec::with_capacity((rounds / 8 + 1) as usize);
                for r in 0..rounds {
                    if r % 8 == 0 {
                        let s0 = Instant::now();
                        for &e in &ents {
                            cycle(e, &mut buf);
                        }
                        lats.push(s0.elapsed().as_nanos() as u64 / u64::from(HOT_ENTS));
                    } else {
                        for &e in &ents {
                            cycle(e, &mut buf);
                        }
                    }
                }
                (t0.elapsed(), lats)
            }));
        }
        barrier.wait();
        let mut lat: Vec<u64> = Vec::new();
        let mut elapsed = Duration::ZERO;
        for h in handles {
            let (span, lats) = h.join().expect("hot-loop thread panicked");
            elapsed = elapsed.max(span);
            lat.extend(lats);
        }
        (lat, elapsed)
    });

    let ops = threads as u64 * rounds * u64::from(HOT_ENTS) * ops_per_ent;
    (ops, elapsed, lat)
}

// ---------------------------------------------------------------------
// Suite: sim — deterministic engine runs.
// ---------------------------------------------------------------------

fn sim_suite(records: &mut Vec<BenchRecord>, scale: &Scale) {
    let arms = [
        (
            "probe",
            DeadlockResolution::Detect(DeadlockDetection::Probe),
        ),
        (
            "wound_wait",
            DeadlockResolution::Prevent(PreventionScheme::WoundWait),
        ),
        ("avoid", DeadlockResolution::Avoid),
    ];
    for (rlabel, resolution) in arms {
        for (wlabel, steps) in [("pair8", 8usize), ("pair16", 16)] {
            records.push(sim_record(
                rlabel,
                resolution,
                wlabel,
                steps,
                FaultPlan::none(),
                "none",
                scale,
            ));
        }
    }
    // The fault axis: seeded loss/duplication/reordering under the
    // default periodic detector.
    records.push(sim_record(
        "periodic",
        DeadlockResolution::default(),
        "pair8",
        8,
        FaultPlan::lossy(7, 0.05, 0.02, 0.10),
        "lossy",
        scale,
    ));
}

fn sim_record(
    rlabel: &str,
    resolution: DeadlockResolution,
    wlabel: &str,
    steps: usize,
    faults: FaultPlan,
    flabel: &str,
    scale: &Scale,
) -> BenchRecord {
    let mut ops = 0u64;
    let mut restarts = 0u64;
    let mut probes = 0u64;
    let mut lat_ns = Vec::new();
    let t0 = Instant::now();
    for seed in 0..scale.sim_reps {
        let sys = two_site_pair(seed + 1, steps);
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            resolution,
            faults: faults.clone(),
            seed: seed + 1,
            avoid: (resolution == DeadlockResolution::Avoid).then(|| AvoidPlan::synthesize(&sys)),
            ..Default::default()
        };
        let r0 = Instant::now();
        let report = run(&sys, &cfg).expect("valid config");
        lat_ns.push(r0.elapsed().as_nanos() as u64);
        ops += report.metrics.committed as u64;
        restarts += report.metrics.aborts as u64;
        probes += report.metrics.probe_messages;
    }
    let elapsed = t0.elapsed();
    let (p50, p99, p999) = percentiles_us(lat_ns);
    BenchRecord {
        id: format!("sim/{wlabel}/{TABLE}/{rlabel}/{flabel}"),
        suite: "sim".to_string(),
        workload: wlabel.to_string(),
        table: TABLE.to_string(),
        threads: 1,
        shards: 1,
        resolution: rlabel.to_string(),
        fault_plan: flabel.to_string(),
        ops,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        throughput_ops_per_s: ops as f64 / elapsed.as_secs_f64(),
        p50_us: p50,
        p99_us: p99,
        p999_us: p999,
        restarts,
        probe_messages: probes,
    }
}

// ---------------------------------------------------------------------
// Suite: threaded — the OS-thread runner.
// ---------------------------------------------------------------------

fn threaded_sys() -> TxnSystem {
    let db = Database::from_spec(&[("x", 0), ("y", 1), ("z", 2)]);
    let scripts = [
        "Lx Ly x y Ux Uy",
        "Ly Lz y z Uy Uz",
        "Lz Lx z x Uz Ux",
        "Lx Lz x z Ux Uz",
    ];
    let txns = scripts
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

fn threaded_suite(records: &mut Vec<BenchRecord>, scale: &Scale) {
    let sys = threaded_sys();
    let arms = [
        ("timeout", ThreadedResolution::TimeoutAbort),
        (
            "wound_wait",
            ThreadedResolution::Prevent(PreventionScheme::WoundWait),
        ),
        ("avoid", ThreadedResolution::Avoid),
    ];
    for shards in [4usize, 16] {
        for (rlabel, resolution) in arms {
            records.push(threaded_record(&sys, shards, rlabel, resolution, scale));
        }
    }
}

fn threaded_record(
    sys: &TxnSystem,
    shards: usize,
    rlabel: &str,
    resolution: ThreadedResolution,
    scale: &Scale,
) -> BenchRecord {
    let cfg = ThreadedConfig {
        shards,
        resolution,
        lock_timeout: Duration::from_millis(5),
        max_backoff: Duration::from_millis(1),
        max_attempts: 1000,
        avoid: (resolution == ThreadedResolution::Avoid).then(|| AvoidPlan::synthesize(sys)),
        delegation: false,
    };
    let mut ops = 0u64;
    let mut restarts = 0u64;
    let mut lat_ns = Vec::new();
    let t0 = Instant::now();
    for _ in 0..scale.thr_reps {
        let r0 = Instant::now();
        let report = run_threaded(sys, &cfg).expect("valid config");
        lat_ns.push(r0.elapsed().as_nanos() as u64);
        ops += report.audit.schedule.len() as u64;
        restarts += report.aborts as u64;
    }
    let elapsed = t0.elapsed();
    let (p50, p99, p999) = percentiles_us(lat_ns);
    BenchRecord {
        id: format!("thr/ring4/{TABLE}/{rlabel}/s{shards}"),
        suite: "threaded".to_string(),
        workload: "ring4".to_string(),
        table: TABLE.to_string(),
        threads: sys.len() as u32,
        shards: shards as u32,
        resolution: rlabel.to_string(),
        fault_plan: "none".to_string(),
        ops,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        throughput_ops_per_s: ops as f64 / elapsed.as_secs_f64(),
        p50_us: p50,
        p99_us: p99,
        p999_us: p999,
        restarts,
        probe_messages: 0,
    }
}

// ---------------------------------------------------------------------
// Suite: hierarchy — multi-granularity locking at 10⁵ records (D6).
// ---------------------------------------------------------------------

/// Scan traffic over a 100-file × 1000-record catalog, flat vs
/// hierarchical, with and without a lossy fault plan. One run per
/// configuration in every mode: the headline number (`ops` = total lock
/// requests serviced by the sites) is fully deterministic, so the
/// `--check` gate pins it *exactly* and additionally enforces the ≥5×
/// flat-vs-hierarchical ratio from the D6 acceptance bar. The invariant
/// audit (full-matrix co-holder exclusion) is armed on every run.
fn hierarchy_suite(records: &mut Vec<BenchRecord>) {
    use kplock_model::hierarchy::Granularity;
    use kplock_sim::run_with_arrivals;
    use kplock_workload::{hierarchy_system, AccessProfile, HierarchyParams};
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
            "hier16",
            Granularity::Hierarchical {
                escalation_threshold: 16,
            },
        ),
    ];
    for (glabel, g) in arms {
        let sc = hierarchy_system(&p, g);
        for (faults, flabel) in [
            (FaultPlan::none(), "none"),
            (FaultPlan::lossy(7, 0.05, 0.02, 0.10), "lossy"),
        ] {
            let cfg = SimConfig {
                latency: LatencyModel::Fixed(5),
                seed: 17,
                faults,
                invariant_audit: true,
                max_time: 20_000_000,
                ..Default::default()
            };
            let t0 = Instant::now();
            let report = run_with_arrivals(&sc.system, &cfg, &sc.arrivals).expect("valid config");
            let elapsed = t0.elapsed();
            assert!(report.finished(), "hier/{glabel}/{flabel} did not finish");
            report
                .audit
                .legal
                .as_ref()
                .unwrap_or_else(|e| panic!("hier/{glabel}/{flabel}: illegal schedule: {e}"));
            records.push(BenchRecord {
                id: format!("hier/scan1e5/{glabel}/{flabel}"),
                suite: "hierarchy".to_string(),
                workload: "scan1e5".to_string(),
                table: glabel.to_string(),
                threads: 1,
                shards: p.sites as u32,
                resolution: "periodic".to_string(),
                fault_plan: flabel.to_string(),
                ops: report.metrics.lock_requests,
                elapsed_ms: elapsed.as_secs_f64() * 1e3,
                throughput_ops_per_s: report.metrics.lock_requests as f64 / elapsed.as_secs_f64(),
                p50_us: 0.0,
                p99_us: 0.0,
                p999_us: 0.0,
                restarts: report.metrics.aborts as u64,
                probe_messages: report.metrics.probe_messages,
            });
        }
    }
}

/// The hierarchy side of the gate: lock-request counts are deterministic,
/// so any drift against the baseline is a real behavior change (workload
/// generation, escalation policy, or admission), and the flat arm must
/// need ≥5× the lock requests of the hierarchical arm.
fn check_hierarchy(baseline: &[BenchRecord], current: &[BenchRecord]) -> Result<String, String> {
    let mut errors = Vec::new();
    let mut pinned = 0;
    for cur in current.iter().filter(|r| r.suite == "hierarchy") {
        if let Some(base) = baseline.iter().find(|b| b.id == cur.id) {
            pinned += 1;
            if base.ops != cur.ops {
                errors.push(format!(
                    "  {}: lock-request count drifted from the baseline ({} -> {})",
                    cur.id, base.ops, cur.ops
                ));
            }
        }
    }
    let find = |table: &str| {
        current
            .iter()
            .find(|r| r.suite == "hierarchy" && r.table == table && r.fault_plan == "none")
            .map(|r| r.ops)
    };
    match (find("flat"), find("hier16")) {
        (Some(flat), Some(hier)) if flat < 5 * hier => errors.push(format!(
            "  hier/scan1e5: flat/hier lock-request ratio {:.1}x is below the 5x acceptance bar \
             (flat {flat}, hier {hier})",
            flat as f64 / hier as f64
        )),
        (Some(flat), Some(hier)) => {
            return if errors.is_empty() {
                Ok(format!(
                    "hierarchy gate OK: {pinned} pinned records, flat/hier ratio {:.1}x (≥5x)",
                    flat as f64 / hier as f64
                ))
            } else {
                Err(errors.join("\n"))
            }
        }
        _ => errors.push("  hier/scan1e5: flat or hier16 record missing from this run".to_string()),
    }
    if errors.is_empty() {
        Ok(format!("hierarchy gate OK: {pinned} pinned records"))
    } else {
        Err(errors.join("\n"))
    }
}

// ---------------------------------------------------------------------
// Suite: delegation — cached grants vs always-remote (D7).
// ---------------------------------------------------------------------

/// The D7 message-economy workloads: read-heavy skewed traffic (3 sites,
/// 24 entities/site, 10 sync-2PL transactions × 10 steps, 90% reads) as
/// a 95% hot-site mix and a θ=0.9 Zipfian mix, each run with delegation
/// off and on under both prevention arms. `ops` is acquire/release
/// traffic (`lock_traffic`) summed over 20 fixed sim seeds — fully
/// deterministic, so the `--check` gate pins the counts exactly and
/// enforces the ≥2× off/on reduction from the D7 acceptance bar on the
/// headline arms (hot-site under wait-die, Zipfian under wound-wait).
fn delegation_suite(records: &mut Vec<BenchRecord>) {
    use kplock_core::policy::LockStrategy;
    use kplock_sim::Delegation;
    use kplock_workload::{hot_site_sweep, zipf_sweep, WorkloadParams};
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
    let workloads = [
        ("hot95", hot_site_sweep(&base, &[95]).pop().expect("one")),
        ("zipf09", zipf_sweep(&base, &[0.9]).pop().expect("one")),
    ];
    let arms = [
        (
            "wound_wait",
            DeadlockResolution::Prevent(PreventionScheme::WoundWait),
        ),
        (
            "wait_die",
            DeadlockResolution::Prevent(PreventionScheme::WaitDie),
        ),
    ];
    for (wlabel, sc) in &workloads {
        for (rlabel, resolution) in arms {
            for (dlabel, delegation) in [("off", Delegation::Off), ("on", Delegation::On)] {
                let mut traffic = 0u64;
                let mut restarts = 0u64;
                let mut lat_ns = Vec::new();
                let t0 = Instant::now();
                for seed in 0..20u64 {
                    let cfg = SimConfig {
                        seed,
                        latency: LatencyModel::Fixed(5),
                        resolution,
                        delegation,
                        max_time: 2_000_000,
                        ..Default::default()
                    };
                    let r0 = Instant::now();
                    let report = run(&sc.system, &cfg).expect("valid config");
                    lat_ns.push(r0.elapsed().as_nanos() as u64);
                    traffic += report.metrics.lock_traffic;
                    restarts += report.metrics.aborts as u64;
                }
                let elapsed = t0.elapsed();
                let (p50, p99, p999) = percentiles_us(lat_ns);
                records.push(BenchRecord {
                    id: format!("deleg/{wlabel}/{rlabel}/{dlabel}"),
                    suite: "delegation".to_string(),
                    workload: (*wlabel).to_string(),
                    table: "default".to_string(),
                    threads: 1,
                    shards: 1,
                    resolution: rlabel.to_string(),
                    fault_plan: "none".to_string(),
                    ops: traffic,
                    elapsed_ms: elapsed.as_secs_f64() * 1e3,
                    throughput_ops_per_s: traffic as f64 / elapsed.as_secs_f64(),
                    p50_us: p50,
                    p99_us: p99,
                    p999_us: p999,
                    restarts,
                    probe_messages: 0,
                });
            }
        }
    }
}

/// The delegation side of the gate: acquire/release message counts are
/// deterministic, so any drift against the baseline is a real behavior
/// change (delegation protocol, workload generation, or admission), and
/// delegation must keep cutting lock traffic ≥2× on each headline
/// workload/arm pair.
fn check_delegation(baseline: &[BenchRecord], current: &[BenchRecord]) -> Result<String, String> {
    let mut errors = Vec::new();
    let mut pinned = 0;
    for cur in current.iter().filter(|r| r.suite == "delegation") {
        if let Some(base) = baseline.iter().find(|b| b.id == cur.id) {
            pinned += 1;
            if base.ops != cur.ops {
                errors.push(format!(
                    "  {}: lock-traffic count drifted from the baseline ({} -> {})",
                    cur.id, base.ops, cur.ops
                ));
            }
        }
    }
    let find = |id: &str| {
        current
            .iter()
            .find(|r| r.suite == "delegation" && r.id == id)
            .map(|r| r.ops)
    };
    let mut ratios = Vec::new();
    for (off_id, on_id) in [
        ("deleg/hot95/wait_die/off", "deleg/hot95/wait_die/on"),
        ("deleg/zipf09/wound_wait/off", "deleg/zipf09/wound_wait/on"),
    ] {
        match (find(off_id), find(on_id)) {
            (Some(off), Some(on)) if off < 2 * on => errors.push(format!(
                "  {on_id}: off/on lock-traffic ratio {:.2}x is below the 2x acceptance bar \
                 (off {off}, on {on})",
                off as f64 / on as f64
            )),
            (Some(off), Some(on)) => ratios.push(off as f64 / on as f64),
            _ => errors.push(format!("  {off_id}: record missing from this run")),
        }
    }
    if errors.is_empty() {
        let shown: Vec<String> = ratios.iter().map(|r| format!("{r:.2}x")).collect();
        Ok(format!(
            "delegation gate OK: {pinned} pinned records, headline ratios [{}] (≥2x)",
            shown.join(", ")
        ))
    } else {
        Err(errors.join("\n"))
    }
}

// ---------------------------------------------------------------------
// Shared measurement plumbing.
// ---------------------------------------------------------------------

/// p50/p99/p999 of nanosecond samples, in microseconds.
fn percentiles_us(mut lat_ns: Vec<u64>) -> (f64, f64, f64) {
    if lat_ns.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    lat_ns.sort_unstable();
    let pick = |p: f64| {
        let idx = ((lat_ns.len() - 1) as f64 * p).round() as usize;
        lat_ns[idx] as f64 / 1e3
    };
    (pick(0.50), pick(0.99), pick(0.999))
}

/// The regression gate: joins `current` to the baseline by record id,
/// normalizes machine speed out with the median throughput ratio, and
/// fails when any record falls below `median × (1 − tolerance)`.
///
/// Only single-thread `hot_loop` records participate: the sim and
/// threaded suites are nondeterministic run-to-run (timeout races,
/// thread scheduling), and multi-thread hot-loop records on a
/// small/shared CI box measure the scheduler as much as the table. The
/// `t1` records are a pure data-structure measurement and stay stable;
/// a real table regression shows up there first.
fn check_against(
    baseline_path: &str,
    current: &[BenchRecord],
    tolerance: f64,
) -> Result<String, String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline = record::from_json(&text)?;
    let mut ratios: Vec<(String, f64)> = Vec::new();
    for cur in current
        .iter()
        .filter(|r| r.suite == "hot_loop" && r.threads == 1)
    {
        let Some(base) = baseline.iter().find(|b| b.id == cur.id) else {
            continue;
        };
        if base.throughput_ops_per_s > 0.0 {
            ratios.push((
                cur.id.clone(),
                cur.throughput_ops_per_s / base.throughput_ops_per_s,
            ));
        }
    }
    if ratios.is_empty() {
        return Err("no overlapping records between run and baseline".to_string());
    }
    let mut sorted: Vec<f64> = ratios.iter().map(|&(_, r)| r).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = sorted[sorted.len() / 2];
    let floor = median * (1.0 - tolerance);
    let failures: Vec<String> = ratios
        .iter()
        .filter(|&&(_, r)| r < floor)
        .map(|(id, r)| {
            format!("  {id}: {r:.3}x vs baseline (floor {floor:.3}x, median {median:.3}x)")
        })
        .collect();
    // The hierarchy and delegation records gate on *determinism* and
    // their acceptance ratios, not throughput — counts are
    // machine-independent, so no tolerance.
    let hierarchy = check_hierarchy(&baseline, current);
    let delegation = check_delegation(&baseline, current);
    let mut problems = Vec::new();
    if !failures.is_empty() {
        problems.push(format!(
            "{} of {} records regressed more than {:.0}% below the median ratio {median:.3}x:\n{}",
            failures.len(),
            ratios.len(),
            tolerance * 100.0,
            failures.join("\n")
        ));
    }
    if let Err(herr) = &hierarchy {
        problems.push(format!("hierarchy gate failed:\n{herr}"));
    }
    if let Err(derr) = &delegation {
        problems.push(format!("delegation gate failed:\n{derr}"));
    }
    if let (true, Ok(hsummary), Ok(dsummary)) = (problems.is_empty(), &hierarchy, &delegation) {
        Ok(format!(
            "perf gate OK: {} records, median ratio {median:.3}x, floor {floor:.3}x\n{hsummary}\n{dsummary}",
            ratios.len()
        ))
    } else {
        Err(problems.join("\n"))
    }
}
