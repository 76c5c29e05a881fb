//! Runs one workload: repeated set-up, timed passes, and — in a traced run
//! — one more pass recorded as spans plus the workload's reference arms.
//!
//! Timing protocol: a workload is a fixed list of deterministic calls made
//! from `--seed`. The list is executed in full passes until `--seconds`
//! have elapsed. Each call's time is scaled by the yardstick timed next to
//! it (see [`crate::yardstick`]) and a call's time is the median of its
//! scaled times over the passes. Everything timed runs on one thread.

use crate::layers;
use crate::stats::{median, median_over_passes, percentile, tail};
use crate::trace::{to_jsonl, Summary, Tracer};
use crate::{workloads, yardstick};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Metric values by the names `BENCHMARK.json` lists.
pub type Metrics = BTreeMap<String, f64>;

/// An untraced run repeats set-up at least this often, and further until it
/// has spent [`SETUP_BUDGET_S`] on it or reached [`MAX_SETUP_REPS`];
/// `setup_s` is the median. A set-up of tens of milliseconds needs the
/// extra repeats to be steady.
const MIN_SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 9;
const SETUP_BUDGET_S: f64 = 1.0;
/// Share of a pass run untimed at the end of set-up, so caches and lazy
/// initialisation are paid before timing.
const WARM_UP_SHARE: f64 = 0.05;
/// Failed calls named on stderr.
const FAILURES_SHOWN: u64 = 3;

/// What one call into the system under test did.
pub struct Outcome {
    /// Operations completed (committed transactions, decisions, table
    /// operations); 0 for a failed call.
    pub ops: u64,
    /// Time of the measured part of the call. Checking the result is not
    /// part of it.
    pub ns: u64,
    /// Why the call failed, if it did.
    pub failure: Option<String>,
}

impl Outcome {
    /// A call whose time counts whether or not it failed.
    pub fn new(ops: u64, ns: u64, failure: Option<String>) -> Outcome {
        Outcome {
            ops: if failure.is_none() { ops } else { 0 },
            ns,
            failure,
        }
    }
}

/// A named list of calls into the crates, built from a seed.
pub trait Workload {
    /// Calls in one pass.
    fn calls(&self) -> usize;
    /// Makes call `i`, checks its output, and adds its counts to the
    /// workload's own totals.
    fn call(&mut self, i: usize, tr: &mut Tracer) -> Outcome;
    /// The input seed and arm of call `i`, for the failure report.
    fn describe(&self, i: usize) -> String;
    /// Zeroes the totals `call` accumulates, so they describe one pass.
    fn begin_pass(&mut self);
    /// Calls only a traced run makes, after the traced pass: reference arms
    /// over the same inputs and real-thread blocks. They are numbered
    /// `calls()..calls() + extras()`.
    fn extras(&self) -> usize {
        0
    }
    /// Per-layer metrics that need the workload's own totals. Metrics that
    /// are a span's self time per span or per count come from
    /// [`layers::span_metrics`] instead.
    fn layer_metrics(&self, _spans: &Summary, _out: &mut Metrics) {}
}

/// Workload size as a share of the full benchmark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    pub const FULL: Scale = Scale(1.0);
    /// Every code path at about a fiftieth of the work.
    pub const SMOKE: Scale = Scale(0.02);

    /// `full` scaled, never below one.
    pub fn n(self, full: usize) -> usize {
        ((full as f64 * self.0).round() as usize).max(1)
    }
}

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where a traced run writes `trace-<workload>.jsonl`.
    pub out_dir: Option<PathBuf>,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics of an untraced run, per-layer metrics of a
    /// traced one.
    pub metrics: Metrics,
    pub calls: usize,
    pub passes: usize,
}

/// Counts calls and names the first few that fail.
struct Tally<'a> {
    workload: &'a str,
    attempted: u64,
    failed: u64,
}

impl Tally<'_> {
    fn note(&mut self, describe: impl FnOnce() -> String, outcome: &Outcome) {
        self.attempted += 1;
        if let Some(why) = &outcome.failure {
            self.failed += 1;
            if self.failed <= FAILURES_SHOWN {
                eprintln!("FAILED {} {}: {why}", self.workload, describe());
            }
        }
    }
}

/// Makes call `i`; a panic inside the crates is a failed call, not the end
/// of the run.
fn guarded_call(wl: &mut dyn Workload, i: usize, tr: &mut Tracer) -> Outcome {
    let depth = tr.depth();
    let t0 = Instant::now();
    match catch_unwind(AssertUnwindSafe(|| wl.call(i, tr))) {
        Ok(outcome) => outcome,
        Err(payload) => {
            tr.unwind_to(depth);
            let text = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            Outcome::new(
                0,
                t0.elapsed().as_nanos() as u64,
                Some(format!("panicked: {text}")),
            )
        }
    }
}

struct Pass {
    /// Per-call time in reference nanoseconds.
    call_ns: Vec<f64>,
    ops: Vec<u64>,
    wall_s: f64,
    yardstick_ns: Vec<f64>,
}

fn one_pass(wl: &mut dyn Workload, tr: &mut Tracer, tally: &mut Tally) -> Pass {
    let n = wl.calls();
    let mut pass = Pass {
        call_ns: Vec::with_capacity(n),
        ops: Vec::with_capacity(n),
        wall_s: 0.0,
        yardstick_ns: Vec::with_capacity(n + 1),
    };
    wl.begin_pass();
    let t0 = Instant::now();
    pass.yardstick_ns.push(yardstick::measure());
    for i in 0..n {
        tr.next_call();
        let (outcome, _) = tr.span("bench.call", |tr| guarded_call(wl, i, tr));
        tally.note(|| wl.describe(i), &outcome);
        // The yardstick before the call and the one after it bracket the
        // box's speed during the call.
        let before = pass.yardstick_ns[i];
        let after = yardstick::measure();
        pass.yardstick_ns.push(after);
        pass.call_ns
            .push(yardstick::scale(outcome.ns as f64, (before + after) / 2.0));
        pass.ops.push(outcome.ops);
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM line".to_string())
}

/// Runs the workload `cfg` names and returns its metrics.
pub fn run_workload(cfg: &RunConfig) -> Result<RunResult, String> {
    let mut tr = Tracer::new(cfg.trace);
    let mut quiet = Tracer::new(false);
    let mut tally = Tally {
        workload: &cfg.workload,
        attempted: 0,
        failed: 0,
    };

    // Set-up: inputs from the seed, whatever the workload synthesizes ahead
    // of time, and an untimed warm-up. An untraced run repeats it and
    // reports the median; each instance is dropped before the next is
    // built, so peak memory is one instance's.
    let mut setup_s = Vec::new();
    let mut built = None;
    let setup_started = Instant::now();
    let another_setup = |done: usize| match done {
        0 => true,
        _ if cfg.trace => false,
        _ if done < MIN_SETUP_REPS => true,
        _ => done < MAX_SETUP_REPS && setup_started.elapsed().as_secs_f64() < SETUP_BUDGET_S,
    };
    while another_setup(setup_s.len()) {
        drop(built.take());
        tr.clear();
        let before = yardstick::measure_settled();
        let t0 = Instant::now();
        let mut wl = workloads::build(&cfg.workload, cfg.seed, cfg.scale, &mut tr)?;
        let warm_up = ((wl.calls() as f64 * WARM_UP_SHARE) as usize).max(1);
        for i in 0..warm_up.min(wl.calls()) {
            guarded_call(wl.as_mut(), i, &mut quiet);
        }
        let elapsed_s = t0.elapsed().as_secs_f64();
        let after = yardstick::measure_settled();
        setup_s.push(yardstick::scale(elapsed_s, (before + after) / 2.0));
        built = Some(wl);
    }
    let mut wl = built.expect("at least one set-up");
    let calls = wl.calls();
    if calls == 0 {
        return Err(format!("{}: no calls to make", cfg.workload));
    }

    // Timed passes, tracing off. A traced run spends half its time here
    // and the rest on the traced pass and the reference arms.
    let budget = Duration::from_secs_f64(cfg.seconds * if cfg.trace { 0.5 } else { 1.0 });
    let started = Instant::now();
    let mut passes = Vec::new();
    loop {
        let pass = one_pass(wl.as_mut(), &mut quiet, &mut tally);
        // Stop where another pass would overshoot by more than it falls
        // short now, so a run takes `--seconds` give or take half a pass.
        let another = Duration::from_secs_f64(pass.wall_s / 2.0);
        passes.push(pass);
        if started.elapsed() + another >= budget {
            break;
        }
    }
    let call_ns: Vec<&[f64]> = passes.iter().map(|p| p.call_ns.as_slice()).collect();
    let typical_ns = median_over_passes(&call_ns);
    let mut sorted_us: Vec<f64> = typical_ns.iter().map(|&t| t / 1e3).collect();
    sorted_us.sort_by(f64::total_cmp);
    let p50_us = median(&sorted_us).expect("at least one call");
    let (tail_us, tail_pct) = match tail(&sorted_us) {
        Some(t) => t,
        None if cfg.scale == Scale::FULL => {
            return Err(format!(
                "{}: {calls} calls per pass leave no tail with ten samples beyond it",
                cfg.workload
            ))
        }
        // A smoke run is too small for a tail; the median stands in.
        None => (p50_us, 50.0),
    };

    let mut metrics = Metrics::new();
    if !cfg.trace {
        let ops: u64 = passes.last().expect("at least one pass").ops.iter().sum();
        let busy_s = typical_ns.iter().sum::<f64>() / 1e9;
        metrics.insert(
            "setup_s".into(),
            median(&setup_s).expect("at least one set-up"),
        );
        metrics.insert("ops_per_s".into(), ops as f64 / busy_s);
        metrics.insert("call_p50_us".into(), p50_us);
        metrics.insert("call_tail_us".into(), tail_us);
        metrics.insert("peak_rss_mb".into(), peak_rss_mb()?);
    } else {
        let traced = one_pass(wl.as_mut(), &mut tr, &mut tally);
        for i in calls..calls + wl.extras() {
            tr.next_call();
            let (outcome, _) = tr.span("bench.extra", |tr| guarded_call(wl.as_mut(), i, tr));
            tally.note(|| wl.describe(i), &outcome);
        }
        let summary = Summary::of(tr.spans());
        layers::span_metrics(&summary, &mut metrics);
        wl.layer_metrics(&summary, &mut metrics);

        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
        let slowest = walls.iter().copied().fold(0.0, f64::max);
        let mut yardsticks: Vec<f64> = passes
            .iter()
            .chain([&traced])
            .flat_map(|p| p.yardstick_ns.iter().copied())
            .collect();
        yardsticks.sort_by(f64::total_cmp);
        metrics.insert(
            "bench.yardstick_us".into(),
            median(&yardsticks).expect("at least one yardstick") / 1e3,
        );
        metrics.insert("bench.pass_wall_s".into(), fastest);
        metrics.insert("bench.pass_spread".into(), slowest / fastest);
        metrics.insert("bench.calls".into(), calls as f64);
        metrics.insert("bench.tail_percentile".into(), tail_pct);
        // Not gated, so one call beyond it is enough to report it.
        if let Some(p99_us) = percentile(&sorted_us, 990, 1) {
            metrics.insert("bench.call_p99_us".into(), p99_us);
        }
        // The traced pass's call time against the untraced passes': the
        // cost of recording, give or take the box's noise.
        metrics.insert(
            "trace.overhead_share".into(),
            traced.call_ns.iter().sum::<f64>() / typical_ns.iter().sum::<f64>() - 1.0,
        );
        metrics.insert(
            "failed_share".into(),
            tally.failed as f64 / tally.attempted as f64,
        );

        if let Some(dir) = &cfg.out_dir {
            let path = dir.join(format!("trace-{}.jsonl", cfg.workload));
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, to_jsonl(&cfg.workload, tr.spans())))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }

    Ok(RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        calls,
        passes: passes.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_never_rounds_to_nothing() {
        assert_eq!(Scale::FULL.n(120), 120);
        assert_eq!(Scale::SMOKE.n(120), 2);
        assert_eq!(Scale::SMOKE.n(3), 1);
    }

    #[test]
    fn a_failed_call_completes_no_operations() {
        assert_eq!(Outcome::new(24, 5, None).ops, 24);
        let failed = Outcome::new(24, 5, Some("illegal schedule".into()));
        assert_eq!((failed.ops, failed.ns), (0, 5));
    }

    struct Flaky {
        seen: usize,
    }

    impl Workload for Flaky {
        fn calls(&self) -> usize {
            3
        }
        fn call(&mut self, i: usize, tr: &mut Tracer) -> Outcome {
            self.seen += 1;
            let ((), ns) = tr.span("sut", |_| {
                if i == 1 {
                    panic!("release by non-holder");
                }
            });
            Outcome::new(10, ns, (i == 2).then(|| "wrong verdict".to_string()))
        }
        fn describe(&self, i: usize) -> String {
            format!("call {i}")
        }
        fn begin_pass(&mut self) {
            self.seen = 0;
        }
    }

    #[test]
    fn panics_and_wrong_outputs_are_failed_calls_whose_time_counts() {
        let mut wl = Flaky { seen: 0 };
        let mut tr = Tracer::new(true);
        let mut tally = Tally {
            workload: "flaky",
            attempted: 0,
            failed: 0,
        };
        let pass = one_pass(&mut wl, &mut tr, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert_eq!(pass.ops, vec![10, 0, 0]);
        assert_eq!(pass.call_ns.len(), 3);
        assert_eq!(wl.seen, 3);
        // The panic left no span open: every call is a root `bench.call`.
        let roots = tr.spans().iter().filter(|s| s.parent.is_none()).count();
        assert_eq!((roots, tr.depth()), (3, 0));
    }
}
