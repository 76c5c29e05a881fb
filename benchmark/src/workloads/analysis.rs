//! The two static-analysis workloads: the paper's polynomial side
//! (`analysis_poly`) and its coNP side (`analysis_sat`). A call is one
//! decision; checking certificates and replaying witnesses is not timed.

use super::{generate, input_seed, probe_txn_build, ratio};
use crate::harness::{Metrics, Outcome, Scale, Workload};
use crate::trace::{Summary, Tracer};
use kplock_core::policy::LockStrategy;
use kplock_core::{
    analyze_pair, check_deadlock, check_safety, decide_multisite, decide_total_pair,
    decide_two_site, reduce, synthesize_optimal, try_unsafety_via_dominator, AvoidPlan,
    ConflictDigraph, EncodingStats, MultisiteOptions, SafetyVerdict, SatSafety,
};
use kplock_geometry::{plane_is_safe, PlanePicture};
use kplock_graph::find_dominator;
use kplock_model::{EntityId, TxnId, TxnSystem};
use kplock_sat::{Cnf, SatResult};
use kplock_sim::{replay_deadlock, replay_violation};
use kplock_workload::{
    certified_mix, opposed_mix, random_instance, random_pair, random_system, WorkloadParams,
};

const A: TxnId = TxnId(0);
const B: TxnId = TxnId(1);
const STRATEGIES: [LockStrategy; 3] = [
    LockStrategy::Minimal,
    LockStrategy::TwoPhaseLoose,
    LockStrategy::TwoPhaseSync,
];

// Full sizes; see the note on pass length in `sim.rs`.
const TWO_SITE_SIZES: [(usize, &str); 4] = [
    (8, "core.two_site.decide.n8"),
    (16, "core.two_site.decide.n16"),
    (32, "core.two_site.decide.n32"),
    (64, "core.two_site.decide.n64"),
];
const TWO_SITE_PAIRS_PER_SIZE: usize = 1500;
const CENTRAL_PAIRS: usize = 800;
const AVOID_SYSTEMS: usize = 60;
const SAT_PAIRS: usize = 1700;
/// `(variables, clauses, instances, timed, span)` of the Theorem-3
/// reduction inputs. The cost of `decide_multisite` grows exponentially
/// with the formula and varies tenfold between instances of one size (5 to
/// 32 ms at (4, 3), 8 to 170 ms at (5, 4), 76 to 730 ms at (6, 5)), so only
/// three (4, 3) instances are timed calls — few enough that throughput and
/// the tail stay properties of the code, not of the seed; the larger ones
/// are made by a traced run alone, for their per-layer metrics. A (12, 10)
/// instance already overruns the oracle's limit of 64 steps per
/// transaction.
const REDUCTIONS: [(usize, usize, usize, bool, &str); 3] = [
    (4, 3, 6, true, "core.multisite.decide.v4c3"),
    (5, 4, 3, false, "core.multisite.decide.v5c4"),
    (6, 5, 1, false, "core.multisite.decide.v6c5"),
];

/// Verifies an `Unsafe` verdict's certificate; an undecided verdict fails.
fn check_verdict(tr: &mut Tracer, sys: &TxnSystem, verdict: &SafetyVerdict) -> Option<String> {
    match verdict {
        SafetyVerdict::Safe(_) => None,
        SafetyVerdict::Unknown => Some("verdict Unknown".to_string()),
        SafetyVerdict::Unsafe(cert) => tr
            .span("core.certificate.verify", |_| cert.verify(sys))
            .0
            .err()
            .map(|e| format!("unsafety certificate rejected: {e:?}")),
    }
}

fn disagreement(first: Option<bool>, second: bool, who: &str) -> Option<String> {
    (first != Some(second)).then(|| format!("{who} disagree on safety"))
}

#[derive(Clone, Copy)]
enum PolyKind {
    TwoSite,
    AnalyzePair,
    Plane,
    TotalPair,
    Synthesize,
    Verify,
}

struct PolyInput {
    sys: TxnSystem,
    seed: u64,
    /// Span of the `decide_two_site` call, which names the pair's size.
    span: &'static str,
    /// Synthesized at set-up, for the `verify` call.
    plan: Option<AvoidPlan>,
    /// What the first decision procedure said; the second must agree.
    safe: Option<bool>,
}

/// `analysis_poly`.
pub struct Poly {
    inputs: Vec<PolyInput>,
    calls: Vec<(PolyKind, usize)>,
}

/// The layers under `decide_two_site`, called one by one on the same pair.
fn probe_pair_layers(tr: &mut Tracer, sys: &TxnSystem) {
    let (d, _) = tr.span("core.conflict_graph.build", |_| {
        ConflictDigraph::build(sys, A, B)
    });
    let (connected, _) = tr.span("graph.scc", |_| d.is_strongly_connected());
    if !connected && d.entities.len() >= 2 {
        tr.span("core.closure.dominator", |_| {
            let bits = find_dominator(&d.graph).expect("not strongly connected");
            let dominator: Vec<EntityId> = bits.iter().map(|i| d.entities[i]).collect();
            try_unsafety_via_dominator(sys, A, B, &dominator)
        });
    }
}

impl Workload for Poly {
    fn calls(&self) -> usize {
        self.calls.len()
    }

    fn call(&mut self, i: usize, tr: &mut Tracer) -> Outcome {
        let (kind, idx) = self.calls[i];
        let input = &mut self.inputs[idx];
        let sys = &input.sys;
        match kind {
            PolyKind::TwoSite => {
                let (verdict, ns) = tr.span(input.span, |_| decide_two_site(sys, A, B));
                let failure = match &verdict {
                    Ok(v) => {
                        input.safe = Some(v.is_safe());
                        check_verdict(tr, sys, v)
                    }
                    Err(e) => Some(e.to_string()),
                };
                if tr.on() {
                    probe_pair_layers(tr, sys);
                }
                Outcome::new(1, ns, failure)
            }
            PolyKind::AnalyzePair => {
                let (analysis, ns) = tr.span("core.analyze_pair", |_| analyze_pair(sys));
                let v = &analysis.verdict;
                let failure = check_verdict(tr, sys, v).or_else(|| {
                    disagreement(input.safe, v.is_safe(), "decide_two_site and analyze_pair")
                });
                Outcome::new(1, ns, failure)
            }
            PolyKind::Plane => {
                let (plane, build_ns) =
                    tr.span("geometry.plane_build", |_| PlanePicture::new(sys, A, B));
                match plane {
                    Err(e) => Outcome::new(0, build_ns, Some(format!("no plane picture: {e:?}"))),
                    Ok(plane) => {
                        let (safe, safe_ns) =
                            tr.span("geometry.plane_safe", |_| plane_is_safe(&plane));
                        input.safe = Some(safe);
                        Outcome::new(1, build_ns + safe_ns, None)
                    }
                }
            }
            PolyKind::TotalPair => {
                let (v, ns) = tr.span("core.total_pair.decide", |_| decide_total_pair(sys, A, B));
                let failure = check_verdict(tr, sys, &v).or_else(|| {
                    disagreement(
                        input.safe,
                        v.is_safe(),
                        "plane_is_safe and decide_total_pair",
                    )
                });
                Outcome::new(1, ns, failure)
            }
            PolyKind::Synthesize => {
                let (plan, ns) = tr.span("core.avoid.synthesize", |_| AvoidPlan::synthesize(sys));
                tr.annotate(&[("txns", sys.len() as u64)]);
                let expected = input.plan.as_ref().expect("synthesized at set-up");
                let same =
                    plan.txn_count() == sys.len() && plan.certified() == expected.certified();
                Outcome::new(
                    1,
                    ns,
                    (!same).then(|| "synthesis is not repeatable".to_string()),
                )
            }
            PolyKind::Verify => {
                let plan = input.plan.as_ref().expect("synthesized at set-up");
                let (verified, ns) = tr.span("core.avoid.verify", |_| plan.verify(sys));
                Outcome::new(1, ns, verified.err().map(|e| format!("plan rejected: {e}")))
            }
        }
    }

    fn describe(&self, i: usize) -> String {
        let (kind, idx) = self.calls[i];
        let what = match kind {
            PolyKind::TwoSite => "decide_two_site",
            PolyKind::AnalyzePair => "analyze_pair",
            PolyKind::Plane => "plane_is_safe",
            PolyKind::TotalPair => "decide_total_pair",
            PolyKind::Synthesize => "synthesize",
            PolyKind::Verify => "verify",
        };
        format!("input seed {} arm {what}", self.inputs[idx].seed)
    }

    fn begin_pass(&mut self) {}
}

/// `analysis_poly`: two-site pairs of 8 to 64 steps through
/// `decide_two_site` and `analyze_pair`, centralized pairs through the
/// plane picture and `decide_total_pair`, and avoid plans synthesized and
/// verified on systems of 64 to 256 transactions.
pub fn poly(seed: u64, scale: Scale, tr: &mut Tracer) -> Poly {
    let per_size = scale.n(TWO_SITE_PAIRS_PER_SIZE);
    let central = scale.n(CENTRAL_PAIRS);
    let avoid = scale.n(AVOID_SYSTEMS);
    let mut calls = Vec::new();
    let mut inputs: Vec<PolyInput> = generate(tr, || {
        let mut inputs = Vec::new();
        let mut push = |sys, span, kinds: [PolyKind; 2], inputs: &mut Vec<PolyInput>| {
            calls.extend(kinds.map(|k| (k, inputs.len())));
            inputs.push(PolyInput {
                sys,
                seed: input_seed(seed, inputs.len()),
                span,
                plan: None,
                safe: None,
            });
        };
        for (steps, span) in TWO_SITE_SIZES {
            for _ in 0..per_size {
                let i = inputs.len();
                let sys = random_pair(&WorkloadParams {
                    seed: input_seed(seed, i),
                    sites: 2,
                    entities_per_site: (steps / 4).max(2),
                    steps_per_txn: steps,
                    strategy: STRATEGIES[i % 3],
                    ..Default::default()
                });
                push(
                    sys,
                    span,
                    [PolyKind::TwoSite, PolyKind::AnalyzePair],
                    &mut inputs,
                );
            }
        }
        for _ in 0..central {
            let i = inputs.len();
            let sys = random_pair(&WorkloadParams {
                seed: input_seed(seed, i),
                sites: 1,
                entities_per_site: 6,
                steps_per_txn: 12,
                strategy: STRATEGIES[i % 3],
                ..Default::default()
            });
            push(sys, "", [PolyKind::Plane, PolyKind::TotalPair], &mut inputs);
        }
        for k in 0..avoid {
            let i = inputs.len();
            let txns = 64 << (k % 3);
            // Greedy synthesis certifies next to nothing of a random system
            // (lock steps at different sites are unordered), so every other
            // input is of the family whose ascending prefix it certifies;
            // the seed sets how long that prefix is.
            let sys = if k % 2 == 0 {
                random_system(&WorkloadParams {
                    seed: input_seed(seed, i),
                    sites: 4,
                    entities_per_site: 16,
                    transactions: txns,
                    steps_per_txn: 6,
                    strategy: LockStrategy::TwoPhaseSync,
                    ..Default::default()
                })
            } else {
                let certified = txns / 2 - (input_seed(seed, i) % 8) as usize;
                certified_mix(16, certified, txns - certified, 4)
            };
            push(
                sys,
                "",
                [PolyKind::Synthesize, PolyKind::Verify],
                &mut inputs,
            );
        }
        inputs
    });
    probe_txn_build(tr, inputs.iter().map(|i| &i.sys));
    for input in inputs.iter_mut().rev().take(avoid) {
        input.plan = Some(AvoidPlan::synthesize(&input.sys));
    }
    Poly { inputs, calls }
}

#[derive(Clone, Copy)]
enum SatKind {
    Safety,
    Deadlock,
    Reduce,
    Multisite,
    Solve,
    Optimal,
}

struct SatInput {
    sys: TxnSystem,
    seed: u64,
    /// The source formula of a reduction input.
    cnf: Option<Cnf>,
    /// Span of the `decide_multisite` call, which names the formula size.
    span: &'static str,
    /// Whether `decide_multisite` found the pair unsafe, for `solve`.
    found_unsafe: Option<bool>,
}

/// Encoding size and solver effort summed over the checks of one pass.
#[derive(Default)]
struct SatTotals {
    checks: u64,
    refused: u64,
    vars: u64,
    clauses: u64,
    decisions: u64,
    propagations: u64,
    optimal_calls: u64,
    optimal_sat_calls: u64,
}

impl SatTotals {
    fn add(&mut self, stats: &EncodingStats) {
        self.checks += 1;
        self.vars += stats.vars as u64;
        self.clauses += stats.clauses as u64;
        self.decisions += stats.decisions;
        self.propagations += stats.propagations;
    }
}

/// `analysis_sat`.
pub struct Sat {
    inputs: Vec<SatInput>,
    /// The calls of a pass, then the ones only a traced run makes.
    calls: Vec<(SatKind, usize)>,
    timed: usize,
    totals: SatTotals,
}

fn annotate_stats(tr: &mut Tracer, stats: &EncodingStats) {
    tr.annotate(&[
        ("vars", stats.vars as u64),
        ("clauses", stats.clauses as u64),
        ("decisions", stats.decisions),
        ("propagations", stats.propagations),
    ]);
}

impl Workload for Sat {
    fn calls(&self) -> usize {
        self.timed
    }

    fn extras(&self) -> usize {
        self.calls.len() - self.timed
    }

    fn call(&mut self, i: usize, tr: &mut Tracer) -> Outcome {
        let (kind, idx) = self.calls[i];
        let input = &mut self.inputs[idx];
        let sys = &input.sys;
        match kind {
            SatKind::Safety => {
                let (check, ns) = tr.span("core.sat_check.safety", |_| check_safety(sys));
                let check = match check {
                    Ok(check) => check,
                    Err(e) => {
                        self.totals.refused += 1;
                        return Outcome::new(0, ns, Some(format!("check_safety refused: {e}")));
                    }
                };
                annotate_stats(tr, &check.stats);
                self.totals.add(&check.stats);
                let mut failure = match &check.verdict {
                    SatSafety::Safe => None,
                    SatSafety::Unsafe(witness) => tr
                        .span("sim.replay.violation", |_| replay_violation(sys, witness))
                        .0
                        .err()
                        .map(|e| format!("unsafety witness does not replay: {e:?}")),
                };
                // Where Theorem 2 applies, the polynomial procedure must
                // agree; it runs outside the timed call.
                if sys.db().site_count() <= 2 && failure.is_none() {
                    let (two_site, _) =
                        tr.span("core.two_site.crosscheck", |_| decide_two_site(sys, A, B));
                    failure = match two_site {
                        Ok(v) => disagreement(
                            Some(v.is_safe()),
                            check.verdict.is_safe(),
                            "decide_two_site and check_safety",
                        ),
                        Err(e) => Some(e.to_string()),
                    };
                }
                Outcome::new(1, ns, failure)
            }
            SatKind::Deadlock => {
                let (check, ns) = tr.span("core.sat_check.deadlock", |_| check_deadlock(sys));
                let check = match check {
                    Ok(check) => check,
                    Err(e) => {
                        self.totals.refused += 1;
                        return Outcome::new(0, ns, Some(format!("check_deadlock refused: {e}")));
                    }
                };
                annotate_stats(tr, &check.stats);
                self.totals.add(&check.stats);
                let failure = check.deadlock.as_ref().and_then(|prefix| {
                    tr.span("sim.replay.deadlock", |_| replay_deadlock(sys, prefix))
                        .0
                        .err()
                        .map(|e| format!("deadlock witness does not replay: {e:?}"))
                });
                Outcome::new(1, ns, failure)
            }
            SatKind::Reduce => {
                let cnf = input.cnf.as_ref().expect("a reduction input");
                let (reduction, ns) = tr.span("core.reduction.reduce", |_| reduce(cnf));
                let failure = match reduction {
                    Ok(r) if r.verify_intended() => None,
                    Ok(_) => Some("reduction does not realize the intended digraph".to_string()),
                    Err(e) => Some(format!("reduce refused: {e}")),
                };
                Outcome::new(1, ns, failure)
            }
            SatKind::Multisite => {
                let options = MultisiteOptions::default();
                let (v, ns) = tr.span(input.span, |_| decide_multisite(sys, A, B, &options));
                input.found_unsafe = Some(v.is_unsafe());
                Outcome::new(1, ns, check_verdict(tr, sys, &v))
            }
            SatKind::Solve => {
                let cnf = input.cnf.as_ref().expect("a reduction input");
                let (result, ns) = tr.span("sat.solve", |_| kplock_sat::solve(cnf));
                // Theorem 3: the formula is satisfiable iff the pair is unsafe.
                let satisfiable = matches!(result, SatResult::Sat(_));
                let failure = disagreement(
                    input.found_unsafe,
                    satisfiable,
                    "decide_multisite and the source formula",
                );
                Outcome::new(1, ns, failure)
            }
            SatKind::Optimal => {
                let (best, ns) = tr.span("core.synthesize_optimal", |_| synthesize_optimal(sys));
                tr.annotate(&[("sat_calls", best.sat_calls as u64)]);
                self.totals.optimal_calls += 1;
                self.totals.optimal_sat_calls += best.sat_calls as u64;
                // `opposed_mix(d, _)`: greedy certifies the one ascender,
                // the optimum all `d` descenders.
                let descending = sys.len() - 1;
                let failure = if best.optimal_count != descending.max(best.greedy_count) {
                    Some(format!(
                        "optimum {} of {descending} descenders",
                        best.optimal_count
                    ))
                } else {
                    best.plan
                        .verify(sys)
                        .err()
                        .map(|e| format!("plan rejected: {e}"))
                };
                Outcome::new(1, ns, failure)
            }
        }
    }

    fn describe(&self, i: usize) -> String {
        let (kind, idx) = self.calls[i];
        let what = match kind {
            SatKind::Safety => "check_safety",
            SatKind::Deadlock => "check_deadlock",
            SatKind::Reduce => "reduce",
            SatKind::Multisite => "decide_multisite",
            SatKind::Solve => "solve",
            SatKind::Optimal => "synthesize_optimal",
        };
        format!("input seed {} arm {what}", self.inputs[idx].seed)
    }

    fn begin_pass(&mut self) {
        self.totals = SatTotals::default();
    }

    fn layer_metrics(&self, _spans: &Summary, out: &mut Metrics) {
        let t = &self.totals;
        let per_check = |count: u64| ratio(count as f64, t.checks as f64);
        for (name, v) in [
            ("core.sat_check.vars", per_check(t.vars)),
            ("core.sat_check.clauses", per_check(t.clauses)),
            ("core.sat_check.decisions", per_check(t.decisions)),
            ("core.sat_check.propagations", per_check(t.propagations)),
            (
                "core.sat_check.refused_share",
                ratio(t.refused as f64, (t.checks + t.refused) as f64),
            ),
            (
                "core.synthesize_optimal.sat_calls",
                ratio(t.optimal_sat_calls as f64, t.optimal_calls as f64),
            ),
        ] {
            out.insert(name.to_string(), v);
        }
    }
}

/// `analysis_sat`: pairs of 6 to 12 steps over two to four sites through
/// `check_safety` and `check_deadlock`, Theorem-3 reductions of random
/// formulas through `reduce`, `decide_multisite` and the solver itself, and
/// `synthesize_optimal` on the greedy-conservatism family.
pub fn sat(seed: u64, scale: Scale, tr: &mut Tracer) -> Sat {
    let pairs = scale.n(SAT_PAIRS);
    let (mut calls, mut extras) = (Vec::new(), Vec::new());
    let inputs: Vec<SatInput> = generate(tr, || {
        let mut inputs = Vec::new();
        for _ in 0..pairs {
            let i = inputs.len();
            let sys = random_pair(&WorkloadParams {
                seed: input_seed(seed, i),
                // One pair in eight has two sites, for the cross-check
                // against Theorem 2; the rest have three or four.
                sites: if i % 8 == 7 { 2 } else { 3 + i % 2 },
                entities_per_site: 2,
                steps_per_txn: 6 + i % 7,
                strategy: STRATEGIES[i % 3],
                ..Default::default()
            });
            calls.extend([(SatKind::Safety, i), (SatKind::Deadlock, i)]);
            inputs.push(SatInput {
                sys,
                seed: input_seed(seed, i),
                cnf: None,
                span: "",
                found_unsafe: None,
            });
        }
        for (vars, clauses, count, timed, span) in REDUCTIONS {
            for _ in 0..scale.n(count) {
                let i = inputs.len();
                let cnf = random_instance(input_seed(seed, i), vars, clauses);
                let sys = reduce(&cnf)
                    .expect("random_instance is in restricted form")
                    .sys;
                if timed { &mut calls } else { &mut extras }.extend([
                    (SatKind::Reduce, i),
                    (SatKind::Multisite, i),
                    (SatKind::Solve, i),
                ]);
                inputs.push(SatInput {
                    sys,
                    seed: input_seed(seed, i),
                    cnf: Some(cnf),
                    span,
                    found_unsafe: None,
                });
            }
        }
        // RNG-free by construction: the family is the input.
        for descending in 2..=6 {
            calls.push((SatKind::Optimal, inputs.len()));
            inputs.push(SatInput {
                sys: opposed_mix(descending, 2),
                seed,
                cnf: None,
                span: "",
                found_unsafe: None,
            });
        }
        inputs
    });
    probe_txn_build(tr, inputs.iter().map(|i| &i.sys));
    let timed = calls.len();
    calls.extend(extras);
    Sat {
        inputs,
        calls,
        timed,
        totals: SatTotals::default(),
    }
}
