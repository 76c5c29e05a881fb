//! `--compare A.json B.json`: B against A, metric by metric.
//!
//! A is the baseline (the parent commit, or the first of two sets of runs of
//! one commit). The comparison fails when an end-to-end metric of B is worse
//! than A's by more than the bound `BENCHMARK.json` fixes, when a metric made
//! only of deterministic counters differs although both files used one seed,
//! or when B has failed calls that A has not.

use crate::json::Json;
use crate::spec::{MetricSpec, Spec};
use std::fmt::Write as _;

/// By how much of `a` the value `b` is worse, in the metric's direction
/// (negative when `b` is better).
pub fn worsening(m: &MetricSpec, a: f64, b: f64) -> f64 {
    let change = if m.higher_is_better { a - b } else { b - a };
    if a == 0.0 {
        if change > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        change / a.abs()
    }
}

/// How one metric of B stands against A.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// An end-to-end metric within its bound, or an exact one that repeats.
    Ok,
    /// No bound applies: a timing-based per-layer metric, or an exact one
    /// under differing seeds.
    Info,
    /// An end-to-end metric worse by more than its bound.
    Regressed,
    /// A deterministic count that differs under one seed.
    Differs,
}

pub fn judge(m: &MetricSpec, a: f64, b: f64, same_seed: bool) -> Verdict {
    match m.bound {
        Some(bound) if worsening(m, a, b) > bound => Verdict::Regressed,
        Some(_) => Verdict::Ok,
        None if m.is_exact() && same_seed => {
            if a == b {
                Verdict::Ok
            } else {
                Verdict::Differs
            }
        }
        None => Verdict::Info,
    }
}

fn metric_value(workload: &Json, group: &str, name: &str) -> Option<f64> {
    workload.get(group)?.get(name)?.get("value")?.as_f64()
}

/// Compares two result files. Returns the report and whether B passes.
pub fn compare(spec: &Spec, a: &Json, b: &Json) -> Result<(String, bool), String> {
    for (which, doc) in [("A", a), ("B", b)] {
        if doc.get("schema").and_then(Json::as_str) != Some(crate::RESULT_SCHEMA) {
            return Err(format!("{which} is not a {} file", crate::RESULT_SCHEMA));
        }
    }
    let seed = |doc: &Json| doc.get("seed").and_then(Json::as_f64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let mut out = String::new();
    let mut pass = true;
    writeln!(
        out,
        "{:<14} {:<46} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    )
    .expect("write to String");
    for name in &spec.workloads {
        let (Some(wa), Some(wb)) = (
            a.get("workloads").and_then(|w| w.get(name)),
            b.get("workloads").and_then(|w| w.get(name)),
        ) else {
            continue;
        };
        let failed = |w: &Json| w.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed(wb) > failed(wa) {
            pass = false;
            writeln!(
                out,
                "{name:<14} failed calls: {} -> {}  FAILED",
                failed(wa),
                failed(wb)
            )
            .expect("write to String");
        }
        let groups = [
            ("end_to_end", &spec.end_to_end),
            ("per_layer", &spec.per_layer),
        ];
        for (group, metrics) in groups {
            for m in metrics {
                let (Some(va), Some(vb)) = (
                    metric_value(wa, group, &m.name),
                    metric_value(wb, group, &m.name),
                ) else {
                    continue;
                };
                // A layer the workload never calls reads 0 in both files.
                if va == 0.0 && vb == 0.0 && m.bound.is_none() {
                    continue;
                }
                let verdict = judge(m, va, vb, same_seed);
                pass &= matches!(verdict, Verdict::Ok | Verdict::Info);
                let change = if va == 0.0 {
                    f64::NAN
                } else {
                    (vb - va) / va.abs() * 100.0
                };
                let bound = match m.bound {
                    Some(bound) => format!("{:.0}%", bound * 100.0),
                    None if m.is_exact() => "exact".to_string(),
                    None => "-".to_string(),
                };
                let verdict = match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Info => "",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Differs => "DIFFERS",
                };
                writeln!(
                    out,
                    "{name:<14} {:<46} {va:>16.4} {vb:>16.4} {change:>+8.2}% {bound:>7}  {verdict}",
                    format!("{} [{}]", m.name, m.unit),
                )
                .expect("write to String");
            }
        }
    }
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(unit: &str, higher_is_better: bool, bound: Option<f64>) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: unit.into(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn worsening_follows_the_direction() {
        let throughput = metric("op/s", true, Some(0.1));
        assert!((worsening(&throughput, 100.0, 85.0) - 0.15).abs() < 1e-12);
        assert!((worsening(&throughput, 100.0, 120.0) + 0.20).abs() < 1e-12);
        let latency = metric("us", false, Some(0.1));
        assert!((worsening(&latency, 100.0, 85.0) + 0.15).abs() < 1e-12);
        assert!((worsening(&latency, 100.0, 120.0) - 0.20).abs() < 1e-12);
        assert_eq!(worsening(&latency, 0.0, 1.0), f64::INFINITY);
        assert_eq!(worsening(&latency, 0.0, 0.0), 0.0);
    }

    #[test]
    fn bounds_apply_to_end_to_end_metrics_only_when_worse() {
        let throughput = metric("op/s", true, Some(0.10));
        assert_eq!(judge(&throughput, 100.0, 91.0, true), Verdict::Ok);
        assert_eq!(judge(&throughput, 100.0, 89.0, true), Verdict::Regressed);
        // Any improvement passes, however large.
        assert_eq!(judge(&throughput, 100.0, 500.0, false), Verdict::Ok);
        let latency = metric("us", false, Some(0.15));
        assert_eq!(judge(&latency, 100.0, 114.0, true), Verdict::Ok);
        assert_eq!(judge(&latency, 100.0, 116.0, true), Verdict::Regressed);
    }

    #[test]
    fn exact_counts_must_repeat_under_one_seed() {
        let count = metric("count", false, None);
        assert_eq!(judge(&count, 48.25, 48.25, true), Verdict::Ok);
        assert_eq!(judge(&count, 48.25, 48.26, true), Verdict::Differs);
        // Another seed makes other inputs: nothing to hold it to.
        assert_eq!(judge(&count, 48.25, 51.0, false), Verdict::Info);
        // Timing-based per-layer metrics are never gated.
        let time = metric("us", false, None);
        assert_eq!(judge(&time, 10.0, 30.0, true), Verdict::Info);
    }

    fn result(seed: u64, ops_per_s: f64, msgs: f64, failed: u64) -> Json {
        let value =
            |v: f64, unit: &str| Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]);
        Json::obj([
            ("schema", Json::str(crate::RESULT_SCHEMA)),
            ("seed", Json::Num(seed as f64)),
            (
                "workloads",
                Json::obj([(
                    "sim_hot",
                    Json::obj([
                        ("failed", Json::Num(failed as f64)),
                        (
                            "end_to_end",
                            Json::obj([("ops_per_s", value(ops_per_s, "op/s"))]),
                        ),
                        (
                            "per_layer",
                            Json::obj([("msgs_per_commit", value(msgs, "count"))]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn compares_whole_files() {
        let spec = Spec::load();
        let base = result(1, 1000.0, 130.5, 0);
        let (report, pass) = compare(&spec, &base, &result(1, 990.0, 130.5, 0)).unwrap();
        assert!(pass, "{report}");
        assert!(report.contains("ops_per_s") && report.contains("msgs_per_commit"));

        let (report, pass) = compare(&spec, &base, &result(1, 700.0, 130.5, 0)).unwrap();
        assert!(!pass && report.contains("REGRESSED"), "{report}");

        let (report, pass) = compare(&spec, &base, &result(1, 1000.0, 131.0, 0)).unwrap();
        assert!(!pass && report.contains("DIFFERS"), "{report}");

        // The same drift under another seed is information, not a failure.
        let (_, pass) = compare(&spec, &base, &result(2, 1000.0, 131.0, 0)).unwrap();
        assert!(pass);

        let (report, pass) = compare(&spec, &base, &result(1, 1000.0, 130.5, 2)).unwrap();
        assert!(!pass && report.contains("failed calls"), "{report}");

        assert!(compare(&spec, &Json::obj([("schema", Json::str("other"))]), &base).is_err());
    }
}
