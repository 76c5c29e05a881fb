//! Per-layer metrics that are a span's self time, per span or per count.
//!
//! A layer is a crate or a module of one; a span is one call the harness
//! makes into it. These metrics are computed the same way on every
//! workload: where a workload never calls the layer there are no spans and
//! the metric reads 0.

use crate::harness::Metrics;
use crate::spec::Spec;
use crate::trace::Summary;

/// What the layer's total self time is divided by.
enum Per {
    /// Nothing: the total.
    Total,
    /// The number of spans: mean time of one call.
    Span,
    /// A count the harness attached to the spans (transactions built,
    /// commits, lock cycles).
    Count(&'static str),
}

/// `(metric, span name, divisor)`. The metric's unit in `BENCHMARK.json`
/// sets the scale.
const SPAN_METRICS: &[(&str, &str, Per)] = &[
    ("workload.generate_s", "workload.generate", Per::Total),
    ("model.txn_build_us", "model.txn_build", Per::Count("txns")),
    (
        "model.audit_recheck_us_per_commit",
        "model.audit_recheck",
        Per::Count("committed"),
    ),
    (
        "sim.engine.run_us_per_commit",
        "sim.engine.run",
        Per::Count("committed"),
    ),
    ("sim.replay.violation_us", "sim.replay.violation", Per::Span),
    ("sim.replay.deadlock_us", "sim.replay.deadlock", Per::Span),
    (
        "dlm.table.cycle_ns.uncontended",
        "dlm.table.uncontended",
        Per::Count("cycles"),
    ),
    (
        "dlm.table.cycle_ns.queued",
        "dlm.table.queued",
        Per::Count("cycles"),
    ),
    (
        "dlm.table.cycle_ns.shared",
        "dlm.table.shared",
        Per::Count("cycles"),
    ),
    (
        "dlm.table.cycle_ns.upgrade",
        "dlm.table.upgrade",
        Per::Count("cycles"),
    ),
    (
        "dlm.table.priority_ns",
        "dlm.table.priority",
        Per::Count("cycles"),
    ),
    (
        "dlm.sharded.batch_ns_per_lock",
        "dlm.sharded.batch",
        Per::Count("locks"),
    ),
    (
        "dlm.manager.acquire_ns",
        "dlm.manager.acquire",
        Per::Count("ops"),
    ),
    (
        "dlm.manager.release_ns",
        "dlm.manager.release",
        Per::Count("ops"),
    ),
    (
        "dlm.manager.deadlock_check_us",
        "dlm.manager.deadlock_check",
        Per::Span,
    ),
    ("dlm.lease.ledger_ns", "dlm.lease.ledger", Per::Count("ops")),
    (
        "core.conflict_graph.build_us",
        "core.conflict_graph.build",
        Per::Span,
    ),
    ("graph.scc_us", "graph.scc", Per::Span),
    (
        "core.two_site.decide_us.n8",
        "core.two_site.decide.n8",
        Per::Span,
    ),
    (
        "core.two_site.decide_us.n16",
        "core.two_site.decide.n16",
        Per::Span,
    ),
    (
        "core.two_site.decide_us.n32",
        "core.two_site.decide.n32",
        Per::Span,
    ),
    (
        "core.two_site.decide_us.n64",
        "core.two_site.decide.n64",
        Per::Span,
    ),
    ("core.analyze_pair_us", "core.analyze_pair", Per::Span),
    (
        "core.closure.dominator_us",
        "core.closure.dominator",
        Per::Span,
    ),
    (
        "core.total_pair.decide_us",
        "core.total_pair.decide",
        Per::Span,
    ),
    ("geometry.plane_build_us", "geometry.plane_build", Per::Span),
    ("geometry.plane_safe_us", "geometry.plane_safe", Per::Span),
    (
        "core.avoid.synthesize_us_per_txn",
        "core.avoid.synthesize",
        Per::Count("txns"),
    ),
    ("core.avoid.verify_us", "core.avoid.verify", Per::Span),
    (
        "core.sat_check.safety_us",
        "core.sat_check.safety",
        Per::Span,
    ),
    (
        "core.sat_check.deadlock_us",
        "core.sat_check.deadlock",
        Per::Span,
    ),
    (
        "core.reduction.reduce_us",
        "core.reduction.reduce",
        Per::Span,
    ),
    (
        "core.multisite.decide_us.v4c3",
        "core.multisite.decide.v4c3",
        Per::Span,
    ),
    (
        "core.multisite.decide_us.v5c4",
        "core.multisite.decide.v5c4",
        Per::Span,
    ),
    (
        "core.multisite.decide_us.v6c5",
        "core.multisite.decide.v6c5",
        Per::Span,
    ),
    (
        "core.synthesize_optimal_us",
        "core.synthesize_optimal",
        Per::Span,
    ),
    ("sat.solve_us", "sat.solve", Per::Span),
];

/// Fills in every span-derived metric whose layer the traced run called.
pub fn span_metrics(summary: &Summary, out: &mut Metrics) {
    let spec = Spec::load();
    for (metric, span, per) in SPAN_METRICS {
        let totals = summary.get(span);
        let divisor = match per {
            Per::Total => 1,
            Per::Span => totals.spans,
            Per::Count(key) => summary.count(span, key),
        };
        if totals.spans == 0 || divisor == 0 {
            continue;
        }
        let unit = &spec.metric(metric).expect("listed in BENCHMARK.json").unit;
        let per_ns = match unit.as_str() {
            "ns" => 1.0,
            "us" => 1e-3,
            "s" => 1e-9,
            other => panic!("{metric}: span metrics are times, not {other}"),
        };
        out.insert(
            metric.to_string(),
            totals.self_ns as f64 * per_ns / divisor as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Span;

    #[test]
    fn every_span_metric_is_a_listed_time() {
        let spec = Spec::load();
        for (metric, _, _) in SPAN_METRICS {
            let m = spec
                .metric(metric)
                .unwrap_or_else(|| panic!("{metric} is not listed"));
            assert!(["ns", "us", "s"].contains(&m.unit.as_str()), "{metric}");
        }
    }

    #[test]
    fn divides_self_time_by_spans_or_by_an_attached_count() {
        let span = |name, parent, start_ns, end_ns, counts: &[(&'static str, u64)]| Span {
            name,
            call_id: 1,
            parent,
            start_ns,
            end_ns,
            counts: counts.to_vec(),
        };
        let summary = Summary::of(&[
            span("model.txn_build", None, 0, 100, &[("txns", 3)]),
            span("graph.scc", Some(0), 10, 40, &[]),
            span("model.txn_build", None, 100, 300, &[("txns", 5)]),
        ]);
        let mut out = Metrics::new();
        span_metrics(&summary, &mut out);
        // Self time (70 + 200) ns over 8 transactions, in microseconds.
        assert_eq!(out["model.txn_build_us"], 270.0 * 1e-3 / 8.0);
        assert_eq!(out["graph.scc_us"], 30.0 * 1e-3);
        // Layers the run never called are left out (and print as 0).
        assert!(!out.contains_key("sat.solve_us"));
    }
}
