//! The eight named workloads. Each is built from `--seed` alone; input `i`
//! of a run uses seed `seed · 1000 + i`.

use crate::harness::{Scale, Workload};
use crate::trace::Tracer;
use kplock_model::{StepId, Transaction, TxnSystem};
use std::hint::black_box;

mod analysis;
mod dlm;
mod sim;

/// Builds the workload called `name`, recording set-up spans in `tr`.
pub fn build(
    name: &str,
    seed: u64,
    scale: Scale,
    tr: &mut Tracer,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sim_hot" => Box::new(sim::hot(seed, scale, tr)),
        "sim_open" => Box::new(sim::open(seed, scale, tr)),
        "sim_scan" => Box::new(sim::scan(seed, scale, tr)),
        "sim_deleg" => Box::new(sim::deleg(seed, scale, tr)),
        "sim_audit" => Box::new(sim::audit(seed, scale, tr)),
        "analysis_poly" => Box::new(analysis::poly(seed, scale, tr)),
        "analysis_sat" => Box::new(analysis::sat(seed, scale, tr)),
        "dlm_ops" => Box::new(dlm::ops(seed, scale)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Seed of input `i` of a run seeded `seed`.
fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i as u64)
}

/// Generates inputs under a `workload.generate` span.
fn generate<T>(tr: &mut Tracer, f: impl FnOnce() -> T) -> T {
    tr.span("workload.generate", |_| f()).0
}

/// `kplock-model`'s share of set-up, measured on its own in a traced run:
/// rebuilds every transaction from its steps and precedence edges, which
/// redoes the acyclicity check and the transitive closure.
fn probe_txn_build<'a>(tr: &mut Tracer, systems: impl IntoIterator<Item = &'a TxnSystem>) {
    if !tr.on() {
        return;
    }
    for sys in systems {
        tr.span("model.txn_build", |_| {
            for t in sys.txns() {
                let edges = t
                    .edge_graph()
                    .edges()
                    .map(|(a, b)| (StepId::from_idx(a), StepId::from_idx(b)));
                black_box(Transaction::new(t.name(), t.steps().to_vec(), edges))
                    .expect("rebuilding a valid transaction");
            }
        });
        tr.annotate(&[("txns", sys.len() as u64)]);
    }
}

/// `part / whole`, or 0 when there is no whole.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}
