//! The avoidance scenario family: certified-fraction sweeps.
//!
//! The avoidance arm ([`DeadlockResolution::Avoid`]) is only interesting
//! at its *boundary*: a fully certified set exhibits the Theorem-level
//! guarantee (no deadlock machinery runs at all), an empty certificate
//! must degenerate to plain wound-wait, and everything in between splits
//! the declared set into controller-governed and fallback-metered halves.
//! [`certified_mix`] builds systems whose certifiable prefix is known by
//! construction, and [`avoid_mix_sweep`] turns a list of certified counts
//! into ready-to-run [`AvoidScenario`]s whose plans hit each count
//! *exactly* (via [`AvoidPlan::synthesize_restricted`], so a fallback
//! transaction that happens to be certifiable alone is still excluded).
//! `tests/sim_regression.rs` (the §11 pins) and the conformance suite
//! iterate this family.

use kplock_model::{Database, TxnBuilder, TxnId, TxnSystem};
use kplock_sim::{AvoidPlan, DeadlockResolution, SimConfig};

/// One point of the certified-fraction sweep: a system whose first
/// `certified` transactions follow the global ascending lock order and a
/// plan certifying exactly that prefix.
#[derive(Clone, Debug)]
pub struct AvoidScenario {
    /// Human-readable tag, e.g. `certified=2/4`.
    pub name: String,
    /// How many transactions the plan certifies (the prefix length).
    pub certified: usize,
    /// The generated, locked transaction system.
    pub system: TxnSystem,
    /// The synthesized plan, certified set pinned to the prefix.
    pub plan: AvoidPlan,
}

impl AvoidScenario {
    /// A [`SimConfig`] running this scenario under the avoidance arm at
    /// the given fixed latency (everything else left at the defaults for
    /// the caller to override via struct update).
    pub fn config(&self, latency: u64) -> SimConfig {
        SimConfig {
            latency: kplock_sim::LatencyModel::Fixed(latency),
            resolution: DeadlockResolution::Avoid,
            avoid: Some(self.plan.clone()),
            ..Default::default()
        }
    }
}

/// A deterministic system with a known certifiable prefix: the first
/// `certified` transactions lock all `entities` entities in ascending
/// name order (mutually consistent — any subset of them certifies
/// together), and the remaining `fallback` transactions use *rotated*
/// lock orders whose wrap-around hold-while-request edge contradicts the
/// ascending order (so adding any of them to a non-empty ascending
/// certificate closes a cycle). All transactions are synchronized 2PL
/// over the same entity set, placed round-robin over `sites` sites —
/// deadlock-prone between prefix and rotated tail, serializable on
/// commit, RNG-free.
pub fn certified_mix(
    entities: usize,
    certified: usize,
    fallback: usize,
    sites: usize,
) -> TxnSystem {
    assert!(
        entities >= 2,
        "need two entities for a lock order to matter"
    );
    assert!(
        sites > 0 && sites <= entities,
        "site count {sites} needs at least one entity each (have {entities})"
    );
    assert!(certified + fallback >= 1, "need at least one transaction");
    let names: Vec<String> = (0..entities).map(|i| format!("e{i}")).collect();
    let spec: Vec<(&str, usize)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i % sites))
        .collect();
    let db = Database::from_spec(&spec);
    let build = |tag: String, order: &[usize]| {
        let ordered: Vec<&str> = order.iter().map(|&i| names[i].as_str()).collect();
        // Synchronized 2PL: all locks (given order), all updates, all
        // unlocks — totally ordered.
        let script: Vec<String> = ordered
            .iter()
            .map(|e| format!("L{e}"))
            .chain(ordered.iter().map(|e| e.to_string()))
            .chain(ordered.iter().map(|e| format!("U{e}")))
            .collect();
        let mut b = TxnBuilder::new(&db, tag);
        b.script(&script.join(" ")).expect("generated names");
        b.build().expect("totally ordered scripts are acyclic")
    };
    let ascending: Vec<usize> = (0..entities).collect();
    let mut txns = Vec::with_capacity(certified + fallback);
    for t in 0..certified {
        txns.push(build(format!("C{}", t + 1), &ascending));
    }
    for t in 0..fallback {
        // Never offset 0: a rotation by 0 would be ascending and hence
        // consistent with the prefix instead of conflicting with it.
        let offset = t % (entities - 1) + 1;
        let rotated: Vec<usize> = (0..entities).map(|i| (i + offset) % entities).collect();
        txns.push(build(format!("F{}", t + 1), &rotated));
    }
    TxnSystem::new(db, txns)
}

/// The greedy-conservatism family: one ascending transaction declared
/// *first*, then `descending` transactions all using the same descending
/// lock order. Declaration-order greedy synthesis
/// ([`AvoidPlan::synthesize`]) admits the ascending transaction and then
/// rejects every descender (each closes a cycle with it), certifying
/// exactly 1; the optimum drops the lone ascender and certifies all
/// `descending` mutually-consistent transactions.
/// `kplock_core::sat_check::synthesize_optimal` finds that optimum, and
/// the exact-decision gate in `tests/sat_check.rs` holds the gap strict on
/// this family.
///
/// Two entities on `sites` sites (1 or 2), synchronized-2PL scripts,
/// RNG-free; safe but deadlock-prone (opposed lock orders), like the
/// rotated tail of [`certified_mix`].
pub fn opposed_mix(descending: usize, sites: usize) -> TxnSystem {
    assert!(descending >= 1, "need at least one descending transaction");
    assert!(
        sites == 1 || sites == 2,
        "two entities spread over at most two sites"
    );
    let db = Database::from_spec(&[("x", 0), ("y", sites - 1)]);
    let build = |tag: String, order: [&str; 2]| {
        let script = format!("L{a} L{b} {a} {b} U{a} U{b}", a = order[0], b = order[1]);
        let mut b = TxnBuilder::new(&db, tag);
        b.script(&script).expect("fixed names");
        b.build().expect("totally ordered script")
    };
    let mut txns = vec![build("A".into(), ["x", "y"])];
    for t in 0..descending {
        txns.push(build(format!("D{}", t + 1), ["y", "x"]));
    }
    TxnSystem::new(db, txns)
}

/// Sweeps the certified fraction on a fixed offered load: for each entry
/// of `certified_counts`, a [`certified_mix`] system with that many
/// ascending transactions (and `txns - count` rotated ones) plus a plan
/// certifying **exactly** the ascending prefix —
/// [`AvoidPlan::synthesize_restricted`] with the prefix as the candidate
/// set, so `certified = 0` yields the genuinely empty certificate the
/// wound-wait-equivalence tests pin against (greedy synthesis would
/// certify a lone rotated transaction, whose solo lock order is still
/// total).
///
/// Deterministic by construction. Each count must be ≤ `txns`.
pub fn avoid_mix_sweep(
    entities: usize,
    txns: usize,
    sites: usize,
    certified_counts: &[usize],
) -> Vec<AvoidScenario> {
    certified_counts
        .iter()
        .map(|&count| {
            assert!(
                count <= txns,
                "cannot certify {count} of {txns} transactions"
            );
            let system = certified_mix(entities, count, txns - count, sites);
            let prefix: Vec<TxnId> = (0..count).map(TxnId::from_idx).collect();
            let plan = AvoidPlan::synthesize_restricted(&system, &prefix);
            debug_assert_eq!(plan.certified_count(), count);
            AvoidScenario {
                name: format!("certified={count}/{txns}"),
                certified: count,
                system,
                plan,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_model::Level;
    use kplock_sim::{run, PreventionScheme, RunOutcome};

    #[test]
    fn mix_shape_and_determinism() {
        let s = certified_mix(6, 2, 3, 3);
        s.validate(Level::Strict).unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(s.db().entity_count(), 6);
        assert_eq!(s.db().site_count(), 3);
        for t in s.txns() {
            assert_eq!(t.locked_entities().len(), 6);
        }
        let again = certified_mix(6, 2, 3, 3);
        for (a, b) in s.txns().iter().zip(again.txns()) {
            assert_eq!(a.steps(), b.steps());
        }
    }

    #[test]
    fn opposed_mix_greedy_gap_is_by_construction() {
        for k in 1..=4 {
            let sys = opposed_mix(k, 2);
            sys.validate(Level::Strict).unwrap();
            assert_eq!(sys.len(), k + 1);
            // Greedy keeps only the first-declared ascender...
            let greedy = AvoidPlan::synthesize(&sys);
            assert_eq!(greedy.certified_count(), 1);
            // ...while the descenders are mutually consistent.
            let descenders: Vec<TxnId> = (1..=k).map(TxnId::from_idx).collect();
            let all = AvoidPlan::synthesize_restricted(&sys, &descenders);
            assert_eq!(all.certified_count(), k);
            all.verify(&sys).unwrap();
        }
    }

    #[test]
    fn sweep_pins_the_certified_count_exactly() {
        let sweep = avoid_mix_sweep(4, 4, 2, &[0, 2, 4]);
        assert_eq!(sweep.len(), 3);
        for (sc, &want) in sweep.iter().zip(&[0usize, 2, 4]) {
            assert_eq!(sc.certified, want);
            assert_eq!(sc.name, format!("certified={want}/4"));
            assert_eq!(sc.plan.certified_count(), want);
            assert_eq!(sc.plan.txn_count(), 4);
            sc.plan.verify(&sc.system).unwrap();
            // The certificate is the declared prefix, nothing else.
            let ids: Vec<usize> = sc.plan.certified().iter().map(|t| t.idx()).collect();
            assert_eq!(ids, (0..want).collect::<Vec<_>>());
            sc.system.validate(Level::Strict).unwrap();
        }
        // Restricted synthesis is the point: greedy would certify a lone
        // rotated transaction (its solo order is still total), so the
        // empty-certificate rung only exists through the restriction.
        let zero = &sweep[0];
        assert!(AvoidPlan::synthesize(&zero.system).certified_count() > 0);
        assert_eq!(zero.plan.certified_count(), 0);
    }

    #[test]
    fn fully_certified_rung_runs_clean_of_deadlock_machinery() {
        for sc in avoid_mix_sweep(4, 3, 2, &[3]) {
            let cfg = sc.config(5);
            cfg.validate().unwrap();
            let r = run(&sc.system, &cfg).unwrap();
            assert_eq!(r.outcome, RunOutcome::Completed, "{}", sc.name);
            assert_eq!(r.metrics.deadlocks_resolved, 0);
            assert_eq!(r.metrics.prevention_restarts, 0);
            assert_eq!(r.metrics.aborts, 0);
            assert_eq!(r.metrics.probe_messages, 0);
            assert_eq!(r.metrics.avoid_certified, 3);
            assert_eq!(r.metrics.avoid_fallbacks, 0);
            assert!(r.audit.serializable);
        }
    }

    #[test]
    fn mixed_rungs_never_deadlock_and_meter_the_fallback() {
        for sc in avoid_mix_sweep(4, 4, 2, &[0, 2]) {
            let cfg = sc.config(5);
            let r = run(&sc.system, &cfg).unwrap();
            assert_eq!(r.outcome, RunOutcome::Completed, "{}", sc.name);
            assert_eq!(r.metrics.deadlocks_resolved, 0, "{}", sc.name);
            assert_eq!(r.metrics.avoid_certified, sc.certified);
            assert_eq!(r.metrics.avoid_fallbacks, 4 - sc.certified);
            // Every abort is a wound-wait fallback restart, never a
            // detected cycle.
            assert_eq!(r.metrics.aborts, r.metrics.prevention_restarts);
            assert!(r.audit.serializable, "{}", sc.name);
        }
    }

    #[test]
    fn fallback_only_mix_is_wound_wait_shaped() {
        // The certified=0 rung against plain wound-wait on the same
        // system: the avoidance arm with an empty certificate must do the
        // same work (the full field-equivalence pin lives in the sim's
        // conformance tests; this guards the workload-side contract).
        let sc = &avoid_mix_sweep(4, 3, 2, &[0])[0];
        let avoid = run(&sc.system, &sc.config(5)).unwrap();
        let ww = run(
            &sc.system,
            &SimConfig {
                latency: kplock_sim::LatencyModel::Fixed(5),
                resolution: PreventionScheme::WoundWait.into(),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(avoid.outcome, ww.outcome);
        assert_eq!(avoid.metrics.aborts, ww.metrics.aborts);
        assert_eq!(
            avoid.metrics.prevention_restarts,
            ww.metrics.prevention_restarts
        );
        assert_eq!(avoid.metrics.makespan, ww.metrics.makespan);
    }
}
