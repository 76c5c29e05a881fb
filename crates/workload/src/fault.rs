//! The fault-sweep scenario family: fault rates × resolution schemes.
//!
//! The paper's claim is that distribution makes locking harder because
//! sites act on partial, delayed knowledge; an unreliable network and
//! mortal sites are that claim at full strength. [`fault_sweep`] crosses
//! a deterministic deadlock-prone system (the [`crate::resolution_sweep`]
//! rotated-lock-order shape) with a ladder of [`FaultPlan`]s — clean,
//! loss-only, duplication-only, loss+dup+reorder, and a crash plan — and
//! a chosen set of [`DeadlockResolution`] arms, producing one ready-to-run
//! scenario per (plan, arm) pair.

use crate::scenarios::resolution_sweep;
use kplock_model::TxnSystem;
use kplock_sim::{
    AvoidPlan, DeadlockDetection, DeadlockResolution, FaultPlan, PreventionScheme, SimConfig,
    SiteCrash,
};

/// One point of the fault sweep: a system, a fault plan, and a resolution
/// arm, ready to run.
#[derive(Clone, Debug)]
pub struct FaultScenario {
    /// Human-readable tag, e.g. `loss=0.10/probe` or `crash/wound-wait`.
    pub name: String,
    /// The fault plan's tag alone (`clean`, `loss=0.10`, `dup=0.20`,
    /// `mixed=0.10`, `crash`).
    pub plan_name: String,
    /// The resolution arm's tag alone (`probe`, `wound-wait`, …).
    pub resolution_name: String,
    /// The generated, locked transaction system.
    pub system: TxnSystem,
    /// The fault plan to run under.
    pub faults: FaultPlan,
    /// The resolution arm to run under.
    pub resolution: DeadlockResolution,
}

impl FaultScenario {
    /// A [`SimConfig`] running this scenario at the given fixed latency
    /// (seed and everything else left at the defaults for the caller to
    /// override via struct update).
    pub fn config(&self, latency: u64) -> SimConfig {
        SimConfig {
            latency: kplock_sim::LatencyModel::Fixed(latency),
            resolution: self.resolution,
            // The avoidance arm needs its certificate; synthesize it from
            // the scenario's own system so the config always validates.
            avoid: (self.resolution == DeadlockResolution::Avoid)
                .then(|| AvoidPlan::synthesize(&self.system)),
            faults: self.faults.clone(),
            ..Default::default()
        }
    }
}

/// The canonical fault-plan ladder swept by [`fault_sweep`] and
/// `tests/sim_regression.rs`: clean, loss-only at each of `loss_rates`,
/// duplication-only at `dup_rate`, a mixed plan (loss + dup + reorder at
/// the first loss rate), and a two-outage crash plan. Retransmission is
/// on for every faulty plan (lossy channels strand work without it) and
/// crash leases are generous enough that short outages keep their
/// holders.
pub fn fault_plan_ladder(seed: u64, loss_rates: &[f64], dup_rate: f64) -> Vec<(String, FaultPlan)> {
    let mut plans = vec![("clean".to_string(), FaultPlan::none())];
    for &loss in loss_rates {
        plans.push((
            format!("loss={loss:.2}"),
            FaultPlan::lossy(seed, loss, 0.0, 0.0),
        ));
    }
    plans.push((
        format!("dup={dup_rate:.2}"),
        FaultPlan {
            duplication: dup_rate,
            reorder_window: 8,
            ..FaultPlan::none()
        },
    ));
    if let Some(&loss) = loss_rates.first() {
        plans.push((
            format!("mixed={loss:.2}"),
            FaultPlan::lossy(seed, loss, dup_rate, dup_rate),
        ));
    }
    plans.push((
        "crash".to_string(),
        FaultPlan {
            retransmit_after: 120,
            lease_ttl: 200,
            crashes: vec![
                SiteCrash {
                    site: 0,
                    at: 80,
                    down_for: 60,
                },
                SiteCrash {
                    site: 1,
                    at: 400,
                    down_for: 350,
                },
            ],
            ..FaultPlan::none()
        },
    ));
    plans
}

/// The resolution arms the fault axis is most interesting against: the
/// fully distributed detector (probes must survive the same faulty
/// channels as the data) and the restart-paying preventer.
pub const FAULT_ARMS: [(DeadlockResolution, &str); 2] = [
    (
        DeadlockResolution::Detect(DeadlockDetection::Probe),
        "probe",
    ),
    (
        DeadlockResolution::Prevent(PreventionScheme::WoundWait),
        "wound-wait",
    ),
];

/// [`FAULT_ARMS`] plus the avoidance arm: the rotated-lock-order system
/// is mostly uncertifiable (every pair conflicts in both orders), so this
/// arm exercises the certificate *boundary* under faults — certified
/// transactions must stay deadlock-free while the fallback majority is
/// wounded across lossy channels. Used by the conformance suite;
/// [`FAULT_ARMS`] keeps its original pair so existing sweep shapes are
/// unchanged.
pub const FAULT_ARMS_WITH_AVOID: [(DeadlockResolution, &str); 3] = [
    (
        DeadlockResolution::Detect(DeadlockDetection::Probe),
        "probe",
    ),
    (
        DeadlockResolution::Prevent(PreventionScheme::WoundWait),
        "wound-wait",
    ),
    (DeadlockResolution::Avoid, "avoid"),
];

/// Crosses the [`fault_plan_ladder`] with resolution arms on one
/// deterministic rotated-lock-order system (`entities` entities over
/// `sites` sites, `txns` synchronized-2PL transactions — deadlock-prone
/// by construction, serializable on commit). Pass [`FAULT_ARMS`] for the
/// canonical pair, or any slice of `(resolution, tag)` arms. The crash
/// rung's site indices are remapped into `0..sites`, so the sweep is
/// runnable at any site count (including a single site).
///
/// Deterministic: the system is RNG-free and every plan is seeded.
pub fn fault_sweep(
    entities: usize,
    txns: usize,
    sites: usize,
    loss_rates: &[f64],
    arms: &[(DeadlockResolution, &str)],
) -> Vec<FaultScenario> {
    let base = resolution_sweep(entities, txns, &[sites])
        .pop()
        .expect("one site count, one scenario");
    let mut out = Vec::new();
    for (plan_name, mut faults) in fault_plan_ladder(97, loss_rates, 0.20) {
        for c in &mut faults.crashes {
            c.site %= sites;
        }
        for &(resolution, arm) in arms {
            out.push(FaultScenario {
                name: format!("{plan_name}/{arm}"),
                plan_name: plan_name.clone(),
                resolution_name: arm.to_string(),
                system: base.system.clone(),
                faults: faults.clone(),
                resolution,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_model::Level;
    use kplock_sim::{run, RunOutcome};

    #[test]
    fn ladder_shape_and_determinism() {
        let plans = fault_plan_ladder(7, &[0.1, 0.2], 0.25);
        let names: Vec<&str> = plans.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "clean",
                "loss=0.10",
                "loss=0.20",
                "dup=0.25",
                "mixed=0.10",
                "crash"
            ]
        );
        assert!(!plans[0].1.any(), "the clean rung injects nothing");
        for (name, p) in &plans[1..] {
            assert!(p.any(), "{name} must inject something");
            p.validate().unwrap();
        }
        assert_eq!(plans, fault_plan_ladder(7, &[0.1, 0.2], 0.25));
    }

    #[test]
    fn single_site_sweep_remaps_crashes_and_runs() {
        // The ladder's crash rung names site 1; at one site it must fold
        // onto site 0 and still validate (the ladder's outages do not
        // overlap in time) and run.
        for sc in fault_sweep(4, 3, 1, &[0.1], &FAULT_ARMS) {
            let cfg = SimConfig {
                max_time: 400_000,
                ..sc.config(5)
            };
            cfg.validate().unwrap();
            assert!(sc.faults.crashes.iter().all(|c| c.site == 0));
            let r = run(&sc.system, &cfg).unwrap();
            assert_ne!(r.outcome, RunOutcome::Stalled, "{}", sc.name);
        }
    }

    #[test]
    fn sweep_crosses_plans_with_arms() {
        let sweep = fault_sweep(4, 3, 2, &[0.1], &FAULT_ARMS);
        // 4 plans (clean, loss, dup, mixed) + crash = 5, × 2 arms.
        assert_eq!(sweep.len(), 10);
        for sc in &sweep {
            sc.system.validate(Level::Strict).unwrap();
            assert_eq!(sc.system.db().site_count(), 2);
            assert_eq!(sc.name, format!("{}/{}", sc.plan_name, sc.resolution_name));
            let cfg = sc.config(5);
            cfg.validate().unwrap();
            assert_eq!(cfg.resolution, sc.resolution);
        }
    }

    #[test]
    fn avoid_arm_sweeps_with_a_synthesized_certificate() {
        let sweep = fault_sweep(4, 3, 2, &[0.1], &FAULT_ARMS_WITH_AVOID);
        // 5 plans × 3 arms.
        assert_eq!(sweep.len(), 15);
        let avoid: Vec<_> = sweep
            .iter()
            .filter(|sc| sc.resolution == DeadlockResolution::Avoid)
            .collect();
        assert_eq!(avoid.len(), 5);
        for sc in avoid {
            // config() must synthesize the plan, or Avoid would be
            // rejected by validation before it could run.
            let cfg = SimConfig {
                max_time: 400_000,
                ..sc.config(5)
            };
            cfg.validate().unwrap();
            let plan = cfg.avoid.as_ref().unwrap();
            assert_eq!(plan.txn_count(), sc.system.len());
            // Rotated lock orders conflict pairwise in both directions:
            // only the first transaction admitted can be certified.
            assert_eq!(plan.certified_count(), 1, "{}", sc.name);
            let r = run(&sc.system, &cfg).unwrap();
            assert_ne!(r.outcome, RunOutcome::Stalled, "{}", sc.name);
            assert_eq!(r.metrics.deadlocks_resolved, 0, "{}", sc.name);
        }
    }

    #[test]
    fn every_scenario_runs_to_a_sane_outcome() {
        // Small instance of the whole family under both arms: faulty runs
        // must never stall silently (retransmission keeps the queue
        // alive), clean and crash rungs must complete, and completed runs
        // must audit serializable.
        for sc in fault_sweep(4, 3, 2, &[0.15], &FAULT_ARMS) {
            let cfg = SimConfig {
                invariant_audit: true,
                max_time: 400_000,
                ..sc.config(5)
            };
            let r = run(&sc.system, &cfg).unwrap();
            assert_ne!(r.outcome, RunOutcome::Stalled, "{}", sc.name);
            if r.outcome == RunOutcome::Completed {
                assert_eq!(r.metrics.committed, sc.system.len(), "{}", sc.name);
                assert!(r.audit.serializable, "{}", sc.name);
            }
            if sc.plan_name == "clean" || sc.plan_name == "crash" {
                assert_eq!(r.outcome, RunOutcome::Completed, "{}", sc.name);
            }
            if sc.plan_name == "crash" {
                // At least the first outage lands mid-run; a fast arm can
                // commit everything before the second one fires.
                assert!(r.metrics.recoveries >= 1, "{}", sc.name);
            }
        }
    }

    #[test]
    fn avoid_arm_completes_the_clean_and_crash_rungs() {
        // The completion half of the test above for the third arm, on the
        // six-entity, four-transaction, three-site system of table D3.
        for sc in fault_sweep(6, 4, 3, &[], &[(DeadlockResolution::Avoid, "avoid")]) {
            if sc.plan_name != "clean" && sc.plan_name != "crash" {
                continue;
            }
            let cfg = SimConfig {
                invariant_audit: true,
                max_time: 500_000,
                ..sc.config(5)
            };
            let r = run(&sc.system, &cfg).unwrap();
            assert_eq!(r.outcome, RunOutcome::Completed, "{}", sc.name);
            assert!(r.audit.serializable, "{}", sc.name);
        }
    }
}
