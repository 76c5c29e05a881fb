//! Multi-site scenario generators for the detection- and
//! resolution-scheme pins (`tests/sim_regression.rs`) and suites.
//!
//! Distributed deadlock detection only shows its cost when cycles span
//! sites; these generators sweep the two axes that control that:
//!
//! * [`site_count_sweep`] — the same offered load spread over 1, 2, 4, …
//!   sites, so detection traffic can be read as a function of how
//!   *distributed* the system is (the paper's title question, measured);
//! * [`hot_site_sweep`] — a fixed topology with an increasingly skewed
//!   access pattern toward one hot site, the adversarial case where a
//!   central scan sees everything cheaply but probe chases all funnel
//!   through one table;
//! * [`resolution_sweep`] — rotated-lock-order systems (the canonical
//!   deadlock-prone-but-safe shape) across site counts, built for the
//!   detection-vs-prevention axis: under detection they exercise cycles
//!   and probe chases, under prevention the same conflicts become wounds
//!   and deaths, so restart-vs-message trade-offs read off directly.
//!
//! Every scenario is seeded and deterministic, sized for simulator runs
//! (not statistical benchmarks), and locked with synchronized 2PL so
//! deadlocks are guaranteed resolvable and commits audit serializable.

use crate::txn_gen::{random_system, WorkloadParams};
use kplock_model::{Database, TxnBuilder, TxnSystem};

/// One generated scenario, tagged with the swept parameter value.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable tag, e.g. `sites=4` or `hot=80`.
    pub name: String,
    /// The swept value (site count or hot-site percentage).
    pub value: usize,
    /// The generated, locked transaction system.
    pub system: TxnSystem,
}

/// Sweeps the site count while holding the total entity count and the
/// per-transaction work fixed: `entities_total` is distributed evenly, so
/// more sites means the *same* data spread thinner — contention per
/// entity is constant and only the distribution cost varies.
///
/// `site_counts` entries must divide `entities_total`.
pub fn site_count_sweep(
    base: &WorkloadParams,
    entities_total: usize,
    site_counts: &[usize],
) -> Vec<Scenario> {
    site_counts
        .iter()
        .map(|&sites| {
            assert!(
                sites > 0 && entities_total.is_multiple_of(sites),
                "site count {sites} must divide {entities_total} entities"
            );
            let p = WorkloadParams {
                sites,
                entities_per_site: entities_total / sites,
                ..base.clone()
            };
            Scenario {
                name: format!("sites={sites}"),
                value: sites,
                system: random_system(&p),
            }
        })
        .collect()
}

/// Sweeps access skew toward site 0 on a fixed topology:
/// `hot_percents` are [`WorkloadParams::hot_site_percent`] values
/// (0 = uniform, 100 = every access hits the hot site).
pub fn hot_site_sweep(base: &WorkloadParams, hot_percents: &[u32]) -> Vec<Scenario> {
    hot_percents
        .iter()
        .map(|&hot| {
            assert!(hot <= 100, "hot_site_percent is a percentage");
            let p = WorkloadParams {
                hot_site_percent: hot,
                ..base.clone()
            };
            Scenario {
                name: format!("hot={hot}"),
                value: hot as usize,
                system: random_system(&p),
            }
        })
        .collect()
}

/// Sweeps Zipfian skew over the entities *within* each site on a fixed
/// topology: `thetas` are [`WorkloadParams::zipf_theta`] exponents
/// (0 = uniform; θ ≥ 0.9 concentrates most accesses on each site's
/// first few entities — the skewed regime where delegated lock
/// ownership is measured). [`Scenario::value`] carries `θ × 100`.
pub fn zipf_sweep(base: &WorkloadParams, thetas: &[f64]) -> Vec<Scenario> {
    thetas
        .iter()
        .map(|&theta| {
            assert!(theta >= 0.0, "zipf_theta is a non-negative exponent");
            let p = WorkloadParams {
                zipf_theta: theta,
                ..base.clone()
            };
            Scenario {
                name: format!("zipf={theta}"),
                value: (theta * 100.0) as usize,
                system: random_system(&p),
            }
        })
        .collect()
}

/// Sweeps site count on a fixed *rotated-lock-order* contention structure:
/// `txns` synchronized-2PL transactions each lock the same `entities`
/// entities, transaction `t` starting its lock order at entity `t` — every
/// pair conflicts in both orders, so wait-for cycles (under detection) and
/// timestamp inversions (under prevention) are guaranteed wherever timing
/// allows. Entities are placed round-robin over `sites` sites, so across
/// the sweep the *conflict structure is identical* and only its
/// distribution varies: any change in restarts, messages or makespan is
/// pure distribution cost — the right instrument for comparing the
/// simulator's `DeadlockResolution` arms (`kplock-sim` is a dev-dependency
/// here, so no intra-doc link).
///
/// Deterministic by construction (no RNG anywhere). Each `site_counts`
/// entry must be between 1 and `entities`.
pub fn resolution_sweep(entities: usize, txns: usize, site_counts: &[usize]) -> Vec<Scenario> {
    assert!(entities >= 2 && txns >= 2, "need a conflict to sweep");
    site_counts
        .iter()
        .map(|&sites| {
            assert!(
                sites > 0 && sites <= entities,
                "site count {sites} needs at least one entity each (have {entities})"
            );
            let names: Vec<String> = (0..entities).map(|i| format!("e{i}")).collect();
            let spec: Vec<(&str, usize)> = names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.as_str(), i % sites))
                .collect();
            let db = Database::from_spec(&spec);
            let built = (0..txns)
                .map(|t| {
                    let order: Vec<&str> = (0..entities)
                        .map(|i| names[(i + t) % entities].as_str())
                        .collect();
                    // Synchronized 2PL: all locks (rotated order), all
                    // updates, all unlocks — totally ordered.
                    let script: Vec<String> = order
                        .iter()
                        .map(|e| format!("L{e}"))
                        .chain(order.iter().map(|e| e.to_string()))
                        .chain(order.iter().map(|e| format!("U{e}")))
                        .collect();
                    let mut b = TxnBuilder::new(&db, format!("T{}", t + 1));
                    b.script(&script.join(" ")).expect("generated names");
                    b.build().expect("totally ordered scripts are acyclic")
                })
                .collect();
            Scenario {
                name: format!("sites={sites}"),
                value: sites,
                system: TxnSystem::new(db, built),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_core::policy::LockStrategy;
    use kplock_model::Level;

    fn base() -> WorkloadParams {
        WorkloadParams {
            seed: 11,
            transactions: 4,
            steps_per_txn: 6,
            strategy: LockStrategy::TwoPhaseSync,
            ..Default::default()
        }
    }

    #[test]
    fn site_sweep_holds_data_constant() {
        let sweep = site_count_sweep(&base(), 12, &[1, 2, 4, 6]);
        assert_eq!(sweep.len(), 4);
        for sc in &sweep {
            sc.system.validate(Level::Strict).unwrap();
            assert_eq!(sc.system.db().entity_count(), 12);
            assert_eq!(sc.system.db().site_count(), sc.value);
            assert_eq!(sc.name, format!("sites={}", sc.value));
        }
        // Deterministic.
        let again = site_count_sweep(&base(), 12, &[1, 2, 4, 6]);
        for (a, b) in sweep.iter().zip(&again) {
            for (ta, tb) in a.system.txns().iter().zip(b.system.txns()) {
                assert_eq!(ta.steps(), tb.steps());
            }
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn site_sweep_rejects_uneven_splits() {
        site_count_sweep(&base(), 10, &[3]);
    }

    #[test]
    fn hot_sweep_concentrates_accesses() {
        let p = WorkloadParams {
            sites: 4,
            entities_per_site: 3,
            transactions: 6,
            steps_per_txn: 8,
            ..base()
        };
        let sweep = hot_site_sweep(&p, &[0, 50, 100]);
        let hot_share = |sc: &Scenario| -> f64 {
            let db = sc.system.db();
            let accesses: Vec<_> = sc
                .system
                .txns()
                .iter()
                .flat_map(|t| t.steps())
                .filter(|s| s.kind == kplock_model::ActionKind::Update)
                .map(|s| db.site_of(s.entity).idx())
                .collect();
            let hot = accesses.iter().filter(|&&s| s == 0).count();
            hot as f64 / accesses.len() as f64
        };
        let shares: Vec<f64> = sweep.iter().map(hot_share).collect();
        assert!(shares[0] < shares[1] && shares[1] < shares[2], "{shares:?}");
        assert_eq!(shares[2], 1.0, "hot=100 puts every access on site 0");
        for sc in &sweep {
            sc.system.validate(Level::Strict).unwrap();
        }
    }

    #[test]
    fn zipf_sweep_concentrates_accesses_on_low_indices() {
        let p = WorkloadParams {
            sites: 2,
            entities_per_site: 6,
            transactions: 8,
            steps_per_txn: 8,
            ..base()
        };
        let sweep = zipf_sweep(&p, &[0.0, 0.9]);
        assert_eq!(sweep[0].value, 0);
        assert_eq!(sweep[1].value, 90);
        assert_eq!(sweep[1].name, "zipf=0.9");
        let low_share = |sc: &Scenario| -> f64 {
            // Share of accesses on each site's first entity (global
            // indices 0 and 6): Zipf rank 1 of 6.
            let accesses: Vec<_> = sc
                .system
                .txns()
                .iter()
                .flat_map(|t| t.steps())
                .filter(|s| s.kind == kplock_model::ActionKind::Update)
                .map(|s| s.entity.0 as usize % 6)
                .collect();
            let low = accesses.iter().filter(|&&i| i == 0).count();
            low as f64 / accesses.len() as f64
        };
        assert!(
            low_share(&sweep[1]) > low_share(&sweep[0]),
            "θ=0.9 must concentrate accesses on the first entities"
        );
        for sc in &sweep {
            sc.system.validate(Level::Strict).unwrap();
        }
        // θ=0 is seed-identical to the base workload.
        let plain = random_system(&p);
        for (a, b) in plain.txns().iter().zip(sweep[0].system.txns()) {
            assert_eq!(a.steps(), b.steps());
        }
    }

    #[test]
    fn zero_hot_percent_is_seed_identical_to_base() {
        let p = base();
        let plain = random_system(&p);
        let sweep = hot_site_sweep(&p, &[0]);
        for (a, b) in plain.txns().iter().zip(sweep[0].system.txns()) {
            assert_eq!(a.steps(), b.steps());
        }
    }

    #[test]
    fn resolution_sweep_is_deadlock_prone_safe_and_distribution_invariant() {
        use kplock_sim::{run, DeadlockDetection, LatencyModel, SimConfig};
        let sweep = resolution_sweep(6, 4, &[1, 2, 3, 6]);
        assert_eq!(sweep.len(), 4);
        for sc in &sweep {
            sc.system.validate(Level::Strict).unwrap();
            assert_eq!(sc.system.db().entity_count(), 6);
            assert_eq!(sc.system.db().site_count(), sc.value);
            // Same conflict structure at every site count: every pair of
            // transactions locks the same entity set.
            for t in sc.system.txns() {
                assert_eq!(t.locked_entities().len(), 6);
            }
        }
        // The structure actually deadlocks under detection (that is its
        // job), and 2PL keeps the commits serializable.
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(5),
            resolution: DeadlockDetection::Periodic.into(),
            ..Default::default()
        };
        let mut deadlocks = 0;
        for sc in &sweep {
            let r = run(&sc.system, &cfg).unwrap();
            assert!(r.finished(), "{}", sc.name);
            assert!(r.audit.serializable, "{}", sc.name);
            deadlocks += r.metrics.deadlocks_resolved;
        }
        assert!(deadlocks > 0, "rotated orders must provoke deadlock");
    }

    #[test]
    fn resolution_sweep_prevention_never_detects_anything() {
        use kplock_sim::{run, PreventionScheme, SimConfig};
        for sc in resolution_sweep(4, 3, &[2, 4]) {
            for scheme in [
                PreventionScheme::WoundWait,
                PreventionScheme::WaitDie,
                PreventionScheme::NoWait,
            ] {
                let cfg = SimConfig {
                    latency: kplock_sim::LatencyModel::Fixed(5),
                    resolution: scheme.into(),
                    ..Default::default()
                };
                let r = run(&sc.system, &cfg).unwrap();
                assert!(r.finished(), "{} under {scheme:?}", sc.name);
                assert_eq!(r.metrics.deadlocks_resolved, 0);
                assert_eq!(r.metrics.probe_messages, 0);
                assert!(r.audit.serializable);
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs at least one entity each")]
    fn resolution_sweep_rejects_more_sites_than_entities() {
        resolution_sweep(3, 2, &[4]);
    }

    #[test]
    fn scenarios_run_under_every_detection_scheme() {
        use kplock_sim::{run, DeadlockDetection, LatencyModel, SimConfig};
        let sweep = site_count_sweep(&base(), 6, &[2, 3]);
        for sc in &sweep {
            for detection in [
                DeadlockDetection::Periodic,
                DeadlockDetection::OnBlock,
                DeadlockDetection::Probe,
            ] {
                let cfg = SimConfig {
                    latency: LatencyModel::Fixed(5),
                    resolution: detection.into(),
                    invariant_audit: true,
                    ..Default::default()
                };
                let r = run(&sc.system, &cfg).unwrap();
                assert!(r.finished(), "{} under {detection:?}", sc.name);
                assert!(r.audit.serializable, "{} under {detection:?}", sc.name);
                assert_eq!(r.metrics.phantom_probe_aborts, 0);
            }
        }
    }
}
