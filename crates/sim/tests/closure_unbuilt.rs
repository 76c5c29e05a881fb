//! The simulator walks a transaction's direct edges only — step issue and
//! the history's online audit ask for successors and predecessors, and
//! the audit's serialization order is over transactions — so a run, its
//! audit included, must leave the quadratic transitive closure of every
//! transaction unbuilt. Only an `AvoidPlan`, synthesized before the run,
//! asks `precedes`.

use kplock_core::policy::LockStrategy;
use kplock_model::{Granularity, TxnSystem};
use kplock_sim::{
    run, run_threaded, run_with_arrivals, DeadlockDetection, DeadlockResolution, PreventionScheme,
    SimConfig, ThreadedConfig,
};
use kplock_workload::{
    hierarchy_system, random_system, AccessProfile, HierarchyParams, WorkloadParams,
};

fn assert_no_closure(sys: &TxnSystem, when: &str) {
    for t in sys.txns() {
        assert!(!t.closure_is_built(), "{}: closure built {when}", t.name());
    }
}

#[test]
fn a_hierarchy_scan_run_and_its_audit_build_no_closure() {
    let arms = [
        Granularity::Flat,
        Granularity::Hierarchical {
            escalation_threshold: 16,
        },
    ];
    for granularity in arms {
        let params = HierarchyParams {
            profile: AccessProfile::Scan,
            files: 6,
            records_per_file: 200,
            sites: 3,
            transactions: 3,
            ..Default::default()
        };
        let scenario = hierarchy_system(&params, granularity);
        assert_no_closure(&scenario.system, "by generation");
        let cfg = SimConfig {
            max_time: 20_000_000,
            ..Default::default()
        };
        let report = run_with_arrivals(&scenario.system, &cfg, &scenario.arrivals).unwrap();
        assert!(report.finished());
        report.audit.legal.as_ref().unwrap();
        assert!(report.audit.serializable);
        assert_no_closure(&scenario.system, "by the run");
    }
}

#[test]
fn hot_random_systems_build_no_closure_under_any_planless_arm() {
    let sys = random_system(&WorkloadParams {
        seed: 7,
        sites: 3,
        entities_per_site: 4,
        transactions: 12,
        steps_per_txn: 6,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    });
    assert_no_closure(&sys, "by generation");
    let resolutions = [
        DeadlockResolution::Detect(DeadlockDetection::Periodic),
        DeadlockResolution::Detect(DeadlockDetection::OnBlock),
        DeadlockResolution::Detect(DeadlockDetection::Probe),
        DeadlockResolution::Prevent(PreventionScheme::WoundWait),
        DeadlockResolution::Prevent(PreventionScheme::WaitDie),
        DeadlockResolution::Prevent(PreventionScheme::NoWait),
    ];
    for resolution in resolutions {
        let cfg = SimConfig {
            resolution,
            ..Default::default()
        };
        let report = run(&sys, &cfg).unwrap();
        // Hot enough that every arm's resolution path runs.
        assert!(report.metrics.aborts > 0, "{resolution:?}");
        assert!(report.finished(), "{resolution:?}");
        assert!(report.audit.serializable, "{resolution:?}");
    }
    assert!(
        run_threaded(&sys, &ThreadedConfig::default())
            .unwrap()
            .finished
    );
    assert_no_closure(&sys, "by a run");
}
