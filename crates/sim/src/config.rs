//! Simulation configuration.

use crate::fault::{FaultPlan, FaultPlanError};
pub use kplock_core::AvoidPlan;
pub use kplock_dlm::PreventionScheme;
use kplock_dlm::Priority;
use kplock_model::{TxnId, TxnSystem};
use std::fmt;

/// Network latency model for coordinator ↔ site messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatencyModel {
    /// Every message takes exactly this many ticks.
    Fixed(u64),
    /// Uniform in `[lo, hi]` (seeded, deterministic).
    Uniform(u64, u64),
}

impl LatencyModel {
    /// Draws a latency.
    ///
    /// Callers must validate the model first ([`SimConfig::validate`]):
    /// an empty `Uniform` range panics inside the RNG.
    pub fn sample(&self, rng: &mut impl rand::Rng) -> u64 {
        match *self {
            LatencyModel::Fixed(t) => t,
            LatencyModel::Uniform(lo, hi) => rng.gen_range(lo..=hi),
        }
    }
}

/// Delegated lock ownership ([`SimConfig::delegation`]): may a site hand
/// a coordinator a *cached grant*?
///
/// With delegation on, a site granting an uncontested lock also hands the
/// coordinator release authority: the coordinator serves the matching
/// unlock from its cache at **zero messages**
/// ([`crate::Metrics::cache_hits`], [`crate::Metrics::messages_saved`]),
/// and the site keeps the hold until another transaction demands the
/// entity and it sends an epoch-validated revocation
/// ([`crate::Metrics::revocations`]) that drains the cache entry back. An
/// abort does what it does with delegation off: every site releases the
/// instance's holds, delegated ones included, and the coordinator drops
/// its cache. `Off` (the default) changes no message flow and draws no
/// randomness, so every fixed-seed pin stays bit-identical — the same
/// guarded-knob contract every other axis keeps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Delegation {
    /// Every acquire and release pays the round-trip to the owning site —
    /// the paper's model, and the engine's original behavior bit for bit.
    #[default]
    Off,
    /// Uncontested grants are delegated; their unlocks are served from
    /// the coordinator's cache, and the site's hold lasts until a
    /// conflicting request revokes it or its holder aborts.
    On,
}

/// Which transaction to abort when a deadlock cycle is found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VictimPolicy {
    /// The most recently (re)started instance in the cycle.
    Youngest,
    /// The longest-running instance in the cycle.
    Oldest,
}

/// How the engine detects deadlocks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DeadlockDetection {
    /// The paper-era default: rebuild the global waits-for relation every
    /// [`SimConfig::deadlock_scan_interval`] ticks. A cycle can sit
    /// undetected for up to a full interval.
    #[default]
    Periodic,
    /// At event time: the periodic scan's search over the site tables'
    /// wait-for edges runs after every site event that leaves an entity
    /// with waiters — a request blocking, or a release or cancel granting
    /// and so retargeting the remaining waiters — so deadlocks are
    /// resolved the instant they form, with no scan latency.
    ///
    /// Like `Periodic`, this consults a *global* view no real site could
    /// see; it models an idealized centralized detector.
    OnBlock,
    /// Distributed edge-chasing (Chandy–Misra–Haas): each site knows only
    /// its own wait-for edges, and deadlocks are found by probe messages
    /// forwarded site-to-site over the latency-modelled network (see
    /// [`crate::probe`]). No global wait-for graph exists anywhere on this
    /// path, so detection itself pays the distribution cost the paper asks
    /// about: probe messages, and a detection latency of one network hop
    /// per cycle edge.
    Probe,
}

/// How the engine deals with deadlocks — the resolution axis.
///
/// Every scheme so far *detected* cycles after the fact; the classic
/// alternative is timestamp-ordering *prevention* (Rosenkrantz, Stearns &
/// Lewis — see [`kplock_dlm::prevent`]), which refuses to let a cycle form
/// in the first place using only knowledge local to the lock table: no
/// wait-for graph, no scan, no probe traffic. The price is paid in
/// restarts instead of detection messages
/// ([`crate::Metrics::prevention_restarts`] vs
/// [`crate::Metrics::probe_messages`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlockResolution {
    /// Let wait-for cycles form and break them with the given detection
    /// scheme. `Detect(DeadlockDetection::Periodic)` is the default and
    /// reproduces the original engine bit for bit.
    Detect(DeadlockDetection),
    /// Never let a cycle form: decide at request time, from the
    /// coordinator's birth timestamp carried on the lock request, whether
    /// to wait, wound, or die.
    Prevent(PreventionScheme),
    /// Run the paper's static analysis at runtime: a pre-computed
    /// [`AvoidPlan`] (see [`SimConfig::avoid`]) certifies a subset of the
    /// declared transactions against a safe lock order, making wait-for
    /// cycles among them unreachable **without any runtime messages or
    /// restarts**; transactions outside the certified set fall back to
    /// wound-wait (certified transactions always win the tie, so no
    /// fallback transaction can ever make a certified one wait behind a
    /// cycle). Requires `avoid: Some(plan)` — validation rejects the
    /// combination of `Avoid` with an absent plan
    /// ([`ConfigError::AvoidWithoutPlan`]), which is also why open-loop
    /// arrival runs (no declared transaction set to analyze) cannot use
    /// this arm.
    Avoid,
}

impl Default for DeadlockResolution {
    fn default() -> Self {
        DeadlockResolution::Detect(DeadlockDetection::Periodic)
    }
}

impl From<DeadlockDetection> for DeadlockResolution {
    fn from(d: DeadlockDetection) -> Self {
        DeadlockResolution::Detect(d)
    }
}

impl From<PreventionScheme> for DeadlockResolution {
    fn from(p: PreventionScheme) -> Self {
        DeadlockResolution::Prevent(p)
    }
}

/// A [`SimConfig`] that cannot be run (or, for [`ConfigError::ZeroShards`]
/// alone, a [`crate::ThreadedConfig`]).
///
/// Returned by [`SimConfig::validate`] and the `run*` entry points, so a
/// bad configuration fails up front with a typed error instead of
/// panicking mid-run deep inside the RNG or livelocking the event loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `LatencyModel::Uniform(lo, hi)` with `lo > hi`: the range is empty,
    /// and sampling it would panic mid-run.
    EmptyLatencyRange {
        /// The (invalid) lower bound.
        lo: u64,
        /// The (invalid, smaller) upper bound.
        hi: u64,
    },
    /// `deadlock_scan_interval == 0` under [`DeadlockDetection::Periodic`]:
    /// the scan would reschedule itself at the current tick forever and
    /// the event loop would never advance.
    ZeroScanInterval,
    /// [`crate::ThreadedConfig::shards`] is zero: a sharded table with zero
    /// shards has nowhere to put any entity.
    ZeroShards,
    /// The fault plan is invalid (a rate outside `[0, 1]`, or a crash
    /// scheduled for a site the system does not have).
    BadFaultPlan(FaultPlanError),
    /// `resolution == Avoid` but no [`AvoidPlan`] was supplied
    /// ([`SimConfig::avoid`] is `None`). Avoidance analyzes the *declared*
    /// transaction set ahead of time; without a plan there is nothing to
    /// enforce — notably, open-loop arrival runs have no declared set and
    /// can never use this arm.
    AvoidWithoutPlan,
    /// The supplied [`AvoidPlan`] was synthesized from a different number
    /// of transactions than the system being run — its certificate says
    /// nothing about these transactions.
    AvoidPlanMismatch {
        /// Transactions the plan was synthesized from.
        plan_txns: usize,
        /// Transactions the system declares.
        system_txns: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::EmptyLatencyRange { lo, hi } => {
                write!(f, "empty latency range: Uniform({lo}, {hi}) with lo > hi")
            }
            ConfigError::ZeroScanInterval => {
                write!(
                    f,
                    "deadlock_scan_interval must be > 0 under periodic detection"
                )
            }
            ConfigError::ZeroShards => write!(f, "shard count must be > 0"),
            ConfigError::BadFaultPlan(e) => write!(f, "invalid fault plan: {e}"),
            ConfigError::AvoidWithoutPlan => write!(
                f,
                "resolution Avoid requires an AvoidPlan (SimConfig::avoid); \
                 open-loop runs have no declared transaction set to analyze"
            ),
            ConfigError::AvoidPlanMismatch {
                plan_txns,
                system_txns,
            } => write!(
                f,
                "avoid plan was synthesized from {plan_txns} transactions \
                 but the system declares {system_txns}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The admission priority of transaction `txn` — what the lock table's
/// wound/wait/die arithmetic compares (smaller wins) — given the birth
/// stamp the engine assigned it, `(arrival, index)`.
///
/// Plain prevention runs (`plan` is `None`) use the stamp unchanged.
/// Under [`DeadlockResolution::Avoid`] the certificate splits the
/// population into two classes:
///
/// * **certified** transactions all share the top priority `(0, 0)` —
///   deliberately *not* distinct: wound-wait only wounds a strictly
///   lower-priority obstacle, so equals never wound each other and
///   certified transactions simply queue FIFO among themselves (safe by
///   the plan's lock order, which makes certified-only wait cycles
///   impossible), while any uncertified obstacle in their way is wounded
///   and no uncertified requester can ever make a certified holder wait
///   behind it;
/// * **uncertified** transactions keep their birth order, uniformly
///   shifted one later so even a `(0, 0)` fallback ranks strictly below
///   every certified transaction. The shift preserves the relative order
///   of all fallback transactions, which is why an empty-certificate
///   Avoid run is decision-for-decision identical to
///   `Prevent(WoundWait)`.
pub(crate) fn admission_priority(
    plan: Option<&AvoidPlan>,
    txn: TxnId,
    birth: Priority,
) -> Priority {
    match plan {
        Some(plan) if plan.is_certified(txn) => (0, 0),
        Some(_) => (birth.0.saturating_add(1), birth.1),
        None => birth,
    }
}

/// Checks the plan in force, if any, was synthesized from exactly `sys`'s
/// transactions: its certificate is only meaningful for that set, and
/// only the run entry points have the system in hand.
pub(crate) fn check_avoid_plan(
    plan: Option<&AvoidPlan>,
    sys: &TxnSystem,
) -> Result<(), ConfigError> {
    match plan {
        Some(plan) if plan.txn_count() != sys.len() => Err(ConfigError::AvoidPlanMismatch {
            plan_txns: plan.txn_count(),
            system_txns: sys.len(),
        }),
        _ => Ok(()),
    }
}

/// Full simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// RNG seed (drives latency sampling only; everything else is
    /// deterministic).
    pub seed: u64,
    /// Message latency model.
    pub latency: LatencyModel,
    /// Interval between global deadlock scans (unused under
    /// [`DeadlockDetection::OnBlock`], [`DeadlockDetection::Probe`] and
    /// every prevention scheme).
    pub deadlock_scan_interval: u64,
    /// How deadlocks are resolved: detected after the fact (with which
    /// scheme), or prevented by timestamp ordering.
    pub resolution: DeadlockResolution,
    /// Victim selection policy.
    pub victim_policy: VictimPolicy,
    /// Hard cap on simulated time (guards against livelock).
    pub max_time: u64,
    /// Fault injection: seeded message loss/duplication/reordering and
    /// scheduled site crashes with lease-based recovery (see
    /// [`crate::fault`]). The default [`FaultPlan::none`] injects nothing
    /// and keeps the engine bit-identical to the fault-free path.
    pub faults: FaultPlan,
    /// Measurement-only (default `false`): after every event that can
    /// mutate a lock table (site events, coordinator events whose aborts
    /// release locks everywhere, deadlock scans, recoveries), assert the
    /// structural invariants of every table entry the event touched —
    /// full compatibility-matrix exclusion over the `IS`/`IX`/`S`/`SIX`/`X`
    /// lattice (pairwise-incompatible co-held modes such as `S`+`IX`,
    /// `SIX`+`SIX` or `X`+anything, not just `S`/`X` exclusion),
    /// upgraders hold with uncovered targets, no holder-and-waiter
    /// owners, indexes in step — the safety harness the fault-injection
    /// property tests run under. An event's audit costs what the event
    /// touched ([`kplock_dlm::QueueTable::check_entity`]); every site's
    /// whole table ([`kplock_dlm::QueueTable::check_invariants`]) is
    /// swept after each recovery, every 4 096th audited event and at the
    /// end of the run — and behind every audit in a debug build. Every
    /// update reaching a site must be covered there by the updater's own
    /// lock or a shielding parent lock (a debug build checks this with
    /// the audit off too). After a
    /// completed run it also asserts that no site still remembers a
    /// queued request and, with [`Delegation::Off`], that every table is
    /// idle. A violation is an engine bug and panics with the offending
    /// site, entity and tick.
    ///
    /// Under [`DeadlockDetection::Probe`] the harness also cross-checks
    /// every probe-ordered abort against the instantaneous union of the
    /// site tables and counts the victims on no cycle in
    /// [`crate::Metrics::phantom_probe_aborts`] — a count, not a panic:
    /// the check is a god's-eye instrument, and the probe protocol itself
    /// never reads global state, audited or not.
    pub invariant_audit: bool,
    /// Delegated lock ownership (see [`Delegation`]): `Off` (the default)
    /// reproduces every existing run bit for bit; `On` lets sites hand
    /// coordinators cached grants whose unlocks are message-free.
    pub delegation: Delegation,
    /// The avoidance certificate, required (and only consulted) under
    /// [`DeadlockResolution::Avoid`]: synthesize one from the declared
    /// transaction set with [`AvoidPlan::synthesize`] (or
    /// `synthesize_restricted` to control the certified fraction). The
    /// run entry points additionally check the plan covers exactly the
    /// system's transactions ([`ConfigError::AvoidPlanMismatch`]).
    pub avoid: Option<AvoidPlan>,
}

impl SimConfig {
    /// The detection scheme in force, if deadlocks are detected at all
    /// (`None` under prevention — there is nothing to detect).
    pub fn detection(&self) -> Option<DeadlockDetection> {
        match self.resolution {
            DeadlockResolution::Detect(d) => Some(d),
            DeadlockResolution::Prevent(_) | DeadlockResolution::Avoid => None,
        }
    }

    /// The scheme deciding lock admission at request time, if any:
    /// the configured scheme under `Prevent`, wound-wait under `Avoid`
    /// (the fallback discipline for uncertified transactions — certified
    /// ones are admitted with a priority that always wins), `None` under
    /// `Detect` (requests always wait; cycles are found later).
    pub fn admission_scheme(&self) -> Option<PreventionScheme> {
        match self.resolution {
            DeadlockResolution::Detect(_) => None,
            DeadlockResolution::Prevent(p) => Some(p),
            DeadlockResolution::Avoid => Some(PreventionScheme::WoundWait),
        }
    }

    /// The avoidance plan in force: `Some` iff the resolution is
    /// [`DeadlockResolution::Avoid`] *and* a plan was supplied.
    pub fn avoid_plan(&self) -> Option<&AvoidPlan> {
        match self.resolution {
            DeadlockResolution::Avoid => self.avoid.as_ref(),
            _ => None,
        }
    }

    /// Checks the configuration for values that would panic or hang a run.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let LatencyModel::Uniform(lo, hi) = self.latency {
            if lo > hi {
                return Err(ConfigError::EmptyLatencyRange { lo, hi });
            }
        }
        if self.detection() == Some(DeadlockDetection::Periodic) && self.deadlock_scan_interval == 0
        {
            return Err(ConfigError::ZeroScanInterval);
        }
        self.faults.validate().map_err(ConfigError::BadFaultPlan)?;
        if self.resolution == DeadlockResolution::Avoid && self.avoid.is_none() {
            return Err(ConfigError::AvoidWithoutPlan);
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xC0FFEE,
            latency: LatencyModel::Fixed(10),
            deadlock_scan_interval: 50,
            resolution: DeadlockResolution::default(),
            victim_policy: VictimPolicy::Youngest,
            max_time: 10_000_000,
            faults: FaultPlan::none(),
            invariant_audit: false,
            delegation: Delegation::default(),
            avoid: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SimConfig::default().validate().unwrap();
    }

    #[test]
    fn empty_uniform_range_is_rejected() {
        let cfg = SimConfig {
            latency: LatencyModel::Uniform(20, 1),
            ..Default::default()
        };
        assert_eq!(
            cfg.validate().unwrap_err(),
            ConfigError::EmptyLatencyRange { lo: 20, hi: 1 }
        );
        // Degenerate-but-nonempty ranges are fine.
        let cfg = SimConfig {
            latency: LatencyModel::Uniform(5, 5),
            ..Default::default()
        };
        cfg.validate().unwrap();
    }

    #[test]
    fn zero_scan_interval_only_matters_for_periodic() {
        let cfg = SimConfig {
            deadlock_scan_interval: 0,
            ..Default::default()
        };
        assert_eq!(cfg.validate().unwrap_err(), ConfigError::ZeroScanInterval);
        let no_scan: [DeadlockResolution; 5] = [
            DeadlockDetection::OnBlock.into(),
            DeadlockDetection::Probe.into(),
            PreventionScheme::WoundWait.into(),
            PreventionScheme::WaitDie.into(),
            PreventionScheme::NoWait.into(),
        ];
        for resolution in no_scan {
            let cfg = SimConfig {
                deadlock_scan_interval: 0,
                resolution,
                ..Default::default()
            };
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn resolution_axis_projects_to_exactly_one_side() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.resolution, DeadlockResolution::default());
        assert_eq!(cfg.detection(), Some(DeadlockDetection::Periodic));
        assert_eq!(cfg.admission_scheme(), None);
        let cfg = SimConfig {
            resolution: PreventionScheme::WoundWait.into(),
            ..Default::default()
        };
        assert_eq!(cfg.detection(), None);
        assert_eq!(cfg.admission_scheme(), Some(PreventionScheme::WoundWait));
        assert_eq!(
            DeadlockResolution::from(DeadlockDetection::Probe),
            DeadlockResolution::Detect(DeadlockDetection::Probe)
        );
    }

    #[test]
    fn config_error_displays() {
        let e = ConfigError::EmptyLatencyRange { lo: 3, hi: 1 };
        assert!(e.to_string().contains("Uniform(3, 1)"));
        assert!(ConfigError::ZeroScanInterval.to_string().contains("scan"));
        assert!(ConfigError::ZeroShards.to_string().contains("shard"));
        let e = ConfigError::BadFaultPlan(FaultPlanError::RateOutOfRange { which: "loss" });
        assert!(e.to_string().contains("fault"));
        assert!(ConfigError::AvoidWithoutPlan.to_string().contains("Avoid"));
        let e = ConfigError::AvoidPlanMismatch {
            plan_txns: 2,
            system_txns: 5,
        };
        assert!(e.to_string().contains('2') && e.to_string().contains('5'));
    }

    #[test]
    fn avoid_without_plan_is_rejected() {
        let cfg = SimConfig {
            resolution: DeadlockResolution::Avoid,
            ..Default::default()
        };
        assert_eq!(cfg.validate().unwrap_err(), ConfigError::AvoidWithoutPlan);
        // With a plan (even an empty-certificate one) it validates, needs
        // no scan interval, and projects onto the admission side only.
        let db = kplock_model::Database::from_spec(&[("x", 0)]);
        let sys = kplock_model::TxnSystem::new(db, vec![]);
        let cfg = SimConfig {
            resolution: DeadlockResolution::Avoid,
            deadlock_scan_interval: 0,
            avoid: Some(AvoidPlan::synthesize(&sys)),
            ..Default::default()
        };
        cfg.validate().unwrap();
        assert_eq!(cfg.detection(), None);
        assert_eq!(cfg.admission_scheme(), Some(PreventionScheme::WoundWait));
        assert!(cfg.avoid_plan().is_some());
        // A plan supplied under a non-Avoid resolution is inert.
        let cfg = SimConfig {
            avoid: Some(AvoidPlan::synthesize(&sys)),
            ..Default::default()
        };
        assert!(cfg.avoid_plan().is_none());
        assert_eq!(cfg.admission_scheme(), None);
        assert_eq!(
            SimConfig {
                resolution: PreventionScheme::WaitDie.into(),
                ..Default::default()
            }
            .admission_scheme(),
            Some(PreventionScheme::WaitDie)
        );
    }

    #[test]
    fn admission_priority_puts_the_certified_first_and_keeps_fallback_order() {
        let db = kplock_model::Database::from_spec(&[("x", 0), ("y", 1)]);
        let txns = (0..3)
            .map(|i| {
                let mut b = kplock_model::TxnBuilder::new(&db, format!("T{i}"));
                b.script("Lx Ly x y Ux Uy").unwrap();
                b.build().unwrap()
            })
            .collect();
        let sys = TxnSystem::new(db, txns);
        let plan = AvoidPlan::synthesize_restricted(&sys, &[TxnId(1)]);
        assert_eq!(plan.certified(), vec![TxnId(1)]);
        // Everyone arriving at tick 0: T0's birth is (0, 0).
        let stamp = |t: usize| -> Priority { (0, t as u64) };
        let prio = |plan, t| admission_priority(plan, TxnId::from_idx(t), stamp(t));
        assert_eq!(prio(Some(&plan), 1), (0, 0));
        assert!(prio(Some(&plan), 0) > (0, 0) && prio(Some(&plan), 2) > (0, 0));
        assert!(prio(Some(&plan), 0) < prio(Some(&plan), 2));
        assert_eq!(prio(None, 2), stamp(2));
    }

    #[test]
    fn invalid_fault_rates_fail_validation() {
        let cfg = SimConfig {
            faults: FaultPlan {
                loss: 2.0,
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        assert_eq!(
            cfg.validate().unwrap_err(),
            ConfigError::BadFaultPlan(FaultPlanError::RateOutOfRange { which: "loss" })
        );
        // A full-strength but in-range plan validates.
        let cfg = SimConfig {
            faults: FaultPlan::lossy(1, 1.0, 1.0, 1.0),
            ..Default::default()
        };
        cfg.validate().unwrap();
    }
}
