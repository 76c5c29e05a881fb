//! A distributed lock-manager simulator for locked transaction systems.
//!
//! The paper proves static properties of locked distributed transactions;
//! this crate lets the same objects *execute*: coordinators drive each
//! transaction's partial order, per-site lock managers grant exclusive
//! locks FIFO, messages cross a latency-modelled network, deadlocks are
//! detected globally and resolved by victim abort + restart, and every
//! run's committed history is audited for legality and
//! conflict-serializability as it is recorded ([`History`]: a shadow lock
//! table over the recorded steps, and a serialization graph grown at each
//! commit) — safe systems never fail the audit; unsafe ones do, for some
//! timings.
//!
//! Two runners, one protocol:
//!
//! * [`engine::run`] — deterministic discrete-event simulation (seeded),
//!   and the only place the protocol below is implemented;
//! * [`threaded::run_threaded`] — a stress harness: real OS threads over
//!   a sharded `kplock-dlm` table, FIFO requests, lock-wait timeouts that
//!   abort and retry, the committed history audited like every run's.
//!
//! Both sit on the `kplock-dlm` lock tables: reader–writer modes with
//! FIFO grants (exclusive-only by default, matching the paper). In the
//! engine, deadlocks are resolved along a three-way axis
//! ([`DeadlockResolution`]):
//!
//! * **detect** — a global scan of the site tables, periodic (default) or
//!   after every site event that leaves a waiter
//!   ([`DeadlockDetection::OnBlock`]), or fully distributed via
//!   Chandy–Misra–Haas probe messages ([`DeadlockDetection::Probe`], see
//!   [`probe`]) — the only scheme where detection itself pays network
//!   costs, metered in [`Metrics::probe_messages`] and
//!   [`Metrics::detection_latency_ticks`];
//! * **prevent** — timestamp-ordering schemes
//!   ([`PreventionScheme::WoundWait`] / [`PreventionScheme::WaitDie`] /
//!   [`PreventionScheme::NoWait`], see [`kplock_dlm::prevent`]) that never
//!   let a cycle form, trading the detector's messages for restarts
//!   ([`Metrics::prevention_restarts`]);
//! * **avoid** ([`DeadlockResolution::Avoid`]) — run the paper's static
//!   analysis at runtime: an [`AvoidPlan`] synthesized by `kplock-core`
//!   certifies the declared transaction set against a safe lock order
//!   (per-site local controllers), making cycles unreachable for
//!   certified transactions with *zero* messages and *zero* restarts;
//!   transactions outside the certificate fall back to wound-wait
//!   ([`Metrics::avoid_certified`] / [`Metrics::avoid_fallbacks`]).
//!
//! Orthogonal to both sits the **fault axis** ([`SimConfig::faults`],
//! [`fault::FaultPlan`]): seeded message loss, duplication and
//! reordering on every channel, plus scheduled site crashes whose
//! recovery rebuilds the lock table from surviving
//! [`kplock_dlm::Lease`]s. [`FaultPlan::none`] (the default) injects
//! nothing and keeps every run bit-identical to the fault-free engine.
//!
//! # Example
//!
//! A guaranteed deadlock, resolved and committed serializably — then
//! resolved with no global wait-for graph anywhere (probes), then never
//! allowed to form at all (wound-wait):
//!
//! ```
//! use kplock_model::{Database, TxnBuilder, TxnSystem};
//! use kplock_sim::{
//!     run, DeadlockDetection, DeadlockResolution, LatencyModel, PreventionScheme, SimConfig,
//! };
//!
//! let db = Database::from_spec(&[("x", 0), ("y", 1)]); // two sites
//! let mut b1 = TxnBuilder::new(&db, "T1");
//! b1.script("Lx Ly x y Ux Uy").unwrap(); // 2PL, x then y
//! let t1 = b1.build().unwrap();
//! let mut b2 = TxnBuilder::new(&db, "T2");
//! b2.script("Ly Lx y x Uy Ux").unwrap(); // 2PL, y then x
//! let t2 = b2.build().unwrap();
//! let sys = TxnSystem::new(db, vec![t1, t2]);
//!
//! let cfg = SimConfig { latency: LatencyModel::Fixed(5), ..Default::default() };
//! let report = run(&sys, &cfg).unwrap(); // bad configs are typed errors
//! assert!(report.finished());
//! assert!(report.metrics.deadlocks_resolved >= 1); // victim aborted + restarted
//! assert!(report.audit.serializable);              // 2PL commits serializably
//!
//! let probes = SimConfig {
//!     resolution: DeadlockResolution::Detect(DeadlockDetection::Probe),
//!     ..cfg.clone()
//! };
//! let report = run(&sys, &probes).unwrap();
//! assert!(report.finished());
//! assert!(report.metrics.probe_messages > 0); // detection crossed the wire
//!
//! let prevent = SimConfig {
//!     resolution: DeadlockResolution::Prevent(PreventionScheme::WoundWait),
//!     ..cfg
//! };
//! let report = run(&sys, &prevent).unwrap();
//! assert!(report.finished());
//! assert_eq!(report.metrics.deadlocks_resolved, 0); // no cycle ever formed
//! assert!(report.metrics.prevention_restarts >= 1); // the young were wounded
//!
//! // Finally, *avoidance*: the paper's analysis certifies what it can
//! // (T1 here) against a safe lock order and meters the rest (T2)
//! // through the wound-wait fallback.
//! let plan = kplock_sim::AvoidPlan::synthesize(&sys);
//! assert_eq!(plan.certified_count(), 1);
//! let avoid = SimConfig {
//!     resolution: DeadlockResolution::Avoid,
//!     avoid: Some(plan),
//!     ..prevent
//! };
//! let report = run(&sys, &avoid).unwrap();
//! assert!(report.finished());
//! assert_eq!(report.metrics.deadlocks_resolved, 0);
//! assert_eq!(report.metrics.avoid_certified, 1);
//! assert_eq!(report.metrics.avoid_fallbacks, 1);
//! ```

pub mod config;
mod coordinator;
pub mod driver;
pub mod engine;
pub mod event;
pub mod fault;
pub mod history;
pub mod metrics;
pub mod probe;
mod progress;
pub mod replay;
mod site;
pub mod threaded;

pub use config::{
    AvoidPlan, ConfigError, DeadlockDetection, DeadlockResolution, Delegation, LatencyModel,
    PreventionScheme, SimConfig, VictimPolicy,
};
pub use driver::{draw_arrivals, ArrivalConfig};
pub use engine::{run, run_with_arrivals, RunOutcome, SimReport};
pub use event::{DelegatedGrant, EventKind, EventQueue, Instance, Payload, SimTime};
pub use fault::{FaultPlan, FaultPlanError, SiteCrash};
pub use history::{audit, Audit, History, HistoryEvent};
pub use metrics::Metrics;
pub use probe::{choose_victim, ChaseId, Mark, ProbeMsg, SiteProbeState, Stamp};
pub use replay::{replay_deadlock, replay_violation, DeadlockEvidence, ReplayError};
pub use threaded::{run_threaded, ThreadedConfig, ThreadedReport};
