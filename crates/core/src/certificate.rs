//! Safety verdicts and machine-checkable certificates.
//!
//! An unsafety certificate packages what Theorem 2's proof constructs: a
//! pair of linear extensions, a dominator of `D(t1, t2)`, and an explicit
//! legal, complete, non-serializable schedule. [`UnsafetyCertificate::verify`]
//! re-checks everything against the *original* system, so callers never have
//! to trust the search that produced it.

use crate::conflict_graph::ConflictDigraph;
use kplock_model::{
    is_serializable, EntityId, ModelError, Schedule, ScheduledStep, StepId, TxnId, TxnSystem,
};

/// How a system was proven safe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SafeProof {
    /// `D(T1,T2)` strongly connected (Theorem 1; exact for ≤ 2 sites by
    /// Theorem 2).
    StronglyConnected,
    /// Exhaustive product-space search (the exact oracle).
    Exhaustive,
    /// Fewer than two entities are locked by both transactions.
    TrivialOverlap,
    /// No mixed orientation of the shared sections leaves both partial
    /// orders plus the section arcs acyclic: the pair path of
    /// [`crate::sat_check`] proved its formula unsatisfiable (exact at any
    /// number of sites).
    Unsatisfiable,
}

/// The outcome of a safety decision.
#[derive(Clone, Debug)]
pub enum SafetyVerdict {
    /// Every schedule is serializable.
    Safe(SafeProof),
    /// Some legal schedule is not serializable; here is one.
    Unsafe(Box<UnsafetyCertificate>),
    /// Undecided. At any number of sites: a transaction lacks the lock or
    /// unlock step of an entity both lock, so `D(T1, T2)` is not defined.
    /// At two sites or fewer: Theorem 2's witness does not verify, which
    /// happens only on a pair that uses a shared mode, is not well-formed
    /// or updates outside a lock section. At three or more: the pair is
    /// such a pair, which the SAT safety check refuses. An exclusive,
    /// well-formed pair is always decided.
    Unknown,
}

impl SafetyVerdict {
    /// True for `Safe`.
    pub fn is_safe(&self) -> bool {
        matches!(self, SafetyVerdict::Safe(_))
    }

    /// True for `Unsafe`.
    pub fn is_unsafe(&self) -> bool {
        matches!(self, SafetyVerdict::Unsafe(_))
    }

    /// The certificate, if unsafe.
    pub fn certificate(&self) -> Option<&UnsafetyCertificate> {
        match self {
            SafetyVerdict::Unsafe(c) => Some(c),
            _ => None,
        }
    }
}

/// A certificate that a two-transaction system is unsafe.
#[derive(Clone, Debug)]
pub struct UnsafetyCertificate {
    /// The two transactions concerned.
    pub txn_a: TxnId,
    /// Second transaction.
    pub txn_b: TxnId,
    /// A linear extension of `txn_a`'s partial order.
    pub t1_order: Vec<StepId>,
    /// A linear extension of `txn_b`'s partial order.
    pub t2_order: Vec<StepId>,
    /// The dominator `X` of `D(t1, t2)` used to orient lock sections
    /// (entities in `X` run `txn_a` first).
    pub dominator: Vec<EntityId>,
    /// A legal, complete, non-serializable schedule of the pair.
    pub schedule: Schedule,
}

/// Why a certificate failed verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertificateError {
    /// `t1_order`/`t2_order` is not a linear extension.
    NotALinearExtension(TxnId),
    /// The schedule is illegal or incomplete.
    BadSchedule(ModelError),
    /// The schedule is serializable after all.
    ScheduleSerializable,
    /// The dominator is empty or covers all shared entities.
    BadDominator,
    /// The certificate names a transaction the system does not have.
    UnknownTxn(TxnId),
}

impl UnsafetyCertificate {
    /// Re-checks the certificate against `sys` (restricted to the two
    /// transactions named in it).
    pub fn verify(&self, sys: &TxnSystem) -> Result<(), CertificateError> {
        for t in [self.txn_a, self.txn_b] {
            if t.idx() >= sys.len() {
                return Err(CertificateError::UnknownTxn(t));
            }
        }
        let ta = sys.txn(self.txn_a);
        let tb = sys.txn(self.txn_b);
        if !ta.is_linear_extension(&self.t1_order) {
            return Err(CertificateError::NotALinearExtension(self.txn_a));
        }
        if !tb.is_linear_extension(&self.t2_order) {
            return Err(CertificateError::NotALinearExtension(self.txn_b));
        }
        let shared = sys.shared_locked_entities(self.txn_a, self.txn_b);
        if self.dominator.is_empty()
            || self.dominator.len() >= shared.len()
            || self
                .dominator
                .iter()
                .any(|e| shared.binary_search(e).is_err())
        {
            return Err(CertificateError::BadDominator);
        }
        // The schedule must involve only the two transactions: a system
        // that is already the pair, in order, is checked as it stands.
        if sys.len() == 2 && (self.txn_a, self.txn_b) == (TxnId(0), TxnId(1)) {
            return check_unsafe(sys, &self.schedule);
        }
        let pair_sys = pair_subsystem(sys, self.txn_a, self.txn_b);
        let remapped = remap_schedule(&self.schedule, self.txn_a, self.txn_b);
        check_unsafe(&pair_sys, &remapped)
    }
}

/// Packages a witness schedule over the pair subsystem (ids 0/1) as a
/// certificate for `D`'s pair of the original system, if it verifies. The
/// dominator is the vertices `orient` sets, whose `Ta` section the witness
/// completes before `Tb`'s begins. Both the SAT pair path's witnesses and
/// Theorem 2's merge come through here.
pub(crate) fn certificate_from_witness(
    sys: &TxnSystem,
    d: &ConflictDigraph,
    witness: &Schedule,
    orient: &[bool],
) -> Option<UnsafetyCertificate> {
    let (a, b) = (d.txn_a, d.txn_b);
    let steps = witness.steps();
    // Projections of the witness are linear extensions.
    let order = |t: TxnId| -> Vec<StepId> {
        let of_t = steps.iter().filter(|ss| ss.txn == t);
        of_t.map(|ss| ss.step).collect()
    };
    let vertices = d.entities.iter().zip(orient);
    let named = |ss: &ScheduledStep| ScheduledStep {
        txn: [a, b][ss.txn.idx()],
        step: ss.step,
    };
    let cert = UnsafetyCertificate {
        txn_a: a,
        txn_b: b,
        t1_order: order(TxnId(0)),
        t2_order: order(TxnId(1)),
        dominator: vertices.filter(|(_, &o)| o).map(|(&e, _)| e).collect(),
        schedule: Schedule::new(steps.iter().map(named).collect()),
    };
    cert.verify(sys).ok()?;
    Some(cert)
}

/// A two-transaction `pair` and a schedule of it naming ids 0 and 1: is
/// the schedule legal, complete and not serializable?
fn check_unsafe(pair: &TxnSystem, schedule: &Schedule) -> Result<(), CertificateError> {
    schedule
        .validate_complete(pair)
        .map_err(CertificateError::BadSchedule)?;
    if is_serializable(pair, schedule) {
        return Err(CertificateError::ScheduleSerializable);
    }
    Ok(())
}

/// The two-transaction subsystem `{Ta, Tb}` (ids 0 and 1).
pub fn pair_subsystem(sys: &TxnSystem, a: TxnId, b: TxnId) -> TxnSystem {
    TxnSystem::new(
        sys.db().clone(),
        vec![sys.txn(a).clone(), sys.txn(b).clone()],
    )
}

/// Renames transactions `a -> 0`, `b -> 1` in a schedule.
pub fn remap_schedule(s: &Schedule, a: TxnId, b: TxnId) -> Schedule {
    Schedule::new(
        s.steps()
            .iter()
            .map(|ss| ScheduledStep {
                txn: if ss.txn == a {
                    TxnId(0)
                } else if ss.txn == b {
                    TxnId(1)
                } else {
                    ss.txn
                },
                step: ss.step,
            })
            .collect(),
    )
}
