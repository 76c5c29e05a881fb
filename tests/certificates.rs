//! Failure injection: tampered certificates must fail verification.
//!
//! The decision procedures are only trustworthy because every `Unsafe`
//! verdict is re-checked; these tests establish that the checker actually
//! rejects each way a certificate can be wrong.

use kplock::core::{decide_two_site, CertificateError, UnsafetyCertificate};
use kplock::model::{Schedule, ScheduledStep, TxnId, TxnSystem};
use kplock::workload::fig1;

fn unsafe_cert() -> (TxnSystem, UnsafetyCertificate) {
    let sys = fig1();
    let v = decide_two_site(&sys, TxnId(0), TxnId(1)).unwrap();
    let cert = v.certificate().expect("fig1 unsafe").clone();
    cert.verify(&sys).expect("pristine certificate verifies");
    (sys, cert)
}

#[test]
fn truncated_schedule_rejected() {
    let (sys, mut cert) = unsafe_cert();
    let steps = cert.schedule.steps().to_vec();
    cert.schedule = Schedule::new(steps[..steps.len() - 1].to_vec());
    assert!(matches!(
        cert.verify(&sys),
        Err(CertificateError::BadSchedule(_))
    ));
}

#[test]
fn reordered_schedule_rejected() {
    let (sys, mut cert) = unsafe_cert();
    let mut steps = cert.schedule.steps().to_vec();
    steps.reverse(); // violates partial orders and lock discipline
    cert.schedule = Schedule::new(steps);
    assert!(matches!(
        cert.verify(&sys),
        Err(CertificateError::BadSchedule(_))
    ));
}

#[test]
fn serial_schedule_rejected() {
    let (sys, mut cert) = unsafe_cert();
    // Replace the witness with a perfectly serial (hence serializable)
    // schedule.
    let pair = kplock::core::certificate::pair_subsystem(&sys, cert.txn_a, cert.txn_b);
    let serial = Schedule::serial(&pair, &[TxnId(0), TxnId(1)]);
    cert.schedule = Schedule::new(
        serial
            .steps()
            .iter()
            .map(|ss| ScheduledStep {
                txn: if ss.txn == TxnId(0) {
                    cert.txn_a
                } else {
                    cert.txn_b
                },
                step: ss.step,
            })
            .collect(),
    );
    assert_eq!(
        cert.verify(&sys),
        Err(CertificateError::ScheduleSerializable)
    );
}

#[test]
fn empty_dominator_rejected() {
    let (sys, mut cert) = unsafe_cert();
    cert.dominator.clear();
    assert_eq!(cert.verify(&sys), Err(CertificateError::BadDominator));
}

#[test]
fn full_dominator_rejected() {
    let (sys, mut cert) = unsafe_cert();
    cert.dominator = sys.shared_locked_entities(cert.txn_a, cert.txn_b);
    assert_eq!(cert.verify(&sys), Err(CertificateError::BadDominator));
}

#[test]
fn foreign_entity_dominator_rejected() {
    let (sys, mut cert) = unsafe_cert();
    // An entity id beyond the shared set.
    cert.dominator = vec![kplock::model::EntityId(999)];
    assert_eq!(cert.verify(&sys), Err(CertificateError::BadDominator));
}

#[test]
fn bogus_extension_rejected() {
    let (sys, mut cert) = unsafe_cert();
    cert.t1_order.swap(0, 1); // Lx before its own site's earlier step
                              // Either it stops being a linear extension, or if steps were
                              // concurrent the certificate may still pass — fig1's first two steps
                              // are chained, so it must fail.
    assert_eq!(
        cert.verify(&sys),
        Err(CertificateError::NotALinearExtension(cert.txn_a))
    );
}

#[test]
fn duplicated_step_rejected() {
    let (sys, mut cert) = unsafe_cert();
    let first = cert.schedule.steps()[0];
    let mut steps = cert.schedule.steps().to_vec();
    steps.push(first);
    cert.schedule = Schedule::new(steps);
    assert!(matches!(
        cert.verify(&sys),
        Err(CertificateError::BadSchedule(_))
    ));
}

#[test]
fn a_transaction_the_system_lacks_is_an_error() {
    let (sys, mut cert) = unsafe_cert();
    cert.txn_b = TxnId(2);
    assert_eq!(
        cert.verify(&sys),
        Err(CertificateError::UnknownTxn(TxnId(2)))
    );
    cert.txn_a = TxnId(7);
    assert_eq!(
        cert.verify(&sys),
        Err(CertificateError::UnknownTxn(TxnId(7)))
    );
}

/// A system that is the pair is checked as it stands, any other through a
/// copy of the pair: the same certificate passes either way.
#[test]
fn a_pair_inside_a_larger_system_verifies_as_the_pair_itself() {
    let (pair, cert) = unsafe_cert();
    let [t1, t2] = [pair.txn(TxnId(0)).clone(), pair.txn(TxnId(1)).clone()];
    let sys = TxnSystem::new(pair.db().clone(), vec![t2, t1.clone(), t1]);
    let rename = |t: TxnId| if t == TxnId(0) { TxnId(2) } else { TxnId(0) };
    let embedded = decide_two_site(&sys, TxnId(2), TxnId(0)).unwrap();
    let embedded = embedded.certificate().expect("the pair is unsafe");
    embedded.verify(&sys).expect("verifies through the copy");
    assert_eq!(
        (&embedded.t1_order, &embedded.t2_order, &embedded.dominator),
        (&cert.t1_order, &cert.t2_order, &cert.dominator)
    );
    let renamed: Vec<ScheduledStep> = cert
        .schedule
        .steps()
        .iter()
        .map(|ss| ScheduledStep {
            txn: rename(ss.txn),
            step: ss.step,
        })
        .collect();
    assert_eq!(embedded.schedule.steps(), renamed.as_slice());
}
