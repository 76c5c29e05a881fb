//! Run metrics.

use crate::event::SimTime;

/// Counters collected during a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Committed transactions.
    pub committed: usize,
    /// Aborted instances (each restart counts one abort).
    pub aborts: usize,
    /// Total messages delivered.
    pub messages: u64,
    /// Total ticks instances spent queued for locks.
    pub lock_wait_ticks: u64,
    /// Lock requests serviced by sites (granted, queued, or rejected —
    /// every live `LockRequest` a table processed, across all epochs).
    /// The per-shard work hierarchical granularity trades away: a coarse
    /// parent lock replaces one request per touched child.
    pub lock_requests: u64,
    /// Deadlock cycles resolved.
    pub deadlocks_resolved: usize,
    /// Probe messages sent site-to-site ([`crate::DeadlockDetection::Probe`]
    /// only) — the network cost of *distributed* detection. These are
    /// **included** in [`Metrics::messages`] (every wire message is), so
    /// this counter isolates the detection share: coordinator↔site data
    /// traffic is `messages - probe_messages`; do not sum the two.
    pub probe_messages: u64,
    /// Searches launched by newly appeared wait-edges
    /// ([`crate::DeadlockDetection::Probe`] only): one per waiter per
    /// observed change of an entity's edge set. The re-chases an abort
    /// order starts are further generations of the search that produced
    /// the order, not counted again — so `probe_messages /
    /// probe_initiations` is what one new wait costs on the wire, all
    /// told.
    pub probe_initiations: u64,
    /// Cycle closes reported by probes — abort orders sent. Several
    /// searches close the same cycle and one abort breaks many, so
    /// `probe_closes / deadlocks_resolved` is how many orders the
    /// coordinators received per abort they executed.
    pub probe_closes: u64,
    /// Total ticks between a cycle forming and the victim's abort
    /// executing, summed over resolved deadlocks. Under
    /// [`crate::DeadlockDetection::Probe`] the cycle is attributed to the
    /// *latest* appearance tick among its traversed wait-edges (each site
    /// timestamps its own edges; probes carry the running maximum), so an
    /// earlier-launched probe that closes a cycle in flight no longer
    /// charges the cycle for ticks before its last edge existed. Under
    /// `Periodic` and `OnBlock` formation is approximated by the youngest
    /// wait among the cycle's members — so `OnBlock` reads ~0 for
    /// block-formed cycles (resolved in their formation tick) but can
    /// overcount cycles formed by grant retargeting, whose members began
    /// waiting earlier. Expected magnitudes: ~0 for `OnBlock`, up to a
    /// scan interval for `Periodic`, roughly one network hop per cycle
    /// edge plus the abort order's hop for `Probe`.
    pub detection_latency_ticks: u64,
    /// Restarts ordered by a *prevention* scheme
    /// ([`crate::DeadlockResolution::Prevent`]): wait-die/no-wait
    /// rejections plus wound-wait wounds. Counted separately from
    /// deadlock-detection aborts — prevention trades exactly these
    /// restarts for the detector's probe messages and scan latency; both
    /// are included in [`Metrics::aborts`].
    pub prevention_restarts: usize,
    /// Probe-ordered aborts whose victim was no longer on any wait-for
    /// cycle when the abort executed. Only populated when
    /// [`crate::SimConfig::invariant_audit`] is on; see that flag for why
    /// this is measurement, not protocol.
    pub phantom_probe_aborts: usize,
    /// Wire messages that never arrived: dropped by seeded loss
    /// ([`crate::fault::FaultPlan::loss`]) or addressed to a site that
    /// was down when they landed. A dropped message was still *sent* —
    /// it is included in [`Metrics::messages`], like every wire message.
    pub messages_dropped: u64,
    /// Extra copies injected by seeded duplication
    /// ([`crate::fault::FaultPlan::duplication`]). The copies are not
    /// separately counted in [`Metrics::messages`] (the sender paid for
    /// one send); this counter is the duplication overhead itself.
    pub messages_duplicated: u64,
    /// Acquire/release wire traffic: `LockRequest`, `LockGranted`,
    /// `LockRejected`, `UnlockRequest`, `UnlockDone`, `Revoke` and
    /// `RevokeAck` messages actually sent. A **subset** of
    /// [`Metrics::messages`] (which also counts updates, probes, wounds
    /// and aborts) — this is the quantity delegated ownership
    /// ([`crate::Delegation::On`]) reduces, and the one the D7 table and
    /// the `tests/sim_regression.rs` pins compare across modes. Cache-hit
    /// operations contribute zero here by construction.
    pub lock_traffic: u64,
    /// Unlock steps served from the coordinator's delegated cache
    /// ([`crate::Delegation::On`]): zero messages crossed the wire
    /// and no site table was consulted. Not counted in
    /// [`Metrics::lock_requests`] — no site serviced anything.
    pub cache_hits: u64,
    /// Revocations initiated by sites: a conflicting request demanded an
    /// entity whose grant was delegated, so a [`crate::Payload::Revoke`]
    /// was first sent (retransmissions of a still-pending revocation are
    /// not re-counted; they are still wire messages).
    pub revocations: u64,
    /// Wire messages the delegated cache avoided: 2 per cache-hit step
    /// (the request and its ack) minus any ack a drain piggybacked. A
    /// derived what-if counter — *not* included in [`Metrics::messages`],
    /// which only ever counts messages actually sent.
    pub messages_saved: u64,
    /// Holders that lost a lock to an outage: their lease
    /// ([`kplock_dlm::Lease`]) expired before the site recovered, so the
    /// rebuilt table excludes them and their instances are aborted.
    pub leases_expired: usize,
    /// Completed site recoveries (one per [`crate::fault::SiteCrash`]
    /// whose outage ended within the run).
    pub recoveries: usize,
    /// Transactions covered by the avoidance certificate
    /// ([`crate::DeadlockResolution::Avoid`]): admitted under the safe
    /// lock order, so they can never deadlock, never restart and generate
    /// zero deadlock-handling messages. Set once at run start from the
    /// plan; zero on every other arm.
    pub avoid_certified: usize,
    /// Transactions *outside* the avoidance certificate, metered by the
    /// wound-wait fallback instead (their restarts land in
    /// [`Metrics::prevention_restarts`]). Set once at run start; zero on
    /// every other arm. `avoid_certified + avoid_fallbacks` equals the
    /// declared transaction count of an Avoid run.
    pub avoid_fallbacks: usize,
    /// Completion time of the last commit.
    pub makespan: SimTime,
    /// Total simulated time the run observed: equal to `makespan` for
    /// [`crate::RunOutcome::Completed`] runs, the `max_time` budget for
    /// timeouts, and the drain tick for stalls. This is the honest
    /// throughput denominator — a timed-out run whose tail committed
    /// nothing used all its time, not just the slice up to its last
    /// commit.
    pub elapsed_ticks: SimTime,
}

impl Metrics {
    /// Throughput in commits per kilotick of *elapsed* simulated time.
    ///
    /// Dividing by `makespan` (the last commit tick) inflated throughput
    /// for `TimedOut` runs, whose unproductive tail vanished from the
    /// denominator; `elapsed_ticks` charges the whole observed time. For
    /// completed runs the two are equal. Falls back to `makespan` when
    /// `elapsed_ticks` is zero (hand-built metrics).
    pub fn throughput_per_kilotick(&self) -> f64 {
        let denom = if self.elapsed_ticks > 0 {
            self.elapsed_ticks
        } else {
            self.makespan
        };
        if denom == 0 {
            0.0
        } else {
            self.committed as f64 * 1000.0 / denom as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput() {
        let m = Metrics {
            committed: 10,
            makespan: 2000,
            ..Default::default()
        };
        assert!((m.throughput_per_kilotick() - 5.0).abs() < 1e-9);
        assert_eq!(Metrics::default().throughput_per_kilotick(), 0.0);
    }

    #[test]
    fn throughput_charges_elapsed_time_not_last_commit() {
        // A timed-out run: last commit at tick 2000, but the run burned
        // 10_000 ticks. The old makespan denominator said 5 commits per
        // kilotick; the elapsed denominator says 1.
        let m = Metrics {
            committed: 10,
            makespan: 2000,
            elapsed_ticks: 10_000,
            ..Default::default()
        };
        assert!((m.throughput_per_kilotick() - 1.0).abs() < 1e-9);
        // Completed runs set elapsed == makespan, preserving the old
        // reading exactly.
        let m = Metrics {
            committed: 10,
            makespan: 2000,
            elapsed_ticks: 2000,
            ..Default::default()
        };
        assert!((m.throughput_per_kilotick() - 5.0).abs() < 1e-9);
    }
}
