//! Distributed probe-based deadlock detection (Chandy–Misra–Haas
//! edge-chasing).
//!
//! Under [`crate::DeadlockDetection::Probe`] no process ever sees a global
//! wait-for graph. Each site knows exactly the wait-for edges its own lock
//! table induces ([`kplock_dlm::QueueTable::waits_of`]), and deadlocks are found
//! by *probe* messages chasing those edges across the latency-modelled
//! network:
//!
//! 1. **Initiation.** Whenever an entity's local wait-edge set changes
//!    (a request blocks, a release retargets the remaining waiters onto a
//!    new holder, an abort cancels waits), the site diffs the new edge set
//!    against what it last saw ([`SiteProbeState`]) and launches one probe
//!    per *newly appeared* edge `(w, h)`: `path = [w, h]`, initiator `w`.
//! 2. **Forwarding.** A probe examining instance `t` must reach the sites
//!    where `t` might be blocked. Sites know the static catalog — which
//!    entities a transaction locks and where they live
//!    ([`kplock_model::Database::site_of`]) — so the probe is forwarded to
//!    every site hosting an entity of `t`'s lock set. The receiving site
//!    consults only its local table: for each local edge `t → h'` it
//!    extends the path and forwards again.
//! 3. **Detection.** When a local edge points back at the probe's
//!    initiator, the path is a wait-for cycle assembled purely from
//!    site-local observations. The closing site picks the victim from the
//!    path (same [`crate::VictimPolicy`] as the centralized schemes, using
//!    the birth timestamps carried in the probe) and sends an abort
//!    message to the victim's coordinator.
//! 4. **Termination.** A probe is dropped when its target instance is
//!    stale (the epoch in the probe no longer matches), or when the next
//!    hop is already on the path (a cycle not through the initiator: the
//!    member whose edge completed *that* cycle chases it with its own
//!    probe). Paths grow strictly, so every chase ends within
//!    `#transactions` hops.
//!
//! Compared with the global-view schemes this buys honesty at a price the
//! metrics now expose: [`crate::Metrics::probe_messages`] counts the extra
//! network traffic, and [`crate::Metrics::detection_latency_ticks`] the
//! ticks between a cycle-closing edge appearing and the victim's abort —
//! one network hop per cycle edge, instead of zero (`OnBlock`) or a scan
//! interval (`Periodic`).
//!
//! The guarantees mirror Chandy–Misra–Haas: under two-phase workloads
//! (no lock released while any lock request is pending) every cycle's
//! final edge launches a probe that closes, and every closed path was a
//! genuine cycle. Non-two-phase workloads can release locks while blocked
//! elsewhere, so — exactly like the periodic scan reading transient table
//! state — a probe can report a *phantom* cycle whose edges never
//! coexisted; victims are validated against instance epochs before the
//! abort executes to keep over-aborts to cycles that were real when
//! observed.

use crate::config::VictimPolicy;
use crate::event::{Instance, SimTime};
use kplock_model::EntityId;
use std::collections::HashMap;

/// Timing facts about one instance, piggybacked on probes the way real
/// edge-chasing protocols carry priorities, so the cycle-closing site can
/// apply the victim policy without consulting any central state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stamp {
    /// When the instance last (re)started.
    pub started_at: SimTime,
    /// Original start `(time, txn_index)`; survives restarts (the
    /// Rosenkrantz–Stearns–Lewis age that keeps oldest-victim live).
    pub birth: (SimTime, usize),
}

/// A Chandy–Misra–Haas probe in flight between sites.
///
/// `path[0]` is the initiator (the waiter whose new edge launched the
/// probe); `path.last()` is the instance whose local wait-edges the
/// receiving site must examine. Instances on the path are distinct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeMsg {
    /// The wait-for chain assembled so far, initiator first.
    pub path: Vec<Instance>,
    /// One [`Stamp`] per path member, for victim selection at the close.
    pub stamps: Vec<Stamp>,
    /// The latest appearance tick among the wait-edges traversed so far
    /// (each site timestamps its own edges in [`SiteProbeState`]; every
    /// hop maxes the traversed edge's tick in). A cycle cannot predate
    /// its last-formed edge, so if this probe closes, this is the cycle's
    /// formation time — detection latency is measured from here. Without
    /// the running maximum, an earlier-launched probe that closed a cycle
    /// in flight attributed the whole cycle to its own (earlier) launch
    /// tick and overcounted.
    pub formed_at: SimTime,
}

impl ProbeMsg {
    /// The initiator: the waiter this probe is chasing a cycle back to.
    pub fn initiator(&self) -> Instance {
        self.path[0]
    }

    /// The instance whose local wait-edges the receiver examines.
    pub fn target(&self) -> Instance {
        *self.path.last().expect("probe path is never empty")
    }

    /// Extends the chase by one hop over an edge that appeared at
    /// `edge_appeared`, keeping [`ProbeMsg::formed_at`] the maximum over
    /// the path's edges.
    pub fn extend(&self, next: Instance, stamp: Stamp, edge_appeared: SimTime) -> ProbeMsg {
        let mut path = self.path.clone();
        path.push(next);
        let mut stamps = self.stamps.clone();
        stamps.push(stamp);
        ProbeMsg {
            path,
            stamps,
            formed_at: self.formed_at.max(edge_appeared),
        }
    }
}

/// Applies a [`VictimPolicy`] to a cycle's members. Pure and
/// rotation-invariant: every site closing the same cycle — whatever hop it
/// entered at — picks the same victim, so duplicate closes collapse onto
/// one abort. Shared by the probe path and the centralized detectors so
/// all three schemes kill identically.
///
/// # Panics
/// Panics if `members` is empty or the lengths differ.
pub fn choose_victim(policy: VictimPolicy, members: &[Instance], stamps: &[Stamp]) -> Instance {
    assert_eq!(members.len(), stamps.len(), "one stamp per member");
    let zipped = members.iter().copied().zip(stamps.iter().copied());
    match policy {
        VictimPolicy::Youngest => {
            zipped
                .max_by_key(|&(_, s)| (s.started_at, s.birth))
                .expect("cycle nonempty")
                .0
        }
        VictimPolicy::Oldest => {
            zipped
                .min_by_key(|&(_, s)| s.birth)
                .expect("cycle nonempty")
                .0
        }
    }
}

/// Per-site probe bookkeeping: the wait-edge sets this site last observed
/// for its own entities — each edge tagged with the tick it appeared — so
/// edge *appearances* (the probe triggers) and their timestamps (the
/// detection-latency anchors) come from local diffing, never from any
/// global view.
/// A live wait-edge `(waiter, holder)` with the tick it appeared.
type StampedEdge = ((Instance, Instance), SimTime);

#[derive(Clone, Debug, Default)]
pub struct SiteProbeState {
    known: HashMap<EntityId, Vec<StampedEdge>>,
}

impl SiteProbeState {
    /// Creates empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the recorded edge set for `e` with `edges` (the site's
    /// current `entity_waits_for(e)`, observed at tick `now`) and returns
    /// the edges that are new — each one launches a probe. Surviving edges
    /// keep their original appearance tick; new ones are stamped `now`.
    /// Removals need no probes: a vanished edge can only shrink the
    /// wait-for graph.
    pub fn observe(
        &mut self,
        e: EntityId,
        edges: Vec<(Instance, Instance)>,
        now: SimTime,
    ) -> Vec<(Instance, Instance)> {
        let old = self.known.remove(&e).unwrap_or_default();
        let fresh: Vec<(Instance, Instance)> = edges
            .iter()
            .copied()
            .filter(|edge| !old.iter().any(|&(oe, _)| oe == *edge))
            .collect();
        if !edges.is_empty() {
            let stamped = edges
                .into_iter()
                .map(|edge| {
                    let at = old
                        .iter()
                        .find(|&&(oe, _)| oe == edge)
                        .map_or(now, |&(_, t)| t);
                    (edge, at)
                })
                .collect();
            self.known.insert(e, stamped);
        }
        fresh
    }

    /// When the wait-edge `(w, h)` appeared at this site, if it is live:
    /// the earliest appearance tick over the entities inducing it (the
    /// wait has existed since the first of them). This is the site-local
    /// answer a probe needs to attribute a cycle to its last-formed edge.
    pub fn appeared_at(&self, w: Instance, h: Instance) -> Option<SimTime> {
        self.known
            .values()
            .flatten()
            .filter(|&&(edge, _)| edge == (w, h))
            .map(|&(_, t)| t)
            .min()
    }

    /// Forgets the recorded edge set for `e` alone, so the next
    /// [`SiteProbeState::observe`] reports every live edge as new again —
    /// re-launching their probes. The fault-injection engine calls this
    /// when a *retransmitted* blocked request arrives: the retry is
    /// evidence the waiter is still stuck, and any probe its edge
    /// launched may have been lost on the wire, so the edge must be
    /// re-chased (see ARCHITECTURE.md §7).
    pub fn forget(&mut self, e: EntityId) {
        self.known.remove(&e);
    }

    /// Forgets everything (a fresh run — or a site crash wiping the
    /// site's volatile state alongside its lock table).
    pub fn clear(&mut self) {
        self.known.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_model::TxnId;

    fn inst(t: u32) -> Instance {
        Instance {
            txn: TxnId(t),
            epoch: 0,
        }
    }

    fn stamp(started_at: SimTime, idx: usize) -> Stamp {
        Stamp {
            started_at,
            birth: (0, idx),
        }
    }

    #[test]
    fn probe_accessors_and_extension() {
        let p = ProbeMsg {
            path: vec![inst(0), inst(1)],
            stamps: vec![stamp(0, 0), stamp(5, 1)],
            formed_at: 42,
        };
        assert_eq!(p.initiator(), inst(0));
        assert_eq!(p.target(), inst(1));
        // Extending over an *older* edge keeps the later formation tick…
        let q = p.extend(inst(2), stamp(9, 2), 10);
        assert_eq!(q.target(), inst(2));
        assert_eq!(q.initiator(), inst(0));
        assert_eq!(q.formed_at, 42);
        assert_eq!(q.stamps.len(), 3);
        // …and a *younger* edge advances it: the cycle cannot predate its
        // last-formed edge.
        let r = p.extend(inst(2), stamp(9, 2), 55);
        assert_eq!(r.formed_at, 55);
        // The original is untouched (probes fan out).
        assert_eq!(p.path.len(), 2);
    }

    #[test]
    fn victim_choice_is_rotation_invariant() {
        let members = [inst(0), inst(1), inst(2)];
        let stamps = [stamp(10, 0), stamp(30, 1), stamp(20, 2)];
        let rotate = |k: usize| {
            let m: Vec<_> = (0..3).map(|i| members[(i + k) % 3]).collect();
            let s: Vec<_> = (0..3).map(|i| stamps[(i + k) % 3]).collect();
            (m, s)
        };
        for k in 0..3 {
            let (m, s) = rotate(k);
            assert_eq!(choose_victim(VictimPolicy::Youngest, &m, &s), inst(1));
            assert_eq!(choose_victim(VictimPolicy::Oldest, &m, &s), inst(0));
        }
    }

    #[test]
    fn oldest_uses_birth_not_restart_age() {
        // Instance 0 restarted recently (large started_at) but was born
        // *after* instance 1. Oldest kills by birth (the longest-running
        // transaction), Youngest by the latest restart — so they disagree
        // exactly when a victim has been restarted.
        let members = [inst(0), inst(1)];
        let stamps = [
            Stamp {
                started_at: 100,
                birth: (5, 0),
            },
            Stamp {
                started_at: 50,
                birth: (0, 1),
            },
        ];
        assert_eq!(
            choose_victim(VictimPolicy::Oldest, &members, &stamps),
            inst(1)
        );
        assert_eq!(
            choose_victim(VictimPolicy::Youngest, &members, &stamps),
            inst(0)
        );
    }

    #[test]
    fn observe_reports_only_new_edges() {
        let e = EntityId(0);
        let mut st = SiteProbeState::new();
        let new = st.observe(e, vec![(inst(1), inst(0))], 5);
        assert_eq!(new, vec![(inst(1), inst(0))]);
        // Same set again: nothing new.
        assert!(st.observe(e, vec![(inst(1), inst(0))], 7).is_empty());
        // One surviving edge, one new one: only the new one reported.
        let new = st.observe(e, vec![(inst(1), inst(0)), (inst(2), inst(0))], 9);
        assert_eq!(new, vec![(inst(2), inst(0))]);
        // Clearing an entity, then re-adding an old edge: it is new again
        // (the wait was re-established and must be re-chased).
        assert!(st.observe(e, vec![], 11).is_empty());
        let new = st.observe(e, vec![(inst(1), inst(0))], 13);
        assert_eq!(new, vec![(inst(1), inst(0))]);
    }

    #[test]
    fn observe_timestamps_survive_and_reset_with_their_edges() {
        let e = EntityId(0);
        let mut st = SiteProbeState::new();
        st.observe(e, vec![(inst(1), inst(0))], 5);
        assert_eq!(st.appeared_at(inst(1), inst(0)), Some(5));
        // A surviving edge keeps its original appearance tick across
        // re-observations…
        st.observe(e, vec![(inst(1), inst(0)), (inst(2), inst(0))], 9);
        assert_eq!(st.appeared_at(inst(1), inst(0)), Some(5));
        assert_eq!(st.appeared_at(inst(2), inst(0)), Some(9));
        // …a vanished edge forgets it…
        st.observe(e, vec![(inst(2), inst(0))], 11);
        assert_eq!(st.appeared_at(inst(1), inst(0)), None);
        // …and a re-established wait is a fresh edge with a fresh tick.
        st.observe(e, vec![(inst(1), inst(0)), (inst(2), inst(0))], 13);
        assert_eq!(st.appeared_at(inst(1), inst(0)), Some(13));
    }

    #[test]
    fn appeared_at_takes_the_earliest_inducing_entity() {
        // The same (waiter, holder) pair induced by two entities at
        // different ticks: the wait has existed since the first.
        let mut st = SiteProbeState::new();
        let (a, b) = (EntityId(0), EntityId(1));
        st.observe(a, vec![(inst(1), inst(0))], 20);
        st.observe(b, vec![(inst(1), inst(0))], 10);
        assert_eq!(st.appeared_at(inst(1), inst(0)), Some(10));
    }

    #[test]
    fn forget_makes_live_edges_new_again() {
        let (a, b) = (EntityId(0), EntityId(1));
        let mut st = SiteProbeState::new();
        st.observe(a, vec![(inst(1), inst(0))], 5);
        st.observe(b, vec![(inst(2), inst(0))], 6);
        // Re-observing the same edge is quiet…
        assert!(st.observe(a, vec![(inst(1), inst(0))], 7).is_empty());
        // …until the entity is forgotten: the edge re-chases with a fresh
        // appearance tick, and other entities are untouched.
        st.forget(a);
        let fresh = st.observe(a, vec![(inst(1), inst(0))], 9);
        assert_eq!(fresh, vec![(inst(1), inst(0))]);
        assert_eq!(st.appeared_at(inst(1), inst(0)), Some(9));
        assert!(st.observe(b, vec![(inst(2), inst(0))], 9).is_empty());
    }

    #[test]
    fn observe_tracks_entities_independently() {
        let mut st = SiteProbeState::new();
        let (a, b) = (EntityId(0), EntityId(1));
        st.observe(a, vec![(inst(1), inst(0))], 1);
        // The same owner pair on another entity is a distinct local edge.
        let new = st.observe(b, vec![(inst(1), inst(0))], 2);
        assert_eq!(new, vec![(inst(1), inst(0))]);
        st.clear();
        assert_eq!(st.observe(a, vec![(inst(1), inst(0))], 3).len(), 1);
        assert_eq!(st.appeared_at(inst(1), inst(0)), Some(3));
    }
}
