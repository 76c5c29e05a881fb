//! Distributed probe-based deadlock detection (Chandy–Misra–Haas
//! edge-chasing).
//!
//! Under [`crate::DeadlockDetection::Probe`] no process ever sees a global
//! wait-for graph. Each site knows exactly the wait-for edges its own lock
//! table induces, and deadlocks are found by *probe* messages chasing
//! those edges across the latency-modelled network:
//!
//! 1. **Initiation.** Whenever an entity's local wait-edge set changes
//!    (a request blocks, a release retargets the remaining waiters onto a
//!    new holder, an abort cancels waits), the site diffs the new edge set
//!    against what it last saw ([`SiteProbeState`]) and launches one probe
//!    per *newly appeared* edge `(w, h)`: `path = [w, h]`, initiator `w`.
//!    The new edges of one waiter are one search: their probes share one
//!    [`ChaseId`].
//! 2. **Forwarding.** A probe examining instance `t` must reach the sites
//!    where `t` might be blocked. Sites know the static catalog — which
//!    entities a transaction locks and where they live
//!    ([`kplock_model::Database::site_of`]) — so the probe is forwarded to
//!    every site hosting an entity of `t`'s lock set; the copies share
//!    one path behind a reference count. The receiving site consults only
//!    its local state: its own record of the entities where `t` queued,
//!    each confirmed against its table (a crash wipes the table's waits
//!    but keeps the record), gives `t`'s local edges `t → h'` —
//!    [`kplock_dlm::QueueTable::waits_of`]'s answer, ascending, without
//!    walking the table's other waiters. For each it builds the extended
//!    path once and forwards again.
//! 3. **Detection.** When a local edge points back at the probe's
//!    initiator, the path is a wait-for cycle assembled purely from
//!    site-local observations. The closing site picks the victim from the
//!    path (same [`crate::VictimPolicy`] as the centralized schemes, using
//!    the birth timestamps carried in the probe) and sends an abort
//!    message to the victim's coordinator. The path is never empty: it
//!    starts at the initiator ([`ProbeMsg::new`]) and only grows.
//! 4. **Termination.** Every initiation is named by a [`ChaseId`] that is
//!    never reused, and one id covers all the edges of one waiter that
//!    appeared in one observation. A probe is dropped when its initiator
//!    or its target is stale (the epoch in the probe no longer matches) or
//!    its initiator has committed, and — the bound — when the receiving
//!    site has already *examined* that target under that id; a site that
//!    has already *routed* a target under an id does not route it again
//!    ([`SiteProbeState::mark`]). A chase is therefore a breadth-first
//!    search: each site examines each transaction at most once and sends
//!    it onward at most once, so a chase costs at most
//!    `#transactions × #sites` messages from each site instead of one per
//!    simple path out of the initiator. The marks cannot go stale: an id
//!    is `(origin site, boot, sequence number, generation)`, the sequence
//!    number counts up within a boot and a crash — which wipes the marks
//!    and the counter alike — bumps the boot, so no later search is ever
//!    mistaken for one a site remembers; and a site drops an initiator's
//!    marks when that instance aborts or commits, after which the first
//!    clause of this rule drops whatever of its chases is still on the
//!    wire.
//! 5. **Re-chase on resolution.** The first path to reach a transaction
//!    wins and later ones are dropped, so one search reports *a* cycle
//!    through every edge pointing back at its initiator, not every cycle.
//!    That alone would lose deadlocks. When the last-formed edge `(w, h)`
//!    closes two cycles at once — `w → h → a → c → w` and
//!    `w → h → b → c → w` — the search reaches `c` once, say through `a`,
//!    and orders `a` aborted; the second cycle stays, and no edge of it is
//!    new, so nothing would ever chase it. Likewise when the one order a
//!    search produced is dropped at the victim's coordinator because a
//!    path member has moved on, while another cycle through `w` — the one
//!    the dropped path shadowed — is intact. So the abort order carries
//!    its search's id, and the victim's coordinator, whether it executes
//!    the order or drops it, starts the search again from the initiator
//!    if that instance is still live and uncommitted: a probe `[w]` under
//!    the same id at the next *generation*, sent to `w`'s sites. Every
//!    order of one generation names the same next generation, so their
//!    re-chases collapse in the marks like any duplicate. Completeness is
//!    then an induction on generations: a cycle that stays intact is
//!    reachable from its last-formed edge's initiator `w` in every
//!    generation, so each generation closes at the member that waits on
//!    `w` and produces an order; an executed order aborts a member of a
//!    real cycle and a dropped one means some transaction moved, and
//!    either way the next generation searches what is left. The chain
//!    ends when `w` aborts or commits, or when a generation finds no way
//!    back to `w` — no cycle through `w` exists.
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
use kplock_model::{EntityId, IdMap, SiteId, TxnId};
use std::rc::Rc;

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

/// The name of one search for cycles through one waiter, never reused
/// within a run: what a site's marks are filed under (module doc, rules 4
/// and 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChaseId {
    /// The site whose new wait-edge launched the search.
    pub origin: SiteId,
    /// That site's boot epoch at the launch. A crash wipes the site's
    /// sequence counter with the rest of its probe memory; the boot keeps
    /// the ids of its next life apart from those of the last.
    pub boot: u32,
    /// The launch's number within that boot ([`SiteProbeState::next_seq`]).
    pub seq: u32,
    /// 0 for the search the edge launched; each re-chase from a victim's
    /// coordinator searches again under the next one.
    pub generation: u32,
}

impl ChaseId {
    /// The id every abort order of this generation re-chases under.
    pub fn next_generation(self) -> ChaseId {
        ChaseId {
            generation: self.generation + 1,
            ..self
        }
    }
}

/// A Chandy–Misra–Haas probe in flight between sites.
///
/// The path starts at the initiator (the waiter whose new edge launched
/// the search) and ends at the instance whose local wait-edges the
/// receiving site must examine. Each member travels with its [`Stamp`],
/// for victim selection at the close. A re-chase starts from the path
/// `[initiator]`; every other path is a chain of wait-edges, each seen by
/// the site that extended it, and its instances are distinct.
///
/// The path is built only by [`ProbeMsg::new`] and [`ProbeMsg::extend`],
/// so it is never empty, and it is shared: a probe fanned out to several
/// sites is one path behind a reference count, and a hop builds its
/// extended path once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeMsg {
    /// The wait-for chain assembled so far, initiator first.
    path: Rc<[(Instance, Stamp)]>,
    /// The latest appearance tick among the wait-edges traversed so far
    /// (each site timestamps its own edges in [`SiteProbeState`]; every
    /// hop maxes the traversed edge's tick in). A cycle cannot predate
    /// its last-formed edge, so if this probe closes, this is the cycle's
    /// formation time — detection latency is measured from here. Without
    /// the running maximum, an earlier-launched probe that closed a cycle
    /// in flight attributed the whole cycle to its own (earlier) launch
    /// tick and overcounted.
    pub formed_at: SimTime,
    /// The search this probe belongs to.
    pub chase: ChaseId,
}

impl ProbeMsg {
    /// A probe whose path is the initiator alone, `initiator` stamped
    /// `stamp`: a re-chase as sent, or the start a search's first hop
    /// [`ProbeMsg::extend`]s.
    pub fn new(initiator: Instance, stamp: Stamp, formed_at: SimTime, chase: ChaseId) -> ProbeMsg {
        ProbeMsg {
            path: Rc::new([(initiator, stamp)]),
            formed_at,
            chase,
        }
    }

    /// The wait-for chain, initiator first, target last; never empty.
    pub fn path(&self) -> &[(Instance, Stamp)] {
        &self.path
    }

    /// The initiator: the waiter this probe is chasing a cycle back to.
    pub fn initiator(&self) -> Instance {
        self.path[0].0
    }

    /// The instance whose local wait-edges the receiver examines.
    pub fn target(&self) -> Instance {
        self.path[self.path.len() - 1].0
    }

    /// Extends the chase by one hop over an edge that appeared at
    /// `edge_appeared`, keeping [`ProbeMsg::formed_at`] the maximum over
    /// the path's edges. `self` is left as it was (probes fan out).
    pub fn extend(&self, next: Instance, stamp: Stamp, edge_appeared: SimTime) -> ProbeMsg {
        let hop = std::iter::once((next, stamp));
        ProbeMsg {
            path: self.path.iter().copied().chain(hop).collect(),
            formed_at: self.formed_at.max(edge_appeared),
            chase: self.chase,
        }
    }
}

/// Applies a [`VictimPolicy`] to a cycle's members, `None` for an empty
/// cycle. Pure and rotation-invariant: every site closing the same cycle —
/// whatever hop it entered at — picks the same victim, so duplicate closes
/// collapse onto one abort. Shared by the probe path and the centralized
/// detectors so all three schemes kill identically.
pub fn choose_victim(policy: VictimPolicy, members: &[(Instance, Stamp)]) -> Option<Instance> {
    let members = members.iter().copied();
    let victim = match policy {
        VictimPolicy::Youngest => members.max_by_key(|&(_, s)| (s.started_at, s.birth)),
        VictimPolicy::Oldest => members.min_by_key(|&(_, s)| s.birth),
    };
    victim.map(|(inst, _)| inst)
}

/// A live wait-edge `(waiter, holder)` with the tick it appeared.
type StampedEdge = ((Instance, Instance), SimTime);

/// What a site records about a target under one [`ChaseId`]
/// ([`SiteProbeState::mark`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mark {
    /// This site has looked up the target's local wait-edges.
    Examined,
    /// This site has sent the target on to the sites of its lock set.
    Routed,
}

/// One site's marks for one search: two bits per transaction, the first
/// 32 transactions' in a word kept inline, so a batch of up to 32
/// allocates nothing for a new search.
#[derive(Clone, Debug)]
struct Marks {
    chase: ChaseId,
    first: u64,
    /// The words after the first, allocated only when a target needs one.
    rest: Vec<u64>,
}

/// Per-site probe bookkeeping: the wait-edge sets this site last observed
/// for its own entities — each edge tagged with the tick it appeared — so
/// edge *appearances* (the probe triggers) and their timestamps (the
/// detection-latency anchors) come from local diffing, never from any
/// global view; and, per search passing through, which transactions the
/// site has already examined and already routed.
#[derive(Clone, Debug, Default)]
pub struct SiteProbeState {
    known: IdMap<EntityId, Vec<StampedEdge>>,
    /// Every edge in `known` by its ends: one appearance tick per entity
    /// inducing it. Kept in step by `observe`, `forget` and `clear`.
    since: IdMap<(Instance, Instance), Vec<SimTime>>,
    /// The marks of every search this site has seen whose initiator has
    /// neither aborted nor committed, filed by the initiator's
    /// transaction index.
    chases: Vec<Vec<Marks>>,
    /// Searches launched since the last [`SiteProbeState::clear`].
    launched: u32,
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
        for &(edge, at) in &old {
            if !edges.contains(&edge) {
                self.unindex(edge, at);
            }
        }
        let mut fresh = Vec::new();
        let stamped: Vec<StampedEdge> = edges
            .into_iter()
            .map(|edge| match old.iter().find(|&&(oe, _)| oe == edge) {
                Some(&(_, at)) => (edge, at),
                None => {
                    fresh.push(edge);
                    self.since.entry(edge).or_default().push(now);
                    (edge, now)
                }
            })
            .collect();
        if !stamped.is_empty() {
            self.known.insert(e, stamped);
        }
        fresh
    }

    /// Takes one entity's appearance of `edge` at `at` out of the index.
    fn unindex(&mut self, edge: (Instance, Instance), at: SimTime) {
        let ticks = self.since.get_mut(&edge).expect("a known edge is indexed");
        let i = ticks.iter().position(|&t| t == at).expect("with its tick");
        ticks.swap_remove(i);
        if ticks.is_empty() {
            self.since.remove(&edge);
        }
    }

    /// When the wait-edge `(w, h)` appeared at this site, if it is live:
    /// the earliest appearance tick over the entities inducing it (the
    /// wait has existed since the first of them). This is the site-local
    /// answer a probe needs to attribute a cycle to its last-formed edge.
    pub fn appeared_at(&self, w: Instance, h: Instance) -> Option<SimTime> {
        self.since.get(&(w, h))?.iter().copied().min()
    }

    /// Forgets the recorded edge set for `e` alone, so the next
    /// [`SiteProbeState::observe`] reports every live edge as new again —
    /// re-launching their probes. The fault-injection engine calls this
    /// when a *retransmitted* blocked request arrives: the retry is
    /// evidence the waiter is still stuck, and any probe its edge
    /// launched may have been lost on the wire, so the edge must be
    /// re-chased (see ARCHITECTURE.md §7).
    pub fn forget(&mut self, e: EntityId) {
        for (edge, at) in self.known.remove(&e).unwrap_or_default() {
            self.unindex(edge, at);
        }
    }

    /// The number of the next search this site launches, counted from 0
    /// since the last [`SiteProbeState::clear`]; with the site and its
    /// boot epoch, a [`ChaseId`] no other search ever carries.
    pub fn next_seq(&mut self) -> u32 {
        let seq = self.launched;
        self.launched += 1;
        seq
    }

    /// Records `mark` for `target` under `chase`, a search for cycles
    /// through `initiator`. Returns whether the mark is new — `false`
    /// tells the caller this site has done that work for this search
    /// before and the probe in hand is a duplicate to drop.
    pub fn mark(&mut self, chase: ChaseId, initiator: TxnId, target: TxnId, mark: Mark) -> bool {
        if self.chases.len() <= initiator.idx() {
            self.chases.resize_with(initiator.idx() + 1, Vec::new);
        }
        let live = &mut self.chases[initiator.idx()];
        // The newest search is the likeliest to be asked about.
        let at = live.iter().rposition(|m| m.chase == chase);
        let at = at.unwrap_or_else(|| {
            live.push(Marks {
                chase,
                first: 0,
                rest: Vec::new(),
            });
            live.len() - 1
        });
        let marks = &mut live[at];
        let bit = 2 * target.idx() + usize::from(mark == Mark::Routed);
        let word = match bit / 64 {
            0 => &mut marks.first,
            w => {
                if marks.rest.len() < w {
                    marks.rest.resize(w, 0);
                }
                &mut marks.rest[w - 1]
            }
        };
        let mask = 1u64 << (bit % 64);
        let new = *word & mask == 0;
        *word |= mask;
        new
    }

    /// Drops the marks of every search through `initiator`: its instance
    /// aborted or committed, so whatever of those searches is still on the
    /// wire is dropped on arrival and will never ask.
    pub fn end_chases_of(&mut self, initiator: TxnId) {
        if let Some(live) = self.chases.get_mut(initiator.idx()) {
            live.clear();
        }
    }

    /// Forgets everything (a fresh run — or a site crash wiping the
    /// site's volatile state alongside its lock table).
    pub fn clear(&mut self) {
        self.known.clear();
        self.since.clear();
        self.chases.clear();
        self.launched = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn chase(seq: u32) -> ChaseId {
        ChaseId {
            origin: SiteId(0),
            boot: 0,
            seq,
            generation: 0,
        }
    }

    #[test]
    fn probe_accessors_and_extension() {
        let p = ProbeMsg::new(inst(0), stamp(0, 0), 42, chase(7));
        // A re-chase's path: the initiator is its own target.
        assert_eq!((p.initiator(), p.target()), (inst(0), inst(0)));
        assert_eq!(p.path(), [(inst(0), stamp(0, 0))]);
        let p = p.extend(inst(1), stamp(5, 1), 3);
        assert_eq!((p.initiator(), p.target()), (inst(0), inst(1)));
        // Extending over an *older* edge keeps the later formation tick…
        let q = p.extend(inst(2), stamp(9, 2), 10);
        assert_eq!(q.target(), inst(2));
        assert_eq!(q.initiator(), inst(0));
        assert_eq!(q.formed_at, 42);
        assert_eq!(q.chase, p.chase);
        // …and a *younger* edge advances it: the cycle cannot predate its
        // last-formed edge.
        let r = p.extend(inst(2), stamp(9, 2), 55);
        assert_eq!(r.formed_at, 55);
        // Hops append in order, initiator first.
        let s = q
            .extend(inst(3), stamp(1, 3), 0)
            .extend(inst(4), stamp(2, 4), 0);
        let members: Vec<Instance> = s.path().iter().map(|&(m, _)| m).collect();
        assert_eq!(members, [0, 1, 2, 3, 4].map(inst));
        assert_eq!(s.path()[3].1, stamp(1, 3));
        assert_eq!((s.initiator(), s.target()), (inst(0), inst(4)));
        // The originals are untouched (probes fan out), and a fanned-out
        // copy shares its path instead of copying it.
        assert_eq!(p.path(), [(inst(0), stamp(0, 0)), (inst(1), stamp(5, 1))]);
        assert_eq!(q.path().len(), 3);
        let fanned = q.clone();
        assert!(std::ptr::eq(fanned.path(), q.path()));
        assert_eq!(fanned, q);
    }

    #[test]
    fn victim_choice_is_rotation_invariant() {
        let members = [
            (inst(0), stamp(10, 0)),
            (inst(1), stamp(30, 1)),
            (inst(2), stamp(20, 2)),
        ];
        for k in 0..3 {
            let mut m = members;
            m.rotate_left(k);
            assert_eq!(choose_victim(VictimPolicy::Youngest, &m), Some(inst(1)));
            assert_eq!(choose_victim(VictimPolicy::Oldest, &m), Some(inst(0)));
        }
        // No members, no victim — and no panic.
        assert_eq!(choose_victim(VictimPolicy::Youngest, &[]), None);
        assert_eq!(choose_victim(VictimPolicy::Oldest, &[]), None);
    }

    #[test]
    fn oldest_uses_birth_not_restart_age() {
        // Instance 0 restarted recently (large started_at) but was born
        // *after* instance 1. Oldest kills by birth (the longest-running
        // transaction), Youngest by the latest restart — so they disagree
        // exactly when a victim has been restarted.
        let restarted = Stamp {
            started_at: 100,
            birth: (5, 0),
        };
        let elder = Stamp {
            started_at: 50,
            birth: (0, 1),
        };
        let members = [(inst(0), restarted), (inst(1), elder)];
        assert_eq!(choose_victim(VictimPolicy::Oldest, &members), Some(inst(1)));
        assert_eq!(
            choose_victim(VictimPolicy::Youngest, &members),
            Some(inst(0))
        );
    }

    #[test]
    fn a_mark_is_new_once_per_search_target_and_kind() {
        let mut st = SiteProbeState::new();
        let (w, t) = (TxnId(3), TxnId(70)); // a target past the first word
        assert!(st.mark(chase(0), w, t, Mark::Examined));
        assert!(!st.mark(chase(0), w, t, Mark::Examined));
        // Routing is its own mark, another target its own bit…
        assert!(st.mark(chase(0), w, t, Mark::Routed));
        assert!(!st.mark(chase(0), w, t, Mark::Routed));
        assert!(st.mark(chase(0), w, TxnId(0), Mark::Examined));
        // The inline word ends at target 31's routed bit; 32 opens the
        // first heap word.
        assert!(st.mark(chase(0), w, TxnId(31), Mark::Routed));
        assert!(st.mark(chase(0), w, TxnId(32), Mark::Examined));
        assert!(!st.mark(chase(0), w, TxnId(31), Mark::Routed));
        assert!(!st.mark(chase(0), w, TxnId(32), Mark::Examined));
        assert!(st.mark(chase(0), w, TxnId(32), Mark::Routed));
        // …and another search, or the same one a generation on, starts
        // with none.
        assert!(st.mark(chase(1), w, t, Mark::Examined));
        assert!(st.mark(chase(0).next_generation(), w, t, Mark::Examined));
        assert!(!st.mark(chase(0), w, t, Mark::Examined));
    }

    #[test]
    fn marks_end_with_their_initiator_and_ids_restart_only_on_clear() {
        let mut st = SiteProbeState::new();
        assert_eq!((st.next_seq(), st.next_seq()), (0, 1));
        st.mark(chase(0), TxnId(1), TxnId(2), Mark::Examined);
        st.mark(chase(1), TxnId(4), TxnId(2), Mark::Examined);
        // The initiator moved on: its searches are forgotten, others' kept
        // (a transaction nothing was ever filed under is fine too).
        st.end_chases_of(TxnId(1));
        st.end_chases_of(TxnId(9));
        assert!(st.mark(chase(0), TxnId(1), TxnId(2), Mark::Examined));
        assert!(!st.mark(chase(1), TxnId(4), TxnId(2), Mark::Examined));
        assert_eq!(st.next_seq(), 2);
        // A crash wipes marks and counter alike; the engine's boot epoch
        // is what keeps the next life's ids apart.
        st.clear();
        assert!(st.mark(chase(1), TxnId(4), TxnId(2), Mark::Examined));
        assert_eq!(st.next_seq(), 0);
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
