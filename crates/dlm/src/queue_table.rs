//! [`QueueTable`]: the lock table — reader–writer locks over one
//! partition of the entity space, FIFO wait queues, grants performed on
//! release, in an arena that allocates nothing in steady state.
//!
//! Each request is an **intrusive queue node** in a single arena, in the
//! style of MCS/CLH queue locks: addressed by `u32` slot id, threaded
//! through doubly-linked `prev`/`next` ids, and recycled through a free
//! list when released — so once the arenas are warm, the acquire → release
//! → grant hot path performs **zero heap allocations** (verified by the
//! counting-allocator test in `crates/dlm/tests/zero_alloc.rs`).
//!
//! Layout (one arena for nodes, one for entity states):
//!
//! ```text
//!  nodes: [ n0 | n1 | n2 | n3 | n4 | ... ]      free ──▶ n4 ──▶ ...
//!            ▲         ▲    │
//!            │prev/next│    │ (owner, mode, prev, next)
//!            ╰────═────╯    ▼
//!  estates: [ holders ⇄ … | queue ⇄ … | upgrades ⇄ … ]
//!               ▲ per-entity state, slot id recycled via efree
//!  slots:  EntityId ─▶ estate id      owned: O ─▶ [EntityId] (held)
//!  contended: [EntityId] with waiters   spare: emptied `owned` buffers
//! ```
//!
//! `owned` and `contended` are pure acceleration — [`QueueTable::held_by`]
//! is O(held), and [`QueueTable::waits_for`] / [`QueueTable::waits_of`] /
//! [`QueueTable::cancel_waits`] visit only entities that have waiters
//! ([`QueueTable::waits_at_into`] asks one entity).
//! Every result is what a scan of all entities would return (the
//! differential proptests in `tests/table_equivalence.rs` and
//! `tests/lattice_props.rs` hold the table to a scan-only reference
//! model), and [`QueueTable::check_invariants`] verifies both indexes
//! wholesale. The protocol itself is specified in [`crate::table`].

use crate::admission;
use crate::error::LockError;
use crate::prevent::{PreventionOutcome, PreventionScheme, Priority};
use crate::table::{Acquire, CancelOutcome, EntityGrants, Grants};
use kplock_model::{EntityId, IdMap, LockMode};
use std::hash::Hash;

/// Sentinel "null" slot id for intrusive links.
const NIL: u32 = u32::MAX;

/// One arena-allocated request node: an (owner, mode) pair threaded into
/// exactly one of its entity's intrusive lists (holders, queue, or
/// upgrades) — or into the global free list via `next`.
#[derive(Clone, Copy, Debug)]
struct Node<O> {
    owner: O,
    mode: LockMode,
    prev: u32,
    next: u32,
}

/// An intrusive doubly-linked list: head/tail slot ids plus a length so
/// emptiness and count checks never walk the chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct List {
    head: u32,
    tail: u32,
    len: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// Which of an entity's three lists an operation targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Part {
    Holders,
    Queue,
    Upgrades,
}

/// Per-entity state: three intrusive lists into the node arena. An
/// upgrade node carries the lattice-join target its owner will be granted
/// (for an `S → X` upgrade: `X`).
#[derive(Clone, Copy, Debug)]
struct EState {
    holders: List,
    queue: List,
    upgrades: List,
}

impl EState {
    const EMPTY: EState = EState {
        holders: List::EMPTY,
        queue: List::EMPTY,
        upgrades: List::EMPTY,
    };

    fn is_empty(&self) -> bool {
        self.holders.len == 0 && !self.has_waiters()
    }

    fn has_waiters(&self) -> bool {
        self.queue.len + self.upgrades.len > 0
    }
}

/// What admission decided about a request: granted on the spot (including
/// re-entrant and in-place-upgrade grants, already applied), or forced to
/// wait — whether and where it waits is the caller's policy.
enum Admission {
    Granted,
    MustWait {
        /// `Some(target)` when the requester already holds the lock and is
        /// upgrading to the lattice join `target`: it would join
        /// `upgrades`, not the queue, and is served ahead of it.
        upgrade: Option<LockMode>,
    },
}

/// A reader–writer FIFO lock table over one partition of the entity space.
///
/// `O` is the owner handle (a transaction instance, a session id, …); it
/// must be cheap to copy and totally ordered so every query can return
/// deterministic, sorted results. Protocol violations return
/// [`LockError`]; nothing panics. See the module docs for the layout and
/// [`crate::table`] for the protocol.
#[derive(Clone, Debug)]
pub struct QueueTable<O> {
    /// Request-node arena; freed nodes are chained through `next`.
    nodes: Vec<Node<O>>,
    /// Head of the node free list (`NIL` when empty).
    free: u32,
    /// Entity → estate slot.
    slots: IdMap<EntityId, u32>,
    /// Entity-state arena.
    estates: Vec<EState>,
    /// Recycled estate slots.
    efree: Vec<u32>,
    /// Per-owner reverse index: held entities, ascending. An entry that
    /// empties is removed, so the map holds live owners only.
    owned: IdMap<O, Vec<EntityId>>,
    /// Buffers of removed `owned` entries, handed to the next new owner:
    /// owner churn recycles them instead of freeing and reallocating.
    spare: Vec<Vec<EntityId>>,
    /// Entities with a nonempty queue or a pending upgrade, ascending —
    /// the only ones that contribute waits-for edges.
    contended: Vec<EntityId>,
    /// Reusable obstacle buffer for the prevention admission path.
    scratch: Vec<O>,
}

impl<O> Default for QueueTable<O> {
    fn default() -> Self {
        QueueTable {
            nodes: Vec::new(),
            free: NIL,
            slots: IdMap::default(),
            estates: Vec::new(),
            efree: Vec::new(),
            owned: IdMap::default(),
            spare: Vec::new(),
            contended: Vec::new(),
            scratch: Vec::new(),
        }
    }
}

impl<O: Copy + Eq + Ord + Hash> QueueTable<O> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Arena plumbing.
    // ------------------------------------------------------------------

    fn alloc_node(&mut self, owner: O, mode: LockMode) -> u32 {
        let node = Node {
            owner,
            mode,
            prev: NIL,
            next: NIL,
        };
        if self.free != NIL {
            let id = self.free;
            self.free = self.nodes[id as usize].next;
            self.nodes[id as usize] = node;
            id
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn free_node(&mut self, id: u32) {
        let n = &mut self.nodes[id as usize];
        n.prev = NIL;
        n.next = self.free;
        self.free = id;
    }

    fn list_mut(&mut self, si: u32, part: Part) -> &mut List {
        let st = &mut self.estates[si as usize];
        match part {
            Part::Holders => &mut st.holders,
            Part::Queue => &mut st.queue,
            Part::Upgrades => &mut st.upgrades,
        }
    }

    /// Allocates a node for `(o, mode)` at the back of one of `si`'s lists.
    fn push_new(&mut self, si: u32, part: Part, o: O, mode: LockMode) {
        let id = self.alloc_node(o, mode);
        self.push_back(si, part, id);
    }

    fn push_back(&mut self, si: u32, part: Part, id: u32) {
        let tail = self.list_mut(si, part).tail;
        {
            let n = &mut self.nodes[id as usize];
            n.prev = tail;
            n.next = NIL;
        }
        if tail != NIL {
            self.nodes[tail as usize].next = id;
        }
        let list = self.list_mut(si, part);
        if list.head == NIL {
            list.head = id;
        }
        list.tail = id;
        list.len += 1;
    }

    fn unlink(&mut self, si: u32, part: Part, id: u32) {
        let (prev, next) = {
            let n = &self.nodes[id as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        }
        let list = self.list_mut(si, part);
        if list.head == id {
            list.head = next;
        }
        if list.tail == id {
            list.tail = prev;
        }
        list.len -= 1;
        let n = &mut self.nodes[id as usize];
        n.prev = NIL;
        n.next = NIL;
    }

    /// Unlinks and frees `o`'s node in one of `si`'s lists, if it has one.
    fn remove_from(&mut self, si: u32, part: Part, o: O) -> bool {
        let list = *self.list_mut(si, part);
        let Some(id) = self.find_in(list, o) else {
            return false;
        };
        self.unlink(si, part, id);
        self.free_node(id);
        true
    }

    /// `list`'s nodes front to back, each with its slot id.
    fn iter(&self, list: List) -> impl Iterator<Item = (u32, &Node<O>)> + Clone + '_ {
        let mut id = list.head;
        std::iter::from_fn(move || {
            if id == NIL {
                return None;
            }
            let at = id;
            let n = &self.nodes[at as usize];
            id = n.next;
            Some((at, n))
        })
    }

    /// `list`'s `(owner, mode)` entries front to back.
    fn entries(&self, list: List) -> impl Iterator<Item = (O, LockMode)> + Clone + '_ {
        self.iter(list).map(|(_, n)| (n.owner, n.mode))
    }

    fn owners(&self, list: List) -> impl Iterator<Item = O> + '_ {
        self.iter(list).map(|(_, n)| n.owner)
    }

    /// Finds the node in `list` owned by `o`, walking the chain. Every
    /// request, release and query starts here, and the explicit loop is
    /// measurably faster than `iter().find()` (5 % of `sim_hot`'s ops/s).
    fn find_in(&self, list: List, o: O) -> Option<u32> {
        let mut id = list.head;
        while id != NIL {
            let n = &self.nodes[id as usize];
            if n.owner == o {
                return Some(id);
            }
            id = n.next;
        }
        None
    }

    /// True when `o` is queued or upgrade-pending in `st`.
    fn waits_in(&self, st: EState, o: O) -> bool {
        self.find_in(st.queue, o).is_some() || self.find_in(st.upgrades, o).is_some()
    }

    /// `e`'s state, if it has any.
    fn state(&self, e: EntityId) -> Option<EState> {
        self.slots.get(&e).map(|&si| self.estates[si as usize])
    }

    /// The states of the entities that have waiters, ascending by entity.
    fn contended_states(&self) -> impl Iterator<Item = EState> + '_ {
        self.contended
            .iter()
            .map(|&e| self.state(e).expect("contended entities have state"))
    }

    fn slot_for(&mut self, e: EntityId) -> u32 {
        if let Some(&si) = self.slots.get(&e) {
            return si;
        }
        let si = if let Some(si) = self.efree.pop() {
            self.estates[si as usize] = EState::EMPTY;
            si
        } else {
            self.estates.push(EState::EMPTY);
            (self.estates.len() - 1) as u32
        };
        self.slots.insert(e, si);
        si
    }

    /// Re-syncs `e`'s indexes after a mutation: its membership in
    /// `contended`, and its slot, recycled when the state went empty. Must
    /// follow every operation that can change `e`'s lists.
    fn settle(&mut self, e: EntityId, si: u32) {
        let st = &self.estates[si as usize];
        match (st.has_waiters(), self.contended.binary_search(&e)) {
            (true, Err(i)) => self.contended.insert(i, e),
            (false, Ok(i)) => {
                self.contended.remove(i);
            }
            _ => {}
        }
        if st.is_empty() {
            self.slots.remove(&e);
            self.efree.push(si);
        }
    }

    fn owned_insert(&mut self, o: O, e: EntityId) {
        let spare = &mut self.spare;
        let v = self
            .owned
            .entry(o)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        if let Err(i) = v.binary_search(&e) {
            v.insert(i, e);
        }
    }

    fn owned_remove(&mut self, o: O, e: EntityId) {
        let Some(v) = self.owned.get_mut(&o) else {
            return;
        };
        if let Ok(i) = v.binary_search(&e) {
            v.remove(i);
        }
        if v.is_empty() {
            // Sim owners are `(txn, epoch)`: a kept entry per owner ever
            // seen would grow by one per restart. Park the buffer instead.
            let buf = self.owned.remove(&o).expect("entry just read");
            self.spare.push(buf);
        }
    }

    // ------------------------------------------------------------------
    // Admission and promotion. Every "can this be granted next to those
    // holders?" question routes through `admission`, hence through the
    // one compatibility matrix on `LockMode`.
    // ------------------------------------------------------------------

    /// The admission step shared by [`QueueTable::request`] and
    /// [`QueueTable::request_with_priority`], so the two paths can never
    /// diverge on what is grantable: rejects duplicates, grants covered
    /// re-requests, admissible upgrades and compatible fresh requests in
    /// place, and otherwise reports that the request must wait (without
    /// enqueueing it).
    fn try_admit(
        &mut self,
        si: u32,
        e: EntityId,
        o: O,
        mode: LockMode,
    ) -> Result<Admission, LockError> {
        let st = self.estates[si as usize];
        if self.waits_in(st, o) {
            return Err(LockError::AlreadyQueued { entity: e });
        }
        if let Some(hid) = self.find_in(st.holders, o) {
            let held = self.nodes[hid as usize].mode;
            if held.covers(mode) {
                return Ok(Admission::Granted);
            }
            // Upgrade to the lattice join, in place when the target is
            // compatible with every *other* holder (for `S → X`: sole
            // holder; for e.g. `IS → IX` next to `IS` co-holders: always).
            let target = held.join(mode);
            if admission::upgrade_admissible(o, target, self.entries(st.holders)) {
                self.nodes[hid as usize].mode = target;
                return Ok(Admission::Granted);
            }
            return Ok(Admission::MustWait {
                upgrade: Some(target),
            });
        }
        // FIFO: a fresh request never overtakes a waiter.
        if !st.has_waiters() && self.compatible_with_holders(st, mode) {
            self.push_new(si, Part::Holders, o, mode);
            self.owned_insert(o, e);
            Ok(Admission::Granted)
        } else {
            Ok(Admission::MustWait { upgrade: None })
        }
    }

    fn compatible_with_holders(&self, st: EState, mode: LockMode) -> bool {
        admission::compatible_with_all(mode, self.entries(st.holders).map(|(_, m)| m))
    }

    /// Parks a request that must wait: an upgrade among the upgrades
    /// (carrying its join target), a fresh request at the back of the queue.
    fn enqueue(&mut self, si: u32, o: O, mode: LockMode, upgrade: Option<LockMode>) {
        match upgrade {
            Some(target) => self.push_new(si, Part::Upgrades, o, target),
            None => self.push_new(si, Part::Queue, o, mode),
        }
    }

    /// Grants whatever the state now admits: admissible pending upgrades
    /// first, FIFO among themselves (an upgrade is grantable when its join
    /// target is compatible with every *other* holder — for `S → X`, when
    /// the upgrader is the sole holder), then the longest compatible
    /// prefix of the FIFO queue. Appends `(owner, mode)` grants to `out`.
    fn promote(&mut self, si: u32, e: EntityId, out: &mut Grants<O>) {
        loop {
            let st = self.estates[si as usize];
            let ready = self.iter(st.upgrades).find(|(_, u)| {
                admission::upgrade_admissible(u.owner, u.mode, self.entries(st.holders))
            });
            if let Some((uid, &Node { owner, mode, .. })) = ready {
                if let Some(hid) = self.find_in(st.holders, owner) {
                    self.nodes[hid as usize].mode = mode;
                }
                self.unlink(si, Part::Upgrades, uid);
                self.free_node(uid);
                out.push((owner, mode));
                continue;
            }
            let front = st.queue.head;
            if front == NIL {
                break;
            }
            let Node { owner, mode, .. } = self.nodes[front as usize];
            if st.upgrades.len > 0 || !self.compatible_with_holders(st, mode) {
                break;
            }
            self.unlink(si, Part::Queue, front);
            self.push_back(si, Part::Holders, front);
            self.owned_insert(owner, e);
            out.push((owner, mode));
        }
    }

    /// Appends the owners a waiting `o` is admitted against — see
    /// [`QueueTable::conflicts_of`] — leaving `out` ascending, deduplicated.
    fn obstacles_into(&self, st: EState, o: O, upgrading: bool, out: &mut Vec<O>) {
        out.extend(self.owners(st.holders).chain(self.owners(st.upgrades)));
        if !upgrading {
            out.extend(self.owners(st.queue));
        }
        out.retain(|&x| x != o);
        out.sort();
        out.dedup();
    }

    // ------------------------------------------------------------------
    // Public protocol surface.
    // ------------------------------------------------------------------

    /// Requests `mode` on `e` for `o`.
    ///
    /// Re-requesting a mode already covered by the held one returns
    /// [`Acquire::Granted`] without changing state. A holder requesting a
    /// stronger mode starts an *upgrade* to the lattice join: granted
    /// immediately if the target is compatible with every other holder
    /// (for `S → X`: if it is the sole holder), otherwise pending until
    /// the other holders release (reported as `Queued`).
    pub fn request(&mut self, e: EntityId, o: O, mode: LockMode) -> Result<Acquire, LockError> {
        let si = self.slot_for(e);
        let out = self.try_admit(si, e, o, mode).map(|a| match a {
            Admission::Granted => Acquire::Granted,
            Admission::MustWait { upgrade } => {
                self.enqueue(si, o, mode, upgrade);
                Acquire::Queued
            }
        });
        self.settle(e, si);
        out
    }

    /// Requests `mode` on `e` for `o` under a timestamp-ordering deadlock
    /// *prevention* scheme (see [`crate::prevent`]). Behaves exactly like
    /// [`QueueTable::request`] when the lock is grantable; when the
    /// request would have to wait, the scheme decides from priorities
    /// alone:
    ///
    /// * [`PreventionScheme::NoWait`] — [`PreventionOutcome::Rejected`].
    /// * [`PreventionScheme::WaitDie`] — queued iff `o` is older than
    ///   every conflicting owner; otherwise rejected.
    /// * [`PreventionScheme::WoundWait`] — always queued; every younger
    ///   conflicting owner is returned as a wound victim the caller must
    ///   abort ([`PreventionOutcome::Wounded`]).
    ///
    /// The conflicting owners a fresh request is tested against are the
    /// current holders **and** the queued waiters and pending upgraders —
    /// the waiters are tomorrow's holders under FIFO retargeting, and
    /// admitting against all of them is what keeps the scheme's no-cycle
    /// invariant stable for the lifetime of the wait. A contended
    /// *upgrade* is tested against the other holders and upgraders only:
    /// the grant step serves a pending upgrade before any queue entry, so
    /// queued waiters can never become holders ahead of it and are not
    /// obstacles (treating them as such inflates restarts for waits that
    /// cannot exist).
    ///
    /// `prio` maps any owner at this entity to its [`Priority`] (smaller =
    /// older); priorities must be distinct per owner and stable across
    /// restarts. The table stores none of this — prevention is stateless
    /// local arithmetic, which is the entire point of the schemes.
    pub fn request_with_priority(
        &mut self,
        e: EntityId,
        o: O,
        mode: LockMode,
        scheme: PreventionScheme,
        prio: impl Fn(O) -> Priority,
    ) -> Result<PreventionOutcome<O>, LockError> {
        let si = self.slot_for(e);
        let out = self.try_admit(si, e, o, mode).map(|a| match a {
            Admission::Granted => PreventionOutcome::Granted,
            Admission::MustWait { upgrade } => self.decide_wait(si, o, mode, upgrade, scheme, prio),
        });
        self.settle(e, si);
        out
    }

    /// The scheme's verdict on a request that cannot be granted now;
    /// enqueues it unless it is rejected.
    fn decide_wait(
        &mut self,
        si: u32,
        o: O,
        mode: LockMode,
        upgrade: Option<LockMode>,
        scheme: PreventionScheme,
        prio: impl Fn(O) -> Priority,
    ) -> PreventionOutcome<O> {
        let mut obstacles = std::mem::take(&mut self.scratch);
        self.obstacles_into(
            self.estates[si as usize],
            o,
            upgrade.is_some(),
            &mut obstacles,
        );
        let mine = prio(o);
        let outcome = match scheme {
            PreventionScheme::NoWait => PreventionOutcome::Rejected,
            PreventionScheme::WaitDie if obstacles.iter().any(|&x| prio(x) < mine) => {
                PreventionOutcome::Rejected
            }
            PreventionScheme::WaitDie => PreventionOutcome::Queued,
            PreventionScheme::WoundWait => {
                let victims: Vec<O> = obstacles
                    .iter()
                    .copied()
                    .filter(|&x| prio(x) > mine)
                    .collect();
                if victims.is_empty() {
                    PreventionOutcome::Queued
                } else {
                    PreventionOutcome::Wounded(victims)
                }
            }
        };
        if outcome != PreventionOutcome::Rejected {
            self.enqueue(si, o, mode, upgrade);
        }
        obstacles.clear();
        self.scratch = obstacles;
        outcome
    }

    /// Releases `o`'s lock on `e`, appending the grants this unblocked, in
    /// FIFO order, to `out` (which is *not* cleared first) — the
    /// zero-allocation hot path when the caller reuses the buffer. A
    /// pending upgrade by `o` is cancelled alongside.
    ///
    /// Returns [`LockError::NotHolder`] if `o` holds no lock on `e`.
    pub fn release_into(
        &mut self,
        e: EntityId,
        o: O,
        out: &mut Grants<O>,
    ) -> Result<(), LockError> {
        let not_holder = Err(LockError::NotHolder { entity: e });
        let Some(&si) = self.slots.get(&e) else {
            return not_holder;
        };
        if !self.remove_from(si, Part::Holders, o) {
            return not_holder;
        }
        self.owned_remove(o, e);
        self.remove_from(si, Part::Upgrades, o);
        self.promote(si, e, out);
        self.settle(e, si);
        Ok(())
    }

    /// Allocating convenience over [`QueueTable::release_into`].
    pub fn release(&mut self, e: EntityId, o: O) -> Result<Grants<O>, LockError> {
        let mut out = Grants::new();
        self.release_into(e, o, &mut out)?;
        Ok(out)
    }

    /// Releases `o`'s lock on `e` if it holds one; a no-op (empty grant
    /// list) otherwise. The idempotent twin of [`QueueTable::release`] for
    /// callers whose release messages can be duplicated or retransmitted:
    /// the first copy releases, every later copy finds no hold and does
    /// nothing — in particular it can never release a *subsequent*
    /// holder's lock, because release is keyed by owner.
    pub fn release_idempotent(&mut self, e: EntityId, o: O) -> Grants<O> {
        self.release(e, o).unwrap_or_default()
    }

    /// Removes `o` from every wait queue and pending-upgrade slot. Grants
    /// unblocked by the cancellation (e.g. a cancelled writer letting
    /// queued readers through) are performed and reported. Only contended
    /// entities are visited: one with no waiters has nothing to cancel.
    pub fn cancel_waits(&mut self, o: O) -> CancelOutcome<O> {
        let waiting = self.contended.iter().filter(|&&e| self.is_waiting(e, o));
        let entities: Vec<EntityId> = waiting.copied().collect();
        let mut out = CancelOutcome::default();
        for e in entities {
            let si = *self.slots.get(&e).expect("contended entities have state");
            self.remove_from(si, Part::Queue, o);
            self.remove_from(si, Part::Upgrades, o);
            out.cancelled.push(e);
            let mut grants = Grants::new();
            self.promote(si, e, &mut grants);
            if !grants.is_empty() {
                out.granted.push((e, grants));
            }
            self.settle(e, si);
        }
        out
    }

    /// Releases everything `o` holds; returns `(entity, grants)` pairs in
    /// ascending entity order.
    pub fn release_all(&mut self, o: O) -> EntityGrants<O> {
        self.held_by(o)
            .into_iter()
            .map(|e| {
                let grants = self.release(e, o).expect("held_by listed the entity");
                (e, grants)
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Queries.
    // ------------------------------------------------------------------

    /// The mode `o` holds on `e`, if any.
    pub fn holds(&self, e: EntityId, o: O) -> Option<LockMode> {
        let hid = self.find_in(self.state(e)?.holders, o)?;
        Some(self.nodes[hid as usize].mode)
    }

    /// Current holders of `e` with their modes (grant order).
    pub fn holders(&self, e: EntityId) -> Vec<(O, LockMode)> {
        self.state(e)
            .map_or(Vec::new(), |st| self.entries(st.holders).collect())
    }

    /// Sole exclusive holder of `e`, if the lock is held exclusively.
    pub fn exclusive_holder(&self, e: EntityId) -> Option<O> {
        let st = self.state(e)?;
        let (owner, mode) = self.entries(st.holders).next()?;
        (st.holders.len == 1 && mode == LockMode::Exclusive).then_some(owner)
    }

    /// Entities currently held by `o`, ascending — an O(held) copy out of
    /// the reverse index.
    pub fn held_by(&self, o: O) -> Vec<EntityId> {
        self.owned.get(&o).cloned().unwrap_or_default()
    }

    /// Visits the waits-for edges of one entity, unsorted: queued
    /// requests wait on every holder; pending upgraders on every *other*
    /// holder.
    fn entity_edges(&self, st: EState, f: &mut impl FnMut(O, O)) {
        for w in self.owners(st.queue).chain(self.owners(st.upgrades)) {
            for h in self.owners(st.holders).filter(|&h| h != w) {
                f(w, h);
            }
        }
    }

    /// True when any request is queued or upgrade-pending at `e` —
    /// `!entity_waits_for(e).is_empty()` without building the edge list
    /// (a waiter always waits on a holder other than itself).
    pub fn has_waiters(&self, e: EntityId) -> bool {
        self.state(e).is_some_and(|st| st.has_waiters())
    }

    /// The waits-for edges `(waiter, holder)` induced by `e` alone,
    /// ascending.
    pub fn entity_waits_for(&self, e: EntityId) -> Vec<(O, O)> {
        let mut out = Vec::new();
        if let Some(st) = self.state(e) {
            self.entity_edges(st, &mut |w, h| out.push((w, h)));
        }
        out.sort();
        out
    }

    /// All waits-for edges `(waiter, holder)` at this table, ascending.
    /// Visits only contended entities — entities without waiters
    /// contribute no edges.
    pub fn waits_for(&self) -> Vec<(O, O)> {
        let mut out = Vec::new();
        self.waits_for_into(&mut out);
        out
    }

    /// [`QueueTable::waits_for`], appended to `out` (which is *not*
    /// cleared first): a caller gathering every table's edges fills one
    /// buffer.
    pub fn waits_for_into(&self, out: &mut Vec<(O, O)>) {
        let from = out.len();
        self.for_each_wait_edge(|w, h| out.push((w, h)));
        out[from..].sort();
    }

    /// Calls `f(waiter, holder)` on each of [`QueueTable::waits_for`]'s
    /// edges, in no promised order and without allocating: for a caller
    /// that only asks whether the edges close a cycle.
    pub fn for_each_wait_edge(&self, mut f: impl FnMut(O, O)) {
        for st in self.contended_states() {
            self.entity_edges(st, &mut f);
        }
    }

    /// The holders `o` waits on at *this* table — `o`'s outgoing wait-for
    /// edges in the site-local view, ascending and deduplicated. This is
    /// what a distributed edge-chasing detector asks a site when a probe
    /// arrives: "is this owner blocked here, and on whom?" — answerable
    /// from local state alone, with no global wait-for graph.
    pub fn waits_of(&self, o: O) -> Vec<O> {
        let mut out = Vec::new();
        for &e in &self.contended {
            self.waits_at_into(e, o, &mut out);
        }
        out.sort();
        out.dedup();
        out
    }

    /// Appends to `out` the holders `o` waits on at `e` alone — every
    /// holder of `e` but `o` if `o` is queued or upgrade-pending there,
    /// nothing otherwise — in grant order. [`QueueTable::waits_of`] is
    /// these lists over every entity, sorted and deduplicated; a caller
    /// that knows where `o` may wait asks only there, into a buffer it
    /// reuses.
    pub fn waits_at_into(&self, e: EntityId, o: O, out: &mut Vec<O>) {
        if let Some(st) = self.state(e).filter(|&st| self.waits_in(st, o)) {
            out.extend(self.owners(st.holders).filter(|&h| h != o));
        }
    }

    /// True when `o` is waiting at `e` — queued, or a holder with a
    /// pending upgrade: exactly the owners whose further request on `e`
    /// [`QueueTable::request`] refuses with [`LockError::AlreadyQueued`],
    /// which is how a caller facing an unreliable network recognizes a
    /// *retransmitted* lock request whose original is still queued (the
    /// grant will come through the queue).
    pub fn is_waiting(&self, e: EntityId, o: O) -> bool {
        self.state(e).is_some_and(|st| self.waits_in(st, o))
    }

    /// The owners a re-submitted request by `o` on `e` would be admitted
    /// against under [`QueueTable::request_with_priority`], ascending and
    /// deduplicated: holders and pending upgraders always; queued waiters
    /// only when `o` is *not* itself a pending upgrader — an upgrade is
    /// served ahead of the queue, so queued waiters are never its
    /// obstacles (mirroring the admission path's obstacle set exactly).
    /// A caller re-delivering a wound-wait request whose original wound
    /// orders may have been lost re-derives its victim set from exactly
    /// this list — the table stays policy-free, the caller re-applies the
    /// priority filter.
    pub fn conflicts_of(&self, e: EntityId, o: O) -> Vec<O> {
        let mut out = Vec::new();
        if let Some(st) = self.state(e) {
            let upgrading = self.find_in(st.upgrades, o).is_some();
            self.obstacles_into(st, o, upgrading, &mut out);
        }
        out
    }

    /// Entities with any lock state (held or queued), ascending.
    pub fn active_entities(&self) -> Vec<EntityId> {
        let mut v: Vec<EntityId> = self.slots.keys().copied().collect();
        v.sort();
        v
    }

    /// True when nothing is held or queued anywhere.
    pub fn is_idle(&self) -> bool {
        self.slots.is_empty()
    }

    // ------------------------------------------------------------------
    // The auditor.
    // ------------------------------------------------------------------

    /// Walks one list of `e` front to back, checking its links, tail and
    /// length and handing every node to `visit`; returns the node count.
    /// A cycle cannot hide from the `prev` check — the node where the
    /// chain re-enters itself has two predecessors and a single `prev` —
    /// so that check also bounds the walk.
    fn walk(
        &self,
        e: EntityId,
        part: Part,
        list: List,
        mut visit: impl FnMut(&Node<O>) -> Result<(), String>,
    ) -> Result<u32, String> {
        let (mut id, mut prev, mut count) = (list.head, NIL, 0u32);
        while id != NIL {
            let n = &self.nodes[id as usize];
            if n.prev != prev {
                return Err(format!("{e}: broken prev link in {part:?}"));
            }
            visit(n)?;
            count += 1;
            prev = id;
            id = n.next;
        }
        if list.tail != prev {
            return Err(format!("{e}: tail mismatch in {part:?}"));
        }
        if list.len != count {
            return Err(format!("{e}: length mismatch in {part:?}"));
        }
        Ok(count)
    }

    /// The per-entity half of the audit: everything that can be wrong
    /// with `e` alone, at a cost of `e`'s own three lists. One walk per
    /// list (links, tail, length); pairwise mode compatibility of all
    /// co-held locks (the full IS/IX/S/SIX/X matrix — catches `S+IX` and
    /// `SIX+SIX` as well as `S+X` and double-`X`); upgraders are holders
    /// with strictly stronger targets; no owner both holds and waits;
    /// every holder is in the `owned` index under `e`; and `e` is in
    /// `contended` exactly when it has waiters (so never, for an entity
    /// with no state). A caller that knows which entities an operation
    /// touched checks those and leaves [`QueueTable::check_invariants`],
    /// which walks the whole table, for the occasional sweep.
    pub fn check_entity(&self, e: EntityId) -> Result<(), String> {
        self.audit_entity(e).map(drop)
    }

    /// [`QueueTable::check_entity`], returning how many arena nodes `e`'s
    /// lists reach — the sweep's share of the arena partition.
    fn audit_entity(&self, e: EntityId) -> Result<u32, String> {
        let st = self.state(e);
        let waiters = st.is_some_and(|st| st.has_waiters());
        if waiters != self.contended.binary_search(&e).is_ok() {
            return Err(format!("{e}: contended index disagrees"));
        }
        let Some(st) = st else {
            return Ok(0);
        };
        if st.is_empty() {
            return Err(format!("{e}: empty state not pruned"));
        }
        // The holders first: once their chain is known sound, the two
        // walks below may search it.
        let mut reachable = self.walk(e, Part::Holders, st.holders, |n| {
            let indexed = self.owned.get(&n.owner);
            if indexed.is_some_and(|v| v.binary_search(&e).is_ok()) {
                Ok(())
            } else {
                Err(format!("{e}: holder missing from owned index"))
            }
        })?;
        let modes = self.entries(st.holders).map(|(_, m)| m);
        if let Some((a, b)) = admission::incompatible_pair(modes) {
            return Err(format!("{e}: incompatible co-held modes {a}+{b}"));
        }
        reachable += self.walk(e, Part::Upgrades, st.upgrades, |n| {
            let Some(hid) = self.find_in(st.holders, n.owner) else {
                return Err(format!("{e}: upgrader is not a holder"));
            };
            let mode = self.nodes[hid as usize].mode;
            if mode.covers(n.mode) {
                return Err(format!(
                    "{e}: pending upgrade to {} already covered by held {mode}",
                    n.mode
                ));
            }
            Ok(())
        })?;
        reachable += self.walk(e, Part::Queue, st.queue, |n| {
            if self.find_in(st.holders, n.owner).is_some() {
                return Err(format!("{e}: owner both holds and waits"));
            }
            Ok(())
        })?;
        Ok(reachable)
    }

    /// Structural invariant check of the whole table:
    /// [`QueueTable::check_entity`] of every entity with state, plus what
    /// no single entity can see — arena integrity (the nodes the lists
    /// reach and the free list partition the arena exactly; the free list
    /// ends), both indexes strictly ascending, and no stale entry in
    /// either (a `contended` entity without state, an `owned` entry that
    /// is empty or names an entity its owner does not hold).
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut reachable = 0u32;
        for &e in self.slots.keys() {
            reachable += self.audit_entity(e)?;
        }
        // Free list + reachable nodes partition the arena exactly.
        let mut free_count = 0u32;
        let mut id = self.free;
        while id != NIL {
            free_count += 1;
            if free_count > self.nodes.len() as u32 {
                return Err("cycle in node free list".to_string());
            }
            id = self.nodes[id as usize].next;
        }
        if reachable + free_count != self.nodes.len() as u32 {
            return Err(format!(
                "arena leak: {} reachable + {} free != {} nodes",
                reachable,
                free_count,
                self.nodes.len()
            ));
        }
        if !self.contended.windows(2).all(|w| w[0] < w[1]) {
            return Err("contended index not strictly ascending".to_string());
        }
        for e in &self.contended {
            if !self.slots.contains_key(e) {
                return Err(format!("{e}: stale contended index entry"));
            }
        }
        for (o, entities) in &self.owned {
            if entities.is_empty() {
                return Err("empty owned index entry not pruned".to_string());
            }
            if !entities.windows(2).all(|w| w[0] < w[1]) {
                return Err("owned index entry not strictly ascending".to_string());
            }
            for e in entities {
                if self.holds(*e, *o).is_none() {
                    return Err(format!("{e}: stale owned index entry"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    //! Tests of the data structure: arena recycling, the indexes, and the
    //! auditor itself. The protocol-level tests live in [`crate::table`].

    use super::*;

    const X: LockMode = LockMode::Exclusive;
    const S: LockMode = LockMode::Shared;

    #[test]
    fn exclusive_fifo_grant_queue_release() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        assert_eq!(t.request(e, 0, X).unwrap(), Acquire::Granted);
        assert_eq!(t.request(e, 1, X).unwrap(), Acquire::Queued);
        assert_eq!(t.request(e, 2, X).unwrap(), Acquire::Queued);
        assert_eq!(t.holds(e, 0), Some(X));
        assert_eq!(t.waits_for(), vec![(1, 0), (2, 0)]);
        assert_eq!(t.release(e, 0).unwrap(), vec![(1, X)]);
        assert_eq!(t.release(e, 1).unwrap(), vec![(2, X)]);
        assert_eq!(t.release(e, 2).unwrap(), vec![]);
        assert!(t.is_idle());
        t.check_invariants().unwrap();
    }

    #[test]
    fn nodes_are_recycled_not_grown() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        for round in 0..100 {
            t.request(e, 0, X).unwrap();
            t.request(e, 1, X).unwrap();
            assert_eq!(t.release(e, 0).unwrap(), vec![(1, X)]);
            assert_eq!(t.release(e, 1).unwrap(), vec![]);
            t.check_invariants()
                .unwrap_or_else(|err| panic!("round {round}: {err}"));
        }
        assert!(
            t.nodes.len() <= 2,
            "arena grew to {} nodes for a 2-owner workload",
            t.nodes.len()
        );
        assert!(t.estates.len() <= 1, "estate arena grew");
    }

    #[test]
    fn owner_churn_keeps_the_owned_index_bounded() {
        // Sim owners are `(txn, epoch)`: every restart is a new owner. The
        // index must hold live owners only, and recycle their buffers.
        let mut t: QueueTable<u32> = QueueTable::new();
        let (a, b) = (EntityId(0), EntityId(1));
        for o in 0..1000 {
            t.request(a, o, X).unwrap();
            t.request(b, o, S).unwrap();
            t.request(a, o + 1, X).unwrap(); // the next owner queues behind
            assert_eq!(t.owned.len(), 1);
            assert_eq!(t.contended, vec![a]);
            t.cancel_waits(o + 1);
            t.release_all(o);
            assert!(t.is_idle() && t.owned.is_empty() && t.contended.is_empty());
            assert_eq!(t.spare.len(), 1, "one buffer parked, reused next round");
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn shared_batch_and_upgrade_follow_fifo_rules() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request(e, 0, X).unwrap();
        t.request(e, 1, S).unwrap();
        t.request(e, 2, S).unwrap();
        t.request(e, 3, X).unwrap();
        assert_eq!(t.release(e, 0).unwrap(), vec![(1, S), (2, S)]);
        // Contended upgrade: 1 upgrades, waits on 2.
        assert_eq!(t.request(e, 1, X).unwrap(), Acquire::Queued);
        assert_eq!(t.waits_for(), vec![(1, 2), (3, 1), (3, 2)]);
        assert_eq!(t.release(e, 2).unwrap(), vec![(1, X)]);
        assert_eq!(t.holds(e, 1), Some(X));
        assert_eq!(t.release(e, 1).unwrap(), vec![(3, X)]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn sole_holder_upgrade_in_place() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request(e, 7, S).unwrap();
        assert_eq!(t.request(e, 7, X).unwrap(), Acquire::Granted);
        assert_eq!(t.holds(e, 7), Some(X));
        assert_eq!(t.exclusive_holder(e), Some(7));
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_and_nonholder_errors_match_fifo() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request(e, 0, X).unwrap();
        t.request(e, 1, X).unwrap();
        assert_eq!(
            t.request(e, 1, X).unwrap_err(),
            LockError::AlreadyQueued { entity: e }
        );
        assert_eq!(
            t.release(e, 9).unwrap_err(),
            LockError::NotHolder { entity: e }
        );
        assert_eq!(
            t.release(EntityId(5), 0).unwrap_err(),
            LockError::NotHolder {
                entity: EntityId(5)
            }
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn prevention_schemes_match_fifo_semantics() {
        let by_id = |o: u32| -> Priority { (o as u64, 0) };
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request_with_priority(e, 5, X, PreventionScheme::WaitDie, by_id)
            .unwrap();
        assert_eq!(
            t.request_with_priority(e, 3, X, PreventionScheme::WaitDie, by_id)
                .unwrap(),
            PreventionOutcome::Queued
        );
        assert_eq!(
            t.request_with_priority(e, 9, X, PreventionScheme::WaitDie, by_id)
                .unwrap(),
            PreventionOutcome::Rejected
        );
        assert_eq!(t.waits_for(), vec![(3, 5)]);
        t.check_invariants().unwrap();

        let mut t: QueueTable<u32> = QueueTable::new();
        t.request_with_priority(e, 2, S, PreventionScheme::WoundWait, by_id)
            .unwrap();
        t.request_with_priority(e, 8, S, PreventionScheme::WoundWait, by_id)
            .unwrap();
        t.request_with_priority(e, 9, X, PreventionScheme::WoundWait, by_id)
            .unwrap();
        assert_eq!(
            t.request_with_priority(e, 5, X, PreventionScheme::WoundWait, by_id)
                .unwrap(),
            PreventionOutcome::Wounded(vec![8, 9])
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn cancel_waits_unblocks_and_recycles() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request(e, 0, S).unwrap();
        t.request(e, 1, X).unwrap();
        t.request(e, 2, S).unwrap();
        let out = t.cancel_waits(1);
        assert_eq!(out.cancelled, vec![e]);
        assert_eq!(out.granted, vec![(e, vec![(2, S)])]);
        assert_eq!(t.holds(e, 2), Some(S));
        t.check_invariants().unwrap();
    }

    #[test]
    fn release_all_and_held_by_use_the_reverse_index() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let (a, b) = (EntityId(0), EntityId(1));
        t.request(a, 0, X).unwrap();
        t.request(b, 0, X).unwrap();
        t.request(a, 1, X).unwrap();
        assert_eq!(t.held_by(0), vec![a, b]);
        let released = t.release_all(0);
        assert_eq!(released, vec![(a, vec![(1, X)]), (b, vec![])]);
        assert_eq!(t.held_by(0), Vec::<EntityId>::new());
        t.check_invariants().unwrap();
    }

    /// The unsorted visitor and `waits_for` name the same edges, repeats
    /// included, on tables with shared holders, queues and upgrades.
    #[test]
    fn the_edge_visitor_yields_waits_for_as_a_multiset() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut edges = 0;
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t: QueueTable<u32> = QueueTable::new();
            for _ in 0..40 {
                let (e, o) = (EntityId(rng.gen_range(0..4)), rng.gen_range(0..6));
                if rng.gen_bool(0.25) {
                    let _ = t.release(e, o);
                } else {
                    let _ = t.request(e, o, if rng.gen_bool(0.5) { S } else { X });
                }
            }
            let mut visited = Vec::new();
            t.for_each_wait_edge(|w, h| visited.push((w, h)));
            visited.sort();
            assert_eq!(visited, t.waits_for(), "seed {seed}");
            edges += visited.len();
        }
        assert!(edges > 200, "the tables must wait: {edges} edges");
    }

    /// A table with every list populated. `e0`: held `S` by 1 and 2, 1
    /// pending an upgrade to `X`, 3 queued for `X`. `e1`: held `X` by 4.
    /// Node ids follow request order: 0 and 1 are `e0`'s holders, 2 the
    /// upgrade, 3 the queued request, 4 `e1`'s holder; `e0` is in slot 0.
    fn populated() -> QueueTable<u32> {
        let mut t: QueueTable<u32> = QueueTable::new();
        let (e0, e1) = (EntityId(0), EntityId(1));
        t.request(e0, 1, S).unwrap();
        t.request(e0, 2, S).unwrap();
        assert_eq!(t.request(e0, 1, X).unwrap(), Acquire::Queued);
        assert_eq!(t.request(e0, 3, X).unwrap(), Acquire::Queued);
        t.request(e1, 4, X).unwrap();
        assert_eq!((t.slots[&e0], t.nodes.len()), (0, 5));
        t.check_invariants().unwrap();
        t
    }

    /// The auditor must catch every corruption it claims to — break one
    /// field of a sound table and demand the matching complaint — and the
    /// split must be exact: a corruption of one entity (`Some(e)`) fails
    /// `check_entity(e)` with the sweep's own message and passes every
    /// other entity's check; a table-global one (`None`) passes every
    /// entity's check and fails the sweep alone.
    #[test]
    fn auditor_catches_each_corruption() {
        type Corrupt = fn(&mut QueueTable<u32>);
        let cases: &[(&str, Option<u32>, Corrupt)] = &[
            ("broken prev link in Holders", Some(0), |t| {
                t.nodes[1].prev = NIL
            }),
            // A cycle: the second holder points back at the first.
            ("broken prev link in Holders", Some(0), |t| {
                t.nodes[1].next = 0
            }),
            ("tail mismatch in Holders", Some(0), |t| {
                t.estates[0].holders.tail = 0
            }),
            ("length mismatch in Queue", Some(0), |t| {
                t.estates[0].queue.len = 2
            }),
            ("incompatible co-held modes S+X", Some(0), |t| {
                t.nodes[1].mode = X
            }),
            ("upgrader is not a holder", Some(0), |t| {
                t.nodes[2].owner = 9
            }),
            ("already covered by held S", Some(0), |t| {
                t.nodes[2].mode = S
            }),
            ("owner both holds and waits", Some(0), |t| {
                t.nodes[3].owner = 2
            }),
            ("holder missing from owned index", Some(0), |t| {
                t.owned.remove(&2);
            }),
            ("e0: contended index disagrees", Some(0), |t| {
                t.contended.clear()
            }),
            ("e1: contended index disagrees", Some(1), |t| {
                t.contended.push(EntityId(1));
            }),
            ("e7: empty state not pruned", Some(7), |t| {
                t.estates.push(EState::EMPTY);
                t.slots.insert(EntityId(7), 2);
            }),
            // The indexes are keyed by owner and by position, not by
            // entity: an entry that points at nothing is the sweep's.
            ("e1: stale owned index entry", None, |t| {
                t.owned.get_mut(&2).unwrap().push(EntityId(1));
            }),
            ("owned index entry not strictly ascending", None, |t| {
                t.owned.get_mut(&4).unwrap().push(EntityId(1));
            }),
            ("empty owned index entry not pruned", None, |t| {
                t.owned.insert(9, Vec::new());
            }),
            ("e7: stale contended index entry", None, |t| {
                t.contended.push(EntityId(7));
            }),
            ("contended index not strictly ascending", None, |t| {
                t.contended.push(EntityId(0));
            }),
            ("arena leak: 5 reachable + 0 free != 6 nodes", None, |t| {
                t.nodes.push(t.nodes[0]);
            }),
            // The queued node dropped from its list without being freed.
            ("arena leak: 4 reachable + 0 free != 5 nodes", None, |t| {
                t.estates[0].queue = List::EMPTY;
            }),
            ("cycle in node free list", None, |t| {
                t.release(EntityId(1), 4).unwrap();
                t.nodes[4].next = 4;
            }),
        ];
        for &(complaint, entity, corrupt) in cases {
            let mut t = populated();
            corrupt(&mut t);
            let err = t
                .check_invariants()
                .expect_err(&format!("auditor missed: {complaint}"));
            assert!(err.contains(complaint), "wanted {complaint:?}, got {err:?}");
            for e in t.active_entities() {
                let seen = t.check_entity(e);
                if entity == Some(e.0) {
                    assert_eq!(seen, Err(err.clone()), "{complaint}: {e}'s own check");
                } else {
                    assert_eq!(seen, Ok(()), "{complaint}: {e} is not the corrupted one");
                }
            }
        }
        // An entity without state has one thing to get wrong, and its own
        // check sees that too (the sweep calls it a stale entry).
        let mut t = populated();
        t.contended.push(EntityId(7));
        let err = t.check_entity(EntityId(7)).unwrap_err();
        assert_eq!(err, "e7: contended index disagrees");
    }
}
