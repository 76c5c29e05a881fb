//! Execution history capture, audited as it is recorded.
//!
//! A runner records every step a site applies ([`History::record`]) and
//! tells the history which instances died ([`History::abort`]) and which
//! committed ([`History::commit`]). Those three calls keep the verdict on
//! the *committed projection* — the recorded steps of committed instances,
//! in recorded order — up to date, so [`audit`] at the end of a run reads
//! a verdict instead of re-deriving one:
//!
//! * **Legality, over a shadow lock table** built from recorded steps
//!   alone. It reads neither the site tables nor the coordinator caches:
//!   an illegal history is a disagreement between those two, so the
//!   oracle has to be independent of both. Per entity it keeps the
//!   instances whose recorded lock has no recorded unlock yet, with their
//!   modes; per instance a done-bitmap checks precedence order and
//!   duplicates as each step is recorded (a step recorded before its
//!   predecessor shows when the predecessor comes, or as a step missing
//!   at commit). A recorded lock incompatible
//!   with a shadow holder is a *pending conflict*, stamped with the tick,
//!   both instances and the entity: confirmed when both commit, dropped
//!   when either aborts (an abort removes the instance's shadow holds, as
//!   the engine's abort releases its table holds). Completeness is checked
//!   per committed instance and over the transactions at the end. These
//!   are the committed projection's semantics, so the verdict is exactly
//!   [`Schedule::validate_complete`]'s, and its complaint names the event.
//! * **Serializability at commit.** Per entity the committed accesses
//!   ([`kplock_model::step_accesses`]) are kept in recorded order, a run
//!   per kind of access, so a scan skips the kinds it cannot conflict
//!   with. A
//!   committing instance inserts each of its accesses and adds an edge to
//!   every conflicting access on either side of it, each scan stopping
//!   after the nearest *direct write*, the one kind that conflicts with
//!   every kind. Every edge so added is an edge of
//!   [`kplock_model::serialization_graph`], and every conflicting pair
//!   stays joined by a path — by induction on the accesses between them: a
//!   scan that stopped short of one of the pair stopped at a direct write
//!   between the two, which conflicts with both. So the graph has a cycle
//!   exactly when the full one does, with O(1) edges per access on a
//!   write-heavy entity, where the full graph has one per transaction on
//!   it. Cycles are caught as edges arrive by keeping the committed
//!   transactions in the workspace's dynamic topological order,
//!   [`kplock_graph::TopoOrder`] (Pearce & Kelly), each placed last as it
//!   commits: an edge that agrees with the order costs nothing, and under
//!   two-phase locking almost every edge agrees with commit order.
//!
//! The offline checks stay the definitions: in a debug build every
//! [`audit`] asserts that the online verdict equals
//! [`Schedule::validate_complete`] and [`kplock_model::is_serializable`]
//! on the projected schedule.

use std::fmt;

use crate::event::{Instance, SimTime};
use kplock_graph::TopoOrder;
use kplock_model::{
    step_accesses, AccessKind, ActionKind, EntityId, LockMode, ModelError, Schedule, ScheduledStep,
    StepId, TxnId, TxnSystem,
};

/// One applied step, as observed at its site.
#[derive(Clone, Copy, Debug)]
pub struct HistoryEvent {
    /// When the site applied it.
    pub time: SimTime,
    /// Global tie-break sequence (application order).
    pub seq: u64,
    /// Which instance executed it.
    pub inst: Instance,
    /// The step.
    pub step: StepId,
}

/// The execution history of a run of one system, audited as it is
/// recorded (see the module doc). Its audit state lives in a handful of
/// flat buffers, not a container per transaction or entity.
#[derive(Clone, Debug)]
pub struct History<'a> {
    sys: &'a TxnSystem,
    events: Vec<HistoryEvent>,
    /// Per transaction, the one instance of it the audit follows.
    slots: Vec<Slot>,
    /// The followed instances' done-bitmaps, one run of words each
    /// ([`Slot::first_word`]).
    done: Vec<u64>,
    /// The accesses of the followed instances that have not committed,
    /// each instance's threaded from its [`Slot::accesses`] (an aborted
    /// instance's are left behind).
    held_back: Vec<HeldBack>,
    /// Per entity, the first of its shadow holds in `holds`.
    held: Vec<u32>,
    /// Every shadow hold, on its entity's list (a free list threads the
    /// released ones).
    holds: Vec<Hold>,
    free_hold: u32,
    /// Per entity, its index in `runs`, or [`NONE`].
    runs_at: Vec<u32>,
    /// The runs of each entity with a committed access, in order of first
    /// access.
    runs: Vec<Runs>,
    /// Every committed access, threaded onto its entity's run for its
    /// kind.
    accesses: Vec<Access>,
    /// Faults waiting for their instances to commit: an instance's own
    /// fault for it, a lock conflict for both.
    pending: Vec<Fault>,
    /// The earliest confirmed fault of the committed projection.
    fault: Option<Fault>,
    order: Serial,
}

/// The end of a list threaded through a buffer, and an entity with no
/// committed access.
const NONE: u32 = u32::MAX;

/// One entity's committed accesses: a run per kind
/// ([`AccessKind::index`]), each a list by ascending `seq` threaded
/// backwards through [`History::accesses`], so a scan visits only the
/// kinds it conflicts with and no entity owns a buffer.
#[derive(Clone, Copy, Debug)]
struct Runs {
    /// Per kind, the last access of the run.
    last: [u32; 4],
    /// Per kind, the committing transaction's latest access in the run,
    /// while `batch` is [`Serial::batch`]: a transaction's accesses
    /// arrive newest first, so each insertion walks on from the last.
    cursor: [u32; 4],
    batch: u32,
}

/// One committed access, a node of its run.
#[derive(Clone, Copy, Debug)]
struct Access {
    seq: u64,
    txn: TxnId,
    /// The access of the run recorded before it.
    prev: u32,
}

/// A shadow hold: an instance whose recorded lock of the entity has no
/// recorded unlock yet, with the mode.
#[derive(Clone, Copy, Debug)]
struct Hold {
    inst: Instance,
    mode: LockMode,
    next: u32,
}

/// An access held back until its instance commits, and the instance's
/// previous one.
#[derive(Clone, Copy, Debug)]
struct HeldBack {
    seq: u64,
    entity: EntityId,
    kind: AccessKind,
    prev: u32,
}

/// What the audit knows of the instance it follows for one transaction.
#[derive(Clone, Copy, Debug)]
struct Slot {
    epoch: u32,
    state: Follow,
    /// Distinct steps recorded.
    recorded: u32,
    /// Its last access held back in [`History::held_back`].
    accesses: u32,
    /// The transaction's first word in [`History::done`].
    first_word: u32,
}

/// Where a transaction's followed instance stands. A transaction has one
/// live instance at a time: an event of a later epoch retires the live
/// one as aborted, and events of earlier epochs are ignored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Follow {
    /// Nothing followed yet: the next event of epoch `epoch` or later
    /// starts following.
    #[default]
    Idle,
    /// Epoch `epoch` records steps.
    Live,
    /// Epoch `epoch` committed.
    Committed,
}

/// An illegal event of the history, as it will be reported.
#[derive(Clone, Copy, Debug)]
struct Fault {
    /// The event's sequence number: the earliest confirmed fault is the
    /// one reported.
    seq: u64,
    time: SimTime,
    inst: Instance,
    what: FaultKind,
}

#[derive(Clone, Copy, Debug)]
enum FaultKind {
    Twice(StepId),
    AfterSuccessor { step: StepId, succ: StepId },
    NotHeld(EntityId),
    Conflict { entity: EntityId, holder: Instance },
}

/// `T4 (epoch 0)`.
struct Named(Instance);

impl fmt::Display for Named {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (epoch {})", self.0.txn, self.0.epoch)
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (tick, inst) = (self.time, Named(self.inst));
        match self.what {
            FaultKind::Conflict { entity, holder } => write!(
                f,
                "tick {tick}: {inst} locks {entity} already held by {}",
                Named(holder)
            ),
            FaultKind::Twice(step) => write!(f, "tick {tick}: {inst} records {step} twice"),
            FaultKind::AfterSuccessor { step, succ } => write!(
                f,
                "tick {tick}: {inst} records {step} after its successor {succ}"
            ),
            FaultKind::NotHeld(entity) => {
                write!(f, "tick {tick}: {inst} unlocks {entity} it does not hold")
            }
        }
    }
}

impl<'a> History<'a> {
    /// An empty history of a run of `sys`.
    pub fn new(sys: &'a TxnSystem) -> Self {
        let mut words = 0;
        let slots = sys
            .txns()
            .iter()
            .map(|t| {
                let first_word = words as u32;
                words += t.len().div_ceil(64);
                Slot {
                    epoch: 0,
                    state: Follow::Idle,
                    recorded: 0,
                    accesses: NONE,
                    first_word,
                }
            })
            .collect();
        History {
            sys,
            events: Vec::new(),
            slots,
            done: vec![0; words],
            held_back: Vec::new(),
            held: vec![NONE; sys.db().entity_count()],
            holds: Vec::new(),
            free_hold: NONE,
            runs_at: vec![NONE; sys.db().entity_count()],
            runs: Vec::new(),
            accesses: Vec::new(),
            pending: Vec::new(),
            fault: None,
            order: Serial::new(sys.len()),
        }
    }

    /// Records an applied step and audits it. Every runner records in
    /// non-decreasing time, so the record order is the schedule order.
    pub fn record(&mut self, time: SimTime, inst: Instance, step: StepId) {
        debug_assert!(
            self.events.last().is_none_or(|e| e.time <= time),
            "{inst:?} records {step} at tick {time}, before the last event"
        );
        let seq = self.events.len() as u64;
        self.events.push(HistoryEvent {
            time,
            seq,
            inst,
            step,
        });
        if !self.follow(inst) {
            return;
        }
        let t = inst.txn.idx();
        let fault = |what| Fault {
            seq,
            time,
            inst,
            what,
        };
        let (word, bit) = self.bit(t, step.idx());
        if self.done[word] & bit != 0 {
            self.fault(fault(FaultKind::Twice(step)));
        } else {
            self.done[word] |= bit;
            self.slots[t].recorded += 1;
        }
        let sys = self.sys;
        let txn = sys.txn(inst.txn);
        // A step recorded before a predecessor shows when the predecessor
        // comes: from the successors, the lists step issue reads too.
        let succs = txn.edge_graph().successors(step.idx());
        if let Some(&succ) = succs.iter().find(|&&s| self.is_done(t, s)) {
            let succ = StepId::from_idx(succ);
            self.fault(fault(FaultKind::AfterSuccessor { step, succ }));
        }
        let s = txn.step(step);
        match s.kind {
            ActionKind::Lock => {
                let mut h = self.held[s.entity.idx()];
                while h != NONE {
                    let Hold {
                        inst: holder,
                        mode,
                        next,
                    } = self.holds[h as usize];
                    if holder != inst && !mode.compatible_with(s.mode) {
                        let entity = s.entity;
                        self.fault(fault(FaultKind::Conflict { entity, holder }));
                    }
                    h = next;
                }
                self.hold(s.entity, inst, s.mode);
            }
            ActionKind::Unlock => {
                if !self.release(s.entity, inst) {
                    self.fault(fault(FaultKind::NotHeld(s.entity)));
                }
            }
            ActionKind::Update => {}
        }
        let committed = self.slots[t].state == Follow::Committed;
        if committed {
            self.order.begin(inst.txn);
        }
        for access in step_accesses(sys.db(), txn, step) {
            let Some((entity, kind)) = access else {
                continue;
            };
            if committed {
                self.insert(inst.txn, entity, kind, seq);
            } else {
                let prev = self.slots[t].accesses;
                self.slots[t].accesses = self.held_back.len() as u32;
                let access = HeldBack {
                    seq,
                    entity,
                    kind,
                    prev,
                };
                self.held_back.push(access);
            }
        }
    }

    /// `inst` was aborted and will never commit: its shadow holds go, as
    /// the engine's abort releases its table holds, and so do the
    /// conflicts pending on it. Later events of it are ignored.
    pub fn abort(&mut self, inst: Instance) {
        let slot = &self.slots[inst.txn.idx()];
        debug_assert!(
            slot.state != Follow::Committed || slot.epoch != inst.epoch,
            "{inst:?} aborts after it committed"
        );
        if slot.state == Follow::Live && slot.epoch == inst.epoch {
            self.retire(inst.txn);
        }
        let slot = &mut self.slots[inst.txn.idx()];
        if slot.state == Follow::Idle && slot.epoch <= inst.epoch {
            slot.epoch = inst.epoch + 1;
        }
    }

    /// `inst` committed: its recorded steps join the committed projection.
    /// Its own faults and the conflicts pending between it and committed
    /// instances are confirmed, and its accesses join the serialization
    /// graph. An instance commits once, and no later epoch of its
    /// transaction may have recorded before it.
    ///
    /// Returns the earliest fault this commit confirms, worded as
    /// [`Audit::legal`] words it, so a runner can stop at the commit
    /// instead of at the end of the run.
    pub fn commit(&mut self, inst: Instance) -> Option<String> {
        let t = inst.txn.idx();
        let following = self.follow(inst) && self.slots[t].state == Follow::Live;
        debug_assert!(following, "{inst:?} commits twice or after a later epoch");
        if !following {
            return None;
        }
        self.slots[t].state = Follow::Committed;
        let mut confirmed: Option<Fault> = None;
        let mut i = 0;
        while i < self.pending.len() {
            let f = self.pending[i];
            if self.committed(&f) {
                self.pending.swap_remove(i);
                self.confirm(f);
                if confirmed.is_none_or(|g| f.seq < g.seq) {
                    confirmed = Some(f);
                }
            } else {
                i += 1;
            }
        }
        self.order.commit(inst.txn);
        let mut at = std::mem::replace(&mut self.slots[t].accesses, NONE);
        while at != NONE {
            let a = self.held_back[at as usize];
            self.insert(inst.txn, a.entity, a.kind, a.seq);
            at = a.prev;
        }
        confirmed.map(|f| f.to_string())
    }

    /// Whether `inst` has recorded `step`: the done-bit of the instance
    /// the audit follows, which an abort clears. A runner asks this to
    /// record a step once per epoch however often its request arrives.
    pub fn recorded(&self, inst: Instance, step: StepId) -> bool {
        let t = inst.txn.idx();
        self.slots[t].epoch == inst.epoch && self.is_done(t, step.idx())
    }

    /// All events in application order.
    pub fn events(&self) -> &[HistoryEvent] {
        &self.events
    }

    /// Projects the history onto the committed epochs: only events of
    /// `(txn, committed_epoch[txn])` are kept (aborted attempts are undone
    /// by the lock manager and carry no data flow). A transaction that
    /// never committed is `None` and contributes *nothing*. Returns a
    /// [`Schedule`] in application order — the record order, since time
    /// never decreases along it.
    pub fn committed_schedule(&self, committed_epoch: &[Option<u32>]) -> Schedule {
        Schedule::new(
            self.events
                .iter()
                .filter(|e| committed_epoch[e.inst.txn.idx()] == Some(e.inst.epoch))
                .map(|e| ScheduledStep {
                    txn: e.inst.txn,
                    step: e.step,
                })
                .collect(),
        )
    }

    /// The epoch each transaction committed at, if it did.
    fn committed_epochs(&self) -> Vec<Option<u32>> {
        let committed = |s: &Slot| (s.state == Follow::Committed).then_some(s.epoch);
        self.slots.iter().map(committed).collect()
    }

    /// The legality verdict on the committed projection: its earliest
    /// illegal event, else a committed instance that left steps
    /// unrecorded, else a transaction with steps that never committed.
    fn legal(&self) -> Result<(), ModelError> {
        let illegal = |why: String| Err(ModelError::IllegalSchedule(why));
        if let Some(f) = self.fault {
            return illegal(f.to_string());
        }
        for (t, (slot, txn)) in self.slots.iter().zip(self.sys.txns()).enumerate() {
            let inst = Instance {
                txn: TxnId::from_idx(t),
                epoch: slot.epoch,
            };
            if slot.state == Follow::Committed && (slot.recorded as usize) < txn.len() {
                let (recorded, len) = (slot.recorded, txn.len());
                return illegal(format!(
                    "{} committed with {recorded} of {len} steps recorded",
                    Named(inst)
                ));
            }
            if slot.state != Follow::Committed && !txn.is_empty() {
                return illegal(format!("{} never committed", inst.txn));
            }
        }
        Ok(())
    }

    /// Follows `inst` if its event belongs in the audit: its transaction's
    /// followed instance, or a later epoch, which retires the followed one.
    fn follow(&mut self, inst: Instance) -> bool {
        let slot = &self.slots[inst.txn.idx()];
        match slot.state {
            _ if inst.epoch < slot.epoch => false,
            Follow::Committed => inst.epoch == slot.epoch,
            Follow::Live if inst.epoch == slot.epoch => true,
            Follow::Live | Follow::Idle => {
                if slot.state == Follow::Live {
                    self.retire(inst.txn);
                }
                let slot = &mut self.slots[inst.txn.idx()];
                slot.epoch = inst.epoch;
                slot.state = Follow::Live;
                true
            }
        }
    }

    /// Forgets `txn`'s live instance as aborted.
    fn retire(&mut self, txn: TxnId) {
        let t = txn.idx();
        let inst = Instance {
            txn,
            epoch: self.slots[t].epoch,
        };
        if self.slots[t].recorded > 0 {
            let steps = self.sys.txn(txn).steps();
            for (s, step) in steps.iter().enumerate() {
                if step.kind == ActionKind::Lock && self.is_done(t, s) {
                    self.release(step.entity, inst);
                }
            }
            let first = self.slots[t].first_word as usize;
            self.done[first..first + steps.len().div_ceil(64)].fill(0);
        }
        self.pending
            .retain(|f| f.inst != inst && f.holder() != Some(inst));
        let slot = &mut self.slots[t];
        slot.state = Follow::Idle;
        slot.recorded = 0;
        slot.accesses = NONE;
    }

    /// Adds a shadow hold of `entity` by `inst`.
    fn hold(&mut self, entity: EntityId, inst: Instance, mode: LockMode) {
        let next = self.held[entity.idx()];
        let hold = Hold { inst, mode, next };
        let at = if self.free_hold == NONE {
            self.holds.push(hold);
            self.holds.len() - 1
        } else {
            let at = self.free_hold as usize;
            self.free_hold = self.holds[at].next;
            self.holds[at] = hold;
            at
        };
        self.held[entity.idx()] = at as u32;
    }

    /// Removes `inst`'s shadow holds of `entity`; false if it had none.
    fn release(&mut self, entity: EntityId, inst: Instance) -> bool {
        let mut released = false;
        let (mut prev, mut h) = (NONE, self.held[entity.idx()]);
        while h != NONE {
            let next = self.holds[h as usize].next;
            if self.holds[h as usize].inst == inst {
                match prev {
                    NONE => self.held[entity.idx()] = next,
                    p => self.holds[p as usize].next = next,
                }
                self.holds[h as usize].next = self.free_hold;
                self.free_hold = h;
                released = true;
            } else {
                prev = h;
            }
            h = next;
        }
        released
    }

    /// Adds committed transaction `b`'s access of `entity` at `seq` to the
    /// serialization graph: links it to every conflicting access between
    /// it and the nearest direct write on either side, that write
    /// included, then splices it into its run.
    fn insert(&mut self, b: TxnId, entity: EntityId, kind: AccessKind, seq: u64) {
        if self.order.cyclic {
            return;
        }
        let at = &mut self.runs_at[entity.idx()];
        if *at == NONE {
            *at = self.runs.len() as u32;
            self.runs.push(Runs {
                last: [NONE; 4],
                cursor: [NONE; 4],
                batch: 0,
            });
        }
        let e = *at as usize;
        self.link(e, b, kind, seq);
        let k = kind.index();
        let runs = &mut self.runs[e];
        if runs.batch != self.order.batch {
            runs.batch = self.order.batch;
            runs.cursor = [NONE; 4];
        }
        let start = match runs.cursor[k] {
            NONE => runs.last[k],
            cursor => cursor,
        };
        let (before, after) = self.find(start, seq);
        let new = self.accesses.len() as u32;
        self.accesses.push(Access {
            seq,
            txn: b,
            prev: before,
        });
        let runs = &mut self.runs[e];
        match after {
            NONE => runs.last[k] = new,
            after => self.accesses[after as usize].prev = new,
        }
        runs.cursor[k] = new;
    }

    /// Walking back from access `from`: the last access recorded before
    /// `seq`, and the one after it.
    fn find(&self, from: u32, seq: u64) -> (u32, u32) {
        let (mut at, mut after) = (from, NONE);
        while at != NONE && self.accesses[at as usize].seq > seq {
            after = at;
            at = self.accesses[at as usize].prev;
        }
        (at, after)
    }

    /// Links `b`'s access of kind `kind` at `seq` to the accesses of entity
    /// `e` it conflicts with, out to the nearest direct write either side.
    fn link(&mut self, e: usize, b: TxnId, kind: AccessKind, seq: u64) {
        // The direct writes' run, the last: every other kind is scanned up to
        // the nearest of them either side.
        const WRITES: usize = AccessKind::DIRECT_WRITE.index();
        let runs = self.runs[e];
        let (before, after) = self.find(runs.last[WRITES], seq);
        let (mut lo, mut hi) = (None, u64::MAX);
        if before != NONE {
            let w = self.accesses[before as usize];
            lo = Some(w.seq);
            if w.txn != b {
                self.order.link(w.txn, b);
            }
        }
        if after != NONE {
            let w = self.accesses[after as usize];
            hi = w.seq;
            if w.txn != b {
                self.order.link(b, w.txn);
            }
        }
        for k in 0..WRITES {
            if kind.conflicting() & (1 << k) == 0 {
                continue;
            }
            // Back from the run's last access: past `hi` to `seq`, linking
            // out of `b`, then on down to `lo`, linking into it.
            let mut at = runs.last[k];
            while at != NONE {
                let a = self.accesses[at as usize];
                let after = a.seq > seq;
                if !after && lo.is_some_and(|lo| a.seq < lo) {
                    break;
                }
                if a.txn != b && a.seq < hi {
                    match after {
                        true => self.order.link(b, a.txn),
                        false => self.order.link(a.txn, b),
                    }
                }
                at = a.prev;
            }
        }
    }

    fn is_committed(&self, inst: Instance) -> bool {
        let slot = &self.slots[inst.txn.idx()];
        slot.state == Follow::Committed && slot.epoch == inst.epoch
    }

    /// Whether every instance `f` waits for has committed.
    fn committed(&self, f: &Fault) -> bool {
        self.is_committed(f.inst) && f.holder().is_none_or(|h| self.is_committed(h))
    }

    /// A fault at a followed instance's event: confirmed once its
    /// instances have committed, forgotten if one aborts.
    fn fault(&mut self, f: Fault) {
        if self.committed(&f) {
            self.confirm(f);
        } else {
            self.pending.push(f);
        }
    }

    fn confirm(&mut self, f: Fault) {
        if self.fault.is_none_or(|g| f.seq < g.seq) {
            self.fault = Some(f);
        }
    }

    /// The word and bit of step `s` in `t`'s run of `done`.
    fn bit(&self, t: usize, s: usize) -> (usize, u64) {
        (self.slots[t].first_word as usize + s / 64, 1 << (s % 64))
    }

    fn is_done(&self, t: usize, s: usize) -> bool {
        let (word, bit) = self.bit(t, s);
        self.done[word] & bit != 0
    }
}

impl Fault {
    /// The other instance a lock conflict waits for.
    fn holder(&self) -> Option<Instance> {
        match self.what {
            FaultKind::Conflict { holder, .. } => Some(holder),
            _ => None,
        }
    }
}

/// The serialization graph's cycle check: the committed transactions in a
/// [`TopoOrder`], each placed last as it commits. Edges are added one
/// transaction at a time ([`Serial::begin`]), all into or out of it; a
/// repeat within its batch is dropped, and the first edge that would
/// close a cycle leaves the graph cyclic for good.
#[derive(Clone, Debug)]
struct Serial {
    order: TopoOrder,
    /// The transaction whose edges are being added, and its batch stamp.
    node: TxnId,
    batch: u32,
    /// Per transaction, `(from, to)`: `from == batch`, the edge into the
    /// batch's transaction from this one is in; `to == batch`, the edge
    /// from it to this one is.
    marks: Vec<(u32, u32)>,
    cyclic: bool,
}

impl Serial {
    fn new(n: usize) -> Self {
        Serial {
            order: TopoOrder::new(n),
            node: TxnId(0),
            batch: 0,
            marks: vec![(0, 0); n],
            cyclic: false,
        }
    }

    /// `txn` joins the order, last, and its edges follow.
    fn commit(&mut self, txn: TxnId) {
        self.order.place_last(txn.idx());
        self.begin(txn);
    }

    /// The edges that follow are into or out of `txn`.
    fn begin(&mut self, txn: TxnId) {
        self.node = txn;
        self.batch += 1;
    }

    #[inline]
    fn link(&mut self, x: TxnId, y: TxnId) {
        let mark = if y == self.node {
            &mut self.marks[x.idx()].0
        } else {
            &mut self.marks[y.idx()].1
        };
        if std::mem::replace(mark, self.batch) != self.batch
            && !self.order.add_edge(x.idx(), y.idx())
        {
            self.cyclic = true;
        }
    }
}

/// Result of auditing a run's committed schedule against the model.
#[derive(Clone, Debug)]
pub struct Audit {
    /// The committed schedule.
    pub schedule: Schedule,
    /// Whether it is legal and complete for the system.
    pub legal: Result<(), ModelError>,
    /// Whether it is conflict-serializable.
    pub serializable: bool,
}

/// The audit of a run's committed projection: the verdict `history` kept
/// as it was recorded, beside the projected schedule.
pub fn audit(history: &History<'_>) -> Audit {
    let schedule = history.committed_schedule(&history.committed_epochs());
    let legal = history.legal();
    let serializable = !history.order.cyclic;
    #[cfg(debug_assertions)]
    {
        let sys = history.sys;
        let offline = schedule.validate_complete(sys);
        assert_eq!(
            legal.is_ok(),
            offline.is_ok(),
            "the online legality verdict {legal:?} disagrees with validate_complete's {offline:?}"
        );
        assert_eq!(
            serializable,
            kplock_model::is_serializable(sys, &schedule),
            "the online serializability verdict disagrees with is_serializable"
        );
    }
    Audit {
        schedule,
        legal,
        serializable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_model::{Database, TxnBuilder};

    fn inst(txn: u32, epoch: u32) -> Instance {
        Instance {
            txn: TxnId(txn),
            epoch,
        }
    }

    /// Two transactions, each `Lx x Ux` on the one entity `x` (`e0`).
    fn double_lock_system() -> TxnSystem {
        let db = Database::from_spec(&[("x", 0)]);
        let txns = ["T1", "T2"]
            .into_iter()
            .map(|name| {
                let mut b = TxnBuilder::new(&db, name);
                b.script("Lx x Ux").unwrap();
                b.build().unwrap()
            })
            .collect();
        TxnSystem::new(db, txns)
    }

    /// T2 locks `x` at tick 7 while T1 holds it.
    fn record_double_lock(h: &mut History<'_>) {
        h.record(5, inst(0, 0), StepId(0));
        h.record(7, inst(1, 0), StepId(0));
        h.record(8, inst(0, 0), StepId(1));
        h.record(9, inst(1, 0), StepId(1));
        h.record(10, inst(0, 0), StepId(2));
        h.record(11, inst(1, 0), StepId(2));
    }

    #[test]
    fn a_double_lock_both_commit_is_named_at_its_event() {
        let sys = double_lock_system();
        let mut h = History::new(&sys);
        record_double_lock(&mut h);
        h.commit(inst(0, 0));
        h.commit(inst(1, 0));
        let a = audit(&h);
        let err = a.legal.unwrap_err().to_string();
        assert!(
            err.contains("tick 7: T1 (epoch 0) locks e0 already held by T0 (epoch 0)"),
            "{err}"
        );
        assert!(a.schedule.validate_complete(&sys).is_err());
    }

    #[test]
    fn a_double_lock_whose_holder_aborts_is_legal() {
        let sys = double_lock_system();
        let mut h = History::new(&sys);
        record_double_lock(&mut h);
        h.abort(inst(0, 0));
        h.commit(inst(1, 0));
        // The holder's next epoch runs alone, after.
        h.record(20, inst(0, 1), StepId(0));
        h.record(21, inst(0, 1), StepId(1));
        h.record(22, inst(0, 1), StepId(2));
        h.commit(inst(0, 1));
        let a = audit(&h);
        a.legal.unwrap();
        assert!(a.serializable);
        assert_eq!(a.schedule.len(), 6);
    }

    #[test]
    fn a_conflict_waits_for_the_second_commit() {
        let sys = double_lock_system();
        let mut h = History::new(&sys);
        record_double_lock(&mut h);
        assert_eq!(h.commit(inst(1, 0)), None);
        assert!(h.fault.is_none() && h.pending.len() == 1);
        let confirmed = h.commit(inst(0, 0));
        assert!(h.fault.is_some() && h.pending.is_empty());
        assert_eq!(
            confirmed.as_deref(),
            Some("tick 7: T1 (epoch 0) locks e0 already held by T0 (epoch 0)")
        );
    }

    #[test]
    fn committed_projection_filters_epochs() {
        let sys = double_lock_system();
        let mut h = History::new(&sys);
        h.record(1, inst(0, 0), StepId(0));
        h.record(2, inst(0, 1), StepId(0));
        h.record(3, inst(1, 0), StepId(0));
        let s = h.committed_schedule(&[Some(1), Some(0)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.steps()[0].txn, TxnId(0));
        assert_eq!(s.steps()[1].txn, TxnId(1));
        // An unfinished transaction contributes nothing — even though it
        // recorded events at epochs 0 and 1, no phantom epoch matches.
        let s = h.committed_schedule(&[None, Some(0)]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.steps()[0].txn, TxnId(1));
    }
}
