//! The lock-table protocol written the obvious way.
//!
//! [`RefTable`] is a map of three `Vec`s per entity — holders, pending
//! upgrades, FIFO queue — with no arena, no reverse index and no cached
//! anything: every query is a scan of the map. It exists so the production
//! table has an independent oracle for its request / priority-request /
//! release / cancel / release-all surface (it replaces the second
//! production table, `FifoTable`, that used to play this role).
//! [`differential`] is the harness that holds `QueueTable` to it.

#![allow(dead_code)] // each test binary uses its own part of the harness

pub mod differential;

use kplock::dlm::{
    Acquire, CancelOutcome, EntityGrants, Grants, LockError, PreventionOutcome, PreventionScheme,
    Priority,
};
use kplock::model::{EntityId, LockMode};
use std::collections::BTreeMap;

pub type Owner = u32;
pub type Entry = (Owner, LockMode);

#[derive(Default)]
struct Entity {
    holders: Vec<Entry>,
    /// Holders waiting to strengthen their lock, with the join target.
    upgrades: Vec<Entry>,
    queue: Vec<Entry>,
}

/// What admission decided: granted on the spot, or wait — as an upgrade
/// to `Some(target)` or as a fresh request.
enum Admit {
    Granted,
    Wait(Option<LockMode>),
}

impl Entity {
    fn holds(&self, o: Owner) -> Option<LockMode> {
        self.holders.iter().find(|h| h.0 == o).map(|h| h.1)
    }

    fn waits(&self, o: Owner) -> bool {
        self.queue.iter().chain(&self.upgrades).any(|w| w.0 == o)
    }

    /// `mode` is compatible with every holder other than `o`.
    fn others_admit(&self, o: Owner, mode: LockMode) -> bool {
        self.holders
            .iter()
            .all(|&(h, m)| h == o || mode.compatible_with(m))
    }

    fn set_mode(&mut self, o: Owner, mode: LockMode) {
        for h in self.holders.iter_mut().filter(|h| h.0 == o) {
            h.1 = mode;
        }
    }

    fn admit(&mut self, e: EntityId, o: Owner, mode: LockMode) -> Result<Admit, LockError> {
        if self.waits(o) {
            return Err(LockError::AlreadyQueued { entity: e });
        }
        if let Some(held) = self.holds(o) {
            let target = held.join(mode);
            if target == held {
                return Ok(Admit::Granted); // already covered
            }
            if self.others_admit(o, target) {
                self.set_mode(o, target);
                return Ok(Admit::Granted);
            }
            return Ok(Admit::Wait(Some(target)));
        }
        // FIFO: a fresh request never overtakes anybody already waiting.
        if self.queue.is_empty() && self.upgrades.is_empty() && self.others_admit(o, mode) {
            self.holders.push((o, mode));
            Ok(Admit::Granted)
        } else {
            Ok(Admit::Wait(None))
        }
    }

    fn enqueue(&mut self, o: Owner, mode: LockMode, upgrade: Option<LockMode>) {
        match upgrade {
            Some(target) => self.upgrades.push((o, target)),
            None => self.queue.push((o, mode)),
        }
    }

    /// Grants what the state now admits: admissible upgrades first, then
    /// the front of the queue for as long as it is compatible.
    fn promote(&mut self) -> Grants<Owner> {
        let mut out = Vec::new();
        loop {
            let ready = (0..self.upgrades.len())
                .find(|&i| self.others_admit(self.upgrades[i].0, self.upgrades[i].1));
            if let Some(i) = ready {
                let (u, target) = self.upgrades.remove(i);
                self.set_mode(u, target);
                out.push((u, target));
                continue;
            }
            match self.queue.first() {
                Some(&(w, m)) if self.upgrades.is_empty() && self.others_admit(w, m) => {
                    self.queue.remove(0);
                    self.holders.push((w, m));
                    out.push((w, m));
                }
                _ => return out,
            }
        }
    }

    /// Everybody a waiting `o` is admitted against: holders and upgraders,
    /// plus the queue unless `o` is an upgrader (served before the queue).
    fn obstacles(&self, o: Owner, upgrading: bool) -> Vec<Owner> {
        let queue = self.queue.iter().filter(|_| !upgrading);
        let all = self.holders.iter().chain(&self.upgrades).chain(queue);
        let mut out: Vec<Owner> = all.map(|x| x.0).filter(|&x| x != o).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn waits_for(&self) -> Vec<(Owner, Owner)> {
        let mut out = Vec::new();
        for &(w, _) in self.queue.iter().chain(&self.upgrades) {
            out.extend(self.holders.iter().filter(|h| h.0 != w).map(|h| (w, h.0)));
        }
        out
    }

    fn is_empty(&self) -> bool {
        self.holders.is_empty() && self.upgrades.is_empty() && self.queue.is_empty()
    }
}

/// The reference lock table. Owners are `u32`; smaller ids sort first.
#[derive(Default)]
pub struct RefTable {
    entities: BTreeMap<EntityId, Entity>,
}

impl RefTable {
    /// Runs `f` on `e`'s state (created on demand), then drops every
    /// state that ended up empty.
    fn with<R>(&mut self, e: EntityId, f: impl FnOnce(&mut Entity) -> R) -> R {
        let out = f(self.entities.entry(e).or_default());
        self.entities.retain(|_, st| !st.is_empty());
        out
    }

    pub fn request(&mut self, e: EntityId, o: Owner, mode: LockMode) -> Result<Acquire, LockError> {
        self.with(e, |st| match st.admit(e, o, mode)? {
            Admit::Granted => Ok(Acquire::Granted),
            Admit::Wait(upgrade) => {
                st.enqueue(o, mode, upgrade);
                Ok(Acquire::Queued)
            }
        })
    }

    pub fn request_with_priority(
        &mut self,
        e: EntityId,
        o: Owner,
        mode: LockMode,
        scheme: PreventionScheme,
        prio: impl Fn(Owner) -> Priority,
    ) -> Result<PreventionOutcome<Owner>, LockError> {
        self.with(e, |st| {
            let upgrade = match st.admit(e, o, mode)? {
                Admit::Granted => return Ok(PreventionOutcome::Granted),
                Admit::Wait(upgrade) => upgrade,
            };
            let obstacles = st.obstacles(o, upgrade.is_some());
            let younger: Vec<Owner> = obstacles
                .iter()
                .copied()
                .filter(|&x| prio(x) > prio(o))
                .collect();
            Ok(match scheme {
                PreventionScheme::NoWait => PreventionOutcome::Rejected,
                PreventionScheme::WaitDie if younger.len() < obstacles.len() => {
                    PreventionOutcome::Rejected
                }
                _ => {
                    st.enqueue(o, mode, upgrade);
                    if scheme == PreventionScheme::WoundWait && !younger.is_empty() {
                        PreventionOutcome::Wounded(younger)
                    } else {
                        PreventionOutcome::Queued
                    }
                }
            })
        })
    }

    pub fn release(&mut self, e: EntityId, o: Owner) -> Result<Grants<Owner>, LockError> {
        self.with(e, |st| {
            if st.holds(o).is_none() {
                return Err(LockError::NotHolder { entity: e });
            }
            st.holders.retain(|h| h.0 != o);
            st.upgrades.retain(|u| u.0 != o);
            Ok(st.promote())
        })
    }

    pub fn cancel_waits(&mut self, o: Owner) -> CancelOutcome<Owner> {
        let mut out = CancelOutcome::default();
        let entities = self.entities.iter().filter(|(_, st)| st.waits(o));
        let waiting: Vec<EntityId> = entities.map(|(&e, _)| e).collect();
        for e in waiting {
            let grants = self.with(e, |st| {
                st.queue.retain(|w| w.0 != o);
                st.upgrades.retain(|u| u.0 != o);
                st.promote()
            });
            out.cancelled.push(e);
            if !grants.is_empty() {
                out.granted.push((e, grants));
            }
        }
        out
    }

    pub fn release_all(&mut self, o: Owner) -> EntityGrants<Owner> {
        let held = self.held_by(o);
        held.into_iter()
            .map(|e| (e, self.release(e, o).expect("held_by listed it")))
            .collect()
    }

    pub fn holds(&self, e: EntityId, o: Owner) -> Option<LockMode> {
        self.entities.get(&e)?.holds(o)
    }

    pub fn holders(&self, e: EntityId) -> Vec<Entry> {
        self.entities
            .get(&e)
            .map_or(Vec::new(), |st| st.holders.clone())
    }

    pub fn held_by(&self, o: Owner) -> Vec<EntityId> {
        let held = self.entities.iter().filter(|(_, st)| st.holds(o).is_some());
        held.map(|(&e, _)| e).collect()
    }

    pub fn is_waiting(&self, e: EntityId, o: Owner) -> bool {
        self.entities.get(&e).is_some_and(|st| st.waits(o))
    }

    pub fn entity_waits_for(&self, e: EntityId) -> Vec<(Owner, Owner)> {
        let mut out = self.entities.get(&e).map_or(Vec::new(), Entity::waits_for);
        out.sort_unstable();
        out
    }

    pub fn waits_for(&self) -> Vec<(Owner, Owner)> {
        let mut out: Vec<_> = self.entities.values().flat_map(Entity::waits_for).collect();
        out.sort_unstable();
        out
    }

    pub fn waits_of(&self, o: Owner) -> Vec<Owner> {
        let mut out: Vec<Owner> = self
            .waits_for()
            .iter()
            .filter(|w| w.0 == o)
            .map(|w| w.1)
            .collect();
        out.dedup();
        out
    }

    /// The holders `o` waits on at `e` alone, ascending.
    pub fn waits_at(&self, e: EntityId, o: Owner) -> Vec<Owner> {
        let edges = self.entity_waits_for(e);
        edges.iter().filter(|w| w.0 == o).map(|w| w.1).collect()
    }

    pub fn conflicts_of(&self, e: EntityId, o: Owner) -> Vec<Owner> {
        self.entities.get(&e).map_or(Vec::new(), |st| {
            st.obstacles(o, st.upgrades.iter().any(|u| u.0 == o))
        })
    }

    pub fn active_entities(&self) -> Vec<EntityId> {
        self.entities.keys().copied().collect()
    }

    pub fn is_idle(&self) -> bool {
        self.entities.is_empty()
    }
}
