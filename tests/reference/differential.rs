//! The differential harness: [`Pair`] drives the reference model and
//! [`QueueTable`] with the same operations and requires equal results and
//! equal observable state after every step.

use super::{Entry, Owner, RefTable};
use kplock::dlm::{
    Acquire, CancelOutcome, EntityGrants, Grants, LockError, PreventionOutcome, PreventionScheme,
    Priority, QueueTable,
};
use kplock::model::{EntityId, LockMode};

/// One step of an operation stream.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Request {
        e: u32,
        o: Owner,
        mode: LockMode,
    },
    /// Prevention-admission request under one of the three schemes.
    RequestPrio {
        e: u32,
        o: Owner,
        mode: LockMode,
        scheme: PreventionScheme,
    },
    /// Release; the same `NotHolder` on both sides when `o` holds nothing.
    Release {
        e: u32,
        o: Owner,
    },
    Cancel {
        o: Owner,
    },
    ReleaseAll {
        o: Owner,
    },
}

/// The shape of a random stream: its mode alphabet, how many entities and
/// owners it spreads over, and how many draws in ten are plain requests
/// (two more are priority requests; the rest release, cancel, release-all).
pub struct Shape {
    pub modes: &'static [LockMode],
    pub entities: u32,
    pub owners: Owner,
    pub requests_in_ten: u8,
}

/// Expands a proptest-drawn seed into an op stream (the vendored proptest
/// shim has no combinator strategies, so composition happens here with an
/// explicitly seeded RNG — reproducible from the reported `seed`/`len`).
pub fn gen_ops(seed: u64, len: usize, shape: &Shape) -> Vec<Op> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let schemes = [
        PreventionScheme::WoundWait,
        PreventionScheme::WaitDie,
        PreventionScheme::NoWait,
    ];
    (0..len)
        .map(|_| {
            let e = rng.gen_range(0..shape.entities);
            let o = rng.gen_range(0..shape.owners);
            let mode = shape.modes[rng.gen_range(0..shape.modes.len())];
            let scheme = schemes[rng.gen_range(0..3usize)];
            match rng.gen_range(0u8..10) {
                d if d < shape.requests_in_ten => Op::Request { e, o, mode },
                d if d < shape.requests_in_ten + 2 => Op::RequestPrio { e, o, mode, scheme },
                8 => Op::Cancel { o },
                9 => Op::ReleaseAll { o },
                _ => Op::Release { e, o },
            }
        })
        .collect()
}

/// Lower owner id = older transaction, like the runners' birth order.
pub fn prio(o: Owner) -> Priority {
    (u64::from(o), 0)
}

/// The model and the table under test, driven in lockstep: every method
/// applies the operation to both, requires equal results — grant order
/// included — and returns the result.
#[derive(Default)]
pub struct Pair {
    pub model: RefTable,
    pub table: QueueTable<Owner>,
}

impl Pair {
    pub fn request(&mut self, e: EntityId, o: Owner, mode: LockMode) -> Result<Acquire, LockError> {
        let (m, t) = (
            self.model.request(e, o, mode),
            self.table.request(e, o, mode),
        );
        assert_eq!(m, t, "request({e}, {o}, {mode}) diverged");
        t
    }

    pub fn request_with_priority(
        &mut self,
        e: EntityId,
        o: Owner,
        mode: LockMode,
        scheme: PreventionScheme,
    ) -> Result<PreventionOutcome<Owner>, LockError> {
        let m = self.model.request_with_priority(e, o, mode, scheme, prio);
        let t = self.table.request_with_priority(e, o, mode, scheme, prio);
        assert_eq!(m, t, "{scheme:?} request({e}, {o}, {mode}) diverged");
        t
    }

    pub fn release(&mut self, e: EntityId, o: Owner) -> Result<Grants<Owner>, LockError> {
        let (m, t) = (self.model.release(e, o), self.table.release(e, o));
        assert_eq!(m, t, "release({e}, {o}) diverged");
        t
    }

    pub fn cancel_waits(&mut self, o: Owner) -> CancelOutcome<Owner> {
        let (m, t) = (self.model.cancel_waits(o), self.table.cancel_waits(o));
        assert_eq!(m, t, "cancel_waits({o}) diverged");
        t
    }

    pub fn release_all(&mut self, o: Owner) -> EntityGrants<Owner> {
        let (m, t) = (self.model.release_all(o), self.table.release_all(o));
        assert_eq!(m, t, "release_all({o}) diverged");
        t
    }

    pub fn apply(&mut self, op: Op) {
        match op {
            Op::Request { e, o, mode } => drop(self.request(EntityId(e), o, mode)),
            Op::RequestPrio { e, o, mode, scheme } => {
                drop(self.request_with_priority(EntityId(e), o, mode, scheme));
            }
            Op::Release { e, o } => drop(self.release(EntityId(e), o)),
            Op::Cancel { o } => drop(self.cancel_waits(o)),
            Op::ReleaseAll { o } => drop(self.release_all(o)),
        }
    }

    /// Every query the table answers must agree with the model's scan,
    /// and the table must pass its own audit.
    pub fn assert_same_state(&self, shape: &Shape, ctx: &str) {
        let (m, t) = (&self.model, &self.table);
        t.check_invariants()
            .unwrap_or_else(|e| panic!("invariants after {ctx}: {e}"));
        assert_eq!(m.waits_for(), t.waits_for(), "waits_for after {ctx}");
        assert_eq!(
            m.active_entities(),
            t.active_entities(),
            "active after {ctx}"
        );
        assert_eq!(m.is_idle(), t.is_idle(), "is_idle after {ctx}");
        for o in 0..shape.owners {
            assert_eq!(m.held_by(o), t.held_by(o), "held_by({o}) after {ctx}");
            assert_eq!(m.waits_of(o), t.waits_of(o), "waits_of({o}) after {ctx}");
        }
        for e in (0..shape.entities).map(EntityId) {
            let sorted = |mut v: Vec<Entry>| {
                v.sort_unstable();
                v
            };
            assert_eq!(
                sorted(m.holders(e)),
                sorted(t.holders(e)),
                "holders({e}) after {ctx}"
            );
            assert_eq!(
                m.entity_waits_for(e),
                t.entity_waits_for(e),
                "edges({e}) after {ctx}"
            );
            assert_eq!(
                t.has_waiters(e),
                !m.entity_waits_for(e).is_empty(),
                "has_waiters({e}) after {ctx}"
            );
            for o in 0..shape.owners {
                assert_eq!(m.holds(e, o), t.holds(e, o), "holds({e},{o}) after {ctx}");
                assert_eq!(
                    m.is_waiting(e, o),
                    t.is_waiting(e, o),
                    "is_waiting({e},{o}) after {ctx}"
                );
                assert_eq!(
                    m.conflicts_of(e, o),
                    t.conflicts_of(e, o),
                    "conflicts_of({e},{o}) after {ctx}"
                );
                // Appended after what the buffer already holds, unsorted.
                let mut at = vec![Owner::MAX];
                t.waits_at_into(e, o, &mut at);
                assert_eq!(at.remove(0), Owner::MAX, "waits_at_into({e},{o}) cleared");
                at.sort_unstable();
                assert_eq!(m.waits_at(e, o), at, "waits_at_into({e},{o}) after {ctx}");
            }
        }
    }
}

/// The core differential: a random stream leaves the model and the table
/// indistinguishable at *every* step, not just at the end.
pub fn run_differential(seed: u64, len: usize, shape: &Shape) {
    let mut pair = Pair::default();
    for (i, &op) in gen_ops(seed, len, shape).iter().enumerate() {
        pair.apply(op);
        pair.assert_same_state(shape, &format!("op {i} = {op:?}"));
    }
}
