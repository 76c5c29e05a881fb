//! Well-formedness of locked transactions (Section 2 of the paper).
//!
//! The paper imposes:
//!
//! 1. steps on entities stored at the same site are totally ordered;
//! 2. at most one `lock x`/`unlock x` pair per entity, lock preceding
//!    unlock, and lock/unlock steps appear only as such pairs;
//! 3. if the pair exists, at least one `update x` lies between them;
//! 4. no `update x` outside such a pair.
//!
//! Constraints 3–4 make the locking neither superfluous nor incorrect; they
//! do not affect safety analysis, so [`Level::Locking`] skips them (the
//! paper's own figures omit update steps for brevity).
//!
//! On a hierarchical database (see [`Database::add_child`]) constraints 3–4
//! generalize: an update of a child is protected either by the child's own
//! lock section or by a parent lock section whose mode
//! [shields][crate::LockMode::shields_child] the access (a coarse `S`/`SIX`
//! shields reads, `X` shields everything); and a parent lock section counts
//! as non-empty when it protects an update of any of its children.

use crate::action::ActionKind;
use crate::entity::Database;
use crate::error::ModelError;
use crate::ids::StepId;
use crate::txn::Transaction;

/// How strictly to validate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Constraints 1–2 only (figure-style transactions without updates).
    Locking,
    /// All constraints, including update coverage (3–4).
    Strict,
}

/// Validates `t` against the paper's transaction model.
pub fn validate(db: &Database, t: &Transaction, level: Level) -> Result<(), ModelError> {
    validate_site_totality(db, t)?;
    validate_lock_pairs(t)?;
    if level == Level::Strict {
        validate_updates(db, t)?;
    }
    Ok(())
}

/// Constraint 1: per-site total order. The error names the first pair
/// `(a, b)`, `a < b`, of concurrent steps at one site.
pub fn validate_site_totality(db: &Database, t: &Transaction) -> Result<(), ModelError> {
    // The steps by site, each site's in step order: only two steps of one
    // run can break the constraint. A run's first pair comes before the
    // pair kept so far whenever its first step does, since no step is in
    // two runs.
    let mut by_site: Vec<_> = t
        .steps()
        .iter()
        .enumerate()
        .map(|(v, s)| (db.site_of(s.entity), v))
        .collect();
    by_site.sort_unstable();
    let mut first: Option<(usize, usize)> = None;
    for run in by_site.chunk_by(|p, q| p.0 == q.0) {
        'run: for (i, &(_, a)) in run.iter().enumerate() {
            if first.is_some_and(|(f, _)| f < a) {
                break;
            }
            for &(_, b) in &run[i + 1..] {
                if t.concurrent(StepId::from_idx(a), StepId::from_idx(b)) {
                    first = Some((a, b));
                    break 'run;
                }
            }
        }
    }
    match first {
        Some((a, b)) => Err(ModelError::SiteNotTotallyOrdered(
            StepId::from_idx(a),
            StepId::from_idx(b),
        )),
        None => Ok(()),
    }
}

/// Constraint 2: lock/unlock pairing and order. (Uniqueness is enforced at
/// construction time by [`Transaction::new`].)
pub fn validate_lock_pairs(t: &Transaction) -> Result<(), ModelError> {
    let mut entities: Vec<_> = t.steps().iter().map(|s| s.entity).collect();
    entities.sort();
    entities.dedup();
    for e in entities {
        match (t.lock_step(e), t.unlock_step(e)) {
            (None, None) => {}
            (Some(l), Some(u)) => {
                if !t.precedes(l, u) {
                    return Err(ModelError::UnlockBeforeLock(e));
                }
            }
            _ => return Err(ModelError::UnmatchedLockPair(e)),
        }
    }
    Ok(())
}

/// Constraints 3–4: every lock section contains an update; every update is
/// inside its entity's lock section, *and* the lock's mode covers the
/// update's (a write under a merely-shared lock is unprotected — two such
/// sections could overlap and race).
///
/// On a hierarchical database an update may instead be protected by a
/// parent lock section whose mode shields the access, and a parent lock
/// section is non-empty when it protects an update of any child.
pub fn validate_updates(db: &Database, t: &Transaction) -> Result<(), ModelError> {
    // Whether step `s` lies strictly inside entity `e`'s lock section.
    let in_section = |e, s| {
        let (Some(l), Some(u)) = (t.lock_step(e), t.unlock_step(e)) else {
            return false;
        };
        t.precedes(l, s) && t.precedes(s, u)
    };
    for e in t.locked_entities() {
        let own = t.update_steps(e).iter().any(|&s| in_section(e, s));
        // A parent section also counts as non-empty when an update of one
        // of its children lies inside it.
        let via_children = || {
            t.step_ids().any(|s| {
                let st = t.step(s);
                st.kind == ActionKind::Update
                    && db.parent_of(st.entity) == Some(e)
                    && in_section(e, s)
            })
        };
        if !own && !via_children() {
            return Err(ModelError::EmptyLockSection(e));
        }
    }
    for s in t.step_ids() {
        let st = t.step(s);
        if st.kind != ActionKind::Update {
            continue;
        }
        // Protected by the entity's own lock section...
        if in_section(st.entity, s) && t.step(t.lock_step(st.entity).unwrap()).mode.covers(st.mode)
        {
            continue;
        }
        // ...or shielded by a covering parent lock section.
        let shielded = db.parent_of(st.entity).is_some_and(|p| {
            in_section(p, s) && t.step(t.lock_step(p).unwrap()).mode.shields_child(st.mode)
        });
        if !shielded {
            return Err(ModelError::UnprotectedUpdate(s));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Step;
    use crate::builder::TxnBuilder;
    use crate::entity::Database;
    use crate::ids::EntityId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn db() -> Database {
        Database::from_spec(&[("x", 0), ("y", 1)])
    }

    #[test]
    fn good_strict_transaction() {
        let db = db();
        let mut b = TxnBuilder::new(&db, "T");
        b.script("Lx x Ux").unwrap();
        let t = b.build().unwrap();
        assert!(validate(&db, &t, Level::Strict).is_ok());
    }

    #[test]
    fn site_totality_violation() {
        let db = Database::from_spec(&[("x", 0), ("y", 0)]);
        // Two steps at site 0 without ordering: build Transaction directly,
        // bypassing the builder's auto-chaining.
        let t = crate::txn::Transaction::new(
            "T",
            vec![
                crate::action::Step::update(db.entity("x").unwrap()),
                crate::action::Step::update(db.entity("y").unwrap()),
            ],
            [],
        )
        .unwrap();
        assert!(matches!(
            validate_site_totality(&db, &t),
            Err(ModelError::SiteNotTotallyOrdered(_, _))
        ));
    }

    /// The all-pairs scan the bucketed check replaced.
    fn site_totality_by_all_pairs(db: &Database, t: &Transaction) -> Result<(), ModelError> {
        let n = t.len();
        for a in 0..n {
            for b in (a + 1)..n {
                let (sa, sb) = (StepId::from_idx(a), StepId::from_idx(b));
                let site_a = db.site_of(t.step(sa).entity);
                let site_b = db.site_of(t.step(sb).entity);
                if site_a == site_b && t.concurrent(sa, sb) {
                    return Err(ModelError::SiteNotTotallyOrdered(sa, sb));
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random dags of updates over one to four sites, with steps
        /// numbered apart from the order and a per-site chain kept or
        /// broken at random: the same verdict and the same first pair.
        #[test]
        fn the_bucketed_check_answers_as_the_all_pairs_scan(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let sites = rng.gen_range(1..=4usize);
            let spec: Vec<(String, usize)> =
                (0..2 * sites).map(|i| (format!("e{i}"), i % sites)).collect();
            let spec: Vec<(&str, usize)> = spec.iter().map(|(e, s)| (e.as_str(), *s)).collect();
            let db = Database::from_spec(&spec);
            let n = rng.gen_range(0..=16usize);
            let mut label: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                label.swap(i, rng.gen_range(0..=i));
            }
            let entity: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2 * sites)).collect();
            // Edges run from lower to higher position, so the graph is a dag.
            let mut edges = Vec::new();
            let mut last_at_site = vec![None; sites];
            for (pos, e) in entity.iter().enumerate() {
                let site = e % sites;
                if let Some(prev) = last_at_site[site] {
                    if rng.gen_range(0..8u32) != 0 {
                        edges.push((prev, pos));
                    }
                }
                last_at_site[site] = Some(pos);
                if pos > 0 && rng.gen_bool(0.3) {
                    edges.push((rng.gen_range(0..pos), pos));
                }
            }
            let mut steps = vec![Step::update(EntityId(0)); n];
            for (&l, &e) in label.iter().zip(&entity) {
                steps[l] = Step::update(EntityId::from_idx(e));
            }
            let edges = edges
                .into_iter()
                .map(|(a, b)| (StepId::from_idx(label[a]), StepId::from_idx(label[b])));
            let t = Transaction::new("T", steps, edges).unwrap();
            prop_assert_eq!(
                validate_site_totality(&db, &t),
                site_totality_by_all_pairs(&db, &t)
            );
        }
    }

    #[test]
    fn cross_site_concurrency_is_fine() {
        let db = db();
        let t = crate::txn::Transaction::new(
            "T",
            vec![
                crate::action::Step::update(db.entity("x").unwrap()),
                crate::action::Step::update(db.entity("y").unwrap()),
            ],
            [],
        )
        .unwrap();
        assert!(validate_site_totality(&db, &t).is_ok());
    }

    #[test]
    fn unmatched_pair() {
        let db = db();
        let mut b = TxnBuilder::new(&db, "T");
        b.lock("x").unwrap();
        let t = b.build().unwrap();
        assert_eq!(
            validate_lock_pairs(&t),
            Err(ModelError::UnmatchedLockPair(db.entity("x").unwrap()))
        );
    }

    #[test]
    fn unlock_before_lock() {
        let db = db();
        let mut b = TxnBuilder::new(&db, "T");
        b.script("Ux x Lx").unwrap();
        let t = b.build().unwrap();
        assert_eq!(
            validate_lock_pairs(&t),
            Err(ModelError::UnlockBeforeLock(db.entity("x").unwrap()))
        );
    }

    #[test]
    fn empty_lock_section_rejected_strict_only() {
        let db = db();
        let mut b = TxnBuilder::new(&db, "T");
        b.script("Lx Ux").unwrap();
        let t = b.build().unwrap();
        assert!(validate(&db, &t, Level::Locking).is_ok());
        assert_eq!(
            validate(&db, &t, Level::Strict),
            Err(ModelError::EmptyLockSection(db.entity("x").unwrap()))
        );
    }

    #[test]
    fn write_under_shared_lock_is_unprotected() {
        let db = db();
        let mut b = TxnBuilder::new(&db, "T");
        b.script("SLx x Ux").unwrap(); // exclusive update, shared lock
        let t = b.build().unwrap();
        assert!(matches!(
            validate(&db, &t, Level::Strict),
            Err(ModelError::UnprotectedUpdate(_))
        ));
        // A read under a shared lock — and anything under an exclusive
        // lock — is fine.
        for script in ["SLx rx Ux", "Lx rx Ux", "Lx x Ux"] {
            let mut b = TxnBuilder::new(&db, "T");
            b.script(script).unwrap();
            let t = b.build().unwrap();
            validate(&db, &t, Level::Strict).unwrap_or_else(|e| panic!("{script}: {e}"));
        }
    }

    #[test]
    fn coarse_parent_lock_shields_child_updates() {
        use crate::action::LockMode;
        use crate::ids::SiteId;
        let mut db = Database::new();
        let f = db.add_entity("f", SiteId(0));
        db.add_child("a", SiteId(0), f);
        db.add_child("b", SiteId(0), f);
        // Coarse X on the file: child updates need no locks of their own,
        // and the parent section is non-empty *via* those child updates.
        let mut b = TxnBuilder::new(&db, "T");
        b.lock("f").unwrap();
        b.update("a").unwrap();
        b.update("b").unwrap();
        b.unlock("f").unwrap();
        let t = b.build().unwrap();
        validate(&db, &t, Level::Strict).unwrap();
        // Coarse S shields reads but not writes.
        let mut b = TxnBuilder::new(&db, "T");
        b.lock_shared("f").unwrap();
        b.read("a").unwrap();
        b.unlock("f").unwrap();
        let t = b.build().unwrap();
        validate(&db, &t, Level::Strict).unwrap();
        let mut b = TxnBuilder::new(&db, "T");
        b.lock_shared("f").unwrap();
        b.update("a").unwrap();
        b.unlock("f").unwrap();
        let t = b.build().unwrap();
        assert!(matches!(
            validate(&db, &t, Level::Strict),
            Err(ModelError::UnprotectedUpdate(_))
        ));
        // SIX shields the scan's reads; writes still carry child X locks.
        let mut b = TxnBuilder::new(&db, "T");
        b.lock_mode("f", LockMode::SharedIntentionExclusive)
            .unwrap();
        b.read("a").unwrap();
        b.lock("b").unwrap();
        b.update("b").unwrap();
        b.unlock("b").unwrap();
        b.unlock("f").unwrap();
        let t = b.build().unwrap();
        validate(&db, &t, Level::Strict).unwrap();
    }

    #[test]
    fn intention_parent_lock_shields_nothing() {
        use crate::action::LockMode;
        use crate::ids::SiteId;
        let mut db = Database::new();
        let f = db.add_entity("f", SiteId(0));
        db.add_child("a", SiteId(0), f);
        // IX on the parent plus a child X lock is the well-formed shape...
        let mut b = TxnBuilder::new(&db, "T");
        b.lock_mode("f", LockMode::IntentionExclusive).unwrap();
        b.lock("a").unwrap();
        b.update("a").unwrap();
        b.unlock("a").unwrap();
        b.unlock("f").unwrap();
        let t = b.build().unwrap();
        validate(&db, &t, Level::Strict).unwrap();
        // ...but IX alone does not protect the child update.
        let mut b = TxnBuilder::new(&db, "T");
        b.lock_mode("f", LockMode::IntentionExclusive).unwrap();
        b.update("a").unwrap();
        b.unlock("f").unwrap();
        let t = b.build().unwrap();
        assert!(matches!(
            validate(&db, &t, Level::Strict),
            Err(ModelError::UnprotectedUpdate(_))
        ));
    }

    #[test]
    fn unprotected_update() {
        let db = db();
        let mut b = TxnBuilder::new(&db, "T");
        b.script("x Lx y? ").unwrap_err();
        // Build explicitly: update x outside any pair.
        let mut b = TxnBuilder::new(&db, "T");
        b.script("x").unwrap();
        let t = b.build().unwrap();
        assert!(matches!(
            validate(&db, &t, Level::Strict),
            Err(ModelError::UnprotectedUpdate(_))
        ));
    }
}
