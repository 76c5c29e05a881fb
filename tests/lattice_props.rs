//! Algebraic laws of the multi-granularity mode lattice, and a
//! differential proof that the lock table and its reference model agree
//! on arbitrary seeded streams over **all five** modes.
//!
//! The lattice (`IS < IX/S < SIX < X`, with `join` the least upper
//! bound) is small enough to check its laws exhaustively — every
//! property below quantifies over all 5, 25, or 125 mode combinations
//! rather than sampling. The table differential is the same
//! observational-equivalence harness as `tests/table_equivalence.rs`
//! (`tests/reference/`), widened from S/X to the full mode alphabet so
//! intention and `SIX` traffic exercises the upgrade-via-join paths.

mod reference;

use kplock::dlm::Acquire;
use kplock::model::{EntityId, LockMode};
use proptest::prelude::*;
use reference::differential::{run_differential, Pair, Shape};

const MODES: [LockMode; 5] = LockMode::ALL;

/// The compatibility matrix is symmetric: conflicts have no direction.
#[test]
fn compatibility_matrix_is_symmetric() {
    for a in MODES {
        for b in MODES {
            assert_eq!(
                a.compatible_with(b),
                b.compatible_with(a),
                "asymmetry at {a}/{b}"
            );
        }
    }
}

/// A stronger mode is compatible with *less*: if `a` covers `b`, then
/// anything `a` tolerates, `b` tolerates too. This is what makes
/// granting a covering lock instead of the requested one always safe.
#[test]
fn covers_implies_compatibility_subsumption() {
    for a in MODES {
        for b in MODES {
            if !a.covers(b) {
                continue;
            }
            for m in MODES {
                assert!(
                    !a.compatible_with(m) || b.compatible_with(m),
                    "{a} covers {b} but is compatible with {m} while {b} is not"
                );
            }
        }
    }
}

/// `join` is a semilattice operation: commutative, associative, and
/// idempotent, with `covers` as its induced partial order.
#[test]
fn join_is_a_semilattice() {
    for a in MODES {
        assert_eq!(a.join(a), a, "join not idempotent at {a}");
        for b in MODES {
            assert_eq!(a.join(b), b.join(a), "join not commutative at {a}/{b}");
            // Absorption: the join covers both arguments...
            let j = a.join(b);
            assert!(
                j.covers(a) && j.covers(b),
                "join({a},{b}) = {j} covers neither"
            );
            // ...and is the *least* such mode.
            for c in MODES {
                if c.covers(a) && c.covers(b) {
                    assert!(c.covers(j), "{c} covers {a},{b} but not join {j}");
                }
            }
            for c in MODES {
                assert_eq!(
                    a.join(b).join(c),
                    a.join(b.join(c)),
                    "join not associative at {a}/{b}/{c}"
                );
            }
        }
    }
}

/// `covers` is exactly the order induced by `join` — the definition the
/// lock tables rely on when deciding whether a held mode already
/// satisfies a new request.
#[test]
fn covers_agrees_with_join_order() {
    for a in MODES {
        for b in MODES {
            assert_eq!(
                a.covers(b),
                a.join(b) == a,
                "covers/join disagree at {a}/{b}"
            );
        }
    }
}

/// Upgrading via `join(held, requested)` never *skips* a conflict: the
/// upgrade target conflicts with everything either the held or the
/// requested mode conflicts with. A waiter that would have blocked the
/// plain request still blocks the upgrade, so admission through the
/// upgrade path can never admit a schedule the direct path would refuse.
#[test]
fn upgrade_via_join_never_skips_a_conflict() {
    for held in MODES {
        for req in MODES {
            let target = held.join(req);
            for other in MODES {
                if !req.compatible_with(other) || !held.compatible_with(other) {
                    assert!(
                        !target.compatible_with(other),
                        "join({held},{req}) = {target} dropped the conflict with {other}"
                    );
                }
            }
        }
    }
}

/// Shield strength is monotone in the lattice: a covering parent mode
/// shields at least the child accesses the covered one shields.
#[test]
fn shielding_is_monotone_under_covers() {
    for a in MODES {
        for b in MODES {
            if !a.covers(b) {
                continue;
            }
            for access in MODES {
                assert!(
                    !b.shields_child(access) || a.shields_child(access),
                    "{a} covers {b} but shields less ({access})"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Full-alphabet table differential.
// ---------------------------------------------------------------------

/// Heavier on requests than releases so upgrade queues actually form.
const FULL: Shape = Shape {
    modes: &MODES,
    entities: 3,
    owners: 4,
    requests_in_ten: 4,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The table and the model are observationally identical at every
    /// step of random streams drawn from the full IS/IX/S/SIX/X alphabet
    /// — including intention-mode pile-ups and SIX upgrades.
    #[test]
    fn tables_agree_on_full_mode_alphabet(seed in 0u64..u64::MAX, len in 1usize..70) {
        run_differential(seed, len, &FULL);
    }
}

/// A hand-built upgrade ladder the table and the model must walk
/// identically: IS → S → SIX → X on one entity, with a concurrent IS
/// holder forcing the final step to queue until the reader leaves.
#[test]
fn upgrade_ladder_is_identical_on_both_tables() {
    let mut t = Pair::default();
    let e = EntityId(0);
    let is = LockMode::IntentionShared;
    assert_eq!(t.request(e, 1, is), Ok(Acquire::Granted));
    assert_eq!(t.request(e, 2, is), Ok(Acquire::Granted));
    // 1 strengthens to S (compatible with 2's IS), then to SIX (still
    // compatible), then X must wait for 2.
    assert_eq!(t.request(e, 1, LockMode::Shared), Ok(Acquire::Granted));
    let six = LockMode::SharedIntentionExclusive;
    assert_eq!(t.request(e, 1, six), Ok(Acquire::Granted));
    assert_eq!(t.table.holds(e, 1), Some(six));
    assert_eq!(t.request(e, 1, LockMode::Exclusive), Ok(Acquire::Queued));
    t.assert_same_state(&FULL, "the ladder's top rung queued");
    assert_eq!(t.release(e, 2), Ok(vec![(1, LockMode::Exclusive)]));
    assert_eq!(t.table.holds(e, 1), Some(LockMode::Exclusive));
    t.release_all(1);
    t.assert_same_state(&FULL, "the ladder released");
    assert!(t.table.is_idle());
}
