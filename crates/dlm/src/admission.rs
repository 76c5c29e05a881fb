//! Mode-admission helpers of [`crate::QueueTable`].
//!
//! Every "can this request be granted next to those holders?" question
//! the table asks — fresh admission, in-place upgrade, promotion, the
//! auditor's co-holder check — routes through these functions, which in
//! turn route through the **one** compatibility matrix on
//! [`kplock_model::LockMode`], so no path can drift from the matrix.
//! Before the mode lattice this logic was written out as
//! `mode == Shared && holders all Shared`; the helpers reduce to exactly
//! that on the `S`/`X` fragment.

use kplock_model::LockMode;

/// True iff `mode` is compatible with every mode in `holders` — the
/// admission test for a fresh request (and, with the requester's own
/// entry excluded, for an in-place upgrade). On the `S`/`X` fragment this
/// is the old `mode == Shared && holders.iter().all(Shared)` check.
pub(crate) fn compatible_with_all(
    mode: LockMode,
    holders: impl IntoIterator<Item = LockMode>,
) -> bool {
    holders.into_iter().all(|m| mode.compatible_with(m))
}

/// True iff `target` could be granted to holder `owner` right now: it is
/// compatible with every *other* holder's mode. The in-place-upgrade and
/// upgrade-promotion test; for an `S → X` upgrade this reduces to "sole
/// holder", the pre-lattice rule.
pub(crate) fn upgrade_admissible<O: Copy + Eq>(
    owner: O,
    target: LockMode,
    holders: impl IntoIterator<Item = (O, LockMode)>,
) -> bool {
    holders
        .into_iter()
        .all(|(h, m)| h == owner || target.compatible_with(m))
}

/// The first pairwise-incompatible pair of co-held modes, if any — the
/// full-matrix structural invariant (catches `S+IX`, `SIX+SIX`,
/// `X+anything`, not just `S+X` and double-`X`).
pub(crate) fn incompatible_pair(
    mut modes: impl Iterator<Item = LockMode> + Clone,
) -> Option<(LockMode, LockMode)> {
    while let Some(a) = modes.next() {
        if let Some(b) = modes.clone().find(|&b| !a.compatible_with(b)) {
            return Some((a, b));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::*;

    #[test]
    fn fresh_admission_reduces_to_the_sx_rule() {
        assert!(compatible_with_all(Shared, [Shared, Shared]));
        assert!(!compatible_with_all(Shared, [Shared, Exclusive]));
        assert!(!compatible_with_all(Exclusive, [Shared]));
        assert!(compatible_with_all(Exclusive, []));
        // Intention rows come straight from the matrix.
        assert!(compatible_with_all(
            IntentionExclusive,
            [IntentionShared, IntentionExclusive]
        ));
        assert!(!compatible_with_all(IntentionExclusive, [Shared]));
        assert!(compatible_with_all(
            SharedIntentionExclusive,
            [IntentionShared]
        ));
    }

    #[test]
    fn upgrade_admissibility_reduces_to_sole_holder_for_sx() {
        assert!(upgrade_admissible(1u32, Exclusive, [(1, Shared)]));
        assert!(!upgrade_admissible(
            1u32,
            Exclusive,
            [(1, Shared), (2, Shared)]
        ));
        // IS → IX next to another IS holder is admissible in place.
        assert!(upgrade_admissible(
            1u32,
            IntentionExclusive,
            [(1, IntentionShared), (2, IntentionShared)]
        ));
        // IS → S next to an IX holder is not.
        assert!(!upgrade_admissible(
            1u32,
            Shared,
            [(1, IntentionShared), (2, IntentionExclusive)]
        ));
    }

    #[test]
    fn incompatible_pair_sees_the_full_matrix() {
        assert_eq!(
            incompatible_pair([Shared, Shared, IntentionShared].into_iter()),
            None
        );
        assert_eq!(
            incompatible_pair([Shared, IntentionExclusive].into_iter()),
            Some((Shared, IntentionExclusive))
        );
        assert_eq!(
            incompatible_pair([IntentionShared, Exclusive].into_iter()),
            Some((IntentionShared, Exclusive))
        );
        assert_eq!(
            incompatible_pair([SharedIntentionExclusive, SharedIntentionExclusive].into_iter()),
            Some((SharedIntentionExclusive, SharedIntentionExclusive))
        );
        assert_eq!(incompatible_pair([Exclusive].into_iter()), None);
    }
}
