//! Ring systems: the smallest inputs on which Proposition 2's cycle half
//! decides.

use kplock_model::{Database, TxnBuilder, TxnSystem};

/// `k` transactions in a ring over `k` entities, each at a site of its
/// own: `T{i}` locks `e{i}` and `e{i + 1}` (indices mod `k`), so `T{i}`
/// and `T{i + 1}` share exactly one entity and every pair is safe. Every
/// transaction locks both of its entities before it unlocks either,
/// except `early`, which unlocks `e{i}` before it locks `e{i + 1}`.
///
/// By Proposition 2 the ring is safe exactly when no transaction unlocks
/// early: an early release lets the serialization graph wind once round
/// the ring, each transaction after its predecessor on the entity they
/// share.
///
/// # Panics
///
/// If `k` is below 3, where neighbours would share more than one entity,
/// or `early` names no transaction of the ring.
pub fn ring_system(k: usize, early: Option<usize>) -> TxnSystem {
    assert!(k >= 3, "a ring needs three transactions, not {k}");
    assert!(
        early.is_none_or(|i| i < k),
        "T{early:?} is not in a ring of {k}"
    );
    let names: Vec<String> = (0..k).map(|i| format!("e{i}")).collect();
    let spec: Vec<(&str, usize)> = names
        .iter()
        .enumerate()
        .map(|(i, e)| (e.as_str(), i))
        .collect();
    let db = Database::from_spec(&spec);
    let txns = (0..k)
        .map(|i| {
            let (x, y) = (&names[i], &names[(i + 1) % k]);
            let script = if early == Some(i) {
                format!("L{x} {x} U{x} L{y} {y} U{y}")
            } else {
                format!("L{x} {x} L{y} {y} U{x} U{y}")
            };
            let mut b = TxnBuilder::new(&db, format!("T{i}"));
            b.script(&script).expect("the ring's own entities");
            b.build().expect("a chain")
        })
        .collect();
    TxnSystem::new(db, txns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_model::{Level, TxnId};

    #[test]
    fn neighbours_share_exactly_one_entity() {
        for k in 3..=6 {
            for early in std::iter::once(None).chain((0..k).map(Some)) {
                let sys = ring_system(k, early);
                sys.validate(Level::Strict).unwrap();
                for i in 0..k {
                    for j in (i + 1)..k {
                        let (a, b) = (TxnId::from_idx(i), TxnId::from_idx(j));
                        let shared = sys.shared_locked_entities(a, b).len();
                        let neighbours = j == i + 1 || (i == 0 && j == k - 1);
                        assert_eq!(shared, usize::from(neighbours), "k {k}, T{i} and T{j}");
                    }
                }
            }
        }
    }
}
