//! Differential proof that [`QueueTable`](kplock::dlm::QueueTable) — the
//! arena with its reverse indexes — implements the lock-table protocol:
//! under arbitrary `S`/`X` operation streams it must be *observationally
//! identical* to the scan-only reference model in `tests/reference/` —
//! same acquire outcomes, same grant order on release, same wait-for
//! edges, same holder sets, after every single step.

mod reference;

use kplock::model::LockMode;
use proptest::prelude::*;
use reference::differential::{run_differential, Shape};

const SX: Shape = Shape {
    modes: &[LockMode::Shared, LockMode::Exclusive],
    entities: 4,
    owners: 5,
    requests_in_ten: 3,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The core differential: arbitrary op streams leave the table and
    /// the model in indistinguishable states at *every* step.
    #[test]
    fn neutral_queue_table_is_observationally_fifo(seed in 0u64..u64::MAX, len in 1usize..60) {
        run_differential(seed, len, &SX);
    }
}
