//! The pair workloads behind the `experiments` tables. This crate's two
//! bins are `experiments` (the paper-style result tables) and
//! `kplock-analyze` (the exact-decision gate); wall-clock measurement
//! lives in `benchmark/` at the repository root, not here.
//!
//! # Example
//!
//! ```
//! use kplock_bench::{centralized_pair, two_site_pair, STEP_SWEEP};
//! use kplock_model::Level;
//!
//! let sys = two_site_pair(7, STEP_SWEEP[1]); // seed 7, 8 steps per txn
//! sys.validate(Level::Strict).unwrap();
//! assert_eq!(sys.len(), 2);
//! assert_eq!(centralized_pair(7, 6).db().site_count(), 1);
//! ```

use kplock_core::policy::LockStrategy;
use kplock_model::TxnSystem;
use kplock_workload::{random_pair, WorkloadParams};

/// A standard two-site pair workload of roughly `n` steps per transaction.
pub fn two_site_pair(seed: u64, n: usize) -> TxnSystem {
    random_pair(&WorkloadParams {
        seed,
        sites: 2,
        entities_per_site: (n / 4).max(1),
        steps_per_txn: n,
        cross_edge_percent: 30,
        strategy: LockStrategy::Minimal,
        ..Default::default()
    })
}

/// A centralized (one-site) pair workload.
pub fn centralized_pair(seed: u64, n: usize) -> TxnSystem {
    random_pair(&WorkloadParams {
        seed,
        sites: 1,
        entities_per_site: (n / 3).max(2),
        steps_per_txn: n,
        cross_edge_percent: 0,
        strategy: LockStrategy::Minimal,
        ..Default::default()
    })
}

/// Parameter sweep used across scaling experiments.
pub const STEP_SWEEP: &[usize] = &[4, 8, 16, 32, 64];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_helpers_produce_valid_systems() {
        for &n in STEP_SWEEP {
            let sys = two_site_pair(1, n);
            assert_eq!(sys.len(), 2);
            sys.validate(kplock_model::Level::Strict).unwrap();
            let c = centralized_pair(1, n);
            c.validate(kplock_model::Level::Strict).unwrap();
        }
    }
}
