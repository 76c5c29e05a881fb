//! Open-loop arrivals: transactions arriving over time.
//!
//! Real distributed databases do not start every transaction at the same
//! instant; [`draw_arrivals`] draws arrival times from a (seeded) geometric
//! approximation of a Poisson process for [`crate::run_with_arrivals`], so
//! contention becomes a function of offered load rather than an artifact of
//! simultaneous starts.

use crate::event::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Arrival process configuration.
#[derive(Clone, Copy, Debug)]
pub struct ArrivalConfig {
    /// Mean inter-arrival gap in ticks (0 = all at once).
    pub mean_gap: u64,
    /// Seed for the arrival draw (separate from the engine's seed so load
    /// and timing vary independently).
    pub seed: u64,
}

/// Draws arrival times: cumulative sums of `Uniform(0, 2·mean_gap)` gaps
/// (mean `mean_gap`, bounded — adequate for load sweeps).
pub fn draw_arrivals(n: usize, cfg: &ArrivalConfig) -> Vec<SimTime> {
    if cfg.mean_gap == 0 {
        return vec![0; n];
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut now = 0u64;
    (0..n)
        .map(|i| {
            if i > 0 {
                now += rng.gen_range(0..=2 * cfg.mean_gap);
            }
            now
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LatencyModel, SimConfig};
    use crate::engine::{run_with_arrivals, SimReport};
    use kplock_model::{Database, TxnBuilder, TxnSystem};

    fn sys() -> TxnSystem {
        let db = Database::from_spec(&[("x", 0), ("y", 1)]);
        let txns = (0..4)
            .map(|i| {
                let mut b = TxnBuilder::new(&db, format!("T{}", i + 1));
                b.script("Lx Ly x y Ux Uy").unwrap();
                b.build().unwrap()
            })
            .collect();
        TxnSystem::new(db, txns)
    }

    fn run_spaced(sys: &TxnSystem, sim: &SimConfig, mean_gap: u64) -> SimReport {
        let arrivals = draw_arrivals(sys.len(), &ArrivalConfig { mean_gap, seed: 5 });
        run_with_arrivals(sys, sim, &arrivals).unwrap()
    }

    #[test]
    fn arrivals_are_monotone_and_deterministic() {
        let cfg = ArrivalConfig {
            mean_gap: 50,
            seed: 9,
        };
        let a = draw_arrivals(6, &cfg);
        let b = draw_arrivals(6, &cfg);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a[0], 0);
        assert_eq!(
            draw_arrivals(
                3,
                &ArrivalConfig {
                    mean_gap: 0,
                    seed: 1
                }
            ),
            vec![0, 0, 0]
        );
    }

    #[test]
    fn open_loop_run_commits_everything() {
        let sys = sys();
        let sim = SimConfig {
            latency: LatencyModel::Fixed(3),
            ..Default::default()
        };
        let r = run_spaced(&sys, &sim, 40);
        assert!(r.finished());
        assert_eq!(r.metrics.committed, 4);
        r.audit.legal.as_ref().unwrap();
        assert!(r.audit.serializable);
    }

    #[test]
    fn spreading_arrivals_reduces_contention() {
        let sys = sys();
        let sim = SimConfig {
            latency: LatencyModel::Fixed(3),
            ..Default::default()
        };
        let burst = run_spaced(&sys, &sim, 0);
        let spread = run_spaced(&sys, &sim, 500);
        assert!(burst.finished() && spread.finished());
        assert!(
            spread.metrics.lock_wait_ticks <= burst.metrics.lock_wait_ticks,
            "spread {} vs burst {}",
            spread.metrics.lock_wait_ticks,
            burst.metrics.lock_wait_ticks
        );
    }
}
