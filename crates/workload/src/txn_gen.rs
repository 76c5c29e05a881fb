//! Random distributed transaction generation.
//!
//! A generated transaction is a set of per-site chains of update steps plus
//! random cross-site precedence edges (always forward with respect to a
//! global step numbering, so the result is a dag), then locked by one of
//! the strategies in `kplock_core::policy::insert`.

use crate::zipf::Zipf;
use kplock_core::policy::{insert_locks, LockStrategy};
use kplock_model::{Database, ModelError, SiteId, Step, StepId, Transaction, TxnSystem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for random workload generation.
#[derive(Clone, Debug)]
pub struct WorkloadParams {
    /// Number of sites.
    pub sites: usize,
    /// Entities per site.
    pub entities_per_site: usize,
    /// Number of transactions.
    pub transactions: usize,
    /// Update steps per transaction.
    pub steps_per_txn: usize,
    /// Probability (0..=100) that consecutive generated steps get a
    /// cross-site precedence edge.
    pub cross_edge_percent: u32,
    /// Probability (0..=100) that a generated access is a pure *read*
    /// (shared mode). Entities a transaction only reads get shared locks
    /// from `insert_locks`, so reader transactions can overlap in the
    /// simulator. `0` (the default) reproduces the paper's write-only
    /// workloads exactly — no RNG draw is made, so existing seeds are
    /// unchanged.
    pub read_percent: u32,
    /// Probability (0..=100) that a step targets site 0 — the *hot site* —
    /// instead of drawing a site uniformly. Skewed placement concentrates
    /// both contention and deadlock cycles at one site, the worst case for
    /// distributed detection (every probe chase funnels through the hot
    /// site). `0` (the default) makes no extra RNG draw, so existing seeds
    /// are unchanged.
    pub hot_site_percent: u32,
    /// Zipfian skew of the entity choice *within* a site, in `[0, 1)`:
    /// `0.0` (the default) keeps the original uniform `gen_range` draw
    /// bit-for-bit, so existing seeds are unchanged; any positive theta
    /// replaces that draw one-for-one with a [`Zipf`] rank draw (entity
    /// `e<site>_0` hottest). Same guarded-knob contract as
    /// [`WorkloadParams::read_percent`] / `hot_site_percent`.
    pub zipf_theta: f64,
    /// How to lock the transactions.
    pub strategy: LockStrategy,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            sites: 2,
            entities_per_site: 3,
            transactions: 2,
            steps_per_txn: 6,
            cross_edge_percent: 30,
            read_percent: 0,
            hot_site_percent: 0,
            zipf_theta: 0.0,
            strategy: LockStrategy::Minimal,
            seed: 1,
        }
    }
}

/// Builds the database for the parameters: entities named `e<site>_<i>`.
pub fn make_database(p: &WorkloadParams) -> Database {
    let mut db = Database::new();
    for s in 0..p.sites {
        for i in 0..p.entities_per_site {
            db.add_entity(&format!("e{s}_{i}"), SiteId::from_idx(s));
        }
    }
    db
}

/// Generates one unlocked (update-only) transaction.
pub fn random_unlocked_txn(
    db: &Database,
    p: &WorkloadParams,
    name: &str,
    rng: &mut StdRng,
) -> Result<Transaction, ModelError> {
    // Choose entities; dedupe consecutive repeats per site chain is not
    // required (multiple updates of one entity are fine).
    let mut steps: Vec<Step> = Vec::new();
    let mut edges: Vec<(StepId, StepId)> = Vec::new();
    let mut last_at_site: Vec<Option<StepId>> = vec![None; p.sites];
    let mut prev: Option<StepId> = None;
    // Zeta constants once per transaction; `sample` then costs one draw.
    let zipf = (p.zipf_theta > 0.0).then(|| Zipf::new(p.entities_per_site, p.zipf_theta));
    for _ in 0..p.steps_per_txn {
        // Guarded extra draw, like `read_percent`: `hot_site_percent: 0`
        // consumes exactly the randomness it did before skew existed.
        let site = if p.hot_site_percent > 0 && rng.gen_range(0u32..100) < p.hot_site_percent {
            0
        } else {
            rng.gen_range(0..p.sites)
        };
        // Skew replaces the uniform index draw one-for-one; theta 0.0
        // makes the exact pre-skew draw, keeping seeds bit-identical.
        let idx = match &zipf {
            Some(z) => z.sample(rng),
            None => rng.gen_range(0..p.entities_per_site),
        };
        let e = db
            .entity(&format!("e{site}_{idx}"))
            .expect("generated name");
        let id = StepId::from_idx(steps.len());
        // Guard the extra draw so `read_percent: 0` consumes exactly the
        // randomness it did before reads existed (seed stability).
        let read = p.read_percent > 0 && rng.gen_range(0u32..100) < p.read_percent;
        steps.push(if read { Step::read(e) } else { Step::update(e) });
        // Per-site chain (model invariant).
        if let Some(l) = last_at_site[site] {
            edges.push((l, id));
        }
        last_at_site[site] = Some(id);
        // Occasional cross-site forward edge for data dependencies.
        if let Some(pv) = prev {
            if rng.gen_range(0u32..100) < p.cross_edge_percent {
                edges.push((pv, id));
            }
        }
        prev = Some(id);
    }
    Transaction::new(name.to_string(), steps, edges)
}

/// Generates a full locked transaction system.
pub fn random_system(p: &WorkloadParams) -> TxnSystem {
    let db = make_database(p);
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut txns = Vec::with_capacity(p.transactions);
    for t in 0..p.transactions {
        let unlocked = random_unlocked_txn(&db, p, &format!("T{}", t + 1), &mut rng)
            .expect("generated dag is acyclic");
        let locked = insert_locks(&db, &unlocked, p.strategy).expect("lockable");
        txns.push(locked);
    }
    TxnSystem::new(db, txns)
}

/// Generates a pair (convenience for the pair-safety suites).
pub fn random_pair(p: &WorkloadParams) -> TxnSystem {
    let mut p = p.clone();
    p.transactions = 2;
    random_system(&p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_model::Level;

    #[test]
    fn generated_systems_are_well_formed() {
        for seed in 0..30 {
            for strategy in [
                LockStrategy::Minimal,
                LockStrategy::TwoPhaseSync,
                LockStrategy::TwoPhaseLoose,
            ] {
                let p = WorkloadParams {
                    seed,
                    strategy,
                    sites: 3,
                    transactions: 3,
                    ..Default::default()
                };
                let sys = random_system(&p);
                sys.validate(Level::Strict)
                    .unwrap_or_else(|e| panic!("seed {seed} {strategy:?}: {e}"));
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = WorkloadParams::default();
        let a = random_system(&p);
        let b = random_system(&p);
        for (ta, tb) in a.txns().iter().zip(b.txns()) {
            assert_eq!(ta.steps(), tb.steps());
        }
    }

    #[test]
    fn shared_read_workloads_are_well_formed_and_run_concurrently() {
        use kplock_model::LockMode;
        for seed in 0..20 {
            let p = WorkloadParams {
                seed,
                read_percent: 60,
                sites: 2,
                entities_per_site: 3,
                transactions: 3,
                strategy: LockStrategy::TwoPhaseSync,
                ..Default::default()
            };
            let sys = random_system(&p);
            sys.validate(Level::Strict).unwrap();
            // Locks agree with access modes: shared iff no write on the
            // entity in that transaction.
            for t in sys.txns() {
                for &e in &t.locked_entities() {
                    let writes = t.steps().iter().any(|s| {
                        s.entity == e
                            && s.kind == kplock_model::ActionKind::Update
                            && s.mode == LockMode::Exclusive
                    });
                    let lock_mode = t.step(t.lock_step(e).unwrap()).mode;
                    let expect = if writes {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    };
                    assert_eq!(lock_mode, expect, "seed {seed} entity {e}");
                }
            }
            // And the simulator accepts them: committed runs audit clean
            // (sync-2PL is safe regardless of modes).
            let r = kplock_sim::run(&sys, &kplock_sim::SimConfig::default()).expect("valid config");
            assert!(r.finished());
            r.audit.legal.as_ref().unwrap();
            assert!(r.audit.serializable, "seed {seed}");
        }
    }

    #[test]
    fn zero_read_percent_consumes_no_extra_randomness() {
        // The same seed must generate the same system whether or not the
        // read knob exists — pinned by comparing against read_percent: 0
        // being the Default.
        let base = random_system(&WorkloadParams::default());
        let explicit = random_system(&WorkloadParams {
            read_percent: 0,
            ..Default::default()
        });
        for (a, b) in base.txns().iter().zip(explicit.txns()) {
            assert_eq!(a.steps(), b.steps());
        }
    }

    #[test]
    fn zero_zipf_theta_is_seed_identical_to_base() {
        // The skew knob follows the guarded-draw contract: disabled, it
        // makes no draw, so the generated system is bit-identical.
        let base = random_system(&WorkloadParams::default());
        let explicit = random_system(&WorkloadParams {
            zipf_theta: 0.0,
            ..Default::default()
        });
        for (a, b) in base.txns().iter().zip(explicit.txns()) {
            assert_eq!(a.steps(), b.steps());
        }
    }

    #[test]
    fn zipf_skew_concentrates_accesses_on_low_indices() {
        let p = WorkloadParams {
            zipf_theta: 0.95,
            sites: 1,
            entities_per_site: 64,
            transactions: 20,
            steps_per_txn: 16,
            strategy: LockStrategy::TwoPhaseSync,
            seed: 11,
            ..Default::default()
        };
        let sys = random_system(&p);
        sys.validate(Level::Strict).unwrap();
        let hot = sys.db().entity("e0_0").unwrap();
        let hot_hits: usize = sys
            .txns()
            .iter()
            .flat_map(|t| t.steps())
            .filter(|s| s.kind == kplock_model::ActionKind::Update && s.entity == hot)
            .count();
        let total = 20 * 16;
        // Uniform would put ~1/64 of accesses on e0_0; theta 0.95 puts a
        // large multiple of that there.
        assert!(
            hot_hits * 64 > total * 5,
            "expected heavy skew onto e0_0, got {hot_hits}/{total}"
        );
    }

    #[test]
    fn respects_step_count() {
        let p = WorkloadParams {
            steps_per_txn: 10,
            strategy: LockStrategy::Minimal,
            ..Default::default()
        };
        let sys = random_system(&p);
        for t in sys.txns() {
            let updates = t
                .steps()
                .iter()
                .filter(|s| s.kind == kplock_model::ActionKind::Update)
                .count();
            assert_eq!(updates, 10);
        }
    }
}
