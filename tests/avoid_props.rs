//! Property-based invariants for the avoidance arm: a certified set can
//! never engage any deadlock machinery.
//!
//! The paper's Theorems 1–3 decide safety of a *declared* transaction
//! set before anything runs; `AvoidPlan` packages that decision as a safe
//! lock order plus per-site controllers. The runtime claim tested here is
//! absolute: on **any** workload whose transactions are all certified,
//! an avoidance run resolves zero deadlocks, restarts nothing, sends no
//! detection traffic, and completes — the guarantee is structural, not
//! statistical, so it must hold for every generated case, not most.

use kplock::core::policy::LockStrategy;
use kplock::model::{Database, TxnBuilder, TxnId, TxnSystem};
use kplock::sim::{run, AvoidPlan, DeadlockResolution, RunOutcome, SimConfig};
use kplock::workload::{certified_mix, random_system, WorkloadParams};
use proptest::prelude::*;

fn system(seed: u64, sites: usize, txns: usize) -> TxnSystem {
    random_system(&WorkloadParams {
        seed,
        sites,
        entities_per_site: 2,
        transactions: txns,
        steps_per_txn: 6,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fully-certified workloads run clean: carve the greedy certificate
    /// out of a random system into its own (by construction fully
    /// certified) sub-system and run it under avoidance — no deadlock is
    /// resolved, nothing restarts, no probe crosses the wire, everything
    /// commits serializably.
    #[test]
    fn certified_sets_never_engage_deadlock_machinery(
        seed in 0u64..500,
        sim_seed in 0u64..50,
        sites in 2usize..5,
        txns in 2usize..6,
    ) {
        let sys = system(seed, sites, txns);
        let greedy = AvoidPlan::synthesize(&sys);
        prop_assert!(greedy.verify(&sys).is_ok(), "synthesized plans self-verify");
        prop_assert_eq!(
            greedy.certified_count() + greedy.fallback_count(),
            sys.len(),
            "the certificate partitions the declared set"
        );
        let certified = greedy.certified();
        // A transaction whose partial order leaves two lock steps
        // concurrent is uncertifiable even alone (it constrains both
        // directions), so a rare workload certifies nothing — skip it;
        // the remaining ~250 cases keep the property non-vacuous.
        if certified.is_empty() {
            return Ok(());
        }
        let sub = TxnSystem::new(
            sys.db().clone(),
            certified
                .iter()
                .map(|t| sys.txns()[t.idx()].clone())
                .collect(),
        );
        // A jointly-certified set re-certifies in full: greedy merged
        // exactly these edge digraphs into one acyclic union.
        let plan = AvoidPlan::synthesize(&sub);
        prop_assert!(plan.fully_certified(), "seed {}: carved set must re-certify", seed);
        let cfg = SimConfig {
            latency: kplock::sim::LatencyModel::Uniform(1, 20),
            seed: sim_seed,
            resolution: DeadlockResolution::Avoid,
            avoid: Some(plan),
            ..Default::default()
        };
        let r = run(&sub, &cfg).unwrap();
        r.assert_not_stalled(&cfg, format_args!("workload seed {seed}"));
        prop_assert_eq!(
            r.outcome,
            RunOutcome::Completed,
            "certified sets always finish (seed {}, sim {})", seed, sim_seed
        );
        prop_assert_eq!(r.metrics.deadlocks_resolved, 0, "no cycle can form");
        prop_assert_eq!(r.metrics.prevention_restarts, 0, "the fallback never engages");
        prop_assert_eq!(r.metrics.aborts, 0);
        prop_assert_eq!(r.metrics.probe_messages, 0);
        prop_assert_eq!(r.metrics.detection_latency_ticks, 0);
        prop_assert_eq!(r.metrics.avoid_certified, sub.len());
        prop_assert_eq!(r.metrics.avoid_fallbacks, 0);
        prop_assert_eq!(r.metrics.committed, sub.len());
        prop_assert!(r.audit.serializable, "sync-2PL must audit clean");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mixed sets stay cycle-free and finish: the greedy certificate on
    /// the *full* random system shields what it covers while wound-wait
    /// meters the rest — still no resolved deadlock anywhere, and every
    /// abort is a fallback restart.
    #[test]
    fn mixed_sets_complete_without_resolving_a_deadlock(
        seed in 0u64..300,
        sim_seed in 0u64..50,
        sites in 2usize..5,
        txns in 2usize..6,
    ) {
        let sys = system(seed, sites, txns);
        let plan = AvoidPlan::synthesize(&sys);
        let cfg = SimConfig {
            latency: kplock::sim::LatencyModel::Uniform(1, 20),
            seed: sim_seed,
            resolution: DeadlockResolution::Avoid,
            avoid: Some(plan.clone()),
            ..Default::default()
        };
        let r = run(&sys, &cfg).unwrap();
        r.assert_not_stalled(&cfg, format_args!("workload seed {seed}"));
        prop_assert_eq!(
            r.outcome,
            RunOutcome::Completed,
            "certified transactions cannot be wounded and the fallback is \
             wound-wait, which terminates (seed {}, sim {})", seed, sim_seed
        );
        prop_assert_eq!(r.metrics.deadlocks_resolved, 0);
        prop_assert_eq!(r.metrics.probe_messages, 0);
        prop_assert_eq!(r.metrics.aborts, r.metrics.prevention_restarts);
        prop_assert_eq!(r.metrics.avoid_certified, plan.certified_count());
        prop_assert_eq!(r.metrics.avoid_fallbacks, plan.fallback_count());
        prop_assert!(r.audit.serializable);
        // Certified transactions are never victims: they commit on their
        // first attempt, epoch 0.
        for t in plan.certified() {
            prop_assert_eq!(
                r.committed_epoch[t.idx()],
                Some(0),
                "certified {:?} was restarted (seed {}, sim {})", t, seed, sim_seed
            );
        }
        // Deterministic replay, like every other arm.
        let again = run(&sys, &cfg).unwrap();
        prop_assert_eq!(r.metrics, again.metrics);
        prop_assert_eq!(r.committed_epoch, again.committed_epoch);
    }
}

/// FNV-1a step over `words`, as the other pins fold their digests.
fn fold(digest: u64, words: impl IntoIterator<Item = usize>) -> u64 {
    words.into_iter().fold(digest, |h, w| {
        (h ^ w as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Adds one plan to a `[certified, digest]` row: its certified count, and
/// its certified flags and safe lock order folded into the digest.
fn pin_plan(row: &mut [u64; 2], sys: &TxnSystem, plan: &AvoidPlan) {
    row[0] += plan.certified_count() as u64;
    let flags = (0..sys.len()).map(|t| usize::from(plan.is_certified(TxnId::from_idx(t))));
    row[1] = fold(row[1], flags);
    row[1] = fold(row[1], plan.lock_order().iter().map(|e| e.idx()));
}

/// `[certified, digest]` per family of `analysis_poly`'s and `sim_hot`'s
/// avoid inputs: random two-phase systems of 4 sites × 16 entities and
/// 64, 128 and 256 transactions; `certified_mix(16, c, k − c, 4)` at the
/// same sizes; `sim_hot`'s `certified_mix(8, c, 24 − c, 4)` for c = 4…12;
/// `synthesize_restricted` of the first two families on three candidate
/// subsets each; and, since greedy synthesis certifies next to nothing of
/// the first family, small random systems at 0, 50 and 90 % reads, of
/// which it certifies many; and a system whose refused candidate puts an
/// edge in before the one that closes its cycle, and whose next candidate
/// needs that edge reversed, so it certifies only if the refused
/// candidate's edges were rolled back. Any change to how plans are
/// synthesized must leave every certified set and every safe lock order
/// as it is.
const PIN_AVOID_PLANS: [[u64; 2]; 6] = [
    [1, 15_912_573_458_246_171_330],
    [862, 12_292_858_868_883_884_457],
    [72, 537_008_150_258_202_049],
    [1_422, 10_751_807_623_864_244_043],
    [108, 15_389_982_206_700_957_153],
    [2, 2_227_432_078_558_519_055],
];

#[test]
fn avoid_plans_are_pinned() {
    let mut got = [[0u64, 0xcbf2_9ce4_8422_2325]; 6];
    let mut systems = Vec::new();
    for seed in 0..4u64 {
        for k in 0..3 {
            let txns = 64 << k;
            let random = random_system(&WorkloadParams {
                seed: 9_000 + 3 * seed + k as u64,
                sites: 4,
                entities_per_site: 16,
                transactions: txns,
                steps_per_txn: 6,
                strategy: LockStrategy::TwoPhaseSync,
                ..Default::default()
            });
            let certified = txns / 2 - (seed as usize * 3 + k) % 8;
            let mix = certified_mix(16, certified, txns - certified, 4);
            systems.push((0, random));
            systems.push((1, mix));
        }
    }
    for c in 4..=12 {
        systems.push((2, certified_mix(8, c, 24 - c, 4)));
    }
    for seed in 0..24u64 {
        let small = random_system(&WorkloadParams {
            seed: 9_100 + seed,
            sites: 1 + seed as usize % 3,
            entities_per_site: 3,
            transactions: 12,
            steps_per_txn: 3 + seed as usize % 3,
            cross_edge_percent: [100, 50][seed as usize / 3 % 2],
            read_percent: [0, 50, 90][seed as usize % 3],
            strategy: LockStrategy::TwoPhaseSync,
            ..Default::default()
        });
        systems.push((4, small));
    }
    // T1 holds w while requesting x, then closes the cycle y → z → y
    // against T0 and is refused; T2 holds x while requesting w.
    let db = Database::centralized(&["w", "x", "y", "z"]);
    let txns = [
        "Lz Ly z y Uz Uy",
        "Lw Lx w x Uw Ux Ly Lz y z Uy Uz",
        "Lx Lw x w Ux Uw",
    ]
    .iter()
    .map(|s| {
        let mut b = TxnBuilder::new(&db, "T");
        b.script(s).unwrap();
        b.build().unwrap()
    });
    systems.push((5, TxnSystem::new(db.clone(), txns.collect())));
    for (row, sys) in &systems {
        let plan = AvoidPlan::synthesize(sys);
        plan.verify(sys).expect("synthesized plans verify");
        pin_plan(&mut got[*row], sys, &plan);
        if *row >= 2 {
            continue;
        }
        let n = sys.len();
        let subsets: [Vec<TxnId>; 3] = [
            (0..n).step_by(2).map(TxnId::from_idx).collect(),
            (0..n)
                .rev()
                .filter(|t| t % 3 != 1)
                .map(TxnId::from_idx)
                .collect(),
            (n / 4..n)
                .chain(n / 4..n / 2)
                .map(TxnId::from_idx)
                .collect(),
        ];
        for candidates in &subsets {
            let plan = AvoidPlan::synthesize_restricted(sys, candidates);
            plan.verify(sys).expect("restricted plans verify");
            pin_plan(&mut got[3], sys, &plan);
        }
    }
    assert_eq!(got, PIN_AVOID_PLANS);
}
