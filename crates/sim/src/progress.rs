//! A coordinator's progress through one epoch of its transaction.
//!
//! A transaction is a partial order of steps; a step may be issued once
//! every direct predecessor is acknowledged. [`Progress`] answers "which
//! steps did this acknowledgement make ready" and "is the epoch finished"
//! from counters, so a step costs the same in a 3 000-step transaction
//! as in a six-step one. Both runners ([`crate::engine`] and
//! [`crate::threaded`]) drive their step issue from it.

use kplock_model::Transaction;

/// A step's state bit: acknowledged in this epoch.
const DONE: u32 = 1 << 31;
/// A step's state bit: sent in this epoch.
const ISSUED: u32 = 1 << 30;
/// A step's state bits below the two flags: its direct predecessors not
/// yet acknowledged.
const WAITING: u32 = ISSUED - 1;

/// Per-step state of one epoch plus the count of steps left.
pub(crate) struct Progress {
    /// One word per step: [`DONE`], [`ISSUED`] and, under [`WAITING`],
    /// the count of direct predecessors not yet acknowledged.
    state: Vec<u32>,
    /// Steps not yet acknowledged; zero is the commit test.
    left: usize,
}

impl Progress {
    /// A fresh epoch of `t`: nothing issued, nothing acknowledged.
    pub(crate) fn new(t: &Transaction) -> Self {
        let mut p = Progress {
            state: vec![0; t.len()],
            left: 0,
        };
        p.reset(t);
        p
    }

    /// Back to a fresh epoch (the abort path), reusing the buffer.
    pub(crate) fn reset(&mut self, t: &Transaction) {
        for (v, w) in self.state.iter_mut().enumerate() {
            let preds = t.edge_graph().predecessors(v).len();
            debug_assert!(preds <= WAITING as usize, "step {v}: {preds} predecessors");
            *w = preds as u32;
        }
        self.left = t.len();
    }

    /// Marks issued and appends to `ready`, in ascending order, every
    /// unissued step with no unacknowledged predecessor — the sources of a
    /// new epoch. The one O(steps) pass of an epoch.
    pub(crate) fn start(&mut self, ready: &mut Vec<usize>) {
        for (v, w) in self.state.iter_mut().enumerate() {
            if *w & (ISSUED | WAITING) == 0 {
                *w |= ISSUED;
                ready.push(v);
            }
        }
    }

    /// Acknowledges `step` and marks issued and appends to `ready`, in
    /// ascending order, the successors it was the last unacknowledged
    /// predecessor of. A duplicate acknowledgement changes nothing and
    /// appends nothing. The order is part of the contract: the engine
    /// sends in it, and each send draws from the latency RNG. The buffer
    /// is the caller's, so a chain-shaped transaction's step costs no
    /// allocation; what it held on entry is left as it was.
    pub(crate) fn ack(&mut self, t: &Transaction, step: usize, ready: &mut Vec<usize>) {
        let w = &mut self.state[step];
        if *w & DONE != 0 {
            return;
        }
        *w |= DONE;
        self.left -= 1;
        let from = ready.len();
        for &s in t.edge_graph().successors(step) {
            let w = &mut self.state[s];
            // In release a count at zero would borrow from ISSUED.
            debug_assert!(*w & WAITING != 0, "step {s}: waiting count underflows");
            *w -= 1;
            if *w & WAITING == 0 {
                *w |= ISSUED;
                ready.push(s);
            }
        }
        ready[from..].sort_unstable();
    }

    /// True once `step` is acknowledged in this epoch.
    pub(crate) fn is_done(&self, step: usize) -> bool {
        self.state[step] & DONE != 0
    }

    /// True while `step` is issued and unacknowledged.
    pub(crate) fn in_flight(&self, step: usize) -> bool {
        self.state[step] & (DONE | ISSUED) == ISSUED
    }

    /// Every in-flight step, ascending: what a retransmission re-sends.
    pub(crate) fn pending(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.state.len()).filter(|&v| self.in_flight(v))
    }

    /// True once every step is acknowledged.
    pub(crate) fn finished(&self) -> bool {
        self.left == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_model::{EntityId, Step, StepId};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-acknowledgement scan `Progress` replaced, kept as the
    /// oracle: everything unissued whose predecessors are all done.
    struct Scan {
        done: Vec<bool>,
        issued: Vec<bool>,
    }

    impl Scan {
        fn new(n: usize) -> Self {
            Scan {
                done: vec![false; n],
                issued: vec![false; n],
            }
        }

        fn issue_ready(&mut self, t: &Transaction) -> Vec<usize> {
            let ready: Vec<usize> = (0..t.len())
                .filter(|&v| {
                    !self.issued[v] && t.edge_graph().predecessors(v).iter().all(|&p| self.done[p])
                })
                .collect();
            for &v in &ready {
                self.issued[v] = true;
            }
            ready
        }
    }

    /// A random precedence dag over `n` steps: a chain (the
    /// `hierarchy_system` shape), an antichain, stacked diamonds, per-site
    /// chains with cross edges, or arbitrary forward edges.
    fn dag(shape: usize, n: usize, rng: &mut StdRng) -> Transaction {
        let mut edges: Vec<(usize, usize)> = Vec::new();
        match shape {
            0 => edges.extend((1..n).map(|i| (i - 1, i))),
            1 => {}
            2 => {
                // Source, a fan of up to three, sink; the sink is the
                // next diamond's source.
                let mut top = 0;
                while top + 2 < n {
                    let fan = rng.gen_range(1..=3usize).min(n - top - 2);
                    let sink = top + fan + 1;
                    for m in top + 1..sink {
                        edges.push((top, m));
                        edges.push((m, sink));
                    }
                    top = sink;
                }
            }
            3 => {
                let sites = rng.gen_range(1..=4usize);
                let mut last = vec![None; sites];
                for v in 0..n {
                    let s = rng.gen_range(0..sites);
                    if let Some(u) = last[s].replace(v) {
                        edges.push((u, v));
                    }
                    if v > 0 && rng.gen_bool(0.3) {
                        edges.push((rng.gen_range(0..v), v));
                    }
                }
            }
            _ => {
                for v in 1..n {
                    for u in 0..v {
                        if rng.gen_bool(0.25) {
                            edges.push((u, v));
                        }
                    }
                }
            }
        }
        // Ids need not follow the order: relabel by a random permutation.
        let mut label: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            label.swap(i, rng.gen_range(0..=i));
        }
        let steps = (0..n)
            .map(|i| Step::update(EntityId::from_idx(i)))
            .collect();
        let edges = edges
            .into_iter()
            .map(|(u, v)| (StepId::from_idx(label[u]), StepId::from_idx(label[v])));
        Transaction::new("T", steps, edges).expect("forward edges are acyclic")
    }

    /// What `start` appends, behind a sentinel it must leave alone.
    fn start(p: &mut Progress) -> Vec<usize> {
        let mut ready = vec![usize::MAX];
        p.start(&mut ready);
        assert_eq!(ready[0], usize::MAX);
        ready.split_off(1)
    }

    /// What `ack` appends, behind a sentinel it must leave alone (and must
    /// not sort into its own steps).
    fn ack(p: &mut Progress, t: &Transaction, step: usize) -> Vec<usize> {
        let mut ready = vec![usize::MAX];
        p.ack(t, step, &mut ready);
        assert_eq!(ready[0], usize::MAX);
        ready.split_off(1)
    }

    fn assert_in_step(p: &Progress, scan: &Scan, t: &Transaction) {
        assert_eq!(p.left, scan.done.iter().filter(|&&d| !d).count());
        assert_eq!(p.finished(), scan.done.iter().all(|&d| d));
        for v in 0..t.len() {
            assert_eq!(p.is_done(v), scan.done[v]);
            assert_eq!(p.in_flight(v), scan.issued[v] && !scan.done[v]);
            let undone = |&&u: &&usize| !scan.done[u];
            let waiting = t.edge_graph().predecessors(v).iter().filter(undone).count();
            // The whole word: both flags and the count, nothing else.
            let flag = |on: bool, bit: u32| if on { bit } else { 0 };
            let word = flag(scan.done[v], DONE) | flag(scan.issued[v], ISSUED) | waiting as u32;
            assert_eq!(p.state[v], word, "step {v}");
        }
        let pending: Vec<usize> = p.pending().collect();
        assert!(pending.windows(2).all(|w| w[0] < w[1]));
    }

    /// Acknowledging against a transaction with more edges than the one
    /// the epoch was counted from takes a count below zero. A debug build
    /// stops there instead of setting the issued bit by borrow.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "step 1: waiting count underflows")]
    fn a_count_below_zero_is_caught_in_debug_builds() {
        let two = |edges: &[(StepId, StepId)]| {
            let steps = vec![Step::update(EntityId(0)), Step::update(EntityId(1))];
            Transaction::new("T", steps, edges.iter().copied()).expect("acyclic")
        };
        let mut p = Progress::new(&two(&[]));
        start(&mut p);
        ack(&mut p, &two(&[(StepId(0), StepId(1))]), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn ack_issues_what_the_scan_issued(seed in any::<u64>(), shape in 0usize..5, n in 0usize..40) {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = dag(shape, n, &mut rng);
            let mut p = Progress::new(&t);
            let mut scan = Scan::new(n);
            prop_assert_eq!(start(&mut p), scan.issue_ready(&t));
            assert_in_step(&p, &scan, &t);
            let mut resets = 0;
            while !p.finished() {
                let in_flight: Vec<usize> = p.pending().collect();
                prop_assert!(!in_flight.is_empty(), "unfinished with nothing to acknowledge");
                let acked: Vec<usize> = (0..n).filter(|&v| scan.done[v]).collect();
                match rng.gen_range(0..10u32) {
                    0 if resets < 3 => {
                        resets += 1;
                        p.reset(&t);
                        scan = Scan::new(n);
                        prop_assert_eq!(start(&mut p), scan.issue_ready(&t));
                    }
                    1 if !acked.is_empty() => {
                        let v = acked[rng.gen_range(0..acked.len())];
                        prop_assert_eq!(ack(&mut p, &t, v), Vec::<usize>::new());
                    }
                    2 => prop_assert_eq!(start(&mut p), Vec::<usize>::new()),
                    _ => {
                        let v = in_flight[rng.gen_range(0..in_flight.len())];
                        scan.done[v] = true;
                        prop_assert_eq!(ack(&mut p, &t, v), scan.issue_ready(&t));
                    }
                }
                assert_in_step(&p, &scan, &t);
            }
            prop_assert!(scan.issue_ready(&t).is_empty());
        }
    }
}
