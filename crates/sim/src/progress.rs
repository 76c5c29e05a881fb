//! A coordinator's progress through one epoch of its transaction.
//!
//! A transaction is a partial order of steps; a step may be issued once
//! every direct predecessor is acknowledged. [`Progress`] answers "which
//! steps did this acknowledgement make ready" and "is the epoch finished"
//! from counters, so a step costs the same in a 3 000-step transaction
//! as in a six-step one. Both runners ([`crate::engine`] and
//! [`crate::threaded`]) drive their step issue from it.

use kplock_model::Transaction;

/// Per-step state of one epoch plus the two counters derived from it.
pub(crate) struct Progress {
    done: Vec<bool>,
    issued: Vec<bool>,
    /// Per step, its direct predecessors not yet acknowledged.
    waiting_on: Vec<usize>,
    /// Steps not yet acknowledged; zero is the commit test.
    left: usize,
}

impl Progress {
    /// A fresh epoch of `t`: nothing issued, nothing acknowledged.
    pub(crate) fn new(t: &Transaction) -> Self {
        let mut p = Progress {
            done: vec![false; t.len()],
            issued: vec![false; t.len()],
            waiting_on: vec![0; t.len()],
            left: 0,
        };
        p.reset(t);
        p
    }

    /// Back to a fresh epoch (the abort path), reusing the buffers.
    pub(crate) fn reset(&mut self, t: &Transaction) {
        self.done.fill(false);
        self.issued.fill(false);
        for (v, w) in self.waiting_on.iter_mut().enumerate() {
            *w = t.edge_graph().predecessors(v).len();
        }
        self.left = t.len();
    }

    /// Marks issued and appends to `ready`, in ascending order, every
    /// unissued step with no unacknowledged predecessor — the sources of a
    /// new epoch. The one O(steps) pass of an epoch.
    pub(crate) fn start(&mut self, ready: &mut Vec<usize>) {
        for v in 0..self.done.len() {
            if !self.issued[v] && self.waiting_on[v] == 0 {
                self.issued[v] = true;
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
        if std::mem::replace(&mut self.done[step], true) {
            return;
        }
        self.left -= 1;
        let from = ready.len();
        for &s in t.edge_graph().successors(step) {
            self.waiting_on[s] -= 1;
            if self.waiting_on[s] == 0 {
                self.issued[s] = true;
                ready.push(s);
            }
        }
        ready[from..].sort_unstable();
    }

    /// True once `step` is acknowledged in this epoch.
    pub(crate) fn is_done(&self, step: usize) -> bool {
        self.done[step]
    }

    /// True while `step` is issued and unacknowledged.
    pub(crate) fn in_flight(&self, step: usize) -> bool {
        self.issued[step] && !self.done[step]
    }

    /// Every in-flight step, ascending: what a retransmission re-sends.
    pub(crate) fn pending(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.done.len()).filter(|&v| self.in_flight(v))
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
            assert_eq!(p.waiting_on[v], waiting, "step {v}");
        }
        let pending: Vec<usize> = p.pending().collect();
        assert!(pending.windows(2).all(|w| w[0] < w[1]));
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
