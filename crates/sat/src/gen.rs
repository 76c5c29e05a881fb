//! Random CNF generation (self-contained xorshift; no external RNG needed).

use crate::cnf::{Cnf, Lit, Var};

/// A tiny deterministic xorshift64* generator, sufficient for workload
/// generation and fully reproducible across platforms.
#[derive(Clone, Debug)]
pub struct XorShift(u64);

impl XorShift {
    /// Seeds the generator (zero is remapped).
    pub fn new(seed: u64) -> Self {
        XorShift(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `0..n` (n > 0), bias-free.
    ///
    /// Plain `next_u64() % n` over-weights the low residues whenever `n`
    /// does not divide `2^64` (by at most one part in `2^64 / n`, tiny but
    /// real). Rejection sampling inside the largest multiple-of-`n` zone
    /// makes every residue exactly equally likely; the retry probability is
    /// below `n / 2^64`, so the loop is effectively a single draw.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        let n = n as u64;
        let zone = (u64::MAX / n) * n;
        loop {
            let v = self.next_u64();
            if v < zone {
                return (v % n) as usize;
            }
        }
    }

    /// Uniform boolean.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Generates a random k-CNF with `num_clauses` clauses of width `k` over
/// `num_vars` variables (distinct variables within each clause).
pub fn random_kcnf(seed: u64, num_vars: usize, num_clauses: usize, k: usize) -> Cnf {
    assert!(k <= num_vars, "clause width exceeds variable count");
    let mut rng = XorShift::new(seed);
    let mut f = Cnf::new(num_vars);
    for _ in 0..num_clauses {
        let mut vars: Vec<usize> = Vec::with_capacity(k);
        while vars.len() < k {
            let v = rng.below(num_vars);
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        f.add_clause(
            vars.into_iter()
                .map(|v| Lit::new(Var(v as u32), rng.flip())),
        );
    }
    f
}

/// Generates a random formula already in the paper's restricted form:
/// clause width 2–3, each variable at most twice positive and once negative.
///
/// Works by drawing from a budget pool: each variable contributes two
/// positive tokens and one negative token; clauses consume tokens.
pub fn random_restricted(seed: u64, num_vars: usize, num_clauses: usize) -> Cnf {
    let mut rng = XorShift::new(seed);
    let mut pos_budget = vec![2u8; num_vars];
    let mut neg_budget = vec![1u8; num_vars];
    let mut f = Cnf::new(num_vars);
    for _ in 0..num_clauses {
        let width = 2 + rng.below(2);
        let mut clause: Vec<Lit> = Vec::with_capacity(width);
        let mut tries = 0;
        while clause.len() < width && tries < 100 {
            tries += 1;
            let v = rng.below(num_vars);
            if clause.iter().any(|l| l.var().idx() == v) {
                continue;
            }
            let want_pos = rng.flip();
            if want_pos && pos_budget[v] > 0 {
                pos_budget[v] -= 1;
                clause.push(Lit::pos(Var(v as u32)));
            } else if !want_pos && neg_budget[v] > 0 {
                neg_budget[v] -= 1;
                clause.push(Lit::neg(Var(v as u32)));
            }
        }
        if clause.len() >= 2 {
            f.add_clause(clause);
        }
    }
    debug_assert!(f.is_restricted_form());
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kcnf_shape() {
        let f = random_kcnf(7, 10, 20, 3);
        assert_eq!(f.num_vars, 10);
        assert_eq!(f.num_clauses(), 20);
        for c in f.clauses() {
            assert_eq!(c.len(), 3);
            let mut vars: Vec<_> = c.iter().map(|l| l.var()).collect();
            vars.sort();
            vars.dedup();
            assert_eq!(vars.len(), 3, "distinct variables per clause");
        }
    }

    #[test]
    fn restricted_generator_respects_budgets() {
        for seed in 0..20 {
            let f = random_restricted(seed, 12, 10);
            assert!(f.is_restricted_form(), "seed {seed}: {f:?}");
        }
    }

    #[test]
    fn determinism() {
        assert_eq!(random_kcnf(5, 8, 10, 3), random_kcnf(5, 8, 10, 3));
        assert_ne!(random_kcnf(5, 8, 10, 3), random_kcnf(6, 8, 10, 3));
    }
}
