//! Transaction systems: a database plus a set of locked transactions.

use crate::entity::Database;
use crate::error::ModelError;
use crate::ids::{EntityId, TxnId};
use crate::txn::Transaction;
use crate::validate::{validate, Level};

/// A locked transaction system `T = {T1, ..., Tk}` over a distributed
/// database.
#[derive(Clone, Debug)]
pub struct TxnSystem {
    db: Database,
    txns: Vec<Transaction>,
}

impl TxnSystem {
    /// Bundles a database and transactions.
    pub fn new(db: Database, txns: Vec<Transaction>) -> Self {
        TxnSystem { db, txns }
    }

    /// The database schema.
    #[inline]
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// All transactions.
    #[inline]
    pub fn txns(&self) -> &[Transaction] {
        &self.txns
    }

    /// The transaction with the given id.
    #[inline]
    pub fn txn(&self, t: TxnId) -> &Transaction {
        &self.txns[t.idx()]
    }

    /// Number of transactions.
    #[inline]
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// True if the system has no transactions.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Iterates over transaction ids.
    pub fn txn_ids(&self) -> impl Iterator<Item = TxnId> {
        (0..self.txns.len()).map(TxnId::from_idx)
    }

    /// Validates every transaction at the given level.
    pub fn validate(&self, level: Level) -> Result<(), ModelError> {
        for t in &self.txns {
            validate(&self.db, t, level)?;
        }
        Ok(())
    }

    /// Entities locked by **both** of two transactions — the vertex set of
    /// the paper's conflict digraph `D(Ti, Tj)` — in ascending id order:
    /// `a`'s locked entities, each kept after one lookup in `b`'s lock
    /// index.
    pub fn shared_locked_entities(&self, a: TxnId, b: TxnId) -> Vec<EntityId> {
        let tb = self.txn(b);
        let mut shared = self.txn(a).locked_entities();
        shared.retain(|&e| tb.lock_step(e).is_some());
        shared
    }

    /// Total number of steps across the system (the paper's `n`).
    pub fn total_steps(&self) -> usize {
        self.txns.iter().map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TxnBuilder;

    #[test]
    fn shared_locked_entities() {
        let db = Database::from_spec(&[("x", 0), ("y", 0), ("z", 1)]);
        let mut b1 = TxnBuilder::new(&db, "T1");
        b1.script("Lx x Ux Ly y Uy").unwrap();
        let t1 = b1.build().unwrap();
        let mut b2 = TxnBuilder::new(&db, "T2");
        b2.script("Lx x Ux Lz z Uz").unwrap();
        let t2 = b2.build().unwrap();
        let sys = TxnSystem::new(db, vec![t1, t2]);
        assert_eq!(
            sys.shared_locked_entities(TxnId(0), TxnId(1)),
            vec![sys.db().entity("x").unwrap()]
        );
        assert_eq!(sys.total_steps(), 12);
        assert!(sys.validate(Level::Strict).is_ok());
    }
}
