//! Newtype identifiers for the model, and the hash maps keyed by them.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index, for array addressing.
            #[inline]
            pub fn idx(self) -> usize {
                self.0 as usize
            }

            /// Builds an id from a raw index.
            #[inline]
            pub fn from_idx(i: usize) -> Self {
                $name(u32::try_from(i).expect("id overflow"))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a database entity (the paper's lockable granule).
    EntityId,
    "e"
);
id_type!(
    /// Identifies a site of the distributed database.
    SiteId,
    "s"
);
id_type!(
    /// Identifies a step within a single transaction (dense, 0-based).
    StepId,
    "p"
);
id_type!(
    /// Identifies a transaction within a system (dense, 0-based).
    TxnId,
    "T"
);

/// The hasher under every id-keyed map of the workspace ([`IdMap`],
/// [`IdSet`]): one rotate–xor–multiply per integer written, and a
/// fold–multiply–fold in [`Hasher::finish`].
///
/// Ids are dense small integers drawn by this program, never attacker
/// input, so SipHash's collision resistance buys nothing here and costs
/// more than the table operation it guards. A bare multiply would do for
/// dense keys but not for strided ones: the low `k` bits of
/// `(i << k) * ODD` are zero, and hashbrown picks a bucket from the *low*
/// bits of the hash (and its 7-bit control tag from the top ones). One
/// xor of the high half onto the low half repairs most strides and leaves
/// holes at others (at `k = 4`, 4 096 keys reach 1 886 of 4 096 buckets:
/// both halves are linear in the key and partly cancel), so `finish`
/// multiplies once more between two folds; every stride the tests try
/// then spreads like a random function.
///
/// Map iteration order is a function of the keys and the insertion
/// history — stable from run to run, but no more meaningful than it was
/// under `RandomState`: sort before an order reaches an output.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

/// 2^64 / φ, odd: consecutive keys land far apart (Fibonacci hashing).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MIX);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let folded = (self.0 ^ (self.0 >> 32)).wrapping_mul(MIX);
        folded ^ (folded >> 32)
    }

    /// Byte strings (a `String` key behind the alias) go in a byte at a
    /// time, so the result does not depend on how a caller chunks them.
    /// No id takes this path.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A `HashMap` keyed by an id, an owner handle or a tuple of them, hashed
/// by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of ids (or tuples of them), hashed by [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn roundtrip_and_format() {
        let e = EntityId::from_idx(7);
        assert_eq!(e.idx(), 7);
        assert_eq!(format!("{e}"), "e7");
        assert_eq!(format!("{:?}", SiteId(2)), "s2");
    }

    #[test]
    fn ordering() {
        assert!(StepId(1) < StepId(2));
        assert_eq!(TxnId(3), TxnId(3));
    }

    /// The mirror of `kplock_sim::Instance`, which this crate cannot name:
    /// the derived `Hash` writes two `u32`s, as the real one does.
    #[derive(Clone, Copy, Hash)]
    struct Instance {
        txn: TxnId,
        epoch: u32,
    }

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// What hashbrown reads of a hash: a bucket from the low bits (here a
    /// 4 096-bucket table's) and a 7-bit control tag from the top. 4 096
    /// keys must reach at least half the buckets — uniformly random hashes
    /// reach about 63 % — and at least 100 of the 128 tags.
    fn assert_spread(what: &str, hashes: impl Iterator<Item = u64>) {
        let (mut buckets, mut tags, mut n) = (HashSet::new(), HashSet::new(), 0);
        for h in hashes {
            buckets.insert(h & 0xFFF);
            tags.insert(h >> 57);
            n += 1;
        }
        assert_eq!(n, 4096, "{what}");
        assert!(buckets.len() >= 2048, "{what}: {} buckets", buckets.len());
        assert!(tags.len() >= 100, "{what}: {} tags", tags.len());
    }

    #[test]
    fn strided_keys_spread_over_buckets_and_tags() {
        let grid = |k: u32| {
            (0..64u32).flat_map(move |i| {
                (0..64u32).map(move |j| Instance {
                    txn: TxnId(i << k),
                    epoch: j << k,
                })
            })
        };
        for k in 0..20 {
            let ids = (0..4096u32).map(|i| hash_of(EntityId(i << k)));
            assert_spread(&format!("EntityId(i << {k})"), ids);
            let instances = grid(k).map(hash_of);
            assert_spread(&format!("Instance grid << {k}"), instances);
            let pairs = grid(k).map(|inst| hash_of((inst, EntityId(inst.epoch ^ (3 << k)))));
            assert_spread(&format!("(Instance, EntityId) << {k}"), pairs);
        }
    }

    /// The reason for `finish`: the low `k` bits of a strided key's bare
    /// product are zero, so from `k = 1` on the keys share buckets.
    #[test]
    fn a_bare_multiply_fails_the_same_test() {
        for k in 1..20 {
            let buckets: HashSet<u64> = (0..4096u64)
                .map(|i| (i << k).wrapping_mul(MIX) & 0xFFF)
                .collect();
            assert!(buckets.len() <= 2048, "<< {k}: {} buckets", buckets.len());
        }
    }

    #[test]
    fn byte_strings_hash_the_same_however_they_are_chunked() {
        let bytes = b"an id-keyed map may still meet a string";
        let whole = {
            let mut h = IdHasher::default();
            h.write(bytes);
            h.finish()
        };
        for cut in 0..=bytes.len() {
            let mut h = IdHasher::default();
            h.write(&bytes[..cut]);
            h.write(&bytes[cut..]);
            assert_eq!(h.finish(), whole, "cut at {cut}");
        }
        let mut h = IdHasher::default();
        bytes.iter().for_each(|&b| h.write_u8(b));
        assert_eq!(h.finish(), whole);

        let mut m: IdMap<String, u32> = IdMap::default();
        for i in 0..1000u32 {
            m.insert(format!("entity-{i}"), i);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u32).all(|i| m[&format!("entity-{i}")] == i));
    }
}
