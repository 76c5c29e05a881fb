//! A dense, fixed-capacity bit set.
//!
//! Used for dominator membership and as the memo key when counting linear
//! extensions. Implemented here rather than pulled from a crate so that the
//! workspace stays within its offline dependency set.

/// A fixed-capacity set of `usize` indices backed by `u64` words.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitSet {
    words: Vec<u64>,
    /// Number of valid bits; indices `>= len` must never be set.
    len: usize,
}

impl BitSet {
    /// Creates an empty set with capacity for `len` elements.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Capacity (number of addressable indices).
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts `i`. Returns `true` if the bit was newly set.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "BitSet index {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `i`. Returns `true` if the bit was previously set.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "BitSet index {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        let (w, b) = (i / 64, i % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Number of elements in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union. Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place union; returns `true` if any new bit was added.
    pub fn union_with_changed(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// In-place intersection. Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// True if `self` and `other` share no element.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// True if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Iterates over set indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Builds a set with the given members.
    pub fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut s = BitSet::new(len);
        for i in indices {
            s.insert(i);
        }
        s
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects indices; capacity is 1 + the maximum index (0 if empty).
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let v: Vec<usize> = iter.into_iter().collect();
        let len = v.iter().max().map_or(0, |m| m + 1);
        BitSet::from_indices(len, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn iter_yields_sorted() {
        let s = BitSet::from_indices(200, [5, 199, 64, 63, 0]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![0, 5, 63, 64, 199]);
    }

    #[test]
    fn union_intersection_subset() {
        let a = BitSet::from_indices(100, [1, 2, 3]);
        let b = BitSet::from_indices(100, [3, 4]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3]);
        assert!(i.is_subset(&a) && i.is_subset(&b));
        assert!(!a.is_subset(&b));
        let c = BitSet::from_indices(100, [7, 9]);
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn union_with_changed_reports() {
        let mut a = BitSet::from_indices(10, [1]);
        let b = BitSet::from_indices(10, [1, 2]);
        assert!(a.union_with_changed(&b));
        assert!(!a.union_with_changed(&b));
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(10));
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic]
    fn out_of_range_insert_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn empty_and_clear() {
        let mut s = BitSet::from_indices(10, [3]);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
    }
}
