//! A fixed-size bitvector over `u64` words.
//!
//! The multi-view query mode of the adaptive storage layer must avoid
//! scanning a shared physical page twice (paper §2.1). The paper realizes
//! this with "a fixed-size bitvector"; this module is that bitvector.
//! It is also reused by the explicit bitmap baseline (paper §3.1).

/// A fixed-size bitvector with one bit per page.
///
/// All operations are `O(1)` except the ones documented otherwise.
///
/// # Examples
///
/// ```
/// use asv_util::BitVec;
///
/// let mut processed = BitVec::new(1024);
/// assert!(!processed.get(17));
/// processed.set(17);
/// assert!(processed.get(17));
/// assert_eq!(processed.count_ones(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

const WORD_BITS: usize = 64;

impl BitVec {
    /// Creates a bitvector with `len` bits, all cleared.
    pub fn new(len: usize) -> Self {
        let words = vec![0u64; len.div_ceil(WORD_BITS)];
        Self { words, len }
    }

    /// Number of bits in the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn check(&self, idx: usize) {
        assert!(
            idx < self.len,
            "bit index {idx} out of bounds (len {})",
            self.len
        );
    }

    /// Reads the bit at `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= self.len()`.
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        self.check(idx);
        (self.words[idx / WORD_BITS] >> (idx % WORD_BITS)) & 1 == 1
    }

    /// Sets the bit at `idx` to one.
    ///
    /// # Panics
    /// Panics if `idx >= self.len()`.
    #[inline]
    pub fn set(&mut self, idx: usize) {
        self.check(idx);
        self.words[idx / WORD_BITS] |= 1 << (idx % WORD_BITS);
    }

    /// Clears the bit at `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= self.len()`.
    #[inline]
    pub fn clear(&mut self, idx: usize) {
        self.check(idx);
        self.words[idx / WORD_BITS] &= !(1 << (idx % WORD_BITS));
    }

    /// Sets the bit at `idx` and returns its previous value.
    ///
    /// This is the operation the multi-view scan loop performs for every
    /// visited page: "have I processed this page already, and if not, mark
    /// it as processed now".
    #[inline]
    pub fn test_and_set(&mut self, idx: usize) -> bool {
        let prev = self.get(idx);
        self.set(idx);
        prev
    }

    /// Number of set bits. `O(len / 64)`.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of cleared bits. `O(len / 64)`.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Iterator over the indices of all set bits, in increasing order.
    ///
    /// The bitmap baseline's lookup path (paper §3.1) is exactly "scan the
    /// bitvector and jump into the column for each qualifying page", which
    /// is this iterator.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            bv: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Returns `true` if any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// In-place union with another bitvector of the same length.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn union_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvector length mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= *b;
        }
    }

    /// In-place intersection with another bitvector of the same length.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn intersect_with(&mut self, other: &BitVec) {
        self.intersect_with_count(other);
    }

    /// In-place intersection that also returns the resulting popcount,
    /// counted in the same pass over the words as the AND.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn intersect_with_count(&mut self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "bitvector length mismatch");
        let mut ones = 0usize;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            let w = *a & *b;
            *a = w;
            ones += w.count_ones() as usize;
        }
        ones
    }
}

/// Iterator over set bit indices of a [`BitVec`].
pub struct OnesIter<'a> {
    bv: &'a BitVec,
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let idx = self.word_idx * WORD_BITS + bit;
                if idx < self.bv.len {
                    return Some(idx);
                } else {
                    return None;
                }
            }
            self.word_idx += 1;
            if self.word_idx >= self.bv.words.len() {
                return None;
            }
            self.current = self.bv.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_clear() {
        let bv = BitVec::new(130);
        assert_eq!(bv.len(), 130);
        assert_eq!(bv.count_ones(), 0);
        assert_eq!(bv.count_zeros(), 130);
        assert!(!bv.any());
        for i in 0..130 {
            assert!(!bv.get(i));
        }
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut bv = BitVec::new(200);
        bv.set(0);
        bv.set(63);
        bv.set(64);
        bv.set(199);
        assert!(bv.get(0) && bv.get(63) && bv.get(64) && bv.get(199));
        assert_eq!(bv.count_ones(), 4);
        bv.clear(64);
        assert!(!bv.get(64));
        assert_eq!(bv.count_ones(), 3);
    }

    #[test]
    fn test_and_set_reports_previous_value() {
        let mut bv = BitVec::new(10);
        assert!(!bv.test_and_set(3));
        assert!(bv.test_and_set(3));
        assert!(bv.get(3));
    }

    #[test]
    fn iter_ones_yields_sorted_indices() {
        let mut bv = BitVec::new(300);
        let idxs = [1usize, 2, 63, 64, 65, 128, 255, 299];
        for &i in &idxs {
            bv.set(i);
        }
        let collected: Vec<usize> = bv.iter_ones().collect();
        assert_eq!(collected, idxs);
    }

    #[test]
    fn iter_ones_empty() {
        let bv = BitVec::new(0);
        assert_eq!(bv.iter_ones().count(), 0);
        assert!(bv.is_empty());
    }

    #[test]
    fn union_and_intersection() {
        let mut a = BitVec::new(100);
        let mut b = BitVec::new(100);
        a.set(1);
        a.set(50);
        b.set(50);
        b.set(99);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![1, 50, 99]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter_ones().collect::<Vec<_>>(), vec![50]);
    }

    #[test]
    fn intersect_with_count_matches_separate_popcount() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut xorshift = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [0usize, 1, 63, 64, 65, 200, 512] {
            let mut a = BitVec::new(len);
            let mut b = BitVec::new(len);
            for i in 0..len {
                if xorshift().is_multiple_of(2) {
                    a.set(i);
                }
                if xorshift().is_multiple_of(3) {
                    b.set(i);
                }
            }
            let mut reference = a.clone();
            reference.intersect_with(&b);
            let expected = reference.count_ones();
            let fused = a.intersect_with_count(&b);
            assert_eq!(fused, expected, "len {len}");
            assert_eq!(a, reference, "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        let bv = BitVec::new(8);
        bv.get(8);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn union_length_mismatch_panics() {
        let mut a = BitVec::new(8);
        let b = BitVec::new(9);
        a.union_with(&b);
    }
}
