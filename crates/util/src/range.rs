//! Closed value ranges `[l, u]` over unsigned 64-bit values.
//!
//! Views in the adaptive storage layer are described by the value range they
//! cover: the full view covers `[-∞, ∞]`, partial views cover `[l, u]`
//! (paper §1.1 and §2). Since the storage layer stores 8-byte unsigned
//! integers, the full range is simply `[0, u64::MAX]`.

/// A closed (inclusive on both ends) range of `u64` values.
///
/// The range is never empty: construction enforces `low <= high`.
/// An "empty" covered range (a candidate view that matched nothing) is
/// represented separately by the caller via `Option<ValueRange>`.
///
/// # Examples
///
/// ```
/// use asv_util::ValueRange;
///
/// let full = ValueRange::full();
/// let q = ValueRange::new(100, 200);
/// assert!(full.covers(&q));
/// assert!(q.contains(150));
/// assert!(!q.contains(201));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ValueRange {
    low: u64,
    high: u64,
}

impl ValueRange {
    /// Creates the range `[low, high]`.
    ///
    /// # Panics
    /// Panics if `low > high`.
    #[inline]
    pub fn new(low: u64, high: u64) -> Self {
        assert!(low <= high, "invalid range [{low}, {high}]");
        Self { low, high }
    }

    /// Creates the range `[low, high]`, returning `None` if `low > high`.
    #[inline]
    pub fn try_new(low: u64, high: u64) -> Option<Self> {
        (low <= high).then_some(Self { low, high })
    }

    /// The full range `[-∞, ∞]`, i.e. `[0, u64::MAX]` for 8-byte unsigned
    /// values. This is the range covered by the full view of every column.
    #[inline]
    pub fn full() -> Self {
        Self {
            low: 0,
            high: u64::MAX,
        }
    }

    /// A range covering exactly one value.
    #[inline]
    pub fn point(v: u64) -> Self {
        Self { low: v, high: v }
    }

    /// Lower bound (inclusive).
    #[inline]
    pub fn low(&self) -> u64 {
        self.low
    }

    /// Upper bound (inclusive).
    #[inline]
    pub fn high(&self) -> u64 {
        self.high
    }

    /// Returns `true` if this is the full range `[0, u64::MAX]`.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.low == 0 && self.high == u64::MAX
    }

    /// Returns `true` if `v` lies within `[low, high]`.
    #[inline]
    pub fn contains(&self, v: u64) -> bool {
        self.low <= v && v <= self.high
    }

    /// Returns `true` if this range fully covers `other`
    /// (`self.low <= other.low && other.high <= self.high`).
    ///
    /// A view can answer a query iff the view's covered range *covers* the
    /// query's selected range (paper §2.1).
    #[inline]
    pub fn covers(&self, other: &ValueRange) -> bool {
        self.low <= other.low && other.high <= self.high
    }

    /// Returns `true` if this range is fully covered by `other`.
    #[inline]
    pub fn is_subset_of(&self, other: &ValueRange) -> bool {
        other.covers(self)
    }

    /// Returns `true` if the two ranges share at least one value.
    #[inline]
    pub fn overlaps(&self, other: &ValueRange) -> bool {
        self.low <= other.high && other.low <= self.high
    }

    /// Intersection of the two ranges, if non-empty.
    #[inline]
    pub fn intersect(&self, other: &ValueRange) -> Option<ValueRange> {
        let low = self.low.max(other.low);
        let high = self.high.min(other.high);
        ValueRange::try_new(low, high)
    }

    /// Smallest range covering both inputs (their convex hull).
    #[inline]
    pub fn hull(&self, other: &ValueRange) -> ValueRange {
        ValueRange {
            low: self.low.min(other.low),
            high: self.high.max(other.high),
        }
    }

    /// Number of distinct values covered, saturating at `u64::MAX`.
    #[inline]
    pub fn width(&self) -> u64 {
        (self.high - self.low).saturating_add(1)
    }

    /// Computes the widened covered range of a candidate partial view.
    ///
    /// During adaptive view creation the system records the largest
    /// non-qualifying value `l' < l` and the smallest non-qualifying value
    /// `u' > u` observed on non-qualifying pages; every value strictly
    /// between `l'` and `u'` must live on qualifying pages, so the candidate
    /// view's covered range may be extended from `[l, u]` to
    /// `[l' + 1, u' - 1]` (paper §2.2, Listing 1 lines 13-20).
    ///
    /// `below` is `l'` (if any non-qualifying value below the query range was
    /// observed) and `above` is `u'`.
    #[inline]
    pub fn widen_between(&self, below: Option<u64>, above: Option<u64>) -> ValueRange {
        let low = match below {
            Some(l_prime) => l_prime.saturating_add(1).min(self.low),
            None => 0,
        };
        let high = match above {
            Some(u_prime) => u_prime.saturating_sub(1).max(self.high),
            None => u64::MAX,
        };
        ValueRange::new(low, high)
    }
}

impl std::fmt::Display for ValueRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_full() {
            write!(f, "[-inf, +inf]")
        } else {
            write!(f, "[{}, {}]", self.low, self.high)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let r = ValueRange::new(5, 9);
        assert_eq!(r.low(), 5);
        assert_eq!(r.high(), 9);
        assert_eq!(r.width(), 5);
        assert!(!r.is_full());
        assert_eq!(ValueRange::point(7), ValueRange::new(7, 7));
        assert!(ValueRange::try_new(9, 5).is_none());
        assert!(ValueRange::try_new(5, 5).is_some());
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn inverted_range_panics() {
        ValueRange::new(10, 0);
    }

    #[test]
    fn full_range_properties() {
        let full = ValueRange::full();
        assert!(full.is_full());
        assert!(full.contains(0));
        assert!(full.contains(u64::MAX));
        assert_eq!(full.width(), u64::MAX);
        assert!(full.covers(&ValueRange::new(3, 4)));
    }

    #[test]
    fn contains_is_inclusive() {
        let r = ValueRange::new(10, 20);
        assert!(r.contains(10));
        assert!(r.contains(20));
        assert!(!r.contains(9));
        assert!(!r.contains(21));
    }

    #[test]
    fn covers_and_subset() {
        let big = ValueRange::new(0, 100);
        let small = ValueRange::new(10, 20);
        assert!(big.covers(&small));
        assert!(small.is_subset_of(&big));
        assert!(!small.covers(&big));
        assert!(big.covers(&big));
    }

    #[test]
    fn overlap_and_intersection() {
        let a = ValueRange::new(0, 10);
        let b = ValueRange::new(10, 20);
        let c = ValueRange::new(11, 20);
        assert!(a.overlaps(&b));
        assert_eq!(a.intersect(&b), Some(ValueRange::point(10)));
        assert!(!a.overlaps(&c));
        assert_eq!(a.intersect(&c), None);
        assert_eq!(a.hull(&c), ValueRange::new(0, 20));
    }

    #[test]
    fn widen_between_matches_listing1_semantics() {
        let q = ValueRange::new(100, 200);
        // Non-qualifying values observed at 80 (below) and 250 (above):
        // everything strictly between must lie on qualifying pages.
        assert_eq!(
            q.widen_between(Some(80), Some(250)),
            ValueRange::new(81, 249)
        );
        // No non-qualifying value below: the view covers everything from 0.
        assert_eq!(q.widen_between(None, Some(250)), ValueRange::new(0, 249));
        // No non-qualifying value above: the view covers everything to MAX.
        assert_eq!(
            q.widen_between(Some(80), None),
            ValueRange::new(81, u64::MAX)
        );
        // Neither: the candidate view behaves like a full view.
        assert!(q.widen_between(None, None).is_full());
    }

    #[test]
    fn widen_between_never_shrinks_below_query_range() {
        // Degenerate observations adjacent to the query bounds must not
        // produce a range smaller than the query itself.
        let q = ValueRange::new(100, 200);
        assert_eq!(
            q.widen_between(Some(99), Some(201)),
            ValueRange::new(100, 200)
        );
        // Saturation at the domain bounds.
        let edge = ValueRange::new(0, u64::MAX);
        assert_eq!(
            edge.widen_between(Some(u64::MAX), Some(0)),
            ValueRange::full()
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(ValueRange::new(1, 2).to_string(), "[1, 2]");
        assert_eq!(ValueRange::full().to_string(), "[-inf, +inf]");
    }
}
