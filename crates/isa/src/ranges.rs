//! Sets of `u64` points kept as sorted half-open ranges.

use std::ops::Range;

/// A set of `u64` points stored as sorted, disjoint, never-adjacent
/// half-open `(lo, hi)` ranges, so it costs memory by the number of runs,
/// not by their size. The page table's mappings and the host taint shadow
/// are both built on it.
///
/// ```
/// use shift_isa::RangeSet;
///
/// let mut s = RangeSet::default();
/// assert_eq!(s.insert(10, 20), 10);
/// assert_eq!(s.insert(20, 25), 5); // touching: coalesces
/// assert_eq!(s.iter().collect::<Vec<_>>(), [(10, 25)]);
/// assert_eq!(s.remove(12, 14), 2); // splits
/// assert_eq!(s.iter().collect::<Vec<_>>(), [(10, 12), (14, 25)]);
/// assert_eq!(s.covered(0, 100), 13);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RangeSet(Vec<(u64, u64)>);

impl RangeSet {
    /// Is `x` in the set?
    pub fn contains(&self, x: u64) -> bool {
        let i = self.0.partition_point(|&(lo, _)| lo <= x);
        i > 0 && x < self.0[i - 1].1
    }

    /// The indices of the ranges that share at least one point with
    /// `lo..hi`.
    fn overlapping(&self, lo: u64, hi: u64) -> Range<usize> {
        self.0.partition_point(|&(_, e)| e <= lo)..self.0.partition_point(|&(s, _)| s < hi)
    }

    /// How many points of `lo..hi` are in the set (0 when `lo >= hi`).
    pub fn covered(&self, lo: u64, hi: u64) -> u64 {
        if lo >= hi {
            return 0;
        }
        self.0[self.overlapping(lo, hi)].iter().map(|&(s, e)| e.min(hi) - s.max(lo)).sum()
    }

    /// Adds the points `lo..hi`, coalescing every range the new one
    /// overlaps or touches into one. Returns how many points were added.
    pub fn insert(&mut self, lo: u64, hi: u64) -> u64 {
        if lo >= hi {
            return 0;
        }
        let added = hi - lo - self.covered(lo, hi);
        let first = self.0.partition_point(|&(_, e)| e < lo);
        let end = self.0.partition_point(|&(s, _)| s <= hi);
        let joined = &self.0[first..end];
        let lo = joined.first().map_or(lo, |&(s, _)| s.min(lo));
        let hi = joined.last().map_or(hi, |&(_, e)| e.max(hi));
        self.0.splice(first..end, [(lo, hi)]);
        added
    }

    /// Removes the points `lo..hi`, splitting a range that straddles either
    /// end. Returns how many points were removed.
    pub fn remove(&mut self, lo: u64, hi: u64) -> u64 {
        let removed = self.covered(lo, hi);
        if removed == 0 {
            return 0;
        }
        let hit = self.overlapping(lo, hi);
        let (head, tail) = (self.0[hit.start].0, self.0[hit.end - 1].1);
        self.0.splice(hit, [(head, lo), (hi, tail)].into_iter().filter(|&(s, e)| s < e));
        removed
    }

    /// The ranges, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.0.iter().copied()
    }

    /// The number of ranges (not points).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranges(s: &RangeSet) -> Vec<(u64, u64)> {
        s.iter().collect()
    }

    #[test]
    fn touching_ranges_coalesce_and_gaps_stay() {
        let mut s = RangeSet::default();
        assert_eq!(s.insert(10, 20), 10);
        assert_eq!(s.insert(30, 40), 10);
        assert_eq!(ranges(&s), [(10, 20), (30, 40)]);
        assert_eq!(s.insert(20, 30), 10, "touching on both sides");
        assert_eq!(ranges(&s), [(10, 40)]);
        assert_eq!(s.insert(5, 10), 5, "touching on the left");
        assert_eq!(s.insert(40, 41), 1, "touching on the right");
        assert_eq!(ranges(&s), [(5, 41)]);
        assert_eq!(s.insert(42, 43), 1);
        assert_eq!(ranges(&s), [(5, 41), (42, 43)]);
        assert!(s.contains(5) && s.contains(40) && !s.contains(41) && s.contains(42));
        assert!(!s.contains(4) && !s.contains(43));
    }

    #[test]
    fn nested_and_spanning_inserts() {
        let mut s = RangeSet::default();
        s.insert(10, 20);
        assert_eq!(s.insert(12, 15), 0, "nested insert adds nothing");
        assert_eq!(s.insert(10, 20), 0, "re-insert adds nothing");
        assert_eq!(ranges(&s), [(10, 20)]);
        s.insert(30, 40);
        s.insert(50, 60);
        // Spans all three ranges and both gaps, overhanging each end.
        assert_eq!(s.insert(5, 65), 60 - 30);
        assert_eq!(ranges(&s), [(5, 65)]);
        assert_eq!(s.insert(0, 70), 10);
        assert_eq!(s.covered(0, 70), 70);
    }

    #[test]
    fn remove_splits_and_trims_edges() {
        let mut s = RangeSet::default();
        s.insert(10, 20);
        assert_eq!(s.remove(14, 16), 2, "interior remove splits");
        assert_eq!(ranges(&s), [(10, 14), (16, 20)]);
        assert_eq!(s.remove(10, 11), 1, "left edge");
        assert_eq!(s.remove(19, 25), 1, "right edge, overhanging");
        assert_eq!(ranges(&s), [(11, 14), (16, 19)]);
        assert_eq!(s.remove(14, 16), 0, "the gap holds nothing");
        assert_eq!(s.remove(0, 100), 6, "a spanning remove empties the set");
        assert!(s.is_empty());
        assert_eq!(s.remove(0, 100), 0);
    }

    #[test]
    fn empty_ranges_change_nothing() {
        let mut s = RangeSet::default();
        assert_eq!(s.insert(7, 7), 0);
        assert_eq!(s.insert(9, 3), 0);
        assert!(s.is_empty());
        s.insert(0, 10);
        assert_eq!((s.remove(5, 5), s.remove(8, 2)), (0, 0));
        assert_eq!((s.covered(5, 5), s.covered(8, 2)), (0, 0));
        assert_eq!(ranges(&s), [(0, 10)]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn counts_match_a_pointwise_model() {
        let mut s = RangeSet::default();
        let mut model = [false; 64];
        let ops = [(true, 3, 9), (true, 20, 30), (false, 5, 25), (true, 0, 4), (true, 8, 22)];
        let more = [(false, 2, 3), (true, 40, 64), (false, 0, 50)];
        for (add, lo, hi) in ops.into_iter().chain(more) {
            let want = (lo..hi).filter(|&i| model[i as usize] != add).count() as u64;
            let got = if add { s.insert(lo, hi) } else { s.remove(lo, hi) };
            assert_eq!(got, want, "{add} {lo}..{hi}");
            (lo..hi).for_each(|i| model[i as usize] = add);
            for (i, &m) in model.iter().enumerate() {
                assert_eq!(s.contains(i as u64), m, "point {i}");
            }
            let pairs: Vec<_> = s.iter().collect();
            assert!(pairs.windows(2).all(|w| w[0].1 < w[1].0), "disjoint and non-adjacent");
        }
    }
}
