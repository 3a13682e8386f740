//! Two-level data-cache model.
//!
//! A classic set-associative LRU hierarchy: 16 KiB / 4-way L1D backed by a
//! 256 KiB / 8-way unified L2, with DRAM behind it. Only *stall* cycles are
//! reported — the 1-cycle L1 pipeline latency is part of the instruction's
//! base cost. The model is used for both application data and the taint
//! bitmap; because a tag byte covers 8 (byte-level) or 64 (word-level) data
//! bytes, bitmap accesses have high locality and mostly hit in L1, which is
//! why the paper finds the *memory-access* share of instrumentation overhead
//! small next to the *computation* share (§6.4, Figure 9).
//!
//! The geometry and latencies are those of the one modelled Itanium 2, so
//! they are compile-time constants: set counts and ways are type
//! parameters, line math is a fixed shift, and nothing about the model can
//! be reconfigured at run time.

/// Cache line size in bytes, at both levels.
const LINE: u64 = 64;

/// `log2(LINE)`: line math is a shift, not a `u64` division — the cache
/// sits on the interpreter's memory fast path.
const LINE_SHIFT: u32 = LINE.trailing_zeros();

/// Extra cycles for an L1 miss that hits L2.
pub const L2_LATENCY: u64 = 8;

/// Extra cycles for an access that misses both levels.
pub const MEM_LATENCY: u64 = 120;

/// One set-associative LRU cache level of `SETS` sets (a power of two) of
/// `WAYS` ways.
///
/// Each set is a fixed array of line numbers, most-recent first, with an
/// impossible line number as the empty sentinel, so an access is one
/// contiguous scan with no per-set allocation. LRU behaviour — and therefore
/// the hit/miss/stall sequence — is identical to the textbook
/// list-of-tags formulation.
#[derive(Clone, Debug)]
struct Level<const SETS: usize, const WAYS: usize> {
    sets: Box<[[u64; WAYS]; SETS]>,
    hits: u64,
    misses: u64,
}

/// No real line has this number: lines are `addr / LINE` and addresses
/// top out well below `u64::MAX`.
const EMPTY_LINE: u64 = u64::MAX;

impl<const SETS: usize, const WAYS: usize> Level<SETS, WAYS> {
    const POW2: () = assert!(SETS.is_power_of_two(), "set count must be a power of two");

    fn new() -> Self {
        let () = Self::POW2;
        let sets = vec![[EMPTY_LINE; WAYS]; SETS].into_boxed_slice();
        Level { sets: sets.try_into().expect("SETS sets"), hits: 0, misses: 0 }
    }

    /// Touches `line`; returns `true` on hit.
    #[inline]
    fn access(&mut self, line: u64) -> bool {
        let ways = &mut self.sets[(line as usize) & (SETS - 1)];
        if ways[0] == line {
            // Most-recently-used hit: the dominant case, no reordering.
            self.hits += 1;
            return true;
        }
        if let Some(pos) = ways.iter().position(|&t| t == line) {
            ways[..=pos].rotate_right(1);
            self.hits += 1;
            true
        } else {
            ways.rotate_right(1);
            ways[0] = line;
            self.misses += 1;
            false
        }
    }
}

/// The L1 + L2 + DRAM hierarchy with stall-latency accounting.
#[derive(Clone, Debug)]
pub struct CacheHierarchy {
    /// 16 KiB: 64 sets of 4 ways of 64-byte lines.
    l1: Level<64, 4>,
    /// 256 KiB: 512 sets of 8 ways of 64-byte lines.
    l2: Level<512, 8>,
}

impl CacheHierarchy {
    /// The Itanium 2 hierarchy, cold: 16 KiB/4-way L1D (stall-free hits),
    /// 256 KiB/8-way L2 at +[`L2_LATENCY`] cycles, DRAM at
    /// +[`MEM_LATENCY`] cycles.
    pub fn itanium2() -> CacheHierarchy {
        CacheHierarchy { l1: Level::new(), l2: Level::new() }
    }

    /// Simulates a data access of `size` bytes at `addr`; returns the stall
    /// cycles beyond the instruction's base latency. Accesses that straddle a
    /// line boundary touch both lines.
    #[inline]
    pub fn access(&mut self, addr: u64, size: u64) -> u64 {
        let first = addr >> LINE_SHIFT;
        let last = addr.wrapping_add(size.max(1) - 1) >> LINE_SHIFT;
        if first == last {
            return self.access_line(first);
        }
        let mut stall = 0;
        for line in first..=last {
            stall += self.access_line(line);
        }
        stall
    }

    #[inline]
    fn access_line(&mut self, line: u64) -> u64 {
        if self.l1.access(line) {
            0
        } else if self.l2.access(line) {
            L2_LATENCY
        } else {
            MEM_LATENCY
        }
    }

    /// `(hits, misses)` at L1.
    pub fn l1_stats(&self) -> (u64, u64) {
        (self.l1.hits, self.l1.misses)
    }

    /// `(hits, misses)` at L2.
    pub fn l2_stats(&self) -> (u64, u64) {
        (self.l2.hits, self.l2.misses)
    }
}

impl Default for CacheHierarchy {
    fn default() -> Self {
        CacheHierarchy::itanium2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = CacheHierarchy::itanium2();
        assert_eq!(c.access(0x1000, 8), MEM_LATENCY);
        assert_eq!(c.access(0x1000, 8), 0);
        // Same line, different offset: still a hit.
        assert_eq!(c.access(0x1008, 8), 0);
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let mut c = CacheHierarchy::itanium2();
        // L1 is 16 KiB 4-way with 64-line sets; walking 32 KiB of
        // same-set lines evicts the first from L1 but not from L2.
        let set_stride = 64 * 64; // line * sets
        c.access(0, 8);
        for i in 1..=8u64 {
            c.access(i * set_stride, 8);
        }
        let stall = c.access(0, 8);
        assert_eq!(stall, L2_LATENCY, "should be an L2 hit after L1 eviction");
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut c = CacheHierarchy::itanium2();
        // Byte-granularity access spanning a line boundary (only possible
        // for unaligned byte-string ops).
        let stall = c.access(64 - 1, 2);
        assert_eq!(stall, 2 * MEM_LATENCY);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = CacheHierarchy::itanium2();
        c.access(0, 8);
        c.access(0, 8);
        let (h, m) = c.l1_stats();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    fn tag_locality_mostly_hits() {
        // Sequentially touching 4 KiB of data plus its byte-level tag bytes
        // (512 of them) should produce far more hits than misses.
        let mut c = CacheHierarchy::itanium2();
        let mut stalls = 0;
        for i in 0..4096u64 {
            stalls += c.access(0x10_0000 + i, 1);
            stalls += c.access(0x20_0000 + i / 8, 1); // its tag byte
        }
        let (h, m) = c.l1_stats();
        assert!(h > 50 * m, "expected strong locality, got {h} hits / {m} misses");
        // 4 KiB of data (64 lines) + 512 B of tags (8 lines) ≈ 72 cold
        // misses; anything close to that means the tag stream is riding the
        // data stream's locality.
        assert!(stalls <= 80 * MEM_LATENCY, "stalls = {stalls}");
    }
}
