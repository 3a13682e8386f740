//! # shift-tagmap — the in-memory taint tag space
//!
//! SHIFT keeps register taint in NaT bits, but NaT bits never reach memory:
//! a bitmap in a reserved part of the virtual address space records, for
//! every memory location, whether it is tainted (§3.2). This crate defines:
//!
//! * [`Granularity`] — byte-level (one tag bit per byte) or word-level (one
//!   tag bit per 8-byte word) tracking, the two configurations the paper
//!   evaluates throughout §6;
//! * [`tag_location`] — the virtual-address → tag-address translation of
//!   Figure 4. Itanium's *unimplemented bits* leave a hole between the
//!   40 implemented offset bits and the 3 region-select bits, so the
//!   translation cannot be a single shift: the region number is folded down
//!   next to the shifted offset, landing every tag in region 0 (which the
//!   paper reuses because it is reserved for IA-32 code);
//! * [`tag_range`] — the same translation for a whole run of data bytes
//!   (first tag byte, tag-byte count, edge masks), which the runtime's taint
//!   sources and policy sinks use to touch the bitmap in bulk;
//! * [`HostShadow`] — a host-side, byte-granularity reference taint map.
//!   The *instrumented guest code* maintains the real bitmap in simulated
//!   memory; the shadow is the oracle the test-suite uses to check that
//!   guest-maintained tags never drift from ground truth.
//!
//! ## Example
//!
//! ```
//! use shift_tagmap::{tag_location, Granularity};
//! use shift_isa::make_vaddr;
//!
//! // A byte in region 3 (the stack region)…
//! let va = make_vaddr(3, 0x1234);
//! let loc = tag_location(va, Granularity::Byte).unwrap();
//! // …maps to a tag bit in region 0.
//! assert_eq!(shift_isa::region_of(loc.byte_addr), 0);
//! assert_eq!(loc.bit(), (0x1234 % 8) as u8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use shift_isa::{is_implemented, offset_of, region_of, RangeSet, IMPL_BITS};

/// Tag-tracking granularity (paper §6 evaluates both).
///
/// Both granularities use one tag *byte* per 8 data bytes (so the
/// Figure-4 address translation is the same `offset >> 3` fold for both):
///
/// * **byte-level** packs 8 independent bits into that byte — one per data
///   byte — so sub-word accesses must extract and read-modify-write
///   individual bits;
/// * **word-level** treats the whole tag byte as a single flag for the
///   8-byte word. That trades an 8×-sparser encoding it could have used
///   for the elimination of all bit extraction and read-modify-write —
///   the engineering choice that makes word-level tracking cheaper, as the
///   paper measures (§6.2, §6.5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Granularity {
    /// One tag bit per byte of memory: precise, more instrumentation code.
    #[default]
    Byte,
    /// One whole tag byte per 8-byte word: coarser, cheaper (the paper's
    /// "word" is 8 bytes, footnote 2).
    Word,
}

impl Granularity {
    /// log2 of the number of data bytes covered by one tag *byte*
    /// (identical for both granularities; see the type-level docs).
    #[inline]
    pub const fn byte_shift(self) -> u32 {
        3
    }

    /// Whether sub-word accesses need per-bit extraction within the tag
    /// byte (byte-level only).
    #[inline]
    pub const fn needs_bit_extraction(self) -> bool {
        matches!(self, Granularity::Byte)
    }

    /// Short name used in reports ("byte" / "word").
    pub const fn name(self) -> &'static str {
        match self {
            Granularity::Byte => "byte",
            Granularity::Word => "word",
        }
    }

    /// Both granularities, in the order the paper's figures list them.
    pub const ALL: [Granularity; 2] = [Granularity::Byte, Granularity::Word];
}

impl std::fmt::Display for Granularity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// log2 of the per-region stride in the tag space.
///
/// Each data region holds at most 2^40 bytes, whose byte-level tags occupy
/// 2^37 bytes; regions 1–7 are laid out back to back in region 0, so the
/// whole tag space spans 7·2^37 < 2^40 bytes and itself stays implemented.
pub const REGION_STRIDE_BITS: u32 = IMPL_BITS - 3;

/// Location of one location's tag inside the region-0 tag space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TagLocation {
    /// Full virtual address (region 0) of the tag byte.
    pub byte_addr: u64,
    /// Mask selecting this location's tag within the byte: a single bit at
    /// byte granularity, the whole byte (`0xff`) at word granularity.
    pub mask: u8,
}

impl TagLocation {
    /// Bit index of the lowest set mask bit (0 for word granularity).
    #[inline]
    pub const fn bit(self) -> u8 {
        self.mask.trailing_zeros() as u8
    }
}

/// Error translating a data address to its tag address.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TagAddrError {
    /// The address has unimplemented bits set and would fault on access.
    Unimplemented,
    /// The address lies in region 0, which holds the tag space itself (and
    /// is reserved for IA-32 on real Itanium); it has no tags of its own.
    RegionZero,
}

impl std::fmt::Display for TagAddrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TagAddrError::Unimplemented => f.write_str("address touches unimplemented bits"),
            TagAddrError::RegionZero => f.write_str("region 0 holds the tag space itself"),
        }
    }
}

impl std::error::Error for TagAddrError {}

/// Translates a data virtual address to the location of its tag bit
/// (Figure 4 of the paper).
///
/// The translation the instrumented guest code performs is:
///
/// ```text
/// region   = vaddr >> 61                        // top 3 bits
/// offset   = vaddr & ((1 << 40) - 1)            // implemented bits
/// tag_byte = ((region - 1) << 37) | (offset >> 3)
/// mask     = byte level: 1 << (offset & 7); word level: 0xff
/// ```
///
/// This function is the host-side mirror of that sequence; tests assert that
/// the guest instruction sequence computes exactly this value.
///
/// # Errors
///
/// Returns [`TagAddrError`] for unimplemented addresses and region-0
/// addresses (the tag space does not tag itself).
pub fn tag_location(vaddr: u64, gran: Granularity) -> Result<TagLocation, TagAddrError> {
    if !is_implemented(vaddr) {
        return Err(TagAddrError::Unimplemented);
    }
    let region = region_of(vaddr);
    if region == 0 {
        return Err(TagAddrError::RegionZero);
    }
    let offset = offset_of(vaddr);
    let byte_addr = (u64::from(region - 1) << REGION_STRIDE_BITS) | (offset >> gran.byte_shift());
    let mask = match gran {
        Granularity::Byte => 1u8 << (offset & 7),
        Granularity::Word => 0xff,
    };
    Ok(TagLocation { byte_addr, mask })
}

/// The tag bytes covering a run of data bytes: the bulk counterpart of
/// [`TagLocation`], produced by [`tag_range`].
///
/// A run of `n` data bytes maps to `len` consecutive tag bytes starting at
/// `byte_addr`. Interior tag bytes belong to the run entirely; only the two
/// edge bytes may hold bits of neighbouring data, which `lo_mask` and
/// `hi_mask` exclude (both are `0xff` at word granularity, where a tag byte
/// is one flag). A one-byte span uses `lo_mask & hi_mask`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TagRange {
    /// Full virtual address (region 0) of the first tag byte.
    pub byte_addr: u64,
    /// Number of tag bytes the run touches (0 for an empty run).
    pub len: u64,
    /// The run's bits within the first tag byte.
    pub lo_mask: u8,
    /// The run's bits within the last tag byte.
    pub hi_mask: u8,
    gran: Granularity,
    /// Bit index of the run's first data byte within the first tag byte.
    lead: u8,
}

impl TagRange {
    /// The run's bits within tag byte `i` of the span (`i < len`).
    #[inline]
    pub fn mask(&self, i: u64) -> u8 {
        let mut m = 0xff;
        if i == 0 {
            m &= self.lo_mask;
        }
        if i + 1 == self.len {
            m &= self.hi_mask;
        }
        m
    }

    /// Marks or clears the run's taint in `tags`, the span's current tag
    /// bytes (`tags.len() == len`): a masked read-modify-write that leaves
    /// the edge bytes' neighbouring bits alone.
    pub fn apply(&self, tags: &mut [u8], tainted: bool) {
        debug_assert_eq!(tags.len() as u64, self.len);
        let Some(last) = tags.len().checked_sub(1) else { return };
        let (lo, hi) = self.blend_edges(tags[0], tags[last], tainted);
        tags.fill(Self::fill(tainted));
        tags[0] = lo;
        if last > 0 {
            tags[last] = hi;
        }
    }

    /// The value of every interior tag byte once the run is marked
    /// (`tainted`) or cleared.
    #[inline]
    pub fn fill(tainted: bool) -> u8 {
        if tainted {
            0xff
        } else {
            0
        }
    }

    /// The first and last tag bytes once the run is marked or cleared,
    /// given their current values `lo` and `hi`: the run's bits set or
    /// cleared, the neighbouring bits kept. For a one-byte span only the
    /// first result applies. With [`TagRange::fill`] for the interior,
    /// this lets a caller rewrite the span in place.
    #[inline]
    pub fn blend_edges(&self, lo: u8, hi: u8, tainted: bool) -> (u8, u8) {
        let blend = |old: u8, mask: u8| if tainted { old | mask } else { old & !mask };
        (blend(lo, self.mask(0)), blend(hi, self.hi_mask))
    }

    /// Whether data byte `i` of the run is tainted, given the span's tag
    /// bytes `tags`.
    #[inline]
    pub fn is_tainted(&self, tags: &[u8], i: u64) -> bool {
        let bit = u64::from(self.lead) + i;
        let byte = tags[(bit >> 3) as usize];
        match self.gran {
            Granularity::Byte => byte & (1 << (bit & 7)) != 0,
            Granularity::Word => byte != 0,
        }
    }
}

/// Translates the `len` data bytes starting at `vaddr` to the tag bytes
/// that cover them — [`tag_location`] for a whole run at once, so bulk
/// taint sources and sinks can touch the bitmap one page span at a time.
///
/// An empty run covers no tag bytes and is always valid.
///
/// # Errors
///
/// [`TagAddrError::RegionZero`] when the run starts in region 0, and
/// [`TagAddrError::Unimplemented`] when any of its bytes is unimplemented —
/// which includes every run that crosses from one region into the next,
/// since the unimplemented hole separates them.
pub fn tag_range(vaddr: u64, len: u64, gran: Granularity) -> Result<TagRange, TagAddrError> {
    if len == 0 {
        return Ok(TagRange { byte_addr: 0, len: 0, lo_mask: 0, hi_mask: 0, gran, lead: 0 });
    }
    let first = tag_location(vaddr, gran)?;
    let end = vaddr.checked_add(len - 1).ok_or(TagAddrError::Unimplemented)?;
    if !is_implemented(end) || region_of(end) != region_of(vaddr) {
        return Err(TagAddrError::Unimplemented);
    }
    let last = tag_location(end, gran)?;
    let (lo_mask, hi_mask) = match gran {
        Granularity::Byte => (0xffu8 << first.bit(), 0xffu8 >> (7 - last.bit())),
        Granularity::Word => (0xff, 0xff),
    };
    Ok(TagRange {
        byte_addr: first.byte_addr,
        len: last.byte_addr - first.byte_addr + 1,
        lo_mask,
        hi_mask,
        gran,
        lead: (offset_of(vaddr) & 7) as u8,
    })
}

/// Host-side reference taint map at byte granularity: the *ground truth*
/// that runtime taint sources mark directly, and that tests compare the
/// guest-maintained bitmap against to detect tag drift (false positives /
/// negatives in the sense of §5.2).
///
/// The tainted addresses are one [`RangeSet`]; a served request leaves a
/// run or two (its request and file buffers), which a clone copies whole.
/// `marks`/`clears` add up the points each insert or remove changed —
/// exactly the transitions a per-byte loop counts — so `tainted_bytes` is
/// `marks - clears`. A range that would run past `u64::MAX` stops there.
#[derive(Clone, Debug, Default)]
pub struct HostShadow {
    tainted: RangeSet,
    marks: u64,
    clears: u64,
}

impl HostShadow {
    /// Creates an empty shadow map.
    pub fn new() -> HostShadow {
        HostShadow::default()
    }

    /// Number of currently tainted bytes.
    pub fn tainted_bytes(&self) -> u64 {
        self.marks - self.clears
    }

    /// Cumulative clean→tainted transitions (bitmap touch count; feeds the
    /// metrics registry). Idempotent re-marks do not count.
    pub fn marks(&self) -> u64 {
        self.marks
    }

    /// Cumulative tainted→clean transitions. Idempotent re-clears do not
    /// count.
    pub fn clears(&self) -> u64 {
        self.clears
    }

    /// Returns `true` if the byte at `addr` is tainted.
    pub fn is_tainted(&self, addr: u64) -> bool {
        self.tainted.contains(addr)
    }

    /// Returns `true` if any of the `len` bytes starting at `addr` are
    /// tainted.
    pub fn any_tainted(&self, addr: u64, len: u64) -> bool {
        self.tainted.covered(addr, addr.saturating_add(len)) > 0
    }

    /// Returns `true` if **all** of the `len` bytes starting at `addr` are
    /// tainted (`len == 0` returns `true`).
    pub fn all_tainted(&self, addr: u64, len: u64) -> bool {
        self.tainted.covered(addr, addr.saturating_add(len)) == len
    }

    /// Marks or clears taint for `len` bytes starting at `addr`.
    pub fn set_range(&mut self, addr: u64, len: u64, tainted: bool) {
        let end = addr.saturating_add(len);
        if tainted {
            self.marks += self.tainted.insert(addr, end);
        } else {
            self.clears += self.tainted.remove(addr, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_isa::make_vaddr;

    #[test]
    fn byte_granularity_maps_adjacent_bytes_to_adjacent_bits() {
        let base = make_vaddr(1, 0x1000);
        let a = tag_location(base, Granularity::Byte).unwrap();
        let b = tag_location(base + 1, Granularity::Byte).unwrap();
        assert_eq!(a.byte_addr, b.byte_addr);
        assert_eq!(a.bit() + 1, b.bit());
        let ninth = tag_location(base + 8, Granularity::Byte).unwrap();
        assert_eq!(ninth.byte_addr, a.byte_addr + 1);
        assert_eq!(ninth.bit(), 0);
    }

    #[test]
    fn word_granularity_shares_the_whole_tag_byte() {
        let base = make_vaddr(2, 0x40);
        let loc0 = tag_location(base, Granularity::Word).unwrap();
        assert_eq!(loc0.mask, 0xff);
        for i in 0..8 {
            let loc = tag_location(base + i, Granularity::Word).unwrap();
            assert_eq!(loc, loc0, "byte {i} of a word shares its tag byte");
        }
        let next = tag_location(base + 8, Granularity::Word).unwrap();
        assert_eq!(next.byte_addr, loc0.byte_addr + 1, "next word, next tag byte");
    }

    #[test]
    fn regions_do_not_collide() {
        // The same offset in different regions must land on different tag
        // bytes (the Figure-4 fold keeps regions apart).
        let off = 0x1234_5678;
        let mut addrs = Vec::new();
        for region in 1..8u8 {
            let loc = tag_location(make_vaddr(region, off), Granularity::Byte).unwrap();
            addrs.push(loc.byte_addr);
        }
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 7);
    }

    #[test]
    fn tag_space_lands_in_region_zero_and_is_implemented() {
        // Even the highest address of the highest region must map to an
        // implemented region-0 address.
        let top = make_vaddr(7, shift_isa::IMPL_MASK);
        let loc = tag_location(top, Granularity::Byte).unwrap();
        assert_eq!(region_of(loc.byte_addr), 0);
        assert!(is_implemented(loc.byte_addr));
    }

    #[test]
    fn region_zero_and_unimplemented_are_rejected() {
        assert_eq!(tag_location(0x10, Granularity::Byte), Err(TagAddrError::RegionZero));
        let hole = (1u64 << 61) | (1 << 50);
        assert_eq!(tag_location(hole, Granularity::Byte), Err(TagAddrError::Unimplemented));
    }

    #[test]
    fn tag_range_edges_and_errors() {
        let base = make_vaddr(1, 0x1003);
        // Bytes 3..=12 of a tag-byte-aligned block: two tag bytes.
        let r = tag_range(base, 10, Granularity::Byte).unwrap();
        assert_eq!(r.byte_addr, tag_location(base, Granularity::Byte).unwrap().byte_addr);
        assert_eq!((r.len, r.lo_mask, r.hi_mask), (2, 0xf8, 0x1f));
        // Within one tag byte both edges apply.
        let one = tag_range(base, 2, Granularity::Byte).unwrap();
        assert_eq!((one.len, one.mask(0)), (1, 0x18));
        let w = tag_range(base, 10, Granularity::Word).unwrap();
        assert_eq!((w.len, w.mask(0), w.mask(1)), (2, 0xff, 0xff));
        assert_eq!(tag_range(0x1000, 0, Granularity::Byte).map(|r| r.len), Ok(0));
        assert_eq!(tag_range(0x1000, 4, Granularity::Byte), Err(TagAddrError::RegionZero));
        let region_end = make_vaddr(1, shift_isa::IMPL_MASK);
        assert_eq!(tag_range(region_end, 1, Granularity::Byte).map(|r| r.len), Ok(1));
        assert_eq!(tag_range(region_end, 2, Granularity::Byte), Err(TagAddrError::Unimplemented));
        assert_eq!(tag_range(u64::MAX, 2, Granularity::Word), Err(TagAddrError::Unimplemented));
    }

    #[test]
    fn tag_range_counts_touched_tag_bytes() {
        let base = make_vaddr(1, 0);
        for (len, byte, word) in [(0, 0, 0), (1, 1, 1), (8, 1, 1), (9, 2, 2)] {
            assert_eq!(tag_range(base, len, Granularity::Byte).unwrap().len, byte);
            assert_eq!(tag_range(base, len, Granularity::Word).unwrap().len, word);
        }
    }

    #[test]
    fn shadow_set_and_query() {
        let mut s = HostShadow::new();
        assert!(!s.is_tainted(100));
        s.set_range(100, 10, true);
        assert!(s.all_tainted(100, 10));
        assert!(!s.is_tainted(99));
        assert!(!s.is_tainted(110));
        assert_eq!(s.tainted_bytes(), 10);
        s.set_range(105, 1, false);
        assert!(!s.is_tainted(105));
        assert!(s.any_tainted(100, 10));
        assert!(!s.all_tainted(100, 10));
        assert_eq!(s.tainted_bytes(), 9);
    }

    #[test]
    fn shadow_idempotent_set() {
        let mut s = HostShadow::new();
        s.set_range(42, 1, true);
        s.set_range(42, 1, true);
        assert_eq!(s.tainted_bytes(), 1);
        s.set_range(42, 1, false);
        s.set_range(42, 1, false);
        assert_eq!(s.tainted_bytes(), 0);
    }

    #[test]
    fn shadow_clear() {
        // Clearing a tainted run that spans three 4 KiB pages leaves nothing
        // tainted and holds no ranges.
        let mut s = HostShadow::new();
        let len = 2 * 4096 + 100;
        s.set_range(4096 - 50, len, true);
        s.set_range(4096 - 50, len, false);
        assert_eq!(s.tainted_bytes(), 0);
        assert!(!s.any_tainted(0, 4 * 4096));
        assert!(s.tainted.is_empty());
    }

    #[test]
    fn shadow_all_clean_holds_no_ranges() {
        let mut s = HostShadow::new();
        s.set_range(0x1000, 64, true);
        assert_eq!(s.tainted.len(), 1);
        s.set_range(0x1000, 64, false);
        assert!(s.tainted.is_empty());
        assert!(!s.any_tainted(0x1000, 64));
        // Same for a single byte; clearing clean bytes stores nothing.
        s.set_range(0x2000, 1, true);
        s.set_range(0x2000, 1, false);
        s.set_range(0x3000, 64, false);
        assert!(s.tainted.is_empty());
        assert_eq!((s.marks(), s.clears()), (65, 65));
    }

    #[test]
    fn remarked_buffer_stays_one_range() {
        // A served request re-marks its 4 KiB file buffer chunk by chunk,
        // over and again: the shadow keeps one range and counts each byte
        // once.
        let mut s = HostShadow::new();
        let buf = 0x6000_0000_0001_0000u64;
        for _ in 0..3 {
            for chunk in (0..4096).step_by(512) {
                s.set_range(buf + chunk, 512, true);
                assert_eq!(s.tainted.len(), 1);
            }
        }
        assert_eq!(s.tainted.iter().collect::<Vec<_>>(), [(buf, buf + 4096)]);
        assert_eq!((s.tainted_bytes(), s.marks(), s.clears()), (4096, 4096, 0));
        assert!(s.all_tainted(buf, 4096) && !s.any_tainted(buf + 4096, 1));
    }

    #[test]
    fn shadow_clones_are_independent() {
        let mut s = HostShadow::new();
        s.set_range(0, 32, true);
        let mut c = s.clone();
        // Writing through the clone never leaks into the original…
        c.set_range(0, 16, false);
        assert_eq!(c.tainted_bytes(), 16);
        assert_eq!(s.tainted_bytes(), 32, "original must keep its taint");
        assert!(s.all_tainted(0, 32));
        // …and vice versa.
        s.set_range(100, 1, true);
        assert!(!c.is_tainted(100));
    }

    #[test]
    fn shadow_touch_counters_track_transitions_only() {
        let mut s = HostShadow::new();
        s.set_range(0, 10, true);
        s.set_range(0, 10, true); // idempotent: no new marks
        assert_eq!(s.marks(), 10);
        assert_eq!(s.clears(), 0);
        s.set_range(0, 4, false);
        s.set_range(0, 4, false); // idempotent: no new clears
        assert_eq!(s.clears(), 4);
        s.set_range(0, 10, false); // only the remaining 6 count as clears
        assert_eq!(s.clears(), 10);
        assert_eq!(s.marks(), 10, "marks are cumulative across clears");
    }
}
