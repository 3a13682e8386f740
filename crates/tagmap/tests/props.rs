//! Property tests for the tag-address translation and the host shadow map.

use proptest::prelude::*;

use shift_isa::{make_vaddr, region_of, IMPL_MASK};
use shift_tagmap::{tag_location, tag_range, Granularity, HostShadow};

fn data_addr() -> impl Strategy<Value = u64> {
    // Any implemented address in regions 1–7.
    (1u8..8, 0u64..=IMPL_MASK).prop_map(|(r, off)| make_vaddr(r, off))
}

/// Naive per-byte shadow model: a dense bit vector plus the transition
/// counts a per-byte loop would make.
#[derive(Default)]
struct NaiveShadow {
    bits: std::collections::HashMap<u64, bool>,
    tainted: u64,
    marks: u64,
    clears: u64,
}

impl NaiveShadow {
    fn get(&self, addr: u64) -> bool {
        *self.bits.get(&addr).unwrap_or(&false)
    }

    fn set(&mut self, addr: u64, tainted: bool) {
        let old = self.get(addr);
        if tainted && !old {
            self.tainted += 1;
            self.marks += 1;
        } else if !tainted && old {
            self.tainted -= 1;
            self.clears += 1;
        }
        self.bits.insert(addr, tainted);
    }

    fn set_range(&mut self, addr: u64, len: u64, tainted: bool) {
        for i in 0..len {
            self.set(addr.wrapping_add(i), tainted);
        }
    }

    fn any(&self, addr: u64, len: u64) -> bool {
        (0..len).any(|i| self.get(addr.wrapping_add(i)))
    }

    fn all(&self, addr: u64, len: u64) -> bool {
        (0..len).all(|i| self.get(addr.wrapping_add(i)))
    }
}

proptest! {
    /// Distinct bytes never share a tag bit at byte granularity.
    #[test]
    fn byte_tags_are_injective(a in data_addr(), b in data_addr()) {
        prop_assume!(a != b);
        let la = tag_location(a, Granularity::Byte).unwrap();
        let lb = tag_location(b, Granularity::Byte).unwrap();
        prop_assert!(
            la.byte_addr != lb.byte_addr || la.mask != lb.mask,
            "{a:#x} and {b:#x} collide at ({:#x}, {:#x})",
            la.byte_addr,
            la.mask
        );
    }

    /// The tag space always lands in region 0 and stays implemented, for
    /// both granularities.
    #[test]
    fn tags_live_in_region_zero(addr in data_addr()) {
        for gran in Granularity::ALL {
            let loc = tag_location(addr, gran).unwrap();
            prop_assert_eq!(region_of(loc.byte_addr), 0);
            prop_assert!(shift_isa::is_implemented(loc.byte_addr));
        }
    }

    /// Two addresses in the same 8-byte word share one word-level tag byte;
    /// addresses in different words never do.
    #[test]
    fn word_tags_partition_by_word(a in data_addr(), delta in 0u64..64) {
        let b_off = (shift_isa::offset_of(a) + delta).min(IMPL_MASK);
        let b = make_vaddr(region_of(a), b_off);
        let la = tag_location(a, Granularity::Word).unwrap();
        let lb = tag_location(b, Granularity::Word).unwrap();
        let same_word = shift_isa::offset_of(a) / 8 == b_off / 8;
        prop_assert_eq!(la.byte_addr == lb.byte_addr, same_word);
    }

    /// `tag_range` agrees with the per-byte translation: its span covers
    /// exactly the tag bytes the data bytes' tags land in, each tag byte's
    /// mask is the union of their bits, and applying a mark or clear and
    /// reading it back sees exactly the run changed.
    #[test]
    fn tag_range_matches_pointwise_translation(
        addr in data_addr(),
        len in 0u64..200,
        fill in any::<u8>(),
    ) {
        prop_assume!(shift_isa::offset_of(addr) + len <= IMPL_MASK);
        for gran in Granularity::ALL {
            let r = tag_range(addr, len, gran).unwrap();
            if len > 0 {
                let first = tag_location(addr, gran).unwrap().byte_addr;
                let last = tag_location(addr + len - 1, gran).unwrap().byte_addr;
                prop_assert_eq!((r.byte_addr, r.len), (first, last - first + 1));
            }
            let mut expect_masks = vec![0u8; r.len as usize];
            for i in 0..len {
                let loc = tag_location(addr + i, gran).unwrap();
                expect_masks[(loc.byte_addr - r.byte_addr) as usize] |= loc.mask;
            }
            for (j, &m) in expect_masks.iter().enumerate() {
                prop_assert_eq!(r.mask(j as u64), m, "tag byte {}", j);
            }
            for tainted in [true, false] {
                let mut tags = vec![fill; r.len as usize];
                r.apply(&mut tags, tainted);
                for (j, (&t, &m)) in tags.iter().zip(&expect_masks).enumerate() {
                    let want = if tainted { fill | m } else { fill & !m };
                    prop_assert_eq!(t, want, "tag byte {}", j);
                }
                for i in 0..len {
                    prop_assert_eq!(r.is_tainted(&tags, i), tainted);
                }
            }
        }
    }

    /// The shadow map's taint count is exactly the number of set bytes,
    /// under any interleaving of set/clear ranges.
    #[test]
    fn shadow_count_is_consistent(
        ops in prop::collection::vec((0u64..2048, 1u64..64, any::<bool>()), 1..32)
    ) {
        let mut shadow = HostShadow::new();
        let mut model = vec![false; 4096];
        for (addr, len, tainted) in ops {
            shadow.set_range(addr, len.min(4096 - addr), tainted);
            for i in addr..addr + len.min(4096 - addr) {
                model[i as usize] = tainted;
            }
        }
        let expect = model.iter().filter(|&&t| t).count() as u64;
        prop_assert_eq!(shadow.tainted_bytes(), expect);
        for (i, &t) in model.iter().enumerate() {
            prop_assert_eq!(shadow.is_tainted(i as u64), t);
        }
    }

    /// Full differential test of the word-level fast paths against a naive
    /// per-byte model, including the transition counters. Operations span
    /// page boundaries (the window covers three 4 KiB shadow pages).
    #[test]
    fn shadow_matches_naive_reference(
        ops in prop::collection::vec((0u8..3, 0u64..3 * 4096 - 512, 0u64..512), 1..48)
    ) {
        let mut shadow = HostShadow::new();
        let mut naive = NaiveShadow::default();
        for (kind, a, len) in ops {
            match kind {
                0 => {
                    shadow.set_range(a, len, true);
                    naive.set_range(a, len, true);
                }
                1 => {
                    shadow.set_range(a, len, false);
                    naive.set_range(a, len, false);
                }
                _ => {
                    prop_assert_eq!(shadow.any_tainted(a, len), naive.any(a, len));
                    prop_assert_eq!(shadow.all_tainted(a, len), naive.all(a, len));
                }
            }
            prop_assert_eq!(shadow.tainted_bytes(), naive.tainted, "tainted_bytes drifted");
            prop_assert_eq!(shadow.marks(), naive.marks, "marks drifted");
            prop_assert_eq!(shadow.clears(), naive.clears, "clears drifted");
        }
        for addr in 0..3 * 4096u64 {
            prop_assert_eq!(shadow.is_tainted(addr), naive.get(addr), "byte {:#x}", addr);
        }
    }

}
