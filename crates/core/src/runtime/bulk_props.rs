//! Differential property test of the runtime's bulk taint paths: the taint
//! source (`write_guest`) and the policy-sink read (`read_tainted`) against a
//! per-byte reference that translates, reads and writes one tag byte at a
//! time. Both sides must leave the same guest bytes, the same bitmap, the
//! same memory digest (which covers the banked spill NaTs) and the same
//! copy-on-write counters — with and without an open checkpoint, and again
//! after rolling it back.

use proptest::prelude::*;
use shift_isa::{Insn, Op};
use shift_machine::{layout, Image, Machine, MemError};
use shift_tagmap::{tag_location, tag_range, Granularity};

use super::{Runtime, World};
use crate::config::TaintConfig;

const PAGE: u64 = 4096;
/// Mapped data window: 64 KiB at the start of the data region, whose
/// byte-granularity tags fill two tag pages.
const WINDOW: u64 = 0x10000;
/// Data offset where the window's tags cross from one tag page to the next
/// (one tag page covers 32 KiB of data).
const TAG_PAGE_EDGE: u64 = 0x8000;

/// The per-byte read-modify-write the bulk delivery replaces. Data and tag
/// bytes both go through single-byte `write_int` stores, so the reference
/// invalidates banked spill NaTs one store at a time, independently of the
/// bulk path's span-wide invalidation.
fn per_byte_write(
    m: &mut Machine,
    gran: Granularity,
    addr: u64,
    bytes: &[u8],
    tainted: bool,
) -> Result<(), MemError> {
    for (i, &b) in (0u64..).zip(bytes) {
        m.mem.write_int(addr + i, 1, u64::from(b))?;
    }
    for i in 0..bytes.len() as u64 {
        let loc = tag_location(addr + i, gran).expect("window lives in region 1");
        let byte = m.mem.read_int(loc.byte_addr, 1)?;
        let new = if tainted { byte | u64::from(loc.mask) } else { byte & !u64::from(loc.mask) };
        m.mem.write_int(loc.byte_addr, 1, new)?;
    }
    Ok(())
}

/// The per-byte taint read the bulk sink read replaces.
fn per_byte_read(
    m: &mut Machine,
    gran: Granularity,
    addr: u64,
    len: u64,
) -> Result<(Vec<u8>, Vec<bool>), MemError> {
    let mut bytes = vec![0u8; len as usize];
    m.mem.read_bytes(addr, &mut bytes)?;
    let mut taint = Vec::with_capacity(bytes.len());
    for i in 0..len {
        let loc = tag_location(addr + i, gran).expect("window lives in region 1");
        taint.push(m.mem.read_int(loc.byte_addr, 1)? & u64::from(loc.mask) != 0);
    }
    Ok((bytes, taint))
}

/// A machine with the data window mapped and its bitmap pre-dirtied with a
/// seeded pattern of all-clean, all-tainted and mixed 64-byte tag blocks (so
/// a delivery can leave its tag bytes unchanged), and with three spill slots
/// banked: one in the data window just below the tag-page edge, one in the
/// window's tag span at that edge, and one on the stack, outside both. The
/// first two sit where the proptest's deliveries land, so a bulk write must
/// drop exactly the banked slots it overlaps. `freeze` turns the dirtied
/// pages into shared ones, so the first write to each takes a COW fault.
fn dirty_machine(gran: Granularity, seed: u64, freeze: bool) -> Machine {
    let image =
        Image::builder().code(vec![Insn::new(Op::Halt)]).map(layout::DATA_BASE, WINDOW).build();
    let mut m = Machine::new(&image);
    let tags = tag_range(layout::DATA_BASE, WINDOW, gran).unwrap();
    let mut x = seed | 1;
    let mut block = 0u64;
    let pattern: Vec<u8> = (0..tags.len)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if i % 64 == 0 {
                block = x >> 62;
            }
            match block {
                0 | 1 => 0,
                2 => 0xff,
                _ => x as u8,
            }
        })
        .collect();
    m.mem.write_bytes(tags.byte_addr, &pattern).unwrap();
    let edge_tags = tag_location(layout::DATA_BASE + TAG_PAGE_EDGE, gran).unwrap().byte_addr;
    for slot in [layout::DATA_BASE + TAG_PAGE_EDGE - 8, edge_tags - 8, layout::stack_top() - 8] {
        let value = m.mem.read_int(slot, 8).unwrap();
        m.mem.write_int(slot, 8, value).unwrap();
        m.mem.set_spill_nat(slot, true);
    }
    if freeze {
        m.mem.freeze();
    }
    m
}

/// Everything the two sides must agree on after each step: guest bytes,
/// bitmap bytes, memory digest, COW counters and pages dirtied since the
/// runtime's checkpoint (0 without one).
type Observed = (Vec<u8>, Vec<u8>, u64, (usize, usize, u64), usize);

fn observe(m: &mut Machine, rt: &Runtime, gran: Granularity) -> Observed {
    let mut data = vec![0u8; WINDOW as usize];
    m.mem.read_bytes(layout::DATA_BASE, &mut data).unwrap();
    let tags = tag_range(layout::DATA_BASE, WINDOW, gran).unwrap();
    let mut bitmap = vec![0u8; tags.len as usize];
    m.mem.read_bytes(tags.byte_addr, &mut bitmap).unwrap();
    let dirty = rt.checkpoint.as_ref().map_or(0, |(snap, _)| m.mem.dirty_pages(snap.mem()));
    (data, bitmap, m.mem.digest(), m.mem.cow_stats(), dirty)
}

fn runtime(gran: Granularity) -> Runtime {
    Runtime::new(TaintConfig::default_secure(), World::new(), Some(gran))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn bulk_taint_paths_match_per_byte_reference(
        word in any::<bool>(),
        seed in any::<u64>(),
        freeze in any::<bool>(),
        checkpoint in any::<bool>(),
        ops in prop::collection::vec(
            (any::<bool>(), 0u64..3 * PAGE + 16, 0u64..=3 * PAGE, any::<bool>(), any::<bool>()),
            1..6,
        ),
    ) {
        let gran = if word { Granularity::Word } else { Granularity::Byte };
        let mut bulk = dirty_machine(gran, seed, freeze);
        let mut reference = bulk.clone();
        let (mut rb, mut rr) = (runtime(gran), runtime(gran));
        if checkpoint {
            rb.take_checkpoint(&mut bulk);
            rr.take_checkpoint(&mut reference);
        }
        for (k, &(write, back, len, short, tainted)) in ops.iter().enumerate() {
            // Half the runs are short, so some land wholly inside one clean
            // or tainted tag block and leave their tag bytes unchanged.
            let len = if short { len % 64 } else { len };
            // Starts straddle the tag-page edge, unaligned, so the data runs
            // cross data pages and their tag spans cross tag pages.
            let addr = layout::DATA_BASE + TAG_PAGE_EDGE - back;
            if write {
                let bytes: Vec<u8> = (0..len).map(|i| (i as u8) ^ (k as u8) ^ (seed as u8)).collect();
                let got = rb.write_guest(&mut bulk, addr, &bytes, tainted, "prop");
                let want = per_byte_write(&mut reference, gran, addr, &bytes, tainted);
                prop_assert_eq!(got, want);
            } else {
                let got = rb.read_tainted(&mut bulk, addr, len).map(|t| (t.bytes, t.taint));
                let want = per_byte_read(&mut reference, gran, addr, len);
                prop_assert_eq!(got, want);
            }
            prop_assert_eq!(
                observe(&mut bulk, &rb, gran),
                observe(&mut reference, &rr, gran),
                "after op {}",
                k
            );
        }
        prop_assert_eq!(rb.recover(&mut bulk), checkpoint);
        prop_assert_eq!(rr.recover(&mut reference), checkpoint);
        prop_assert_eq!(
            observe(&mut bulk, &rb, gran),
            observe(&mut reference, &rr, gran),
            "after recover"
        );
    }
}
