//! Differential property tests for the optimized [`Memory`].
//!
//! The production `Memory` carries a software TLB, a page-frame arena,
//! copy-on-write page sharing, page-table checkpoints, and page-span bulk
//! paths — none of which may be observable. This harness replays random operation sequences (map,
//! aligned and bulk reads/writes, C-string reads, spill-NaT traffic,
//! checkpoint/rollback/discard) against a deliberately naive byte-map
//! reference model and demands identical results: same values, same errors
//! (including partial-fill contents on faulting bulk ops), same mapping and
//! spill-NaT observations, byte-for-byte identical memory afterwards.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use shift_isa::{is_implemented, make_vaddr, region_of};
use shift_machine::{Checkpoint, MemError, Memory, PAGE_SIZE};

/// Naive reference: one hash-map entry per byte, full-state checkpoints.
/// Slow and obviously correct — the semantics the optimized paths must
/// reproduce exactly.
/// A full-state checkpoint of [`NaiveMem`]: bytes, mapped pages, live
/// spill slots.
type NaiveSnapshot = (HashMap<u64, u8>, HashSet<u64>, HashSet<u64>);

#[derive(Clone, Default)]
struct NaiveMem {
    bytes: HashMap<u64, u8>,
    mapped: HashSet<u64>,
    spill: HashSet<u64>,
    saved: Option<Box<NaiveSnapshot>>,
}

impl NaiveMem {
    fn check(&self, addr: u64, size: u64, aligned: bool) -> Result<(), MemError> {
        if !is_implemented(addr) {
            return Err(MemError::Unimplemented { addr });
        }
        if aligned && !addr.is_multiple_of(size) {
            return Err(MemError::Unaligned { addr, size });
        }
        if !(self.mapped.contains(&(addr / PAGE_SIZE)) || region_of(addr) == 0) {
            return Err(MemError::Unmapped { addr });
        }
        Ok(())
    }

    fn map_range(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        for page in addr / PAGE_SIZE..=(addr + len - 1) / PAGE_SIZE {
            self.mapped.insert(page);
        }
    }

    fn read_int(&mut self, addr: u64, size: u64) -> Result<u64, MemError> {
        self.check(addr, size, true)?;
        let mut v = 0u64;
        for i in (0..size).rev() {
            v = (v << 8) | u64::from(*self.bytes.get(&(addr + i)).unwrap_or(&0));
        }
        Ok(v)
    }

    fn write_int(&mut self, addr: u64, size: u64, value: u64) -> Result<(), MemError> {
        self.check(addr, size, true)?;
        for i in 0..size {
            self.bytes.insert(addr + i, (value >> (8 * i)) as u8);
        }
        self.spill.remove(&(addr & !7));
        Ok(())
    }

    fn read_bytes(&mut self, addr: u64, out: &mut [u8]) -> Result<(), MemError> {
        for (i, slot) in out.iter_mut().enumerate() {
            let a = addr.wrapping_add(i as u64);
            self.check(a, 1, false)?;
            *slot = *self.bytes.get(&a).unwrap_or(&0);
        }
        Ok(())
    }

    fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        for (i, &b) in data.iter().enumerate() {
            let a = addr.wrapping_add(i as u64);
            self.check(a, 1, false)?;
            self.bytes.insert(a, b);
            self.spill.remove(&(a & !7));
        }
        Ok(())
    }

    fn read_cstr(&mut self, addr: u64, max: usize) -> Result<Vec<u8>, MemError> {
        let mut out = Vec::new();
        for i in 0..max as u64 {
            let mut b = [0u8];
            self.read_bytes(addr.wrapping_add(i), &mut b)?;
            if b[0] == 0 {
                break;
            }
            out.push(b[0]);
        }
        Ok(out)
    }

    fn set_spill_nat(&mut self, addr: u64, nat: bool) {
        if nat {
            self.spill.insert(addr & !7);
        } else {
            self.spill.remove(&(addr & !7));
        }
    }

    fn spill_nat(&self, addr: u64) -> bool {
        self.spill.contains(&(addr & !7))
    }

    fn checkpoint(&mut self) {
        self.saved = Some(Box::new((self.bytes.clone(), self.mapped.clone(), self.spill.clone())));
    }

    fn rollback(&mut self) -> bool {
        match &self.saved {
            Some(s) => {
                let (bytes, mapped, spill) = (**s).clone();
                self.bytes = bytes;
                self.mapped = mapped;
                self.spill = spill;
                true
            }
            None => false,
        }
    }

    fn discard(&mut self) {
        self.saved = None;
    }
}

/// One generated fleet operation: either spawn a new instance by cloning an
/// existing one (COW: an `Arc` bump; reference: a deep clone) or apply a
/// memory [`Op`] to one instance. Indices are taken modulo the live fleet.
#[derive(Clone, Debug)]
enum FleetOp {
    Spawn { from: usize },
    Mem { inst: usize, op: Op },
}

/// One generated operation. Offsets are relative to a small window so
/// sequences revisit pages (exercising TLB hits), cross page boundaries
/// (exercising span splitting), and run off the mapped range (exercising
/// fault ordering and partial writes).
#[derive(Clone, Debug)]
enum Op {
    Map { off: u64, len: u64 },
    ReadInt { off: u64, size: u64 },
    WriteInt { off: u64, size: u64, val: u64 },
    ReadBytes { off: u64, len: usize },
    WriteBytes { off: u64, len: usize, seed: u8 },
    ReadCstr { off: u64, max: usize },
    SpillNat { off: u64, nat: bool },
    Begin,
    Rollback,
    Discard,
}

/// Test window: four pages in region 1 plus the lazily-backed region-0 tag
/// space. Only part of the window gets mapped, so unmapped faults occur.
const WINDOW: u64 = 4 * PAGE_SIZE;

fn op_strategy() -> impl Strategy<Value = Op> {
    let off = 0u64..WINDOW;
    prop_oneof![
        (0u64..WINDOW, 1u64..2 * PAGE_SIZE).prop_map(|(off, len)| Op::Map { off, len }),
        (off.clone(), 0u32..4).prop_map(|(off, s)| Op::ReadInt { off, size: 1u64 << s }),
        (off.clone(), 0u32..4, any::<u64>()).prop_map(|(off, s, val)| Op::WriteInt {
            off,
            size: 1u64 << s,
            val
        }),
        (off.clone(), 0usize..6000).prop_map(|(off, len)| Op::ReadBytes { off, len }),
        (off.clone(), 0usize..6000, any::<u8>()).prop_map(|(off, len, seed)| Op::WriteBytes {
            off,
            len,
            seed
        }),
        (off.clone(), 0usize..600).prop_map(|(off, max)| Op::ReadCstr { off, max }),
        (off, any::<bool>()).prop_map(|(off, nat)| Op::SpillNat { off, nat }),
        Just(Op::Begin),
        Just(Op::Rollback),
        Just(Op::Discard),
    ]
}

fn fleet_op_strategy() -> impl Strategy<Value = FleetOp> {
    // Spawns are one draw in ten so sequences mostly mutate (the vendored
    // proptest shim's `prop_oneof!` has no weight syntax).
    (0u8..10, 0usize..4, op_strategy()).prop_map(|(sel, inst, op)| {
        if sel == 0 {
            FleetOp::Spawn { from: inst }
        } else {
            FleetOp::Mem { inst, op }
        }
    })
}

/// What an instance *observes* of the test window: mapped bits, per-page
/// readback, spill-NaT bits. Two instances with equal observations must
/// digest identically (and vice versa) no matter how their pages are shared.
fn naive_observation(naive: &mut NaiveMem, base: u64) -> (Vec<bool>, Vec<Vec<u8>>, Vec<bool>) {
    let mut mapped = Vec::new();
    let mut contents = Vec::new();
    for page in 0..WINDOW / PAGE_SIZE {
        let addr = base + page * PAGE_SIZE;
        mapped.push(naive.check(addr, 1, false).is_ok());
        let mut bytes = vec![0u8; PAGE_SIZE as usize];
        let _ = naive.read_bytes(addr, &mut bytes);
        contents.push(bytes);
    }
    let spill = (0..WINDOW).step_by(8).map(|slot| naive.spill_nat(base + slot)).collect();
    (mapped, contents, spill)
}

/// A [`Memory`] under test with the checkpoint the harness keeps beside
/// it, as the runtime keeps one per transaction.
#[derive(Clone)]
struct Inst {
    mem: Memory,
    ck: Option<Checkpoint>,
}

impl Inst {
    fn new(mem: Memory) -> Inst {
        Inst { mem, ck: None }
    }
}

/// Applies one op to both implementations; every result must agree.
fn apply(inst: &mut Inst, naive: &mut NaiveMem, base: u64, op: &Op) {
    let mem = &mut inst.mem;
    match *op {
        Op::Map { off, len } => {
            let len = len.min(WINDOW - off);
            if len > 0 {
                mem.map_range(base + off, len);
                naive.map_range(base + off, len);
            }
        }
        Op::ReadInt { off, size } => {
            assert_eq!(mem.read_int(base + off, size), naive.read_int(base + off, size));
        }
        Op::WriteInt { off, size, val } => {
            assert_eq!(
                mem.write_int(base + off, size, val),
                naive.write_int(base + off, size, val)
            );
        }
        Op::ReadBytes { off, len } => {
            let mut a = vec![0u8; len];
            let mut b = vec![0u8; len];
            assert_eq!(mem.read_bytes(base + off, &mut a), naive.read_bytes(base + off, &mut b));
            assert_eq!(a, b, "partial-fill contents must match");
        }
        Op::WriteBytes { off, len, seed } => {
            let data: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8)).collect();
            assert_eq!(mem.write_bytes(base + off, &data), naive.write_bytes(base + off, &data));
        }
        Op::ReadCstr { off, max } => {
            assert_eq!(mem.read_cstr(base + off, max), naive.read_cstr(base + off, max));
        }
        Op::SpillNat { off, nat } => {
            // Spill slots model `st8.spill`: only meaningful on writable
            // slots, but the API itself is unconditional — mirror both.
            mem.set_spill_nat(base + off, nat);
            naive.set_spill_nat(base + off, nat);
            assert_eq!(mem.spill_nat(base + off), naive.spill_nat(base + off));
        }
        Op::Begin => {
            inst.ck = Some(mem.checkpoint());
            naive.checkpoint();
        }
        Op::Rollback => {
            if let Some(ck) = &inst.ck {
                mem.rollback(ck);
            }
            assert_eq!(inst.ck.is_some(), naive.rollback());
        }
        Op::Discard => {
            inst.ck = None;
            naive.discard();
        }
    }
}

/// Full-window readback: every byte, mapping bit, and spill-NaT bit agrees.
fn assert_equivalent(mem: &mut Memory, naive: &mut NaiveMem, base: u64) {
    for page in 0..WINDOW / PAGE_SIZE {
        let addr = base + page * PAGE_SIZE;
        assert_eq!(mem.is_mapped(addr), naive.check(addr, 1, false).is_ok(), "page {page}");
        let mut a = vec![0u8; PAGE_SIZE as usize];
        let mut b = vec![0u8; PAGE_SIZE as usize];
        let ra = mem.read_bytes(addr, &mut a);
        let rb = naive.read_bytes(addr, &mut b);
        assert_eq!(ra, rb, "page {page} readback status");
        assert_eq!(a, b, "page {page} contents");
    }
    for slot in (0..WINDOW).step_by(8) {
        assert_eq!(mem.spill_nat(base + slot), naive.spill_nat(base + slot), "slot {slot:#x}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, max_shrink_iters: 0 })]

    /// Region-1 window: explicit mappings, so unmapped faults, partial bulk
    /// writes, and rollback-driven unmapping all occur.
    #[test]
    fn memory_matches_naive_reference(
        ops in prop::collection::vec(op_strategy(), 1..40),
        premap in 0u64..WINDOW,
    ) {
        let base = make_vaddr(1, 0x40000);
        let mut mem = Memory::new();
        let mut naive = NaiveMem::default();
        if premap > 0 {
            mem.map_range(base, premap);
            naive.map_range(base, premap);
        }
        let mut inst = Inst::new(mem);
        for op in &ops {
            apply(&mut inst, &mut naive, base, op);
        }
        assert_equivalent(&mut inst.mem, &mut naive, base);
    }

    /// Region-0 window: the lazily-backed tag space, where every implemented
    /// address is mappable without `map_range`.
    #[test]
    fn tag_space_matches_naive_reference(
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let base = make_vaddr(0, 0x8000);
        let mut inst = Inst::new(Memory::new());
        let mut naive = NaiveMem::default();
        for op in &ops {
            apply(&mut inst, &mut naive, base, op);
        }
        assert_equivalent(&mut inst.mem, &mut naive, base);
    }

    /// COW fleets vs deep clones: random interleavings of spawn / write /
    /// read / checkpoint / rollback across 2–4 instances sharing one frozen
    /// image. Each COW instance must stay byte-, error-, and observation-
    /// equivalent to its deep-cloned reference twin, and digest equality
    /// across instances must coincide exactly with observable equality —
    /// page sharing is never visible.
    #[test]
    fn cow_fleet_matches_deep_clone_reference(
        ops in prop::collection::vec(fleet_op_strategy(), 1..48),
        image in prop::collection::vec(any::<u8>(), 1..5000),
    ) {
        let base = make_vaddr(1, 0x40000);
        // Build the pristine seed once: map part of the window, load the
        // image bytes, freeze so spawns share every page by reference.
        let mut seed = Memory::new();
        let mut naive_seed = NaiveMem::default();
        seed.map_range(base, 2 * PAGE_SIZE);
        naive_seed.map_range(base, 2 * PAGE_SIZE);
        seed.write_bytes(base, &image).unwrap();
        naive_seed.write_bytes(base, &image).unwrap();
        seed.freeze();

        let mut fleet: Vec<(Inst, NaiveMem)> =
            (0..2).map(|_| (Inst::new(seed.clone()), naive_seed.clone())).collect();
        for op in &ops {
            match op {
                FleetOp::Spawn { from } => {
                    if fleet.len() < 4 {
                        let pair = fleet[from % fleet.len()].clone();
                        fleet.push(pair);
                    }
                }
                FleetOp::Mem { inst, op } => {
                    let idx = inst % fleet.len();
                    let (inst, naive) = &mut fleet[idx];
                    apply(inst, naive, base, op);
                }
            }
        }

        // Per instance: bytes, mapping, spill bits, and errors all agree
        // with the deep-clone twin.
        for (inst, naive) in &mut fleet {
            assert_equivalent(&mut inst.mem, naive, base);
        }
        // Across instances: digests discriminate exactly the states the
        // references distinguish. Sharing state never leaks into a digest,
        // and divergent instances never alias.
        let observations: Vec<_> =
            fleet.iter_mut().map(|(_, naive)| naive_observation(naive, base)).collect();
        let digests: Vec<u64> = fleet.iter().map(|(inst, _)| inst.mem.digest()).collect();
        for i in 0..fleet.len() {
            for j in i + 1..fleet.len() {
                prop_assert_eq!(
                    digests[i] == digests[j],
                    observations[i] == observations[j],
                    "instances {} and {}: digest equality must track observable equality",
                    i, j
                );
            }
        }
    }
}
