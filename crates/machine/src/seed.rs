//! Load-once, spawn-many machine images.
//!
//! [`MachineSeed`] performs the expensive parts of [`Machine::new`] exactly
//! once — decoding the code into superblocks and materializing the
//! initialized memory image — and then stamps out fresh instances with
//! [`MachineSeed::spawn`]. The code and its superblock decode are shared
//! between every spawned instance through `Arc`, and the pristine memory
//! image is [`Memory::freeze`]-prepared so the whole page table is shared
//! the same way: spawning is a handful of reference-count bumps, O(1) in
//! the image size, and an instance pays for private pages only as it
//! copy-on-write faults them in (see DESIGN.md §15). The cost and cache
//! models are constants of the one modelled processor, so a seed carries
//! no per-instruction cost table.
//!
//! A spawned machine is bit-identical to one built by [`Machine::new`] from
//! the same [`Image`]: same `state_digest`, same cold caches, same zeroed
//! stats. `Machine::new` is itself implemented on top of this type.

use std::sync::Arc;

use shift_isa::Insn;

use crate::block::BlockProgram;
use crate::cpu::Cpu;
use crate::exec::Machine;
use crate::image::Image;
use crate::mem::Memory;

/// A pristine machine image prepared for repeated spawning.
///
/// Cloning a seed is O(1) in the image size: the code and its superblock
/// decode are shared through `Arc`, and the frozen pristine page table is shared
/// copy-on-write — no page bytes move until an instance writes.
///
/// ```
/// use shift_isa::{Gpr, Insn, Op};
/// use shift_machine::{Image, Machine, MachineSeed, NullOs};
///
/// let image = Image::builder()
///     .code(vec![Insn::new(Op::MovI { dst: Gpr::R8, imm: 1 }), Insn::new(Op::Halt)])
///     .build();
/// let seed = MachineSeed::new(&image);
/// let a = seed.spawn();
/// let b = seed.spawn();
/// // Every spawn is bit-identical to a fresh `Machine::new`.
/// assert_eq!(a.state_digest(), b.state_digest());
/// assert_eq!(a.state_digest(), Machine::new(&image).state_digest());
/// ```
#[derive(Clone, Debug)]
pub struct MachineSeed {
    code: Arc<[Insn]>,
    /// Code pre-decoded into superblocks (see `crate::block`): built once
    /// here, shared by every spawn like `code` — decode cost never lands on
    /// the execution path.
    blocks: Arc<BlockProgram>,
    mem: Memory,
    entry: usize,
    stack_top: u64,
}

impl MachineSeed {
    /// Loads an image once: maps its segments, copies initialized data, and
    /// maps the stack.
    ///
    /// # Panics
    ///
    /// Panics if an initialized data segment fails to load (a malformed
    /// image is a programming error, not a guest-visible fault).
    pub fn new(image: &Image) -> MachineSeed {
        let mut mem = Memory::new();
        for &(vaddr, len) in &image.maps {
            mem.map_range(vaddr, len);
        }
        for (vaddr, bytes) in &image.data {
            mem.map_range(*vaddr, bytes.len() as u64);
            mem.write_bytes(*vaddr, bytes).expect("image data segment failed to load");
        }
        mem.map_range(image.stack_top - image.stack_size, image.stack_size);
        // Seal the loaded image behind shared immutable pages: spawns then
        // share the table by Arc bump and COW-fault private copies on write.
        mem.freeze();
        MachineSeed {
            code: image.code.clone().into(),
            blocks: Arc::new(BlockProgram::build(&image.code)),
            mem,
            entry: image.entry,
            stack_top: image.stack_top,
        }
    }

    /// Spawns a fresh instance from the pristine image: new CPU at the entry
    /// point, cold caches, zeroed stats, shared code.
    pub fn spawn(&self) -> Machine {
        self.clone().into_machine()
    }

    /// Spawns a fresh instance with a fault-injection schedule pre-armed:
    /// each `(countdown, injection)` pair fires after that many further
    /// retired instructions, exactly as [`Machine::inject_after`] would.
    /// This is the chaos-harness spawn path: the schedule is part of the
    /// instance's deterministic identity, so a recorded schedule replays to
    /// the same perturbation at the same retired-instruction count.
    pub fn spawn_injected(&self, injections: &[(u64, crate::Injection)]) -> Machine {
        let mut machine = self.spawn();
        for (insns, inj) in injections {
            machine.inject_after(*insns, inj.clone());
        }
        machine
    }

    /// Consumes the seed, avoiding the memory clone [`spawn`](Self::spawn)
    /// pays. This is the one-shot [`Machine::new`] path.
    pub fn into_machine(self) -> Machine {
        let mut cpu = Cpu::new(self.entry);
        cpu.set_gpr_val(shift_isa::Gpr::SP, self.stack_top);
        Machine::from_seed_parts(cpu, self.mem, self.code, self.blocks)
    }

    /// Pages of the pristine image that are actually resident (frame
    /// headers — shared with every spawn, not copied per spawn).
    pub fn resident_pages(&self) -> usize {
        self.mem.resident_pages()
    }

    /// Pages a spawn would privately own up front. Always 0 after the
    /// constructor's [`Memory::freeze`]: the pristine image is entirely
    /// shared, and instances only pay for pages they dirty.
    pub fn owned_pages(&self) -> usize {
        self.mem.owned_pages()
    }

    /// Resident pristine pages backed by shared (`Arc`'d) immutable data —
    /// what every spawn references for free.
    pub fn shared_pages(&self) -> usize {
        self.mem.shared_pages()
    }

    /// Static code size in instructions.
    pub fn insn_count(&self) -> usize {
        self.code.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::NullOs;
    use shift_isa::{Gpr, Op};

    fn demo_image() -> Image {
        Image::builder()
            .code(vec![Insn::new(Op::MovI { dst: Gpr::R8, imm: 7 }), Insn::new(Op::Halt)])
            .data(0x1000, vec![1, 2, 3, 4])
            .build()
    }

    #[test]
    fn spawn_matches_machine_new() {
        let image = demo_image();
        let seed = MachineSeed::new(&image);
        let fresh = Machine::new(&image);
        let spawned = seed.spawn();
        assert_eq!(fresh.state_digest(), spawned.state_digest());
        assert_eq!(fresh.code().len(), spawned.code().len());
    }

    #[test]
    fn spawned_instances_are_independent() {
        let image = demo_image();
        let seed = MachineSeed::new(&image);
        let pristine = seed.spawn().state_digest();
        let mut a = seed.spawn();
        a.mem.write_int(0x1000, 8, 0xdead_beef).unwrap();
        let _ = a.run(&mut NullOs, 100);
        // Dirtying one instance never leaks into the seed or its siblings.
        assert_eq!(seed.spawn().state_digest(), pristine);
        assert_ne!(a.state_digest(), pristine);
    }

    #[test]
    fn resident_pages_counts_only_touched_pages() {
        let seed = MachineSeed::new(&demo_image());
        // Only the 4-byte data segment is resident; the stack is mapped but
        // untouched.
        assert_eq!(seed.resident_pages(), 1);
        // Under sharing, residency is all shared frames and zero private
        // ones: a spawn copies no page bytes at all.
        assert_eq!(seed.shared_pages(), 1);
        assert_eq!(seed.owned_pages(), 0);
    }

    #[test]
    fn spawns_share_pages_until_dirtied() {
        let image = demo_image();
        let seed = MachineSeed::new(&image);
        let mut a = seed.spawn();
        let b = seed.spawn();
        let (owned, shared, faults) = a.mem.cow_stats();
        assert_eq!((owned, faults), (0, 0), "a fresh spawn owns nothing");
        assert_eq!(shared, seed.shared_pages());
        a.mem.write_int(0x1000, 8, 0x5eed).unwrap();
        assert_eq!(a.mem.cow_stats().0, 1, "first write owns exactly one page");
        assert_eq!(a.mem.cow_faults(), 1);
        assert_eq!(b.mem.cow_stats().0, 0, "sibling still owns nothing");
        assert_eq!(seed.owned_pages(), 0, "seed stays pristine");
    }
}
