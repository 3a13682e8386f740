//! # shift-isa — an Itanium-inspired ISA with deferred-exception (NaT) support
//!
//! This crate defines the instruction set executed by `shift-machine` and
//! targeted by `shift-compiler`. It is a deliberately simplified model of
//! the Itanium (IA-64) architecture, keeping exactly the features the SHIFT
//! paper (ISCA 2008) relies on:
//!
//! * every general-purpose register carries a **NaT bit** ("Not a Thing"),
//!   the deferred-exception token that SHIFT reuses as a taint tag;
//! * **speculative loads** (`ld*.s`) that record exceptions in the NaT bit
//!   instead of faulting;
//! * **`chk.s`**, which branches to recovery code when a register's NaT bit
//!   is set;
//! * **`st8.spill` / `ld8.fill`**, the only memory instructions that preserve
//!   NaT bits (via the `UNAT` application register);
//! * NaT-*sensitive* instructions: ordinary compares clear both target
//!   predicates when an operand is NaT, and ordinary stores / address uses of
//!   NaT registers raise a NaT-consumption fault — the behaviours SHIFT must
//!   "relax" around (§4.1 of the paper);
//! * the paper's three proposed **architectural enhancements** (§6.3):
//!   [`Op::Tset`], [`Op::Tclr`] (set/clear a register's NaT bit directly) and
//!   NaT-aware compares ([`Op::Cmp`] with `nat_aware = true`).
//!
//! Like real IA-64, (almost) every instruction is predicated by a qualifying
//! predicate register; `p0` is hardwired to `true`.
//!
//! The crate is pure data + pretty-printing: no execution semantics live here
//! (see `shift-machine`) and no encoding to bits is performed — a program is
//! a `Vec<Insn>` indexed by instruction address, which is faithful enough for
//! a cycle-cost study and keeps the simulator honest about instruction
//! *counts* (Table 3 of the paper reports code expansion, which we measure in
//! instructions and in modelled bundle bytes).
//!
//! ## Example
//!
//! ```
//! use shift_isa::{Insn, Op, AluOp, Gpr, Pr};
//!
//! // r3 = r1 + r2, unconditionally (qualifying predicate p0)
//! let i = Insn::new(Op::Alu { op: AluOp::Add, dst: Gpr::R3, src1: Gpr::R1, src2: Gpr::R2 });
//! assert_eq!(i.qp, Pr::P0);
//! assert_eq!(format!("{i}"), "add r3 = r1, r2");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod disasm;
mod insn;
mod provenance;
mod reg;
pub mod sys;

pub use cost::{CostModel, CLOCK_HZ};
pub use disasm::disasm_listing;
pub use insn::{AluOp, CmpRel, ExtKind, Insn, MemSize, Op};
pub use provenance::Provenance;
pub use reg::{Br, Gpr, Pr};

/// Number of implemented virtual-address offset bits within a region.
///
/// IA-64 lets an implementation leave high offset bits *unimplemented*,
/// creating holes in the virtual address space (paper §4.1, Figure 4). We
/// model 40 implemented bits: a canonical address is
/// `[region:3][zero hole:21][offset:40]`.
pub const IMPL_BITS: u32 = 40;

/// Mask selecting the implemented offset bits of a virtual address.
pub const IMPL_MASK: u64 = (1u64 << IMPL_BITS) - 1;

/// Number of bits used to select the virtual-address region (top 3 bits).
pub const REGION_BITS: u32 = 3;

/// Returns the region number (0–7) of a virtual address.
#[inline]
pub fn region_of(vaddr: u64) -> u8 {
    (vaddr >> 61) as u8
}

/// Returns the implemented offset of a virtual address within its region.
#[inline]
pub fn offset_of(vaddr: u64) -> u64 {
    vaddr & IMPL_MASK
}

/// Returns `true` if `vaddr` touches no unimplemented bits.
///
/// Bits 40..61 must be zero; bits 61..64 select the region.
#[inline]
pub fn is_implemented(vaddr: u64) -> bool {
    vaddr & !(IMPL_MASK | (0b111 << 61)) == 0
}

/// Builds a canonical virtual address from a region and an offset.
///
/// # Panics
///
/// Panics if `offset` has bits above [`IMPL_BITS`] set.
#[inline]
pub fn make_vaddr(region: u8, offset: u64) -> u64 {
    assert!(region < 8, "region out of range");
    assert_eq!(offset & !IMPL_MASK, 0, "offset touches unimplemented bits");
    ((region as u64) << 61) | offset
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_and_offset_round_trip() {
        for region in 0..8u8 {
            for offset in [0u64, 1, 0xfff, IMPL_MASK] {
                let va = make_vaddr(region, offset);
                assert_eq!(region_of(va), region);
                assert_eq!(offset_of(va), offset);
                assert!(is_implemented(va));
            }
        }
    }

    #[test]
    fn unimplemented_bits_detected() {
        // Bit 45 lies in the hole between IMPL_BITS and the region field.
        let bad = (1u64 << 45) | 0x10;
        assert!(!is_implemented(bad));
        // A pure region-3 address is fine.
        assert!(is_implemented(3u64 << 61));
    }

    #[test]
    #[should_panic(expected = "offset touches unimplemented bits")]
    fn make_vaddr_rejects_hole_bits() {
        let _ = make_vaddr(1, 1u64 << 44);
    }
}
