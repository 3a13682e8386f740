//! The software-only taint-tracking pass — the ablation of SHIFT's central
//! idea.
//!
//! SHIFT's contribution is reusing NaT propagation so that *register* taint
//! costs nothing. This module implements what a software DIFT system must do
//! without that hardware: keep a register-taint **bitmask** in a reserved
//! register (`r31`, one bit per architectural register, LIFT-style) and emit
//! explicit propagation code around *every* register-writing instruction:
//!
//! * ALU ops: `taint(dst) = taint(src1) | taint(src2)` — extract two bits,
//!   OR them, clear the destination's bit, set it conditionally (~8
//!   instructions per original ALU instruction);
//! * loads/stores: the same bitmap traffic as SHIFT **plus** explicit
//!   software checks of the address register's taint bit (the hardware
//!   NaT-consumption faults that give SHIFT policies L1/L2 for free must be
//!   re-created as compare-and-branch sequences to an alert stub);
//! * compares: nothing — taint is not in the NaT bit, so there is nothing
//!   to relax. This is software tracking's one structural advantage, and it
//!   is nowhere near enough.
//!
//! The `ablation_nat_vs_shadow` bench runs the SPEC suite in this mode; the
//! measured slowdown lands in the range the paper quotes for software-based
//! systems ("from 4.6X to 37X", §1) and dwarfs SHIFT's, which is the
//! paper's argument in one number.

use shift_isa::{sys, AluOp, Gpr, MemSize, Op, Provenance};
use shift_tagmap::Granularity;

use crate::instrument::{cmpi_ne, isa, ld1, st1, tag_addr, PF, PT, T0, T1, T2};
use crate::vcode::{CInsn, COp, Label};

/// The register-taint bitmask: bit *i* = register *i* is tainted.
pub const TAINT_MASK: Gpr = Gpr::R31;

/// Emits `T0 = taint bit of r` (0 or 1).
fn extract_bit(out: &mut Vec<CInsn<Gpr>>, r: Gpr, dst: Gpr, prov: Provenance) {
    out.push(isa(Op::AluI { op: AluOp::Shr, dst, src1: TAINT_MASK, imm: r.index() as i64 }, prov));
    out.push(isa(Op::AluI { op: AluOp::And, dst, src1: dst, imm: 1 }, prov));
}

/// Emits `taint(dst_reg) = (T0 != 0)`, assuming `T0` holds 0/1.
fn install_bit(out: &mut Vec<CInsn<Gpr>>, dst_reg: Gpr, prov: Provenance) {
    // Clear the bit, then OR in the (possibly zero) shifted value.
    out.push(isa(Op::MovI { dst: T1, imm: !(1i64 << dst_reg.index()) }, prov));
    out.push(isa(Op::Alu { op: AluOp::And, dst: TAINT_MASK, src1: TAINT_MASK, src2: T1 }, prov));
    out.push(isa(
        Op::AluI { op: AluOp::Shl, dst: T0, src1: T0, imm: dst_reg.index() as i64 },
        prov,
    ));
    out.push(isa(Op::Alu { op: AluOp::Or, dst: TAINT_MASK, src1: TAINT_MASK, src2: T0 }, prov));
}

/// Emits `taint(dst_reg) = 0`.
fn clear_bit(out: &mut Vec<CInsn<Gpr>>, dst_reg: Gpr, prov: Provenance) {
    out.push(isa(Op::MovI { dst: T1, imm: !(1i64 << dst_reg.index()) }, prov));
    out.push(isa(Op::Alu { op: AluOp::And, dst: TAINT_MASK, src1: TAINT_MASK, src2: T1 }, prov));
}

/// Emits the L1/L2-equivalent software check: if `addr`'s taint bit is set,
/// jump to the alert stub. (The hardware gives SHIFT this for free.)
fn check_addr(out: &mut Vec<CInsn<Gpr>>, addr: Gpr, alert: Label) {
    extract_bit(out, addr, T0, Provenance::Check);
    out.push(isa(cmpi_ne(T0, 0), Provenance::Check));
    out.push(CInsn::new(COp::Jmp(alert)).under(PT).with_prov(Provenance::Check));
}

/// Runs the software-only pass over one function's allocated code.
pub fn instrument_shadow(code: &[CInsn<Gpr>], gran: Granularity) -> Vec<CInsn<Gpr>> {
    // Fresh label for the alert stub, beyond anything the function binds.
    let max_label = code
        .iter()
        .filter_map(|i| match &i.op {
            COp::Bind(Label(l)) => Some(*l),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let alert = Label(max_label + 7);

    let mut out = Vec::with_capacity(code.len() * 6);
    for insn in code {
        // Predicated instructions: propagate conservatively (treat the def
        // as happening) — they are rare (SetCmp arms) and conservative
        // means "possibly tainted", never a lost tag.
        match &insn.op {
            COp::Isa(op) if !insn.glue => match *op {
                Op::Alu { dst, src1, src2, op: aop } => {
                    let self_cancel = src1 == src2 && matches!(aop, AluOp::Xor | AluOp::Sub);
                    out.push(insn.clone());
                    if self_cancel {
                        clear_bit(&mut out, dst, Provenance::TaintSource);
                    } else {
                        extract_bit(&mut out, src1, T0, Provenance::TaintSource);
                        extract_bit(&mut out, src2, T2, Provenance::TaintSource);
                        out.push(isa(
                            Op::Alu { op: AluOp::Or, dst: T0, src1: T0, src2: T2 },
                            Provenance::TaintSource,
                        ));
                        install_bit(&mut out, dst, Provenance::TaintSource);
                    }
                }
                Op::AluI { dst, src1, .. }
                | Op::Mov { dst, src: src1 }
                | Op::Ext { dst, src: src1, .. } => {
                    out.push(insn.clone());
                    extract_bit(&mut out, src1, T0, Provenance::TaintSource);
                    install_bit(&mut out, dst, Provenance::TaintSource);
                }
                Op::MovI { dst, .. } | Op::MovFromBr { dst, .. } => {
                    out.push(insn.clone());
                    clear_bit(&mut out, dst, Provenance::TaintSource);
                }
                Op::Tclr { dst } => {
                    // Sanitize marker: just clear the shadow bit.
                    clear_bit(&mut out, dst, Provenance::Relax);
                }
                Op::Ld { size, dst, addr, spec: false, .. } => {
                    // Software L1 check, then the bitmap lookup, the load,
                    // and the destination-bit update.
                    check_addr(&mut out, addr, alert);
                    emit_load_tag(&mut out, gran, size, addr);
                    out.push(insn.clone());
                    // T2 holds the extracted tag (0/1).
                    out.push(isa(Op::Mov { dst: T0, src: T2 }, Provenance::TaintSource));
                    install_bit(&mut out, dst, Provenance::TaintSource);
                }
                Op::St { size, src, addr } => {
                    // Software L2 check, then the bitmap update and store.
                    check_addr(&mut out, addr, alert);
                    emit_store_tag(&mut out, gran, size, src, addr);
                    out.push(insn.clone());
                }
                Op::Syscall { .. } => {
                    out.push(insn.clone());
                    // Runtime results are untainted values in r8; memory
                    // taint is handled through the bitmap by the runtime.
                    clear_bit(&mut out, Gpr::RET, Provenance::TaintSource);
                }
                _ => out.push(insn.clone()),
            },
            // Spill traffic must carry taint through memory in software:
            // NaT transparency does not exist in this mode, so spills get
            // the same bitmap treatment as ordinary 8-byte accesses.
            COp::Isa(Op::StSpill { src, addr }) => {
                emit_store_tag(&mut out, gran, MemSize::B8, *src, *addr);
                out.push(insn.clone());
            }
            COp::Isa(Op::LdFill { dst, addr }) => {
                emit_load_tag(&mut out, gran, MemSize::B8, *addr);
                out.push(insn.clone());
                out.push(isa(Op::Mov { dst: T0, src: T2 }, Provenance::TaintSource));
                install_bit(&mut out, *dst, Provenance::TaintSource);
            }
            // chk.s guards become software bit tests.
            COp::ChkS(r, target) => {
                extract_bit(&mut out, *r, T0, Provenance::Check);
                out.push(isa(cmpi_ne(T0, 0), Provenance::Check));
                out.push(CInsn::new(COp::Jmp(*target)).under(PT).with_prov(Provenance::Check));
            }
            _ => out.push(insn.clone()),
        }
    }

    // The alert stub (software L1/L2 handler).
    out.push(CInsn::new(COp::Bind(alert)));
    out.push(CInsn::isa(Op::Syscall { num: sys::ALERT }).with_prov(Provenance::Check).glued());
    out.push(CInsn::isa(Op::Halt).glued());
    out
}

/// Loads the tag for `[addr]` into `T2` as 0/1.
fn emit_load_tag(out: &mut Vec<CInsn<Gpr>>, gran: Granularity, size: MemSize, addr: Gpr) {
    let sub_word = gran.needs_bit_extraction() && size != MemSize::B8;
    tag_addr(out, gran, addr, sub_word, Provenance::LdTagCompute);
    if sub_word {
        out.push(isa(
            Op::MovI { dst: T2, imm: (1i64 << size.bytes()) - 1 },
            Provenance::LdTagCompute,
        ));
        out.push(isa(
            Op::Alu { op: AluOp::Shl, dst: T2, src1: T2, src2: T1 },
            Provenance::LdTagCompute,
        ));
        out.push(isa(ld1(T1, T0), Provenance::LdTagMemory));
        out.push(isa(
            Op::Alu { op: AluOp::And, dst: T2, src1: T2, src2: T1 },
            Provenance::LdTagCompute,
        ));
    } else {
        out.push(isa(ld1(T2, T0), Provenance::LdTagMemory));
    }
    // Normalize to 0/1.
    out.push(isa(cmpi_ne(T2, 0), Provenance::LdTagCompute));
    out.push(isa(Op::MovI { dst: T2, imm: 1 }, Provenance::LdTagCompute).under(PT));
    out.push(isa(Op::MovI { dst: T2, imm: 0 }, Provenance::LdTagCompute).under(PF));
}

/// Updates the tag for `[addr]` from `src`'s shadow bit, then leaves the
/// data store to the caller.
fn emit_store_tag(
    out: &mut Vec<CInsn<Gpr>>,
    gran: Granularity,
    size: MemSize,
    src: Gpr,
    addr: Gpr,
) {
    let sub_word = gran.needs_bit_extraction() && size != MemSize::B8;
    tag_addr(out, gran, addr, sub_word, Provenance::StTagCompute);
    // PT = src tainted?
    extract_bit(out, src, T2, Provenance::StTagCompute);
    out.push(isa(cmpi_ne(T2, 0), Provenance::StTagCompute));
    if sub_word {
        out.push(isa(
            Op::MovI { dst: T2, imm: (1i64 << size.bytes()) - 1 },
            Provenance::StTagCompute,
        ));
        out.push(isa(
            Op::Alu { op: AluOp::Shl, dst: T2, src1: T2, src2: T1 },
            Provenance::StTagCompute,
        ));
        out.push(isa(ld1(T1, T0), Provenance::StTagMemory));
        out.push(
            isa(Op::Alu { op: AluOp::Or, dst: T1, src1: T1, src2: T2 }, Provenance::StTagCompute)
                .under(PT),
        );
        out.push(
            isa(Op::AluI { op: AluOp::Xor, dst: T2, src1: T2, imm: -1 }, Provenance::StTagCompute)
                .under(PF),
        );
        out.push(
            isa(Op::Alu { op: AluOp::And, dst: T1, src1: T1, src2: T2 }, Provenance::StTagCompute)
                .under(PF),
        );
        out.push(isa(st1(T1, T0), Provenance::StTagMemory));
    } else {
        out.push(isa(Op::MovI { dst: T2, imm: 0xff }, Provenance::StTagCompute).under(PT));
        out.push(isa(Op::MovI { dst: T2, imm: 0 }, Provenance::StTagCompute).under(PF));
        out.push(isa(st1(T2, T0), Provenance::StTagMemory));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_isa::ExtKind;

    #[test]
    fn alu_propagation_costs_several_instructions() {
        let code = vec![CInsn::isa(Op::Alu {
            op: AluOp::Add,
            dst: Gpr::R3,
            src1: Gpr::R1,
            src2: Gpr::R2,
        })];
        let out = instrument_shadow(&code, Granularity::Byte);
        // Original + ≥8 propagation instructions + the alert stub.
        assert!(out.len() >= 10, "got {}", out.len());
        assert!(out
            .iter()
            .any(|i| matches!(i.op, COp::Isa(Op::Syscall { num }) if num == sys::ALERT)));
    }

    #[test]
    fn xor_self_clears_the_shadow_bit() {
        let code = vec![CInsn::isa(Op::Alu {
            op: AluOp::Xor,
            dst: Gpr::R3,
            src1: Gpr::R3,
            src2: Gpr::R3,
        })];
        let out = instrument_shadow(&code, Granularity::Byte);
        // The clear idiom avoids the full extract/or/install dance.
        let props = out.iter().filter(|i| i.prov == Provenance::TaintSource).count();
        assert!(props <= 2, "clear idiom should be cheap, got {props}");
    }

    #[test]
    fn loads_get_address_checks_and_bit_installs() {
        let code = vec![CInsn::isa(Op::Ld {
            size: MemSize::B8,
            ext: ExtKind::Zero,
            dst: Gpr::R3,
            addr: Gpr::R4,
            spec: false,
        })];
        let out = instrument_shadow(&code, Granularity::Byte);
        let checks = out.iter().filter(|i| i.prov == Provenance::Check).count();
        assert!(checks >= 3, "software L1 check expected, got {checks}");
        assert!(out.iter().any(|i| i.prov == Provenance::LdTagMemory));
    }

    #[test]
    fn spill_traffic_is_instrumented_in_software_mode() {
        // NaT transparency does not exist here: spills must carry taint
        // through the bitmap.
        let code = vec![
            CInsn::isa(Op::StSpill { src: Gpr::R3, addr: Gpr::R24 }).glued(),
            CInsn::isa(Op::LdFill { dst: Gpr::R3, addr: Gpr::R24 }).glued(),
        ];
        let out = instrument_shadow(&code, Granularity::Byte);
        assert!(out.iter().any(|i| i.prov == Provenance::StTagMemory));
        assert!(out.iter().any(|i| i.prov == Provenance::LdTagMemory));
    }
}
