//! The SHIFT instrumentation pass (the paper's §3–§4, Figure 5).
//!
//! Runs on *allocated physical code* — the same pipeline point as the
//! paper's GCC pass between `pass_leaf_regs` and `pass_sched2` — and rewrites
//! three instruction classes:
//!
//! 1. **Loads**: compute the tag address (Figure 4 region fold), load the
//!    tag byte from the region-0 bitmap, test the relevant bit(s) into
//!    `p6/p7`, perform the original load, and conditionally taint the target
//!    register (baseline: `add dst = dst, r31` against a kept NaT-source
//!    register; enhanced: `tset`).
//! 2. **Stores**: test the source's NaT bit with `tnat`, read-modify-write
//!    the tag byte, and perform the data store — `st8.spill` for 8-byte
//!    stores (NaT-safe for free, as Figure 5 notes), or a *laundered* plain
//!    store for sub-word sizes (spill + plain reload clears the NaT bit on
//!    baseline hardware; `tclr`/`tset` under the set/clear enhancement).
//! 3. **Compares**: NaT operands clear both predicates on real Itanium, so
//!    each possibly-tainted operand is laundered before the compare and
//!    re-tainted after (`Provenance::Relax`); the `cmp.nat` enhancement
//!    removes all of this.
//!
//! A simple forward *clean-register* analysis (within straight-line
//! segments) skips relaxation and laundering when operands are provably
//! untainted — the paper's "SHIFT analyzes the legitimate uses of tainted
//! data" (§4.1). Registers `r28–r31` and predicates `p6/p7` are reserved for
//! the pass.

use shift_isa::{AluOp, CmpRel, ExtKind, Gpr, MemSize, Op, Pr, Provenance};
use shift_machine::layout;
use shift_tagmap::{Granularity, REGION_STRIDE_BITS};

use crate::vcode::{CInsn, COp};

/// Scratch register 0: tag byte address.
pub(crate) const T0: Gpr = Gpr::R28;
/// Scratch register 1: offset / bit index / tag byte (reused).
pub(crate) const T1: Gpr = Gpr::R29;
/// Scratch register 2: masks and tag values.
pub(crate) const T2: Gpr = Gpr::R30;
/// The kept NaT-source register (baseline mode only, §4.1: generating a NaT
/// bit once and keeping it beats per-use generation by 3×).
pub const NAT_SRC: Gpr = Gpr::R31;

/// Instrumentation predicate: "tainted" (first operand).
pub(crate) const PT: Pr = Pr::P6;
/// Instrumentation predicate: complement / second operand.
pub(crate) const PF: Pr = Pr::P7;

/// How the baseline (no `tset`) configuration obtains its NaT-source
/// register. The paper found that generating it per function costs 3× more
/// than generating it once and keeping it (§4.4) — a deferred speculative
/// load walks the TLB, fails translation, and stalls for a full memory
/// latency before deferring.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum NatGen {
    /// Generate once at program entry, keep `r31` NaT'd forever (SHIFT's
    /// choice).
    #[default]
    Kept,
    /// Re-generate at every function entry (the §4.4 strawman).
    PerFunction,
    /// Re-generate at every site that needs the NaT source (worst case).
    PerUse,
}

/// Configuration of the SHIFT pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShiftOptions {
    /// Tag granularity (byte- or word-level, Figure 7's two families).
    pub granularity: Granularity,
    /// Architectural enhancement ①: `tset`/`tclr` instructions exist.
    pub set_clr: bool,
    /// Architectural enhancement ②: NaT-aware compares exist.
    pub nat_cmp: bool,
    /// Skip relaxation/laundering for provably-clean operands.
    pub relax_analysis: bool,
    /// NaT-source generation strategy (baseline mode only).
    pub nat_gen: NatGen,
}

impl ShiftOptions {
    /// Baseline SHIFT on stock Itanium at the given granularity.
    pub const fn baseline(granularity: Granularity) -> ShiftOptions {
        ShiftOptions {
            granularity,
            set_clr: false,
            nat_cmp: false,
            relax_analysis: true,
            nat_gen: NatGen::Kept,
        }
    }

    /// Both proposed enhancements on (Figure 8's "both" bars).
    pub const fn enhanced(granularity: Granularity) -> ShiftOptions {
        ShiftOptions { set_clr: true, nat_cmp: true, ..ShiftOptions::baseline(granularity) }
    }
}

/// Static counts of what the pass did (feeds Table 3 and sanity checks).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct InstrumentStats {
    /// Loads instrumented.
    pub loads: usize,
    /// Stores instrumented.
    pub stores: usize,
    /// Compares relaxed (at least one operand laundered).
    pub cmps_relaxed: usize,
    /// Compares rewritten to the NaT-aware form.
    pub cmps_nat_aware: usize,
    /// Compares left untouched (clean operands or immediate forms).
    pub cmps_skipped: usize,
    /// Sub-word stores that needed source laundering.
    pub stores_laundered: usize,
    /// `Sanitize` markers expanded.
    pub sanitizes: usize,
}

/// Tracks which physical registers are provably untainted within a
/// straight-line segment. Conservative: joins reset everything.
#[derive(Clone, Copy, Debug)]
struct CleanSet(u32);

impl CleanSet {
    fn segment_start() -> CleanSet {
        let mut s = CleanSet(0);
        s.set(Gpr::R0, true);
        s.set(Gpr::SP, true);
        s
    }

    fn get(&self, r: Gpr) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    fn set(&mut self, r: Gpr, clean: bool) {
        if clean {
            self.0 |= 1 << r.index();
        } else {
            self.0 &= !(1 << r.index());
        }
        // r0 is always clean; sp is never tainted by construction.
        self.0 |= (1 << Gpr::R0.index()) | (1 << Gpr::SP.index());
    }

    /// Transfer function over one (possibly glue) instruction.
    fn step(&mut self, insn: &CInsn<Gpr>) {
        match &insn.op {
            COp::Isa(op) => match *op {
                Op::MovI { dst, .. } | Op::MovFromBr { dst, .. } | Op::Tclr { dst } => {
                    // Predicated defs may not execute; only unpredicated
                    // definitions establish cleanliness.
                    self.set(dst, insn.qp == Pr::P0);
                }
                Op::Mov { dst, src } | Op::Ext { dst, src, .. } => {
                    let c = self.get(src) && insn.qp == Pr::P0;
                    self.set(dst, c);
                }
                Op::AluI { dst, src1, .. } => {
                    let c = self.get(src1) && insn.qp == Pr::P0;
                    self.set(dst, c);
                }
                Op::Alu { dst, src1, src2, op } => {
                    let self_cancel = src1 == src2 && matches!(op, AluOp::Xor | AluOp::Sub);
                    let c =
                        (self_cancel || (self.get(src1) && self.get(src2))) && insn.qp == Pr::P0;
                    self.set(dst, c);
                }
                Op::Ld { dst, .. } | Op::LdFill { dst, .. } => self.set(dst, false),
                Op::Tset { dst } => self.set(dst, false),
                Op::Syscall { .. } => self.set(Gpr::RET, false),
                _ => {}
            },
            COp::Call(_) => self.set(Gpr::RET, false),
            // Join points / control flow: forget everything.
            COp::Bind(_) | COp::Jmp(_) | COp::ChkS(..) => *self = CleanSet::segment_start(),
        }
    }
}

/// Runs the pass over one function's allocated code.
pub fn instrument(code: &[CInsn<Gpr>], opts: &ShiftOptions) -> (Vec<CInsn<Gpr>>, InstrumentStats) {
    let mut out = Vec::with_capacity(code.len() * 3);
    let mut stats = InstrumentStats::default();
    let mut clean = CleanSet::segment_start();

    if !opts.set_clr && opts.nat_gen == NatGen::PerFunction {
        emit_nat_gen(&mut out);
    }

    for insn in code {
        if insn.glue || insn.qp != Pr::P0 {
            // Glue (prologue/epilogue/spill traffic) and predicated
            // instructions pass through; spills are already NaT-transparent.
            clean.step(insn);
            out.push(insn.clone());
            continue;
        }
        match &insn.op {
            COp::Isa(Op::Ld { size, ext, dst, addr, spec: false })
                if insn.prov == Provenance::Original =>
            {
                stats.loads += 1;
                emit_load(&mut out, opts, *size, *ext, *dst, *addr, insn);
                clean.step(insn);
            }
            COp::Isa(Op::St { size, src, addr }) if insn.prov == Provenance::Original => {
                stats.stores += 1;
                let src_clean = opts.relax_analysis && clean.get(*src);
                let laundered = emit_store(&mut out, opts, *size, *src, *addr, src_clean, insn);
                if laundered {
                    stats.stores_laundered += 1;
                }
                clean.step(insn);
            }
            COp::Isa(Op::Cmp { rel, pt, pf, src1, src2, nat_aware: false })
                if insn.prov == Provenance::Original =>
            {
                let mut operands = vec![*src1];
                if src2 != src1 {
                    operands.push(*src2);
                }
                operands.retain(|r| !(opts.relax_analysis && clean.get(*r)));
                emit_cmp(
                    &mut out,
                    opts,
                    &mut stats,
                    Op::Cmp {
                        rel: *rel,
                        pt: *pt,
                        pf: *pf,
                        src1: *src1,
                        src2: *src2,
                        nat_aware: opts.nat_cmp,
                    },
                    &operands,
                    insn,
                );
                clean.step(insn);
            }
            COp::Isa(Op::CmpI { rel, pt, pf, src1, imm, nat_aware: false })
                if insn.prov == Provenance::Original =>
            {
                let mut operands = vec![*src1];
                operands.retain(|r| !(opts.relax_analysis && clean.get(*r)));
                emit_cmp(
                    &mut out,
                    opts,
                    &mut stats,
                    Op::CmpI {
                        rel: *rel,
                        pt: *pt,
                        pf: *pf,
                        src1: *src1,
                        imm: *imm,
                        nat_aware: opts.nat_cmp,
                    },
                    &operands,
                    insn,
                );
                clean.step(insn);
            }
            COp::Isa(Op::Tclr { dst }) if insn.prov == Provenance::Original => {
                // A `Sanitize` marker: bounds-checked value may be used as an
                // address. Baseline hardware has no tclr — launder instead.
                stats.sanitizes += 1;
                if opts.set_clr {
                    out.push(insn.clone());
                } else {
                    out.push(isa(Op::Tnat { pt: PT, pf: PF, src: *dst }, Provenance::Relax));
                    launder_baseline(&mut out, *dst, layout::LAUNDER0, PT);
                }
                clean.step(insn);
            }
            _ => {
                clean.step(insn);
                out.push(insn.clone());
            }
        }
    }
    (out, stats)
}

pub(crate) fn isa(op: Op<Gpr>, prov: Provenance) -> CInsn<Gpr> {
    CInsn::isa(op).with_prov(prov)
}

/// Emits the Figure-4 tag-address computation: `T0` ← tag byte address, and
/// (when `need_bit`) `T1` ← bit index within the tag byte (byte level only).
/// The software-only pass ([`crate::shadow`]) emits the same sequence, so
/// the NaT-vs-shadow ablation compares passes that compute tag addresses
/// identically.
pub(crate) fn tag_addr(
    out: &mut Vec<CInsn<Gpr>>,
    gran: Granularity,
    addr: Gpr,
    need_bit: bool,
    prov: Provenance,
) {
    out.push(isa(Op::AluI { op: AluOp::Shr, dst: T0, src1: addr, imm: 61 }, prov));
    out.push(isa(Op::AluI { op: AluOp::Add, dst: T0, src1: T0, imm: -1 }, prov));
    out.push(isa(
        Op::AluI { op: AluOp::Shl, dst: T0, src1: T0, imm: REGION_STRIDE_BITS as i64 },
        prov,
    ));
    out.push(isa(Op::MovI { dst: T1, imm: shift_isa::IMPL_MASK as i64 }, prov));
    out.push(isa(Op::Alu { op: AluOp::And, dst: T1, src1: addr, src2: T1 }, prov));
    out.push(isa(
        Op::AluI { op: AluOp::Shr, dst: T2, src1: T1, imm: gran.byte_shift() as i64 },
        prov,
    ));
    out.push(isa(Op::Alu { op: AluOp::Or, dst: T0, src1: T0, src2: T2 }, prov));
    if need_bit {
        debug_assert!(gran.needs_bit_extraction());
        out.push(isa(Op::AluI { op: AluOp::And, dst: T1, src1: T1, imm: 7 }, prov));
    }
}

/// Whether an access of `size` touches a whole tag byte, needing no bit
/// extraction or read-modify-write: every word-level access (one tag byte
/// per word), and byte-level 8-byte accesses (8-aligned, so their 8 tag
/// bits are exactly one aligned tag byte — Figure 5's fast path).
fn whole_tag_byte(gran: Granularity, size: MemSize) -> bool {
    gran == Granularity::Word || size == MemSize::B8
}

fn emit_load(
    out: &mut Vec<CInsn<Gpr>>,
    opts: &ShiftOptions,
    size: MemSize,
    ext: ExtKind,
    dst: Gpr,
    addr: Gpr,
    orig: &CInsn<Gpr>,
) {
    let (tc, tm) = (Provenance::LdTagCompute, Provenance::LdTagMemory);
    let gran = opts.granularity;
    if whole_tag_byte(gran, size) {
        tag_addr(out, gran, addr, false, tc);
        out.push(isa(ld1(T2, T0), tm));
        out.push(isa(cmpi_ne(T2, 0), tc));
    } else {
        // Byte level, sub-word: extract the access's bits with a mask.
        tag_addr(out, gran, addr, true, tc);
        out.push(isa(Op::MovI { dst: T2, imm: (1i64 << size.bytes()) - 1 }, tc));
        out.push(isa(Op::Alu { op: AluOp::Shl, dst: T2, src1: T2, src2: T1 }, tc));
        out.push(isa(ld1(T1, T0), tm));
        out.push(isa(Op::Alu { op: AluOp::And, dst: T2, src1: T2, src2: T1 }, tc));
        out.push(isa(cmpi_ne(T2, 0), tc));
    }
    // The original load, unchanged.
    out.push(orig.clone());
    let _ = ext; // extension is carried by the original load
                 // Conditionally taint the destination.
    maybe_regen(out, opts);
    let taint = if opts.set_clr {
        Op::Tset { dst }
    } else {
        Op::Alu { op: AluOp::Add, dst, src1: dst, src2: NAT_SRC }
    };
    out.push(isa(taint, Provenance::TaintSource).under(PT));
}

/// Returns `true` if the store's source had to be laundered.
fn emit_store(
    out: &mut Vec<CInsn<Gpr>>,
    opts: &ShiftOptions,
    size: MemSize,
    src: Gpr,
    addr: Gpr,
    src_clean: bool,
    orig: &CInsn<Gpr>,
) -> bool {
    let (sc, sm) = (Provenance::StTagCompute, Provenance::StTagMemory);
    let gran = opts.granularity;

    if whole_tag_byte(gran, size) {
        // Whole tag byte: no read-modify-write needed. This covers every
        // word-level store (one tag byte per word — a sub-word store
        // overwrites the word's taint, the documented word-level
        // imprecision) and byte-level 8-byte stores.
        tag_addr(out, gran, addr, false, sc);
        if src_clean {
            out.push(isa(Op::MovI { dst: T2, imm: 0 }, sc));
            out.push(isa(st1(T2, T0), sm));
            out.push(orig.clone());
            return false;
        }
        out.push(isa(Op::Tnat { pt: PT, pf: PF, src }, sc));
        out.push(isa(Op::MovI { dst: T2, imm: 0xff }, sc).under(PT));
        out.push(isa(Op::MovI { dst: T2, imm: 0 }, sc).under(PF));
        out.push(isa(st1(T2, T0), sm));
        if size == MemSize::B8 {
            // st8.spill stores NaT'd data without faulting (Figure 5).
            out.push(CInsn::isa(Op::StSpill { src, addr }).with_prov(orig.prov));
            return false;
        }
        // Word-level sub-word store of possibly-NaT data: launder below.
    } else {
        // Byte level, sub-word: multi-bit read-modify-write.
        tag_addr(out, gran, addr, true, sc);
        let mask_base = (1i64 << size.bytes()) - 1;
        out.push(isa(Op::MovI { dst: T2, imm: mask_base }, sc));
        out.push(isa(Op::Alu { op: AluOp::Shl, dst: T2, src1: T2, src2: T1 }, sc));
        out.push(isa(ld1(T1, T0), sm));
        if src_clean {
            out.push(isa(Op::AluI { op: AluOp::Xor, dst: T2, src1: T2, imm: -1 }, sc));
            out.push(isa(Op::Alu { op: AluOp::And, dst: T1, src1: T1, src2: T2 }, sc));
            out.push(isa(st1(T1, T0), sm));
            out.push(orig.clone());
            return false;
        }
        out.push(isa(Op::Tnat { pt: PT, pf: PF, src }, sc));
        out.push(isa(Op::Alu { op: AluOp::Or, dst: T1, src1: T1, src2: T2 }, sc).under(PT));
        out.push(isa(Op::AluI { op: AluOp::Xor, dst: T2, src1: T2, imm: -1 }, sc).under(PF));
        out.push(isa(Op::Alu { op: AluOp::And, dst: T1, src1: T1, src2: T2 }, sc).under(PF));
        out.push(isa(st1(T1, T0), sm));
    }

    // Sub-word store of possibly-NaT data: launder the source around the
    // plain store, then re-taint it if it was tainted (p6 survives from the
    // tnat above).
    if opts.set_clr {
        out.push(isa(Op::Tclr { dst: src }, Provenance::Relax));
        out.push(orig.clone());
        out.push(isa(Op::Tset { dst: src }, Provenance::Relax).under(PT));
    } else {
        launder_baseline(out, src, layout::LAUNDER0, PT);
        out.push(orig.clone());
        maybe_regen(out, opts);
        out.push(isa(retaint(src), Provenance::Relax).under(PT));
    }
    true
}

fn emit_cmp(
    out: &mut Vec<CInsn<Gpr>>,
    opts: &ShiftOptions,
    stats: &mut InstrumentStats,
    rewritten: Op<Gpr>,
    dirty_operands: &[Gpr],
    orig: &CInsn<Gpr>,
) {
    if opts.nat_cmp {
        stats.cmps_nat_aware += 1;
        out.push(CInsn { qp: orig.qp, op: COp::Isa(rewritten), prov: orig.prov, glue: false });
        return;
    }
    if dirty_operands.is_empty() {
        stats.cmps_skipped += 1;
        out.push(orig.clone());
        return;
    }
    stats.cmps_relaxed += 1;
    let slots = [(PT, layout::LAUNDER0), (PF, layout::LAUNDER1)];
    for (i, &r) in dirty_operands.iter().enumerate() {
        let (pk, slot) = slots[i];
        out.push(isa(Op::Tnat { pt: pk, pf: Pr::P0, src: r }, Provenance::Relax));
        if opts.set_clr {
            out.push(isa(Op::Tclr { dst: r }, Provenance::Relax));
        } else {
            launder_baseline(out, r, slot, pk);
        }
    }
    out.push(orig.clone());
    for (i, &r) in dirty_operands.iter().enumerate() {
        let (pk, _) = slots[i];
        if !opts.set_clr {
            maybe_regen(out, opts);
        }
        let op = if opts.set_clr { Op::Tset { dst: r } } else { retaint(r) };
        out.push(isa(op, Provenance::Relax).under(pk));
    }
}

/// Baseline NaT clearing (§4.1): spill the register (banking the NaT bit),
/// then reload with a *plain* load, which drops it. The memory traffic is
/// predicated on `taken` (set by a preceding `tnat`): when the operand is
/// untainted there is nothing to clear, and the predicated-off slots cost
/// issue cycles but no cache accesses — this is what separates the "-safe"
/// from the "-unsafe" bars in Figure 7.
fn launder_baseline(out: &mut Vec<CInsn<Gpr>>, r: Gpr, slot: u64, taken: Pr) {
    out.push(isa(Op::MovI { dst: T2, imm: slot as i64 }, Provenance::Relax));
    out.push(isa(Op::StSpill { src: r, addr: T2 }, Provenance::Relax).under(taken));
    out.push(
        isa(
            Op::Ld { size: MemSize::B8, ext: ExtKind::Zero, dst: r, addr: T2, spec: false },
            Provenance::Relax,
        )
        .under(taken),
    );
}

/// Baseline re-tainting: add the kept NaT-source register (value 0, NaT 1).
fn retaint(r: Gpr) -> Op<Gpr> {
    Op::Alu { op: AluOp::Add, dst: r, src1: r, src2: NAT_SRC }
}

/// Emits the NaT-source generation sequence (Figure 5 ①–②): a long-immediate
/// move of an invalid address, then a speculative load from it, leaving
/// `r31` NaT with value 0. Used at program entry (`NatGen::Kept`), function
/// entry (`PerFunction`), or before every use (`PerUse`).
pub fn emit_nat_gen(out: &mut Vec<CInsn<Gpr>>) {
    out.push(isa(
        Op::MovI { dst: NAT_SRC, imm: crate::NAT_GEN_ADDR as i64 },
        Provenance::TaintSource,
    ));
    out.push(isa(
        Op::Ld { size: MemSize::B8, ext: ExtKind::Zero, dst: NAT_SRC, addr: NAT_SRC, spec: true },
        Provenance::TaintSource,
    ));
}

/// In `PerUse` mode, regenerate the NaT source right before a use of it.
fn maybe_regen(out: &mut Vec<CInsn<Gpr>>, opts: &ShiftOptions) {
    if !opts.set_clr && opts.nat_gen == NatGen::PerUse {
        emit_nat_gen(out);
    }
}

pub(crate) fn ld1(dst: Gpr, addr: Gpr) -> Op<Gpr> {
    Op::Ld { size: MemSize::B1, ext: ExtKind::Zero, dst, addr, spec: false }
}

pub(crate) fn st1(src: Gpr, addr: Gpr) -> Op<Gpr> {
    Op::St { size: MemSize::B1, src, addr }
}

pub(crate) fn cmpi_ne(src: Gpr, imm: i64) -> Op<Gpr> {
    Op::CmpI { rel: CmpRel::Ne, pt: PT, pf: PF, src1: src, imm, nat_aware: false }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ld8(dst: Gpr, addr: Gpr) -> CInsn<Gpr> {
        CInsn::isa(Op::Ld { size: MemSize::B8, ext: ExtKind::Zero, dst, addr, spec: false })
    }

    fn st8(src: Gpr, addr: Gpr) -> CInsn<Gpr> {
        CInsn::isa(Op::St { size: MemSize::B8, src, addr })
    }

    #[test]
    fn load_instrumentation_shape_byte_level() {
        let code = vec![ld8(Gpr::R3, Gpr::R4)];
        let (out, stats) = instrument(&code, &ShiftOptions::baseline(Granularity::Byte));
        assert_eq!(stats.loads, 1);
        // tag computation, one tag-byte load, a compare, the original load,
        // one predicated taint.
        let tag_loads = out.iter().filter(|i| i.prov == Provenance::LdTagMemory).count();
        assert_eq!(tag_loads, 1);
        let taints = out.iter().filter(|i| i.prov == Provenance::TaintSource).count();
        assert_eq!(taints, 1);
        assert!(out.iter().any(|i| i.prov == Provenance::Original
            && matches!(i.op, COp::Isa(Op::Ld { dst: Gpr::R3, .. }))));
        // Byte-level ld8 needs no bit extraction: compute is exactly 7+1 ops.
        let computes = out.iter().filter(|i| i.prov == Provenance::LdTagCompute).count();
        assert_eq!(computes, 8);
    }

    #[test]
    fn word_level_is_never_costlier_than_byte_level() {
        // One tag byte per word: word-level sequences must not exceed the
        // byte-level ones for any access size, and must be strictly shorter
        // for sub-word accesses (no bit extraction, no read-modify-write).
        for size in MemSize::ALL {
            let ld = CInsn::isa(Op::Ld {
                size,
                ext: ExtKind::Zero,
                dst: Gpr::R3,
                addr: Gpr::R4,
                spec: false,
            });
            let (b, _) =
                instrument(std::slice::from_ref(&ld), &ShiftOptions::baseline(Granularity::Byte));
            let (w, _) = instrument(&[ld], &ShiftOptions::baseline(Granularity::Word));
            assert!(w.len() <= b.len(), "ld{}: word {} > byte {}", size.bytes(), w.len(), b.len());
            if size != MemSize::B8 {
                assert!(w.len() < b.len(), "ld{}: expected strictly shorter", size.bytes());
            }

            let st = CInsn::isa(Op::St { size, src: Gpr::R3, addr: Gpr::R4 });
            let (b, _) =
                instrument(std::slice::from_ref(&st), &ShiftOptions::baseline(Granularity::Byte));
            let (w, _) = instrument(&[st], &ShiftOptions::baseline(Granularity::Word));
            assert!(w.len() <= b.len(), "st{}: word {} > byte {}", size.bytes(), w.len(), b.len());
        }
    }

    #[test]
    fn store8_uses_spill_and_no_rmw_at_byte_level() {
        let code = vec![st8(Gpr::R3, Gpr::R4)];
        let (out, stats) = instrument(&code, &ShiftOptions::baseline(Granularity::Byte));
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.stores_laundered, 0);
        // Data store became st8.spill.
        assert!(out
            .iter()
            .any(|i| matches!(i.op, COp::Isa(Op::StSpill { src: Gpr::R3, addr: Gpr::R4 }))));
        // Only ONE tag memory access (a store, no read-modify-write).
        let tagmem: Vec<_> = out.iter().filter(|i| i.prov == Provenance::StTagMemory).collect();
        assert_eq!(tagmem.len(), 1);
        assert!(matches!(tagmem[0].op, COp::Isa(Op::St { .. })));
    }

    #[test]
    fn subword_store_launders_on_baseline_but_not_with_set_clr() {
        let st1 = CInsn::isa(Op::St { size: MemSize::B1, src: Gpr::R3, addr: Gpr::R4 });
        let (base, s1) =
            instrument(std::slice::from_ref(&st1), &ShiftOptions::baseline(Granularity::Byte));
        assert_eq!(s1.stores_laundered, 1);
        // Baseline laundering costs memory traffic.
        assert!(base
            .iter()
            .any(|i| i.prov == Provenance::Relax && matches!(i.op, COp::Isa(Op::StSpill { .. }))));

        let mut opts = ShiftOptions::baseline(Granularity::Byte);
        opts.set_clr = true;
        let (enh, s2) = instrument(&[st1], &opts);
        assert_eq!(s2.stores_laundered, 1);
        assert!(enh.iter().any(|i| matches!(i.op, COp::Isa(Op::Tclr { .. }))));
        assert!(!enh
            .iter()
            .any(|i| i.prov == Provenance::Relax && matches!(i.op, COp::Isa(Op::StSpill { .. }))));
    }

    #[test]
    fn compares_relaxed_then_removed_by_nat_cmp() {
        let cmp = CInsn::isa(Op::Cmp {
            rel: CmpRel::Lt,
            pt: Pr::P1,
            pf: Pr::P2,
            src1: Gpr::R3,
            src2: Gpr::R4,
            nat_aware: false,
        });
        // Dirty the operands first with loads.
        let code = vec![ld8(Gpr::R3, Gpr::R5), ld8(Gpr::R4, Gpr::R5), cmp];
        let (base, s) = instrument(&code, &ShiftOptions::baseline(Granularity::Byte));
        assert_eq!(s.cmps_relaxed, 1);
        let relax = base.iter().filter(|i| i.prov == Provenance::Relax).count();
        assert!(relax >= 8, "two operands laundered + re-tainted, got {relax}");

        let (enh, s2) = instrument(&code, &ShiftOptions::enhanced(Granularity::Byte));
        assert_eq!(s2.cmps_nat_aware, 1);
        assert!(enh.iter().all(|i| i.prov != Provenance::Relax));
        assert!(enh.iter().any(|i| matches!(i.op, COp::Isa(Op::Cmp { nat_aware: true, .. }))));
    }

    #[test]
    fn clean_analysis_skips_relaxation() {
        // Both operands are MovI-defined: provably clean.
        let code = vec![
            CInsn::isa(Op::MovI { dst: Gpr::R3, imm: 5 }),
            CInsn::isa(Op::MovI { dst: Gpr::R4, imm: 9 }),
            CInsn::isa(Op::Cmp {
                rel: CmpRel::Lt,
                pt: Pr::P1,
                pf: Pr::P2,
                src1: Gpr::R3,
                src2: Gpr::R4,
                nat_aware: false,
            }),
        ];
        let (_, s) = instrument(&code, &ShiftOptions::baseline(Granularity::Byte));
        assert_eq!(s.cmps_skipped, 1);
        assert_eq!(s.cmps_relaxed, 0);
    }

    #[test]
    fn clean_store_avoids_tnat() {
        let code = vec![CInsn::isa(Op::MovI { dst: Gpr::R3, imm: 5 }), st8(Gpr::R3, Gpr::R4)];
        let (out, _) = instrument(&code, &ShiftOptions::baseline(Granularity::Byte));
        assert!(!out.iter().any(|i| matches!(i.op, COp::Isa(Op::Tnat { .. }))));
        // Clean 8-byte store keeps the plain st8 form.
        assert!(out
            .iter()
            .any(|i| matches!(i.op, COp::Isa(Op::St { size: MemSize::B8, src: Gpr::R3, .. }))));
    }

    #[test]
    fn glue_is_not_instrumented() {
        let code = vec![st8(Gpr::R3, Gpr::R4).glued()];
        let (out, stats) = instrument(&code, &ShiftOptions::baseline(Granularity::Byte));
        assert_eq!(out.len(), 1);
        assert_eq!(stats.stores, 0);
    }

    #[test]
    fn sanitize_markers_expand_on_baseline() {
        let code = vec![CInsn::isa(Op::Tclr { dst: Gpr::R3 })];
        let (base, s) = instrument(&code, &ShiftOptions::baseline(Granularity::Byte));
        assert_eq!(s.sanitizes, 1);
        assert!(base.len() > 1, "baseline must launder instead of tclr");

        let mut opts = ShiftOptions::baseline(Granularity::Byte);
        opts.set_clr = true;
        let (enh, _) = instrument(&code, &opts);
        assert_eq!(enh.len(), 1);
    }

    #[test]
    fn clean_tracking_resets_at_labels() {
        let code = vec![
            CInsn::isa(Op::MovI { dst: Gpr::R3, imm: 5 }),
            CInsn::new(COp::Bind(crate::vcode::Label(1))),
            CInsn::isa(Op::CmpI {
                rel: CmpRel::Eq,
                pt: Pr::P1,
                pf: Pr::P2,
                src1: Gpr::R3,
                imm: 0,
                nat_aware: false,
            }),
        ];
        let (_, s) = instrument(&code, &ShiftOptions::baseline(Granularity::Byte));
        // After the label, r3 may have been written by a predecessor: relax.
        assert_eq!(s.cmps_relaxed, 1);
    }
}
