//! Liveness analysis and linear-scan register allocation.
//!
//! Liveness is a backward fixed point over dense bitsets of
//! `LoweredFn::nvregs` bits per block, and linear scan runs over live
//! intervals, assignments and spill slots indexed by vreg: no hashing.
//!
//! The pool is `r1–r7, r9–r11, r13–r15` (13 registers). `r16–r23`/`r8` are ABI
//! registers used only in marshalling moves emitted by lowering, `r24–r27`
//! are reserved for spill glue and `b0` save/restore, and `r28–r31` belong to
//! the SHIFT instrumentation pass (the paper reserves scratch inside GCC's
//! post-allocation phase the same way).
//!
//! All allocatable registers are caller-saved: any live range that crosses a
//! call is assigned a stack slot instead of a register. Spill traffic uses
//! `st8.spill`/`ld8.fill`, so spilling a *tainted* value round-trips its NaT
//! bit through the banked spill bits — the property that makes SHIFT's
//! register-taint tracking survive register pressure (§4.1's discussion of
//! `UNAT`).

use shift_ir::VReg;
use shift_isa::{AluOp, Br, Gpr, MemSize, Op, Pr};

use crate::vcode::{epilogue_label, guard_label, CInsn, COp, LoweredFn, VR};

/// The register pool handed out by the allocator, in preferred order.
/// `r12` (sp), `r16–r23`/`r8` (ABI), `r24–r27` (glue) and `r28–r31`
/// (instrumentation) are excluded.
fn pool() -> Vec<Gpr> {
    vec![
        Gpr::R15,
        Gpr::R14,
        Gpr::R13,
        Gpr::R11,
        Gpr::R10,
        Gpr::R9,
        Gpr::R7,
        Gpr::R6,
        Gpr::R5,
        Gpr::R4,
        Gpr::R3,
        Gpr::R2,
        Gpr::R1,
    ]
}

/// Address temporary for spill-slot access.
pub const ADDR_TMP: Gpr = Gpr::R24;
/// First reload temporary for spilled operands (also `b0` save shuttle).
pub const USE_TMP0: Gpr = Gpr::R25;
/// Second reload temporary for spilled operands.
pub const USE_TMP1: Gpr = Gpr::R26;
/// Definition temporary for spilled results.
pub const DEF_TMP: Gpr = Gpr::R27;

/// An allocated function: physical code, flattened with `Bind` markers,
/// prologue and epilogue attached.
#[derive(Clone, Debug)]
pub struct AllocatedFn {
    /// Function name.
    pub name: String,
    /// Flat physical code.
    pub code: Vec<CInsn<Gpr>>,
    /// Final frame size in bytes (16-aligned).
    pub frame_size: u64,
    /// Number of virtual registers spilled to the frame.
    pub spill_count: usize,
}

/// Allocates registers for a lowered function and attaches the frame.
pub fn allocate(f: &LoweredFn) -> AllocatedFn {
    // ---- position numbering -------------------------------------------
    let mut pos = 0usize;
    let mut block_range = Vec::with_capacity(f.blocks.len());
    let mut call_positions = Vec::new();
    for block in &f.blocks {
        let start = pos;
        for insn in block {
            if matches!(insn.op, COp::Call(_)) {
                call_positions.push(pos);
            }
            pos += 1;
        }
        block_range.push((start, pos.max(start + 1) - 1));
    }

    // ---- per-block gen/kill -------------------------------------------
    // Sets are dense over the vregs: block `b` owns words `row(b)`.
    let nblocks = f.blocks.len();
    let words = (f.nvregs as usize).div_ceil(64);
    let row = |b: usize| b * words..(b + 1) * words;
    let mut gen = vec![0u64; nblocks * words];
    // A block's kill set doubles as its "defined so far" set.
    let mut kill = vec![0u64; nblocks * words];
    for (b, block) in f.blocks.iter().enumerate() {
        let (gen, kill) = (&mut gen[row(b)], &mut kill[row(b)]);
        for insn in block {
            for u in insn.uses() {
                if let VR::V(v) = u {
                    let (w, m) = bit(v);
                    if kill[w] & m == 0 {
                        gen[w] |= m;
                    }
                }
            }
            if let Some(VR::V(v)) = insn.def() {
                // Predicated definitions may leave the old value visible, so
                // they do not kill liveness.
                if insn.qp == Pr::P0 {
                    let (w, m) = bit(v);
                    kill[w] |= m;
                }
            }
        }
    }

    // ---- iterative liveness -------------------------------------------
    let mut live_in = vec![0u64; nblocks * words];
    let mut live_out = vec![0u64; nblocks * words];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nblocks).rev() {
            for w in 0..words {
                let out = f.succs[b].iter().fold(0, |o, &s| o | live_in[s * words + w]);
                let i = b * words + w;
                let inn = (out & !kill[i]) | gen[i];
                if inn != live_in[i] || out != live_out[i] {
                    changed = true;
                    live_in[i] = inn;
                    live_out[i] = out;
                }
            }
        }
    }

    // ---- intervals ------------------------------------------------------
    // `(start, end)` per vreg; `ABSENT` widens to `(p, p)` on first extend.
    const ABSENT: (usize, usize) = (usize::MAX, 0);
    let mut ivs = vec![ABSENT; f.nvregs as usize];
    let extend = |ivs: &mut [(usize, usize)], v: usize, p: usize| {
        ivs[v] = (ivs[v].0.min(p), ivs[v].1.max(p));
    };
    let mut pos = 0usize;
    for (b, block) in f.blocks.iter().enumerate() {
        let (bs, be) = block_range[b];
        for v in bits(&live_in[row(b)]) {
            extend(&mut ivs, v, bs);
        }
        for v in bits(&live_out[row(b)]) {
            extend(&mut ivs, v, be);
        }
        for insn in block {
            for u in insn.uses() {
                if let VR::V(v) = u {
                    extend(&mut ivs, v.index(), pos);
                }
            }
            if let Some(VR::V(v)) = insn.def() {
                extend(&mut ivs, v.index(), pos);
            }
            pos += 1;
        }
    }

    // ---- linear scan ----------------------------------------------------
    let mut intervals: Vec<usize> = (0..ivs.len()).filter(|&v| ivs[v] != ABSENT).collect();
    intervals.sort_by_key(|&v| (ivs[v].0, v));

    let mut assignment: Vec<Option<Gpr>> = vec![None; ivs.len()];
    let mut slots: Vec<Option<usize>> = vec![None; ivs.len()];
    let mut next_slot = 0usize;
    let alloc_slot = |slots: &mut [Option<usize>], v: usize, next: &mut usize| {
        slots[v] = Some(*next);
        *next += 1;
    };

    let mut free = pool();
    // (end, vreg, reg), kept sorted by end ascending; among equal ends, in
    // insertion order.
    let mut active: Vec<(usize, usize, Gpr)> = Vec::with_capacity(free.len());
    let insert = |active: &mut Vec<(usize, usize, Gpr)>, entry: (usize, usize, Gpr)| {
        let at = active.partition_point(|a| a.0 <= entry.0);
        active.insert(at, entry);
    };

    for &v in &intervals {
        let (s, e) = ivs[v];
        // Expire finished intervals: a prefix of `active`, freed in order.
        let expired = active.partition_point(|a| a.0 < s);
        free.extend(active.drain(..expired).map(|a| a.2));
        // Call-crossing values live in the frame (all regs are caller-saved).
        // `call_positions` is ascending: count the calls at or before `s`,
        // and the next one, if any, is the first candidate inside `(s, e)`.
        let next_call = call_positions.partition_point(|&c| c <= s);
        if call_positions.get(next_call).is_some_and(|&c| c < e) {
            alloc_slot(&mut slots, v, &mut next_slot);
            continue;
        }
        if let Some(r) = free.pop() {
            assignment[v] = Some(r);
            insert(&mut active, (e, v, r));
        } else if let Some(last) = active.last().copied() {
            if last.0 > e {
                // Steal from the interval that ends furthest away.
                assignment[last.1] = None;
                alloc_slot(&mut slots, last.1, &mut next_slot);
                active.pop();
                assignment[v] = Some(last.2);
                insert(&mut active, (e, v, last.2));
            } else {
                alloc_slot(&mut slots, v, &mut next_slot);
            }
        } else {
            alloc_slot(&mut slots, v, &mut next_slot);
        }
    }

    // ---- frame layout ---------------------------------------------------
    let spill_base = f.locals_size;
    let b0_off = spill_base + 8 * next_slot as u64;
    let raw = b0_off + if f.has_calls { 8 } else { 0 };
    let frame_size = raw.div_ceil(16) * 16;
    let slot_off = |slot: usize| (spill_base + 8 * slot as u64) as i64;

    // ---- rewrite ----------------------------------------------------------
    let mut code: Vec<CInsn<Gpr>> = Vec::new();

    // Prologue.
    if frame_size > 0 {
        code.push(
            CInsn::isa(Op::AluI {
                op: AluOp::Add,
                dst: Gpr::SP,
                src1: Gpr::SP,
                imm: -(frame_size as i64),
            })
            .glued(),
        );
    }
    if f.has_calls {
        code.push(CInsn::isa(Op::MovFromBr { dst: USE_TMP0, br: Br::B0 }).glued());
        code.push(
            CInsn::isa(Op::AluI {
                op: AluOp::Add,
                dst: ADDR_TMP,
                src1: Gpr::SP,
                imm: b0_off as i64,
            })
            .glued(),
        );
        code.push(CInsn::isa(Op::St { size: MemSize::B8, src: USE_TMP0, addr: ADDR_TMP }).glued());
    }

    let map_reg = |vr: VR, spilled_uses: &mut Vec<(Gpr, usize)>| -> Gpr {
        match vr {
            VR::P(g) => g,
            VR::V(v) => {
                if let Some(r) = assignment[v.index()] {
                    r
                } else {
                    let slot = slots[v.index()].expect("spill slot");
                    // Reuse a tmp if this vreg already got one this insn.
                    if let Some(&(t, _)) = spilled_uses.iter().find(|&&(_, s)| s == slot) {
                        t
                    } else {
                        // The first spilled use reloads into `USE_TMP0`.
                        let tmps = [USE_TMP0, USE_TMP1];
                        let t = *tmps.get(spilled_uses.len()).expect("at most two spilled uses");
                        spilled_uses.push((t, slot));
                        t
                    }
                }
            }
        }
    };

    let epi = epilogue_label(f);
    for (b, block) in f.blocks.iter().enumerate() {
        code.push(CInsn::new(COp::Bind(crate::vcode::Label(b as u32))));
        for insn in block {
            let mut spilled_uses: Vec<(Gpr, usize)> = Vec::new();
            let mut def_spill: Option<usize> = None;

            // Map the operation register by register.
            let op: COp<Gpr> = match &insn.op {
                COp::Bind(l) => COp::Bind(*l),
                COp::Jmp(l) => COp::Jmp(*l),
                COp::Call(n) => COp::Call(n.clone()),
                COp::ChkS(r, l) => COp::ChkS(map_reg(*r, &mut spilled_uses), l.to_owned()),
                COp::Isa(op) => COp::Isa(map_op(op, |vr, is_def| {
                    if is_def {
                        match vr {
                            VR::P(g) => g,
                            VR::V(v) => {
                                if let Some(r) = assignment[v.index()] {
                                    r
                                } else {
                                    def_spill = Some(slots[v.index()].expect("spill slot"));
                                    DEF_TMP
                                }
                            }
                        }
                    } else {
                        map_reg(vr, &mut spilled_uses)
                    }
                })),
            };

            // Reloads before the instruction.
            for &(tmp, slot) in &spilled_uses {
                code.push(
                    CInsn::isa(Op::AluI {
                        op: AluOp::Add,
                        dst: ADDR_TMP,
                        src1: Gpr::SP,
                        imm: slot_off(slot),
                    })
                    .glued(),
                );
                code.push(CInsn::isa(Op::LdFill { dst: tmp, addr: ADDR_TMP }).glued());
            }

            code.push(CInsn { qp: insn.qp, op, prov: insn.prov, glue: insn.glue });

            // Spill store after the instruction (same predicate).
            if let Some(slot) = def_spill {
                code.push(
                    CInsn::isa(Op::AluI {
                        op: AluOp::Add,
                        dst: ADDR_TMP,
                        src1: Gpr::SP,
                        imm: slot_off(slot),
                    })
                    .glued(),
                );
                code.push(
                    CInsn::isa(Op::StSpill { src: DEF_TMP, addr: ADDR_TMP }).under(insn.qp).glued(),
                );
            }
        }
    }

    // Drop a trailing unconditional jump straight into the epilogue.
    if let Some(last) = code.last() {
        if last.qp == Pr::P0 && last.op == COp::Jmp(epi) {
            code.pop();
        }
    }

    // Epilogue.
    code.push(CInsn::new(COp::Bind(epi)));
    if f.has_calls {
        code.push(
            CInsn::isa(Op::AluI {
                op: AluOp::Add,
                dst: ADDR_TMP,
                src1: Gpr::SP,
                imm: b0_off as i64,
            })
            .glued(),
        );
        code.push(
            CInsn::isa(Op::Ld {
                size: MemSize::B8,
                ext: shift_isa::ExtKind::Zero,
                dst: USE_TMP0,
                addr: ADDR_TMP,
                spec: false,
            })
            .glued(),
        );
        code.push(CInsn::isa(Op::MovToBr { br: Br::B0, src: USE_TMP0 }).glued());
    }
    if frame_size > 0 {
        code.push(
            CInsn::isa(Op::AluI {
                op: AluOp::Add,
                dst: Gpr::SP,
                src1: Gpr::SP,
                imm: frame_size as i64,
            })
            .glued(),
        );
    }
    code.push(CInsn::isa(Op::JmpBr { br: Br::B0 }).glued());

    // Guard-recovery stub: raise a user-level alert. The `alert` runtime
    // call never returns, but a halt backstops it.
    if f.uses_guard {
        code.push(CInsn::new(COp::Bind(guard_label(f))));
        code.push(
            CInsn::isa(Op::Syscall { num: shift_isa::sys::ALERT })
                .with_prov(shift_isa::Provenance::Check)
                .glued(),
        );
        code.push(CInsn::isa(Op::Halt).glued());
    }

    AllocatedFn { name: f.name.clone(), code, frame_size, spill_count: next_slot }
}

/// Word index and mask of vreg `v` in a dense set.
fn bit(v: VReg) -> (usize, u64) {
    (v.index() / 64, 1 << (v.index() % 64))
}

/// The vreg indices in a dense set, ascending.
fn bits(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word), |&rest| Some(rest & rest.wrapping_sub(1)))
            .take_while(|&rest| rest != 0)
            .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
    })
}

/// Maps every register operand of an ISA op; `is_def` distinguishes the
/// written register.
fn map_op<A: Copy, B>(op: &Op<A>, mut m: impl FnMut(A, bool) -> B) -> Op<B> {
    match *op {
        Op::Alu { op: o, dst, src1, src2 } => {
            let (s1, s2) = (m(src1, false), m(src2, false));
            Op::Alu { op: o, dst: m(dst, true), src1: s1, src2: s2 }
        }
        Op::AluI { op: o, dst, src1, imm } => {
            let s1 = m(src1, false);
            Op::AluI { op: o, dst: m(dst, true), src1: s1, imm }
        }
        Op::MovI { dst, imm } => Op::MovI { dst: m(dst, true), imm },
        Op::Mov { dst, src } => {
            let s = m(src, false);
            Op::Mov { dst: m(dst, true), src: s }
        }
        Op::Ext { kind, size, dst, src } => {
            let s = m(src, false);
            Op::Ext { kind, size, dst: m(dst, true), src: s }
        }
        Op::Cmp { rel, pt, pf, src1, src2, nat_aware } => {
            Op::Cmp { rel, pt, pf, src1: m(src1, false), src2: m(src2, false), nat_aware }
        }
        Op::CmpI { rel, pt, pf, src1, imm, nat_aware } => {
            Op::CmpI { rel, pt, pf, src1: m(src1, false), imm, nat_aware }
        }
        Op::Ld { size, ext, dst, addr, spec } => {
            let a = m(addr, false);
            Op::Ld { size, ext, dst: m(dst, true), addr: a, spec }
        }
        Op::St { size, src, addr } => Op::St { size, src: m(src, false), addr: m(addr, false) },
        Op::StSpill { src, addr } => Op::StSpill { src: m(src, false), addr: m(addr, false) },
        Op::LdFill { dst, addr } => {
            let a = m(addr, false);
            Op::LdFill { dst: m(dst, true), addr: a }
        }
        Op::ChkS { src, target } => Op::ChkS { src: m(src, false), target },
        Op::Jmp { target } => Op::Jmp { target },
        Op::Call { link, target } => Op::Call { link, target },
        Op::JmpBr { br } => Op::JmpBr { br },
        Op::MovToBr { br, src } => Op::MovToBr { br, src: m(src, false) },
        Op::MovFromBr { dst, br } => Op::MovFromBr { dst: m(dst, true), br },
        Op::Tnat { pt, pf, src } => Op::Tnat { pt, pf, src: m(src, false) },
        Op::Tset { dst } => Op::Tset { dst: m(dst, true) },
        Op::Tclr { dst } => Op::Tclr { dst: m(dst, true) },
        Op::Syscall { num } => Op::Syscall { num },
        Op::Nop => Op::Nop,
        Op::Halt => Op::Halt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_fn;
    use shift_ir::{ProgramBuilder, Rhs};
    use shift_isa::CmpRel;

    fn alloc(build: impl FnOnce(&mut shift_ir::FnBuilder)) -> AllocatedFn {
        let mut pb = ProgramBuilder::new();
        pb.func("f", 0, build);
        pb.func("callee", 1, |f| f.ret(None));
        let p = pb.build().unwrap();
        allocate(&lower_fn(p.func("f").unwrap(), &Default::default()).unwrap())
    }

    fn physical_regs(f: &AllocatedFn) -> Vec<Gpr> {
        let mut out = Vec::new();
        for i in &f.code {
            if let Some(d) = i.def() {
                out.push(d);
            }
            out.extend(i.uses());
        }
        out
    }

    #[test]
    fn simple_fn_uses_only_legal_registers() {
        let f = alloc(|f| {
            let a = f.iconst(1);
            let b = f.iconst(2);
            let c = f.add(a, b);
            f.ret(Some(c));
        });
        assert_eq!(f.spill_count, 0);
        for r in physical_regs(&f) {
            assert!(!r.is_scratch(), "instrumentation scratch {r} must never be allocated");
        }
    }

    #[test]
    fn high_pressure_spills_and_reloads() {
        // 20 simultaneously-live values exceed the 13-register pool.
        let f = alloc(|f| {
            let vals: Vec<_> = (0..20).map(|i| f.iconst(i)).collect();
            let mut acc = vals[0];
            // Keep them all live until the end by summing in reverse.
            for v in vals.iter().rev() {
                acc = f.add(acc, *v);
            }
            f.ret(Some(acc));
        });
        assert!(f.spill_count > 0, "expected spills under register pressure");
        let has_fill = f.code.iter().any(|i| matches!(i.op, COp::Isa(Op::LdFill { .. })));
        let has_spill = f.code.iter().any(|i| matches!(i.op, COp::Isa(Op::StSpill { .. })));
        assert!(has_fill && has_spill, "spill traffic must use st8.spill/ld8.fill");
    }

    #[test]
    fn call_crossing_values_are_spilled() {
        let f = alloc(|f| {
            let a = f.iconst(7);
            let arg = f.iconst(0);
            f.call_void("callee", &[arg]);
            // `a` is live across the call: must come from the frame.
            f.ret(Some(a));
        });
        assert!(f.spill_count >= 1);
        assert!(f.frame_size >= 16);
        // b0 must be saved and restored.
        let saves =
            f.code.iter().filter(|i| matches!(i.op, COp::Isa(Op::MovFromBr { .. }))).count();
        let restores =
            f.code.iter().filter(|i| matches!(i.op, COp::Isa(Op::MovToBr { .. }))).count();
        assert_eq!((saves, restores), (1, 1));
    }

    #[test]
    fn leaf_fn_has_no_b0_traffic() {
        let f = alloc(|f| {
            let v = f.iconst(0);
            f.ret(Some(v));
        });
        assert!(!f.code.iter().any(|i| matches!(
            i.op,
            COp::Isa(Op::MovFromBr { .. }) | COp::Isa(Op::MovToBr { .. })
        )));
        // Still returns through b0.
        assert!(matches!(f.code.last().unwrap().op, COp::Isa(Op::JmpBr { br: Br::B0 })));
    }

    #[test]
    fn frame_is_16_aligned() {
        let f = alloc(|f| {
            let l = f.local(24);
            let p = f.local_addr(l);
            f.ret(Some(p));
        });
        assert_eq!(f.frame_size % 16, 0);
        assert!(f.frame_size >= 24);
    }

    #[test]
    fn loop_carried_value_stays_in_a_register() {
        // A tight counting loop in a leaf function should allocate the
        // counter, producing zero spill traffic.
        let f = alloc(|f| {
            let i = f.iconst(0);
            f.while_cmp(
                |f| (CmpRel::Lt, f.use_of(i), Rhs::Imm(100)),
                |f| {
                    let n = f.addi(i, 1);
                    f.assign(i, n);
                },
            );
            f.ret(Some(i));
        });
        assert_eq!(f.spill_count, 0, "leaf loop counters must not spill:\n{:#?}", f.code);
    }
}
