//! Pre-decoded superblock program: basic blocks lowered once into micro-ops,
//! then chained into traces in a flat arena for the trace-threaded dispatch
//! tier.
//!
//! The per-instruction dispatcher in [`crate::Machine`] pays fixed costs on
//! every instruction: a bounds-checked fetch from `code`, a budget compare,
//! an `ip` store, a second match on the op for its base cost, and four
//! read-modify-writes into [`crate::Stats`]. A [`BlockProgram`] removes all
//! of them from straight-line code: every basic block is decoded **once**
//! (at [`crate::MachineSeed`] build time) into uniform [`MicroOp`]s whose
//! qualifying predicate, provenance label, and base cycle cost ride
//! alongside the operation. Each block then starts a *trace* that
//! continues through unpredicated direct `jmp`s and fall-throughs into the
//! next leader, so one dispatch runs a whole chain of blocks. The executor
//! walks a trace's blocks with plain slice iterators, folding retire
//! accounting into stack-local accumulators that are flushed exactly once
//! per trace.
//! Decoding also specialises each operation and fuses the SHIFT pass's
//! fixed instrumentation templates (the Figure-4 tag-address sequence, its
//! bit-index form, the store tag merge, and the relax launder) into one
//! micro-op each, so the executor dispatches once per template instead of
//! once per instruction.
//!
//! Everything here is a **host-speed detail**: a superblock executes the
//! same architectural steps, charges the same modelled cycles, and raises
//! the same faults as the per-instruction stepper, instruction for
//! instruction. The differential proptests in
//! `crates/machine/tests/block_props.rs` and the golden fixture in
//! `tests/perf_invariance.rs` enforce this bit-identity.
//!
//! See DESIGN.md §13 for the discovery rules, the boundary-check contract,
//! and the dispatch-tier diagram.

use shift_isa::{AluOp, Br, CmpRel, ExtKind, Gpr, Insn, MemSize, Op, Pr, Provenance};

use crate::COST;

/// Number of provenance labels (accumulator array width).
pub(crate) const NPROV: usize = Provenance::ALL.len();

/// Longest trace, in instructions. A trace stops growing before it would
/// pass the cap, and a longer straight-line run splits into consecutive
/// basic blocks. The cap bounds the entry guard's horizon: a trace longer
/// than the fuel or budget left is refused whole, and the stepper runs
/// until the next leader.
const MAX_TRACE_LEN: usize = 256;

/// A decoded instruction in the superblock arena.
///
/// "Uniform" means every field the executor needs is pre-resolved here, in
/// one contiguous record: the pre-specialised [`Kind`] (whose register
/// operands are already architectural indices — `Gpr`/`Pr`/`Br` are
/// `repr(u8)`), the qualifying predicate, the provenance label for cycle
/// attribution, and the summed base cycle cost that the per-instruction
/// stepper would re-derive from `CostModel::base`. The executor never
/// touches `code` or the cost model while inside a trace.
///
/// A micro-op covers `n` consecutive instructions starting at instruction
/// index `off`: one for a plain instruction, the whole template for a
/// fused one. Fault `ip`s, `call` link values, and partial settlement all
/// derive from `off` and `n`, so neither fusion nor trace formation ever
/// shifts an architectural instruction index.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MicroOp {
    /// The pre-specialised operation.
    pub kind: Kind,
    /// Qualifying predicate (architectural index; `p0` = always execute).
    /// Fused micro-ops are always unpredicated.
    pub qp: Pr,
    /// Provenance label for retire attribution (shared by every covered
    /// instruction).
    pub prov: Provenance,
    /// Number of instructions covered.
    pub n: u8,
    /// Sum of the covered instructions' *effective* base cycles:
    /// `CostModel::base`, except that unconditional control transfers
    /// (`jmp`, `call`, `jmp.br`) carry `branch_taken` — inside a trace they
    /// always take, so the executor need not special-case them at retire
    /// time. The largest sum the cost model produces (a `syscall`, or the
    /// ten-instruction bit-index template) fits a byte.
    pub base: u8,
    /// Instruction index of the first covered instruction.
    pub off: u32,
}

// Fusion must not grow the arena: operands of fused templates live in the
// side tables of `BlockProgram`, not in the record.
const _: () = assert!(std::mem::size_of::<MicroOp>() == 24);

/// A micro-op's operation, specialised at decode time.
///
/// The ALU operation and its register/immediate form are part of the
/// kind, so the executor dispatches once per micro-op instead of matching
/// an [`Op`] and then an [`AluOp`]. Writes to `r0` decode to [`Kind::Nop`]
/// (they are architecturally discarded), the self-cancelling `xor/sub r,r`
/// idiom decodes to a NaT-clearing `MovI 0`, and `sub` by an immediate
/// decodes to `add` of its negation — so every destination in a
/// register-writing kind is a real register. The last four kinds are the
/// fused instrumentation templates (see [`BlockProgram::build`]).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Kind {
    /// No architectural effect (`nop`, a register write to `r0`, or a
    /// `jmp` the trace continues through).
    Nop,
    /// `dst = a + b` (NaT-or).
    Add { dst: Gpr, a: Gpr, b: Gpr },
    /// `dst = a - b`.
    Sub { dst: Gpr, a: Gpr, b: Gpr },
    /// `dst = a & b`.
    And { dst: Gpr, a: Gpr, b: Gpr },
    /// `dst = a | b`.
    Or { dst: Gpr, a: Gpr, b: Gpr },
    /// `dst = a ^ b`.
    Xor { dst: Gpr, a: Gpr, b: Gpr },
    /// `dst = a << b`.
    Shl { dst: Gpr, a: Gpr, b: Gpr },
    /// `dst = a >> b` (logical).
    Shr { dst: Gpr, a: Gpr, b: Gpr },
    /// `dst = a >> b` (arithmetic).
    Sar { dst: Gpr, a: Gpr, b: Gpr },
    /// `dst = a * b`.
    Mul { dst: Gpr, a: Gpr, b: Gpr },
    /// `dst = a + imm` (also `sub` by an immediate, negated).
    AddI { dst: Gpr, a: Gpr, imm: u64 },
    /// `dst = a & imm`.
    AndI { dst: Gpr, a: Gpr, imm: u64 },
    /// `dst = a | imm`.
    OrI { dst: Gpr, a: Gpr, imm: u64 },
    /// `dst = a ^ imm`.
    XorI { dst: Gpr, a: Gpr, imm: u64 },
    /// `dst = a << imm`.
    ShlI { dst: Gpr, a: Gpr, imm: u64 },
    /// `dst = a >> imm` (logical).
    ShrI { dst: Gpr, a: Gpr, imm: u64 },
    /// `dst = a >> imm` (arithmetic).
    SarI { dst: Gpr, a: Gpr, imm: u64 },
    /// `dst = a * imm`.
    MulI { dst: Gpr, a: Gpr, imm: u64 },
    /// `dst = imm`, NaT clear.
    MovI { dst: Gpr, imm: u64 },
    /// `dst = src`, NaT included.
    Mov { dst: Gpr, src: Gpr },
    /// Sign/zero extension.
    Ext { kind: ExtKind, size: MemSize, dst: Gpr, src: Gpr },
    /// Register compare into a predicate pair.
    Cmp { rel: CmpRel, pt: Pr, pf: Pr, a: Gpr, b: Gpr, nat_aware: bool },
    /// Immediate compare into a predicate pair.
    CmpI { rel: CmpRel, pt: Pr, pf: Pr, a: Gpr, imm: u64, nat_aware: bool },
    /// Load (`dst` may be `r0`: the access still happens).
    Ld { size: MemSize, ext: ExtKind, dst: Gpr, addr: Gpr, spec: bool },
    /// Store.
    St { size: MemSize, src: Gpr, addr: Gpr },
    /// `st8.spill`.
    StSpill { src: Gpr, addr: Gpr },
    /// `ld8.fill` (`dst` may be `r0`).
    LdFill { dst: Gpr, addr: Gpr },
    /// `chk.s`.
    ChkS { src: Gpr, target: usize },
    /// Direct jump.
    Jmp { target: usize },
    /// Direct call.
    Call { link: Br, target: usize },
    /// Indirect jump.
    JmpBr { br: Br },
    /// GPR to branch register (faults on NaT).
    MovToBr { br: Br, src: Gpr },
    /// Branch register to GPR.
    MovFromBr { dst: Gpr, br: Br },
    /// NaT test into a predicate pair.
    Tnat { pt: Pr, pf: Pr, src: Gpr },
    /// Set a NaT bit.
    Tset { dst: Gpr },
    /// Clear a NaT bit.
    Tclr { dst: Gpr },
    /// Runtime trap.
    Syscall { num: u32 },
    /// Stop.
    Halt,
    /// The 7-instruction Figure-4 tag-address sequence; operands at
    /// [`BlockProgram::tag_addrs`]`[i]`.
    TagAddr(u32),
    /// The 10-instruction bit-index form: the tag address plus the
    /// `and 7; movl mask; shl` tail; operands at
    /// [`BlockProgram::tag_addrs`]`[i]`.
    TagAddrBit(u32),
    /// The 4-instruction store tag merge; operands at
    /// [`BlockProgram::merges`]`[i]`.
    TagMerge(u32),
    /// The 3- or 4-instruction relax launder; operands at
    /// [`BlockProgram::launders`]`[i]`.
    Launder(u32),
}

/// Operands of a fused tag-address template:
///
/// ```text
/// shr  s0 = addr, region_shift     and  s1 = s1, bit_mask    ┐ bit-index
/// add  s0 = s0, bias               movl s2 = width_mask      │ tail only
/// shl  s0 = s0, stride_shift       shl  s2 = s2, s1          ┘
/// movl s1 = impl_mask
/// and  s1 = addr, s1
/// shr  s2 = s1, gran_shift
/// or   s0 = s0, s2
/// ```
///
/// The scratch registers are distinct, none is `r0`, and `addr` is none of
/// them, so every result depends only on `addr`'s value and NaT — which
/// every result inherits. Immediates hold the `i64 as u64` operand the
/// ALU would see.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TagAddr {
    pub addr: Gpr,
    pub s0: Gpr,
    pub s1: Gpr,
    pub s2: Gpr,
    pub region_shift: u64,
    pub bias: u64,
    pub stride_shift: u64,
    pub impl_mask: u64,
    pub gran_shift: u64,
    /// Bit-index tail operands (unused by [`Kind::TagAddr`]).
    pub bit_mask: u64,
    pub width_mask: u64,
}

/// Operands of a fused store tag merge:
///
/// ```text
///      tnat pt, pf = src
/// (pt) or   t1 = t1, t2
/// (pf) xor  t2 = t2, imm
/// (pf) and  t1 = t1, t2
/// ```
///
/// `pt != pf`, neither is `p0`, so exactly one arm runs; `t1 != t2`,
/// neither is `r0`. The two deviations are the summed `pred_off − base`
/// charges of the members the taken arm squashes, precomputed so the
/// executor records one deviation per merge.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TagMerge {
    pub src: Gpr,
    pub pt: Pr,
    pub pf: Pr,
    pub t1: Gpr,
    pub t2: Gpr,
    pub imm: u64,
    /// Deviation when `src` is NaT (`xor` and `and` squashed).
    pub dev_tainted: u64,
    /// Deviation when `src` is clean (`or` squashed).
    pub dev_clean: u64,
}

/// Operands of a fused relax launder, the baseline NaT clearing of §4.1:
///
/// ```text
///     tnat     p, pf = r      ← 4-instruction form only
///     movl     t = slot
/// (p) st8.spill [t] = r
/// (p) ld8      r = [t]
/// ```
///
/// The spill banks `r`'s NaT bit and the plain reload drops it. The
/// 3-instruction form is what the store path emits after its tag merge:
/// it has no `tnat` and reuses the predicate the merge set. `t` is not
/// `r0`; in the 4-instruction form `p` is not `p0` and differs from `pf`,
/// so `p` ends up holding `r`'s NaT bit. This is the only fused template
/// with memory ops: a spill or reload that faults leaves `ip` on its own
/// member, and only the members up to it retire.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Launder {
    pub r: Gpr,
    pub t: Gpr,
    /// The predicate qualifying the spill and the reload.
    pub p: Pr,
    /// The `tnat`'s second target (unused by the 3-instruction form).
    pub pf: Pr,
    /// Members before the `movl`: 1 with a leading `tnat`, else 0.
    pub lead: u8,
    pub slot: u64,
    /// Deviation when `p` is off (spill and reload squashed).
    pub dev_clean: u64,
    /// Base cost of the reload, which never issues when the spill faults.
    pub reload_base: u8,
}

/// One entry of a trace's precomputed *full-pass* retire accounting:
/// `insns` instructions costing `cycles` cycles, attributed to provenance
/// index `prov`, assuming an undeviated pass (every predicate on, no memory
/// stalls, `chk.s` falling through). The executor merges these entries when
/// a trace completes and records only *deviations* from the assumption as
/// they happen, so conforming micro-ops retire with zero accounting work.
/// Traces touch a few provenance labels in practice, so the sparse form
/// merges in a couple of adds where a dense `[u64; NPROV]` merge would pay
/// for every label on every trace.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ProvAcct {
    /// `Provenance::index()` of the attributed label.
    pub prov: u8,
    /// Total base cycles for the entry's instructions.
    pub cycles: u32,
    /// Number of instructions attributed.
    pub insns: u32,
}

/// One trace: the basic block starting at a leader, followed by the blocks
/// it continues into (see [`BlockProgram::build`]). Control can only enter
/// at the top.
///
/// A basic block ends at the first control-transfer instruction (`jmp`,
/// `call`, `jmp.br`, `chk.s`, `halt`), at a `syscall` (the runtime gets
/// `&mut Machine` and may re-arm any boundary-checked state), just before
/// the next leader (an instruction some branch targets), or at the trace
/// cap.
#[derive(Clone, Debug)]
pub(crate) struct Block {
    /// Instruction index of the trace's first instruction (its leader).
    pub start: u32,
    /// First of the trace's micro-op ranges in [`BlockProgram::links`].
    pub link_start: u32,
    /// Number of micro-op ranges.
    pub link_len: u32,
    /// Number of instructions in the trace (the entry guard's unit).
    pub len: u32,
    /// Where control goes after the trace's last member block when its
    /// last micro-op transfers nowhere: the block's fall-through `ip`, or
    /// the target of its closing unpredicated `jmp` (which decodes to
    /// [`Kind::Nop`]).
    pub next_ip: u32,
    /// `true` when no instruction in the trace is predicated or has a
    /// dynamic cycle cost (memory stalls, `chk.s` outcomes) or can fault /
    /// trap mid-trace — so a full pass can never deviate from the
    /// precomputed accounting and the executor skips the predicate test.
    pub pure: bool,
    /// First entry of this trace's full-pass accounting in
    /// [`BlockProgram::accts`].
    pub acct_start: u32,
    /// Number of accounting entries (distinct provenance labels touched).
    pub acct_len: u32,
}

/// The whole code image pre-decoded into traces.
///
/// Built once per [`crate::MachineSeed`] and shared by every spawned
/// instance through `Arc` — decode cost is paid at load time, never on the
/// execution path. Guest code is immutable (`Arc<[Insn]>`; the ISA has no
/// code store, and self-modifying code is out of scope — DESIGN.md §12), so
/// the program can never go stale and has no invalidation path.
#[derive(Clone, Debug)]
pub(crate) struct BlockProgram {
    /// One trace per basic block, ordered by `start`.
    pub blocks: Box<[Block]>,
    /// The micro-op ranges every trace walks, in execution order: one per
    /// run of member blocks that lie back to back in `uops`. Trace `b` owns
    /// `links[b.link_start .. b.link_start + b.link_len]`, and each entry
    /// is a `(start, end)` range of `uops`.
    pub links: Box<[(u32, u32)]>,
    /// Flat micro-op arena: every basic block's micro-ops, once, in the
    /// build's layout order.
    pub uops: Box<[MicroOp]>,
    /// Sparse precomputed full-pass accounting; trace `b` owns
    /// `accts[b.acct_start .. b.acct_start + b.acct_len]`.
    pub accts: Box<[ProvAcct]>,
    /// Operands of every fused tag-address template, indexed by
    /// [`Kind::TagAddr`] / [`Kind::TagAddrBit`].
    pub tag_addrs: Box<[TagAddr]>,
    /// Operands of every fused store tag merge, indexed by
    /// [`Kind::TagMerge`].
    pub merges: Box<[TagMerge]>,
    /// Operands of every fused relax launder, indexed by
    /// [`Kind::Launder`].
    pub launders: Box<[Launder]>,
    /// Map from instruction index to its basic block's index (which is
    /// also the index of the trace that block starts).
    block_of: Box<[u32]>,
}

/// A basic block while [`BlockProgram::build`] chains traces: its
/// instruction span, where control goes after it, the block a trace
/// continues into from it, and its micro-ops and full-pass accounting in
/// the program's arenas.
struct Basic {
    start: u32,
    end: u32,
    /// The target of a closing unpredicated `jmp`, else `end`.
    next_ip: u32,
    /// The block control always reaches next, through an unpredicated
    /// direct `jmp` or by falling through into the next leader.
    succ: Option<u32>,
    /// The block ends in an unpredicated direct `jmp` to `next_ip`.
    via_jmp: bool,
    uops: (u32, u32),
    accts: (u32, u32),
    pure: bool,
}

impl BlockProgram {
    /// Decodes `code` into traces.
    ///
    /// Discovery is a single linear pass (plus a leader marking pass): a
    /// *leader* is the entry point, any static branch target (`jmp`, `call`,
    /// `chk.s` recovery), or the instruction after any block terminator —
    /// so every statically-known control transfer lands on a block start.
    /// Indirect targets (`jmp.br`) cannot be enumerated statically; an
    /// indirect jump into the middle of a block is legal and simply executes
    /// on the per-instruction fallback tier until it rejoins a leader.
    ///
    /// Each basic block lowers to micro-ops once, in one left-to-right pass
    /// that fuses the SHIFT instrumentation templates (the tag-address
    /// sequence, its bit-index form, the store tag merge, and the relax
    /// launder) wherever one matches structurally inside the block;
    /// everything else lowers one instruction per micro-op.
    ///
    /// Every basic block then starts one trace, which keeps going into the
    /// block control always reaches next: through an unpredicated direct
    /// `jmp` or by falling through into the next leader. Such a `jmp`
    /// always takes, so it decodes to a no-op at its folded `branch_taken`
    /// cost and its block records the target as its `next_ip`. A trace
    /// stops at a block already on it, at any other terminator (`call`
    /// included), or before it would pass `MAX_TRACE_LEN` instructions.
    /// A trace holds no micro-ops of its own: it links the micro-op ranges
    /// of its member blocks, which the executor walks in turn, so a block
    /// on many traces is still decoded and stored once and the arena is no
    /// larger than the blocks'. Blocks are lowered in a layout that keeps
    /// most traces one contiguous range. Building a trace allocates
    /// nothing.
    pub fn build(code: &[Insn]) -> BlockProgram {
        let n = code.len();
        let mut leader = vec![false; n + 1];
        leader[0] = true;
        for (ip, insn) in code.iter().enumerate() {
            match insn.op {
                Op::Jmp { target } | Op::Call { target, .. } | Op::ChkS { target, .. }
                    if target <= n =>
                {
                    leader[target] = true;
                }
                _ => {}
            }
            if is_terminator(&insn.op) {
                leader[ip + 1] = true;
            }
        }

        // Pass 1: the basic blocks, and the block each one continues into.
        let mut basics: Vec<Basic> = Vec::with_capacity(leader.iter().filter(|&&l| l).count());
        let mut block_of = vec![0u32; n];
        let mut start = 0usize;
        while start < n {
            // A block runs to the next leader; every terminator's successor
            // is a leader, so no block runs past a terminator.
            let mut end = start + 1;
            while end < n && !leader[end] && end - start < MAX_TRACE_LEN {
                end += 1;
            }
            block_of[start..end].fill(basics.len() as u32);
            let last = &code[end - 1];
            let (next_ip, via_jmp) = match last.op {
                Op::Jmp { target } if last.qp == Pr::P0 && target < n => (target, true),
                _ => (end, false),
            };
            // Control always reaches `next_ip` after a closing `jmp` or a
            // plain fall-through; a block that ends in any other
            // terminator (or the code) ends every trace it is on.
            let continues = via_jmp || (!is_terminator(&last.op) && end < n);
            basics.push(Basic {
                start: start as u32,
                end: end as u32,
                next_ip: next_ip as u32,
                // An instruction index for now; a block index below, once
                // every block exists.
                succ: continues.then_some(next_ip as u32),
                via_jmp,
                uops: (0, 0),
                accts: (0, 0),
                pure: true,
            });
            start = end;
        }
        for b in &mut basics {
            b.succ = b.succ.map(|ip| block_of[ip as usize]);
        }

        // Pass 2: lay the blocks out for the arena. Each unplaced block is
        // followed by the unplaced blocks its traces run into, so a trace
        // mostly walks one contiguous run of micro-ops. Blocks that close a
        // loop with a backward `jmp` go first: the loop's hot trace (the
        // closing block, then the loop head) is then one run, and the
        // trace that enters the loop from above takes the extra link.
        let nbb = basics.len();
        let mut placed = vec![false; nbb];
        let mut order = Vec::with_capacity(nbb);
        let closes_loop = |b: &u32| {
            basics[*b as usize].via_jmp && basics[*b as usize].succ.is_some_and(|s| s <= *b)
        };
        for first in (0..nbb as u32).filter(closes_loop).chain(0..nbb as u32) {
            let mut b = Some(first);
            while let Some(x) = b.filter(|&x| !placed[x as usize]) {
                placed[x as usize] = true;
                order.push(x);
                b = basics[x as usize].succ;
            }
        }

        // Pass 3: lower every basic block once, in layout order.
        let mut uops = Vec::with_capacity(n);
        let mut accts = Vec::with_capacity(basics.len() * 2);
        let mut tag_addrs = Vec::new();
        let mut merges = Vec::new();
        let mut launders = Vec::new();
        for &b in &order {
            let bb = &mut basics[b as usize];
            let (start, body) = (bb.start as usize, &code[bb.start as usize..bb.end as usize]);
            let uop_start = uops.len() as u32;
            let mut cycles_by_prov = [0u64; NPROV];
            let mut insns_by_prov = [0u64; NPROV];
            let mut off = 0usize;
            while off < body.len() {
                let rest = &body[off..];
                let (kind, len) = if let Some(m) = match_merge(rest) {
                    merges.push(m);
                    (Kind::TagMerge(merges.len() as u32 - 1), 4)
                } else if let Some(l) = match_launder(rest) {
                    launders.push(l);
                    (Kind::Launder(launders.len() as u32 - 1), usize::from(l.lead) + 3)
                } else if let Some((t, bit)) = match_tag_addr(rest) {
                    tag_addrs.push(t);
                    let i = tag_addrs.len() as u32 - 1;
                    if bit {
                        (Kind::TagAddrBit(i), 10)
                    } else {
                        (Kind::TagAddr(i), 7)
                    }
                } else if bb.via_jmp && off + 1 == body.len() {
                    // The closing `jmp` always takes, to the block's
                    // `next_ip`: it retires as a no-op at its folded cost.
                    (Kind::Nop, 1)
                } else {
                    (lower(rest[0].op), 1)
                };
                let mut base = 0u64;
                for insn in &rest[..len] {
                    // The full-pass accounting charges every instruction
                    // its effective base cost. Ops whose real cost can
                    // deviate from it — memory ops stall, `chk.s` outcome
                    // depends on NaT state, faulting/trapping ops end the
                    // trace early — and predicated ops (which may retire at
                    // `pred_off` instead) make the block impure: the
                    // executor then records the deviations as they happen,
                    // against this same baseline.
                    let deviates = matches!(
                        insn.op,
                        Op::Ld { .. }
                            | Op::St { .. }
                            | Op::StSpill { .. }
                            | Op::LdFill { .. }
                            | Op::ChkS { .. }
                            | Op::MovToBr { .. }
                            | Op::Syscall { .. }
                            | Op::Halt
                    );
                    if deviates || insn.qp != Pr::P0 {
                        bb.pure = false;
                    }
                    base += effective_cost(insn);
                }
                // A fused micro-op's members share one provenance.
                let prov = rest[0].prov;
                cycles_by_prov[prov.index()] += base;
                insns_by_prov[prov.index()] += len as u64;
                uops.push(MicroOp {
                    kind,
                    qp: rest[0].qp,
                    prov,
                    n: len as u8,
                    base: u8::try_from(base).expect("micro-op base cost fits u8"),
                    off: u32::try_from(start + off).expect("code index fits u32"),
                });
                off += len;
            }
            bb.uops = (uop_start, uops.len() as u32);
            let acct_start = accts.len() as u32;
            push_accts(&mut accts, &cycles_by_prov, &insns_by_prov);
            bb.accts = (acct_start, accts.len() as u32);
        }

        // Pass 4: chain each block's trace. `on_trace` stamps a block with
        // the head of the trace it was last put on, so the membership test
        // needs no clearing between traces. Members that follow one another
        // in the arena share one link. A one-block trace reuses its block's
        // accounting entries; a longer one sums its blocks'.
        let mut on_trace = vec![u32::MAX; nbb];
        let mut links: Vec<(u32, u32)> = Vec::with_capacity(nbb * 2);
        let mut blocks = Vec::with_capacity(nbb);
        for h in 0..nbb as u32 {
            let link_start = links.len() as u32;
            let mut cycles_by_prov = [0u64; NPROV];
            let mut insns_by_prov = [0u64; NPROV];
            let (mut b, mut len, mut pure, mut members) = (h, 0u32, true, 0);
            let tail = loop {
                let bb = &basics[b as usize];
                on_trace[b as usize] = h;
                match links.last_mut() {
                    Some(last) if members > 0 && last.1 == bb.uops.0 => last.1 = bb.uops.1,
                    _ => links.push(bb.uops),
                }
                members += 1;
                len += bb.end - bb.start;
                pure &= bb.pure;
                for a in &accts[bb.accts.0 as usize..bb.accts.1 as usize] {
                    cycles_by_prov[usize::from(a.prov)] += u64::from(a.cycles);
                    insns_by_prov[usize::from(a.prov)] += u64::from(a.insns);
                }
                match bb.succ {
                    Some(s)
                        if on_trace[s as usize] != h
                            && (len + basics[s as usize].end - basics[s as usize].start)
                                as usize
                                <= MAX_TRACE_LEN =>
                    {
                        b = s;
                    }
                    _ => break bb,
                }
            };
            let head = &basics[h as usize];
            let link_len = links.len() as u32 - link_start;
            let (acct_start, acct_end) = if members == 1 {
                head.accts
            } else {
                let at = accts.len() as u32;
                push_accts(&mut accts, &cycles_by_prov, &insns_by_prov);
                (at, accts.len() as u32)
            };
            blocks.push(Block {
                start: head.start,
                link_start,
                link_len,
                len,
                next_ip: tail.next_ip,
                pure,
                acct_start,
                acct_len: acct_end - acct_start,
            });
        }
        BlockProgram {
            blocks: blocks.into_boxed_slice(),
            links: links.into_boxed_slice(),
            uops: uops.into_boxed_slice(),
            accts: accts.into_boxed_slice(),
            tag_addrs: tag_addrs.into_boxed_slice(),
            merges: merges.into_boxed_slice(),
            launders: launders.into_boxed_slice(),
            block_of: block_of.into_boxed_slice(),
        }
    }

    /// The trace whose first instruction is `ip`, if any. Mid-block and
    /// out-of-range addresses return `None` (the caller falls back to the
    /// per-instruction tier, which raises `BadIp` for the latter).
    #[inline]
    pub fn block_starting_at(&self, ip: usize) -> Option<u32> {
        let &bid = self.block_of.get(ip)?;
        let blk = &self.blocks[bid as usize];
        (blk.start as usize == ip).then_some(bid)
    }

    /// Number of decoded traces (one per basic block).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

/// Appends the sparse full-pass accounting entries of a dense
/// per-provenance tally.
fn push_accts(accts: &mut Vec<ProvAcct>, cycles: &[u64; NPROV], insns: &[u64; NPROV]) {
    for p in 0..NPROV {
        if insns[p] != 0 {
            accts.push(ProvAcct {
                prov: p as u8,
                cycles: u32::try_from(cycles[p]).expect("trace cycle total fits u32"),
                insns: u32::try_from(insns[p]).expect("trace insn total fits u32"),
            });
        }
    }
}

/// Returns `true` when `op` always ends a basic block: control transfers
/// (the next instruction depends on machine state) and `syscall` (the
/// runtime may re-arm boundary-checked machine state mid-call).
fn is_terminator(op: &Op) -> bool {
    op.is_control() || matches!(op, Op::Syscall { .. })
}

/// `insn`'s retire cost on an undeviated pass through a trace.
/// Unconditional transfers always take inside a trace, so their effective
/// cost is `branch_taken`, not the fall-through cost the per-instruction
/// table carries.
fn effective_cost(insn: &Insn) -> u64 {
    match insn.op {
        Op::Jmp { .. } | Op::Call { .. } | Op::JmpBr { .. } => COST.branch_taken,
        _ => COST.base(&insn.op),
    }
}

/// Lowers one instruction to its specialised kind.
fn lower(op: Op) -> Kind {
    match op {
        Op::Alu { dst: Gpr::R0, .. }
        | Op::AluI { dst: Gpr::R0, .. }
        | Op::MovI { dst: Gpr::R0, .. }
        | Op::Mov { dst: Gpr::R0, .. }
        | Op::Ext { dst: Gpr::R0, .. }
        | Op::MovFromBr { dst: Gpr::R0, .. }
        | Op::Tset { dst: Gpr::R0 }
        | Op::Tclr { dst: Gpr::R0 }
        | Op::Nop => Kind::Nop,
        // xor r,r / sub r,r clear the value and the NaT bit (§3.2).
        Op::Alu { op: AluOp::Xor | AluOp::Sub, dst, src1, src2 } if src1 == src2 => {
            Kind::MovI { dst, imm: 0 }
        }
        Op::Alu { op, dst, src1: a, src2: b } => match op {
            AluOp::Add => Kind::Add { dst, a, b },
            AluOp::Sub => Kind::Sub { dst, a, b },
            AluOp::And => Kind::And { dst, a, b },
            AluOp::Or => Kind::Or { dst, a, b },
            AluOp::Xor => Kind::Xor { dst, a, b },
            AluOp::Shl => Kind::Shl { dst, a, b },
            AluOp::Shr => Kind::Shr { dst, a, b },
            AluOp::Sar => Kind::Sar { dst, a, b },
            AluOp::Mul => Kind::Mul { dst, a, b },
        },
        Op::AluI { op, dst, src1: a, imm } => {
            let imm = imm as u64;
            match op {
                AluOp::Add => Kind::AddI { dst, a, imm },
                AluOp::Sub => Kind::AddI { dst, a, imm: imm.wrapping_neg() },
                AluOp::And => Kind::AndI { dst, a, imm },
                AluOp::Or => Kind::OrI { dst, a, imm },
                AluOp::Xor => Kind::XorI { dst, a, imm },
                AluOp::Shl => Kind::ShlI { dst, a, imm },
                AluOp::Shr => Kind::ShrI { dst, a, imm },
                AluOp::Sar => Kind::SarI { dst, a, imm },
                AluOp::Mul => Kind::MulI { dst, a, imm },
            }
        }
        Op::MovI { dst, imm } => Kind::MovI { dst, imm: imm as u64 },
        Op::Mov { dst, src } => Kind::Mov { dst, src },
        Op::Ext { kind, size, dst, src } => Kind::Ext { kind, size, dst, src },
        Op::Cmp { rel, pt, pf, src1, src2, nat_aware } => {
            Kind::Cmp { rel, pt, pf, a: src1, b: src2, nat_aware }
        }
        Op::CmpI { rel, pt, pf, src1, imm, nat_aware } => {
            Kind::CmpI { rel, pt, pf, a: src1, imm: imm as u64, nat_aware }
        }
        Op::Ld { size, ext, dst, addr, spec } => Kind::Ld { size, ext, dst, addr, spec },
        Op::St { size, src, addr } => Kind::St { size, src, addr },
        Op::StSpill { src, addr } => Kind::StSpill { src, addr },
        Op::LdFill { dst, addr } => Kind::LdFill { dst, addr },
        Op::ChkS { src, target } => Kind::ChkS { src, target },
        Op::Jmp { target } => Kind::Jmp { target },
        Op::Call { link, target } => Kind::Call { link, target },
        Op::JmpBr { br } => Kind::JmpBr { br },
        Op::MovToBr { br, src } => Kind::MovToBr { br, src },
        Op::MovFromBr { dst, br } => Kind::MovFromBr { dst, br },
        Op::Tnat { pt, pf, src } => Kind::Tnat { pt, pf, src },
        Op::Tset { dst } => Kind::Tset { dst },
        Op::Tclr { dst } => Kind::Tclr { dst },
        Op::Syscall { num } => Kind::Syscall { num },
        Op::Halt => Kind::Halt,
    }
}

/// `true` when every instruction in `members` is unpredicated and shares
/// one provenance — the precondition for fusing them into one micro-op.
fn uniform(members: &[Insn]) -> bool {
    members.iter().all(|i| i.qp == Pr::P0 && i.prov == members[0].prov)
}

/// Matches the tag-address template at the head of `code` (see
/// [`TagAddr`]). Returns the operands and whether the bit-index tail
/// follows, or `None` when the head does not fuse. Constants are free, so
/// byte- and word-granularity sequences both match.
fn match_tag_addr(code: &[Insn]) -> Option<(TagAddr, bool)> {
    let head = code.get(..7)?;
    if !matches!(head[0].op, Op::AluI { op: AluOp::Shr, .. }) || !uniform(head) {
        return None;
    }
    let [Op::AluI { op: AluOp::Shr, dst: s0, src1: addr, imm: region_shift }, Op::AluI { op: AluOp::Add, dst: d1, src1: a1, imm: bias }, Op::AluI { op: AluOp::Shl, dst: d2, src1: a2, imm: stride_shift }, Op::MovI { dst: s1, imm: impl_mask }, Op::Alu { op: AluOp::And, dst: d4, src1: a4, src2: b4 }, Op::AluI { op: AluOp::Shr, dst: s2, src1: a5, imm: gran_shift }, Op::Alu { op: AluOp::Or, dst: d6, src1: a6, src2: b6 }] =
        [head[0].op, head[1].op, head[2].op, head[3].op, head[4].op, head[5].op, head[6].op]
    else {
        return None;
    };
    let wired =
        [d1, a1, d2, a2, d6, a6] == [s0; 6] && [d4, b4, a5] == [s1; 3] && a4 == addr && b6 == s2;
    let scratch = [s0, s1, s2];
    let distinct = s0 != s1 && s0 != s2 && s1 != s2;
    if !wired || !distinct || scratch.contains(&Gpr::R0) || scratch.contains(&addr) {
        return None;
    }
    let mut t = TagAddr {
        addr,
        s0,
        s1,
        s2,
        region_shift: region_shift as u64,
        bias: bias as u64,
        stride_shift: stride_shift as u64,
        impl_mask: impl_mask as u64,
        gran_shift: gran_shift as u64,
        bit_mask: 0,
        width_mask: 0,
    };
    let tail = code.get(..10).filter(|c| uniform(c)).map(|c| (c[7].op, c[8].op, c[9].op));
    if let Some((
        Op::AluI { op: AluOp::And, dst: d7, src1: a7, imm: bit_mask },
        Op::MovI { dst: d8, imm: width_mask },
        Op::Alu { op: AluOp::Shl, dst: d9, src1: a9, src2: b9 },
    )) = tail
    {
        if [d7, a7, b9] == [s1; 3] && [d8, d9, a9] == [s2; 3] {
            t.bit_mask = bit_mask as u64;
            t.width_mask = width_mask as u64;
            return Some((t, true));
        }
    }
    Some((t, false))
}

/// Matches the store tag merge at the head of `code` (see [`TagMerge`]).
fn match_merge(code: &[Insn]) -> Option<TagMerge> {
    let m = code.get(..4).filter(|m| matches!(m[0].op, Op::Tnat { .. }))?;
    let [Op::Tnat { pt, pf, src }, Op::Alu { op: AluOp::Or, dst: d1, src1: a1, src2: t2 }, Op::AluI { op: AluOp::Xor, dst: d2, src1: a2, imm }, Op::Alu { op: AluOp::And, dst: t1, src1: a3, src2: b3 }] =
        [m[0].op, m[1].op, m[2].op, m[3].op]
    else {
        return None;
    };
    let guarded = m[0].qp == Pr::P0 && m[1].qp == pt && m[2].qp == pf && m[3].qp == pf;
    let one_prov = m.iter().all(|i| i.prov == m[0].prov);
    let wired = [d1, a1, a3] == [t1; 3] && [d2, a2, b3] == [t2; 3];
    let distinct = pt != pf && pt != Pr::P0 && pf != Pr::P0 && t1 != t2;
    if !guarded || !one_prov || !wired || !distinct || t1 == Gpr::R0 || t2 == Gpr::R0 {
        return None;
    }
    let squash = |i: &Insn| COST.pred_off.wrapping_sub(effective_cost(i));
    Some(TagMerge {
        src,
        pt,
        pf,
        t1,
        t2,
        imm: imm as u64,
        dev_tainted: squash(&m[2]).wrapping_add(squash(&m[3])),
        dev_clean: squash(&m[1]),
    })
}

/// Matches the relax launder at the head of `code` (see [`Launder`]): the
/// 4-instruction form when `code` opens with a `tnat`, else the
/// 3-instruction form.
fn match_launder(code: &[Insn]) -> Option<Launder> {
    let lead = usize::from(matches!(code.first()?.op, Op::Tnat { .. }));
    let m = code.get(..lead + 3)?;
    // The spill is the rarest member: test it before unpacking the rest.
    if !matches!(m[lead + 1].op, Op::StSpill { .. }) {
        return None;
    }
    let (movl, spill, reload) = (&m[lead], &m[lead + 1], &m[lead + 2]);
    let (
        Op::MovI { dst: t, imm: slot },
        Op::StSpill { src: r, addr: a1 },
        Op::Ld { size: MemSize::B8, dst: r2, addr: a2, spec: false, .. },
    ) = (movl.op, spill.op, reload.op)
    else {
        return None;
    };
    let p = spill.qp;
    let mut pf = Pr::P0;
    if lead == 1 {
        let Op::Tnat { pt, pf: q, src } = m[0].op else { unreachable!("probed above") };
        if m[0].qp != Pr::P0 || src != r || pt != p || p == Pr::P0 || q == p {
            return None;
        }
        pf = q;
    }
    let one_prov = m.iter().all(|i| i.prov == m[0].prov);
    let wired = a1 == t && a2 == t && r2 == r && t != Gpr::R0;
    if movl.qp != Pr::P0 || reload.qp != p || !one_prov || !wired {
        return None;
    }
    let squash = |i: &Insn| COST.pred_off.wrapping_sub(effective_cost(i));
    Some(Launder {
        r,
        t,
        p,
        pf,
        lead: lead as u8,
        slot: slot as u64,
        dev_clean: squash(spill).wrapping_add(squash(reload)),
        reload_base: u8::try_from(effective_cost(reload)).expect("reload cost fits u8"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_isa::{AluOp, Gpr, Pr};

    fn decode(code: &[Insn]) -> BlockProgram {
        BlockProgram::build(code)
    }

    /// The micro-ops trace `b` runs, member block by member block.
    fn trace_uops(prog: &BlockProgram, b: usize) -> Vec<MicroOp> {
        let blk = &prog.blocks[b];
        let links = &prog.links[blk.link_start as usize..(blk.link_start + blk.link_len) as usize];
        links
            .iter()
            .flat_map(|&(lo, hi)| prog.uops[lo as usize..hi as usize].iter().copied())
            .collect()
    }

    /// The basic blocks behind the traces: block `b` runs from its trace's
    /// start to the next trace's start.
    fn basic_spans(prog: &BlockProgram, n: usize) -> Vec<(usize, usize)> {
        let starts: Vec<usize> = prog.blocks.iter().map(|b| b.start as usize).collect();
        starts.iter().zip(starts.iter().skip(1).chain([&n])).map(|(&s, &e)| (s, e)).collect()
    }

    #[test]
    fn every_instruction_lands_in_exactly_one_block() {
        let code = vec![
            Insn::new(Op::MovI { dst: Gpr::R1, imm: 1 }),
            Insn::new(Op::Jmp { target: 3 }),
            Insn::new(Op::Nop),
            Insn::new(Op::Halt),
        ];
        let prog = decode(&code);
        // Traces overlap (the first runs on through its `jmp`), but the
        // basic blocks they start from partition the code.
        let spans = basic_spans(&prog, code.len());
        assert_eq!(spans, [(0, 2), (2, 3), (3, 4)]);
        for ip in 0..code.len() {
            let (start, end) = spans[prog.block_of[ip] as usize];
            assert!((start..end).contains(&ip), "insn {ip} not inside its basic block");
        }
    }

    #[test]
    fn traces_run_through_jumps_and_fall_throughs() {
        let (r1, p1) = (Gpr::R1, Pr::P1);
        let add = Insn::new(Op::AluI { op: AluOp::Add, dst: r1, src1: r1, imm: 1 });
        let code = vec![
            /* 0 */ add,
            /* 1 */ Insn::new(Op::Jmp { target: 4 }), // forward chain
            /* 2 */ Insn::new(Op::Jmp { target: 6 }), // lone `br`
            /* 3 */ Insn::new(Op::Halt),
            /* 4 */ add, // leader, falls through into 5
            /* 5 */ Insn::new(Op::Jmp { target: 2 }).under(p1), // conditional: stops
            /* 6 */ add, // loop head
            /* 7 */ Insn::new(Op::Jmp { target: 8 }),
            /* 8 */ Insn::new(Op::Jmp { target: 6 }), // closes the loop
        ];
        let prog = decode(&code);
        let shape: Vec<(u32, u32, u32)> =
            prog.blocks.iter().map(|b| (b.start, b.len, b.next_ip)).collect();
        assert_eq!(shape, [(0, 4, 6), (2, 4, 6), (3, 1, 4), (4, 2, 6), (6, 3, 6), (8, 3, 8)]);
        let kinds = |b: usize| -> Vec<(u32, bool)> {
            trace_uops(&prog, b).iter().map(|u| (u.off, matches!(u.kind, Kind::Nop))).collect()
        };
        // Every unpredicated `jmp` retires as a no-op; a trace that ends at
        // one (the loop stops where it would revisit its own head) leaves
        // through `next_ip`. The conditional one stays a jump.
        assert_eq!(kinds(0), [(0, false), (1, true), (4, false), (5, false)]);
        assert_eq!(kinds(1), [(2, true), (6, false), (7, true), (8, true)]);
        assert_eq!(kinds(4), [(6, false), (7, true), (8, true)]);
        assert_eq!((prog.blocks[5].start, prog.blocks[5].next_ip), (8, 8));
        let blk = &prog.blocks[0];
        let acct = &prog.accts[blk.acct_start as usize];
        assert_eq!(u64::from(acct.cycles), 2 * COST.alu + 2 * COST.branch_taken);
        assert_eq!(acct.insns, 4);
    }

    #[test]
    fn a_loop_closed_by_a_jmp_runs_as_one_range() {
        let (r1, p1) = (Gpr::R1, Pr::P1);
        let add = Insn::new(Op::AluI { op: AluOp::Add, dst: r1, src1: r1, imm: 1 });
        let code = vec![
            /* 0 */ Insn::new(Op::MovI { dst: r1, imm: 0 }), // falls into the head
            /* 1 */ add, // loop head
            /* 2 */
            Insn::new(Op::CmpI {
                rel: CmpRel::Eq,
                pt: p1,
                pf: Pr::P2,
                src1: r1,
                imm: 9,
                nat_aware: false,
            }),
            /* 3 */ Insn::new(Op::Jmp { target: 6 }).under(p1),
            /* 4 */ add,
            /* 5 */ Insn::new(Op::Jmp { target: 1 }), // closes the loop
            /* 6 */ Insn::new(Op::Halt),
        ];
        let prog = decode(&code);
        let links = |start: usize| {
            let blk =
                &prog.blocks[prog.block_starting_at(start).expect("a trace starts here") as usize];
            (blk.len, blk.link_len)
        };
        // The hot trace (closing block, then the head) is laid out as one
        // range; the trace entering from above takes a second one.
        assert_eq!(links(4), (5, 1));
        assert_eq!(links(0), (4, 2));
        assert_eq!(links(1), (3, 1));
        assert_eq!(prog.uops.len(), code.len(), "every block is stored once");
    }

    #[test]
    fn calls_end_traces() {
        let code = vec![
            Insn::new(Op::Call { link: Br::B0, target: 2 }),
            Insn::new(Op::Halt),
            Insn::new(Op::JmpBr { br: Br::B0 }),
        ];
        let prog = decode(&code);
        assert_eq!(prog.blocks[0].len, 1, "a trace never continues through a call");
        assert!(matches!(prog.uops[0].kind, Kind::Call { .. }));
    }

    #[test]
    fn branch_targets_become_leaders() {
        let code = vec![
            Insn::new(Op::MovI { dst: Gpr::R1, imm: 1 }),
            Insn::new(Op::MovI { dst: Gpr::R2, imm: 2 }),
            Insn::new(Op::Jmp { target: 1 }), // back-edge into insn 1
        ];
        let prog = decode(&code);
        assert!(prog.block_starting_at(1).is_some(), "jump target must start a block");
        assert!(prog.block_starting_at(2).is_none(), "insn 2 is mid-block");
        assert!(prog.block_starting_at(0).is_some());
    }

    #[test]
    fn terminators_end_blocks() {
        let code = vec![
            Insn::new(Op::Syscall { num: 1 }),
            Insn::new(Op::MovI { dst: Gpr::R1, imm: 1 }),
            Insn::new(Op::Halt),
        ];
        let prog = decode(&code);
        assert_eq!(prog.block_count(), 2);
        assert_eq!(prog.blocks[0].len, 1, "syscall terminates its block");
        assert_eq!(prog.blocks[1].len, 2);
    }

    #[test]
    fn pure_blocks_precompute_static_accounting() {
        let code = vec![
            Insn::new(Op::MovI { dst: Gpr::R1, imm: 1 << 40 }), // long movl
            Insn::new(Op::Alu { op: AluOp::Add, dst: Gpr::R2, src1: Gpr::R1, src2: Gpr::R1 }),
            Insn::new(Op::Jmp { target: 0 }),
        ];
        let prog = decode(&code);
        assert_eq!(prog.block_count(), 1);
        let b = &prog.blocks[0];
        assert!(b.pure);
        assert_eq!(b.acct_len, 1, "single-provenance block compresses to one entry");
        let a = &prog.accts[b.acct_start as usize];
        assert_eq!(usize::from(a.prov), Provenance::Original.index());
        assert_eq!(u64::from(a.insns), 3);
        assert_eq!(u64::from(a.cycles), COST.movl + COST.alu + COST.branch_taken);
    }

    #[test]
    fn memory_predication_and_chk_make_blocks_impure() {
        for code in [
            vec![Insn::new(Op::LdFill { dst: Gpr::R1, addr: Gpr::R2 })],
            vec![Insn::new(Op::MovI { dst: Gpr::R1, imm: 1 }).under(Pr::P3)],
            vec![Insn::new(Op::ChkS { src: Gpr::R1, target: 0 })],
        ] {
            let prog = decode(&code);
            assert!(!prog.blocks[0].pure, "block must be impure: {code:?}");
        }
    }

    #[test]
    fn fused_templates_cover_their_members() {
        let (t0, t1, t2, a) = (Gpr::R28, Gpr::R29, Gpr::R30, Gpr::R1);
        let tc = |op| Insn::tagged(op, Provenance::StTagCompute);
        let code = vec![
            Insn::new(Op::MovI { dst: a, imm: 0x2000 }),
            tc(Op::AluI { op: AluOp::Shr, dst: t0, src1: a, imm: 61 }),
            tc(Op::AluI { op: AluOp::Add, dst: t0, src1: t0, imm: -1 }),
            tc(Op::AluI { op: AluOp::Shl, dst: t0, src1: t0, imm: 37 }),
            tc(Op::MovI { dst: t1, imm: 0xff_ffff_ffff }),
            tc(Op::Alu { op: AluOp::And, dst: t1, src1: a, src2: t1 }),
            tc(Op::AluI { op: AluOp::Shr, dst: t2, src1: t1, imm: 3 }),
            tc(Op::Alu { op: AluOp::Or, dst: t0, src1: t0, src2: t2 }),
            tc(Op::AluI { op: AluOp::And, dst: t1, src1: t1, imm: 7 }),
            tc(Op::MovI { dst: t2, imm: 1 }),
            tc(Op::Alu { op: AluOp::Shl, dst: t2, src1: t2, src2: t1 }),
            tc(Op::Tnat { pt: Pr::P6, pf: Pr::P7, src: a }),
            tc(Op::Alu { op: AluOp::Or, dst: t1, src1: t1, src2: t2 }).under(Pr::P6),
            tc(Op::AluI { op: AluOp::Xor, dst: t2, src1: t2, imm: -1 }).under(Pr::P7),
            tc(Op::Alu { op: AluOp::And, dst: t1, src1: t1, src2: t2 }).under(Pr::P7),
            Insn::new(Op::Halt),
        ];
        let prog = decode(&code);
        assert_eq!(prog.block_count(), 1);
        let uops = trace_uops(&prog, 0);
        let shape: Vec<(u32, u8)> = uops.iter().map(|u| (u.off, u.n)).collect();
        assert_eq!(shape, [(0, 1), (1, 10), (11, 4), (15, 1)]);
        assert!(matches!(uops[1].kind, Kind::TagAddrBit(0)));
        assert!(matches!(uops[2].kind, Kind::TagMerge(0)));
        // One long immediate (the mask); `movl t2 = 1` fits a short slot.
        assert_eq!(u64::from(uops[1].base), 9 * COST.alu + COST.movl);
        assert_eq!(u64::from(uops[2].base), 4 * COST.alu);
        assert_eq!(prog.merges[0].dev_tainted, (2 * COST.pred_off).wrapping_sub(2 * COST.alu));
        assert_eq!(prog.merges[0].dev_clean, COST.pred_off.wrapping_sub(COST.alu));
    }

    #[test]
    fn r0_writes_and_self_cancels_lower_to_simple_kinds() {
        let code = [
            Insn::new(Op::Alu { op: AluOp::Add, dst: Gpr::R0, src1: Gpr::R1, src2: Gpr::R2 }),
            Insn::new(Op::Alu { op: AluOp::Xor, dst: Gpr::R3, src1: Gpr::R4, src2: Gpr::R4 }),
            Insn::new(Op::AluI { op: AluOp::Sub, dst: Gpr::R5, src1: Gpr::R5, imm: 3 }),
        ];
        let prog = decode(&code);
        assert!(matches!(prog.uops[0].kind, Kind::Nop));
        assert!(matches!(prog.uops[1].kind, Kind::MovI { dst: Gpr::R3, imm: 0 }));
        assert!(
            matches!(prog.uops[2].kind, Kind::AddI { dst: Gpr::R5, a: Gpr::R5, imm } if imm == 3u64.wrapping_neg())
        );
    }

    #[test]
    fn long_straight_line_runs_split_at_the_trace_cap() {
        let mut code = vec![Insn::new(Op::Nop); MAX_TRACE_LEN + 10];
        code.push(Insn::new(Op::Halt));
        let prog = decode(&code);
        assert_eq!(prog.block_count(), 2);
        // The first block fills the cap, so its trace cannot take the next.
        assert_eq!(prog.blocks[0].len as usize, MAX_TRACE_LEN);
        assert_eq!(prog.blocks[0].next_ip as usize, MAX_TRACE_LEN);
        assert!(prog.block_starting_at(MAX_TRACE_LEN).is_some());
    }

    #[test]
    fn fall_through_chains_stop_at_the_trace_cap() {
        // Leaders every 100 instructions (each a `jmp` target): a trace
        // takes two blocks and stops before a third would pass the cap.
        let mut code = vec![Insn::new(Op::Nop); 500];
        for target in [100, 200, 300, 400] {
            code.push(Insn::new(Op::Jmp { target }));
        }
        code.push(Insn::new(Op::Halt));
        let prog = decode(&code);
        assert_eq!(prog.blocks[0].len, 200);
        assert_eq!(prog.blocks[0].next_ip, 200);
    }

    /// The launder templates: the compare path's 4-instruction form, the
    /// store path's 3-instruction form after a tag merge, and an unfused
    /// `tnat` whose near miss still lets the 3-instruction tail fuse.
    #[test]
    fn relax_launders_fuse_in_both_forms() {
        let (r, t) = (Gpr::R3, Gpr::R30);
        let rx = |op| Insn::tagged(op, Provenance::Relax);
        let slot = crate::layout::LAUNDER0 as i64;
        let ld8 = |dst| Op::Ld { size: MemSize::B8, ext: ExtKind::Zero, dst, addr: t, spec: false };
        let tail = |p| {
            [
                rx(Op::MovI { dst: t, imm: slot }),
                rx(Op::StSpill { src: r, addr: t }).under(p),
                rx(ld8(r)).under(p),
            ]
        };
        let mut code = vec![rx(Op::Tnat { pt: Pr::P6, pf: Pr::P0, src: r })];
        code.extend(tail(Pr::P6));
        code.extend(tail(Pr::P7));
        // Near miss: the `tnat` tests another register than the spill's.
        code.push(rx(Op::Tnat { pt: Pr::P6, pf: Pr::P0, src: Gpr::R4 }));
        code.extend(tail(Pr::P6));
        code.push(Insn::new(Op::Halt));
        let prog = decode(&code);
        let shape: Vec<(u32, u8)> = prog.uops.iter().map(|u| (u.off, u.n)).collect();
        assert_eq!(shape, [(0, 4), (4, 3), (7, 1), (8, 3), (11, 1)]);
        let forms: Vec<u8> = prog.launders.iter().map(|l| l.lead).collect();
        assert_eq!(forms, [1, 0, 0]);
        let members = COST.alu + COST.movl + COST.store_issue + COST.load_issue;
        assert_eq!(u64::from(prog.uops[0].base), members);
        let l = &prog.launders[0];
        assert_eq!((l.r, l.t, l.p, l.slot), (r, t, Pr::P6, slot as u64));
        assert_eq!(l.dev_clean, (2 * COST.pred_off).wrapping_sub(2));
        assert_eq!(u64::from(l.reload_base), COST.load_issue);
    }

    #[test]
    fn launder_near_misses_stay_unfused() {
        let (r, t) = (Gpr::R3, Gpr::R30);
        let ld8 =
            |dst, addr, spec| Op::Ld { size: MemSize::B8, ext: ExtKind::Zero, dst, addr, spec };
        let launder = |movl_dst, spill_p, reload: Op, reload_p| {
            vec![
                Insn::new(Op::MovI { dst: movl_dst, imm: 0x100 }),
                Insn::new(Op::StSpill { src: r, addr: t }).under(spill_p),
                Insn::new(reload).under(reload_p),
            ]
        };
        let fused = |code: Vec<Insn>| decode(&code).launders.len();
        assert_eq!(fused(launder(t, Pr::P6, ld8(r, t, false), Pr::P6)), 1);
        for code in [
            launder(t, Pr::P6, ld8(r, t, false), Pr::P7), // predicates differ
            launder(t, Pr::P6, ld8(Gpr::R4, t, false), Pr::P6), // reloads elsewhere
            launder(t, Pr::P6, ld8(r, Gpr::R4, false), Pr::P6), // other address
            launder(Gpr::R4, Pr::P6, ld8(r, t, false), Pr::P6), // slot not in `t`
            launder(t, Pr::P6, ld8(r, t, true), Pr::P6),  // speculative reload
            launder(t, Pr::P6, Op::LdFill { dst: r, addr: t }, Pr::P6), // keeps the NaT
            launder(Gpr::R0, Pr::P6, ld8(r, Gpr::R0, false), Pr::P6), // `r0` slot
        ] {
            assert_eq!(fused(code.clone()), 0, "{code:?}");
        }
    }

    #[test]
    fn out_of_range_and_empty_code_are_handled() {
        let prog = decode(&[]);
        assert_eq!(prog.block_count(), 0);
        assert!(prog.block_starting_at(0).is_none());
        let prog = decode(&[Insn::new(Op::Halt)]);
        assert!(prog.block_starting_at(7).is_none());
    }
}
