//! Pre-decoded superblock program: straight-line instruction runs flattened
//! into a micro-op arena for the trace-threaded dispatch tier.
//!
//! The per-instruction dispatcher in [`crate::Machine`] pays fixed costs on
//! every instruction: a bounds-checked fetch from `code`, a budget compare,
//! an `ip` store, a second indexed load for the base cost, and four
//! read-modify-writes into [`crate::Stats`]. A [`BlockProgram`] removes all
//! of them from straight-line code: every basic block is decoded **once**
//! (at [`crate::MachineSeed`] build time) into a flat arena of uniform
//! [`MicroOp`]s whose qualifying predicate, provenance label, and base cycle
//! cost ride alongside the operation, and the executor walks a block with a
//! plain slice iterator, folding retire accounting into stack-local
//! accumulators that are flushed exactly once per block. Decoding also
//! specialises each operation and fuses the SHIFT pass's fixed
//! instrumentation templates (the Figure-4 tag-address sequence, its
//! bit-index form, and the store tag merge) into one micro-op each, so the
//! executor dispatches once per template instead of once per instruction.
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

use shift_isa::{AluOp, Br, CmpRel, CostModel, ExtKind, Gpr, Insn, MemSize, Op, Pr, Provenance};

/// Number of provenance labels (accumulator array width).
pub(crate) const NPROV: usize = Provenance::ALL.len();

/// Longest block, in instructions: micro-op offsets are `u16`. Longer
/// straight-line runs split into consecutive blocks, which only changes
/// how often the dispatcher re-enters the block table.
const MAX_BLOCK_LEN: usize = u16::MAX as usize;

/// A decoded instruction in the superblock arena.
///
/// "Uniform" means every field the executor needs is pre-resolved here, in
/// one contiguous record: the pre-specialised [`Kind`] (whose register
/// operands are already architectural indices — `Gpr`/`Pr`/`Br` are
/// `repr(u8)`), the qualifying predicate, the provenance label for cycle
/// attribution, and the summed base cycle cost that the per-instruction
/// stepper would re-derive from `CostModel::base`. The executor never
/// touches `code` or `base_cost` while inside a block.
///
/// A micro-op covers `n` consecutive instructions starting `off`
/// instructions into its block: one for a plain instruction, the whole
/// template for a fused one. Fault `ip`s, `call` link values, and partial
/// settlement all derive from `off` and `n`, so fusion never shifts an
/// architectural instruction index.
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
    /// Offset of the first covered instruction from the block's start.
    pub off: u16,
    /// Sum of the covered instructions' *effective* base cycles:
    /// `CostModel::base`, except that unconditional control transfers
    /// (`jmp`, `call`, `jmp.br`) carry `branch_taken` — inside a block they
    /// always take, so the executor need not special-case them at retire
    /// time.
    pub base: u16,
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
/// register-writing kind is a real register. The last three kinds are the
/// fused instrumentation templates (see [`BlockProgram::build`]).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Kind {
    /// No architectural effect (`nop`, or a register write to `r0`).
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

/// One entry of a block's precomputed *full-pass* retire accounting:
/// `insns` instructions costing `cycles` cycles, attributed to provenance
/// index `prov`, assuming an undeviated pass (every predicate on, no memory
/// stalls, `chk.s` falling through). The executor merges these entries when
/// a block completes and records only *deviations* from the assumption as
/// they happen, so conforming micro-ops retire with zero accounting work.
/// Blocks touch one or two provenance labels in practice, so the sparse
/// form merges in a couple of adds where a dense `[u64; NPROV]` merge would
/// pay for every label on every block.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ProvAcct {
    /// `Provenance::index()` of the attributed label.
    pub prov: u8,
    /// Total base cycles for the entry's instructions.
    pub cycles: u32,
    /// Number of instructions attributed.
    pub insns: u32,
}

/// One basic block: a maximal straight-line run of instructions that control
/// can only enter at the top.
///
/// A block ends at the first control-transfer instruction (`jmp`, `call`,
/// `jmp.br`, `chk.s`, `halt`), at a `syscall` (the runtime gets `&mut
/// Machine` and may re-arm any boundary-checked state), just before the
/// next leader (an instruction some branch targets), or after
/// `MAX_BLOCK_LEN` instructions.
#[derive(Clone, Debug)]
pub(crate) struct Block {
    /// Instruction index of the block's first instruction.
    pub start: u32,
    /// Offset of the block's first micro-op in [`BlockProgram::uops`].
    pub uop_start: u32,
    /// Number of micro-ops in the block.
    pub uop_len: u32,
    /// Number of instructions in the block (the entry guard's unit).
    pub len: u32,
    /// `true` when no instruction in the block is predicated or has a
    /// dynamic cycle cost (memory stalls, `chk.s` outcomes) or can fault /
    /// trap mid-block — so a full pass can never deviate from the
    /// precomputed accounting and the executor skips the predicate test.
    pub pure: bool,
    /// First entry of this block's full-pass accounting in
    /// [`BlockProgram::accts`].
    pub acct_start: u32,
    /// Number of accounting entries (distinct provenance labels touched).
    pub acct_len: u32,
}

/// The whole code image pre-decoded into superblocks.
///
/// Built once per [`crate::MachineSeed`] and shared by every spawned
/// instance through `Arc` — decode cost is paid at load time, never on the
/// execution path. Guest code is immutable (`Arc<[Insn]>`; the ISA has no
/// code store), so the program can never go stale while a machine runs; the
/// only invalidation path is [`crate::Machine::flush_superblocks`], which
/// rebuilds the tables wholesale.
#[derive(Clone, Debug)]
pub(crate) struct BlockProgram {
    /// All blocks, ordered by `start`.
    pub blocks: Box<[Block]>,
    /// Flat micro-op arena; block `b` owns
    /// `uops[b.uop_start .. b.uop_start + b.uop_len]`.
    pub uops: Box<[MicroOp]>,
    /// Sparse precomputed full-pass accounting; block `b` owns
    /// `accts[b.acct_start .. b.acct_start + b.acct_len]`.
    pub accts: Box<[ProvAcct]>,
    /// Operands of every fused tag-address template, indexed by
    /// [`Kind::TagAddr`] / [`Kind::TagAddrBit`].
    pub tag_addrs: Box<[TagAddr]>,
    /// Operands of every fused store tag merge, indexed by
    /// [`Kind::TagMerge`].
    pub merges: Box<[TagMerge]>,
    /// Map from instruction index to owning block index.
    block_of: Box<[u32]>,
}

impl BlockProgram {
    /// Decodes `code` into superblocks.
    ///
    /// Discovery is a single linear pass (plus a leader marking pass): a
    /// *leader* is the entry point, any static branch target (`jmp`, `call`,
    /// `chk.s` recovery), or the instruction after any block terminator —
    /// so every statically-known control transfer lands on a block start.
    /// Indirect targets (`jmp.br`) cannot be enumerated statically; an
    /// indirect jump into the middle of a block is legal and simply executes
    /// on the per-instruction fallback tier until it rejoins a leader.
    ///
    /// Each block then lowers to micro-ops in one left-to-right pass that
    /// fuses the SHIFT instrumentation templates (the tag-address sequence,
    /// its bit-index form, and the store tag merge) wherever one matches
    /// structurally inside the block; everything else lowers one
    /// instruction per micro-op.
    pub fn build(code: &[Insn], cost: &CostModel) -> BlockProgram {
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

        let mut blocks = Vec::new();
        let mut uops = Vec::with_capacity(n);
        let mut accts = Vec::new();
        let mut tag_addrs = Vec::new();
        let mut merges = Vec::new();
        let mut block_of = vec![0u32; n];
        let mut start = 0usize;
        while start < n {
            // A block runs to the next leader; every terminator's successor
            // is a leader, so no block runs past a terminator.
            let mut end = start + 1;
            while end < n && !leader[end] && end - start < MAX_BLOCK_LEN {
                end += 1;
            }
            let body = &code[start..end];
            let uop_start = uops.len() as u32;
            let mut pure = true;
            let mut cycles_by_prov = [0u64; NPROV];
            let mut insns_by_prov = [0u64; NPROV];
            let mut off = 0usize;
            while off < body.len() {
                let rest = &body[off..];
                let (kind, len) = if let Some(m) = match_merge(rest, cost) {
                    merges.push(m);
                    (Kind::TagMerge(merges.len() as u32 - 1), 4)
                } else if let Some((t, bit)) = match_tag_addr(rest) {
                    tag_addrs.push(t);
                    let i = tag_addrs.len() as u32 - 1;
                    if bit {
                        (Kind::TagAddrBit(i), 10)
                    } else {
                        (Kind::TagAddr(i), 7)
                    }
                } else {
                    (lower(rest[0].op), 1)
                };
                let mut base = 0u64;
                for insn in &rest[..len] {
                    // The full-pass accounting charges every instruction
                    // its effective base cost. Ops whose real cost can
                    // deviate from it — memory ops stall, `chk.s` outcome
                    // depends on NaT state, faulting/trapping ops end the
                    // block early — and predicated ops (which may retire at
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
                        pure = false;
                    }
                    base += effective_cost(insn, cost);
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
                    off: off as u16,
                    base: u16::try_from(base).expect("micro-op base cost fits u16"),
                });
                off += len;
            }

            let acct_start = accts.len() as u32;
            for p in 0..NPROV {
                if insns_by_prov[p] != 0 {
                    accts.push(ProvAcct {
                        prov: p as u8,
                        cycles: u32::try_from(cycles_by_prov[p])
                            .expect("block cycle total fits u32"),
                        insns: u32::try_from(insns_by_prov[p]).expect("block insn total fits u32"),
                    });
                }
            }
            let acct_len = accts.len() as u32 - acct_start;
            let bid = blocks.len() as u32;
            for slot in &mut block_of[start..end] {
                *slot = bid;
            }
            blocks.push(Block {
                start: start as u32,
                uop_start,
                uop_len: uops.len() as u32 - uop_start,
                len: body.len() as u32,
                pure,
                acct_start,
                acct_len,
            });
            start = end;
        }

        BlockProgram {
            blocks: blocks.into_boxed_slice(),
            uops: uops.into_boxed_slice(),
            accts: accts.into_boxed_slice(),
            tag_addrs: tag_addrs.into_boxed_slice(),
            merges: merges.into_boxed_slice(),
            block_of: block_of.into_boxed_slice(),
        }
    }

    /// The block whose first instruction is `ip`, if any. Mid-block and
    /// out-of-range addresses return `None` (the caller falls back to the
    /// per-instruction tier, which raises `BadIp` for the latter).
    #[inline]
    pub fn block_starting_at(&self, ip: usize) -> Option<u32> {
        let &bid = self.block_of.get(ip)?;
        let blk = &self.blocks[bid as usize];
        (blk.start as usize == ip).then_some(bid)
    }

    /// Number of decoded blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

/// Returns `true` when `op` always ends a superblock: control transfers
/// (the next instruction depends on machine state) and `syscall` (the
/// runtime may re-arm boundary-checked machine state mid-call).
fn is_terminator(op: &Op) -> bool {
    op.is_control() || matches!(op, Op::Syscall { .. })
}

/// `insn`'s retire cost on an undeviated pass through a block.
/// Unconditional transfers always take inside a block, so their effective
/// cost is `branch_taken`, not the fall-through cost the per-instruction
/// table carries.
fn effective_cost(insn: &Insn, cost: &CostModel) -> u64 {
    match insn.op {
        Op::Jmp { .. } | Op::Call { .. } | Op::JmpBr { .. } => cost.branch_taken,
        _ => cost.base(&insn.op),
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
fn match_merge(code: &[Insn], cost: &CostModel) -> Option<TagMerge> {
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
    let squash = |i: &Insn| cost.pred_off.wrapping_sub(effective_cost(i, cost));
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

#[cfg(test)]
mod tests {
    use super::*;
    use shift_isa::{AluOp, Gpr, Pr};

    fn decode(code: &[Insn]) -> BlockProgram {
        BlockProgram::build(code, &CostModel::ITANIUM2)
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
        let total: u32 = prog.blocks.iter().map(|b| b.len).sum();
        assert_eq!(total as usize, code.len());
        for (ip, _) in code.iter().enumerate() {
            let bid = prog.block_of[ip] as usize;
            let b = &prog.blocks[bid];
            assert!(
                (b.start..b.start + b.len).contains(&(ip as u32)),
                "insn {ip} not inside its block"
            );
        }
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
        let cost = CostModel::ITANIUM2;
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
        assert_eq!(u64::from(a.cycles), cost.movl + cost.alu + cost.branch_taken);
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
        let cost = CostModel::ITANIUM2;
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
        let uops = &prog.uops[..prog.blocks[0].uop_len as usize];
        let shape: Vec<(u16, u8)> = uops.iter().map(|u| (u.off, u.n)).collect();
        assert_eq!(shape, [(0, 1), (1, 10), (11, 4), (15, 1)]);
        assert!(matches!(uops[1].kind, Kind::TagAddrBit(0)));
        assert!(matches!(uops[2].kind, Kind::TagMerge(0)));
        // One long immediate (the mask); `movl t2 = 1` fits a short slot.
        assert_eq!(u64::from(uops[1].base), 9 * cost.alu + cost.movl);
        assert_eq!(u64::from(uops[2].base), 4 * cost.alu);
        assert_eq!(prog.merges[0].dev_tainted, (2 * cost.pred_off).wrapping_sub(2 * cost.alu));
        assert_eq!(prog.merges[0].dev_clean, cost.pred_off.wrapping_sub(cost.alu));
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
    fn long_straight_line_runs_split_at_the_offset_limit() {
        let mut code = vec![Insn::new(Op::Nop); MAX_BLOCK_LEN + 10];
        code.push(Insn::new(Op::Halt));
        let prog = decode(&code);
        assert_eq!(prog.block_count(), 2);
        assert_eq!(prog.blocks[0].len as usize, MAX_BLOCK_LEN);
        assert!(prog.block_starting_at(MAX_BLOCK_LEN).is_some());
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
