//! Instruction and operand definitions.

use crate::provenance::Provenance;
use crate::reg::{Br, Gpr, Pr};

/// Width of a memory access, in the IA-64 `ld1/ld2/ld4/ld8` style.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemSize {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes (a "word" in the paper's terminology).
    B8,
}

impl MemSize {
    /// Access width in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        match self {
            MemSize::B1 => 1,
            MemSize::B2 => 2,
            MemSize::B4 => 4,
            MemSize::B8 => 8,
        }
    }

    /// All sizes, smallest first.
    pub const ALL: [MemSize; 4] = [MemSize::B1, MemSize::B2, MemSize::B4, MemSize::B8];
}

/// Integer ALU operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// Two's-complement addition.
    Add,
    /// Two's-complement subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift count taken modulo 64).
    Shl,
    /// Logical shift right (shift count taken modulo 64).
    Shr,
    /// Arithmetic shift right (shift count taken modulo 64).
    Sar,
    /// 64×64→64 multiplication (multi-cycle; see [`crate::CostModel`]).
    Mul,
}

impl AluOp {
    /// Mnemonic used by the disassembler.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Sar => "sar",
            AluOp::Mul => "mul",
        }
    }
}

/// Comparison relation for `cmp` instructions. Signed unless suffixed `u`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpRel {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl CmpRel {
    /// Mnemonic suffix used by the disassembler (`cmp.eq`, `cmp.ltu`, …).
    pub const fn mnemonic(self) -> &'static str {
        match self {
            CmpRel::Eq => "eq",
            CmpRel::Ne => "ne",
            CmpRel::Lt => "lt",
            CmpRel::Le => "le",
            CmpRel::Gt => "gt",
            CmpRel::Ge => "ge",
            CmpRel::Ltu => "ltu",
            CmpRel::Geu => "geu",
        }
    }

    /// Evaluates the relation on two 64-bit values.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            CmpRel::Eq => a == b,
            CmpRel::Ne => a != b,
            CmpRel::Lt => (a as i64) < (b as i64),
            CmpRel::Le => (a as i64) <= (b as i64),
            CmpRel::Gt => (a as i64) > (b as i64),
            CmpRel::Ge => (a as i64) >= (b as i64),
            CmpRel::Ltu => a < b,
            CmpRel::Geu => a >= b,
        }
    }

    /// The relation with operands swapped (`a R b` ⇔ `b R.swapped() a`).
    pub const fn swapped(self) -> CmpRel {
        match self {
            CmpRel::Eq => CmpRel::Eq,
            CmpRel::Ne => CmpRel::Ne,
            CmpRel::Lt => CmpRel::Gt,
            CmpRel::Le => CmpRel::Ge,
            CmpRel::Gt => CmpRel::Lt,
            CmpRel::Ge => CmpRel::Le,
            CmpRel::Ltu => CmpRel::Geu, // note: strictness flips via negation, not swap
            CmpRel::Geu => CmpRel::Ltu,
        }
    }

    /// The negated relation (`!(a R b)` ⇔ `a R.negated() b`).
    pub const fn negated(self) -> CmpRel {
        match self {
            CmpRel::Eq => CmpRel::Ne,
            CmpRel::Ne => CmpRel::Eq,
            CmpRel::Lt => CmpRel::Ge,
            CmpRel::Le => CmpRel::Gt,
            CmpRel::Gt => CmpRel::Le,
            CmpRel::Ge => CmpRel::Lt,
            CmpRel::Ltu => CmpRel::Geu,
            CmpRel::Geu => CmpRel::Ltu,
        }
    }
}

/// Sign- or zero-extension for sub-word loads and `sxt`/`zxt` instructions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExtKind {
    /// Sign-extend from the source width.
    Sign,
    /// Zero-extend from the source width.
    Zero,
}

/// The operation part of an instruction (everything except the qualifying
/// predicate and the provenance label).
///
/// Branch and call targets are absolute instruction indices into the code
/// image; the compiler resolves symbolic labels before emission.
///
/// `Op` is generic over the register name type `R` so that the compiler can
/// reuse the exact instruction vocabulary with *virtual* registers before
/// allocation; the machine only ever executes `Op<Gpr>`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op<R = Gpr> {
    /// Three-register ALU operation: `dst = src1 op src2`.
    Alu {
        /// Operation to perform.
        op: AluOp,
        /// Destination register.
        dst: R,
        /// First source.
        src1: R,
        /// Second source.
        src2: R,
    },
    /// Register-immediate ALU operation: `dst = src1 op imm`.
    ///
    /// Models IA-64 `adds`/`shladd`-style short-immediate forms; the
    /// simulator accepts any `i64` but the cost model charges long-immediate
    /// forms like `movl` only for [`Op::MovI`].
    AluI {
        /// Operation to perform.
        op: AluOp,
        /// Destination register.
        dst: R,
        /// Register source.
        src1: R,
        /// Immediate source.
        imm: i64,
    },
    /// Load a (possibly 64-bit) immediate: `dst = imm` (IA-64 `movl`).
    MovI {
        /// Destination register.
        dst: R,
        /// Immediate value.
        imm: i64,
    },
    /// Register move: `dst = src` (preserves the NaT bit).
    Mov {
        /// Destination register.
        dst: R,
        /// Source register.
        src: R,
    },
    /// Sign/zero extension from a sub-word width: `dst = ext(src)`.
    Ext {
        /// Extension kind.
        kind: ExtKind,
        /// Width of the value being extended.
        size: MemSize,
        /// Destination register.
        dst: R,
        /// Source register.
        src: R,
    },
    /// Predicate-writing compare: `(pt, pf) = src1 rel src2`.
    ///
    /// With `nat_aware == false` (the only form real Itanium has), a NaT bit
    /// on either source **clears both** target predicates — the deferred-
    /// exception behaviour that survives mis-speculation but breaks taint
    /// tracking (§3.1). With `nat_aware == true` (paper's proposed
    /// enhancement), the compare proceeds on the register values and NaT
    /// bits are ignored.
    Cmp {
        /// Relation evaluated.
        rel: CmpRel,
        /// Predicate set to the comparison result.
        pt: Pr,
        /// Predicate set to the complement of the result.
        pf: Pr,
        /// First source.
        src1: R,
        /// Second source.
        src2: R,
        /// Whether this is the NaT-aware enhanced form.
        nat_aware: bool,
    },
    /// Compare against an immediate: `(pt, pf) = src1 rel imm`.
    CmpI {
        /// Relation evaluated.
        rel: CmpRel,
        /// Predicate set to the comparison result.
        pt: Pr,
        /// Predicate set to the complement of the result.
        pf: Pr,
        /// Register source.
        src1: R,
        /// Immediate compared against.
        imm: i64,
        /// Whether this is the NaT-aware enhanced form.
        nat_aware: bool,
    },
    /// Load from memory: `dst = [addr]`, optionally speculative (`ld*.s`).
    ///
    /// A non-speculative load through a NaT address raises a NaT-consumption
    /// fault; the speculative form instead sets `dst`'s NaT bit. A
    /// speculative load from an invalid (unmapped or unimplemented) address
    /// also sets the NaT bit instead of faulting — SHIFT uses exactly this to
    /// manufacture taint (Figure 5, instruction ①/②).
    Ld {
        /// Access width.
        size: MemSize,
        /// Extension applied to sub-word data.
        ext: ExtKind,
        /// Destination register.
        dst: R,
        /// Address register.
        addr: R,
        /// `true` for the speculative `ld*.s` form.
        spec: bool,
    },
    /// Store to memory: `[addr] = src`.
    ///
    /// Storing a register whose NaT bit is set raises a NaT-consumption
    /// fault (use [`Op::StSpill`] to store tainted data).
    St {
        /// Access width.
        size: MemSize,
        /// Source register.
        src: R,
        /// Address register.
        addr: R,
    },
    /// `st8.spill`: store 8 bytes and bank the NaT bit into `UNAT`.
    StSpill {
        /// Source register (NaT allowed).
        src: R,
        /// Address register.
        addr: R,
    },
    /// `ld8.fill`: load 8 bytes and restore the NaT bit from `UNAT`.
    LdFill {
        /// Destination register.
        dst: R,
        /// Address register.
        addr: R,
    },
    /// `chk.s`: branch to `target` if `src`'s NaT bit is set.
    ///
    /// On real hardware this vectors to compiler-generated recovery code;
    /// SHIFT also uses it to run user-level security handlers (§3.3.3).
    ChkS {
        /// Register whose NaT bit is tested.
        src: R,
        /// Absolute instruction index of the recovery code.
        target: usize,
    },
    /// Branch to an absolute instruction index (conditional via `qp`).
    Jmp {
        /// Absolute instruction index.
        target: usize,
    },
    /// Call: saves the return address in `link` and jumps to `target`.
    Call {
        /// Branch register receiving the return address.
        link: Br,
        /// Absolute instruction index of the callee entry.
        target: usize,
    },
    /// Indirect branch through a branch register (returns use `link = b0`).
    JmpBr {
        /// Branch register holding the target instruction index.
        br: Br,
    },
    /// Move a GPR into a branch register.
    ///
    /// Raises a NaT-consumption fault if the source is NaT — this is the
    /// hardware half of policy **L3** (tainted data cannot reach CPU control
    /// state).
    MovToBr {
        /// Destination branch register.
        br: Br,
        /// Source GPR.
        src: R,
    },
    /// Move a branch register into a GPR.
    MovFromBr {
        /// Destination GPR.
        dst: R,
        /// Source branch register.
        br: Br,
    },
    /// Test a register's NaT bit into a predicate pair: `pt = NaT(src)`,
    /// `pf = !NaT(src)` (IA-64 `tnat.nz`/`tnat.z`). This is *existing*
    /// Itanium functionality — Figure 5's store instrumentation uses it to
    /// test whether the source register is tainted (instruction ①).
    Tnat {
        /// Predicate set if the NaT bit is set.
        pt: Pr,
        /// Predicate set if the NaT bit is clear.
        pf: Pr,
        /// Register whose NaT bit is tested.
        src: R,
    },
    /// Architectural enhancement ①: set `dst`'s NaT bit, preserving its
    /// value.
    ///
    /// Baseline Itanium lacks this; SHIFT synthesizes a NaT'd register with a
    /// speculative load from a faked invalid address and *taints* other
    /// registers by adding that register to them (§4.1). Only emitted when
    /// the set/clear enhancement mode is enabled.
    Tset {
        /// Register to taint.
        dst: R,
    },
    /// Architectural enhancement ②: clear `dst`'s NaT bit, keeping its value.
    ///
    /// Baseline Itanium synthesizes this with a spill/reload pair.
    Tclr {
        /// Register to untaint.
        dst: R,
    },
    /// Trap into the host OS / runtime (taint sources, sinks, I/O).
    ///
    /// Arguments are passed in `r16..`, the result in `r8`, by convention
    /// (see [`crate::sys`] for the call numbers).
    Syscall {
        /// Runtime call number.
        num: u32,
    },
    /// No operation (alignment / scheduling filler).
    Nop,
    /// Stop the machine; `r8` holds the exit value.
    Halt,
}

impl<R: Copy> Op<R> {
    /// Destination register written by this operation, if any.
    pub fn def_reg(&self) -> Option<R> {
        match *self {
            Op::Alu { dst, .. }
            | Op::AluI { dst, .. }
            | Op::MovI { dst, .. }
            | Op::Mov { dst, .. }
            | Op::Ext { dst, .. }
            | Op::Ld { dst, .. }
            | Op::LdFill { dst, .. }
            | Op::MovFromBr { dst, .. }
            | Op::Tset { dst }
            | Op::Tclr { dst } => Some(dst),
            _ => None,
        }
    }

    /// Registers read by this operation (up to two).
    pub fn use_regs(&self) -> [Option<R>; 2] {
        match *self {
            Op::Alu { src1, src2, .. } => [Some(src1), Some(src2)],
            Op::AluI { src1, .. } => [Some(src1), None],
            Op::Mov { src, .. } | Op::Ext { src, .. } => [Some(src), None],
            Op::Cmp { src1, src2, .. } => [Some(src1), Some(src2)],
            Op::CmpI { src1, .. } => [Some(src1), None],
            Op::Ld { addr, .. } | Op::LdFill { addr, .. } => [Some(addr), None],
            Op::St { src, addr, .. } | Op::StSpill { src, addr } => [Some(src), Some(addr)],
            Op::ChkS { src, .. } | Op::MovToBr { src, .. } | Op::Tnat { src, .. } => {
                [Some(src), None]
            }
            _ => [None, None],
        }
    }

    /// Returns `true` for control-transfer instructions.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Op::Jmp { .. } | Op::Call { .. } | Op::JmpBr { .. } | Op::ChkS { .. } | Op::Halt
        )
    }
}

/// A complete instruction: qualifying predicate, operation, and the
/// provenance label used for the paper's Figure 9 cost breakdown.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Insn {
    /// Qualifying predicate; the instruction executes only if it reads true.
    /// `p0` (hardwired true) means "always".
    pub qp: Pr,
    /// The operation.
    pub op: Op,
    /// Who emitted this instruction (original code vs. instrumentation).
    pub prov: Provenance,
}

impl Insn {
    /// An unconditional instruction with [`Provenance::Original`].
    #[inline]
    pub fn new(op: Op) -> Insn {
        Insn { qp: Pr::P0, op, prov: Provenance::Original }
    }

    /// An unconditional instruction with an explicit provenance.
    #[inline]
    pub fn tagged(op: Op, prov: Provenance) -> Insn {
        Insn { qp: Pr::P0, op, prov }
    }

    /// Sets the qualifying predicate, builder-style.
    #[inline]
    pub fn under(mut self, qp: Pr) -> Insn {
        self.qp = qp;
        self
    }

    /// Sets the provenance, builder-style.
    #[inline]
    pub fn with_prov(mut self, prov: Provenance) -> Insn {
        self.prov = prov;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_rel_eval_matrix() {
        let neg = u64::MAX; // -1 signed
        assert!(CmpRel::Eq.eval(5, 5));
        assert!(CmpRel::Ne.eval(5, 6));
        assert!(CmpRel::Lt.eval(neg, 0)); // -1 < 0 signed
        assert!(!CmpRel::Ltu.eval(neg, 0)); // max > 0 unsigned
        assert!(CmpRel::Le.eval(3, 3));
        assert!(CmpRel::Gt.eval(0, neg));
        assert!(CmpRel::Ge.eval(7, 7));
        assert!(CmpRel::Geu.eval(neg, 1));
    }

    #[test]
    fn negated_is_complement() {
        for rel in [
            CmpRel::Eq,
            CmpRel::Ne,
            CmpRel::Lt,
            CmpRel::Le,
            CmpRel::Gt,
            CmpRel::Ge,
            CmpRel::Ltu,
            CmpRel::Geu,
        ] {
            for (a, b) in [(0u64, 0u64), (1, 2), (u64::MAX, 0), (5, u64::MAX)] {
                assert_eq!(rel.eval(a, b), !rel.negated().eval(a, b), "{rel:?} {a} {b}");
            }
        }
    }

    #[test]
    fn swapped_is_operand_swap() {
        for rel in [CmpRel::Eq, CmpRel::Ne, CmpRel::Lt, CmpRel::Le, CmpRel::Gt, CmpRel::Ge] {
            for (a, b) in [(0u64, 0u64), (1, 2), (9, 3)] {
                assert_eq!(rel.eval(a, b), rel.swapped().eval(b, a), "{rel:?} {a} {b}");
            }
        }
    }

    #[test]
    fn def_use_extraction() {
        let op = Op::Alu { op: AluOp::Add, dst: Gpr::R3, src1: Gpr::R1, src2: Gpr::R2 };
        assert_eq!(op.def_reg(), Some(Gpr::R3));
        assert_eq!(op.use_regs(), [Some(Gpr::R1), Some(Gpr::R2)]);

        let st = Op::St { size: MemSize::B8, src: Gpr::R4, addr: Gpr::R5 };
        assert_eq!(st.def_reg(), None);
        assert_eq!(st.use_regs(), [Some(Gpr::R4), Some(Gpr::R5)]);
        assert!(!st.is_control());
    }

    #[test]
    fn insn_builders() {
        let i = Insn::new(Op::Nop).under(Pr::P3).with_prov(Provenance::LdTagCompute);
        assert_eq!(i.qp, Pr::P3);
        assert_eq!(i.prov, Provenance::LdTagCompute);
    }
}
