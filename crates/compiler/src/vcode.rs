//! Virtual machine code: the compiler's post-lowering representation.
//!
//! Lowering produces [`shift_isa::Op`] instructions over [`VR`] operands
//! (virtual registers mixed with pinned physical registers for ABI points),
//! with function-local symbolic [`Label`]s for control flow. Register
//! allocation rewrites `VR` to [`Gpr`]; linking resolves labels to absolute
//! instruction indices.

use core::fmt;

use shift_ir::VReg;
use shift_isa::{Gpr, Op, Pr, Provenance};

/// A symbolic, function-local code label.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Label(pub u32);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ".L{}", self.0)
    }
}

/// A register operand before allocation: virtual, or pinned physical (ABI
/// argument/result registers, the stack pointer, reserved scratch).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VR {
    /// A virtual register, subject to allocation.
    V(VReg),
    /// A pinned physical register.
    P(Gpr),
}

impl fmt::Display for VR {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VR::V(v) => write!(f, "{v}"),
            VR::P(p) => write!(f, "{p}"),
        }
    }
}

/// A compiler operation: an ISA operation or a control pseudo-op with a
/// symbolic target.
///
/// The `Isa` variant must not contain the ISA's own absolute-target control
/// instructions (`Op::Jmp`, `Op::Call`, `Op::ChkS`) — those only exist after
/// linking; the linker asserts this.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum COp<R> {
    /// A register-level ISA operation.
    Isa(Op<R>),
    /// Branch to a label (conditional via the instruction's `qp`).
    Jmp(Label),
    /// Call a function by symbol name (return address in `b0`).
    Call(String),
    /// `chk.s` to a label.
    ChkS(R, Label),
    /// Label definition (emits no code).
    Bind(Label),
}

/// A compiler instruction: qualifying predicate, operation, provenance, and
/// a `glue` flag marking compiler-internal code (prologue/epilogue, spill
/// reload/stores, the entry stub) that the SHIFT pass must not instrument —
/// spills already travel through NaT-preserving `st8.spill`/`ld8.fill`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CInsn<R> {
    /// Qualifying predicate (`p0` = always).
    pub qp: Pr,
    /// The operation.
    pub op: COp<R>,
    /// Provenance label for cycle attribution.
    pub prov: Provenance,
    /// Compiler-internal glue, exempt from instrumentation.
    pub glue: bool,
}

impl<R> CInsn<R> {
    /// An unconditional, non-glue instruction of [`Provenance::Original`].
    pub fn new(op: COp<R>) -> CInsn<R> {
        CInsn { qp: Pr::P0, op, prov: Provenance::Original, glue: false }
    }

    /// An unconditional ISA instruction.
    pub fn isa(op: Op<R>) -> CInsn<R> {
        CInsn::new(COp::Isa(op))
    }

    /// Marks the instruction as compiler glue.
    pub fn glued(mut self) -> CInsn<R> {
        self.glue = true;
        self
    }

    /// Sets the qualifying predicate.
    pub fn under(mut self, qp: Pr) -> CInsn<R> {
        self.qp = qp;
        self
    }

    /// Sets the provenance.
    pub fn with_prov(mut self, prov: Provenance) -> CInsn<R> {
        self.prov = prov;
        self
    }
}

impl<R: Copy> CInsn<R> {
    /// Register defined by this instruction, if any.
    pub fn def(&self) -> Option<R> {
        match &self.op {
            COp::Isa(op) => op.def_reg(),
            _ => None,
        }
    }

    /// Registers used by this instruction (at most two, so the iterator
    /// is a fixed-size array: nothing allocates).
    pub fn uses(&self) -> impl Iterator<Item = R> {
        let regs = match &self.op {
            COp::Isa(op) => op.use_regs(),
            COp::ChkS(r, _) => [Some(*r), None],
            _ => [None, None],
        };
        regs.into_iter().flatten()
    }
}

impl<R: fmt::Display> fmt::Display for CInsn<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let COp::Bind(l) = &self.op {
            return write!(f, "{l}:");
        }
        if self.qp != Pr::P0 {
            write!(f, "({}) ", self.qp)?;
        }
        match &self.op {
            COp::Isa(op) => write!(f, "{op}"),
            COp::Jmp(l) => write!(f, "br {l}"),
            COp::Call(name) => write!(f, "br.call b0 = {name}"),
            COp::ChkS(r, l) => write!(f, "chk.s {r}, {l}"),
            COp::Bind(_) => unreachable!(),
        }
    }
}

/// One lowered, not-yet-allocated function.
#[derive(Clone, Debug)]
pub struct LoweredFn {
    /// Function name.
    pub name: String,
    /// Code per IR basic block, in block order. Block `i` is preceded by
    /// `Bind(Label(i))` when flattened; the epilogue lives under
    /// `Label(blocks.len())`.
    pub blocks: Vec<Vec<CInsn<VR>>>,
    /// Successor block indices (from the IR CFG), used by liveness.
    pub succs: Vec<Vec<usize>>,
    /// Number of virtual registers.
    pub nvregs: u32,
    /// Total bytes of IR locals (already laid out at `sp + [0, locals_size)`).
    pub locals_size: u64,
    /// Whether the function contains calls (forces `b0` save/restore).
    pub has_calls: bool,
    /// Whether the function contains `Guard` checks (gets a recovery stub).
    pub uses_guard: bool,
}

/// The label used for a function's shared epilogue.
pub fn epilogue_label(f: &LoweredFn) -> Label {
    Label(f.blocks.len() as u32)
}

/// The label of a function's guard-recovery stub (present only when the
/// function contains `Guard` checks).
pub fn guard_label(f: &LoweredFn) -> Label {
    Label(f.blocks.len() as u32 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_isa::AluOp;

    #[test]
    fn display_virtual_and_physical() {
        let i: CInsn<VR> = CInsn::isa(Op::Alu {
            op: AluOp::Add,
            dst: VR::V(VReg(3)),
            src1: VR::P(Gpr::SP),
            src2: VR::V(VReg(1)),
        });
        assert_eq!(i.to_string(), "add v3 = r12, v1");
    }

    #[test]
    fn def_use_through_cop() {
        let call: CInsn<VR> = CInsn::new(COp::Call("f".into()));
        assert_eq!(call.def(), None);
        assert_eq!(call.uses().count(), 0);

        let chk: CInsn<VR> = CInsn::new(COp::ChkS(VR::V(VReg(2)), Label(0)));
        assert_eq!(chk.uses().collect::<Vec<_>>(), [VR::V(VReg(2))]);
    }

    #[test]
    fn labels_display() {
        let b: CInsn<VR> = CInsn::new(COp::Bind(Label(4)));
        assert_eq!(b.to_string(), ".L4:");
        let j: CInsn<VR> = CInsn::new(COp::Jmp(Label(4))).under(Pr::P1);
        assert_eq!(j.to_string(), "(p1) br .L4");
    }
}
