//! Instruction base-latency model.
//!
//! The simulator is in-order and single-issue; an instruction's cost is its
//! base latency from this table plus any memory-hierarchy stall charged by
//! the cache model. Latencies are loosely calibrated to Itanium 2: simple
//! integer ops are 1 cycle, multiplies go through the FP unit and cost more,
//! and taken branches pay a small redirect penalty.
//!
//! Absolute numbers do not need to match the paper's hardware — every
//! experiment reports *ratios* (instrumented vs. baseline cycles) — but the
//! relative weights determine where overhead shows up, so they are kept
//! physically plausible.

use crate::insn::{AluOp, Op};

/// Modelled core clock of the simulated Itanium 2: 1.5 GHz, the top shipping
/// frequency of the paper-era part. Every conversion of modelled cycles to
/// time — throughput in requests per second, trace timestamps — uses it.
pub const CLOCK_HZ: u64 = 1_500_000_000;

/// Base instruction latencies, in cycles.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CostModel {
    /// Simple integer ALU op (add/sub/logical/shift/mov/extend/compare).
    pub alu: u64,
    /// Integer multiply (routed through the FMAC unit on Itanium 2).
    pub mul: u64,
    /// Long-immediate move (`movl` occupies two slots of a bundle).
    pub movl: u64,
    /// Issue cost of a load before memory stalls (address generation).
    pub load_issue: u64,
    /// Issue cost of a store before memory stalls.
    pub store_issue: u64,
    /// Not-taken branch fall-through.
    pub branch_fall: u64,
    /// A predicated-off instruction. Itanium issues up to six instructions
    /// per cycle, so a squashed slot consumes no execution resources; the
    /// scalar cost model approximates it as free. This is what lets
    /// untainted runs skip the cost of taint-conditional instrumentation
    /// (Figure 7's "-safe" bars).
    pub pred_off: u64,
    /// Taken branch redirect penalty (front-end resteer).
    pub branch_taken: u64,
    /// `chk.s` with the NaT bit clear (the common case; a single slot).
    pub chk_clear: u64,
    /// `chk.s` with the NaT bit set (branches to recovery).
    pub chk_set: u64,
    /// Trap into the runtime (kernel entry/exit); intrinsic bodies charge
    /// their own additional cycles.
    pub syscall: u64,
}

impl CostModel {
    /// The default Itanium-2-flavoured model used by all experiments.
    pub const ITANIUM2: CostModel = CostModel {
        alu: 1,
        mul: 4,
        movl: 2,
        load_issue: 1,
        store_issue: 1,
        branch_fall: 1,
        pred_off: 0,
        branch_taken: 2,
        chk_clear: 1,
        chk_set: 3,
        syscall: 40,
    };

    /// Base latency of `op`, excluding memory-hierarchy stalls and
    /// taken-branch penalties (those depend on dynamic outcomes and are
    /// charged by the simulator).
    pub fn base<R>(&self, op: &Op<R>) -> u64 {
        match op {
            Op::Alu { op: AluOp::Mul, .. } | Op::AluI { op: AluOp::Mul, .. } => self.mul,
            Op::Alu { .. } | Op::AluI { .. } | Op::Mov { .. } | Op::Ext { .. } => self.alu,
            Op::MovI { imm, .. } => {
                // Short immediates fit an `adds`-style slot; long ones need movl.
                if i16::try_from(*imm).is_ok() {
                    self.alu
                } else {
                    self.movl
                }
            }
            Op::Cmp { .. } | Op::CmpI { .. } => self.alu,
            Op::Ld { .. } | Op::LdFill { .. } => self.load_issue,
            Op::St { .. } | Op::StSpill { .. } => self.store_issue,
            Op::ChkS { .. } => self.chk_clear,
            Op::Jmp { .. } | Op::Call { .. } | Op::JmpBr { .. } => self.branch_fall,
            Op::MovToBr { .. } | Op::MovFromBr { .. } => self.alu,
            Op::Tnat { .. } | Op::Tset { .. } | Op::Tclr { .. } => self.alu,
            Op::Syscall { .. } => self.syscall,
            Op::Nop => 1,
            Op::Halt => 1,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::ITANIUM2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Gpr;

    #[test]
    fn simple_ops_are_single_cycle() {
        let m = CostModel::default();
        let add = Op::Alu { op: AluOp::Add, dst: Gpr::R1, src1: Gpr::R2, src2: Gpr::R3 };
        assert_eq!(m.base(&add), 1);
        assert_eq!(m.base(&Op::<Gpr>::Nop), 1);
    }

    #[test]
    fn multiplies_cost_more_than_adds() {
        let m = CostModel::default();
        let mul = Op::Alu { op: AluOp::Mul, dst: Gpr::R1, src1: Gpr::R2, src2: Gpr::R3 };
        let add = Op::Alu { op: AluOp::Add, dst: Gpr::R1, src1: Gpr::R2, src2: Gpr::R3 };
        assert!(m.base(&mul) > m.base(&add));
    }

    #[test]
    fn long_immediates_cost_more() {
        let m = CostModel::default();
        let short = Op::MovI { dst: Gpr::R1, imm: 100 };
        let long = Op::MovI { dst: Gpr::R1, imm: 1 << 40 };
        assert!(m.base(&long) > m.base(&short));
    }

    #[test]
    fn syscall_dominates_alu() {
        let m = CostModel::default();
        assert!(m.base(&Op::<Gpr>::Syscall { num: 0 }) >= 10 * m.alu);
    }
}
