//! Cycle and event accounting, attributed by instruction provenance.

use shift_isa::Provenance;

use crate::fault::Fault;

/// A policy violation reported by the runtime (the software half of SHIFT's
/// detection: sinks and `chk.s` recovery handlers).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// Policy identifier (e.g. `"H1"`, `"L2"`).
    pub policy: String,
    /// Human-readable description of what tripped.
    pub message: String,
    /// Instruction index of the offending runtime call or check.
    pub ip: usize,
    /// Taint provenance chain from source channel to sink, e.g.
    /// `"net_read msg#0 bytes 4..12 → r9 → store @0x6000f8 → file_open arg"`.
    /// `None` when taint tracing was not enabled for the run.
    pub provenance: Option<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "policy {} violated at ip {}: {}", self.policy, self.ip, self.message)
    }
}

/// Why a run stopped.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Exit {
    /// The guest executed `halt`/`exit`; payload is the exit status.
    Halted(i64),
    /// An architectural fault (NaT consumption, segfault, …). Under SHIFT a
    /// NaT-consumption fault is a *detected low-level attack*.
    Fault(Fault),
    /// The runtime's policy engine detected an attack.
    Violation(Violation),
    /// The instruction budget given to [`crate::Machine::run`] ran out.
    InsnLimit,
    /// The per-transaction watchdog budget ran out (see
    /// [`crate::Machine::arm_watchdog`]) — a runaway or wedged guest was
    /// terminated deterministically. Distinct from [`Exit::InsnLimit`]: the
    /// watchdog is a recoverable, per-request budget the runtime re-arms,
    /// while `InsnLimit` is the whole run's ceiling.
    FuelExhausted,
    /// An [`crate::Os`] stopped the guest at an I/O point after completing
    /// the syscall; `ip` already points past it, so [`crate::Machine::run`]
    /// resumes the guest where it stopped. No path in this workspace
    /// produces it: the open-loop scheduler reads its I/O legs off the
    /// runtime's leg log instead. The variant stays only because the
    /// host-time benchmark matches on it; its removal waits for a change to
    /// that benchmark.
    Parked,
}

impl Exit {
    /// Returns `true` if the run ended with a detection event (fault caused
    /// by NaT consumption, or a policy violation).
    pub fn is_detection(&self) -> bool {
        match self {
            Exit::Violation(_) => true,
            Exit::Fault(f) => f.is_nat_consumption(),
            _ => false,
        }
    }

    /// Returns `true` for a clean `Halted(0)` exit.
    pub fn is_clean(&self) -> bool {
        matches!(self, Exit::Halted(0))
    }
}

impl std::fmt::Display for Exit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exit::Halted(code) => write!(f, "halted with status {code}"),
            Exit::Fault(fault) => write!(f, "fault: {fault}"),
            Exit::Violation(v) => write!(f, "violation: {v}"),
            Exit::InsnLimit => f.write_str("instruction limit reached"),
            Exit::FuelExhausted => f.write_str("watchdog fuel budget exhausted"),
            Exit::Parked => f.write_str("parked at an I/O point"),
        }
    }
}

const NPROV: usize = Provenance::ALL.len();

/// Execution statistics for one run.
///
/// All counters are *modelled* events — deterministic for a given program
/// and input, regardless of host speed or dispatch tier:
///
/// ```
/// use shift_isa::{Gpr, Insn, Op, Provenance};
/// use shift_machine::{Image, Machine, NullOs};
///
/// let image = Image::builder()
///     .code(vec![Insn::new(Op::MovI { dst: Gpr::R8, imm: 0 }), Insn::new(Op::Halt)])
///     .build();
/// let mut m = Machine::new(&image);
/// m.run(&mut NullOs, 1_000);
/// assert_eq!(m.stats.instructions, 2);
/// assert_eq!(m.stats.cycles, m.stats.cycles_for(Provenance::Original));
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Stats {
    /// Retired instructions (includes predicated-off slots).
    pub instructions: u64,
    /// CPU cycles (base latencies + memory stalls + branch penalties).
    pub cycles: u64,
    /// I/O wait cycles charged by the runtime (network/disk latency). Kept
    /// separate from `cycles` so experiments can report CPU-only slowdown
    /// (SPEC) and end-to-end time (Apache) from the same run.
    pub io_cycles: u64,
    /// Cycles per provenance label.
    pub cycles_by_prov: [u64; NPROV],
    /// Instructions per provenance label.
    pub insns_by_prov: [u64; NPROV],
    /// Dynamic loads executed (original code only).
    pub loads: u64,
    /// Dynamic stores executed (original code only).
    pub stores: u64,
    /// Speculative loads whose deferral fired (NaT set instead of a value).
    pub deferred_loads: u64,
    /// `chk.s` checks that branched to recovery.
    pub chk_taken: u64,
    /// Runtime calls executed.
    pub syscalls: u64,
    /// Fault-injection events applied (see [`crate::Machine::inject_after`]).
    pub injected_events: u64,
}

impl Stats {
    /// Fresh, all-zero statistics.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Records a retired instruction of provenance `prov` costing `cycles`.
    #[inline]
    pub fn retire(&mut self, prov: Provenance, cycles: u64) {
        self.instructions += 1;
        self.cycles += cycles;
        self.cycles_by_prov[prov.index()] += cycles;
        self.insns_by_prov[prov.index()] += 1;
    }

    /// Adds I/O wait time (charged by the runtime for network/disk calls).
    #[inline]
    pub fn charge_io(&mut self, cycles: u64) {
        self.io_cycles += cycles;
    }

    /// Folds another run's counters into this one, element-wise. Every field
    /// is an exact `u64` sum, so merging is associative and order-independent
    /// — a fleet aggregate built in any order equals the sequential total
    /// bit-for-bit.
    pub fn merge(&mut self, other: &Stats) {
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.io_cycles += other.io_cycles;
        for i in 0..NPROV {
            self.cycles_by_prov[i] += other.cycles_by_prov[i];
            self.insns_by_prov[i] += other.insns_by_prov[i];
        }
        self.loads += other.loads;
        self.stores += other.stores;
        self.deferred_loads += other.deferred_loads;
        self.chk_taken += other.chk_taken;
        self.syscalls += other.syscalls;
        self.injected_events += other.injected_events;
    }

    /// Total modelled time: CPU cycles plus I/O waits.
    pub fn total_time(&self) -> u64 {
        self.cycles + self.io_cycles
    }

    /// Cycles attributed to instrumentation (everything except
    /// [`Provenance::Original`]).
    pub fn instrumentation_cycles(&self) -> u64 {
        self.cycles - self.cycles_by_prov[Provenance::Original.index()]
    }

    /// Cycles for one provenance label.
    pub fn cycles_for(&self, prov: Provenance) -> u64 {
        self.cycles_by_prov[prov.index()]
    }

    /// Instruction count for one provenance label.
    pub fn insns_for(&self, prov: Provenance) -> u64 {
        self.insns_by_prov[prov.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, NatFaultKind};

    #[test]
    fn retire_accumulates_by_provenance() {
        let mut s = Stats::new();
        s.retire(Provenance::Original, 3);
        s.retire(Provenance::LdTagCompute, 2);
        s.retire(Provenance::LdTagCompute, 2);
        assert_eq!(s.instructions, 3);
        assert_eq!(s.cycles, 7);
        assert_eq!(s.cycles_for(Provenance::LdTagCompute), 4);
        assert_eq!(s.insns_for(Provenance::LdTagCompute), 2);
        assert_eq!(s.instrumentation_cycles(), 4);
    }

    #[test]
    fn io_time_is_separate() {
        let mut s = Stats::new();
        s.retire(Provenance::Original, 10);
        s.charge_io(90);
        assert_eq!(s.cycles, 10);
        assert_eq!(s.total_time(), 100);
    }

    #[test]
    fn merge_sums_every_counter() {
        let mut a = Stats::new();
        a.retire(Provenance::Original, 3);
        a.charge_io(10);
        a.loads = 2;
        let mut b = Stats::new();
        b.retire(Provenance::LdTagCompute, 4);
        b.stores = 1;
        b.syscalls = 7;
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.instructions, a.instructions + b.instructions);
        assert_eq!(merged.cycles, a.cycles + b.cycles);
        assert_eq!(merged.total_time(), a.total_time() + b.total_time());
        assert_eq!(merged.cycles_for(Provenance::LdTagCompute), 4);
        assert_eq!(merged.cycles_for(Provenance::Original), a.cycles_for(Provenance::Original));
        assert_eq!(merged.loads, 2);
        assert_eq!(merged.stores, 1);
        assert_eq!(merged.syscalls, a.syscalls + 7);
        // Order independence: b.merge(a) gives the same totals.
        let mut swapped = b.clone();
        swapped.merge(&a);
        assert_eq!(swapped.instructions, merged.instructions);
        assert_eq!(swapped.cycles_by_prov, merged.cycles_by_prov);
    }

    #[test]
    fn exit_detection_classification() {
        assert!(Exit::Violation(Violation {
            policy: "H1".into(),
            message: "absolute path".into(),
            ip: 0,
            provenance: None,
        })
        .is_detection());
        assert!(Exit::Fault(Fault::NatConsumption { kind: NatFaultKind::LoadAddress, ip: 1 })
            .is_detection());
        assert!(!Exit::Fault(Fault::BadIp { ip: 0 }).is_detection());
        assert!(Exit::Halted(0).is_clean());
        assert!(!Exit::Halted(1).is_clean());
    }
}
