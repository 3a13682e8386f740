//! Postmortem debugging of detections.
//!
//! [`Postmortem`] re-runs a recorded (or freshly constructed) session under
//! forensic settings — every policy action overridden to fail-stop, the
//! instruction trace ring and taint observer armed — and halts execution at
//! the *first* detection with the machine state intact. From there it
//! exposes what the paper's incident-response story needs: the faulting
//! instruction and a disassembly window around it, every register with its
//! NaT bit, the `unat` spill bitmap, slices of the guest's in-memory tag
//! bitmap, and the taint provenance chain from source syscall to sink.
//!
//! The forensic overrides are deliberate and visible: a production session
//! configured to `abort-transaction` rolls a compromised request back and
//! keeps serving, which is exactly what you do *not* want when the goal is
//! to inspect the compromised state. Overriding every action to `terminate`
//! freezes the machine at the violation cycle instead. Cycle counts can
//! therefore differ from a recorded resilient serve once recovery would
//! have kicked in — the debugger stops at the first detection, and the
//! replay shrinker ([`crate::ReplayLog::shrink`]) reduces any multi-request
//! failure to a reproducer where that first detection *is* the failure.

use shift_isa::{Gpr, RangeSet};
use shift_machine::{layout, Exit, Fault, Injection, Machine, RegVal, Violation};
use shift_tagmap::tag_location;

use crate::replay::ReplayLog;
use crate::{
    Fleet, Granularity, Policy, ProgramImage, Runtime, Shift, TaintConfig, ViolationAction, World,
};

/// A single-stepping forensic session, frozen (once run) at the first
/// detection.
#[derive(Debug)]
pub struct Postmortem {
    machine: Machine,
    runtime: Runtime,
    granularity: Option<Granularity>,
    exit: Option<Exit>,
}

/// Instructions kept in the trace ring (the last N executed, disassembled
/// in [`Postmortem::trace_listing`]).
pub const TRACE_DEPTH: usize = 32;

fn forensic_config(base: &TaintConfig) -> TaintConfig {
    let mut cfg = base.clone();
    cfg.set_default_action(ViolationAction::Terminate);
    for p in Policy::ALL {
        cfg.set_action(p, ViolationAction::Terminate);
    }
    cfg
}

impl Postmortem {
    /// Prepares a forensic session: spawns a pristine instance from `image`
    /// with `injections` pre-armed, arms the trace ring and taint observer,
    /// and overrides every policy action to fail-stop. Nothing executes
    /// until [`Postmortem::run_to_violation`] or [`Postmortem::step`].
    pub fn new(
        shift: &Shift,
        image: &ProgramImage,
        world: World,
        injections: &[(u64, Injection)],
    ) -> Postmortem {
        let mut machine = image.spawn_injected(injections);
        machine.enable_taint_observer();
        machine.enable_trace(TRACE_DEPTH);
        let runtime = Runtime::new(forensic_config(shift.config()), world, shift.granularity())
            .with_io(shift.io());
        Postmortem { machine, runtime, granularity: shift.granularity(), exit: None }
    }

    /// Prepares a forensic session for connection `c` of a replay log: the
    /// recorded base world plus the connection's request stream and
    /// injection schedule, under the recorded session options (with the
    /// forensic action override).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range of the recorded connections.
    pub fn from_log(log: &ReplayLog, fleet: &Fleet, c: usize) -> Postmortem {
        let conn = &log.connections[c];
        let world = conn.requests.iter().fold(log.base.clone(), |w, msg| w.net(msg.clone()));
        Postmortem::new(fleet.shift(), fleet.image(), world, &conn.injections)
    }

    /// Runs until the first detection, fault, clean halt, or `max_insns`
    /// retired instructions. Returns the exit if execution stopped.
    pub fn run_to_violation(&mut self, max_insns: u64) -> Option<&Exit> {
        if self.exit.is_none() {
            let budget = self.machine.stats.instructions.saturating_add(max_insns);
            while self.machine.stats.instructions < budget {
                if let Some(exit) = self.machine.step(&mut self.runtime) {
                    self.exit = Some(exit);
                    break;
                }
            }
        }
        self.exit.as_ref()
    }

    /// Single-steps up to `n` instructions (stopping early on any exit).
    /// Returns the exit if execution stopped.
    pub fn step(&mut self, n: u64) -> Option<&Exit> {
        if self.exit.is_none() {
            for _ in 0..n {
                if let Some(exit) = self.machine.step(&mut self.runtime) {
                    self.exit = Some(exit);
                    break;
                }
            }
        }
        self.exit.as_ref()
    }

    /// How execution stopped, if it has.
    pub fn exit(&self) -> Option<&Exit> {
        self.exit.as_ref()
    }

    /// Current instruction pointer.
    pub fn ip(&self) -> usize {
        self.machine.cpu.ip
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.machine.stats.instructions
    }

    /// Modelled cycles elapsed so far — at a detection, the violation cycle.
    pub fn cycles(&self) -> u64 {
        self.machine.stats.total_time()
    }

    /// Every violation recorded by the runtime so far, in order.
    pub fn violations(&self) -> &[Violation] {
        &self.runtime.violations
    }

    /// Every general register with its value and NaT bit.
    pub fn registers(&self) -> Vec<(Gpr, RegVal)> {
        Gpr::ALL.iter().map(|&r| (r, self.machine.cpu.gpr(r))).collect()
    }

    /// The registers currently carrying a NaT (tainted) bit.
    pub fn nat_registers(&self) -> Vec<Gpr> {
        Gpr::ALL.iter().copied().filter(|&r| self.machine.cpu.gpr(r).nat).collect()
    }

    /// The `unat` spill-bitmap register (NaT bits of spilled registers).
    pub fn unat(&self) -> u64 {
        self.machine.cpu.unat
    }

    /// Disassembly of the last [`TRACE_DEPTH`] executed instructions,
    /// annotated with the current IP.
    pub fn trace_listing(&self) -> String {
        self.machine.trace_listing()
    }

    /// Disassembly window of `radius` instructions around the current IP.
    pub fn disasm_window(&self, radius: usize) -> String {
        let code = self.machine.code();
        let lo = self.ip().saturating_sub(radius);
        let hi = (self.ip() + radius + 1).min(code.len());
        shift_isa::disasm_listing(&code[lo..hi], lo)
    }

    /// The taint provenance chain behind the stop, when one exists: policy
    /// violations carry their chain; NaT-consumption faults fall back to
    /// the observer's fault chain; as a last resort the most recent
    /// recorded violation's chain is used.
    pub fn provenance(&self) -> Option<String> {
        match &self.exit {
            Some(Exit::Violation(v)) => v.provenance.clone(),
            Some(Exit::Fault(Fault::NatConsumption { .. })) => {
                self.machine.taint_observer().and_then(|o| o.fault_chain()).map(str::to_string)
            }
            _ => None,
        }
        .or_else(|| self.runtime.violations.iter().rev().find_map(|v| v.provenance.clone()))
    }

    /// Reads the guest-maintained tag bitmap for `len` bytes starting at
    /// `addr`: one `(address, tagged)` pair per byte. Addresses whose tag
    /// location is unmapped or unimplemented read as untagged. Empty when
    /// the session is uninstrumented (no tag bitmap exists).
    pub fn tagmap_slice(&mut self, addr: u64, len: u64) -> Vec<(u64, bool)> {
        let Some(gran) = self.granularity else { return Vec::new() };
        (addr..addr.saturating_add(len))
            .map(|a| {
                let tagged = tag_location(a, gran).ok().is_some_and(|loc| {
                    self.machine.mem.is_mapped(loc.byte_addr)
                        && self
                            .machine
                            .mem
                            .read_int(loc.byte_addr, 1)
                            .is_ok_and(|b| b as u8 & loc.mask != 0)
                });
                (a, tagged)
            })
            .collect()
    }

    /// Coalesces [`Postmortem::tagmap_slice`] into `(start, len)` runs of
    /// tainted bytes.
    pub fn tainted_ranges(&mut self, addr: u64, len: u64) -> Vec<(u64, u64)> {
        let mut runs = RangeSet::default();
        for (a, _) in self.tagmap_slice(addr, len).into_iter().filter(|&(_, tagged)| tagged) {
            runs.insert(a, a + 1);
        }
        runs.iter().map(|(lo, hi)| (lo, hi - lo)).collect()
    }

    /// Reads `len` bytes of guest memory starting at `addr`: one
    /// `(address, byte)` pair per address, `None` where the page is
    /// unmapped. This is the `mem` command of the interactive debugger.
    pub fn mem_slice(&mut self, addr: u64, len: u64) -> Vec<(u64, Option<u8>)> {
        (addr..addr.saturating_add(len))
            .map(|a| {
                let byte = if self.machine.mem.is_mapped(a) {
                    self.machine.mem.read_int(a, 1).ok().map(|b| b as u8)
                } else {
                    None
                };
                (a, byte)
            })
            .collect()
    }

    /// Formats the full postmortem: exit, violation cycle, disassembly
    /// around the fault, NaT'd registers, recent trace, provenance chain,
    /// and tainted ranges in the hot regions (top of stack, globals). This
    /// is what `shift-cli replay --debug` prints.
    pub fn report(&mut self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match &self.exit {
            Some(exit) => {
                let _ = writeln!(out, "stopped: {}", crate::replay::exit_signature(exit));
            }
            None => {
                let _ = writeln!(out, "stopped: (still running)");
            }
        }
        let _ = writeln!(
            out,
            "at ip={} after {} instructions, cycle {}",
            self.ip(),
            self.instructions(),
            self.cycles()
        );
        for v in self.violations() {
            let _ = writeln!(out, "violation: {} at ip={}: {}", v.policy, v.ip, v.message);
        }
        if let Some(chain) = self.provenance() {
            let _ = writeln!(out, "provenance: {chain}");
        }
        let nats = self.nat_registers();
        if nats.is_empty() {
            let _ = writeln!(out, "NaT registers: none");
        } else {
            let names: Vec<String> = nats.iter().map(|r| r.to_string()).collect();
            let _ = writeln!(out, "NaT registers: {}", names.join(" "));
        }
        let _ = writeln!(out, "unat: {:#018x}", self.unat());
        let _ = writeln!(out, "\n-- code around fault --");
        out.push_str(&self.disasm_window(4));
        let _ = writeln!(out, "\n-- last {TRACE_DEPTH} instructions --");
        out.push_str(&self.trace_listing());
        let _ = writeln!(out, "\n-- tainted memory --");
        let stack_lo = layout::stack_top() - 0x1000;
        for (label, base, len) in
            [("stack", stack_lo, 0x1000u64), ("globals", layout::GLOBALS_BASE, 0x1000)]
        {
            let runs = self.tainted_ranges(base, len);
            if runs.is_empty() {
                let _ = writeln!(out, "{label}: clean");
            } else {
                for (start, n) in runs {
                    let _ = writeln!(out, "{label}: {start:#x} +{n} tainted");
                }
            }
        }
        out
    }
}
