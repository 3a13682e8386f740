//! The in-order executor: fetch, predicate check, execute, account.

use shift_isa::{AluOp, CostModel, ExtKind, Insn, MemSize, Op, Provenance};
use shift_obs::{FuncSpan, Profiler, TaintObserver, TraceKind, TraceRing};

use crate::block::{BlockProgram, Kind, MicroOp, TagAddr, NPROV};
use crate::cache::CacheHierarchy;
use crate::cpu::{Cpu, RegVal};
use crate::fault::{Fault, NatFaultKind};
use crate::image::Image;
use crate::mem::{MemError, Memory};
use crate::snapshot::{Fnv, Injection, Snapshot};
use crate::stats::{Exit, Stats};

/// Host runtime interface: handles `syscall` traps.
///
/// The runtime receives the whole machine so it can read argument registers,
/// move data in and out of guest memory, maintain the taint bitmap for
/// sources, run policy checks for sinks, and charge I/O wait time.
pub trait Os {
    /// Handles runtime call `num` (arguments in `r16..`, result in `r8`).
    fn syscall(&mut self, machine: &mut Machine, num: u32) -> SysResult;
}

/// Outcome of a runtime call.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SysResult {
    /// Continue executing the guest.
    Continue,
    /// Stop the run with the given exit (guest `exit`, policy violation, …).
    Stop(Exit),
}

/// An [`Os`] that rejects every runtime call — sufficient for pure-compute
/// programs that end with `halt`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullOs;

impl Os for NullOs {
    fn syscall(&mut self, machine: &mut Machine, num: u32) -> SysResult {
        SysResult::Stop(Exit::Fault(Fault::BadSyscall { num, ip: machine.cpu.ip }))
    }
}

/// The simulated processor plus its memory and accounting state.
///
/// Build one from an [`Image`] (or spawn many from a [`crate::MachineSeed`])
/// and drive it with [`Machine::run`]:
///
/// ```
/// use shift_isa::{Gpr, Insn, Op};
/// use shift_machine::{Exit, Image, Machine, NullOs};
///
/// let image = Image::builder()
///     .code(vec![
///         Insn::new(Op::MovI { dst: Gpr::R1, imm: 2 }),
///         Insn::new(Op::AluI { op: shift_isa::AluOp::Add, dst: Gpr::R8, src1: Gpr::R1, imm: 40 }),
///         Insn::new(Op::Halt),
///     ])
///     .build();
/// let mut m = Machine::new(&image);
/// assert_eq!(m.run(&mut NullOs, 1_000), Exit::Halted(42));
/// assert_eq!(m.stats.instructions, 3);
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    /// Architected register state.
    pub cpu: Cpu,
    /// Guest memory.
    pub mem: Memory,
    /// Data-cache hierarchy (stall model).
    pub cache: CacheHierarchy,
    /// Cycle/event accounting.
    pub stats: Stats,
    /// Instruction latency table. Private because `base_cost` caches its
    /// per-instruction answers — mutating one without the other would skew
    /// the cycle model.
    cost: CostModel,
    /// Decoded code, shared with the [`crate::MachineSeed`] (and every
    /// sibling instance) that spawned this machine.
    code: std::sync::Arc<[Insn]>,
    /// `cost.base()` of each instruction in `code`, precomputed so the
    /// dispatcher replaces a second match on the op with one indexed load.
    /// Shared like `code`.
    base_cost: std::sync::Arc<[u64]>,
    /// Code pre-decoded into superblocks (see [`crate::block`]), shared like
    /// `code`. A pure host-speed structure: never part of guest state.
    blocks: std::sync::Arc<BlockProgram>,
    /// Superblocks entered through the block-dispatch tier.
    block_hits: u64,
    /// Instructions stepped on the per-instruction fallback tier while block
    /// dispatch was eligible (mid-block entry, boundary guard, budget tail).
    block_misses: u64,
    /// Times the superblock tables were invalidated and rebuilt.
    block_flushes: u64,
    watchdog: Option<Watchdog>,
    injections: Vec<(u64, Injection)>,
    /// Per-instruction diagnostics (see [`Diagnostics`]). Arming any of
    /// them is the one thing that keeps [`Machine::run`] off the superblock
    /// tier.
    diag: Option<Box<Diagnostics>>,
    /// Flight recorder (DESIGN.md §14). Diagnostic-only like `diag`, but
    /// deliberately NOT part of the tier gate: its events originate only at
    /// syscall boundaries, superblock flushes, recovery points, and
    /// injection firings — never per instruction — so the superblock tier
    /// stays armed while recording.
    flight: Option<Box<TraceRing>>,
}

/// The diagnostics that watch every instruction: the address trace ring,
/// the taint observer, and the cycle-attribution profiler. Diagnostic-only:
/// they cost no modelled cycles, are excluded from
/// [`Machine::state_digest`] and snapshots, and never influence execution.
/// They share one box so the disarmed case is a single pointer test.
#[derive(Clone, Debug, Default)]
struct Diagnostics {
    /// The last `trace_cap` executed instruction addresses, oldest first.
    /// Grows as it records, so a huge depth allocates nothing up front.
    trace: Option<std::collections::VecDeque<usize>>,
    trace_cap: usize,
    obs: Option<TaintObserver>,
    profiler: Option<Profiler>,
}

/// Per-transaction fuel budget: counts instructions retired since the last
/// [`Machine::pet_watchdog`] and trips when the budget is exceeded.
#[derive(Clone, Debug)]
struct Watchdog {
    budget: u64,
    used: u64,
}

/// Outcome of one dispatcher step (or one superblock).
///
/// This is the contract between the dispatch tiers and the [`Machine::run`]
/// driver loop: both the per-instruction stepper and the superblock executor
/// report their progress through it.
///
/// The `Recheck` variant is the linchpin of the tiered design: a `syscall`
/// hands the *whole machine* (`&mut Machine`) to the [`Os`] handler, which
/// may arm the watchdog, schedule injections, enable tracing or
/// observability, or rewind memory — so every loop invariant the superblock
/// tier relies on (and the software TLB's internal state) must be
/// re-established from scratch before the next instruction. Anything that
/// cannot happen mid-block is deferred to this boundary.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StepOut {
    /// Keep going.
    Continue,
    /// Keep going, but a syscall ran — the superblock tier's invariants (no
    /// per-instruction diagnostic armed; watchdog fuel, injection countdowns
    /// and the run budget guarded at block entry) must be re-verified
    /// before the next dispatch.
    Recheck,
    /// The run stops.
    Exit(Exit),
}

/// Why a micro-op left its superblock before the block's end.
enum Leave {
    /// An architectural fault at the micro-op's instruction.
    Fault(Fault),
    /// A `syscall`: the handler runs after the block's accounting flushes.
    Syscall(u32),
    /// `halt`.
    Halt,
}

/// Host-side counters for the superblock dispatch tier (see
/// [`Machine::superblock_stats`]). Purely diagnostic: these count *host*
/// dispatch decisions, never modelled events, and are excluded from
/// [`Machine::state_digest`] and [`Stats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SuperblockStats {
    /// Superblocks executed through the block-dispatch tier.
    pub hits: u64,
    /// Instructions stepped on the per-instruction fallback while block
    /// dispatch was eligible (mid-block entry, boundary guard refusal, or
    /// the run budget's tail being shorter than the next block).
    pub misses: u64,
    /// Times [`Machine::flush_superblocks`] rebuilt the tables.
    pub flushes: u64,
    /// Superblocks in the decoded program.
    pub blocks: u64,
    /// Tag-address templates (either form) fused into one micro-op each in
    /// the decoded program.
    pub fused_tag_addrs: u64,
    /// Store tag merges fused into one micro-op each in the decoded program.
    pub fused_merges: u64,
}

impl Machine {
    /// Loads an image: maps its segments, copies initialized data, maps the
    /// stack and sets `sp`/`ip`.
    ///
    /// # Panics
    ///
    /// Panics if an initialized data segment fails to load (a malformed
    /// image is a programming error, not a guest-visible fault).
    pub fn new(image: &Image) -> Machine {
        crate::seed::MachineSeed::new(image).into_machine()
    }

    /// Assembles a machine from seed parts: fresh caches, zeroed stats,
    /// shared code. Only [`crate::MachineSeed`] builds these parts.
    pub(crate) fn from_seed_parts(
        cpu: Cpu,
        mem: Memory,
        code: std::sync::Arc<[Insn]>,
        base_cost: std::sync::Arc<[u64]>,
        blocks: std::sync::Arc<BlockProgram>,
    ) -> Machine {
        Machine {
            cpu,
            mem,
            cache: CacheHierarchy::itanium2(),
            stats: Stats::new(),
            cost: CostModel::ITANIUM2,
            base_cost,
            code,
            blocks,
            block_hits: 0,
            block_misses: 0,
            block_flushes: 0,
            watchdog: None,
            injections: Vec::new(),
            diag: None,
            flight: None,
        }
    }

    /// Enables taint-flow tracing: the machine mirrors every taint-relevant
    /// event into a [`TaintObserver`], so violations can be reported with a
    /// full provenance chain. Purely diagnostic — modelled cycles, guest
    /// state, and [`Machine::state_digest`] are unaffected.
    pub fn enable_taint_observer(&mut self) {
        self.diag_mut().obs = Some(TaintObserver::default());
    }

    /// The taint observer, when tracing is enabled.
    pub fn taint_observer(&self) -> Option<&TaintObserver> {
        self.diag.as_deref()?.obs.as_ref()
    }

    /// Mutable access to the taint observer (the runtime records taint
    /// births and sink events through this).
    pub fn taint_observer_mut(&mut self) -> Option<&mut TaintObserver> {
        self.diag.as_deref_mut()?.obs.as_mut()
    }

    /// Enables the cycle-attribution profiler with the given guest function
    /// table. Diagnostic-only, like the taint observer.
    pub fn enable_profiler(&mut self, funcs: Vec<FuncSpan>) {
        let profiler = Profiler::new(funcs, self.cpu.ip);
        self.diag_mut().profiler = Some(profiler);
    }

    /// The per-instruction diagnostics slot, created on first arming.
    fn diag_mut(&mut self) -> &mut Diagnostics {
        self.diag.get_or_insert_with(Box::default)
    }

    /// Arms the flight recorder: a bounded [`TraceRing`] holding at most
    /// `cap` events, with time-series sampling every `sample_cycles`
    /// modelled cycles (`0` disarms sampling). Diagnostic-only, like the
    /// taint observer — and unlike it, arming the recorder keeps execution
    /// on the superblock tier, because every recording site sits on a
    /// boundary path (DESIGN.md §14).
    pub fn enable_flight_recorder(&mut self, cap: usize, sample_cycles: u64) {
        let mut ring = TraceRing::with_capacity(cap);
        if sample_cycles > 0 {
            ring.arm_sampling(sample_cycles);
        }
        self.flight = Some(Box::new(ring));
    }

    /// The flight recorder, when armed.
    pub fn flight_recorder(&self) -> Option<&TraceRing> {
        self.flight.as_deref()
    }

    /// Mutable access to the flight recorder (the runtime pushes
    /// checkpoint/recovery/violation/request/syscall events through this).
    pub fn flight_recorder_mut(&mut self) -> Option<&mut TraceRing> {
        self.flight.as_deref_mut()
    }

    /// Detaches and returns the flight recorder (the fleet does this after
    /// a serve, to merge per-connection rings into one timeline).
    pub fn take_flight_recorder(&mut self) -> Option<TraceRing> {
        self.flight.take().map(|b| *b)
    }

    /// The profiler, when enabled.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.diag.as_deref()?.profiler.as_ref()
    }

    /// Arms (or re-arms) the watchdog: once more than `insns` instructions
    /// retire without a [`Machine::pet_watchdog`], [`Machine::step`] stops
    /// with [`Exit::FuelExhausted`] — a runaway or wedged guest terminates
    /// deterministically instead of spinning to the global budget. The run
    /// is resumable: pet (or disarm) the watchdog and step again.
    pub fn arm_watchdog(&mut self, insns: u64) {
        self.watchdog = Some(Watchdog { budget: insns, used: 0 });
    }

    /// Resets the watchdog's fuel counter. The recovery runtime calls this
    /// at every transaction boundary (each request is granted a full
    /// budget); a no-op when the watchdog is unarmed.
    pub fn pet_watchdog(&mut self) {
        if let Some(w) = &mut self.watchdog {
            w.used = 0;
        }
    }

    /// Disarms the watchdog.
    pub fn disarm_watchdog(&mut self) {
        self.watchdog = None;
    }

    /// Captures a restorable [`Snapshot`]: the full architected CPU state
    /// (GPRs with NaT bits, predicates, branch registers, `UNAT`, `ip`) plus
    /// a copy-on-write memory checkpoint. Supersedes any earlier snapshot of
    /// this machine.
    ///
    /// ```
    /// use shift_isa::{Gpr, Insn, Op};
    /// use shift_machine::{Image, Machine, NullOs};
    ///
    /// let image = Image::builder()
    ///     .code(vec![Insn::new(Op::MovI { dst: Gpr::R8, imm: 7 }), Insn::new(Op::Halt)])
    ///     .build();
    /// let mut m = Machine::new(&image);
    /// let before = m.state_digest();
    /// let snap = m.snapshot();
    /// m.run(&mut NullOs, 1_000); // mutates registers and `ip`
    /// assert_ne!(m.state_digest(), before);
    /// m.restore(&snap);
    /// assert_eq!(m.state_digest(), before);
    /// ```
    pub fn snapshot(&mut self) -> Snapshot {
        let mem_epoch = self.mem.begin_checkpoint();
        Snapshot { cpu: self.cpu.clone(), mem_epoch }
    }

    /// Rewinds CPU and memory to `snap`'s point. The checkpoint stays armed,
    /// so the same snapshot can be restored repeatedly (per-request
    /// isolation rolls back to one snapshot many times). Timing state
    /// (cache, statistics) is not rewound — see [`Snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if `snap` was superseded by a newer [`Machine::snapshot`] or
    /// belongs to another machine.
    pub fn restore(&mut self, snap: &Snapshot) {
        assert_eq!(
            self.mem.checkpoint_epoch(),
            snap.mem_epoch,
            "snapshot superseded by a newer checkpoint (or from another machine)"
        );
        assert!(self.mem.rollback_checkpoint(), "no armed memory checkpoint to restore");
        self.cpu = snap.cpu.clone();
    }

    /// Digest of all guest-observable state: every register (values, NaT
    /// bits, predicates, branch registers, `UNAT`, `ip`) and all memory
    /// contents, mappings, and banked spill-NaT bits. Two machines with
    /// equal digests are indistinguishable to the guest; recovery tests use
    /// this for byte-for-byte restore verification.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        self.cpu.digest_into(&mut h);
        self.mem.digest_into(&mut h);
        h.0
    }

    /// Schedules a fault-injection event: `inj` is applied immediately
    /// before the instruction that retires after `insns` more steps
    /// (`0` = before the next instruction). Events are transient — they
    /// perturb state or raise one fault, then disappear.
    pub fn inject_after(&mut self, insns: u64, inj: Injection) {
        self.injections.push((insns, inj));
    }

    /// Number of scheduled injections that have not fired yet.
    pub fn pending_injections(&self) -> usize {
        self.injections.len()
    }

    fn apply_due_injections(&mut self) -> Option<Exit> {
        let mut due = Vec::new();
        self.injections.retain_mut(|(countdown, inj)| {
            if *countdown == 0 {
                due.push(inj.clone());
                false
            } else {
                *countdown -= 1;
                true
            }
        });
        let mut fault = None;
        for inj in due {
            self.stats.injected_events += 1;
            if let Some(fr) = self.flight.as_deref_mut() {
                let what = match &inj {
                    Injection::FlipNat { .. } => "flip_nat",
                    Injection::CorruptByte { .. } => "corrupt_byte",
                    Injection::Fault(_) => "fault",
                };
                fr.instant(self.stats.total_time(), TraceKind::InjectionFired { what });
            }
            match inj {
                Injection::FlipNat { reg } => {
                    let v = self.cpu.gpr(reg);
                    self.cpu.set_gpr(reg, RegVal { value: v.value, nat: !v.nat });
                }
                Injection::CorruptByte { addr, xor } => {
                    // Unmapped targets are a benign no-op; everything else
                    // goes through the normal write path so an armed
                    // checkpoint journals the damage.
                    if let Ok(old) = self.mem.read_int(addr, 1) {
                        let _ = self.mem.write_int(addr, 1, old ^ u64::from(xor));
                    }
                }
                Injection::Fault(f) => fault = Some(f),
            }
        }
        fault.map(Exit::Fault)
    }

    /// Keeps a ring buffer of the last `n` executed instruction addresses
    /// for post-mortem inspection (see [`Machine::trace_listing`]). Tracing
    /// costs a deque push per instruction; leave it off for experiments.
    /// The ring grows as it records, so `n` bounds memory but never
    /// allocates up front.
    pub fn enable_trace(&mut self, n: usize) {
        let diag = self.diag_mut();
        diag.trace = Some(std::collections::VecDeque::new());
        diag.trace_cap = n;
    }

    /// The traced instruction addresses, oldest first (empty when tracing
    /// is off).
    pub fn trace(&self) -> Vec<usize> {
        let trace = self.diag.as_deref().and_then(|d| d.trace.as_ref());
        trace.map(|t| t.iter().copied().collect()).unwrap_or_default()
    }

    /// Formats the trace as a disassembly listing, annotating each line
    /// with its address; the faulting/last instruction comes last.
    pub fn trace_listing(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for &ip in self.trace().iter() {
            if let Some(insn) = self.code.get(ip) {
                let _ = writeln!(out, "{ip:6}:  {insn}");
            }
        }
        out
    }

    /// The loaded code (read-only).
    pub fn code(&self) -> &[Insn] {
        &self.code
    }

    /// Runs until the guest stops or `max_insns` instructions retire.
    ///
    /// Dispatch has two tiers (see DESIGN.md §13):
    ///
    /// 1. **Superblock tier** — when no per-instruction diagnostic (trace,
    ///    observer, profiler) is armed and `ip` starts a pre-decoded block
    ///    whose length fits every armed budget, whole blocks execute
    ///    back-to-back through the trace-threaded dispatch loop. Watchdog
    ///    fuel, injection countdowns, and the run budget are checked once
    ///    per block — the entry guard proves none can expire mid-block, so
    ///    checking them at boundaries only is exact, not approximate.
    /// 2. **Per-instruction stepper** — the fully-checked [`Machine::step`]
    ///    path. It runs every instruction while a diagnostic is armed, and
    ///    otherwise one instruction at each side exit of the superblock
    ///    tier (mid-block `ip`, a boundary budget too small for the next
    ///    block, the run budget's tail), after which block dispatch retries
    ///    at the new `ip`.
    ///
    /// A `syscall` exits the current tier with [`StepOut::Recheck`] and the
    /// next iteration re-selects the tier from scratch (the `Os` handler may
    /// have armed anything).
    pub fn run<O: Os>(&mut self, os: &mut O, max_insns: u64) -> Exit {
        let budget = self.stats.instructions.saturating_add(max_insns);
        // One handle for the whole run: `self.blocks` can only be swapped by
        // `flush_superblocks`, which rebuilds identical tables from the same
        // immutable code, so a run never observes a stale decode.
        let prog = std::sync::Arc::clone(&self.blocks);
        loop {
            if self.stats.instructions >= budget {
                return Exit::InsnLimit;
            }
            if self.diag.is_none() {
                match self.run_blocks(os, &prog, budget) {
                    // Side exit: step one instruction, then retry blocks.
                    StepOut::Continue => self.block_misses += 1,
                    // A syscall ran and may have armed anything: re-select.
                    StepOut::Recheck => continue,
                    StepOut::Exit(exit) => return exit,
                }
            }
            if let StepOut::Exit(exit) = self.step_impl(os) {
                return exit;
            }
        }
    }

    /// Executes superblocks back-to-back until a side exit, through the
    /// trace-threaded dispatch loop.
    ///
    /// Architecturally identical to stepping the same instructions one at a
    /// time through `step_impl`: same state updates in the same
    /// order, same fault points with `ip` left on the faulting instruction,
    /// same modelled cycles. The wins are pure host mechanics:
    ///
    /// * no per-instruction fetch bounds check, budget compare, or `ip`
    ///   store — `ip` lives in a local and is written back only on exit;
    /// * one dispatch per micro-op, and fewer micro-ops than instructions:
    ///   kinds are specialised at decode and the SHIFT instrumentation
    ///   templates are fused (see [`crate::block`]); pure and impure blocks
    ///   run the same kernel, [`Machine::exec_uop`];
    /// * retire accounting lands in stack-local accumulators that persist
    ///   *across* chained blocks and flush only on a side exit. Per-op
    ///   accounting is gone entirely: every block merges its precomputed
    ///   full-pass [`crate::block::ProvAcct`] entries at completion, and
    ///   the execution loop records only *deviations* from that full pass
    ///   (cache stalls, predicated-off slots, taken `chk.s`). Early exits
    ///   settle the entered prefix from the micro-ops' static base costs;
    /// * watchdog fuel, injection countdowns, and the run budget are
    ///   checked once per block — the entry guard proves none can expire
    ///   mid-block (see below), so boundary-only checks are exact.
    ///
    /// The entry guard: with the watchdog at `used` of `budget` fuel and
    /// `pending` locally-retired instructions not yet flushed, the
    /// per-instruction stepper would trip before instruction `i` of the next
    /// block iff `used + pending + i >= budget`, so a full block of `len` is
    /// safe iff `used + pending + len <= budget`; the same argument bounds
    /// injection countdowns (an event fires when its countdown hits zero
    /// *before* an instruction) and the run budget.
    ///
    /// Returns [`StepOut::Continue`] on a side exit (mid-block `ip`, guard
    /// failure, budget tail — the caller steps one instruction and retries),
    /// [`StepOut::Recheck`] after a syscall, or [`StepOut::Exit`].
    fn run_blocks<O: Os>(&mut self, os: &mut O, prog: &BlockProgram, budget: u64) -> StepOut {
        let mut cyc = [0u64; NPROV];
        let mut ins = [0u64; NPROV];
        // Instructions retired into the local accumulators but not yet
        // flushed (== the sums of `ins`): completed blocks retire every
        // covered instruction exactly once, including predicated-off slots.
        let mut pending = 0u64;
        let mut ip = self.cpu.ip;

        // Flushes the accumulators into `Stats` and charges boundary fuel:
        // the watchdog consumes one unit and every injection countdown
        // decreases by one per retired instruction, exactly as the
        // per-instruction stepper would have charged them one at a time.
        // Runs *before* any `Os` handler or caller can observe the machine,
        // so a syscall sees stats, fuel, and countdowns in the same state
        // the per-instruction path would show it.
        macro_rules! flush {
            () => {{
                let mut cycles = 0u64;
                let mut insns = 0u64;
                for i in 0..NPROV {
                    self.stats.cycles_by_prov[i] += cyc[i];
                    self.stats.insns_by_prov[i] += ins[i];
                    cycles += cyc[i];
                    insns += ins[i];
                }
                self.stats.cycles += cycles;
                self.stats.instructions += insns;
                if let Some(w) = &mut self.watchdog {
                    w.used += insns;
                }
                if !self.injections.is_empty() {
                    for (countdown, _) in &mut self.injections {
                        debug_assert!(
                            *countdown >= insns,
                            "entry guard must prevent mid-block fire"
                        );
                        *countdown -= insns;
                    }
                }
            }};
        }
        // Merges a block's precomputed full-pass accounting entries into the
        // local accumulators (one sparse entry per provenance present).
        // Wrapping: the accumulators may hold transiently "negative"
        // deviations (see `dev!`) until this merge rebalances them.
        macro_rules! merge_accts {
            ($blk:expr) => {{
                let accts = &prog.accts
                    [$blk.acct_start as usize..($blk.acct_start + $blk.acct_len) as usize];
                for a in accts {
                    let i = usize::from(a.prov);
                    cyc[i] = cyc[i].wrapping_add(u64::from(a.cycles));
                    ins[i] += u64::from(a.insns);
                }
            }};
        }
        // Settles accounting for a partially-executed block: micro-ops
        // `..=$j` all entered, so charge each its static base cost and the
        // instructions it covers. Dynamic deviations (stalls, pred-off
        // slots) were already recorded as they happened, so base + recorded
        // deviations reproduces the per-instruction charges exactly.
        macro_rules! settle {
            ($uops:expr, $j:expr) => {{
                for u in &$uops[..=$j] {
                    let i = u.prov.index();
                    cyc[i] = cyc[i].wrapping_add(u64::from(u.base));
                    ins[i] += u64::from(u.n);
                }
            }};
        }
        // Stops mid-block at instruction `ip`: flush, leave `ip` exactly
        // where the per-instruction stepper would have left it.
        macro_rules! exit_at {
            ($ip:expr, $e:expr) => {{
                flush!();
                self.cpu.ip = $ip;
                return StepOut::Exit($e);
            }};
        }

        loop {
            let Some(bid) = prog.block_starting_at(ip) else {
                flush!();
                self.cpu.ip = ip;
                return StepOut::Continue;
            };
            let blk = &prog.blocks[bid as usize];
            let len = u64::from(blk.len);
            let horizon = pending + len;
            let guarded = self.stats.instructions + horizon > budget
                || self.watchdog.as_ref().is_some_and(|w| w.used + horizon > w.budget)
                || !self.injections.iter().all(|(countdown, _)| *countdown >= horizon);
            if guarded {
                flush!();
                self.cpu.ip = ip;
                return StepOut::Continue;
            }
            self.block_hits += 1;
            let base_ip = ip;
            let first = blk.uop_start as usize;
            let uops = &prog.uops[first..first + blk.uop_len as usize];
            let mut next_ip = base_ip + blk.len as usize;

            // One kernel for every block; a pure block's micro-ops are all
            // unpredicated, so its instance compiles the predicate test out.
            let left = if blk.pure {
                self.walk_block::<true>(prog, uops, base_ip, &mut cyc, &mut next_ip)
            } else {
                self.walk_block::<false>(prog, uops, base_ip, &mut cyc, &mut next_ip)
            };
            if let Some((j, leave)) = left {
                settle!(uops, j);
                let ip = base_ip + usize::from(uops[j].off);
                match leave {
                    Leave::Fault(f) => exit_at!(ip, Exit::Fault(f)),
                    Leave::Syscall(num) => {
                        self.stats.syscalls += 1;
                        // Flush *before* the handler runs: the `Os` gets
                        // `&mut Machine` and must see stats, fuel, and
                        // countdowns exactly as the per-instruction path
                        // would show them.
                        flush!();
                        self.cpu.ip = ip + 1;
                        return match os.syscall(self, num) {
                            SysResult::Continue => StepOut::Recheck,
                            SysResult::Stop(exit) => StepOut::Exit(exit),
                        };
                    }
                    Leave::Halt => {
                        exit_at!(ip, Exit::Halted(self.cpu.gpr(shift_isa::Gpr::RET).value as i64))
                    }
                }
            }
            merge_accts!(blk);
            pending += len;
            ip = next_ip;
        }
    }

    /// Walks one block's micro-ops through [`Machine::exec_uop`]. Returns
    /// `None` when the block ran to its end, or the index of the micro-op
    /// that left it early and why. `PURE` skips the predicate test, which
    /// every micro-op of a pure block passes.
    #[inline(always)]
    fn walk_block<const PURE: bool>(
        &mut self,
        prog: &BlockProgram,
        uops: &[MicroOp],
        base_ip: usize,
        cyc: &mut [u64; NPROV],
        next_ip: &mut usize,
    ) -> Option<(usize, Leave)> {
        for (j, u) in uops.iter().enumerate() {
            if !PURE && !self.cpu.pr(u.qp) {
                let i = u.prov.index();
                cyc[i] = cyc[i].wrapping_add(self.cost.pred_off.wrapping_sub(u64::from(u.base)));
                continue;
            }
            if let Err(leave) = self.exec_uop(prog, u, base_ip + usize::from(u.off), cyc, next_ip) {
                return Some((j, leave));
            }
        }
        None
    }

    /// The superblock kernel: executes one entered micro-op whose first
    /// instruction sits at `ip`. Architecturally identical to stepping its
    /// covered instructions through `step_impl`; cycle costs that deviate
    /// from the micro-op's `base` (cache stalls, a taken `chk.s`, a fused
    /// merge's squashed members) are added to `cyc` as wrapping deviations,
    /// and a taken transfer overwrites `next_ip`.
    #[inline(always)]
    fn exec_uop(
        &mut self,
        prog: &BlockProgram,
        u: &MicroOp,
        ip: usize,
        cyc: &mut [u64; NPROV],
        next_ip: &mut usize,
    ) -> Result<(), Leave> {
        // Records a cycle *deviation* from the block's precomputed full-pass
        // accounting. Wrapping because a deviation can be negative
        // (`pred_off - base`); the block's base entries always merge in
        // before any flush, which restores an exact non-negative total.
        macro_rules! dev {
            ($delta:expr) => {{
                let i = u.prov.index();
                cyc[i] = cyc[i].wrapping_add($delta);
            }};
        }
        macro_rules! nat_fault {
            ($kind:expr) => {
                return Err(Leave::Fault(Fault::NatConsumption { kind: $kind, ip }))
            };
        }
        // Register-register and register-immediate ALU forms: the result's
        // NaT bit is the OR of the sources'.
        macro_rules! rr {
            ($dst:expr, $a:expr, $b:expr, |$x:ident, $y:ident| $v:expr) => {{
                let (p, q) = (self.cpu.gpr($a), self.cpu.gpr($b));
                let ($x, $y) = (p.value, q.value);
                self.cpu.set_gpr_nz($dst, RegVal { value: $v, nat: p.nat || q.nat });
            }};
        }
        macro_rules! ri {
            ($dst:expr, $a:expr, |$x:ident| $v:expr) => {{
                let p = self.cpu.gpr($a);
                let $x = p.value;
                self.cpu.set_gpr_nz($dst, RegVal { value: $v, nat: p.nat });
            }};
        }
        match u.kind {
            Kind::Nop => {}
            Kind::Add { dst, a, b } => rr!(dst, a, b, |x, y| x.wrapping_add(y)),
            Kind::Sub { dst, a, b } => rr!(dst, a, b, |x, y| x.wrapping_sub(y)),
            Kind::And { dst, a, b } => rr!(dst, a, b, |x, y| x & y),
            Kind::Or { dst, a, b } => rr!(dst, a, b, |x, y| x | y),
            Kind::Xor { dst, a, b } => rr!(dst, a, b, |x, y| x ^ y),
            Kind::Shl { dst, a, b } => rr!(dst, a, b, |x, y| x.wrapping_shl(y as u32)),
            Kind::Shr { dst, a, b } => rr!(dst, a, b, |x, y| x.wrapping_shr(y as u32)),
            Kind::Sar { dst, a, b } => {
                rr!(dst, a, b, |x, y| (x as i64).wrapping_shr(y as u32) as u64)
            }
            Kind::Mul { dst, a, b } => rr!(dst, a, b, |x, y| x.wrapping_mul(y)),
            Kind::AddI { dst, a, imm } => ri!(dst, a, |x| x.wrapping_add(imm)),
            Kind::AndI { dst, a, imm } => ri!(dst, a, |x| x & imm),
            Kind::OrI { dst, a, imm } => ri!(dst, a, |x| x | imm),
            Kind::XorI { dst, a, imm } => ri!(dst, a, |x| x ^ imm),
            Kind::ShlI { dst, a, imm } => ri!(dst, a, |x| x.wrapping_shl(imm as u32)),
            Kind::ShrI { dst, a, imm } => ri!(dst, a, |x| x.wrapping_shr(imm as u32)),
            Kind::SarI { dst, a, imm } => {
                ri!(dst, a, |x| (x as i64).wrapping_shr(imm as u32) as u64)
            }
            Kind::MulI { dst, a, imm } => ri!(dst, a, |x| x.wrapping_mul(imm)),
            Kind::MovI { dst, imm } => self.cpu.set_gpr_nz(dst, RegVal::of(imm)),
            Kind::Mov { dst, src } => {
                let v = self.cpu.gpr(src);
                self.cpu.set_gpr_nz(dst, v);
            }
            Kind::Ext { kind, size, dst, src } => ri!(dst, src, |x| extend(kind, size, x)),
            Kind::Cmp { rel, pt, pf, a, b, nat_aware } => {
                let (p, q) = (self.cpu.gpr(a), self.cpu.gpr(b));
                self.do_cmp(rel, pt, pf, p, q, nat_aware);
            }
            Kind::CmpI { rel, pt, pf, a, imm, nat_aware } => {
                let p = self.cpu.gpr(a);
                self.do_cmp(rel, pt, pf, p, RegVal::of(imm), nat_aware);
            }
            Kind::Ld { size, ext, dst, addr, spec } => {
                let a = self.cpu.gpr(addr);
                if a.nat {
                    if !spec {
                        nat_fault!(NatFaultKind::LoadAddress);
                    }
                    self.stats.deferred_loads += 1;
                    self.cpu.set_gpr(dst, RegVal::NAT);
                } else {
                    match self.mem.read_int(a.value, size.bytes()) {
                        Ok(raw) => {
                            dev!(self.cache.access(a.value, size.bytes()));
                            self.cpu.set_gpr(dst, RegVal::of(extend(ext, size, raw)));
                            if u.prov == Provenance::Original {
                                self.stats.loads += 1;
                            }
                        }
                        Err(_) if spec => {
                            dev!(self.cache.mem_latency);
                            self.stats.deferred_loads += 1;
                            self.cpu.set_gpr(dst, RegVal::NAT);
                        }
                        Err(e) => return Err(Leave::Fault(mem_fault(e, ip))),
                    }
                }
            }
            Kind::St { size, src, addr } => {
                let (a, v) = (self.cpu.gpr(addr), self.cpu.gpr(src));
                if a.nat {
                    nat_fault!(NatFaultKind::StoreAddress);
                }
                if v.nat {
                    nat_fault!(NatFaultKind::StoreValue);
                }
                if let Err(e) = self.mem.write_int(a.value, size.bytes(), v.value) {
                    return Err(Leave::Fault(mem_fault(e, ip)));
                }
                dev!(self.cache.access(a.value, size.bytes()));
                if u.prov == Provenance::Original {
                    self.stats.stores += 1;
                }
            }
            Kind::StSpill { src, addr } => {
                let (a, v) = (self.cpu.gpr(addr), self.cpu.gpr(src));
                if a.nat {
                    nat_fault!(NatFaultKind::StoreAddress);
                }
                if let Err(e) = self.mem.write_int(a.value, 8, v.value) {
                    return Err(Leave::Fault(mem_fault(e, ip)));
                }
                dev!(self.cache.access(a.value, 8));
                self.cpu.unat = set_unat_bit(self.cpu.unat, a.value, v.nat);
                self.mem.set_spill_nat(a.value, v.nat);
                if u.prov == Provenance::Original {
                    self.stats.stores += 1;
                }
            }
            Kind::LdFill { dst, addr } => {
                let a = self.cpu.gpr(addr);
                if a.nat {
                    nat_fault!(NatFaultKind::LoadAddress);
                }
                let raw = match self.mem.read_int(a.value, 8) {
                    Ok(raw) => raw,
                    Err(e) => return Err(Leave::Fault(mem_fault(e, ip))),
                };
                dev!(self.cache.access(a.value, 8));
                let nat = self.mem.spill_nat(a.value);
                self.cpu.set_gpr(dst, RegVal { value: raw, nat });
                if u.prov == Provenance::Original {
                    self.stats.loads += 1;
                }
            }
            Kind::MovToBr { br, src } => {
                let v = self.cpu.gpr(src);
                if v.nat {
                    nat_fault!(NatFaultKind::BranchMove);
                }
                self.cpu.set_br(br, v.value);
            }
            Kind::MovFromBr { dst, br } => {
                let v = self.cpu.br(br);
                self.cpu.set_gpr_nz(dst, RegVal::of(v));
            }
            Kind::Tnat { pt, pf, src } => {
                let nat = self.cpu.gpr(src).nat;
                self.cpu.set_pr(pt, nat);
                self.cpu.set_pr(pf, !nat);
            }
            Kind::Tset { dst } => {
                let v = self.cpu.gpr(dst);
                self.cpu.set_gpr_nz(dst, RegVal { value: v.value, nat: true });
            }
            Kind::Tclr { dst } => {
                let v = self.cpu.gpr(dst);
                self.cpu.set_gpr_nz(dst, RegVal::of(v.value));
            }
            // Terminators (always the last micro-op of a block).
            // Unconditional transfers carry `branch_taken` in `u.base`
            // already (folded at decode time).
            Kind::ChkS { src, target } => {
                if self.cpu.gpr(src).nat {
                    dev!(self.cost.chk_set.wrapping_sub(u64::from(u.base)));
                    self.stats.chk_taken += 1;
                    *next_ip = target;
                }
            }
            Kind::Jmp { target } => *next_ip = target,
            Kind::Call { link, target } => {
                self.cpu.set_br(link, (ip + 1) as u64);
                *next_ip = target;
            }
            Kind::JmpBr { br } => *next_ip = self.cpu.br(br) as usize,
            Kind::Syscall { num } => return Err(Leave::Syscall(num)),
            Kind::Halt => return Err(Leave::Halt),
            // Fused instrumentation templates (see `crate::block`).
            Kind::TagAddr(i) => {
                let t = &prog.tag_addrs[i as usize];
                let (offset, byte, nat) = self.tag_byte_addr(t);
                self.cpu.set_gpr_nz(t.s1, RegVal { value: offset, nat });
                self.cpu.set_gpr_nz(t.s2, RegVal { value: byte, nat });
            }
            Kind::TagAddrBit(i) => {
                let t = &prog.tag_addrs[i as usize];
                let (offset, _, nat) = self.tag_byte_addr(t);
                let bit = offset & t.bit_mask;
                self.cpu.set_gpr_nz(t.s1, RegVal { value: bit, nat });
                let mask = t.width_mask.wrapping_shl(bit as u32);
                self.cpu.set_gpr_nz(t.s2, RegVal { value: mask, nat });
            }
            Kind::TagMerge(i) => {
                let m = &prog.merges[i as usize];
                let nat = self.cpu.gpr(m.src).nat;
                self.cpu.set_pr(m.pt, nat);
                self.cpu.set_pr(m.pf, !nat);
                let (x, y) = (self.cpu.gpr(m.t1), self.cpu.gpr(m.t2));
                if nat {
                    self.cpu
                        .set_gpr_nz(m.t1, RegVal { value: x.value | y.value, nat: x.nat || y.nat });
                    dev!(m.dev_tainted);
                } else {
                    let y = RegVal { value: y.value ^ m.imm, nat: y.nat };
                    self.cpu.set_gpr_nz(m.t2, y);
                    self.cpu
                        .set_gpr_nz(m.t1, RegVal { value: x.value & y.value, nat: x.nat || y.nat });
                    dev!(m.dev_clean);
                }
            }
        }
        Ok(())
    }

    /// The shared head of both tag-address templates: writes the tag byte
    /// address into `s0` and returns the implemented offset (`s1` after
    /// the `and`), the tag byte index (`s2` after the `shr`), and the NaT
    /// bit every result inherits from the address register.
    #[inline(always)]
    fn tag_byte_addr(&mut self, t: &TagAddr) -> (u64, u64, bool) {
        let a = self.cpu.gpr(t.addr);
        let region = a.value.wrapping_shr(t.region_shift as u32).wrapping_add(t.bias);
        let offset = a.value & t.impl_mask;
        let byte = offset.wrapping_shr(t.gran_shift as u32);
        let addr = region.wrapping_shl(t.stride_shift as u32) | byte;
        self.cpu.set_gpr_nz(t.s0, RegVal { value: addr, nat: a.nat });
        (offset, byte, a.nat)
    }

    /// Runs like [`Machine::run`] but with the superblock tier disabled:
    /// every instruction goes through the per-instruction stepper.
    ///
    /// Exists as the reference arm of the `block_props` differential tests
    /// and the control arm of dispatch benchmarks (the host is too noisy for
    /// cross-process comparisons, so the microbench runs both tiers
    /// in-process and interleaved). Architecturally identical to
    /// `run` — same exits, same stats, same modelled cycles — just slower
    /// on the host. Not part of the supported API.
    #[doc(hidden)]
    pub fn run_per_insn<O: Os>(&mut self, os: &mut O, max_insns: u64) -> Exit {
        let budget = self.stats.instructions.saturating_add(max_insns);
        loop {
            if self.stats.instructions >= budget {
                return Exit::InsnLimit;
            }
            if let StepOut::Exit(exit) = self.step_impl(os) {
                return exit;
            }
        }
    }

    /// Drops and rebuilds the superblock tables from the (immutable) code.
    ///
    /// Guest code cannot change under this simulator — `code` is a shared
    /// `Arc<[Insn]>` and the ISA has no code store — so nothing *requires*
    /// invalidation today; this is the hook a future embedder with mutable
    /// code would call, and the regression suite uses it to prove a flushed
    /// machine re-decodes to bit-identical behaviour.
    pub fn flush_superblocks(&mut self) {
        self.blocks = std::sync::Arc::new(BlockProgram::build(&self.code, &self.cost));
        self.block_flushes += 1;
        let now = self.stats.total_time();
        let blocks = self.blocks.block_count() as u64;
        if let Some(fr) = self.flight.as_deref_mut() {
            fr.instant(now, TraceKind::SuperblockFlush { blocks });
        }
    }

    /// Host-side superblock dispatch counters (see [`SuperblockStats`]).
    ///
    /// ```
    /// use shift_isa::{Gpr, Insn, Op};
    /// use shift_machine::{Image, Machine, NullOs};
    ///
    /// let image = Image::builder()
    ///     .code(vec![Insn::new(Op::MovI { dst: Gpr::R8, imm: 0 }), Insn::new(Op::Halt)])
    ///     .build();
    /// let mut m = Machine::new(&image);
    /// m.run(&mut NullOs, 1_000);
    /// let sb = m.superblock_stats();
    /// assert!(sb.blocks >= 1 && sb.hits >= 1);
    /// ```
    pub fn superblock_stats(&self) -> SuperblockStats {
        SuperblockStats {
            hits: self.block_hits,
            misses: self.block_misses,
            flushes: self.block_flushes,
            blocks: self.blocks.block_count() as u64,
            fused_tag_addrs: self.blocks.tag_addrs.len() as u64,
            fused_merges: self.blocks.merges.len() as u64,
        }
    }

    /// Executes one instruction; returns `Some(exit)` when the run stops.
    ///
    /// Stopping is never destructive: the machine can keep stepping after
    /// any exit (the runtime restores a snapshot first when the exit left
    /// `ip` at a faulting instruction).
    pub fn step<O: Os>(&mut self, os: &mut O) -> Option<Exit> {
        match self.step_impl(os) {
            StepOut::Exit(exit) => Some(exit),
            StepOut::Continue | StepOut::Recheck => None,
        }
    }

    /// The profiler's per-instruction hook target, when armed.
    #[inline(always)]
    fn profiler_mut(&mut self) -> Option<&mut Profiler> {
        self.diag.as_deref_mut()?.profiler.as_mut()
    }

    /// Retires one instruction into the stats and, when armed, the profiler.
    #[inline(always)]
    fn retire(&mut self, ip: usize, prov: Provenance, cycles: u64) {
        self.stats.retire(prov, cycles);
        if let Some(p) = self.profiler_mut() {
            p.record(ip, prov, cycles);
        }
    }

    /// One instruction of the dispatcher, with every check live: watchdog
    /// fuel, injection countdowns, and the per-instruction diagnostics. The
    /// unfused reference the superblock tier must match, and the stepper
    /// behind [`Machine::step`] and the superblock tier's side exits.
    #[inline(always)]
    fn step_impl<O: Os>(&mut self, os: &mut O) -> StepOut {
        if let Some(w) = &mut self.watchdog {
            if w.used >= w.budget {
                return StepOut::Exit(Exit::FuelExhausted);
            }
            w.used += 1;
        }
        if !self.injections.is_empty() {
            if let Some(exit) = self.apply_due_injections() {
                return StepOut::Exit(exit);
            }
        }
        let ip = self.cpu.ip;
        let Some(&insn) = self.code.get(ip) else {
            return StepOut::Exit(Exit::Fault(Fault::BadIp { ip }));
        };
        if let Some(d) = self.diag.as_deref_mut() {
            if let Some(trace) = &mut d.trace {
                trace.push_back(ip);
                if trace.len() > d.trace_cap {
                    trace.pop_front();
                }
            }
        }

        // Predicated-off instructions are squashed; on the 6-wide machine
        // their slot is effectively free (see CostModel::pred_off).
        if !self.cpu.pr(insn.qp) {
            self.retire(ip, insn.prov, self.cost.pred_off);
            self.cpu.ip = ip + 1;
            return StepOut::Continue;
        }

        // Same index as the fetch above, so the bound holds; equals
        // `self.cost.base(&insn.op)` by construction.
        let base = self.base_cost[ip];
        let mut cycles = base;
        let mut next_ip = ip + 1;

        macro_rules! fault {
            ($f:expr) => {{
                self.retire(ip, insn.prov, cycles);
                return StepOut::Exit(Exit::Fault($f));
            }};
        }

        // A NaT-consumption fault *is* the hardware detection; capture the
        // provenance chain for the report before the fault fires.
        macro_rules! nat_fault {
            ($reg:expr, $kind:expr, $desc:expr) => {{
                if let Some(o) = self.taint_observer_mut() {
                    o.on_nat_fault($reg, $desc, ip);
                }
                fault!(Fault::NatConsumption { kind: $kind, ip });
            }};
        }

        match insn.op {
            Op::Alu { op, dst, src1, src2 } => {
                let a = self.cpu.gpr(src1);
                let b = self.cpu.gpr(src2);
                let v = alu(op, a.value, b.value);
                // xor r,r,r / sub r,r,r are the architectural clear idioms
                // (§3.2: "SHIFT handles corner cases such as xor r15=r15,r15
                // … by clearing the taint tag").
                let self_cancel = src1 == src2 && matches!(op, AluOp::Xor | AluOp::Sub);
                let nat = if self_cancel { false } else { a.nat || b.nat };
                self.cpu.set_gpr(dst, RegVal { value: v, nat });
                if let Some(o) = self.taint_observer_mut() {
                    o.on_alu2(dst, nat, (src1, a.nat), (src2, b.nat));
                }
            }
            Op::AluI { op, dst, src1, imm } => {
                let a = self.cpu.gpr(src1);
                let v = alu(op, a.value, imm as u64);
                self.cpu.set_gpr(dst, RegVal { value: v, nat: a.nat });
                if let Some(o) = self.taint_observer_mut() {
                    o.on_alu1(dst, a.nat, src1);
                }
            }
            Op::MovI { dst, imm } => {
                self.cpu.set_gpr_val(dst, imm as u64);
                if let Some(o) = self.taint_observer_mut() {
                    o.on_movi(dst);
                }
            }
            Op::Mov { dst, src } => {
                let v = self.cpu.gpr(src);
                self.cpu.set_gpr(dst, v);
                if let Some(o) = self.taint_observer_mut() {
                    o.on_mov(dst, src);
                }
            }
            Op::Ext { kind, size, dst, src } => {
                let a = self.cpu.gpr(src);
                let v = extend(kind, size, a.value);
                self.cpu.set_gpr(dst, RegVal { value: v, nat: a.nat });
                if let Some(o) = self.taint_observer_mut() {
                    o.on_alu1(dst, a.nat, src);
                }
            }
            Op::Cmp { rel, pt, pf, src1, src2, nat_aware } => {
                let a = self.cpu.gpr(src1);
                let b = self.cpu.gpr(src2);
                self.do_cmp(rel, pt, pf, a, b, nat_aware);
                if let Some(o) = self.taint_observer_mut() {
                    o.on_cmp();
                }
            }
            Op::CmpI { rel, pt, pf, src1, imm, nat_aware } => {
                let a = self.cpu.gpr(src1);
                self.do_cmp(rel, pt, pf, a, RegVal::of(imm as u64), nat_aware);
                if let Some(o) = self.taint_observer_mut() {
                    o.on_cmp();
                }
            }
            Op::Ld { size, ext, dst, addr, spec } => {
                let a = self.cpu.gpr(addr);
                if a.nat {
                    if spec {
                        // NaT address: deferral propagates to the target
                        // directly (no translation attempted).
                        self.stats.deferred_loads += 1;
                        self.cpu.set_gpr(dst, RegVal::NAT);
                        if let Some(o) = self.taint_observer_mut() {
                            if insn.prov == Provenance::Original {
                                o.on_load_deferred(dst);
                            }
                        }
                    } else {
                        nat_fault!(addr, NatFaultKind::LoadAddress, "load address");
                    }
                } else {
                    match self.mem.read_int(a.value, size.bytes()) {
                        Ok(raw) => {
                            cycles += self.cache.access(a.value, size.bytes());
                            let v = extend(ext, size, raw);
                            self.cpu.set_gpr(dst, RegVal::of(v));
                            if insn.prov == Provenance::Original {
                                self.stats.loads += 1;
                            }
                            if let Some(o) = self.taint_observer_mut() {
                                // Only data accesses feed the taint trace:
                                // tag-bitmap reads and relax reloads are
                                // instrumentation plumbing.
                                if insn.prov == Provenance::Original {
                                    o.on_load(dst, a.value, size.bytes(), ip);
                                }
                            }
                        }
                        Err(_) if spec => {
                            // Invalid address under speculation: the access
                            // walks the TLB/VHPT, fails translation, and
                            // defers — a full memory-latency stall. This is
                            // why SHIFT generates its NaT-source register
                            // once and keeps it (§4.4: per-function
                            // generation costs 3×).
                            cycles += self.cache.mem_latency;
                            self.stats.deferred_loads += 1;
                            self.cpu.set_gpr(dst, RegVal::NAT);
                            if let Some(o) = self.taint_observer_mut() {
                                if insn.prov == Provenance::Original {
                                    o.on_load_deferred(dst);
                                }
                            }
                        }
                        Err(e) => fault!(mem_fault(e, ip)),
                    }
                }
            }
            Op::St { size, src, addr } => {
                let a = self.cpu.gpr(addr);
                let v = self.cpu.gpr(src);
                if a.nat {
                    nat_fault!(addr, NatFaultKind::StoreAddress, "store address");
                }
                if v.nat {
                    nat_fault!(src, NatFaultKind::StoreValue, "store value");
                }
                match self.mem.write_int(a.value, size.bytes(), v.value) {
                    Ok(()) => {
                        cycles += self.cache.access(a.value, size.bytes());
                        if insn.prov == Provenance::Original {
                            self.stats.stores += 1;
                        }
                        if let Some(o) = self.taint_observer_mut() {
                            // Tag-bitmap stores must not consume the Tnat
                            // staged for the data store that follows them.
                            if insn.prov == Provenance::Original {
                                o.on_store(a.value, size.bytes(), ip);
                            }
                        }
                    }
                    Err(e) => fault!(mem_fault(e, ip)),
                }
            }
            Op::StSpill { src, addr } => {
                let a = self.cpu.gpr(addr);
                let v = self.cpu.gpr(src);
                if a.nat {
                    nat_fault!(addr, NatFaultKind::StoreAddress, "spill address");
                }
                match self.mem.write_int(a.value, 8, v.value) {
                    Ok(()) => {
                        cycles += self.cache.access(a.value, 8);
                        // Bank the NaT bit (UNAT slot + compiler-managed
                        // UNAT save/restore, modelled as a per-slot bit).
                        self.cpu.unat = set_unat_bit(self.cpu.unat, a.value, v.nat);
                        self.mem.set_spill_nat(a.value, v.nat);
                        if insn.prov == Provenance::Original {
                            self.stats.stores += 1;
                        }
                        if let Some(o) = self.taint_observer_mut() {
                            if insn.prov == Provenance::Original {
                                o.on_spill(src, a.value, v.nat, ip);
                            }
                        }
                    }
                    Err(e) => fault!(mem_fault(e, ip)),
                }
            }
            Op::LdFill { dst, addr } => {
                let a = self.cpu.gpr(addr);
                if a.nat {
                    nat_fault!(addr, NatFaultKind::LoadAddress, "fill address");
                }
                match self.mem.read_int(a.value, 8) {
                    Ok(raw) => {
                        cycles += self.cache.access(a.value, 8);
                        let nat = self.mem.spill_nat(a.value);
                        self.cpu.set_gpr(dst, RegVal { value: raw, nat });
                        if insn.prov == Provenance::Original {
                            self.stats.loads += 1;
                        }
                        if let Some(o) = self.taint_observer_mut() {
                            if insn.prov == Provenance::Original {
                                o.on_load(dst, a.value, 8, ip);
                            }
                        }
                    }
                    Err(e) => fault!(mem_fault(e, ip)),
                }
            }
            Op::ChkS { src, target } => {
                if self.cpu.gpr(src).nat {
                    cycles = self.cost.chk_set;
                    self.stats.chk_taken += 1;
                    next_ip = target;
                    if let Some(o) = self.taint_observer_mut() {
                        o.on_chk_taken(src);
                    }
                }
            }
            Op::Jmp { target } => {
                cycles = self.cost.branch_taken;
                next_ip = target;
            }
            Op::Call { link, target } => {
                cycles = self.cost.branch_taken;
                self.cpu.set_br(link, (ip + 1) as u64);
                next_ip = target;
                if let Some(p) = self.profiler_mut() {
                    p.on_call(target, ip + 1);
                }
            }
            Op::JmpBr { br } => {
                cycles = self.cost.branch_taken;
                next_ip = self.cpu.br(br) as usize;
                if let Some(p) = self.profiler_mut() {
                    p.on_branch(next_ip);
                }
            }
            Op::MovToBr { br, src } => {
                let v = self.cpu.gpr(src);
                if v.nat {
                    nat_fault!(src, NatFaultKind::BranchMove, "branch move");
                }
                self.cpu.set_br(br, v.value);
            }
            Op::MovFromBr { dst, br } => {
                let v = self.cpu.br(br);
                self.cpu.set_gpr_val(dst, v);
            }
            Op::Tnat { pt, pf, src } => {
                let nat = self.cpu.gpr(src).nat;
                self.cpu.set_pr(pt, nat);
                self.cpu.set_pr(pf, !nat);
                if let Some(o) = self.taint_observer_mut() {
                    o.on_tnat(src, nat);
                }
            }
            Op::Tset { dst } => {
                let v = self.cpu.gpr(dst);
                self.cpu.set_gpr(dst, RegVal { value: v.value, nat: true });
            }
            Op::Tclr { dst } => {
                let v = self.cpu.gpr(dst);
                self.cpu.set_gpr(dst, RegVal::of(v.value));
                if let Some(o) = self.taint_observer_mut() {
                    o.on_tclr(dst, insn.prov == Provenance::Relax);
                }
            }
            Op::Syscall { num } => {
                self.stats.syscalls += 1;
                self.retire(ip, insn.prov, cycles);
                self.cpu.ip = next_ip;
                return match os.syscall(self, num) {
                    SysResult::Continue => StepOut::Recheck,
                    SysResult::Stop(exit) => StepOut::Exit(exit),
                };
            }
            Op::Nop => {}
            Op::Halt => {
                self.retire(ip, insn.prov, cycles);
                return StepOut::Exit(Exit::Halted(self.cpu.gpr(shift_isa::Gpr::RET).value as i64));
            }
        }

        self.retire(ip, insn.prov, cycles);
        self.cpu.ip = next_ip;
        StepOut::Continue
    }

    fn do_cmp(
        &mut self,
        rel: shift_isa::CmpRel,
        pt: shift_isa::Pr,
        pf: shift_isa::Pr,
        a: RegVal,
        b: RegVal,
        nat_aware: bool,
    ) {
        if (a.nat || b.nat) && !nat_aware {
            // Deferred-exception semantics: both targets cleared so that
            // mis-speculated code takes neither side (§2.2). This is what
            // breaks DIFT and forces SHIFT's relaxation (§3.1).
            self.cpu.set_pr(pt, false);
            self.cpu.set_pr(pf, false);
        } else {
            let r = rel.eval(a.value, b.value);
            self.cpu.set_pr(pt, r);
            self.cpu.set_pr(pf, !r);
        }
    }
}

fn alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl(b as u32),
        AluOp::Shr => a.wrapping_shr(b as u32),
        AluOp::Sar => (a as i64).wrapping_shr(b as u32) as u64,
        AluOp::Mul => a.wrapping_mul(b),
    }
}

fn extend(kind: ExtKind, size: MemSize, v: u64) -> u64 {
    let bits = size.bytes() * 8;
    if bits == 64 {
        return v;
    }
    let mask = (1u64 << bits) - 1;
    let v = v & mask;
    match kind {
        ExtKind::Zero => v,
        ExtKind::Sign => {
            let sign = 1u64 << (bits - 1);
            if v & sign != 0 {
                v | !mask
            } else {
                v
            }
        }
    }
}

fn set_unat_bit(unat: u64, addr: u64, nat: bool) -> u64 {
    let slot = Cpu::unat_slot(addr);
    if nat {
        unat | (1 << slot)
    } else {
        unat & !(1 << slot)
    }
}

fn mem_fault(e: MemError, ip: usize) -> Fault {
    match e {
        MemError::Unimplemented { addr } => Fault::Unimplemented { addr, ip },
        MemError::Unmapped { addr } => Fault::Unmapped { addr, ip },
        MemError::Unaligned { addr, size } => Fault::Unaligned { addr, size, ip },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout;
    use shift_isa::{CmpRel, Gpr, Pr};

    fn run_code(code: Vec<Insn>) -> (Machine, Exit) {
        let image = Image::builder().code(code).map(layout::DATA_BASE, 0x1000).build();
        let mut m = Machine::new(&image);
        let exit = m.run(&mut NullOs, 100_000);
        (m, exit)
    }

    fn data_addr(off: u64) -> u64 {
        layout::DATA_BASE + off
    }

    #[test]
    fn halt_returns_r8() {
        let (_, exit) =
            run_code(vec![Insn::new(Op::MovI { dst: Gpr::R8, imm: 7 }), Insn::new(Op::Halt)]);
        assert_eq!(exit, Exit::Halted(7));
    }

    #[test]
    fn alu_nat_or_propagation() {
        // r1 = NaT (tset), r2 = 5, r3 = r1 + r2 → NaT; store r3 must fault.
        let (m, exit) = run_code(vec![
            Insn::new(Op::Tset { dst: Gpr::R1 }),
            Insn::new(Op::MovI { dst: Gpr::R2, imm: 5 }),
            Insn::new(Op::Alu { op: AluOp::Add, dst: Gpr::R3, src1: Gpr::R1, src2: Gpr::R2 }),
            Insn::new(Op::MovI { dst: Gpr::R4, imm: layout::DATA_BASE as i64 }),
            Insn::new(Op::St { size: MemSize::B8, src: Gpr::R3, addr: Gpr::R4 }),
            Insn::new(Op::Halt),
        ]);
        assert!(m.cpu.gpr(Gpr::R3).nat);
        assert_eq!(
            exit,
            Exit::Fault(Fault::NatConsumption { kind: NatFaultKind::StoreValue, ip: 4 })
        );
    }

    #[test]
    fn xor_self_clears_nat() {
        let (m, exit) = run_code(vec![
            Insn::new(Op::Tset { dst: Gpr::R1 }),
            Insn::new(Op::Alu { op: AluOp::Xor, dst: Gpr::R1, src1: Gpr::R1, src2: Gpr::R1 }),
            Insn::new(Op::Halt),
        ]);
        assert_eq!(exit, Exit::Halted(0));
        assert_eq!(m.cpu.gpr(Gpr::R1), RegVal::of(0));
    }

    #[test]
    fn spec_load_from_bad_address_defers() {
        // The paper's NaT-manufacturing trick: ld8.s from a faked invalid
        // address sets NaT instead of faulting (Figure 5 ①–②).
        let (m, exit) = run_code(vec![
            Insn::new(Op::MovI { dst: Gpr::R2, imm: 1 }), // address 1: unmapped
            Insn::new(Op::Ld {
                size: MemSize::B8,
                ext: ExtKind::Zero,
                dst: Gpr::R1,
                addr: Gpr::R2,
                spec: true,
            }),
            Insn::new(Op::Halt),
        ]);
        assert_eq!(exit, Exit::Halted(0));
        assert!(m.cpu.gpr(Gpr::R1).nat);
        assert_eq!(m.stats.deferred_loads, 1);
    }

    #[test]
    fn nonspec_load_from_bad_address_faults() {
        let (_, exit) = run_code(vec![
            Insn::new(Op::MovI { dst: Gpr::R2, imm: 1 }),
            Insn::new(Op::Ld {
                size: MemSize::B8,
                ext: ExtKind::Zero,
                dst: Gpr::R1,
                addr: Gpr::R2,
                spec: false,
            }),
            Insn::new(Op::Halt),
        ]);
        assert!(matches!(exit, Exit::Fault(Fault::Unaligned { .. } | Fault::Unmapped { .. })));
    }

    #[test]
    fn load_through_nat_address_faults_l1_style() {
        let (_, exit) = run_code(vec![
            Insn::new(Op::Tset { dst: Gpr::R2 }),
            Insn::new(Op::Ld {
                size: MemSize::B8,
                ext: ExtKind::Zero,
                dst: Gpr::R1,
                addr: Gpr::R2,
                spec: false,
            }),
            Insn::new(Op::Halt),
        ]);
        assert_eq!(
            exit,
            Exit::Fault(Fault::NatConsumption { kind: NatFaultKind::LoadAddress, ip: 1 })
        );
    }

    #[test]
    fn cmp_with_nat_clears_both_predicates() {
        let (m, exit) = run_code(vec![
            Insn::new(Op::Tset { dst: Gpr::R1 }),
            // Make both predicates true first so the clearing is observable.
            Insn::new(Op::CmpI {
                rel: CmpRel::Eq,
                pt: Pr::P1,
                pf: Pr::P2,
                src1: Gpr::R0,
                imm: 0,
                nat_aware: false,
            }),
            Insn::new(Op::CmpI {
                rel: CmpRel::Eq,
                pt: Pr::P1,
                pf: Pr::P2,
                src1: Gpr::R1,
                imm: 0,
                nat_aware: false,
            }),
            Insn::new(Op::Halt),
        ]);
        assert_eq!(exit, Exit::Halted(0));
        assert!(!m.cpu.pr(Pr::P1));
        assert!(!m.cpu.pr(Pr::P2));
    }

    #[test]
    fn nat_aware_cmp_proceeds() {
        let (m, _) = run_code(vec![
            Insn::new(Op::Tset { dst: Gpr::R1 }),
            // tset preserves the value (0 here), so r1 == 0 compares true.
            Insn::new(Op::CmpI {
                rel: CmpRel::Eq,
                pt: Pr::P1,
                pf: Pr::P2,
                src1: Gpr::R1,
                imm: 0,
                nat_aware: true,
            }),
            Insn::new(Op::Halt),
        ]);
        assert!(m.cpu.pr(Pr::P1));
        assert!(!m.cpu.pr(Pr::P2));
    }

    #[test]
    fn chk_s_branches_on_nat() {
        let (m, exit) = run_code(vec![
            Insn::new(Op::Tset { dst: Gpr::R1 }),
            Insn::new(Op::ChkS { src: Gpr::R1, target: 4 }),
            Insn::new(Op::MovI { dst: Gpr::R8, imm: 1 }), // skipped
            Insn::new(Op::Halt),
            Insn::new(Op::MovI { dst: Gpr::R8, imm: 99 }), // recovery
            Insn::new(Op::Halt),
        ]);
        assert_eq!(exit, Exit::Halted(99));
        assert_eq!(m.stats.chk_taken, 1);
    }

    #[test]
    fn chk_s_falls_through_when_clear() {
        let (m, exit) = run_code(vec![
            Insn::new(Op::MovI { dst: Gpr::R1, imm: 3 }),
            Insn::new(Op::ChkS { src: Gpr::R1, target: 4 }),
            Insn::new(Op::MovI { dst: Gpr::R8, imm: 1 }),
            Insn::new(Op::Halt),
            Insn::new(Op::Halt),
        ]);
        assert_eq!(exit, Exit::Halted(1));
        assert_eq!(m.stats.chk_taken, 0);
    }

    #[test]
    fn spill_fill_round_trips_nat() {
        let sp_slot = data_addr(0x100);
        let (m, exit) = run_code(vec![
            Insn::new(Op::MovI { dst: Gpr::R2, imm: sp_slot as i64 }),
            Insn::new(Op::Tset { dst: Gpr::R1 }),
            Insn::new(Op::AluI { op: AluOp::Add, dst: Gpr::R1, src1: Gpr::R1, imm: 42 }),
            Insn::new(Op::StSpill { src: Gpr::R1, addr: Gpr::R2 }),
            Insn::new(Op::LdFill { dst: Gpr::R3, addr: Gpr::R2 }),
            Insn::new(Op::Halt),
        ]);
        assert_eq!(exit, Exit::Halted(0));
        let r3 = m.cpu.gpr(Gpr::R3);
        assert!(r3.nat, "NaT must survive spill/fill");
        assert_eq!(r3.value, 42);
    }

    #[test]
    fn plain_load_clears_nat_even_after_spill() {
        // The paper's baseline "clear NaT" trick: spill then plain ld8 (not
        // fill) — value comes back, NaT does not (§4.1).
        let slot = data_addr(0x200);
        let (m, exit) = run_code(vec![
            Insn::new(Op::MovI { dst: Gpr::R2, imm: slot as i64 }),
            Insn::new(Op::Tset { dst: Gpr::R1 }),
            Insn::new(Op::AluI { op: AluOp::Add, dst: Gpr::R1, src1: Gpr::R1, imm: 9 }),
            Insn::new(Op::StSpill { src: Gpr::R1, addr: Gpr::R2 }),
            Insn::new(Op::Ld {
                size: MemSize::B8,
                ext: ExtKind::Zero,
                dst: Gpr::R1,
                addr: Gpr::R2,
                spec: false,
            }),
            Insn::new(Op::Halt),
        ]);
        assert_eq!(exit, Exit::Halted(0));
        assert_eq!(m.cpu.gpr(Gpr::R1), RegVal::of(9));
    }

    #[test]
    fn mov_to_br_with_nat_faults_l3_style() {
        let (_, exit) = run_code(vec![
            Insn::new(Op::Tset { dst: Gpr::R1 }),
            Insn::new(Op::MovToBr { br: shift_isa::Br::B1, src: Gpr::R1 }),
            Insn::new(Op::Halt),
        ]);
        assert_eq!(
            exit,
            Exit::Fault(Fault::NatConsumption { kind: NatFaultKind::BranchMove, ip: 1 })
        );
    }

    #[test]
    fn call_and_return() {
        let (_, exit) = run_code(vec![
            // main:
            Insn::new(Op::Call { link: shift_isa::Br::B0, target: 3 }),
            Insn::new(Op::MovI { dst: Gpr::R8, imm: 5 }),
            Insn::new(Op::Halt),
            // callee: return immediately
            Insn::new(Op::JmpBr { br: shift_isa::Br::B0 }),
        ]);
        assert_eq!(exit, Exit::Halted(5));
    }

    #[test]
    fn predicated_off_instruction_is_skipped_but_costs_a_slot() {
        let (m, exit) = run_code(vec![
            // p1 is false initially.
            Insn::new(Op::MovI { dst: Gpr::R8, imm: 1 }).under(Pr::P1),
            Insn::new(Op::Halt),
        ]);
        assert_eq!(exit, Exit::Halted(0), "predicated-off mov must not execute");
        assert_eq!(m.stats.instructions, 2);
    }

    #[test]
    fn tclr_keeps_value() {
        let (m, _) = run_code(vec![
            Insn::new(Op::MovI { dst: Gpr::R1, imm: 77 }),
            Insn::new(Op::Tset { dst: Gpr::R2 }),
            Insn::new(Op::AluI { op: AluOp::Add, dst: Gpr::R1, src1: Gpr::R1, imm: 0 }),
            Insn::new(Op::Alu { op: AluOp::Add, dst: Gpr::R1, src1: Gpr::R1, src2: Gpr::R2 }),
            Insn::new(Op::Tclr { dst: Gpr::R1 }),
            Insn::new(Op::Halt),
        ]);
        assert_eq!(m.cpu.gpr(Gpr::R1), RegVal::of(77));
    }

    #[test]
    fn sign_extension_on_loads() {
        let addr = data_addr(0x300);
        let image = Image::builder()
            .code(vec![
                Insn::new(Op::MovI { dst: Gpr::R2, imm: addr as i64 }),
                Insn::new(Op::Ld {
                    size: MemSize::B1,
                    ext: ExtKind::Sign,
                    dst: Gpr::R1,
                    addr: Gpr::R2,
                    spec: false,
                }),
                Insn::new(Op::Halt),
            ])
            .data(addr, vec![0xfe])
            .build();
        let mut m = Machine::new(&image);
        m.run(&mut NullOs, 100).is_clean();
        assert_eq!(m.cpu.gpr(Gpr::R1).value as i64, -2);
    }

    #[test]
    fn stats_attribute_instrumentation_cycles() {
        let (m, _) = run_code(vec![
            Insn::new(Op::MovI { dst: Gpr::R1, imm: 1 }),
            Insn::tagged(
                Op::AluI { op: AluOp::Shr, dst: Gpr::R30, src1: Gpr::R1, imm: 3 },
                Provenance::LdTagCompute,
            ),
            Insn::new(Op::Halt),
        ]);
        assert!(m.stats.cycles_for(Provenance::LdTagCompute) > 0);
        assert_eq!(m.stats.insns_for(Provenance::LdTagCompute), 1);
        assert!(m.stats.instrumentation_cycles() > 0);
    }

    #[test]
    fn tnat_tests_without_consuming() {
        let (m, exit) = run_code(vec![
            Insn::new(Op::Tset { dst: Gpr::R1 }),
            Insn::new(Op::Tnat { pt: Pr::P1, pf: Pr::P2, src: Gpr::R1 }),
            Insn::new(Op::Tnat { pt: Pr::P3, pf: Pr::P4, src: Gpr::R2 }),
            Insn::new(Op::Halt),
        ]);
        assert_eq!(exit, Exit::Halted(0), "tnat must not fault on NaT");
        assert!(m.cpu.pr(Pr::P1) && !m.cpu.pr(Pr::P2));
        assert!(!m.cpu.pr(Pr::P3) && m.cpu.pr(Pr::P4));
        assert!(m.cpu.gpr(Gpr::R1).nat, "tnat leaves the NaT bit in place");
    }

    #[test]
    fn tset_preserves_value() {
        let (m, _) = run_code(vec![
            Insn::new(Op::MovI { dst: Gpr::R1, imm: 123 }),
            Insn::new(Op::Tset { dst: Gpr::R1 }),
            Insn::new(Op::Halt),
        ]);
        assert_eq!(m.cpu.gpr(Gpr::R1), RegVal { value: 123, nat: true });
    }

    #[test]
    fn plain_store_invalidates_banked_spill_nat() {
        // Spill a NaT'd register, overwrite one byte of the slot with a
        // plain store, then fill: the NaT bit must be gone (the spilled
        // value no longer exists).
        let slot = data_addr(0x400);
        let (m, exit) = run_code(vec![
            Insn::new(Op::MovI { dst: Gpr::R2, imm: slot as i64 }),
            Insn::new(Op::Tset { dst: Gpr::R1 }),
            Insn::new(Op::StSpill { src: Gpr::R1, addr: Gpr::R2 }),
            Insn::new(Op::MovI { dst: Gpr::R3, imm: 0x55 }),
            Insn::new(Op::St { size: MemSize::B1, src: Gpr::R3, addr: Gpr::R2 }),
            Insn::new(Op::LdFill { dst: Gpr::R4, addr: Gpr::R2 }),
            Insn::new(Op::Halt),
        ]);
        assert_eq!(exit, Exit::Halted(0));
        assert!(!m.cpu.gpr(Gpr::R4).nat);
        assert_eq!(m.cpu.gpr(Gpr::R4).value & 0xff, 0x55);
    }

    #[test]
    fn trace_keeps_the_last_n_addresses() {
        let image = Image::builder()
            .code(vec![
                Insn::new(Op::MovI { dst: Gpr::R1, imm: 1 }),
                Insn::new(Op::MovI { dst: Gpr::R2, imm: 2 }),
                Insn::new(Op::MovI { dst: Gpr::R3, imm: 3 }),
                Insn::new(Op::Halt),
            ])
            .build();
        let mut m = Machine::new(&image);
        m.enable_trace(2);
        let _ = m.run(&mut NullOs, 100);
        assert_eq!(m.trace(), vec![2, 3], "ring buffer keeps the newest entries");
        let listing = m.trace_listing();
        assert!(listing.contains("movl r3"));
        assert!(listing.contains("halt"));
        assert!(!listing.contains("movl r1"), "old entries evicted");

        // A depth beyond any run's length allocates nothing up front and
        // keeps every address (`usize::MAX + 1` slots would not even exist).
        for depth in [1_000_000_000_000, usize::MAX] {
            let mut m = Machine::new(&image);
            m.enable_trace(depth);
            assert_eq!(m.run(&mut NullOs, 100), Exit::Halted(0));
            assert_eq!(m.trace(), vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn trace_off_by_default() {
        let (m, _) = run_code(vec![Insn::new(Op::Halt)]);
        assert!(m.trace().is_empty());
        assert!(m.trace_listing().is_empty());
    }

    #[test]
    fn predicated_off_memory_op_cannot_fault() {
        // A predicated-off store through a NaT address must be squashed
        // before any NaT-consumption check — this is what makes SHIFT's
        // (p6)-guarded instrumentation sequences safe on clean data.
        let (_, exit) = run_code(vec![
            Insn::new(Op::Tset { dst: Gpr::R2 }),
            // p1 is false: the store is squashed.
            Insn::new(Op::St { size: MemSize::B8, src: Gpr::R1, addr: Gpr::R2 }).under(Pr::P1),
            Insn::new(Op::Ld {
                size: MemSize::B8,
                ext: ExtKind::Zero,
                dst: Gpr::R3,
                addr: Gpr::R2,
                spec: false,
            })
            .under(Pr::P1),
            Insn::new(Op::Halt),
        ]);
        assert_eq!(exit, Exit::Halted(0), "squashed ops must not fault: {exit:?}");
    }

    #[test]
    fn mov_from_br_is_always_clean() {
        let (m, _) = run_code(vec![
            Insn::new(Op::MovI { dst: Gpr::R1, imm: 9 }),
            Insn::new(Op::MovToBr { br: shift_isa::Br::B2, src: Gpr::R1 }),
            Insn::new(Op::MovFromBr { dst: Gpr::R2, br: shift_isa::Br::B2 }),
            Insn::new(Op::Halt),
        ]);
        assert_eq!(m.cpu.gpr(Gpr::R2), RegVal::of(9));
    }

    #[test]
    fn ext_propagates_nat() {
        let (m, _) = run_code(vec![
            Insn::new(Op::MovI { dst: Gpr::R1, imm: 0x1ff }),
            Insn::new(Op::Tset { dst: Gpr::R1 }),
            Insn::new(Op::Ext {
                kind: ExtKind::Zero,
                size: MemSize::B1,
                dst: Gpr::R2,
                src: Gpr::R1,
            }),
            Insn::new(Op::Halt),
        ]);
        let r2 = m.cpu.gpr(Gpr::R2);
        assert_eq!(r2.value, 0xff, "zero-extension truncates");
        assert!(r2.nat, "extension must carry the taint");
    }

    #[test]
    fn jmp_br_to_garbage_is_a_bad_ip() {
        let (_, exit) = run_code(vec![
            Insn::new(Op::MovI { dst: Gpr::R1, imm: 99_999 }),
            Insn::new(Op::MovToBr { br: shift_isa::Br::B3, src: Gpr::R1 }),
            Insn::new(Op::JmpBr { br: shift_isa::Br::B3 }),
        ]);
        assert_eq!(exit, Exit::Fault(Fault::BadIp { ip: 99_999 }));
    }

    #[test]
    fn sub_self_also_clears_nat() {
        let (m, exit) = run_code(vec![
            Insn::new(Op::Tset { dst: Gpr::R1 }),
            Insn::new(Op::Alu { op: AluOp::Sub, dst: Gpr::R1, src1: Gpr::R1, src2: Gpr::R1 }),
            Insn::new(Op::Mov { dst: Gpr::R8, src: Gpr::R1 }),
            Insn::new(Op::Halt),
        ]);
        assert_eq!(exit, Exit::Halted(0));
        assert!(!m.cpu.gpr(Gpr::R1).nat);
    }

    #[test]
    fn spec_load_from_valid_address_succeeds_without_nat() {
        let addr = data_addr(0x500);
        let image = Image::builder()
            .code(vec![
                Insn::new(Op::MovI { dst: Gpr::R2, imm: addr as i64 }),
                Insn::new(Op::Ld {
                    size: MemSize::B8,
                    ext: ExtKind::Zero,
                    dst: Gpr::R1,
                    addr: Gpr::R2,
                    spec: true,
                }),
                Insn::new(Op::Mov { dst: Gpr::R8, src: Gpr::R1 }),
                Insn::new(Op::Halt),
            ])
            .data(addr, 77i64.to_le_bytes().to_vec())
            .build();
        let mut m = Machine::new(&image);
        assert_eq!(m.run(&mut NullOs, 100), Exit::Halted(77));
        assert!(!m.cpu.gpr(Gpr::R1).nat);
        assert_eq!(m.stats.deferred_loads, 0);
    }

    #[test]
    fn deferred_spec_load_costs_a_memory_latency() {
        // §4.4's cost: the failed translation stalls before deferring.
        let (m, _) = run_code(vec![
            Insn::new(Op::MovI { dst: Gpr::R2, imm: 1 << 45 }), // unimplemented
            Insn::new(Op::Ld {
                size: MemSize::B8,
                ext: ExtKind::Zero,
                dst: Gpr::R1,
                addr: Gpr::R2,
                spec: true,
            }),
            Insn::new(Op::Halt),
        ]);
        assert!(m.cpu.gpr(Gpr::R1).nat);
        assert!(
            m.stats.cycles >= m.cache.mem_latency,
            "deferral must cost a translation walk: {} cycles",
            m.stats.cycles
        );
    }

    #[test]
    fn insn_limit_stops_infinite_loop() {
        let (_, exit) = run_code(vec![Insn::new(Op::Jmp { target: 0 })]);
        assert_eq!(exit, Exit::InsnLimit);
    }

    #[test]
    fn watchdog_trips_and_is_resumable() {
        let image = Image::builder().code(vec![Insn::new(Op::Jmp { target: 0 })]).build();
        let mut m = Machine::new(&image);
        m.arm_watchdog(50);
        assert_eq!(m.run(&mut NullOs, 1_000_000), Exit::FuelExhausted);
        assert!(m.stats.instructions <= 51, "watchdog must trip early");
        // The exit is not sticky: petting grants a fresh budget.
        m.pet_watchdog();
        assert_eq!(m.run(&mut NullOs, 1_000_000), Exit::FuelExhausted);
        m.disarm_watchdog();
        assert_eq!(m.run(&mut NullOs, 100), Exit::InsnLimit);
    }

    #[test]
    fn snapshot_restore_round_trips_cpu_memory_and_nat() {
        let slot = data_addr(0x600);
        let image = Image::builder()
            .code(vec![
                Insn::new(Op::MovI { dst: Gpr::R2, imm: slot as i64 }),
                Insn::new(Op::MovI { dst: Gpr::R1, imm: 7 }),
                Insn::new(Op::Halt),
                // After restore, execution resumes here (ip was at 3).
                Insn::new(Op::Tset { dst: Gpr::R3 }),
                Insn::new(Op::StSpill { src: Gpr::R3, addr: Gpr::R2 }),
                Insn::new(Op::MovI { dst: Gpr::R1, imm: 99 }),
                Insn::new(Op::Halt),
            ])
            .map(layout::DATA_BASE, 0x1000)
            .build();
        let mut m = Machine::new(&image);
        assert_eq!(m.run(&mut NullOs, 100), Exit::Halted(0));

        let snap = m.snapshot();
        let digest = m.state_digest();
        // Run the second fragment: dirties memory, a spill-NaT bit, and CPU.
        m.cpu.ip = 3;
        assert_eq!(m.run(&mut NullOs, 100), Exit::Halted(0));
        assert!(m.mem.spill_nat(slot));
        assert_ne!(m.state_digest(), digest, "the fragment must change state");

        m.restore(&snap);
        assert_eq!(m.state_digest(), digest, "restore must be byte-for-byte");
        assert!(!m.mem.spill_nat(slot), "banked spill NaT must roll back");
        assert_eq!(m.cpu.gpr(Gpr::R1).value, 7);
        assert!(!m.cpu.gpr(Gpr::R3).nat);

        // The same snapshot restores repeatedly.
        m.cpu.ip = 3;
        assert_eq!(m.run(&mut NullOs, 100), Exit::Halted(0));
        m.restore(&snap);
        assert_eq!(m.state_digest(), digest);
    }

    #[test]
    #[should_panic(expected = "superseded")]
    fn superseded_snapshot_is_rejected() {
        let image = Image::builder().code(vec![Insn::new(Op::Halt)]).build();
        let mut m = Machine::new(&image);
        let old = m.snapshot();
        let _new = m.snapshot();
        m.restore(&old);
    }

    #[test]
    fn injected_nat_flip_is_detected_at_the_sink() {
        // r1 holds a clean pointer-ish value; the injected NaT flip turns a
        // later store through it into an L2-style NaT-consumption fault.
        let slot = data_addr(0x700);
        let image = Image::builder()
            .code(vec![
                Insn::new(Op::MovI { dst: Gpr::R1, imm: slot as i64 }),
                Insn::new(Op::Nop),
                Insn::new(Op::Nop),
                Insn::new(Op::St { size: MemSize::B8, src: Gpr::R2, addr: Gpr::R1 }),
                Insn::new(Op::Halt),
            ])
            .map(layout::DATA_BASE, 0x1000)
            .build();
        let mut m = Machine::new(&image);
        m.inject_after(2, crate::snapshot::Injection::FlipNat { reg: Gpr::R1 });
        let exit = m.run(&mut NullOs, 100);
        assert_eq!(
            exit,
            Exit::Fault(Fault::NatConsumption { kind: NatFaultKind::StoreAddress, ip: 3 })
        );
        assert_eq!(m.stats.injected_events, 1);
        assert_eq!(m.pending_injections(), 0);
    }

    #[test]
    fn injected_byte_corruption_is_journaled() {
        let slot = data_addr(0x800);
        let image = Image::builder()
            .code(vec![Insn::new(Op::Jmp { target: 0 })])
            .map(layout::DATA_BASE, 0x1000)
            .build();
        let mut m = Machine::new(&image);
        m.mem.write_int(slot, 1, 0x0f).unwrap();
        let snap = m.snapshot();
        let digest = m.state_digest();
        m.inject_after(3, crate::snapshot::Injection::CorruptByte { addr: slot, xor: 0xf0 });
        assert_eq!(m.run(&mut NullOs, 10), Exit::InsnLimit);
        assert_eq!(m.mem.read_int(slot, 1).unwrap(), 0xff, "corruption landed");
        m.restore(&snap);
        assert_eq!(m.state_digest(), digest, "corruption rolls back with the checkpoint");
        assert_eq!(m.mem.read_int(slot, 1).unwrap(), 0x0f);
    }

    #[test]
    fn injected_transient_fault_stops_without_corrupting_state() {
        let image = Image::builder()
            .code(vec![Insn::new(Op::Jmp { target: 0 })])
            .map(layout::DATA_BASE, 0x1000)
            .build();
        let mut m = Machine::new(&image);
        m.inject_after(
            5,
            crate::snapshot::Injection::Fault(Fault::Unmapped { addr: 0x666, ip: 0 }),
        );
        assert_eq!(m.run(&mut NullOs, 100), Exit::Fault(Fault::Unmapped { addr: 0x666, ip: 0 }));
        // The run is resumable right away — the fault was transient.
        assert_eq!(m.run(&mut NullOs, 10), Exit::InsnLimit);
    }
}
