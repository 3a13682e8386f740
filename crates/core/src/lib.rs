//! # shift-core — SHIFT itself
//!
//! This crate assembles the substrates into the system the paper describes:
//!
//! * [`policy`] — the Table-1 security policies, high-level (H1–H5, checked
//!   in software at sinks) and low-level (L1–L3, enforced by NaT-consumption
//!   faults);
//! * [`TaintConfig`] — the paper's configuration file: which input channels
//!   taint data, which policies are armed;
//! * [`Runtime`] — the host OS/policy engine the guest traps into: taint
//!   sources mark both the guest's in-memory bitmap and a host-side ground
//!   truth shadow; sinks evaluate policies over the *guest-maintained*
//!   bitmap;
//! * [`libc_program`] — the guest C library, written in IR and instrumented
//!   like application code (real `strcpy` overflows, real `%n`);
//! * [`Shift`] — the end-to-end session: link an application against the
//!   libc, compile it in a chosen [`Mode`], run it against a [`World`], and
//!   report the exit, the detection (if any), and full cycle accounting.
//!
//! ## Example: detect the paper's Figure-1 style overflow
//!
//! ```
//! use shift_core::{Mode, Shift, ShiftOptions, World, Granularity};
//! use shift_ir::{ProgramBuilder, Rhs};
//! use shift_isa::{sys, CmpRel};
//!
//! // A server that copies network input into a 16-byte stack buffer with
//! // strcpy (no length check), then trusts an adjacent value — guarded
//! // with a chk.s check on the critical data (§3.3.3).
//! let mut pb = ProgramBuilder::new();
//! pb.func("main", 0, |f| {
//!     let buf = f.local(16);
//!     let trusted = f.local(8);
//!     let req = f.local(128);
//!     let reqp = f.local_addr(req);
//!     let cap = f.iconst(120);
//!     f.syscall_void(sys::NET_READ, &[reqp, cap]);
//!     let bufp = f.local_addr(buf);
//!     f.call_void("strcpy", &[bufp, reqp]);          // overflow!
//!     let tp = f.local_addr(trusted);
//!     let v = f.load8(tp, 0);
//!     f.guard(v);                                    // chk.s before use
//!     let z = f.iconst(0);
//!     f.ret(Some(z));
//! });
//! let app = pb.build().unwrap();
//!
//! let shift = Shift::new(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)));
//! let report = shift
//!     .run(&app, World::new().net(vec![b'A'; 64]))  // 64 > 16: smash
//!     .unwrap();
//! assert!(report.exit.is_detection());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod debug;
pub mod event;
pub mod fleet;
mod image;
mod libc;
pub mod metrics;
pub mod policy;
pub mod pool;
pub mod replay;
mod runtime;

pub use config::{Source, TaintConfig, ViolationAction};
pub use debug::Postmortem;
pub use event::{Disposition, OpenLoopConfig, Segment};
pub use fleet::{ConnectionReport, FaultPlan, Fleet, FleetReport, OpenLoopReport};
pub use image::ProgramImage;
pub use libc::{libc_program, LIBC_FUNCS};
pub use policy::Policy;
pub use replay::{OpenLoopLog, ReplayLog, ReplayOutcome, ShrinkResult, REPLAY_SCHEMA_VERSION};
pub use runtime::{IoCostModel, Runtime, World};

// Re-export the pieces callers need to drive a session without extra deps.
pub use shift_compiler::{CompileError, CompiledProgram, Compiler, Mode, ShiftOptions, MODES};
pub use shift_isa::CLOCK_HZ;
pub use shift_machine::{Exit, Fault, Injection, NatFaultKind, Stats, Violation};
pub use shift_machine::{FuncSpan, Profiler, TaintObserver};
pub use shift_obs::{
    chrome_trace_json, merge_events, merge_samples, timeline_digest, Json, Registry, Sample,
    TraceEvent, TraceKind, TraceRing, CYCLES_PER_US, DEFAULT_TRACE_CAP, SCHEMA_VERSION,
};
pub use shift_tagmap::Granularity;

use shift_ir::Program;
use shift_machine::Machine;

/// Flight-recorder knobs for a serve session (see DESIGN.md §14).
///
/// `cap` bounds the per-connection event ring
/// ([`DEFAULT_TRACE_CAP`] events by default); `sample_cycles` arms the
/// time-series sampler to snapshot the serving counters every N modelled
/// cycles (`0`, the default, disarms sampling).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlightConfig {
    /// Maximum events held per connection ring (oldest evicted beyond it).
    pub cap: usize,
    /// Modelled-cycle sampling period for the time series (`0` = off).
    pub sample_cycles: u64,
}

impl Default for FlightConfig {
    fn default() -> FlightConfig {
        FlightConfig { cap: DEFAULT_TRACE_CAP, sample_cycles: 0 }
    }
}

/// An end-to-end SHIFT session: configuration + compiler mode.
#[derive(Clone, Debug)]
pub struct Shift {
    mode: Mode,
    config: TaintConfig,
    io: IoCostModel,
    insn_limit: u64,
    fuel: u64,
    trace_taint: bool,
    profile: bool,
    flight: Option<FlightConfig>,
}

/// Everything observable about one guest run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// How the run ended.
    pub exit: Exit,
    /// Cycle/instruction accounting (cloned out of the machine).
    pub stats: Stats,
    /// The runtime, with its logs, outputs, filesystem, and shadow map.
    pub runtime: Runtime,
    /// The machine in its final state (registers, memory, caches).
    pub machine: Machine,
}

impl RunReport {
    /// The policy whose violation ended the run, if the run was a detection:
    /// high-level violations carry their policy name; NaT-consumption faults
    /// map to L1/L2/L3.
    pub fn detected_policy(&self) -> Option<Policy> {
        match &self.exit {
            Exit::Violation(v) => Policy::ALL.into_iter().find(|p| p.name() == v.policy),
            Exit::Fault(Fault::NatConsumption { kind, .. }) => Some(Policy::from_fault(*kind)),
            _ => None,
        }
    }

    /// Concatenated `print` output, lossily decoded.
    pub fn log_text(&self) -> String {
        self.runtime.log.iter().map(|l| String::from_utf8_lossy(l).into_owned()).collect()
    }

    /// The taint provenance chain behind a detection, when taint tracing was
    /// enabled ([`Shift::with_taint_trace`]): policy violations carry the
    /// chain directly; NaT-consumption faults fall back to the observer's
    /// fault chain.
    pub fn taint_chain(&self) -> Option<&str> {
        match &self.exit {
            Exit::Violation(v) => v.provenance.as_deref(),
            Exit::Fault(Fault::NatConsumption { .. }) => {
                self.machine.taint_observer().and_then(|o| o.fault_chain())
            }
            _ => None,
        }
    }
}

impl Shift {
    /// Creates a session with the paper's default-secure configuration.
    pub fn new(mode: Mode) -> Shift {
        Shift {
            mode,
            config: TaintConfig::default_secure(),
            io: IoCostModel::FREE,
            insn_limit: 500_000_000,
            fuel: 50_000_000,
            trace_taint: false,
            profile: false,
            flight: None,
        }
    }

    /// Enables taint-flow tracing: the machine counts taint births,
    /// propagations, and sink hits (the `journal.*` metrics), and
    /// violations carry a provenance chain from source channel to sink.
    /// Diagnostic-only: the modelled cycle counts are unchanged.
    pub fn with_taint_trace(mut self) -> Shift {
        self.trace_taint = true;
        self
    }

    /// Enables the cycle-attribution profiler: per-guest-function folded
    /// stacks and hot-block ranking. Diagnostic-only, like
    /// [`Shift::with_taint_trace`].
    pub fn with_profile(mut self) -> Shift {
        self.profile = true;
        self
    }

    /// Arms the flight recorder for serve sessions: deterministic
    /// span/instant timelines of connection/request/recovery/violation/
    /// syscall events plus optional time-series sampling, per
    /// [`FlightConfig`]. Diagnostic-only, like [`Shift::with_taint_trace`]
    /// — modelled results are bit-identical with or without it — and unlike
    /// the taint observer it keeps execution on the superblock tier (every
    /// recording site is a boundary path; DESIGN.md §14).
    pub fn with_flight_recorder(mut self, cfg: FlightConfig) -> Shift {
        self.flight = Some(cfg);
        self
    }

    /// Replaces the taint/policy configuration.
    pub fn with_config(mut self, config: TaintConfig) -> Shift {
        self.config = config;
        self
    }

    /// Sets the I/O latency model.
    pub fn with_io(mut self, io: IoCostModel) -> Shift {
        self.io = io;
        self
    }

    /// Overrides the instruction budget per run.
    pub fn with_insn_limit(mut self, limit: u64) -> Shift {
        self.insn_limit = limit;
        self
    }

    /// Overrides the per-transaction watchdog fuel budget used by
    /// [`Shift::serve`]: a request that executes this many instructions
    /// without finishing is aborted and rolled back.
    pub fn with_fuel(mut self, fuel: u64) -> Shift {
        self.fuel = fuel;
        self
    }

    /// The session's compiler mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The session's taint/policy configuration.
    pub fn config(&self) -> &TaintConfig {
        &self.config
    }

    /// The session's I/O latency model.
    pub fn io(&self) -> IoCostModel {
        self.io
    }

    /// The session's whole-run instruction budget.
    pub fn insn_limit(&self) -> u64 {
        self.insn_limit
    }

    /// The session's per-transaction watchdog fuel budget.
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// The session's flight-recorder configuration, when armed.
    pub fn flight(&self) -> Option<FlightConfig> {
        self.flight
    }

    /// The tag granularity implied by the mode (`None` when uninstrumented).
    pub fn granularity(&self) -> Option<Granularity> {
        match self.mode {
            Mode::Uninstrumented => None,
            Mode::Shift(opts) => Some(opts.granularity),
            Mode::Shadow(gran) => Some(gran),
        }
    }

    /// Links `app` against the guest libc and compiles it in this session's
    /// mode.
    ///
    /// # Errors
    ///
    /// [`CompileError`] on invalid IR or unresolved symbols.
    pub fn compile(&self, app: &Program) -> Result<CompiledProgram, CompileError> {
        let mut linked = app.clone();
        linked.link(libc_program());
        Compiler::new(self.mode).compile(&linked)
    }

    /// Compiles (with libc) and runs `app` against `world`.
    ///
    /// # Errors
    ///
    /// [`CompileError`] on invalid IR or unresolved symbols.
    pub fn run(&self, app: &Program, world: World) -> Result<RunReport, CompileError> {
        let compiled = self.compile(app)?;
        Ok(self.run_compiled(&compiled, world))
    }

    /// Runs an already-compiled program against `world`.
    pub fn run_compiled(&self, compiled: &CompiledProgram, world: World) -> RunReport {
        self.run_machine(self.spawn(&ProgramImage::new(compiled), &[]), world)
    }

    /// Spawns an instance of `image` with `injections` scheduled (see
    /// [`shift_machine::Machine::inject_after`]) and this session's
    /// per-instruction diagnostics armed: the taint observer
    /// ([`Shift::with_taint_trace`]) and the profiler
    /// ([`Shift::with_profile`]). Every run and serve path spawns through
    /// here.
    pub fn spawn(&self, image: &ProgramImage, injections: &[(u64, Injection)]) -> Machine {
        let mut machine = image.spawn_injected(injections);
        if self.trace_taint {
            machine.enable_taint_observer();
        }
        if self.profile {
            machine.enable_profiler(image.func_spans());
        }
        machine
    }

    /// Runs `machine` (spawned by [`Shift::spawn`], possibly with more
    /// diagnostics armed) against `world` under this session's taint
    /// configuration, I/O model and instruction budget.
    pub fn run_machine(&self, mut machine: Machine, world: World) -> RunReport {
        let mut runtime =
            Runtime::new(self.config.clone(), world, self.granularity()).with_io(self.io);
        let exit = machine.run(&mut runtime, self.insn_limit);
        RunReport { exit, stats: machine.stats.clone(), runtime, machine }
    }

    /// Compiles (with libc) and serves `world`'s request stream resiliently:
    /// per-request transactions, watchdog fuel, rollback on faults and on
    /// violations whose [`ViolationAction`] permits recovery.
    ///
    /// # Errors
    ///
    /// [`CompileError`] on invalid IR or unresolved symbols.
    pub fn serve(&self, app: &Program, world: World) -> Result<ServeReport, CompileError> {
        Ok(self.serve_image(&self.image(app)?, world, &[]))
    }

    /// Compiles (with libc) and prepares a [`ProgramImage`]: the
    /// compile-once half of the fleet-serving fast path. Spawning instances
    /// from the image costs a copy of the resident pristine pages instead
    /// of a full compile + link + load.
    ///
    /// # Errors
    ///
    /// [`CompileError`] on invalid IR or unresolved symbols.
    pub fn image(&self, app: &Program) -> Result<ProgramImage, CompileError> {
        Ok(ProgramImage::new(&self.compile(app)?))
    }

    /// Serves `world`'s request stream resiliently (see [`Shift::serve`]) on
    /// a fresh instance spawned from a prebuilt [`ProgramImage`], leaving
    /// the image pristine for the next spawn. `injections` is a
    /// fault-injection schedule pre-armed on the instance: each
    /// `(countdown, injection)` pair fires after that many retired
    /// instructions ([`shift_machine::Machine::inject_after`]). The schedule
    /// is part of the run's deterministic identity — the chaos harness
    /// perturbs fleet instances through it, and the replay log re-arms the
    /// recorded schedule to reproduce the perturbed run bit-identically.
    ///
    /// The session loop is the outermost layer of the user-level handler.
    /// It catches what the in-syscall handler cannot — NaT-consumption
    /// faults (detections raised by the machine, disposed per their
    /// L-policy's action), other architectural faults (crash containment:
    /// always rolled back), and watchdog exhaustion (runaway requests) —
    /// rolls the transaction back, and keeps serving. It stops on a clean
    /// halt, the instruction ceiling, fail-stop (`Terminate`) detections,
    /// and whenever no checkpoint is armed to recover to.
    pub fn serve_image(
        &self,
        image: &ProgramImage,
        world: World,
        injections: &[(u64, Injection)],
    ) -> ServeReport {
        let mut machine = self.spawn(image, injections);
        if let Some(cfg) = self.flight {
            machine.enable_flight_recorder(cfg.cap, cfg.sample_cycles);
        }
        machine.arm_watchdog(self.fuel);
        let mut runtime = Runtime::new(self.config.clone(), world, self.granularity())
            .with_io(self.io)
            .with_transactions();
        // A rollback that redelivers nothing (queue drained) re-runs the
        // guest on bit-identical state, so a second fault at the same
        // delivery count would recur forever: allow one attempt per
        // delivery point, then let the fault stand.
        let mut empty_recovery_at = None;
        let exit = loop {
            // The session start and every recovery get a fresh budget.
            let exit = machine.run(&mut runtime, self.insn_limit);
            let recoverable = match &exit {
                // Clean finish, session ceiling, or a violation the
                // in-syscall handler already chose to fail-stop on. The
                // runtime never parks, so `Parked` cannot occur.
                Exit::Halted(_) | Exit::InsnLimit | Exit::Violation(_) | Exit::Parked => false,
                // Runaway request: abort it.
                Exit::FuelExhausted => true,
                Exit::Fault(f) => match f {
                    // A machine-level detection: dispose per the matching
                    // low-level policy's configured action.
                    Fault::NatConsumption { kind, .. } => {
                        let p = Policy::from_fault(*kind);
                        let provenance = machine
                            .taint_observer()
                            .and_then(|o| o.fault_chain())
                            .map(str::to_string);
                        runtime.record_violation(Violation {
                            policy: p.name().to_string(),
                            message: format!("detected by hardware: {f}"),
                            ip: machine.cpu.ip,
                            provenance,
                        });
                        let action = runtime.config().action_for(p);
                        // NaT-consumption detections bypass the in-syscall
                        // disposal path, so mirror them into the flight
                        // recorder here.
                        let now = machine.stats.total_time();
                        if let Some(fr) = machine.flight_recorder_mut() {
                            fr.instant(
                                now,
                                TraceKind::Violation {
                                    policy: p.name().to_string(),
                                    action: runtime::action_name(action).to_string(),
                                },
                            );
                        }
                        // A faulting instruction cannot be stepped over, so
                        // `LogAndContinue` degrades to a rollback too.
                        action != ViolationAction::Terminate
                    }
                    // A plain crash (unmapped access, bad syscall, …):
                    // contain it and keep the server up.
                    _ => true,
                },
            };
            if recoverable && empty_recovery_at != Some(runtime.requests_delivered) {
                let delivered_before = runtime.requests_delivered;
                if runtime.recover(&mut machine) {
                    if runtime.requests_delivered == delivered_before {
                        empty_recovery_at = Some(delivered_before);
                    }
                    continue;
                }
            }
            break exit;
        };
        // Close the final request's latency window, mirroring it into the
        // flight recorder like the in-stream windows.
        let session_end = machine.stats.total_time();
        if let Some((start, latency)) = runtime.finish_request_window(session_end) {
            let index = runtime.request_latencies.len() as u64 - 1;
            if let Some(fr) = machine.flight_recorder_mut() {
                fr.span(start, start + latency, TraceKind::Request { index });
            }
        }
        let halted = matches!(exit, Exit::Halted(_));
        // A request still open at a halt completed — the guest finished it
        // and exited without asking for more work. Open at any other stop,
        // it was lost in flight.
        let served = runtime.completed_requests + u64::from(halted && runtime.open_request());
        let in_flight = u64::from(!halted && runtime.open_request());
        let dropped = in_flight + runtime.pending_requests() as u64;
        debug_assert_eq!(
            served + runtime.aborted_requests + in_flight,
            runtime.requests_delivered,
            "served/recovered/in-flight must partition delivered requests exactly"
        );
        ServeReport {
            exit,
            served,
            recovered: runtime.aborted_requests,
            dropped,
            recovery_cycles: runtime.recovery_cycles,
            violations: runtime.violations.clone(),
            stats: machine.stats.clone(),
            runtime,
            machine,
        }
    }
}

/// Outcome of a resilient [`Shift::serve`] session: the graceful-degradation
/// counters plus everything a [`RunReport`] carries.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// How the session finally ended, after all recoveries.
    pub exit: Exit,
    /// Requests delivered and completed without a rollback.
    pub served: u64,
    /// Requests rolled back (violation, fault, or watchdog) with service
    /// continuing afterwards.
    pub recovered: u64,
    /// Requests lost: in flight at an unrecoverable stop, plus any never
    /// delivered.
    pub dropped: u64,
    /// CPU cycles spent on transactions that were thrown away — the price
    /// of recovery.
    pub recovery_cycles: u64,
    /// Every violation observed across the session, in order.
    pub violations: Vec<Violation>,
    /// Cycle/instruction accounting (cloned out of the machine).
    pub stats: Stats,
    /// The runtime, with its logs, outputs, filesystem, and shadow map.
    pub runtime: Runtime,
    /// The machine in its final state.
    pub machine: Machine,
}

impl ServeReport {
    /// `true` when every queued request was either served or recovered —
    /// nothing was silently lost.
    pub fn nothing_dropped(&self) -> bool {
        self.dropped == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_ir::{ProgramBuilder, Rhs};
    use shift_isa::{sys, CmpRel};

    fn byte_shift() -> Shift {
        Shift::new(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)))
    }

    /// Echo server: read network input, copy it with strcpy into a large
    /// enough buffer, write it back out. Benign.
    fn echo_app() -> shift_ir::Program {
        let mut pb = ProgramBuilder::new();
        pb.func("main", 0, |f| {
            let req = f.local(256);
            let reqp = f.local_addr(req);
            let copy = f.local(256);
            let copyp = f.local_addr(copy);
            let cap = f.iconst(255);
            let n = f.syscall(sys::NET_READ, &[reqp, cap]);
            let end = f.add(reqp, n);
            let z = f.iconst(0);
            f.store1(z, end, 0);
            f.call_void("strcpy", &[copyp, reqp]);
            let len = f.call("strlen", &[copyp]);
            f.syscall_void(sys::NET_WRITE, &[copyp, len]);
            let zero = f.iconst(0);
            f.ret(Some(zero));
        });
        pb.build().unwrap()
    }

    #[test]
    fn echo_round_trip_with_taint_tracking() {
        let report =
            byte_shift().run(&echo_app(), World::new().net(&b"hello over the wire"[..])).unwrap();
        assert!(report.exit.is_clean(), "{:?}", report.exit);
        assert_eq!(report.runtime.net_output, b"hello over the wire");
        assert_eq!(report.detected_policy(), None);
    }

    #[test]
    fn taint_flows_through_strcpy_into_the_copy() {
        // After the run, the *copy* buffer (written only by instrumented
        // guest code, never by the runtime) must be tainted in the guest
        // bitmap, and must agree with ground truth... which requires the
        // shadow to have been propagated. The host shadow only knows source
        // writes, so here we check the guest bitmap directly via the
        // violation-free sink path: sending tainted bytes to sql_exec with a
        // quote must trip H3 *after the copy*.
        let mut pb = ProgramBuilder::new();
        pb.func("main", 0, |f| {
            let req = f.local(128);
            let reqp = f.local_addr(req);
            let copy = f.local(128);
            let copyp = f.local_addr(copy);
            let cap = f.iconst(127);
            let n = f.syscall(sys::NET_READ, &[reqp, cap]);
            let end = f.add(reqp, n);
            let z = f.iconst(0);
            f.store1(z, end, 0);
            f.call_void("strcpy", &[copyp, reqp]);
            let len = f.call("strlen", &[copyp]);
            f.syscall_void(sys::SQL_EXEC, &[copyp, len]);
            let zero = f.iconst(0);
            f.ret(Some(zero));
        });
        let app = pb.build().unwrap();
        let report = byte_shift().run(&app, World::new().net(&b"x' OR '1'='1"[..])).unwrap();
        assert_eq!(report.detected_policy(), Some(Policy::H3), "{:?}", report.exit);
    }

    #[test]
    fn same_attack_succeeds_without_shift() {
        let mut pb = ProgramBuilder::new();
        pb.func("main", 0, |f| {
            let req = f.local(128);
            let reqp = f.local_addr(req);
            let cap = f.iconst(127);
            let n = f.syscall(sys::NET_READ, &[reqp, cap]);
            f.syscall_void(sys::SQL_EXEC, &[reqp, n]);
            let zero = f.iconst(0);
            f.ret(Some(zero));
        });
        let app = pb.build().unwrap();
        let shift = Shift::new(Mode::Uninstrumented);
        let report = shift.run(&app, World::new().net(&b"x' OR '1'='1"[..])).unwrap();
        assert!(report.exit.is_clean());
        assert_eq!(report.runtime.sql_log.len(), 1, "the injection executed unnoticed");
    }

    #[test]
    fn overflow_into_function_pointer_trips_l3() {
        // Figure-1-shaped: strcpy past a small buffer into an adjacent
        // function pointer; calling through it moves tainted data into a
        // branch register.
        let mut pb = ProgramBuilder::new();
        pb.func("helper", 0, |f| f.ret(None));
        pb.func("main", 0, |f| {
            let small = f.local(16);
            let fnptr = f.local(8);
            let req = f.local(128);
            let reqp = f.local_addr(req);
            // Initialize the "GOT entry" with a legitimate value.
            let fpp = f.local_addr(fnptr);
            let legit = f.iconst(7);
            f.store8(legit, fpp, 0);
            let cap = f.iconst(127);
            let n = f.syscall(sys::NET_READ, &[reqp, cap]);
            let end = f.add(reqp, n);
            let z = f.iconst(0);
            f.store1(z, end, 0);
            let smallp = f.local_addr(small);
            f.call_void("strcpy", &[smallp, reqp]); // may overflow into fnptr
                                                    // Use the pointer as a load address (tainted ⇒ L1 fault).
            let v = f.load8(fpp, 0);
            let t = f.load1(v, 0);
            let folded = f.andi(t, 0);
            f.ret(Some(folded));
        });
        let app = pb.build().unwrap();

        // Benign input fits: no alarm, pointer untouched.
        let benign = byte_shift()
            .run(&app, World::new().net(&b"short"[..]).file("x", vec![7u8; 8]))
            .unwrap();
        assert!(!benign.exit.is_detection(), "false positive: {:?}", benign.exit);

        // 40 tainted bytes smash through the 16-byte buffer into fnptr.
        let atk = byte_shift().run(&app, World::new().net(vec![b'A'; 40])).unwrap();
        assert!(atk.exit.is_detection(), "{:?}", atk.exit);
        assert_eq!(atk.detected_policy(), Some(Policy::L1));
    }

    #[test]
    fn word_level_tracking_also_detects() {
        let mut pb = ProgramBuilder::new();
        pb.func("main", 0, |f| {
            let req = f.local(64);
            let reqp = f.local_addr(req);
            let cap = f.iconst(63);
            let n = f.syscall(sys::NET_READ, &[reqp, cap]);
            f.syscall_void(sys::SQL_EXEC, &[reqp, n]);
            let zero = f.iconst(0);
            f.ret(Some(zero));
        });
        let app = pb.build().unwrap();
        let shift = Shift::new(Mode::Shift(ShiftOptions::baseline(Granularity::Word)));
        let report = shift.run(&app, World::new().net(&b"';--"[..])).unwrap();
        assert_eq!(report.detected_policy(), Some(Policy::H3));
    }

    #[test]
    fn benign_workload_has_no_false_positives_across_modes() {
        // Compute over tainted input without illegal uses: checksum bytes,
        // with a sanitized table lookup.
        let mut pb = ProgramBuilder::new();
        let table = pb.global("tbl", 256, (0u8..=255).collect());
        pb.func("main", 0, move |f| {
            let req = f.local(64);
            let reqp = f.local_addr(req);
            let cap = f.iconst(64);
            let n = f.syscall(sys::NET_READ, &[reqp, cap]);
            let tbl = f.global_addr(table);
            let sum = f.iconst(0);
            f.for_up(Rhs::Imm(0), Rhs::Reg(n), |f, i| {
                let p = f.add(reqp, i);
                let c = f.load1(p, 0);
                // Bounds-checked table index (the §3.3.2 pattern).
                let masked = f.andi(c, 0xff);
                let idx = f.sanitize(masked);
                let tp = f.add(tbl, idx);
                let tv = f.load1(tp, 0);
                let s = f.add(sum, tv);
                f.assign(sum, s);
            });
            f.if_cmp(CmpRel::Ne, sum, Rhs::Imm(0), |f| {
                let ok = f.iconst(0);
                f.ret(Some(ok));
            });
            let z = f.iconst(0);
            f.ret(Some(z));
        });
        let app = pb.build().unwrap();
        for mode in [
            Mode::Uninstrumented,
            Mode::Shift(ShiftOptions::baseline(Granularity::Byte)),
            Mode::Shift(ShiftOptions::baseline(Granularity::Word)),
            Mode::Shift(ShiftOptions::enhanced(Granularity::Byte)),
        ] {
            let report =
                Shift::new(mode).run(&app, World::new().net(&b"payload bytes"[..])).unwrap();
            assert!(report.exit.is_clean(), "{mode:?}: {:?}", report.exit);
        }
    }

    /// SQL server: read requests in a loop, execute each as a query, count
    /// the ones the sink accepted.
    fn sql_server_app() -> shift_ir::Program {
        let mut pb = ProgramBuilder::new();
        pb.func("main", 0, |f| {
            let req = f.local(256);
            let reqp = f.local_addr(req);
            let served = f.iconst(0);
            f.loop_(|f| {
                let cap = f.iconst(255);
                let n = f.syscall(sys::NET_READ, &[reqp, cap]);
                f.if_cmp(CmpRel::Le, n, Rhs::Imm(0), |f| f.break_());
                let r = f.syscall(sys::SQL_EXEC, &[reqp, n]);
                f.if_cmp(CmpRel::Lt, r, Rhs::Imm(0), |f| f.continue_());
                let s1 = f.addi(served, 1);
                f.assign(served, s1);
            });
            f.ret(Some(served));
        });
        pb.build().unwrap()
    }

    fn sql_stream() -> World {
        World::new()
            .net(&b"SELECT a FROM t"[..])
            .net(&b"x' OR '1'='1"[..])
            .net(&b"SELECT b FROM t"[..])
    }

    #[test]
    fn serve_terminate_fail_stops_mid_stream() {
        // Default actions: the exploit kills the session, dropping requests.
        let report = byte_shift().serve(&sql_server_app(), sql_stream()).unwrap();
        assert!(matches!(report.exit, Exit::Violation(_)), "{:?}", report.exit);
        assert_eq!(report.served, 1);
        assert_eq!(report.recovered, 0);
        assert!(report.dropped >= 1, "the in-flight exploit request is lost");
    }

    #[test]
    fn serve_abort_transaction_rolls_back_and_keeps_serving() {
        let mut cfg = TaintConfig::default_secure();
        cfg.set_action(Policy::H3, ViolationAction::AbortTransaction);
        let report = byte_shift().with_config(cfg).serve(&sql_server_app(), sql_stream()).unwrap();
        // Both benign queries executed; the injection was detected, logged,
        // and its transaction rolled back.
        assert_eq!(report.exit, Exit::Halted(2), "{:?}", report.exit);
        assert_eq!(report.served, 2);
        assert_eq!(report.recovered, 1);
        assert!(report.nothing_dropped());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].policy, "H3");
        assert_eq!(report.runtime.sql_log.len(), 2, "the injection never executed");
        assert!(report.recovery_cycles > 0);
    }

    #[test]
    fn serve_log_and_continue_suppresses_the_sink_only() {
        let mut cfg = TaintConfig::default_secure();
        cfg.set_action(Policy::H3, ViolationAction::LogAndContinue);
        let report = byte_shift().with_config(cfg).serve(&sql_server_app(), sql_stream()).unwrap();
        // The guest saw `-1` from the refused sink and moved on: no rollback.
        assert_eq!(report.exit, Exit::Halted(2), "{:?}", report.exit);
        assert_eq!(report.served, 3, "all requests completed, one degraded");
        assert_eq!(report.recovered, 0);
        assert_eq!(report.runtime.suppressed_sinks, 1);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.runtime.sql_log.len(), 2);
    }

    /// Server whose `!`-prefixed requests dereference attacker-controlled
    /// bytes as a pointer: a low-level (L1) detection, raised by the machine
    /// as a NaT-consumption fault rather than by a sink.
    fn pointer_server_app() -> shift_ir::Program {
        let mut pb = ProgramBuilder::new();
        pb.func("main", 0, |f| {
            let req = f.local(64);
            let reqp = f.local_addr(req);
            let served = f.iconst(0);
            f.loop_(|f| {
                let cap = f.iconst(63);
                let n = f.syscall(sys::NET_READ, &[reqp, cap]);
                f.if_cmp(CmpRel::Le, n, Rhs::Imm(0), |f| f.break_());
                let c = f.load1(reqp, 0);
                f.if_cmp(CmpRel::Eq, c, Rhs::Imm(b'!' as i64), |f| {
                    let p = f.load8(reqp, 8);
                    let v = f.load1(p, 0); // tainted address ⇒ L1
                    f.assign(served, v);
                });
                let s1 = f.addi(served, 1);
                f.assign(served, s1);
            });
            f.ret(Some(served));
        });
        pb.build().unwrap()
    }

    #[test]
    fn serve_recovers_from_nat_consumption_faults() {
        let mut cfg = TaintConfig::default_secure();
        cfg.set_default_action(ViolationAction::AbortTransaction);
        let world = World::new()
            .net(&b"plain request"[..])
            .net(b"!AAAAAAA\x10\x20\x30\x40\x50\x60\x70\x80".to_vec())
            .net(&b"another plain one"[..]);
        let report = byte_shift().with_config(cfg).serve(&pointer_server_app(), world).unwrap();
        assert_eq!(report.exit, Exit::Halted(2), "{:?}", report.exit);
        assert_eq!(report.served, 2);
        assert_eq!(report.recovered, 1);
        assert!(report.nothing_dropped());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].policy, "L1");
    }

    #[test]
    fn serve_watchdog_aborts_runaway_requests() {
        // `@`-prefixed requests wedge the server in an infinite loop; the
        // per-transaction fuel budget converts that into a rollback.
        let mut pb = ProgramBuilder::new();
        pb.func("main", 0, |f| {
            let req = f.local(64);
            let reqp = f.local_addr(req);
            let served = f.iconst(0);
            let sink = f.iconst(0);
            f.loop_(|f| {
                let cap = f.iconst(63);
                let n = f.syscall(sys::NET_READ, &[reqp, cap]);
                f.if_cmp(CmpRel::Le, n, Rhs::Imm(0), |f| f.break_());
                let c = f.load1(reqp, 0);
                f.if_cmp(CmpRel::Eq, c, Rhs::Imm(b'@' as i64), |f| {
                    f.loop_(|f| {
                        let s = f.addi(sink, 1);
                        f.assign(sink, s);
                    });
                });
                let s1 = f.addi(served, 1);
                f.assign(served, s1);
            });
            f.ret(Some(served));
        });
        let app = pb.build().unwrap();
        let world = World::new().net(&b"ok one"[..]).net(&b"@wedge"[..]).net(&b"ok two"[..]);
        let report = byte_shift().with_fuel(100_000).serve(&app, world).unwrap();
        assert_eq!(report.exit, Exit::Halted(2), "{:?}", report.exit);
        assert_eq!(report.served, 2);
        assert_eq!(report.recovered, 1);
        assert!(report.nothing_dropped());
    }

    #[test]
    fn serve_clean_stream_matches_plain_run() {
        // With no attacks, the resilient loop must be an exact no-op wrapper.
        let world = World::new().net(&b"SELECT a FROM t"[..]).net(&b"SELECT b"[..]);
        let report = byte_shift().serve(&sql_server_app(), world).unwrap();
        assert_eq!(report.exit, Exit::Halted(2));
        assert_eq!(report.served, 2);
        assert_eq!(report.recovered, 0);
        assert!(report.nothing_dropped());
        assert!(report.violations.is_empty());
        assert_eq!(report.recovery_cycles, 0);
    }

    #[test]
    fn parsed_config_drives_the_session() {
        let cfg = TaintConfig::parse("source network off\npolicy H3 on\n").unwrap();
        let mut pb = ProgramBuilder::new();
        pb.func("main", 0, |f| {
            let req = f.local(64);
            let reqp = f.local_addr(req);
            let cap = f.iconst(63);
            let n = f.syscall(sys::NET_READ, &[reqp, cap]);
            f.syscall_void(sys::SQL_EXEC, &[reqp, n]);
            let z = f.iconst(0);
            f.ret(Some(z));
        });
        let app = pb.build().unwrap();
        // Network is not a source: the injection goes unnoticed.
        let report =
            byte_shift().with_config(cfg).run(&app, World::new().net(&b"';--"[..])).unwrap();
        assert!(report.exit.is_clean());
    }
}
