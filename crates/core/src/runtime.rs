//! The host runtime: operating system, taint sources, and policy sinks.
//!
//! Implements [`shift_machine::Os`]. The runtime plays three roles from the
//! paper:
//!
//! * the **OS/I-O layer** the guest calls into (network, files, keyboard,
//!   heap, arguments), with an I/O latency model so server experiments see
//!   realistic I/O-dominated time;
//! * the **taint sources** (§3.3.1): configurable channels whose data is
//!   marked tainted — in both the host's ground-truth shadow map and the
//!   guest's in-memory bitmap (playing the part of the instrumented read
//!   wrappers);
//! * the **policy engine** (§3.3.3, §5.1): sinks (`file_open`, `sql_exec`,
//!   `system`, `html_out`) evaluate the armed high-level policies over the
//!   per-byte taint of their arguments — read from the *guest-maintained*
//!   bitmap, so detection genuinely depends on the instrumentation having
//!   tracked the flow correctly.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use shift_isa::{is_implemented, region_of, sys, Gpr};
use shift_machine::{
    layout, Exit, Fault, Machine, MemError, Os, Sample, Snapshot, SysResult, TraceKind, Violation,
};
use shift_tagmap::{tag_location, tag_range, Granularity, HostShadow, TagAddrError, TagRange};

use crate::config::{Source, TaintConfig, ViolationAction};
use crate::policy::{self, Policy, TaintedBytes};

/// The external world a guest program runs against.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct World {
    /// Network messages, one per `net_read` call.
    pub net_input: VecDeque<Vec<u8>>,
    /// Keyboard lines, one per `kbd_read` call.
    pub kbd_input: VecDeque<Vec<u8>>,
    /// The filesystem, shared copy-on-write: cloning a world (a transaction
    /// checkpoint, a fleet connection's copy of the base world) shares it,
    /// and the first write through [`Arc::make_mut`] un-shares it.
    pub files: Arc<BTreeMap<String, Vec<u8>>>,
    /// Program arguments.
    pub args: Vec<Vec<u8>>,
}

impl World {
    /// An empty world.
    pub fn new() -> World {
        World::default()
    }

    /// Adds a network message (builder style).
    pub fn net(mut self, msg: impl Into<Vec<u8>>) -> World {
        self.net_input.push_back(msg.into());
        self
    }

    /// Adds a file (builder style).
    pub fn file(mut self, name: impl Into<String>, content: impl Into<Vec<u8>>) -> World {
        Arc::make_mut(&mut self.files).insert(name.into(), content.into());
        self
    }

    /// Adds a program argument (builder style).
    pub fn arg(mut self, a: impl Into<Vec<u8>>) -> World {
        self.args.push(a.into());
        self
    }

    /// Adds a keyboard line (builder style).
    pub fn kbd(mut self, line: impl Into<Vec<u8>>) -> World {
        self.kbd_input.push_back(line.into());
        self
    }
}

/// I/O wait-time model, in cycles. Network and disk operations charge
/// `base + per_byte × n` of *I/O time* (tracked separately from CPU cycles;
/// see [`shift_machine::Stats::io_cycles`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IoCostModel {
    /// Fixed cost of a network operation.
    pub net_base: u64,
    /// Per-byte cost on the network.
    pub net_per_byte: u64,
    /// Fixed cost of a disk operation.
    pub disk_base: u64,
    /// Per-byte cost on disk.
    pub disk_per_byte: u64,
}

impl IoCostModel {
    /// A LAN-server flavoured default (used by the Apache experiment).
    pub const SERVER: IoCostModel =
        IoCostModel { net_base: 30_000, net_per_byte: 12, disk_base: 60_000, disk_per_byte: 6 };

    /// Free I/O: used by the SPEC experiments, which measure pure CPU
    /// slowdown.
    pub const FREE: IoCostModel =
        IoCostModel { net_base: 0, net_per_byte: 0, disk_base: 0, disk_per_byte: 0 };
}

#[derive(Clone, Debug)]
struct OpenFile {
    name: String,
    pos: usize,
    writable: bool,
}

/// The runtime half of a transaction checkpoint: everything a rolled-back
/// request may have changed on the host side. The machine half (registers,
/// NaT bits, memory) lives in a [`Snapshot`].
#[derive(Clone, Debug)]
struct RuntimeCheckpoint {
    shadow: HostShadow,
    fds: Vec<Option<OpenFile>>,
    heap_cursor: u64,
    files: Arc<BTreeMap<String, Vec<u8>>>,
    opened_paths_len: usize,
    log_len: usize,
    net_output_len: usize,
    html_output_len: usize,
    sql_log_len: usize,
    shell_log_len: usize,
    /// CPU cycles at checkpoint time, for attributing rolled-back work.
    stats_cycles: u64,
}

/// The runtime state (one per guest run).
#[derive(Clone, Debug)]
pub struct Runtime {
    cfg: TaintConfig,
    world: World,
    /// Tag granularity of the instrumented guest; `None` for uninstrumented
    /// runs (no bitmap exists, sinks cannot check anything — the paper's
    /// "without SHIFT protection, all attacks succeed").
    gran: Option<Granularity>,
    /// Host-side ground truth, used by the test suite.
    pub shadow: HostShadow,
    /// I/O latency model.
    pub io: IoCostModel,
    fds: Vec<Option<OpenFile>>,
    heap_cursor: u64,
    /// `print` output.
    pub log: Vec<Vec<u8>>,
    /// Bytes sent with `net_write`.
    pub net_output: Vec<u8>,
    /// Bytes emitted with `html_out` (checked by H5 per call).
    pub html_output: Vec<u8>,
    /// Executed SQL statements.
    pub sql_log: Vec<Vec<u8>>,
    /// Executed shell commands.
    pub shell_log: Vec<Vec<u8>>,
    /// Successfully opened paths (diagnostics for attack assertions).
    pub opened_paths: Vec<String>,
    /// Every violation observed, in order — the shared log the user-level
    /// handler appends to regardless of the configured [`ViolationAction`].
    pub violations: Vec<Violation>,
    /// When `true`, every `net_read` delivery opens a transaction: a machine
    /// snapshot plus a runtime checkpoint, restorable via
    /// [`Runtime::recover`].
    transactional: bool,
    checkpoint: Option<(Snapshot, RuntimeCheckpoint)>,
    /// Network requests delivered to the guest (including ones later rolled
    /// back).
    pub requests_delivered: u64,
    /// Transactions rolled back (inline `AbortTransaction` recoveries plus
    /// [`Runtime::recover`] calls from the session loop).
    pub recoveries: u64,
    /// Requests whose transaction closed at the next `net_read` boundary —
    /// the guest finished them and asked for more work. Together with
    /// [`Runtime::aborted_requests`] and the open-request flag this
    /// partitions [`Runtime::requests_delivered`] exactly:
    /// `completed + aborted + open == delivered` at every instant.
    pub completed_requests: u64,
    /// Delivered requests whose transaction was rolled back by
    /// [`Runtime::recover`]. A subset of [`Runtime::recoveries`]: rollbacks
    /// taken while no request was open (e.g. a fault after the queue
    /// drained) count as recoveries but abort no request.
    pub aborted_requests: u64,
    /// `true` while a delivered request is being processed: set when a
    /// `net_read` actually hands bytes to the guest, cleared when the guest
    /// reaches the next `net_read` (completion) or the transaction rolls
    /// back (abort).
    open_request: bool,
    /// Sink operations suppressed by `LogAndContinue`.
    pub suppressed_sinks: u64,
    /// CPU cycles spent in transactions that were later rolled back — the
    /// work a recovery throws away.
    pub recovery_cycles: u64,
    /// Per-request serve latencies in modelled cycles (CPU + I/O), one
    /// entry per completed request window. Timing state: deliberately not
    /// rolled back by [`Runtime::recover`].
    pub request_latencies: Vec<u64>,
    /// Total-time stamp when the current request window opened.
    request_start: Option<u64>,
    /// Keyboard lines delivered (labels taint births).
    kbd_reads: u64,
    /// The leg log: `(cycles, io_cycles)` as they stood after every syscall
    /// that charged I/O wait. Each entry ends one `(cpu, io)` leg of the
    /// open-loop segment trace ([`crate::Segment`]). A redelivery inside
    /// [`Runtime::recover`] closes no leg: its I/O lands in the leg that
    /// ends at the next I/O charge. Timing state, never rolled back.
    legs: Vec<(u64, u64)>,
}

impl Runtime {
    /// Creates a runtime for an instrumented guest tracking at `gran`
    /// (pass `None` for uninstrumented guests).
    pub fn new(cfg: TaintConfig, world: World, gran: Option<Granularity>) -> Runtime {
        Runtime {
            cfg,
            world,
            gran,
            shadow: HostShadow::new(),
            io: IoCostModel::FREE,
            fds: Vec::new(),
            heap_cursor: layout::HEAP_BASE,
            log: Vec::new(),
            net_output: Vec::new(),
            html_output: Vec::new(),
            sql_log: Vec::new(),
            shell_log: Vec::new(),
            opened_paths: Vec::new(),
            violations: Vec::new(),
            transactional: false,
            checkpoint: None,
            requests_delivered: 0,
            recoveries: 0,
            completed_requests: 0,
            aborted_requests: 0,
            open_request: false,
            suppressed_sinks: 0,
            recovery_cycles: 0,
            request_latencies: Vec::new(),
            request_start: None,
            kbd_reads: 0,
            legs: Vec::new(),
        }
    }

    /// The session's taint/policy configuration.
    pub fn config(&self) -> &TaintConfig {
        &self.cfg
    }

    /// Sets the I/O cost model (builder style).
    pub fn with_io(mut self, io: IoCostModel) -> Runtime {
        self.io = io;
        self
    }

    /// Enables per-request transactions (builder style): each `net_read`
    /// delivery checkpoints machine and runtime, and pets the watchdog if
    /// one is armed.
    pub fn with_transactions(mut self) -> Runtime {
        self.transactional = true;
        self
    }

    /// Completes a syscall's I/O, and the guest continues: charges
    /// `charged` cycles of I/O wait, mirrors them into the flight recorder
    /// as a `SyscallIo` instant for `name` moving `bytes` (a no-op when
    /// disarmed), and closes a leg of the leg log when `close_leg` is set
    /// and the operation actually cost something (with
    /// [`IoCostModel::FREE`] nothing does). Only [`Runtime::recover`]'s
    /// redelivery leaves `close_leg` unset.
    fn io_done(
        &mut self,
        m: &mut Machine,
        name: &'static str,
        bytes: u64,
        charged: u64,
        close_leg: bool,
    ) -> SysResult {
        m.stats.charge_io(charged);
        let now = m.stats.total_time();
        if let Some(fr) = m.flight_recorder_mut() {
            fr.instant(now, TraceKind::SyscallIo { name, bytes });
        }
        if close_leg && charged > 0 {
            self.legs.push((m.stats.cycles, m.stats.io_cycles));
        }
        SysResult::Continue
    }

    /// The leg log (see [`Runtime::io_done`]): where each closed leg ended,
    /// as cumulative `(cycles, io_cycles)`.
    pub(crate) fn leg_ends(&self) -> &[(u64, u64)] {
        &self.legs
    }

    /// Network requests still queued for delivery.
    pub fn pending_requests(&self) -> usize {
        self.world.net_input.len()
    }

    /// Is a delivered request currently being processed (delivered but
    /// neither completed at a `net_read` boundary nor rolled back)?
    pub fn open_request(&self) -> bool {
        self.open_request
    }

    /// The filesystem in its current state (files written by the guest
    /// included) — used by attack assertions and post-run inspection.
    pub fn world_files(&self) -> &BTreeMap<String, Vec<u8>> {
        &self.world.files
    }

    // ---- taint plumbing ---------------------------------------------------

    /// Writes `bytes` into guest memory at `addr` and marks their taint in
    /// both the host shadow and (when instrumented) the guest bitmap.
    /// `label` names the source channel for taint tracing (e.g.
    /// `"net_read msg#0"`, see [`Runtime::source_label`]); it becomes the
    /// origin of the provenance chain a later sink violation reports.
    ///
    /// An instrumented guest's destination must have tags. A buffer in
    /// region 0 (the tag space itself, which needs no mapping) fails with an
    /// unmapped fault before any byte is written; a run into unimplemented
    /// bits fails its data write with that write's usual fault.
    fn write_guest(
        &mut self,
        m: &mut Machine,
        addr: u64,
        bytes: &[u8],
        tainted: bool,
        label: &str,
    ) -> Result<(), MemError> {
        let len = bytes.len() as u64;
        let tags = match self.gran.map(|gran| tag_range(addr, len, gran)) {
            None => None,
            Some(Ok(r)) => Some(r),
            Some(Err(TagAddrError::RegionZero)) => return Err(MemError::Unmapped { addr }),
            Some(Err(TagAddrError::Unimplemented)) => {
                m.mem.write_bytes(addr, bytes)?;
                // Not reached: the unimplemented hole faults the write above.
                return Err(MemError::Unimplemented { addr });
            }
        };
        m.mem.write_bytes(addr, bytes)?;
        self.shadow.set_range(addr, len, tainted);
        if let Some(r) = tags.filter(|r| r.len > 0) {
            // Read the two edge bytes, fill the whole span in place, then
            // blend the edges back. Every tag byte is rewritten, changed or
            // not, so the tag pages take the same COW faults as a per-byte
            // read-modify-write would.
            let last = r.byte_addr + r.len - 1;
            let lo = m.mem.read_int(r.byte_addr, 1)? as u8;
            let hi = m.mem.read_int(last, 1)? as u8;
            m.mem.fill_bytes(r.byte_addr, r.len as usize, TagRange::fill(tainted))?;
            let (lo, hi) = r.blend_edges(lo, hi, tainted);
            m.mem.write_int(r.byte_addr, 1, u64::from(lo))?;
            if r.len > 1 {
                m.mem.write_int(last, 1, u64::from(hi))?;
            }
        }
        if let Some(o) = m.taint_observer_mut() {
            o.record_runtime_write(label, addr, len, tainted);
        }
        Ok(())
    }

    /// The source label of a delivery, built only when a taint observer is
    /// armed to record it (an empty label otherwise).
    fn source_label(m: &Machine, label: impl FnOnce() -> String) -> String {
        if m.taint_observer().is_some() {
            label()
        } else {
            String::new()
        }
    }

    /// Checks a guest source buffer `(addr, len)` and returns it with `len`
    /// clamped to [`sys::MAX_TRANSFER`]. A buffer in region 0 — the tag
    /// space, which reads as lazily zero-backed memory without any mapping
    /// — is refused with an unmapped fault before a byte is read, in every
    /// mode, the way [`Runtime::write_guest`] refuses a region-0
    /// destination. Every runtime read of a guest buffer starts here; the
    /// guest's own tag loads never pass through the runtime.
    fn source(addr: u64, len: u64) -> Result<(u64, u64), MemError> {
        if region_of(addr) == 0 {
            return Err(MemError::Unmapped { addr });
        }
        Ok((addr, len.min(sys::MAX_TRANSFER)))
    }

    /// Reads guest bytes plus their taint **as the guest's bitmap records
    /// it** — this is what policy checks must use. Bytes without tags
    /// (uninstrumented guest) read as clean. The buffers grow as the reads
    /// succeed, so a guest-supplied length past mapped memory faults at the
    /// first unmapped byte without allocating it first; a longer one is
    /// clamped by [`Runtime::source`].
    fn read_tainted(&self, m: &mut Machine, addr: u64, len: u64) -> Result<TaintedBytes, MemError> {
        let (addr, len) = Self::source(addr, len)?;
        let mut bytes = Vec::new();
        m.mem.append_bytes(addr, len as usize, &mut bytes)?;
        let taint = match self.gran.and_then(|gran| tag_range(addr, len, gran).ok()) {
            Some(r) => {
                let mut span = Vec::new();
                m.mem.append_bytes(r.byte_addr, r.len as usize, &mut span)?;
                (0..len).map(|i| r.is_tainted(&span, i)).collect()
            }
            None => vec![false; bytes.len()],
        };
        Ok(TaintedBytes { bytes, taint })
    }

    fn read_tainted_cstr(
        &self,
        m: &mut Machine,
        addr: u64,
        max: u64,
    ) -> Result<TaintedBytes, MemError> {
        let (addr, max) = Self::source(addr, max)?;
        let bytes = m.mem.read_cstr(addr, max as usize)?;
        let len = bytes.len() as u64;
        self.read_tainted(m, addr, len)
    }

    // ---- transactions & recovery ------------------------------------------

    /// Opens a transaction: machine snapshot plus runtime checkpoint. Any
    /// earlier checkpoint is superseded.
    fn take_checkpoint(&mut self, m: &mut Machine) {
        let snap = m.snapshot();
        let rc = RuntimeCheckpoint {
            shadow: self.shadow.clone(),
            fds: self.fds.clone(),
            heap_cursor: self.heap_cursor,
            files: Arc::clone(&self.world.files),
            opened_paths_len: self.opened_paths.len(),
            log_len: self.log.len(),
            net_output_len: self.net_output.len(),
            html_output_len: self.html_output.len(),
            sql_log_len: self.sql_log.len(),
            shell_log_len: self.shell_log.len(),
            stats_cycles: m.stats.cycles,
        };
        self.checkpoint = Some((snap, rc));
        let now = m.stats.total_time();
        if let Some(fr) = m.flight_recorder_mut() {
            fr.instant(now, TraceKind::Checkpoint);
        }
    }

    /// Rolls machine and runtime back to the open transaction's checkpoint
    /// and resumes the guest by delivering the next queued request at the
    /// restored `net_read` site (`0` bytes when the queue is drained, which
    /// lets a well-behaved server loop exit cleanly). The violation log and
    /// recovery counters deliberately survive the rollback. Returns `false`
    /// — recovery impossible — when no checkpoint is armed.
    pub fn recover(&mut self, m: &mut Machine) -> bool {
        let Some((snap, rc)) = &mut self.checkpoint else {
            return false;
        };
        m.restore(snap);
        self.shadow = rc.shadow.clone();
        self.fds = rc.fds.clone();
        self.heap_cursor = rc.heap_cursor;
        self.world.files = Arc::clone(&rc.files);
        self.opened_paths.truncate(rc.opened_paths_len);
        self.log.truncate(rc.log_len);
        self.net_output.truncate(rc.net_output_len);
        self.html_output.truncate(rc.html_output_len);
        self.sql_log.truncate(rc.sql_log_len);
        self.shell_log.truncate(rc.shell_log_len);
        self.recoveries += 1;
        // The rolled-back transaction's request (if one was actually
        // delivered into it) is gone for good: account it as aborted so
        // `completed + aborted + open == delivered` keeps holding.
        if self.open_request {
            self.aborted_requests += 1;
            self.open_request = false;
        }
        // Cycles are timing state and are not rolled back: attribute the
        // aborted transaction's work to recovery overhead, and restart the
        // attribution window for the transaction that begins now.
        let thrown = m.stats.cycles.saturating_sub(rc.stats_cycles);
        rc.stats_cycles = m.stats.cycles;
        self.recovery_cycles += thrown;
        let now = m.stats.total_time();
        if let Some(fr) = m.flight_recorder_mut() {
            fr.instant(now, TraceKind::Recovery { recovered_cycles: thrown });
        }
        m.pet_watchdog();
        // The restored CPU sits just after the `net_read` syscall that
        // opened the aborted transaction, argument registers intact:
        // deliver the next request right there.
        let (buf, max, _) = Self::args3(m);
        let msg = self.world.net_input.pop_front();
        if msg.is_some() {
            self.requests_delivered += 1;
            self.open_request = true;
        }
        // Delivery into the restored buffer cannot fault: the same pages
        // accepted the original request before the rollback. The redelivery
        // closes no leg: its I/O charge folds into the current execution
        // segment (a documented coarseness of the event model).
        let _ = self.do_stream_read(m, msg, buf, max, Source::Network, false);
        true
    }

    fn violate(
        &mut self,
        m: &mut Machine,
        policy: Policy,
        message: String,
        chain: Option<String>,
    ) -> SysResult {
        if let (Some(_), Some(o)) = (&chain, m.taint_observer_mut()) {
            o.record_sink_event();
        }
        let v = Violation {
            policy: policy.name().to_string(),
            message,
            ip: m.cpu.ip,
            provenance: chain,
        };
        self.violations.push(v.clone());
        self.dispose(m, self.cfg.action_for(policy), v)
    }

    /// Appends to the shared violation log. The session loop uses this for
    /// detections the runtime never sees as syscalls — NaT-consumption
    /// faults raised by the machine itself.
    pub fn record_violation(&mut self, v: Violation) {
        self.violations.push(v);
    }

    /// Applies the configured user-level response to a recorded violation.
    fn dispose(&mut self, m: &mut Machine, action: ViolationAction, v: Violation) -> SysResult {
        let now = m.stats.total_time();
        if let Some(fr) = m.flight_recorder_mut() {
            fr.instant(
                now,
                TraceKind::Violation {
                    policy: v.policy.clone(),
                    action: action_name(action).to_string(),
                },
            );
        }
        match action {
            ViolationAction::Terminate => SysResult::Stop(Exit::Violation(v)),
            ViolationAction::LogAndContinue => {
                // The dangerous sink effect is suppressed; the guest sees an
                // ordinary `-1` failure and keeps running.
                self.suppressed_sinks += 1;
                Self::ret(m, -1);
                SysResult::Continue
            }
            ViolationAction::AbortTransaction => {
                if self.recover(m) {
                    SysResult::Continue
                } else {
                    // No checkpoint to abort to: fail stop.
                    SysResult::Stop(Exit::Violation(v))
                }
            }
        }
    }

    fn check(
        &mut self,
        m: &mut Machine,
        policy: Policy,
        verdict: policy::PolicyVerdict,
        chain: Option<String>,
    ) -> Option<SysResult> {
        if !self.cfg.policy_on(policy) {
            return None;
        }
        verdict.map(|msg| self.violate(m, policy, msg, chain))
    }

    /// The provenance chain for a sink argument, when taint tracing is on:
    /// follows the tainted bytes of the argument back to the source channel
    /// recorded by the observer.
    fn chain_for(m: &Machine, sink: &str, addr: u64, arg: &TaintedBytes) -> Option<String> {
        m.taint_observer().and_then(|o| o.sink_chain(sink, addr, &arg.taint))
    }

    /// Closes the open per-request latency window (if any) at modelled time
    /// `now`. The serve loop calls this once after the guest exits so the
    /// final request's latency is recorded. Returns the closed window's
    /// `(start, latency)` so callers can mirror it into the flight recorder
    /// as a request span.
    pub fn finish_request_window(&mut self, now: u64) -> Option<(u64, u64)> {
        let start = self.request_start.take()?;
        let latency = now.saturating_sub(start);
        self.request_latencies.push(latency);
        Some((start, latency))
    }

    // ---- syscall bodies ---------------------------------------------------

    fn args3(m: &Machine) -> (u64, u64, u64) {
        (m.cpu.gpr(Gpr::arg(0)).value, m.cpu.gpr(Gpr::arg(1)).value, m.cpu.gpr(Gpr::arg(2)).value)
    }

    fn ret(m: &mut Machine, v: i64) {
        m.cpu.set_gpr_val(Gpr::RET, v as u64);
    }

    /// Delivers `data` (a `Network` or `Keyboard` stream read) and completes
    /// its I/O ([`Runtime::io_done`]); network reads also roll the
    /// per-request latency window over.
    fn do_stream_read(
        &mut self,
        m: &mut Machine,
        data: Option<Vec<u8>>,
        buf: u64,
        max: u64,
        source: Source,
        close_leg: bool,
    ) -> Result<SysResult, MemError> {
        let tainted = self.cfg.source_on(source);
        let delivered = data.is_some();
        let label = Self::source_label(m, || match source {
            Source::Network => {
                format!("net_read msg#{}", self.requests_delivered.saturating_sub(1))
            }
            Source::Keyboard => format!("kbd_read line#{}", self.kbd_reads),
            _ => "stream_read".to_string(),
        });
        let n = match data {
            Some(mut msg) => {
                msg.truncate(max as usize);
                self.write_guest(m, buf, &msg, tainted, &label)?;
                msg.len() as u64
            }
            None => 0,
        };
        if delivered && matches!(source, Source::Keyboard) {
            self.kbd_reads += 1;
        }
        let (name, charged) = match source {
            Source::Network => ("net_read", self.io.net_base + self.io.net_per_byte * n),
            _ => ("kbd_read", 0),
        };
        let out = self.io_done(m, name, n, charged, close_leg);
        let now = m.stats.total_time();
        if matches!(source, Source::Network) {
            // Per-request latency: the window for request k runs from its
            // delivery to the next `net_read` (or `finish_request_window`).
            if let Some((start, latency)) = self.finish_request_window(now) {
                let index = self.request_latencies.len() as u64 - 1;
                if let Some(fr) = m.flight_recorder_mut() {
                    fr.span(start, start + latency, TraceKind::Request { index });
                }
            }
            if delivered {
                self.request_start = Some(now);
            }
        }
        Self::ret(m, n as i64);
        Ok(out)
    }
}

/// The stable exposition name of a [`ViolationAction`], used for trace
/// events and docs.
pub(crate) fn action_name(action: ViolationAction) -> &'static str {
    match action {
        ViolationAction::Terminate => "terminate",
        ViolationAction::LogAndContinue => "log_and_continue",
        ViolationAction::AbortTransaction => "abort_transaction",
    }
}

impl Os for Runtime {
    fn syscall(&mut self, m: &mut Machine, num: u32) -> SysResult {
        let out = match self.dispatch(m, num) {
            Ok(r) => r,
            Err(e) => {
                let ip = m.cpu.ip;
                SysResult::Stop(Exit::Fault(match e {
                    MemError::Unimplemented { addr } => Fault::Unimplemented { addr, ip },
                    MemError::Unmapped { addr } => Fault::Unmapped { addr, ip },
                    MemError::Unaligned { addr, size } => Fault::Unaligned { addr, size, ip },
                }))
            }
        };
        // Time-series sampling. Syscalls are the only points where the
        // modelled clock can cross a threshold with the runtime's counters
        // in a consistent state, so sampling here is deterministic: the
        // same run produces the same samples at the same modelled cycles.
        if m.flight_recorder().is_some() {
            let now = m.stats.total_time();
            let sample = Sample {
                cycle: now,
                worker: 0, // restamped by the fleet with the connection index
                cycles: m.stats.cycles,
                io_cycles: m.stats.io_cycles,
                instructions: m.stats.instructions,
                requests: self.requests_delivered,
                recoveries: self.recoveries,
                violations: self.violations.len() as u64,
            };
            if let Some(fr) = m.flight_recorder_mut() {
                if fr.sample_due(now) {
                    fr.record_sample(sample);
                }
            }
        }
        out
    }
}

impl Runtime {
    fn dispatch(&mut self, m: &mut Machine, num: u32) -> Result<SysResult, MemError> {
        let (a0, a1, a2) = Self::args3(m);
        match num {
            sys::EXIT => Ok(SysResult::Stop(Exit::Halted(a0 as i64))),
            sys::PRINT => {
                let (addr, len) = Self::source(a0, a1)?;
                let mut bytes = Vec::new();
                m.mem.append_bytes(addr, len as usize, &mut bytes)?;
                self.log.push(bytes);
                Self::ret(m, 0);
                Ok(SysResult::Continue)
            }
            sys::NET_READ => {
                // Reaching the next read means the previous request's
                // transaction closed successfully: count it as completed.
                if self.open_request {
                    self.completed_requests += 1;
                    self.open_request = false;
                }
                if self.transactional {
                    // Each request is a transaction: checkpoint *before*
                    // delivery so a rollback lands with the request undelivered,
                    // and grant the new transaction a full watchdog budget.
                    self.take_checkpoint(m);
                    m.pet_watchdog();
                }
                let msg = self.world.net_input.pop_front();
                if msg.is_some() {
                    self.requests_delivered += 1;
                    self.open_request = true;
                }
                self.do_stream_read(m, msg, a0, a1, Source::Network, true)
            }
            sys::KBD_READ => {
                let msg = self.world.kbd_input.pop_front();
                self.do_stream_read(m, msg, a0, a1, Source::Keyboard, true)
            }
            sys::NET_WRITE => {
                // Append in place; a faulting read leaves the output as it was.
                let (addr, len) = Self::source(a0, a1)?;
                m.mem.append_bytes(addr, len as usize, &mut self.net_output)?;
                Self::ret(m, len as i64);
                let charged = self.io.net_base + self.io.net_per_byte * len;
                Ok(self.io_done(m, "net_write", len, charged, true))
            }
            sys::FILE_OPEN => {
                let path = self.read_tainted_cstr(m, a0, 4096)?;
                let chain = Self::chain_for(m, "file_open", a0, &path);
                if let Some(stop) =
                    self.check(m, Policy::H1, policy::check_h1_absolute_path(&path), chain.clone())
                {
                    return Ok(stop);
                }
                if let Some(stop) =
                    self.check(m, Policy::H2, policy::check_h2_traversal(&path), chain)
                {
                    return Ok(stop);
                }
                let name = String::from_utf8_lossy(&path.bytes).into_owned();
                let writable = a1 == 1;
                if !self.world.files.contains_key(&name) {
                    if !writable {
                        Self::ret(m, -1);
                        return Ok(SysResult::Continue);
                    }
                    Arc::make_mut(&mut self.world.files).insert(name.clone(), Vec::new());
                }
                self.opened_paths.push(name.clone());
                let fd = self.fds.len() as i64;
                self.fds.push(Some(OpenFile { name, pos: 0, writable }));
                Self::ret(m, fd);
                Ok(self.io_done(m, "file_open", 0, self.io.disk_base, true))
            }
            sys::FILE_READ => {
                let Some(Some(f)) = self.fds.get_mut(a0 as usize) else {
                    Self::ret(m, -1);
                    return Ok(SysResult::Continue);
                };
                // A reference to the shared filesystem, so the chunk is
                // delivered straight from the file without copying it.
                let files = Arc::clone(&self.world.files);
                let content = files.get(&f.name).map_or(&[][..], Vec::as_slice);
                let end = f.pos.saturating_add(a2 as usize).min(content.len());
                let chunk = &content[f.pos.min(end)..end];
                f.pos = end;
                let label = Self::source_label(m, || format!("file_read {}", f.name));
                let tainted = self.cfg.source_on(Source::Disk);
                self.write_guest(m, a1, chunk, tainted, &label)?;
                let n = chunk.len() as u64;
                Self::ret(m, n as i64);
                let charged = self.io.disk_base + self.io.disk_per_byte * n;
                Ok(self.io_done(m, "file_read", n, charged, true))
            }
            sys::FILE_WRITE => {
                let Some(Some(f)) = self.fds.get(a0 as usize) else {
                    Self::ret(m, -1);
                    return Ok(SysResult::Continue);
                };
                if !f.writable {
                    Self::ret(m, -1);
                    return Ok(SysResult::Continue);
                }
                let (addr, len) = Self::source(a1, a2)?;
                let mut bytes = Vec::new();
                m.mem.append_bytes(addr, len as usize, &mut bytes)?;
                let n = bytes.len() as u64;
                Arc::make_mut(&mut self.world.files)
                    .entry(f.name.clone())
                    .or_default()
                    .extend_from_slice(&bytes);
                Self::ret(m, n as i64);
                let charged = self.io.disk_base + self.io.disk_per_byte * n;
                Ok(self.io_done(m, "file_write", n, charged, true))
            }
            sys::FILE_CLOSE => {
                if let Some(slot) = self.fds.get_mut(a0 as usize) {
                    *slot = None;
                }
                Self::ret(m, 0);
                Ok(SysResult::Continue)
            }
            sys::FILE_STAT => {
                let (addr, max) = Self::source(a0, 4096)?;
                let path = m.mem.read_cstr(addr, max as usize)?;
                let name = String::from_utf8_lossy(&path).into_owned();
                let size = self.world.files.get(&name).map(|c| c.len() as i64).unwrap_or(-1);
                Self::ret(m, size);
                Ok(self.io_done(m, "file_stat", 0, self.io.disk_base / 2, true))
            }
            sys::SQL_EXEC => {
                let q = self.read_tainted(m, a0, a1)?;
                let chain = Self::chain_for(m, "sql_exec", a0, &q);
                if let Some(stop) = self.check(m, Policy::H3, policy::check_h3_sql(&q), chain) {
                    return Ok(stop);
                }
                self.sql_log.push(q.bytes);
                Self::ret(m, 0);
                Ok(SysResult::Continue)
            }
            sys::SYSTEM => {
                let c = self.read_tainted(m, a0, a1)?;
                let chain = Self::chain_for(m, "system", a0, &c);
                if let Some(stop) = self.check(m, Policy::H4, policy::check_h4_shell(&c), chain) {
                    return Ok(stop);
                }
                self.shell_log.push(c.bytes);
                Self::ret(m, 0);
                Ok(SysResult::Continue)
            }
            sys::HTML_OUT => {
                let h = self.read_tainted(m, a0, a1)?;
                let chain = Self::chain_for(m, "html_out", a0, &h);
                if let Some(stop) = self.check(m, Policy::H5, policy::check_h5_xss(&h), chain) {
                    return Ok(stop);
                }
                self.html_output.extend_from_slice(&h.bytes);
                let n = h.bytes.len() as u64;
                Self::ret(m, n as i64);
                let charged = self.io.net_base / 4 + self.io.net_per_byte * n;
                Ok(self.io_done(m, "html_out", n, charged, true))
            }
            sys::BRK => {
                // Grants round up to 16 bytes (at least 16). A break that
                // overflows or leaves the heap region's implemented bits is
                // refused with -1, like a failed `sbrk`.
                let base = self.heap_cursor;
                let end = a0.max(1).checked_next_multiple_of(16).and_then(|n| base.checked_add(n));
                match end {
                    Some(end)
                        if is_implemented(end - 1) && region_of(end - 1) == layout::HEAP_REGION =>
                    {
                        m.mem.map_range(base, end - base);
                        self.heap_cursor = end;
                        Self::ret(m, base as i64);
                    }
                    _ => Self::ret(m, -1),
                }
                Ok(SysResult::Continue)
            }
            sys::GET_ARG => {
                match self.world.args.get(a0 as usize) {
                    Some(arg) => {
                        let n = arg.len().min(a2 as usize);
                        let chunk = arg[..n].to_vec();
                        let tainted = self.cfg.source_on(Source::Args);
                        let label = Self::source_label(m, || format!("arg#{a0}"));
                        self.write_guest(m, a1, &chunk, tainted, &label)?;
                        Self::ret(m, n as i64);
                    }
                    None => Self::ret(m, -1),
                }
                Ok(SysResult::Continue)
            }
            sys::ALERT => {
                let provenance = m.taint_observer_mut().and_then(|o| {
                    let chain = o.guard_chain().map(|c| format!("{c} → alert"));
                    if chain.is_some() {
                        o.record_sink_event();
                    }
                    chain
                });
                let v = Violation {
                    policy: "GUARD".to_string(),
                    message: "chk.s guard: tainted value reached critical use".to_string(),
                    ip: m.cpu.ip,
                    provenance,
                };
                self.violations.push(v.clone());
                // The guard alarm has no `Policy` value: the default action
                // governs it.
                Ok(self.dispose(m, self.cfg.default_action(), v))
            }
            sys::CLOCK => {
                Self::ret(m, m.stats.cycles as i64);
                Ok(SysResult::Continue)
            }
            other => {
                Ok(SysResult::Stop(Exit::Fault(Fault::BadSyscall { num: other, ip: m.cpu.ip })))
            }
        }
    }

    /// Cross-checks the guest bitmap against the host shadow over a byte
    /// range; returns the first disagreeing address. Test-suite helper for
    /// detecting taint drift (false positives/negatives in the §5.2 sense).
    pub fn shadow_mismatch(&self, m: &mut Machine, addr: u64, len: u64) -> Option<u64> {
        let gran = self.gran?;
        for i in 0..len {
            let a = addr + i;
            let Ok(loc) = tag_location(a, gran) else { continue };
            let Ok(byte) = m.mem.read_int(loc.byte_addr, 1) else { continue };
            let guest = byte & u64::from(loc.mask) != 0;
            let host = match gran {
                Granularity::Byte => self.shadow.is_tainted(a),
                // One word-level bit covers 8 bytes: the guest bit should be
                // set iff any byte of the word is tainted in ground truth.
                Granularity::Word => self.shadow.any_tainted(a & !7, 8),
            };
            if guest != host {
                return Some(a);
            }
        }
        None
    }
}

#[cfg(test)]
mod bulk_props;

#[cfg(test)]
mod tests {
    use super::*;
    use shift_machine::Image;

    fn machine() -> Machine {
        let image = Image::builder()
            .code(vec![shift_isa::Insn::new(shift_isa::Op::Halt)])
            .map(layout::DATA_BASE, 0x10000)
            .build();
        Machine::new(&image)
    }

    fn rt(world: World) -> Runtime {
        Runtime::new(TaintConfig::default_secure(), world, Some(Granularity::Byte))
    }

    #[test]
    fn write_guest_sets_bitmap_and_shadow() {
        let mut m = machine();
        let mut r = rt(World::new());
        let addr = layout::GLOBALS_BASE;
        r.write_guest(&mut m, addr, b"evil", true, "test").unwrap();
        assert!(r.shadow.all_tainted(addr, 4));
        assert_eq!(r.shadow_mismatch(&mut m, addr, 4), None);
        let t = r.read_tainted(&mut m, addr, 4).unwrap();
        assert_eq!(t.bytes, b"evil");
        assert!(t.taint.iter().all(|&b| b));
        // Overwrite with clean data: taint must clear.
        r.write_guest(&mut m, addr, b"ok", false, "test").unwrap();
        let t2 = r.read_tainted(&mut m, addr, 2).unwrap();
        assert!(t2.taint.iter().all(|&b| !b));
    }

    #[test]
    fn uninstrumented_runtime_sees_no_taint() {
        let mut m = machine();
        let mut r = Runtime::new(TaintConfig::default_secure(), World::new(), None);
        let addr = layout::GLOBALS_BASE;
        r.write_guest(&mut m, addr, b"evil", true, "test").unwrap();
        let t = r.read_tainted(&mut m, addr, 4).unwrap();
        assert!(t.taint.iter().all(|&b| !b), "no bitmap ⇒ sinks are blind");
        // …but ground truth still knows.
        assert!(r.shadow.all_tainted(addr, 4));
    }

    #[test]
    fn word_granularity_shadow_check_is_word_coarse() {
        let mut m = machine();
        let mut r =
            Runtime::new(TaintConfig::default_secure(), World::new(), Some(Granularity::Word));
        let addr = layout::GLOBALS_BASE;
        // Taint one byte: the word bit covers all 8.
        r.write_guest(&mut m, addr, b"x", true, "test").unwrap();
        assert_eq!(r.shadow_mismatch(&mut m, addr, 8), None);
        let t = r.read_tainted(&mut m, addr, 8).unwrap();
        assert!(t.taint.iter().all(|&b| b), "word-level tags are coarse");
    }

    #[test]
    fn syscall_net_read_taints_buffer() {
        let mut m = machine();
        let mut r = rt(World::new().net("GET /x")).with_io(IoCostModel::SERVER);
        let buf = layout::GLOBALS_BASE;
        m.cpu.set_gpr_val(Gpr::arg(0), buf);
        m.cpu.set_gpr_val(Gpr::arg(1), 64);
        let res = r.syscall(&mut m, sys::NET_READ);
        assert_eq!(res, SysResult::Continue);
        assert_eq!(m.cpu.gpr(Gpr::RET).value, 6);
        assert!(r.shadow.all_tainted(buf, 6));
        assert!(m.stats.io_cycles > 0);
    }

    #[test]
    fn faulting_net_write_leaves_output_unchanged() {
        let mut m = machine();
        let mut r = rt(World::new());
        let end = layout::DATA_BASE + 0x10000;
        m.mem.write_bytes(end - 8, b"ok").unwrap();
        m.cpu.set_gpr_val(Gpr::arg(0), end - 8);
        m.cpu.set_gpr_val(Gpr::arg(1), 2);
        assert_eq!(r.syscall(&mut m, sys::NET_WRITE), SysResult::Continue);
        let io = m.stats.io_cycles;
        // The source runs off the mapped region into an unmapped page.
        m.cpu.set_gpr_val(Gpr::arg(1), 16);
        let ip = m.cpu.ip;
        assert_eq!(
            r.syscall(&mut m, sys::NET_WRITE),
            SysResult::Stop(Exit::Fault(Fault::Unmapped { addr: end, ip }))
        );
        assert_eq!(r.net_output, b"ok");
        assert_eq!(m.stats.io_cycles, io, "a faulting write charges no I/O");
    }

    #[test]
    fn file_round_trip_and_stat() {
        let mut m = machine();
        let mut r = rt(World::new().file("data.txt", b"hello".to_vec()));
        let path = layout::GLOBALS_BASE;
        let buf = layout::GLOBALS_BASE + 256;
        m.mem.write_bytes(path, b"data.txt\0").unwrap();

        m.cpu.set_gpr_val(Gpr::arg(0), path);
        m.cpu.set_gpr_val(Gpr::arg(1), 0);
        assert_eq!(r.syscall(&mut m, sys::FILE_OPEN), SysResult::Continue);
        let fd = m.cpu.gpr(Gpr::RET).value;

        m.cpu.set_gpr_val(Gpr::arg(0), fd);
        m.cpu.set_gpr_val(Gpr::arg(1), buf);
        m.cpu.set_gpr_val(Gpr::arg(2), 64);
        assert_eq!(r.syscall(&mut m, sys::FILE_READ), SysResult::Continue);
        assert_eq!(m.cpu.gpr(Gpr::RET).value, 5);
        let mut got = [0u8; 5];
        m.mem.read_bytes(buf, &mut got).unwrap();
        assert_eq!(&got, b"hello");
        assert!(r.shadow.all_tainted(buf, 5), "disk is a taint source by default");

        m.cpu.set_gpr_val(Gpr::arg(0), path);
        assert_eq!(r.syscall(&mut m, sys::FILE_STAT), SysResult::Continue);
        assert_eq!(m.cpu.gpr(Gpr::RET).value, 5);
    }

    #[test]
    fn sql_sink_fires_on_tainted_quote() {
        let mut m = machine();
        let mut r = rt(World::new());
        let q = layout::GLOBALS_BASE;
        r.write_guest(&mut m, q, b"SELECT 1 OR '1'='1'", true, "test").unwrap();
        m.cpu.set_gpr_val(Gpr::arg(0), q);
        m.cpu.set_gpr_val(Gpr::arg(1), 19);
        let res = r.syscall(&mut m, sys::SQL_EXEC);
        match res {
            SysResult::Stop(Exit::Violation(v)) => assert_eq!(v.policy, "H3"),
            other => panic!("expected H3 violation, got {other:?}"),
        }
        assert!(r.sql_log.is_empty(), "the statement must not execute");
    }

    #[test]
    fn sql_sink_allows_clean_query() {
        let mut m = machine();
        let mut r = rt(World::new());
        let q = layout::GLOBALS_BASE;
        r.write_guest(&mut m, q, b"SELECT 'safe'", false, "test").unwrap();
        m.cpu.set_gpr_val(Gpr::arg(0), q);
        m.cpu.set_gpr_val(Gpr::arg(1), 13);
        assert_eq!(r.syscall(&mut m, sys::SQL_EXEC), SysResult::Continue);
        assert_eq!(r.sql_log.len(), 1);
    }

    #[test]
    fn disarmed_policy_does_not_fire() {
        let mut m = machine();
        let mut cfg = TaintConfig::default_secure();
        cfg.set_policy(Policy::H3, false);
        let mut r = Runtime::new(cfg, World::new(), Some(Granularity::Byte));
        let q = layout::GLOBALS_BASE;
        r.write_guest(&mut m, q, b"x';DROP TABLE t;--", true, "test").unwrap();
        m.cpu.set_gpr_val(Gpr::arg(0), q);
        m.cpu.set_gpr_val(Gpr::arg(1), 18);
        assert_eq!(r.syscall(&mut m, sys::SQL_EXEC), SysResult::Continue);
    }

    #[test]
    fn brk_grows_heap() {
        let mut m = machine();
        let mut r = rt(World::new());
        m.cpu.set_gpr_val(Gpr::arg(0), 100);
        assert_eq!(r.syscall(&mut m, sys::BRK), SysResult::Continue);
        let p1 = m.cpu.gpr(Gpr::RET).value;
        m.cpu.set_gpr_val(Gpr::arg(0), 100);
        assert_eq!(r.syscall(&mut m, sys::BRK), SysResult::Continue);
        let p2 = m.cpu.gpr(Gpr::RET).value;
        assert!(p2 >= p1 + 100);
        // Memory is usable.
        m.mem.write_int(p1, 8, 42).unwrap();
        assert_eq!(m.mem.read_int(p1, 8).unwrap(), 42);
    }

    #[test]
    fn brk_refuses_a_break_past_the_heap_region() {
        let mut m = machine();
        let mut r = rt(World::new());
        // Past the implemented bits, past the region, and overflowing.
        for size in [1 << 41, (1 << 40) + 16, 1 << 61, u64::MAX - 7, u64::MAX] {
            assert_eq!(call(&mut r, &mut m, sys::BRK, &[size]), SysResult::Continue);
            assert_eq!(m.cpu.gpr(Gpr::RET).value as i64, -1, "brk({size:#x})");
        }
        // A refused break leaves the heap where it was.
        assert_eq!(call(&mut r, &mut m, sys::BRK, &[16]), SysResult::Continue);
        assert_eq!(m.cpu.gpr(Gpr::RET).value, layout::HEAP_BASE);
    }

    #[test]
    fn brk_maps_half_the_heap_region_in_constant_host_memory() {
        let mut m = machine();
        let mut r = rt(World::new());
        let pages = (m.mem.resident_pages(), m.mem.owned_pages());
        assert_eq!(call(&mut r, &mut m, sys::BRK, &[1 << 39]), SysResult::Continue);
        assert_eq!(m.cpu.gpr(Gpr::RET).value, layout::HEAP_BASE);
        assert_eq!((m.mem.resident_pages(), m.mem.owned_pages()), pages, "the grant is lazy");
        // Both ends of the grant are usable.
        for addr in [layout::HEAP_BASE, layout::HEAP_BASE + (1 << 39) - 8] {
            m.mem.write_int(addr, 8, 42).unwrap();
            assert_eq!(m.mem.read_int(addr, 8).unwrap(), 42);
        }
        assert_eq!(call(&mut r, &mut m, sys::BRK, &[16]), SysResult::Continue);
        assert_eq!(m.cpu.gpr(Gpr::RET).value, layout::HEAP_BASE + (1 << 39));
    }

    /// A recovery's redelivery charges I/O but closes no leg of the leg
    /// log: its I/O lands in the leg that ends at the next I/O charge.
    #[test]
    fn recovery_redelivery_closes_no_leg() {
        let mut m = machine();
        let mut r = rt(World::new().net("GET /a").net("GET /b"))
            .with_io(IoCostModel::SERVER)
            .with_transactions();
        let buf = layout::GLOBALS_BASE;
        assert_eq!(call(&mut r, &mut m, sys::NET_READ, &[buf, 64]), SysResult::Continue);
        assert_eq!(r.leg_ends(), [(m.stats.cycles, m.stats.io_cycles)]);
        let io_at_read = m.stats.io_cycles;
        assert!(r.recover(&mut m));
        let redelivery = m.stats.io_cycles - io_at_read;
        assert!(redelivery > 0, "the redelivery charges I/O");
        assert_eq!(r.leg_ends().len(), 1, "a redelivery closes no leg");
        assert_eq!(call(&mut r, &mut m, sys::NET_WRITE, &[buf, 6]), SysResult::Continue);
        let write = IoCostModel::SERVER.net_base + IoCostModel::SERVER.net_per_byte * 6;
        let &[(_, first), (_, second)] = r.leg_ends() else {
            panic!("expected two legs: {:?}", r.leg_ends())
        };
        assert_eq!(second - first, redelivery + write);
    }

    #[test]
    fn oversized_lengths_fault_at_the_first_unmapped_byte() {
        const TIB: u64 = 1 << 40;
        let (buf, end) = (layout::GLOBALS_BASE, layout::DATA_BASE + 0x10000);
        let calls = [
            (sys::PRINT, None),
            (sys::NET_WRITE, None),
            (sys::FILE_WRITE, Some("out.txt")),
            (sys::SQL_EXEC, None),
            (sys::SYSTEM, None),
            (sys::HTML_OUT, None),
        ];
        for (num, file) in calls {
            let mut m = machine();
            let mut r = rt(World::new());
            let args = match file {
                Some(name) => vec![open(&mut r, &mut m, name, true), buf, TIB],
                None => vec![buf, TIB],
            };
            let ip = m.cpu.ip;
            assert_eq!(
                call(&mut r, &mut m, num, &args),
                SysResult::Stop(Exit::Fault(Fault::Unmapped { addr: end, ip })),
                "syscall {num}"
            );
        }
    }

    /// A guest may map half the heap region and hand the runtime a buffer
    /// of that length: each bulk read stops at [`sys::MAX_TRANSFER`] bytes,
    /// so host output and resident frames stay bounded by one transfer.
    #[test]
    fn bulk_reads_of_a_huge_grant_are_clamped_to_one_transfer() {
        const LEN: u64 = 1 << 39;
        let io = IoCostModel::SERVER;
        let frames = 2 * sys::MAX_TRANSFER / shift_machine::PAGE_SIZE;
        let out_len = |num: u32, r: &Runtime| match num {
            sys::PRINT => r.log.concat().len(),
            sys::NET_WRITE => r.net_output.len(),
            sys::SQL_EXEC => r.sql_log.concat().len(),
            _ => r.html_output.len(),
        };
        for num in [sys::PRINT, sys::NET_WRITE, sys::SQL_EXEC, sys::HTML_OUT] {
            let mut m = machine();
            let mut r = rt(World::new()).with_io(io);
            assert_eq!(call(&mut r, &mut m, sys::BRK, &[LEN]), SysResult::Continue);
            let (resident, zero) = (m.mem.resident_pages(), m.mem.zero_pages());
            let io_before = m.stats.io_cycles;
            assert_eq!(call(&mut r, &mut m, num, &[layout::HEAP_BASE, LEN]), SysResult::Continue);
            let name = sys::name(num);
            assert_eq!(out_len(num, &r) as u64, sys::MAX_TRANSFER, "{name}");
            assert!(m.mem.resident_pages() - resident <= frames as usize, "{name}");
            assert!(m.mem.zero_pages() - zero <= frames as usize, "{name}");
            assert_eq!(m.mem.owned_pages(), 0, "{name}: a read owns no page");
            let charged = m.stats.io_cycles - io_before;
            match num {
                sys::NET_WRITE => {
                    assert_eq!(m.cpu.gpr(Gpr::RET).value, sys::MAX_TRANSFER);
                    assert_eq!(charged, io.net_base + io.net_per_byte * sys::MAX_TRANSFER);
                }
                sys::HTML_OUT => {
                    assert_eq!(m.cpu.gpr(Gpr::RET).value, sys::MAX_TRANSFER);
                    assert_eq!(charged, io.net_base / 4 + io.net_per_byte * sys::MAX_TRANSFER);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn get_arg_taints_when_configured() {
        let mut m = machine();
        let mut r = rt(World::new().arg("--file=../../etc/passwd"));
        let buf = layout::GLOBALS_BASE;
        m.cpu.set_gpr_val(Gpr::arg(0), 0);
        m.cpu.set_gpr_val(Gpr::arg(1), buf);
        m.cpu.set_gpr_val(Gpr::arg(2), 256);
        assert_eq!(r.syscall(&mut m, sys::GET_ARG), SysResult::Continue);
        assert!(m.cpu.gpr(Gpr::RET).value > 0);
        assert!(r.shadow.any_tainted(buf, 5));
        // Missing arg returns -1.
        m.cpu.set_gpr_val(Gpr::arg(0), 9);
        assert_eq!(r.syscall(&mut m, sys::GET_ARG), SysResult::Continue);
        assert_eq!(m.cpu.gpr(Gpr::RET).value as i64, -1);
    }

    /// Sets the syscall argument registers and makes the call.
    fn call(r: &mut Runtime, m: &mut Machine, num: u32, args: &[u64]) -> SysResult {
        for (i, &a) in args.iter().enumerate() {
            m.cpu.set_gpr_val(Gpr::arg(i), a);
        }
        r.syscall(m, num)
    }

    /// Opens `name` and returns its descriptor.
    fn open(r: &mut Runtime, m: &mut Machine, name: &str, writable: bool) -> u64 {
        let path = layout::GLOBALS_BASE + 512;
        m.mem.write_bytes(path, format!("{name}\0").as_bytes()).unwrap();
        assert_eq!(call(r, m, sys::FILE_OPEN, &[path, u64::from(writable)]), SysResult::Continue);
        m.cpu.gpr(Gpr::RET).value
    }

    fn write_file(r: &mut Runtime, m: &mut Machine, fd: u64, data: &[u8]) {
        let buf = layout::GLOBALS_BASE + 1024;
        m.mem.write_bytes(buf, data).unwrap();
        let res = call(r, m, sys::FILE_WRITE, &[fd, buf, data.len() as u64]);
        assert_eq!(res, SysResult::Continue);
        assert_eq!(m.cpu.gpr(Gpr::RET).value, data.len() as u64);
    }

    /// Reaches the next `net_read`: closes the open transaction and, with
    /// transactions on, checkpoints before delivering the next request.
    fn next_request(r: &mut Runtime, m: &mut Machine) {
        let res = call(r, m, sys::NET_READ, &[layout::GLOBALS_BASE + 2048, 64]);
        assert_eq!(res, SysResult::Continue);
    }

    /// A source buffer in region 0 — the tag space itself.
    const TAG_SPACE_BUF: u64 = 0x1000;

    /// Makes a source syscall deliver into [`TAG_SPACE_BUF`] and checks that
    /// it fails with a fault before writing anything: no host panic, no
    /// guest bytes in tag space, no shadow taint.
    fn assert_tag_space_delivery_faults(r: &mut Runtime, m: &mut Machine, num: u32, args: &[u64]) {
        let before = m.mem.digest();
        match call(r, m, num, args) {
            SysResult::Stop(Exit::Fault(Fault::Unmapped { addr: TAG_SPACE_BUF, .. })) => {}
            other => panic!("syscall {num}: expected an unmapped fault, got {other:?}"),
        }
        assert_eq!(m.mem.digest(), before, "syscall {num} wrote memory before faulting");
        let mut page = [0u8; 4096];
        m.mem.read_bytes(TAG_SPACE_BUF & !4095, &mut page).unwrap();
        assert!(page.iter().all(|&b| b == 0), "syscall {num} wrote into tag space");
        assert_eq!(r.shadow.tainted_bytes(), 0);
    }

    #[test]
    fn net_read_into_tag_space_faults() {
        let (mut m, mut r) = (machine(), rt(World::new().net("GET /evil")));
        assert_tag_space_delivery_faults(&mut r, &mut m, sys::NET_READ, &[TAG_SPACE_BUF, 64]);
    }

    #[test]
    fn kbd_read_into_tag_space_faults() {
        let (mut m, mut r) = (machine(), rt(World::new().kbd("rm -rf /")));
        assert_tag_space_delivery_faults(&mut r, &mut m, sys::KBD_READ, &[TAG_SPACE_BUF, 64]);
    }

    #[test]
    fn get_arg_into_tag_space_faults() {
        let (mut m, mut r) = (machine(), rt(World::new().arg("--evil")));
        assert_tag_space_delivery_faults(&mut r, &mut m, sys::GET_ARG, &[0, TAG_SPACE_BUF, 64]);
    }

    #[test]
    fn file_read_into_tag_space_faults() {
        let (mut m, mut r) = (machine(), rt(World::new().file("data.txt", b"hello".to_vec())));
        let fd = open(&mut r, &mut m, "data.txt", false);
        assert_tag_space_delivery_faults(&mut r, &mut m, sys::FILE_READ, &[fd, TAG_SPACE_BUF, 64]);
    }

    /// Every runtime read of a guest buffer refuses a region-0 source
    /// before reading a byte, instrumented or not: a 1 TiB `print` (or
    /// write, or sink argument) from tag space faults without touching a
    /// page.
    #[test]
    fn reads_from_tag_space_fault_before_reading() {
        const TIB: u64 = 1 << 40;
        for gran in [Some(Granularity::Byte), None] {
            let mut m = machine();
            let mut r = Runtime::new(TaintConfig::default_secure(), World::new(), gran);
            let fd = open(&mut r, &mut m, "out.txt", true);
            let pages = (m.mem.resident_pages(), m.mem.owned_pages());
            for (num, args) in [
                (sys::PRINT, [TAG_SPACE_BUF, TIB, 0]),
                (sys::NET_WRITE, [TAG_SPACE_BUF, TIB, 0]),
                (sys::FILE_WRITE, [fd, TAG_SPACE_BUF, TIB]),
                (sys::FILE_STAT, [TAG_SPACE_BUF, 0, 0]),
                (sys::FILE_OPEN, [TAG_SPACE_BUF, 0, 0]),
                (sys::SQL_EXEC, [TAG_SPACE_BUF, TIB, 0]),
                (sys::SYSTEM, [TAG_SPACE_BUF, TIB, 0]),
                (sys::HTML_OUT, [TAG_SPACE_BUF, TIB, 0]),
            ] {
                match call(&mut r, &mut m, num, &args) {
                    SysResult::Stop(Exit::Fault(Fault::Unmapped {
                        addr: TAG_SPACE_BUF, ..
                    })) => {}
                    other => {
                        panic!("{gran:?} syscall {num}: expected an unmapped fault: {other:?}")
                    }
                }
                let now = (m.mem.resident_pages(), m.mem.owned_pages());
                assert_eq!(now, pages, "{gran:?} syscall {num} touched pages");
            }
            assert!(r.log.is_empty() && r.net_output.is_empty() && r.sql_log.is_empty());
        }
    }

    #[test]
    fn delivery_into_the_unimplemented_hole_faults_like_an_untracked_write() {
        // A buffer 8 bytes below the end of region 1's implemented offsets:
        // a 16-byte message runs into the hole. Whether or not the last
        // page is mapped, the instrumented runtime must fault exactly where
        // an uninstrumented one does and leave the same memory behind
        // (including the partial write before the hole, when mapped).
        let buf = shift_isa::make_vaddr(1, shift_isa::IMPL_MASK - 7);
        let hole = shift_isa::make_vaddr(1, shift_isa::IMPL_MASK) + 1;
        let world = || World::new().net("0123456789abcdef");
        for mapped in [false, true] {
            let (mut m, mut r) = (machine(), rt(world()));
            let (mut um, mut ur) =
                (machine(), Runtime::new(TaintConfig::default_secure(), world(), None));
            if mapped {
                m.mem.map_range(buf & !4095, 4096);
                um.mem.map_range(buf & !4095, 4096);
            }
            let got = call(&mut r, &mut m, sys::NET_READ, &[buf, 64]);
            assert_eq!(got, call(&mut ur, &mut um, sys::NET_READ, &[buf, 64]));
            let want = if mapped {
                Fault::Unimplemented { addr: hole, ip: m.cpu.ip }
            } else {
                Fault::Unmapped { addr: buf, ip: m.cpu.ip }
            };
            assert_eq!(got, SysResult::Stop(Exit::Fault(want)), "mapped: {mapped}");
            assert_eq!(m.mem.digest(), um.mem.digest(), "mapped: {mapped}");
        }
    }

    #[test]
    fn aborted_transaction_rolls_back_file_writes() {
        let mut m = machine();
        let world = World::new().file("log.txt", b"old".to_vec()).net("req0");
        let mut r = rt(world).with_transactions();
        next_request(&mut r, &mut m);
        let (_, rc) = r.checkpoint.as_ref().expect("net_read checkpoints");
        assert!(Arc::ptr_eq(&rc.files, &r.world.files), "a checkpoint shares the filesystem");
        let fd = open(&mut r, &mut m, "new.txt", true);
        write_file(&mut r, &mut m, fd, b"abc");
        let fd = open(&mut r, &mut m, "log.txt", true);
        write_file(&mut r, &mut m, fd, b"+more");
        assert_eq!(r.world_files()["log.txt"], b"old+more");
        assert!(r.recover(&mut m));
        assert!(!r.world_files().contains_key("new.txt"), "writable open must roll back");
        assert_eq!(r.world_files()["log.txt"], b"old", "file write must roll back");
    }

    #[test]
    fn completed_transaction_file_writes_survive_the_next_checkpoint() {
        let mut m = machine();
        let mut r = rt(World::new().net("req0").net("req1")).with_transactions();
        next_request(&mut r, &mut m);
        let fd = open(&mut r, &mut m, "out.txt", true);
        write_file(&mut r, &mut m, fd, b"kept");
        next_request(&mut r, &mut m);
        write_file(&mut r, &mut m, fd, b"+dropped");
        assert!(r.recover(&mut m));
        assert_eq!(r.world_files()["out.txt"], b"kept");
    }

    #[test]
    fn connections_from_one_base_world_never_share_file_writes() {
        let base = World::new().file("shared.txt", b"base".to_vec());
        // Each connection's world is the base plus its requests, built the
        // way `Fleet::serve_one` builds it.
        let (mut ma, mut mb) = (machine(), machine());
        let mut a = rt(base.clone().net("a"));
        let mut b = rt(base.clone().net("b"));
        assert!(Arc::ptr_eq(&a.world.files, &base.files), "connections share the base files");
        let fd = open(&mut a, &mut ma, "shared.txt", true);
        write_file(&mut a, &mut ma, fd, b"+a");
        let fd = open(&mut b, &mut mb, "b-only.txt", true);
        write_file(&mut b, &mut mb, fd, b"b");
        assert_eq!(a.world_files()["shared.txt"], b"base+a");
        assert!(!a.world_files().contains_key("b-only.txt"));
        assert_eq!(b.world_files()["shared.txt"], b"base");
        assert_eq!(*base.files, BTreeMap::from([("shared.txt".to_string(), b"base".to_vec())]));
    }

    #[test]
    fn unknown_syscall_faults() {
        let mut m = machine();
        let mut r = rt(World::new());
        match r.syscall(&mut m, 9999) {
            SysResult::Stop(Exit::Fault(Fault::BadSyscall { num: 9999, .. })) => {}
            other => panic!("expected BadSyscall, got {other:?}"),
        }
    }
}
