//! The outside-in tracer: spans recorded by the benchmark around its calls
//! into each layer's public functions. Nothing inside the simulator is
//! instrumented.
//!
//! A span opens before a call into a layer and closes after it; spans nest
//! (a syscall span closes inside the `machine.run` span whose guest
//! trapped), and a span's *self time* is its duration minus the durations
//! of its direct children. Self times are accumulated as spans close, so
//! the capped span buffer written out at exit never loses time, and
//! per-layer self times plus the unattributed remainder add up to the
//! traced wall time exactly.

use std::io::Write as _;
use std::time::Instant;

use shift_core::Runtime;
use shift_isa::sys;
use shift_machine::{Machine, Os, SysResult};

/// The layer a span is charged to, named after the repository's modules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// `Shift::compile`: lower, allocate, instrument, link against libc.
    Compile,
    /// Image load and freeze (`ProgramImage::new`, `Machine::new`).
    Load,
    /// `ProgramImage::spawn`: a copy-on-write instance of a frozen image.
    Spawn,
    /// `Machine::run`, minus the syscalls its guest traps into.
    Run,
    /// `Runtime::syscall(FILE_READ)`.
    FileRead,
    /// `Runtime::syscall(NET_READ | NET_WRITE)`.
    NetIo,
    /// Every other `Runtime::syscall`.
    OtherSyscall,
    /// `Runtime::recover`, and syscalls whose policy check rolled the
    /// transaction back inline.
    Recover,
    /// `Machine::state_digest`.
    Digest,
    /// `metrics::serve_metrics`: a connection's registry.
    Report,
    /// `Fleet::serve_one_traced`: open-loop phase 1.
    Capture,
    /// `event::simulate`: open-loop phase 2.
    Simulate,
    /// Open-loop phase 3, minus its registry merges.
    Merge,
    /// `Registry::merge`.
    RegistryMerge,
    /// `Registry::to_prometheus` and `Registry::to_json`.
    Export,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = 15;

    /// Every layer, in declaration order.
    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::Compile,
        Layer::Load,
        Layer::Spawn,
        Layer::Run,
        Layer::FileRead,
        Layer::NetIo,
        Layer::OtherSyscall,
        Layer::Recover,
        Layer::Digest,
        Layer::Report,
        Layer::Capture,
        Layer::Simulate,
        Layer::Merge,
        Layer::RegistryMerge,
        Layer::Export,
    ];

    /// The metric-name stem of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Compile => "compiler.compile",
            Layer::Load => "machine.load",
            Layer::Spawn => "machine.spawn",
            Layer::Run => "machine.run",
            Layer::FileRead => "runtime.file_read",
            Layer::NetIo => "runtime.net_io",
            Layer::OtherSyscall => "runtime.other_syscall",
            Layer::Recover => "runtime.recover",
            Layer::Digest => "machine.digest",
            Layer::Report => "fleet.report",
            Layer::Capture => "openloop.capture",
            Layer::Simulate => "event.simulate",
            Layer::Merge => "openloop.merge",
            Layer::RegistryMerge => "obs.registry_merge",
            Layer::Export => "obs.export",
        }
    }

    /// Whether the layer is a call into `Runtime::syscall`.
    pub fn is_syscall(self) -> bool {
        matches!(self, Layer::FileRead | Layer::NetIo | Layer::OtherSyscall | Layer::Recover)
    }
}

/// Event counts recorded at the same boundaries as the spans.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Count {
    /// Guest instructions retired.
    Insns,
    /// `Runtime::syscall` calls.
    Syscalls,
    /// `FILE_READ` syscalls.
    FileReads,
    /// Transactions rolled back (`Runtime::recoveries`).
    Recoveries,
    /// Policy violations recorded.
    Violations,
    /// Programs compiled.
    Programs,
    /// Instructions in compiled images.
    InsnsEmitted,
    /// Instances spawned from a frozen image.
    Spawns,
    /// Copy-on-write page faults taken by instances.
    CowFaults,
    /// Open-loop execution segments scheduled by the event loop.
    Segments,
    /// Superblocks entered on the block-dispatch tier.
    BlockHits,
    /// Instructions stepped on the per-instruction fallback tier.
    BlockMisses,
    /// Software-TLB hits.
    TlbHits,
    /// Software-TLB misses.
    TlbMisses,
    /// Open-loop connections offered.
    Offered,
    /// Open-loop connections shed.
    Shed,
}

impl Count {
    /// Number of counters.
    pub const COUNT: usize = 16;
}

/// Parent id of a top-level span.
const NO_PARENT: u32 = u32::MAX;

/// Spans kept per run for the exit-time dump; later spans are only counted.
const SPAN_CAP: usize = 1 << 20;

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    id: u32,
    parent: u32,
    op: u32,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct Open {
    id: u32,
    start_ns: u64,
    child_ns: u64,
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    op: u32,
    next_id: u32,
    stack: Vec<Open>,
    self_ns: [u64; Layer::COUNT],
    counts: [u64; Count::COUNT],
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    fn new(epoch: Instant, first_id: u32) -> Tracer {
        Tracer {
            epoch,
            op: 0,
            next_id: first_id,
            stack: Vec::new(),
            self_ns: [0; Layer::COUNT],
            counts: [0; Count::COUNT],
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A tracer whose spans nobody reads (the untraced setup passes).
    pub fn detached() -> Tracer {
        Tracer::new(Instant::now(), 0)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags the spans that follow with operation `op` (a kernel run or a
    /// connection): spans of one operation share it.
    pub fn set_op(&mut self, op: usize) {
        self.op = op as u32;
    }

    /// Opens a span; [`Tracer::close`] picks its layer.
    pub fn open(&mut self) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let start_ns = self.now_ns();
        self.stack.push(Open { id, start_ns, child_ns: 0 });
    }

    /// Closes the innermost open span and charges its self time to `layer`.
    pub fn close(&mut self, layer: Layer) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("every close matches an open span");
        let dur = end_ns - open.start_ns;
        self.self_ns[layer as usize] += dur.saturating_sub(open.child_ns);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => NO_PARENT,
        };
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                id: open.id,
                parent,
                op: self.op,
                layer,
                start_ns: open.start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Runs `f` inside a span charged to `layer`.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.open();
        let r = f(self);
        self.close(layer);
        r
    }

    /// Adds `n` to counter `c`.
    pub fn count(&mut self, c: Count, n: u64) {
        self.counts[c as usize] += n;
    }

    /// Records a finished machine's retired instructions and its host-side
    /// dispatch, TLB and copy-on-write counters.
    pub fn count_machine(&mut self, machine: &Machine) {
        let blocks = machine.superblock_stats();
        let (tlb_hits, tlb_misses) = machine.mem.tlb_stats();
        self.count(Count::Insns, machine.stats.instructions);
        self.count(Count::BlockHits, blocks.hits);
        self.count(Count::BlockMisses, blocks.misses);
        self.count(Count::TlbHits, tlb_hits);
        self.count(Count::TlbMisses, tlb_misses);
        self.count(Count::CowFaults, machine.mem.cow_faults());
    }
}

/// The timing [`Os`] adapter: forwards each syscall to the wrapped
/// [`Runtime`] inside a span charged by syscall number. A syscall that
/// rolled its transaction back (a policy violation disposed by
/// `AbortTransaction`) is charged to [`Layer::Recover`] instead.
pub struct TimedOs<'a> {
    /// The runtime that handles the syscalls.
    pub runtime: &'a mut Runtime,
    /// Where the spans go.
    pub tracer: &'a mut Tracer,
}

impl Os for TimedOs<'_> {
    fn syscall(&mut self, machine: &mut Machine, num: u32) -> SysResult {
        let recoveries = self.runtime.recoveries;
        self.tracer.open();
        let out = self.runtime.syscall(machine, num);
        let layer = if self.runtime.recoveries != recoveries {
            Layer::Recover
        } else {
            match num {
                sys::FILE_READ => Layer::FileRead,
                sys::NET_READ | sys::NET_WRITE => Layer::NetIo,
                _ => Layer::OtherSyscall,
            }
        };
        self.tracer.close(layer);
        self.tracer.count(Count::Syscalls, 1);
        if num == sys::FILE_READ {
            self.tracer.count(Count::FileReads, 1);
        }
        out
    }
}

/// Per-phase totals of a traced run.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// Self seconds per layer.
    pub self_s: [f64; Layer::COUNT],
    /// Event counts.
    pub counts: [u64; Count::COUNT],
    /// Wall seconds of the phase's passes.
    pub wall_s: f64,
    /// Passes run (setup passes or rounds).
    pub passes: u64,
}

impl Totals {
    /// Mean self seconds of `layer` per pass.
    pub fn self_per_pass(&self, layer: Layer) -> f64 {
        self.self_s[layer as usize] / self.passes.max(1) as f64
    }

    /// Mean count per pass (exact when every pass does the same work).
    pub fn count_per_pass(&self, c: Count) -> f64 {
        self.counts[c as usize] as f64 / self.passes.max(1) as f64
    }

    /// Wall seconds not inside any layer span.
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s - self.self_s.iter().sum::<f64>()
    }
}

/// The phases of a traced run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Compiling and freezing the guests.
    Setup,
    /// The timed batches.
    Rounds,
}

/// A traced run: per-phase totals, and every recorded span kept for the
/// exit-time dump.
#[derive(Debug)]
pub struct TraceRun {
    epoch: Instant,
    next_id: u32,
    /// Totals of the setup passes.
    pub setup: Totals,
    /// Totals of the traced rounds.
    pub rounds: Totals,
    spans: Vec<Span>,
    dropped: u64,
}

impl TraceRun {
    /// An empty run whose span clock starts now.
    pub fn new() -> TraceRun {
        TraceRun {
            epoch: Instant::now(),
            next_id: 0,
            setup: Totals::default(),
            rounds: Totals::default(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Runs one pass of `phase` under a fresh tracer and adds its wall
    /// time, self times, counts and spans to that phase.
    pub fn pass<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let mut tracer = Tracer::new(self.epoch, self.next_id);
        let t0 = Instant::now();
        let r = f(&mut tracer);
        let wall_s = t0.elapsed().as_secs_f64();
        assert!(tracer.stack.is_empty(), "a span was left open");
        self.next_id = tracer.next_id;
        let totals = match phase {
            Phase::Setup => &mut self.setup,
            Phase::Rounds => &mut self.rounds,
        };
        totals.wall_s += wall_s;
        totals.passes += 1;
        for (l, &ns) in tracer.self_ns.iter().enumerate() {
            totals.self_s[l] += ns as f64 * 1e-9;
        }
        for (c, &n) in tracer.counts.iter().enumerate() {
            totals.counts[c] += n;
        }
        let keep = tracer.spans.len().min(SPAN_CAP.saturating_sub(self.spans.len()));
        self.dropped += tracer.dropped + (tracer.spans.len() - keep) as u64;
        self.spans.extend_from_slice(&tracer.spans[..keep]);
        r
    }

    /// Writes every kept span as tab-separated text, start-ordered, with a
    /// header line. Times are nanoseconds from the run's start.
    pub fn write_spans(&mut self, path: &std::path::Path) -> std::io::Result<usize> {
        self.spans.sort_by_key(|s| (s.start_ns, s.id));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# spans dropped past the cap: {}", self.dropped)?;
        writeln!(out, "id\tparent\top\tlayer\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT { "-".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                parent,
                s.op,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()?;
        Ok(self.spans.len())
    }
}
