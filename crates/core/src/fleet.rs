//! Fleet serving: one compiled program, N parallel guest instances.
//!
//! The paper's headline result is whole-server taint tracking cheap enough
//! for production traffic; this module supplies the horizontal half of that
//! claim. A [`Fleet`] prepares a [`ProgramImage`] once and serves a
//! deterministic request stream partitioned into *connections* — each
//! connection is an ordered list of requests handled by one guest instance
//! spawned fresh from the shared image, with the full per-request
//! transaction/recovery machinery of [`Shift::serve`] active per instance.
//!
//! ## Determinism
//!
//! The connection is the unit of determinism. Every connection is simulated
//! on a pristine spawn of the same image, so its modelled outcome (exit,
//! stats, violations, request latencies) is a pure function of the
//! connection's requests — independent of which host thread runs it, in
//! what order, or how many host threads exist. The fleet aggregate merges
//! per-connection results in connection order with exact integer sums
//! ([`shift_machine::Stats::merge`], [`Registry::merge`]), so the merged
//! numbers are bit-identical for any worker count, and equal to one
//! [`Shift::serve_image`] call per connection, in order.
//!
//! What *does* depend on the worker count `W` is the modelled fleet
//! makespan: the fleet models `W` instances running concurrently, with
//! connection `c` assigned round-robin to instance `c % W`. An instance's
//! busy time is the sum of its connections' modelled total times and the
//! fleet wall-clock is the busiest instance's total — so throughput
//! ([`FleetReport::requests_per_sec`]) scales with `W` deterministically on
//! any host, while every per-connection number stays fixed. Host threads
//! (the shared [`crate::pool`], claiming connections from one cursor) only
//! accelerate the simulation itself.

use std::sync::Arc;

use shift_isa::CLOCK_HZ;
use shift_machine::{Exit, Injection, Stats, Violation};
use shift_obs::{merge_events, merge_samples, Registry, Sample, TraceEvent, TraceKind, TraceRing};

use shift_obs::SCHEDULER_TRACK;

use crate::event::{self, Disposition, OpenLoopConfig, Segment};
use crate::metrics::serve_metrics;
use crate::pool;
use crate::replay::Expected;
use crate::{CompileError, FlightConfig, ProgramImage, ServeReport, Shift, World};

/// A per-connection fault-injection schedule for [`Fleet::serve_chaos`]:
/// entry `c` is the `(countdown, injection)` list armed on connection `c`'s
/// instance before it serves. Shorter than the connection list means the
/// tail serves unperturbed.
pub type FaultPlan = [Vec<(u64, Injection)>];

/// An empty injection schedule, shared by the unperturbed serve paths.
const NO_INJECTIONS: &[(u64, Injection)] = &[];

/// A fleet-serving session: one prepared image plus the session options
/// (mode, policies, I/O model, fuel) every instance inherits.
#[derive(Clone, Debug)]
pub struct Fleet {
    shift: Shift,
    image: Arc<ProgramImage>,
}

/// One connection's outcome, extracted from its instance's [`ServeReport`].
#[derive(Clone, Debug)]
pub struct ConnectionReport {
    /// Index of the connection in the input stream.
    pub connection: usize,
    /// Modelled fleet instance that served it (`connection % workers`).
    pub instance: usize,
    /// How the instance's session ended.
    pub exit: Exit,
    /// Requests delivered to this connection's instance.
    pub requests_delivered: u64,
    /// Requests completed (see [`ServeReport::served`]).
    pub served: u64,
    /// Requests rolled back with service continuing.
    pub recovered: u64,
    /// Requests lost (in flight at a stop, or never delivered).
    pub dropped: u64,
    /// Cycles thrown away by rollbacks.
    pub recovery_cycles: u64,
    /// Modelled total time (CPU + I/O) of the connection's session.
    pub time: u64,
    /// Every violation the instance observed, provenance chains intact.
    pub violations: Vec<Violation>,
    /// The instance's cycle/event accounting.
    pub stats: Stats,
    /// Per-request latencies in modelled cycles.
    pub latencies: Vec<u64>,
    /// The instance's metrics registry (from [`serve_metrics`]).
    pub registry: Registry,
    /// Final machine state digest (differential-test hook).
    pub state_digest: u64,
    /// Pages the instance privately owned when the session ended — its real
    /// memory cost under copy-on-write sharing (DESIGN.md §15); pristine
    /// pages it still shared with the image cost nothing.
    pub owned_pages: usize,
    /// The connection's flight-recorder ring, when the session armed one
    /// ([`Shift::with_flight_recorder`]): its track id is the connection
    /// index, so merged timelines are invariant under the worker width.
    pub trace: Option<TraceRing>,
}

/// Aggregate outcome of one [`Fleet::serve`] call.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Modelled fleet width this run used.
    pub workers: usize,
    /// Per-connection outcomes, in connection order.
    pub connections: Vec<ConnectionReport>,
    /// Merged cycle/event accounting (exact sum over connections).
    pub stats: Stats,
    /// Merged metrics registry (counters sum, histograms merge).
    pub registry: Registry,
    /// All violations in connection order, provenance chains intact.
    pub violations: Vec<Violation>,
    /// Total requests delivered across the fleet.
    pub requests: u64,
    /// Total requests served.
    pub served: u64,
    /// Total requests recovered (rolled back, service continued).
    pub recovered: u64,
    /// Total requests dropped.
    pub dropped: u64,
    /// Total cycles thrown away by rollbacks.
    pub recovery_cycles: u64,
    /// Modelled fleet makespan: the busiest instance's summed connection
    /// times. This is the one aggregate that depends on `workers`.
    pub wall_cycles: u64,
    /// Sum of [`ConnectionReport::owned_pages`] — the fleet's total private
    /// page footprint (shared pristine pages are counted once, in the image,
    /// not here).
    pub owned_pages_total: u64,
    /// The largest [`ConnectionReport::owned_pages`] — the peak private
    /// residency any single instance reached.
    pub peak_owned_pages: u64,
    /// Host nanoseconds spent simulating this call.
    pub host_ns: u64,
}

impl FleetReport {
    /// Modelled fleet throughput: requests served per modelled second at
    /// [`CLOCK_HZ`].
    pub fn requests_per_sec(&self) -> f64 {
        per_second(self.served, self.wall_cycles)
    }

    /// The `p`-th percentile (0–100) of per-request serve latency in
    /// modelled cycles, across every connection.
    pub fn latency_percentile(&self, p: f64) -> Option<u64> {
        self.registry.histogram("serve.latency_cycles").and_then(|h| h.percentile(p))
    }

    /// Exit of every connection, in connection order.
    pub fn exits(&self) -> Vec<Exit> {
        self.connections.iter().map(|c| c.exit.clone()).collect()
    }

    /// The fleet's merged trace timeline, ordered by `(cycle, worker, seq)`
    /// — bit-identical at any worker width (see [`shift_obs::trace`]).
    /// Empty when the flight recorder was not armed.
    pub fn merged_trace_events(&self) -> Vec<TraceEvent> {
        merge_events(&self.rings())
    }

    /// The fleet's merged time-series samples, ordered by `(cycle, worker)`.
    pub fn merged_samples(&self) -> Vec<Sample> {
        merge_samples(&self.rings())
    }

    /// Total trace events dropped to ring caps across the fleet.
    pub fn trace_dropped(&self) -> u64 {
        self.rings().into_iter().map(TraceRing::dropped).sum()
    }

    /// Every armed flight-recorder ring, in connection order.
    fn rings(&self) -> Vec<&TraceRing> {
        self.connections.iter().filter_map(|c| c.trace.as_ref()).collect()
    }

    /// `true` when no connection lost a request.
    pub fn nothing_dropped(&self) -> bool {
        self.dropped == 0
    }

    /// Mean private bytes per instance: the copy-on-write memory diet
    /// figure (`owned_pages × page size`, averaged over connections). The
    /// deep-clone baseline this replaced paid
    /// `image.resident_pages() × page size` per instance *up front*.
    pub fn private_bytes_per_instance(&self) -> f64 {
        if self.connections.is_empty() {
            return 0.0;
        }
        self.owned_pages_total as f64 * shift_machine::PAGE_SIZE as f64
            / self.connections.len() as f64
    }
}

impl Shift {
    /// Compiles `app` once and returns a fleet handle for parallel serving.
    ///
    /// # Errors
    ///
    /// [`CompileError`] on invalid IR or unresolved symbols.
    pub fn fleet(&self, app: &shift_ir::Program) -> Result<Fleet, CompileError> {
        Ok(Fleet { shift: self.clone(), image: Arc::new(self.image(app)?) })
    }
}

impl Fleet {
    /// Builds a fleet from an existing session and prepared image.
    pub fn from_image(shift: Shift, image: ProgramImage) -> Fleet {
        Fleet { shift, image: Arc::new(image) }
    }

    /// The shared program image instances spawn from.
    pub fn image(&self) -> &Arc<ProgramImage> {
        &self.image
    }

    /// The session options (mode, policies, I/O model, fuel) every instance
    /// inherits.
    pub fn shift(&self) -> &Shift {
        &self.shift
    }

    /// Arms the flight recorder on every instance this fleet serves: each
    /// connection's [`ConnectionReport::trace`] comes back populated, and
    /// [`FleetReport::merged_trace_events`] yields the fleet-wide timeline.
    pub fn with_flight_recorder(mut self, cfg: FlightConfig) -> Fleet {
        self.shift = self.shift.with_flight_recorder(cfg);
        self
    }

    /// Serves `connections` — each an ordered request list handled by a
    /// fresh instance — across a modelled fleet of `workers` instances.
    /// `base` supplies the files/args/kbd every connection's world starts
    /// from; each connection's network queue is its own request list, so
    /// per-connection request ordering is preserved by construction.
    ///
    /// Host-side, [`pool::host_threads`] threads of the shared
    /// [`crate::pool`] claim connections one at a time, whatever the
    /// modelled width; results land in connection order regardless of which
    /// thread computed them.
    pub fn serve(&self, base: &World, connections: &[Vec<Vec<u8>>], workers: usize) -> FleetReport {
        self.serve_chaos(base, connections, &[], workers)
    }

    /// [`Fleet::serve`] with a fault-injection schedule: connection `c`'s
    /// instance spawns with `faults[c]` pre-armed, so randomized NaT flips,
    /// tag-bitmap corruption, and transient faults land mid-serve across the
    /// fleet — deterministically, because the schedule counts retired
    /// instructions, not host time. An empty plan is exactly [`Fleet::serve`]
    /// (the zero-perturbation tests pin this).
    pub fn serve_chaos(
        &self,
        base: &World,
        connections: &[Vec<Vec<u8>>],
        faults: &FaultPlan,
        workers: usize,
    ) -> FleetReport {
        self.serve_closed(base, connections, faults, workers, pool::host_threads())
    }

    /// The reference path: serves every connection in order on this thread.
    /// Produces the identical aggregate to [`Fleet::serve`] with the same
    /// `workers` width (the differential tests enforce this).
    pub fn serve_sequential(
        &self,
        base: &World,
        connections: &[Vec<Vec<u8>>],
        workers: usize,
    ) -> FleetReport {
        self.serve_closed(base, connections, &[], workers, 1)
    }

    /// The closed loop behind [`Fleet::serve_chaos`] and
    /// [`Fleet::serve_sequential`]: every connection on a modelled fleet of
    /// `workers` instances, simulated on `host_workers` host threads.
    fn serve_closed(
        &self,
        base: &World,
        connections: &[Vec<Vec<u8>>],
        faults: &FaultPlan,
        workers: usize,
        host_workers: usize,
    ) -> FleetReport {
        let start = std::time::Instant::now();
        let width = workers.max(1);
        let reports = pool::map(connections.len(), host_workers, |c| {
            let inj = faults.get(c).map_or(NO_INJECTIONS, Vec::as_slice);
            self.serve_one(base, &connections[c], inj, c, width)
        });
        Self::aggregate(width, reports, start.elapsed().as_nanos() as u64)
    }

    /// Simulates one connection on a pristine instance, with an optional
    /// fault-injection schedule armed on the spawn. Pure in its inputs: the
    /// result is identical no matter when or where it runs — this is the
    /// primitive the replay log drives to reconstruct any single connection
    /// from a recorded fleet run.
    pub fn serve_one(
        &self,
        base: &World,
        requests: &[Vec<u8>],
        injections: &[(u64, Injection)],
        c: usize,
        width: usize,
    ) -> ConnectionReport {
        self.serve_one_traced(base, requests, injections, c, width).0
    }

    /// [`Fleet::serve_one`] plus the connection's [`Segment`] trace — the
    /// `(cpu, io)` legs the open-loop event loop schedules. The runtime's
    /// leg log closes a leg at every syscall that charged I/O wait; the
    /// terminal leg is whatever ran after the last one (including any I/O
    /// charged by recovery redeliveries, which close no leg). The legs
    /// partition the session's `cycles` and `io_cycles` by construction,
    /// and the report is the same run's.
    pub fn serve_one_traced(
        &self,
        base: &World,
        requests: &[Vec<u8>],
        injections: &[(u64, Injection)],
        c: usize,
        width: usize,
    ) -> (ConnectionReport, Vec<Segment>) {
        let world = requests.iter().fold(base.clone(), |w, msg| w.net(msg.clone()));
        let report = self.shift.serve_image(&self.image, world, injections);
        let totals = (report.stats.cycles, report.stats.io_cycles);
        let mut seen = (0, 0);
        let segments = (report.runtime.leg_ends().iter().copied().chain([totals]))
            .map(|(cpu, io)| {
                let leg = Segment { cpu: cpu - seen.0, io: io - seen.1 };
                seen = (cpu, io);
                leg
            })
            .collect();
        (self.connection_report(report, c, width), segments)
    }

    /// Extracts a [`ConnectionReport`] from a finished session (the shared
    /// tail of [`Fleet::serve_one`] and [`Fleet::serve_one_traced`]).
    fn connection_report(
        &self,
        mut report: ServeReport,
        c: usize,
        width: usize,
    ) -> ConnectionReport {
        // Track id = connection index (NOT the modelled instance, which
        // varies with the fleet width): the merged timeline must be
        // width-invariant. The whole session becomes one wrapping span.
        let session = report.stats.total_time();
        if let Some(ring) = report.machine.flight_recorder_mut() {
            ring.set_worker(c as u64);
            ring.span(0, session, TraceKind::Connection { connection: c as u64 });
        }
        // Metrics after the session span and before the recorder is detached,
        // so the `obs.trace.*` series count exactly the events exported.
        let registry = serve_metrics(&report);
        let ServeReport {
            exit,
            served,
            recovered,
            dropped,
            recovery_cycles,
            violations,
            stats,
            runtime,
            mut machine,
        } = report;
        let trace = machine.take_flight_recorder();
        let owned_pages = machine.mem.owned_pages();
        ConnectionReport {
            connection: c,
            instance: c % width,
            exit,
            requests_delivered: runtime.requests_delivered,
            served,
            recovered,
            dropped,
            recovery_cycles,
            time: stats.total_time(),
            violations,
            latencies: runtime.request_latencies.clone(),
            registry,
            state_digest: machine.state_digest(),
            stats,
            trace,
            owned_pages,
        }
    }

    /// Serves an open-loop workload: `connections[c]` arrives at modelled
    /// cycle `arrivals[c]` and is multiplexed over `cfg.workers` modelled
    /// workers by the discrete-event scheduler (see [`crate::event`]),
    /// with admission control (`cfg.accept_cap`, `cfg.max_resident`) and
    /// round-robin fairness (`cfg.quantum`).
    ///
    /// Host-side, `host_workers` threads pre-simulate connection traces in
    /// parallel (phase 1); the event loop itself is sequential (phase 2).
    /// The report is bit-identical at any `host_workers` — only
    /// [`OpenLoopReport::host_ns`] varies — and host memory is bounded by
    /// the pool: at most `host_workers` machines are resident at once, so
    /// peak owned pages grows with resident guests, not total connections.
    ///
    /// # Panics
    ///
    /// When `connections` and `arrivals` disagree on the connection count.
    pub fn serve_open_loop(
        &self,
        base: &World,
        connections: &[Vec<Vec<u8>>],
        faults: &FaultPlan,
        arrivals: &[u64],
        cfg: &OpenLoopConfig,
        host_workers: usize,
    ) -> OpenLoopReport {
        assert_eq!(connections.len(), arrivals.len(), "one arrival cycle per connection");
        let start = std::time::Instant::now();
        let n = connections.len();
        let width = cfg.workers.max(1);
        // Phase 1: parallel trace capture over the bounded host pool.
        let (reports, traces): (Vec<ConnectionReport>, Vec<Vec<Segment>>) =
            pool::map(n, host_workers, |c| {
                let inj = faults.get(c).map_or(NO_INJECTIONS, Vec::as_slice);
                self.serve_one_traced(base, &connections[c], inj, c, width)
            })
            .into_iter()
            .unzip();
        // Phase 2: the sequential event loop.
        let trace_on = self.shift.flight().is_some();
        let des = event::simulate(arrivals, &traces, cfg, trace_on);
        // Phase 3: join scheduler dispositions with serve results. Merges
        // run in connection order over *admitted* connections only — shed
        // connections never ran in the model, so their pre-simulated
        // results are discarded.
        let mut merged = Merge::default();
        let mut rows: Vec<OpenConnection> = Vec::with_capacity(n);
        let mut sojourns: Vec<u64> = Vec::new();
        for (c, (mut report, disposition)) in
            reports.into_iter().zip(des.dispositions.iter().copied()).enumerate()
        {
            match disposition {
                Disposition::Shed => rows.push(OpenConnection {
                    connection: c,
                    disposition,
                    sojourn: None,
                    exit: None,
                    state_digest: None,
                    served: 0,
                    trace: None,
                    outcome: None,
                }),
                Disposition::Done { started, finished, slot, .. } => {
                    let outcome = Expected::of(&report);
                    let sojourn = finished - arrivals[c];
                    sojourns.push(sojourn);
                    merged.add(&report);
                    if let Some(ring) = report.trace.as_mut() {
                        // Dense resident-slot track id plus the connection's
                        // first scheduled cycle: bounded Perfetto tracks at
                        // 16k connections (DESIGN.md §16).
                        ring.set_worker(slot);
                        ring.offset_cycles(started);
                    }
                    rows.push(OpenConnection {
                        connection: c,
                        disposition,
                        sojourn: Some(sojourn),
                        exit: Some(report.exit.clone()),
                        state_digest: Some(report.state_digest),
                        served: report.served,
                        trace: report.trace.take(),
                        outcome: Some(outcome),
                    });
                }
            }
        }
        sojourns.sort_unstable();
        let registry = &mut merged.registry;
        for &s in &sojourns {
            registry.record("openloop.sojourn_cycles", s);
        }
        registry.counter_add("openloop.offered", n as u64);
        registry.counter_add("openloop.completed", sojourns.len() as u64);
        registry.counter_add("openloop.shed", des.shed);
        registry.counter_add("openloop.peak_queue_depth", des.peak_queue_depth);
        registry.counter_add("openloop.peak_resident", des.peak_resident);
        // The scheduler's shared track: admissions, sheds, parks, and the
        // queue-depth series (rate-limited by the sampling interval).
        let scheduler_trace = self.shift.flight().map(|fc| {
            let mut ring = TraceRing::with_capacity(fc.cap);
            ring.set_worker(SCHEDULER_TRACK);
            let every = fc.sample_cycles;
            let mut next_depth_at = 0u64;
            for (cycle, kind) in des.sched_events {
                if matches!(kind, TraceKind::QueueDepth { .. }) {
                    if every > 0 && cycle < next_depth_at {
                        continue;
                    }
                    next_depth_at = cycle.saturating_add(every);
                }
                ring.instant(cycle, kind);
            }
            ring
        });
        OpenLoopReport {
            config: *cfg,
            offered: n as u64,
            completed: sojourns.len() as u64,
            shed: des.shed,
            requests: merged.requests,
            served: merged.served,
            recovered: merged.recovered,
            dropped: merged.dropped,
            wall_cycles: des.wall_cycles,
            busy_cycles: des.busy_cycles,
            peak_queue_depth: des.peak_queue_depth,
            peak_resident: des.peak_resident,
            sojourns,
            connections: rows,
            stats: merged.stats,
            registry: merged.registry,
            violations: merged.violations,
            owned_pages_total: merged.owned_pages_total,
            peak_owned_pages: merged.peak_owned_pages,
            scheduler_trace,
            host_ns: start.elapsed().as_nanos() as u64,
        }
    }

    /// Merges per-connection reports in connection order. Every sum is an
    /// exact `u64` add, so the result is independent of how the work was
    /// scheduled.
    fn aggregate(width: usize, reports: Vec<ConnectionReport>, host_ns: u64) -> FleetReport {
        let mut merged = Merge::default();
        let mut recovery_cycles = 0u64;
        let mut instance_busy = vec![0u64; width];
        for r in &reports {
            merged.add(r);
            recovery_cycles += r.recovery_cycles;
            instance_busy[r.instance] += r.time;
        }
        FleetReport {
            workers: width,
            connections: reports,
            stats: merged.stats,
            registry: merged.registry,
            violations: merged.violations,
            requests: merged.requests,
            served: merged.served,
            recovered: merged.recovered,
            dropped: merged.dropped,
            recovery_cycles,
            wall_cycles: instance_busy.into_iter().max().unwrap_or(0),
            owned_pages_total: merged.owned_pages_total,
            peak_owned_pages: merged.peak_owned_pages,
            host_ns,
        }
    }
}

/// `count` events per modelled second at [`CLOCK_HZ`] over a `wall_cycles`
/// makespan; 0 when nothing ran.
fn per_second(count: u64, wall_cycles: u64) -> f64 {
    if wall_cycles == 0 {
        return 0.0;
    }
    count as f64 * CLOCK_HZ as f64 / wall_cycles as f64
}

/// The connection merge both serving loops share: exact `u64` sums and
/// order-preserving concatenations, fed in connection order, so the result
/// is independent of how the work was scheduled.
#[derive(Default)]
struct Merge {
    stats: Stats,
    registry: Registry,
    violations: Vec<Violation>,
    requests: u64,
    served: u64,
    recovered: u64,
    dropped: u64,
    owned_pages_total: u64,
    peak_owned_pages: u64,
}

impl Merge {
    /// Folds one connection's outcome into the aggregate.
    fn add(&mut self, r: &ConnectionReport) {
        self.stats.merge(&r.stats);
        self.registry.merge(&r.registry);
        self.violations.extend(r.violations.iter().cloned());
        self.requests += r.requests_delivered;
        self.served += r.served;
        self.recovered += r.recovered;
        self.dropped += r.dropped;
        self.owned_pages_total += r.owned_pages as u64;
        self.peak_owned_pages = self.peak_owned_pages.max(r.owned_pages as u64);
    }
}

/// One connection's row in an [`OpenLoopReport`]: the scheduler disposition
/// joined with the serve outcome. Shed connections never ran in the model,
/// so their serve fields are `None`.
#[derive(Clone, Debug)]
pub struct OpenConnection {
    /// Index of the connection in the offered stream.
    pub connection: usize,
    /// What the scheduler did with it.
    pub disposition: Disposition,
    /// Sojourn latency in modelled cycles (completion − arrival), `None`
    /// when shed.
    pub sojourn: Option<u64>,
    /// How the connection's session ended, `None` when shed.
    pub exit: Option<Exit>,
    /// Final machine state digest, `None` when shed.
    pub state_digest: Option<u64>,
    /// Requests served on this connection (0 when shed).
    pub served: u64,
    /// The connection's flight-recorder ring, restamped onto its dense
    /// resident-slot track and offset to its first scheduled cycle.
    pub trace: Option<TraceRing>,
    /// The connection's replayable expectation (exit signature, digest,
    /// exact counters), `None` when shed. [`crate::ReplayLog::capture_open_loop`]
    /// copies this into the log so a replay of the connection through
    /// [`Fleet::serve_one`] — the same straight-through run the trace
    /// capture made — can verify against it.
    pub outcome: Option<Expected>,
}

/// Aggregate outcome of one [`Fleet::serve_open_loop`] call. Everything
/// except [`OpenLoopReport::host_ns`] is bit-identical at any host worker
/// count.
#[derive(Clone, Debug)]
pub struct OpenLoopReport {
    /// The scheduling parameters this run used.
    pub config: OpenLoopConfig,
    /// Connections offered (arrivals generated).
    pub offered: u64,
    /// Connections admitted and completed (all admitted complete).
    pub completed: u64,
    /// Connections shed by admission control — nonzero means the offered
    /// load exceeded what `workers` could absorb: the saturation signal.
    pub shed: u64,
    /// Requests delivered across completed connections.
    pub requests: u64,
    /// Requests served across completed connections.
    pub served: u64,
    /// Requests recovered (rolled back, service continued).
    pub recovered: u64,
    /// Requests dropped inside connections.
    pub dropped: u64,
    /// Modelled makespan: cycle of the last scheduler event.
    pub wall_cycles: u64,
    /// Worker-busy integral (sum of executed cpu slices).
    pub busy_cycles: u64,
    /// Largest ready + accept queue depth observed.
    pub peak_queue_depth: u64,
    /// Largest resident-guest count observed (≤ `config.max_resident`).
    pub peak_resident: u64,
    /// Sojourn latencies of completed connections, sorted ascending —
    /// exact percentiles come from here, not the log2 histogram.
    pub sojourns: Vec<u64>,
    /// Per-connection rows, in connection order.
    pub connections: Vec<OpenConnection>,
    /// Merged cycle/event accounting over completed connections.
    pub stats: Stats,
    /// Merged metrics registry, plus the `openloop.*` series.
    pub registry: Registry,
    /// All violations in connection order.
    pub violations: Vec<Violation>,
    /// Sum of completed connections' owned pages.
    pub owned_pages_total: u64,
    /// Largest single-instance owned-page count — bounded by the guest's
    /// working set, not the connection count.
    pub peak_owned_pages: u64,
    /// The scheduler's shared trace track (admissions, sheds, parks,
    /// queue depths), when the flight recorder was armed.
    pub scheduler_trace: Option<TraceRing>,
    /// Host nanoseconds spent simulating this call (the only
    /// width-dependent field).
    pub host_ns: u64,
}

impl OpenLoopReport {
    /// Exact nearest-rank percentile (0–100) of sojourn latency in modelled
    /// cycles. `None` when nothing completed.
    pub fn sojourn_percentile(&self, p: f64) -> Option<u64> {
        if self.sojourns.is_empty() {
            return None;
        }
        let rank = ((p / 100.0) * self.sojourns.len() as f64).ceil() as usize;
        Some(self.sojourns[rank.clamp(1, self.sojourns.len()) - 1])
    }

    /// Largest sojourn latency observed.
    pub fn sojourn_max(&self) -> Option<u64> {
        self.sojourns.last().copied()
    }

    /// Requests served per modelled second at [`CLOCK_HZ`].
    pub fn requests_per_sec(&self) -> f64 {
        per_second(self.served, self.wall_cycles)
    }

    /// Connections completed per modelled second at [`CLOCK_HZ`].
    pub fn completions_per_sec(&self) -> f64 {
        per_second(self.completed, self.wall_cycles)
    }

    /// Modelled worker utilization: busy cycles over `wall × workers`.
    pub fn utilization(&self) -> f64 {
        let denom = self.wall_cycles.saturating_mul(self.config.workers.max(1) as u64);
        if denom == 0 {
            return 0.0;
        }
        self.busy_cycles as f64 / denom as f64
    }

    /// `true` when admission control shed load: the offered rate exceeded
    /// the saturation throughput of this configuration.
    pub fn saturated(&self) -> bool {
        self.shed > 0
    }

    /// The merged open-loop timeline: every completed connection's ring
    /// (on its dense slot track) plus the scheduler's shared track, ordered
    /// by `(cycle, worker, seq)`.
    pub fn merged_trace_events(&self) -> Vec<TraceEvent> {
        merge_events(&self.rings())
    }

    /// The merged open-loop time-series samples, ordered by
    /// `(cycle, worker)`.
    pub fn merged_samples(&self) -> Vec<Sample> {
        merge_samples(&self.rings())
    }

    /// Every completed connection's ring, then the scheduler's track.
    fn rings(&self) -> Vec<&TraceRing> {
        let connections = self.connections.iter().filter_map(|c| c.trace.as_ref());
        connections.chain(&self.scheduler_trace).collect()
    }
}
