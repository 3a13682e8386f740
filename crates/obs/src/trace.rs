//! Deterministic flight recorder: bounded span/instant rings with a
//! width-invariant merge and dep-free Perfetto/Chrome export.
//!
//! Every layer of the serving stack emits [`TraceEvent`]s into a per-worker
//! [`TraceRing`]: the machine records injection firings, the runtime
//! records checkpoints, recoveries, violations, request windows and syscall
//! I/O, and the fleet wraps each connection in a lifetime span. Events are
//! stamped with *modelled* cycle time plus an emission sequence number;
//! host wall-clock nanoseconds ride along for profiling but are excluded
//! from the deterministic contract.
//!
//! The contract mirrors [`crate::Registry::merge`]: merging per-worker rings
//! by `(cycle, worker, seq)` yields a timeline that is bit-identical at any
//! worker width, because each ring's contents are a pure function of its
//! connection's inputs and the sort key is total over distinct events. The
//! fleet width test pins this with [`timeline_digest`], which deliberately
//! skips `host_ns`.
//!
//! Recording is zero-perturbation by construction: hooks only *read*
//! modelled state and append to a host-side ring, and none of them sit on
//! the per-instruction path — events originate at syscall boundaries,
//! injection firings, and recovery points, so the superblock dispatch tier
//! stays armed while recording (see DESIGN.md §14).

use std::collections::VecDeque;
use std::time::Instant;

use crate::json::Json;

/// Default event capacity of a [`TraceRing`].
pub const DEFAULT_TRACE_CAP: usize = 4096;

/// Modelled cycles per microsecond at the simulated 1.5 GHz clock
/// (`shift_core::CLOCK_HZ`); converts cycle stamps to the microsecond
/// timestamps the Chrome `trace_event` format expects.
pub const CYCLES_PER_US: f64 = 1500.0;

/// What one trace event records.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceKind {
    /// A whole connection's serve session (span over its modelled lifetime).
    Connection {
        /// Index of the connection in the fleet's input stream.
        connection: u64,
    },
    /// One request's serve window (span from delivery to the next
    /// `net_read` or session end).
    Request {
        /// Zero-based index of the request within its connection.
        index: u64,
    },
    /// A per-request transaction checkpoint was taken (instant).
    Checkpoint,
    /// A rollback to the last checkpoint (instant).
    Recovery {
        /// CPU cycles the rollback threw away.
        recovered_cycles: u64,
    },
    /// A policy violation was recorded (instant).
    Violation {
        /// The tripped policy (`"H3"`, `"L1"`, `"GUARD"`, …).
        policy: String,
        /// The configured violation action applied to it
        /// (`"terminate"`, `"log_and_continue"`, `"abort_transaction"`).
        action: String,
    },
    /// A syscall's I/O leg completed (instant).
    SyscallIo {
        /// Syscall name (`"net_read"`, `"file_open"`, …).
        name: &'static str,
        /// Bytes moved (0 for pure control operations).
        bytes: u64,
    },
    /// A scheduled fault injection fired (instant).
    InjectionFired {
        /// Injection flavour (`"flip_nat"`, `"corrupt_byte"`, `"fault"`).
        what: &'static str,
    },
    /// The open-loop scheduler admitted a connection onto a resident slot
    /// (instant, on [`SCHEDULER_TRACK`]).
    Admitted {
        /// Index of the admitted connection.
        connection: u64,
        /// Dense resident-slot (and track) id it was assigned.
        slot: u64,
    },
    /// Admission control turned a connection away: accept queue full at
    /// residency cap (instant, on [`SCHEDULER_TRACK`]).
    Shed {
        /// Index of the shed connection.
        connection: u64,
    },
    /// A connection parked at an I/O point; idle guests share the scheduler
    /// track instead of exploding the track list at 16k connections
    /// (instant, on [`SCHEDULER_TRACK`]).
    Parked {
        /// Index of the parked connection.
        connection: u64,
        /// Modelled cycle its I/O completes and it becomes runnable again.
        wake: u64,
    },
    /// Run-queue depth sample from the open-loop scheduler (instant, on
    /// [`SCHEDULER_TRACK`]; recorded on change, rate-limited by the
    /// sampling interval).
    QueueDepth {
        /// Connections waiting for a worker (ready + accept queue).
        depth: u64,
        /// Connections currently admitted (holding a resident slot).
        resident: u64,
    },
}

/// The shared track id for open-loop scheduler events (admissions, sheds,
/// parks, queue-depth samples). Resident guests get dense slot-indexed
/// tracks `0..max_resident`; everything idle or administrative shares this
/// one, keeping the Perfetto track list bounded by the residency cap rather
/// than the connection count.
pub const SCHEDULER_TRACK: u64 = u64::MAX;

impl TraceKind {
    /// Display name for the event (the Chrome `name` field).
    pub fn name(&self) -> &str {
        match self {
            TraceKind::Connection { .. } => "connection",
            TraceKind::Request { .. } => "request",
            TraceKind::Checkpoint => "checkpoint",
            TraceKind::Recovery { .. } => "recovery",
            TraceKind::Violation { .. } => "violation",
            TraceKind::SyscallIo { name, .. } => name,
            TraceKind::InjectionFired { .. } => "injection",
            TraceKind::Admitted { .. } => "admitted",
            TraceKind::Shed { .. } => "shed",
            TraceKind::Parked { .. } => "parked",
            TraceKind::QueueDepth { .. } => "queue_depth",
        }
    }

    /// Kind-specific argument pairs for the Chrome `args` object.
    fn args(&self) -> Vec<(&'static str, Json)> {
        match self {
            TraceKind::Connection { connection } => vec![("connection", Json::U64(*connection))],
            TraceKind::Request { index } => vec![("index", Json::U64(*index))],
            TraceKind::Checkpoint => vec![],
            TraceKind::Recovery { recovered_cycles } => {
                vec![("recovered_cycles", Json::U64(*recovered_cycles))]
            }
            TraceKind::Violation { policy, action } => {
                vec![("policy", Json::Str(policy.clone())), ("action", Json::Str(action.clone()))]
            }
            TraceKind::SyscallIo { bytes, .. } => vec![("bytes", Json::U64(*bytes))],
            TraceKind::InjectionFired { what } => vec![("what", Json::Str((*what).to_string()))],
            TraceKind::Admitted { connection, slot } => {
                vec![("connection", Json::U64(*connection)), ("slot", Json::U64(*slot))]
            }
            TraceKind::Shed { connection } => vec![("connection", Json::U64(*connection))],
            TraceKind::Parked { connection, wake } => {
                vec![("connection", Json::U64(*connection)), ("wake", Json::U64(*wake))]
            }
            TraceKind::QueueDepth { depth, resident } => {
                vec![("depth", Json::U64(*depth)), ("resident", Json::U64(*resident))]
            }
        }
    }
}

/// One span or instant on the modelled timeline.
///
/// `dur == 0` marks an instant; spans carry their modelled duration. The
/// deterministic identity of an event is `(cycle, worker, seq, dur, kind)`;
/// `host_ns` is diagnostic-only and excluded from [`timeline_digest`].
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Modelled cycle stamp (span start for spans).
    pub cycle: u64,
    /// Span duration in modelled cycles; `0` for instants.
    pub dur: u64,
    /// Track id: the fleet stamps the *connection index* here (not the
    /// modelled instance), so the id is invariant under the worker width.
    pub worker: u64,
    /// Emission sequence number within the worker's ring — the tiebreak
    /// that makes the merge order total.
    pub seq: u64,
    /// Host wall-clock nanoseconds since the ring was armed. Diagnostic
    /// only: never part of the deterministic ordering or digest.
    pub host_ns: u64,
    /// What happened.
    pub kind: TraceKind,
}

/// One time-series sample: a fixed snapshot of the serving counters, taken
/// every N modelled cycles at syscall boundaries (the only points where the
/// modelled clock can advance past a threshold with the runtime in a
/// consistent state — so sampling is deterministic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Modelled cycle stamp of the sample.
    pub cycle: u64,
    /// Track id (connection index), stamped like [`TraceEvent::worker`].
    pub worker: u64,
    /// CPU cycles retired so far.
    pub cycles: u64,
    /// I/O wait cycles charged so far.
    pub io_cycles: u64,
    /// Instructions retired so far.
    pub instructions: u64,
    /// Requests delivered so far.
    pub requests: u64,
    /// Rollbacks taken so far.
    pub recoveries: u64,
    /// Violations recorded so far.
    pub violations: u64,
}

/// A bounded per-worker event ring plus its time-series sampler.
///
/// Capacity is fixed at arming time; when full, the oldest event is evicted
/// and counted in [`TraceRing::dropped`] (surfaced as the
/// `obs.trace.dropped` metric). A zero capacity records nothing but still
/// counts. Storage grows with the events
/// actually recorded rather than being reserved up front: a connection
/// records a few dozen events, far below the cap, and reserving the whole
/// ring per connection cost more host time than recording into it.
#[derive(Clone, Debug)]
pub struct TraceRing {
    worker: u64,
    cap: usize,
    seq: u64,
    dropped: u64,
    events: VecDeque<TraceEvent>,
    sample_every: u64,
    next_sample: u64,
    samples: Vec<Sample>,
    epoch: Instant,
}

impl Default for TraceRing {
    fn default() -> TraceRing {
        TraceRing::new()
    }
}

impl TraceRing {
    /// A ring with the default capacity and sampling disarmed.
    pub fn new() -> TraceRing {
        TraceRing::with_capacity(DEFAULT_TRACE_CAP)
    }

    /// A ring holding at most `cap` events (`0` = count drops only).
    pub fn with_capacity(cap: usize) -> TraceRing {
        TraceRing {
            worker: 0,
            cap,
            seq: 0,
            dropped: 0,
            events: VecDeque::new(),
            sample_every: 0,
            next_sample: 0,
            samples: Vec::new(),
            epoch: Instant::now(),
        }
    }

    /// Arms the time-series sampler: [`TraceRing::sample_due`] returns
    /// `true` once per crossed `every`-cycle threshold. `0` disarms.
    pub fn arm_sampling(&mut self, every: u64) {
        self.sample_every = every;
        self.next_sample = every;
    }

    /// Restamps the ring (and everything already recorded) with a track id.
    /// The fleet calls this with the connection index after the serve, which
    /// is why the id is width-invariant.
    pub fn set_worker(&mut self, worker: u64) {
        self.worker = worker;
        for e in &mut self.events {
            e.worker = worker;
        }
        for s in &mut self.samples {
            s.worker = worker;
        }
    }

    /// Shifts every recorded cycle stamp forward by `delta` modelled cycles.
    /// The open-loop scheduler records each guest on its own local clock
    /// (session start = cycle 0) and calls this with the connection's first
    /// scheduled cycle, placing its activity at (approximately) its global
    /// timeline position — queueing gaps *within* the session are not
    /// re-expanded, a documented coarseness of the export.
    pub fn offset_cycles(&mut self, delta: u64) {
        for e in &mut self.events {
            e.cycle += delta;
        }
        for s in &mut self.samples {
            s.cycle += delta;
        }
    }

    /// Records an instant event at modelled time `cycle`.
    pub fn instant(&mut self, cycle: u64, kind: TraceKind) {
        self.push(cycle, 0, kind);
    }

    /// Records a span from modelled time `start` to `end`.
    pub fn span(&mut self, start: u64, end: u64, kind: TraceKind) {
        self.push(start, end.saturating_sub(start), kind);
    }

    fn push(&mut self, cycle: u64, dur: u64, kind: TraceKind) {
        let seq = self.seq;
        self.seq += 1;
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        let host_ns = self.epoch.elapsed().as_nanos() as u64;
        self.events.push_back(TraceEvent { cycle, dur, worker: self.worker, seq, host_ns, kind });
    }

    /// `true` when the modelled clock crossed a sampling threshold since the
    /// last call; advances the threshold past `now`. Always `false` when
    /// sampling is disarmed.
    pub fn sample_due(&mut self, now: u64) -> bool {
        if self.sample_every == 0 || now < self.next_sample {
            return false;
        }
        while self.next_sample <= now {
            self.next_sample += self.sample_every;
        }
        true
    }

    /// Appends a time-series sample (stamped with the ring's track id).
    pub fn record_sample(&mut self, mut sample: Sample) {
        sample.worker = self.worker;
        self.samples.push(sample);
    }

    /// Recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events are held.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted (or refused at `cap == 0`) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Recorded time-series samples, in emission order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }
}

/// Merges per-worker rings into one timeline ordered by
/// `(cycle, worker, seq)` — a total order over distinct events, so the
/// result is bit-identical no matter how the rings were produced or listed
/// (the [`crate::Registry::merge`] contract, applied to events).
pub fn merge_events(rings: &[&TraceRing]) -> Vec<TraceEvent> {
    let mut all: Vec<TraceEvent> = rings.iter().flat_map(|r| r.events().cloned()).collect();
    all.sort_by_key(|a| (a.cycle, a.worker, a.seq));
    all
}

/// Merges per-worker sample series, ordered by `(cycle, worker)`.
pub fn merge_samples(rings: &[&TraceRing]) -> Vec<Sample> {
    let mut all: Vec<Sample> = rings.iter().flat_map(|r| r.samples().iter().copied()).collect();
    all.sort_by_key(|s| (s.cycle, s.worker));
    all
}

/// FNV-1a digest of a merged timeline's deterministic content: every field
/// of every event *except* `host_ns`. Two digests agree iff the modelled
/// timelines are bit-identical — the fleet width test compares this across
/// worker widths.
pub fn timeline_digest(events: &[TraceEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for e in events {
        eat(&e.cycle.to_le_bytes());
        eat(&e.dur.to_le_bytes());
        eat(&e.worker.to_le_bytes());
        eat(&e.seq.to_le_bytes());
        eat(e.kind.name().as_bytes());
        for (k, v) in e.kind.args() {
            eat(k.as_bytes());
            eat(v.render().as_bytes());
        }
    }
    h
}

/// Renders a merged timeline as a Chrome `trace_event` JSON document,
/// loadable in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
///
/// Layout: one process (`pid 0`), one named track per worker (`tid` =
/// connection index). Spans become complete (`"ph": "X"`) events with
/// microsecond timestamps at [`CYCLES_PER_US`]; instants become
/// thread-scoped (`"ph": "i"`) marks. Each event's `args` carries the exact
/// cycle stamps so nothing is lost to the µs conversion, plus `host_ns` for
/// host-side profiling. Time-series samples land in a `timeseries` sibling
/// key (ignored by trace viewers, consumed by `shift trace`).
pub fn chrome_trace_json(events: &[TraceEvent], samples: &[Sample]) -> Json {
    let mut out: Vec<Json> = Vec::with_capacity(events.len() + 8);
    let mut workers: Vec<u64> = events.iter().map(|e| e.worker).collect();
    workers.sort_unstable();
    workers.dedup();
    for w in workers {
        out.push(Json::obj(vec![
            ("name", Json::Str("thread_name".to_string())),
            ("ph", Json::Str("M".to_string())),
            ("pid", Json::U64(0)),
            ("tid", Json::U64(w)),
            (
                "args",
                Json::obj(vec![(
                    "name",
                    Json::Str(if w == SCHEDULER_TRACK {
                        "scheduler".to_string()
                    } else {
                        format!("connection {w}")
                    }),
                )]),
            ),
        ]));
    }
    for e in events {
        let mut args = vec![
            ("cycle", Json::U64(e.cycle)),
            ("dur_cycles", Json::U64(e.dur)),
            ("seq", Json::U64(e.seq)),
            ("host_ns", Json::U64(e.host_ns)),
        ];
        args.extend(e.kind.args());
        let mut fields = vec![
            ("name", Json::Str(e.kind.name().to_string())),
            ("cat", Json::Str("shift".to_string())),
            ("ph", Json::Str(if e.dur > 0 { "X" } else { "i" }.to_string())),
            ("ts", Json::F64(e.cycle as f64 / CYCLES_PER_US)),
        ];
        if e.dur > 0 {
            fields.push(("dur", Json::F64(e.dur as f64 / CYCLES_PER_US)));
        } else {
            fields.push(("s", Json::Str("t".to_string())));
        }
        fields.push(("pid", Json::U64(0)));
        fields.push(("tid", Json::U64(e.worker)));
        fields.push(("args", Json::obj(args)));
        out.push(Json::obj(fields));
    }
    let series: Vec<Json> = samples
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("cycle", Json::U64(s.cycle)),
                ("worker", Json::U64(s.worker)),
                ("cycles", Json::U64(s.cycles)),
                ("io_cycles", Json::U64(s.io_cycles)),
                ("instructions", Json::U64(s.instructions)),
                ("requests", Json::U64(s.requests)),
                ("recoveries", Json::U64(s.recoveries)),
                ("violations", Json::U64(s.violations)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(out)),
        ("displayTimeUnit", Json::Str("ms".to_string())),
        ("timeseries", Json::Arr(series)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_with(worker: u64, stamps: &[u64]) -> TraceRing {
        let mut r = TraceRing::new();
        for &c in stamps {
            r.instant(c, TraceKind::Checkpoint);
        }
        r.set_worker(worker);
        r
    }

    #[test]
    fn ring_caps_and_counts_drops() {
        let mut r = TraceRing::with_capacity(2);
        r.instant(1, TraceKind::Checkpoint);
        r.instant(2, TraceKind::Checkpoint);
        r.instant(3, TraceKind::Checkpoint);
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 1);
        // The survivors are the newest, with their original seq stamps.
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn zero_capacity_counts_without_storing() {
        let mut r = TraceRing::with_capacity(0);
        r.instant(1, TraceKind::Checkpoint);
        r.span(5, 9, TraceKind::Request { index: 0 });
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn spans_and_instants_are_distinguished_by_dur() {
        let mut r = TraceRing::new();
        r.span(100, 400, TraceKind::Request { index: 0 });
        r.instant(250, TraceKind::Recovery { recovered_cycles: 7 });
        let evs: Vec<&TraceEvent> = r.events().collect();
        assert_eq!((evs[0].cycle, evs[0].dur), (100, 300));
        assert_eq!((evs[1].cycle, evs[1].dur), (250, 0));
    }

    #[test]
    fn merge_orders_by_cycle_then_worker_then_seq() {
        let a = ring_with(2, &[10, 30]);
        let b = ring_with(1, &[10, 20]);
        let merged = merge_events(&[&a, &b]);
        let key: Vec<(u64, u64, u64)> = merged.iter().map(|e| (e.cycle, e.worker, e.seq)).collect();
        assert_eq!(key, vec![(10, 1, 0), (10, 2, 0), (20, 1, 1), (30, 2, 1)]);
        // Listing order is irrelevant: the merge is a total order.
        let flipped = merge_events(&[&b, &a]);
        assert_eq!(timeline_digest(&merged), timeline_digest(&flipped));
    }

    #[test]
    fn digest_ignores_host_ns_but_sees_everything_else() {
        let mut a = ring_with(0, &[5]);
        let b = ring_with(0, &[5]);
        // host_ns differs between the rings (different arming times), yet
        // the digests agree…
        let (ea, eb) = (merge_events(&[&a]), merge_events(&[&b]));
        assert_eq!(timeline_digest(&ea), timeline_digest(&eb));
        // …and any modelled field difference is visible.
        a.instant(6, TraceKind::Checkpoint);
        assert_ne!(timeline_digest(&merge_events(&[&a])), timeline_digest(&eb));
    }

    #[test]
    fn sampler_fires_once_per_crossed_threshold() {
        let mut r = TraceRing::new();
        r.arm_sampling(100);
        assert!(!r.sample_due(99));
        assert!(r.sample_due(100));
        assert!(!r.sample_due(150), "threshold already consumed");
        assert!(r.sample_due(350), "skipping thresholds still fires once");
        assert!(!r.sample_due(399));
        assert!(r.sample_due(400));
    }

    #[test]
    fn disarmed_sampler_never_fires() {
        let mut r = TraceRing::new();
        assert!(!r.sample_due(u64::MAX));
    }

    #[test]
    fn chrome_export_parses_and_carries_exact_cycles() {
        let mut r = TraceRing::new();
        r.span(1500, 4500, TraceKind::Request { index: 3 });
        r.instant(
            2000,
            TraceKind::Violation { policy: "H3".to_string(), action: "abort".to_string() },
        );
        r.set_worker(5);
        let mut samples = Vec::new();
        r.arm_sampling(1000);
        r.record_sample(Sample {
            cycle: 1000,
            worker: 0,
            cycles: 900,
            io_cycles: 100,
            instructions: 400,
            requests: 1,
            recoveries: 0,
            violations: 0,
        });
        samples.extend_from_slice(r.samples());
        let doc = chrome_trace_json(&merge_events(&[&r]), &samples);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        let Some(Json::Arr(evs)) = back.get("traceEvents") else {
            panic!("no traceEvents:\n{text}")
        };
        // Metadata + span + instant.
        assert_eq!(evs.len(), 3);
        let span = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("request"))
            .expect("request span present");
        assert_eq!(span.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(span.get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(span.get("dur").and_then(Json::as_f64), Some(2.0));
        assert_eq!(span.get("tid").and_then(Json::as_u64), Some(5));
        let args = span.get("args").unwrap();
        assert_eq!(args.get("cycle").and_then(Json::as_u64), Some(1500));
        assert_eq!(args.get("dur_cycles").and_then(Json::as_u64), Some(3000));
        assert_eq!(args.get("index").and_then(Json::as_u64), Some(3));
        let viol = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("violation"))
            .expect("violation instant present");
        assert_eq!(viol.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(viol.get("args").unwrap().get("policy").and_then(Json::as_str), Some("H3"));
        let Some(Json::Arr(ts)) = back.get("timeseries") else { panic!("no timeseries") };
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].get("worker").and_then(Json::as_u64), Some(5));
    }

    #[test]
    fn set_worker_restamps_events_and_samples() {
        let mut r = ring_with(0, &[1, 2]);
        r.record_sample(Sample {
            cycle: 2,
            worker: 0,
            cycles: 2,
            io_cycles: 0,
            instructions: 1,
            requests: 0,
            recoveries: 0,
            violations: 0,
        });
        r.set_worker(9);
        assert!(r.events().all(|e| e.worker == 9));
        assert!(r.samples().iter().all(|s| s.worker == 9));
    }
}
