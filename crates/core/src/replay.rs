//! Deterministic record/replay of fleet runs.
//!
//! The fleet's determinism contract (see [`crate::fleet`]) makes every
//! connection a pure function of its inputs: the shared program image, the
//! session options, the base world, the connection's ordered request list,
//! and — since the chaos harness — its fault-injection schedule. A
//! [`ReplayLog`] records exactly those inputs plus the outcome digests, so
//! any single connection of a fleet run can be reconstructed later and run
//! to *bit-identical* completion: same [`state_digest`], same modelled
//! cycles, same violations.
//!
//! Recording is zero-perturbation by construction: the log is assembled
//! *after* [`crate::Fleet::serve`] returns, from the same inputs and the
//! returned report — nothing on the serving path changes when a run is
//! being recorded (the fleet tests pin this bit-for-bit).
//!
//! The log is a self-describing JSON document built on [`shift_obs::Json`]
//! (the build environment has no `serde`): request bytes are hex-encoded,
//! the policy configuration is embedded in the paper's text format
//! ([`crate::TaintConfig::render`]), and the pristine image digest is
//! recorded so a replay against the wrong program or a drifted compiler
//! fails up front with a clear error instead of a baffling divergence.
//!
//! On top of replay sits a shrinking reducer ([`ReplayLog::shrink`]): given
//! a connection whose outcome is interesting (a violation, a fault, a
//! divergence), it greedily drops requests and injections while the outcome
//! signature is preserved, yielding a minimal one-command reproducer —
//! what CI attaches to a failing chaos trial.
//!
//! [`state_digest`]: shift_machine::Machine::state_digest

use std::sync::Arc;

use shift_isa::Gpr;
use shift_machine::{Exit, Fault, Injection, NatFaultKind};
use shift_obs::Json;

use crate::event::{self, Disposition, OpenLoopConfig, Segment};
use crate::fleet::{ConnectionReport, FaultPlan, Fleet, FleetReport};
use crate::{Granularity, IoCostModel, Mode, Shift, ShiftOptions, TaintConfig, World};

/// Version stamp of the replay-log schema. Bump on any breaking change to
/// the document layout; the committed fixture test catches accidental
/// drift.
pub const REPLAY_SCHEMA_VERSION: u64 = 1;

/// The `kind` discriminator every replay log carries.
pub const REPLAY_LOG_KIND: &str = "shift-replay-log";

/// Canonical key for a compilation mode — the same names `shift --mode`
/// accepts. (A `Mode::Shift` with exactly one architectural enhancement has
/// no distinct key and maps to `-enhanced`; the recorded image digest
/// catches any resulting code mismatch at replay time.)
pub fn mode_key(mode: Mode) -> &'static str {
    match mode {
        Mode::Uninstrumented => "plain",
        Mode::Shift(o) => match (o.granularity, o.set_clr || o.nat_cmp) {
            (Granularity::Byte, false) => "byte",
            (Granularity::Word, false) => "word",
            (Granularity::Byte, true) => "byte-enhanced",
            (Granularity::Word, true) => "word-enhanced",
        },
        Mode::Shadow(Granularity::Byte) => "shadow-byte",
        Mode::Shadow(Granularity::Word) => "shadow-word",
    }
}

/// Parses a canonical mode key (see [`mode_key`]).
pub fn mode_from_key(key: &str) -> Option<Mode> {
    Some(match key {
        "plain" | "uninstrumented" => Mode::Uninstrumented,
        "byte" => Mode::Shift(ShiftOptions::baseline(Granularity::Byte)),
        "word" => Mode::Shift(ShiftOptions::baseline(Granularity::Word)),
        "byte-enhanced" => Mode::Shift(ShiftOptions::enhanced(Granularity::Byte)),
        "word-enhanced" => Mode::Shift(ShiftOptions::enhanced(Granularity::Word)),
        "shadow-byte" => Mode::Shadow(Granularity::Byte),
        "shadow-word" => Mode::Shadow(Granularity::Word),
        _ => return None,
    })
}

/// A stable one-line signature of how a run ended, used to compare a replay
/// against the recorded outcome (and by the shrinker to decide whether a
/// reduction preserved the failure).
pub fn exit_signature(exit: &Exit) -> String {
    match exit {
        Exit::Halted(status) => format!("halted:{status}"),
        Exit::Violation(v) => format!("violation:{}@{}", v.policy, v.ip),
        Exit::Fault(f) => format!("fault:{f}"),
        Exit::FuelExhausted => "fuel-exhausted".to_string(),
        Exit::InsnLimit => "insn-limit".to_string(),
        // No runtime produces a park; the signature stays total over `Exit`.
        Exit::Parked => "parked".to_string(),
    }
}

/// One connection's recorded inputs: its ordered request stream and the
/// fault-injection schedule armed on its instance.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ConnectionLog {
    /// Network requests, in delivery order.
    pub requests: Vec<Vec<u8>>,
    /// `(retired-instruction countdown, injection)` pairs armed at spawn.
    pub injections: Vec<(u64, Injection)>,
}

/// One connection's recorded outcome — everything a replay must reproduce
/// bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    /// [`exit_signature`] of the session's final exit.
    pub exit: String,
    /// Final machine state digest.
    pub state_digest: u64,
    /// Modelled total time (CPU + I/O cycles).
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Requests delivered to the instance.
    pub delivered: u64,
    /// Requests completed.
    pub served: u64,
    /// Requests rolled back with service continuing.
    pub recovered: u64,
    /// Requests lost.
    pub dropped: u64,
    /// Policy name of every violation observed, in order.
    pub violations: Vec<String>,
}

impl Expected {
    /// Extracts the expected outcome from a served connection's report.
    pub fn of(report: &ConnectionReport) -> Expected {
        Expected {
            exit: exit_signature(&report.exit),
            state_digest: report.state_digest,
            cycles: report.time,
            instructions: report.stats.instructions,
            delivered: report.requests_delivered,
            served: report.served,
            recovered: report.recovered,
            dropped: report.dropped,
            violations: report.violations.iter().map(|v| v.policy.clone()).collect(),
        }
    }

    /// The placeholder outcome of a connection shed by open-loop admission
    /// control: it never ran, so there is nothing to replay. The replayer
    /// recognizes the `"shed"` signature and skips verification.
    pub fn shed() -> Expected {
        Expected {
            exit: "shed".to_string(),
            state_digest: 0,
            cycles: 0,
            instructions: 0,
            delivered: 0,
            served: 0,
            recovered: 0,
            dropped: 0,
            violations: Vec::new(),
        }
    }

    /// `true` when this outcome records a shed (never-run) connection.
    pub fn is_shed(&self) -> bool {
        self.exit == "shed"
    }
}

/// Open-loop scheduling inputs recorded alongside a fleet run: the
/// materialized arrival schedule, the scheduler parameters, and the
/// headline outcome. Absent from closed-loop logs, so the key set (and
/// byte-for-byte rendering) of every pre-existing log is unchanged.
///
/// The *materialized* cycles are recorded, not the generator spec alone:
/// schedule synthesis uses host floating point (`ln`, `sin`), and storing
/// the realized schedule makes replay exact even across hosts that round
/// transcendentals differently. Per-connection outcomes need no open-loop
/// replay path at all — trace capture runs each connection straight
/// through once, the same run as [`crate::Fleet::serve_one`], so
/// [`ReplayLog::replay_connection`] validates open-loop connections as-is.
/// [`ReplayLog::verify_schedule`] then re-drives the event loop from the
/// replayed legs and checks `completed`, `shed` and `wall_cycles`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpenLoopLog {
    /// Canonical arrival-process spec the schedule was synthesized from
    /// (e.g. `poisson:500`); informational — replay uses `arrivals`.
    pub spec: String,
    /// Materialized arrival cycles, aligned with the recorded connections.
    pub arrivals: Vec<u64>,
    /// Modelled worker count of the event-driven scheduler.
    pub workers: usize,
    /// Accept-queue bound (arrivals beyond it are shed).
    pub accept_cap: usize,
    /// Resident-guest cap (admitted connections beyond it queue).
    pub max_resident: usize,
    /// Round-robin quantum in cycles (0 = run each CPU leg to its I/O wait).
    pub quantum: u64,
    /// Connections completed in the recorded run.
    pub completed: u64,
    /// Connections shed by admission control in the recorded run.
    pub shed: u64,
    /// Recorded modelled makespan in cycles.
    pub wall_cycles: u64,
}

/// A recorded fleet run: everything needed to reconstruct any single
/// connection and run it to bit-identical completion, plus the outcome
/// digests to verify against.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayLog {
    /// Name of the guest program (resolved by the replayer's program
    /// registry — e.g. `apache`).
    pub program: String,
    /// Compilation mode of the recorded session.
    pub mode: Mode,
    /// Taint/policy configuration of the recorded session.
    pub config: TaintConfig,
    /// I/O latency model of the recorded session.
    pub io: IoCostModel,
    /// Whole-run instruction budget.
    pub insn_limit: u64,
    /// Per-transaction watchdog fuel.
    pub fuel: u64,
    /// Modelled fleet width the run used.
    pub workers: usize,
    /// Master seed the run's randomized harness (if any) derived from.
    pub seed: u64,
    /// State digest of a pristine spawn of the compiled image — the
    /// program-identity check.
    pub image_digest: u64,
    /// The base world (files/args/kbd) every connection started from.
    pub base: World,
    /// Per-connection inputs, in connection order.
    pub connections: Vec<ConnectionLog>,
    /// Per-connection outcomes, aligned with `connections`.
    pub expected: Vec<Expected>,
    /// Open-loop arrival schedule and scheduler parameters, when the run
    /// was driven by [`crate::Fleet::serve_open_loop`]. `None` for
    /// closed-loop runs (and absent from their JSON).
    pub open_loop: Option<OpenLoopLog>,
}

/// Outcome of replaying one recorded connection.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Index of the connection in the log.
    pub connection: usize,
    /// The live re-run's report.
    pub live: ConnectionReport,
    /// The live re-run's `(cpu, io)` legs, which
    /// [`ReplayLog::verify_schedule`] feeds to the open-loop event loop.
    pub segments: Vec<Segment>,
    /// Human-readable `field: recorded X, live Y` lines; empty on a
    /// bit-identical replay.
    pub mismatches: Vec<String>,
}

impl ReplayOutcome {
    /// `true` when the replay was bit-identical to the recording.
    pub fn matches(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// What [`ReplayLog::shrink`] produced.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// A single-connection log reproducing the original outcome signature
    /// with a minimized request stream and injection schedule.
    pub log: ReplayLog,
    /// Requests dropped by the reduction.
    pub removed_requests: usize,
    /// Injections dropped by the reduction.
    pub removed_injections: usize,
    /// Re-simulations the reducer spent.
    pub probes: usize,
}

impl ReplayLog {
    /// Assembles a log from a completed [`Fleet::serve_chaos`] (or
    /// [`Fleet::serve`]) call. Pure bookkeeping over the inputs and the
    /// returned report — the serving path is untouched, which is what makes
    /// recording zero-perturbation.
    pub fn capture(
        program: &str,
        fleet: &Fleet,
        base: &World,
        connections: &[Vec<Vec<u8>>],
        faults: &FaultPlan,
        seed: u64,
        report: &FleetReport,
    ) -> ReplayLog {
        ReplayLog {
            workers: report.workers,
            expected: report.connections.iter().map(Expected::of).collect(),
            ..Self::header(program, fleet, base, connections, faults, seed)
        }
    }

    /// Attaches an open-loop section (arrival schedule + scheduler
    /// parameters) to a captured log. See [`OpenLoopLog`] for the replay
    /// contract.
    pub fn with_open_loop(mut self, open_loop: OpenLoopLog) -> ReplayLog {
        self.open_loop = Some(open_loop);
        self
    }

    /// Assembles a log from a completed [`Fleet::serve_open_loop`] call.
    ///
    /// Completed connections record their full [`Expected`] outcome; shed
    /// connections record the [`Expected::shed`] placeholder (they never
    /// ran, so there is nothing to verify). The materialized arrival
    /// schedule and scheduler parameters land in the `open_loop` section so
    /// the whole run can be re-driven exactly — see [`OpenLoopLog`].
    #[allow(clippy::too_many_arguments)]
    pub fn capture_open_loop(
        program: &str,
        fleet: &Fleet,
        base: &World,
        connections: &[Vec<Vec<u8>>],
        faults: &FaultPlan,
        seed: u64,
        spec: &str,
        arrivals: &[u64],
        report: &crate::OpenLoopReport,
    ) -> ReplayLog {
        let cfg = report.config;
        ReplayLog {
            workers: cfg.workers,
            expected: report
                .connections
                .iter()
                .map(|row| row.outcome.clone().unwrap_or_else(Expected::shed))
                .collect(),
            ..Self::header(program, fleet, base, connections, faults, seed)
        }
        .with_open_loop(OpenLoopLog {
            spec: spec.to_string(),
            arrivals: arrivals.to_vec(),
            workers: cfg.workers,
            accept_cap: cfg.accept_cap,
            max_resident: cfg.max_resident,
            quantum: cfg.quantum,
            completed: report.completed,
            shed: report.shed,
            wall_cycles: report.wall_cycles,
        })
    }

    /// The part of a log both captures share: the program, the session
    /// options, the image digest, and every connection's inputs. The
    /// caller supplies `workers` and `expected`, which come from its report.
    fn header(
        program: &str,
        fleet: &Fleet,
        base: &World,
        connections: &[Vec<Vec<u8>>],
        faults: &FaultPlan,
        seed: u64,
    ) -> ReplayLog {
        let shift = fleet.shift();
        ReplayLog {
            program: program.to_string(),
            mode: shift.mode(),
            config: shift.config().clone(),
            io: shift.io(),
            insn_limit: shift.insn_limit(),
            fuel: shift.fuel(),
            workers: 0,
            seed,
            image_digest: fleet.image().pristine_digest(),
            base: base.clone(),
            connections: connections
                .iter()
                .enumerate()
                .map(|(c, reqs)| ConnectionLog {
                    requests: reqs.clone(),
                    injections: faults.get(c).cloned().unwrap_or_default(),
                })
                .collect(),
            expected: Vec::new(),
            open_loop: None,
        }
    }

    /// Rebuilds the recorded session options (mode, config, I/O model,
    /// budgets) as a [`Shift`].
    pub fn session(&self) -> Shift {
        Shift::new(self.mode)
            .with_config(self.config.clone())
            .with_io(self.io)
            .with_insn_limit(self.insn_limit)
            .with_fuel(self.fuel)
    }

    /// Compiles `app` under the recorded session and verifies the pristine
    /// image digest matches the recording.
    ///
    /// # Errors
    ///
    /// A message when the program fails to compile or the compiled image is
    /// not the recorded one (wrong program, or compiler drift since the
    /// recording).
    pub fn build_fleet(&self, app: &shift_ir::Program) -> Result<Fleet, String> {
        let fleet = self.session().fleet(app).map_err(|e| format!("compile error: {e}"))?;
        let digest = fleet.image().pristine_digest();
        if digest != self.image_digest {
            return Err(format!(
                "image digest mismatch: recorded {:#x}, compiled {:#x} — wrong program or \
                 drifted compiler",
                self.image_digest, digest
            ));
        }
        Ok(fleet)
    }

    /// Re-runs recorded connection `c` on `fleet` and diffs every recorded
    /// outcome field against the live run.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range of the recorded connections.
    pub fn replay_connection(&self, fleet: &Fleet, c: usize) -> ReplayOutcome {
        let conn = &self.connections[c];
        let (live, segments) =
            fleet.serve_one_traced(&self.base, &conn.requests, &conn.injections, c, self.workers);
        let mut mismatches = Vec::new();
        if let Some(exp) = self.expected.get(c) {
            let got = Expected::of(&live);
            let mut diff = |field: &str, recorded: String, live: String| {
                if recorded != live {
                    mismatches.push(format!("{field}: recorded {recorded}, live {live}"));
                }
            };
            diff("exit", exp.exit.clone(), got.exit.clone());
            diff(
                "state_digest",
                format!("{:#x}", exp.state_digest),
                format!("{:#x}", got.state_digest),
            );
            diff("cycles", exp.cycles.to_string(), got.cycles.to_string());
            diff("instructions", exp.instructions.to_string(), got.instructions.to_string());
            diff("delivered", exp.delivered.to_string(), got.delivered.to_string());
            diff("served", exp.served.to_string(), got.served.to_string());
            diff("recovered", exp.recovered.to_string(), got.recovered.to_string());
            diff("dropped", exp.dropped.to_string(), got.dropped.to_string());
            diff("violations", exp.violations.join(","), got.violations.join(","));
        } else {
            mismatches.push(format!("connection {c} has no recorded outcome"));
        }
        ReplayOutcome { connection: c, live, segments, mismatches }
    }

    /// Replays every recorded connection (see [`ReplayLog::replay_connection`]),
    /// skipping connections recorded as shed — admission control never ran
    /// them, so there is no outcome to verify (see [`Expected::shed`]).
    pub fn verify(&self, fleet: &Fleet) -> Vec<ReplayOutcome> {
        (0..self.connections.len())
            .filter(|&c| !self.expected.get(c).is_some_and(Expected::is_shed))
            .map(|c| self.replay_connection(fleet, c))
            .collect()
    }

    /// Re-drives the recorded open-loop schedule through [`event::simulate`]
    /// with the live legs of `outcomes` (every connection
    /// [`ReplayLog::verify`] replays) and one empty leg per connection
    /// recorded as shed, so a wrongly admitted one would count as
    /// completed. Returns `field: recorded X, live Y` lines for
    /// `completed`, `shed` and `wall_cycles`; empty when they match or the
    /// log has no open-loop section.
    pub fn verify_schedule(&self, outcomes: &[ReplayOutcome]) -> Vec<String> {
        let Some(ol) = &self.open_loop else { return Vec::new() };
        let n = self.connections.len();
        if ol.arrivals.len() != n {
            return vec![format!("arrivals: recorded {} for {n} connections", ol.arrivals.len())];
        }
        let mut traces = vec![vec![Segment::default()]; n];
        for o in outcomes {
            traces[o.connection] = o.segments.clone();
        }
        let cfg = OpenLoopConfig {
            workers: ol.workers,
            accept_cap: ol.accept_cap,
            max_resident: ol.max_resident,
            quantum: ol.quantum,
        };
        let des = event::simulate(&ol.arrivals, &traces, &cfg, false);
        let completed =
            des.dispositions.iter().filter(|d| matches!(d, Disposition::Done { .. })).count();
        [
            ("completed", ol.completed, completed as u64),
            ("shed", ol.shed, des.shed),
            ("wall_cycles", ol.wall_cycles, des.wall_cycles),
        ]
        .into_iter()
        .filter(|(_, recorded, live)| recorded != live)
        .map(|(field, recorded, live)| format!("{field}: recorded {recorded}, live {live}"))
        .collect()
    }

    /// A copy of this log containing only connection `c` (as its sole
    /// connection, at the recorded width). A one-connection log has no
    /// arrival schedule, so the open-loop section is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn single(&self, c: usize) -> ReplayLog {
        let mut log = self.clone();
        log.open_loop = None;
        log.connections = vec![self.connections[c].clone()];
        log.expected =
            if c < self.expected.len() { vec![self.expected[c].clone()] } else { Vec::new() };
        log
    }

    /// Shrinks connection `c` to a minimal reproducer: greedily drops
    /// requests, then injections, re-simulating after each candidate drop
    /// and keeping it only when the outcome signature (exit + violation
    /// policy sequence) of the *live* run is preserved. Returns a
    /// single-connection log whose `expected` is re-captured from the final
    /// minimized run, so the reproducer replays bit-identically in one
    /// command.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn shrink(&self, fleet: &Fleet, c: usize) -> ShrinkResult {
        let conn = &self.connections[c];
        let mut probes = 0usize;
        let mut run = |requests: &[Vec<u8>], injections: &[(u64, Injection)]| {
            probes += 1;
            fleet.serve_one(&self.base, requests, injections, 0, 1)
        };
        let signature_of = |r: &ConnectionReport| {
            let policies: Vec<String> = r.violations.iter().map(|v| v.policy.clone()).collect();
            (exit_signature(&r.exit), policies)
        };
        let target = signature_of(&run(&conn.requests, &conn.injections));

        let mut requests = conn.requests.clone();
        let mut injections = conn.injections.clone();
        // Requests first (they dominate log size), scanning from the tail so
        // suffix truncation happens in one pass; loop to a fixed point since
        // removing one request can make another removable.
        loop {
            let mut changed = false;
            let mut i = requests.len();
            while i > 0 {
                i -= 1;
                let mut candidate = requests.clone();
                candidate.remove(i);
                if signature_of(&run(&candidate, &injections)) == target {
                    requests = candidate;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let mut i = injections.len();
        while i > 0 {
            i -= 1;
            let mut candidate = injections.clone();
            candidate.remove(i);
            if signature_of(&run(&requests, &candidate)) == target {
                injections = candidate;
            }
        }

        let final_report = run(&requests, &injections);
        let mut log = self.single(c);
        log.workers = 1;
        log.connections =
            vec![ConnectionLog { requests: requests.clone(), injections: injections.clone() }];
        log.expected = vec![Expected::of(&final_report)];
        ShrinkResult {
            log,
            removed_requests: conn.requests.len() - requests.len(),
            removed_injections: conn.injections.len() - injections.len(),
            probes,
        }
    }

    /// Serializes the log as a JSON document. The `open_loop` key is
    /// emitted only when the section is present, so closed-loop logs render
    /// with exactly the historical key set.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("kind", Json::Str(REPLAY_LOG_KIND.to_string())),
            ("schema_version", Json::U64(REPLAY_SCHEMA_VERSION)),
            ("program", Json::Str(self.program.clone())),
            ("mode", Json::Str(mode_key(self.mode).to_string())),
            ("seed", Json::U64(self.seed)),
            ("workers", Json::U64(self.workers as u64)),
            ("insn_limit", Json::U64(self.insn_limit)),
            ("fuel", Json::U64(self.fuel)),
            ("image_digest", Json::U64(self.image_digest)),
            (
                "io",
                Json::obj(vec![
                    ("net_base", Json::U64(self.io.net_base)),
                    ("net_per_byte", Json::U64(self.io.net_per_byte)),
                    ("disk_base", Json::U64(self.io.disk_base)),
                    ("disk_per_byte", Json::U64(self.io.disk_per_byte)),
                ]),
            ),
            ("config", Json::Str(self.config.render())),
            ("world", world_to_json(&self.base)),
            ("connections", Json::Arr(self.connections.iter().map(connection_to_json).collect())),
            ("expected", Json::Arr(self.expected.iter().map(expected_to_json).collect())),
        ];
        if let Some(ol) = &self.open_loop {
            pairs.push(("open_loop", open_loop_to_json(ol)));
        }
        Json::obj(pairs)
    }

    /// Renders the log as pretty-printed JSON text.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Deserializes a log from a JSON document.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or malformed field.
    pub fn from_json(doc: &Json) -> Result<ReplayLog, String> {
        let kind = str_field(doc, "kind")?;
        if kind != REPLAY_LOG_KIND {
            return Err(format!("not a replay log (kind `{kind}`)"));
        }
        let version = u64_field(doc, "schema_version")?;
        if version != REPLAY_SCHEMA_VERSION {
            return Err(format!(
                "unsupported replay schema version {version} (this build reads \
                 {REPLAY_SCHEMA_VERSION})"
            ));
        }
        let mode_name = str_field(doc, "mode")?;
        let mode = mode_from_key(mode_name).ok_or_else(|| format!("unknown mode `{mode_name}`"))?;
        let io_doc = doc.get("io").ok_or("missing field `io`")?;
        let io = IoCostModel {
            net_base: u64_field(io_doc, "net_base")?,
            net_per_byte: u64_field(io_doc, "net_per_byte")?,
            disk_base: u64_field(io_doc, "disk_base")?,
            disk_per_byte: u64_field(io_doc, "disk_per_byte")?,
        };
        let config = TaintConfig::parse(str_field(doc, "config")?)
            .map_err(|e| format!("bad config: {e}"))?;
        let base = world_from_json(doc.get("world").ok_or("missing field `world`")?)?;
        let connections = arr_field(doc, "connections")?
            .iter()
            .map(connection_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let expected = arr_field(doc, "expected")?
            .iter()
            .map(expected_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let open_loop = doc.get("open_loop").map(open_loop_from_json).transpose()?;
        Ok(ReplayLog {
            program: str_field(doc, "program")?.to_string(),
            mode,
            config,
            io,
            insn_limit: u64_field(doc, "insn_limit")?,
            fuel: u64_field(doc, "fuel")?,
            workers: u64_field(doc, "workers")? as usize,
            seed: u64_field(doc, "seed")?,
            image_digest: u64_field(doc, "image_digest")?,
            base,
            connections,
            expected,
            open_loop,
        })
    }

    /// Parses a rendered log.
    ///
    /// # Errors
    ///
    /// A message on JSON syntax errors or schema mismatches.
    pub fn parse(text: &str) -> Result<ReplayLog, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        ReplayLog::from_json(&doc)
    }
}

// ---- byte-string and field helpers ----------------------------------------

/// Hex-encodes arbitrary request bytes (requests are attack payloads, not
/// guaranteed UTF-8).
fn hex(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

fn unhex(s: &str) -> Result<Vec<u8>, String> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err("odd-length hex string".to_string());
    }
    let nibble = |b: u8| -> Result<u8, String> {
        match b {
            b'0'..=b'9' => Ok(b - b'0'),
            b'a'..=b'f' => Ok(b - b'a' + 10),
            b'A'..=b'F' => Ok(b - b'A' + 10),
            _ => Err(format!("invalid hex byte {b:#x}")),
        }
    };
    bytes.chunks(2).map(|pair| Ok(nibble(pair[0])? << 4 | nibble(pair[1])?)).collect()
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

fn u64_field(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

fn arr_field<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("missing or non-array field `{key}`")),
    }
}

fn hex_arr(items: &[Vec<u8>]) -> Json {
    Json::Arr(items.iter().map(|b| Json::Str(hex(b))).collect())
}

fn unhex_arr(doc: &Json, key: &str) -> Result<Vec<Vec<u8>>, String> {
    arr_field(doc, key)?
        .iter()
        .map(|item| item.as_str().ok_or_else(|| format!("non-string entry in `{key}`")))
        .map(|s| unhex(s?))
        .collect()
}

// ---- world -----------------------------------------------------------------

fn world_to_json(world: &World) -> Json {
    let net: Vec<Vec<u8>> = world.net_input.iter().cloned().collect();
    let kbd: Vec<Vec<u8>> = world.kbd_input.iter().cloned().collect();
    Json::obj(vec![
        (
            "files",
            Json::Arr(
                world
                    .files
                    .iter()
                    .map(|(name, data)| {
                        Json::obj(vec![
                            ("name", Json::Str(name.clone())),
                            ("data", Json::Str(hex(data))),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("args", hex_arr(&world.args)),
        ("net", hex_arr(&net)),
        ("kbd", hex_arr(&kbd)),
    ])
}

fn world_from_json(doc: &Json) -> Result<World, String> {
    let mut world = World::new();
    for file in arr_field(doc, "files")? {
        let name = str_field(file, "name")?.to_string();
        let data = unhex(str_field(file, "data")?)?;
        Arc::make_mut(&mut world.files).insert(name, data);
    }
    world.args = unhex_arr(doc, "args")?;
    world.net_input = unhex_arr(doc, "net")?.into();
    world.kbd_input = unhex_arr(doc, "kbd")?.into();
    Ok(world)
}

// ---- injections and faults --------------------------------------------------

/// Serializes an injection (public so the CLI can echo schedules).
pub fn injection_to_json(inj: &Injection) -> Json {
    match inj {
        Injection::FlipNat { reg } => Json::obj(vec![
            ("kind", Json::Str("flip-nat".to_string())),
            ("reg", Json::U64(reg.index() as u64)),
        ]),
        Injection::CorruptByte { addr, xor } => Json::obj(vec![
            ("kind", Json::Str("corrupt-byte".to_string())),
            ("addr", Json::U64(*addr)),
            ("xor", Json::U64(u64::from(*xor))),
        ]),
        Injection::Fault(f) => {
            Json::obj(vec![("kind", Json::Str("fault".to_string())), ("fault", fault_to_json(f))])
        }
    }
}

/// Deserializes an injection.
///
/// # Errors
///
/// A message on unknown kinds or out-of-range operands.
pub fn injection_from_json(doc: &Json) -> Result<Injection, String> {
    match str_field(doc, "kind")? {
        "flip-nat" => {
            let idx = u64_field(doc, "reg")? as usize;
            if idx >= Gpr::COUNT {
                return Err(format!("register index {idx} out of range"));
            }
            Ok(Injection::FlipNat { reg: Gpr::from_index(idx) })
        }
        "corrupt-byte" => {
            let xor = u64_field(doc, "xor")?;
            if xor > u8::MAX as u64 {
                return Err(format!("xor mask {xor} out of byte range"));
            }
            Ok(Injection::CorruptByte { addr: u64_field(doc, "addr")?, xor: xor as u8 })
        }
        "fault" => {
            Ok(Injection::Fault(fault_from_json(doc.get("fault").ok_or("missing `fault`")?)?))
        }
        other => Err(format!("unknown injection kind `{other}`")),
    }
}

fn fault_to_json(fault: &Fault) -> Json {
    match fault {
        Fault::NatConsumption { kind, ip } => Json::obj(vec![
            ("kind", Json::Str("nat-consumption".to_string())),
            ("nat", Json::Str(kind.name().to_string())),
            ("ip", Json::U64(*ip as u64)),
        ]),
        Fault::Unmapped { addr, ip } => Json::obj(vec![
            ("kind", Json::Str("unmapped".to_string())),
            ("addr", Json::U64(*addr)),
            ("ip", Json::U64(*ip as u64)),
        ]),
        Fault::Unimplemented { addr, ip } => Json::obj(vec![
            ("kind", Json::Str("unimplemented".to_string())),
            ("addr", Json::U64(*addr)),
            ("ip", Json::U64(*ip as u64)),
        ]),
        Fault::Unaligned { addr, size, ip } => Json::obj(vec![
            ("kind", Json::Str("unaligned".to_string())),
            ("addr", Json::U64(*addr)),
            ("size", Json::U64(*size)),
            ("ip", Json::U64(*ip as u64)),
        ]),
        Fault::BadIp { ip } => Json::obj(vec![
            ("kind", Json::Str("bad-ip".to_string())),
            ("ip", Json::U64(*ip as u64)),
        ]),
        Fault::BadSyscall { num, ip } => Json::obj(vec![
            ("kind", Json::Str("bad-syscall".to_string())),
            ("num", Json::U64(u64::from(*num))),
            ("ip", Json::U64(*ip as u64)),
        ]),
    }
}

fn fault_from_json(doc: &Json) -> Result<Fault, String> {
    let ip = u64_field(doc, "ip")? as usize;
    match str_field(doc, "kind")? {
        "nat-consumption" => {
            let name = str_field(doc, "nat")?;
            let kind = [
                NatFaultKind::StoreValue,
                NatFaultKind::LoadAddress,
                NatFaultKind::StoreAddress,
                NatFaultKind::BranchMove,
            ]
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| format!("unknown NaT fault kind `{name}`"))?;
            Ok(Fault::NatConsumption { kind, ip })
        }
        "unmapped" => Ok(Fault::Unmapped { addr: u64_field(doc, "addr")?, ip }),
        "unimplemented" => Ok(Fault::Unimplemented { addr: u64_field(doc, "addr")?, ip }),
        "unaligned" => Ok(Fault::Unaligned {
            addr: u64_field(doc, "addr")?,
            size: u64_field(doc, "size")?,
            ip,
        }),
        "bad-ip" => Ok(Fault::BadIp { ip }),
        "bad-syscall" => {
            let num = u64_field(doc, "num")?;
            if num > u32::MAX as u64 {
                return Err(format!("syscall number {num} out of range"));
            }
            Ok(Fault::BadSyscall { num: num as u32, ip })
        }
        other => Err(format!("unknown fault kind `{other}`")),
    }
}

// ---- open-loop section ------------------------------------------------------

fn open_loop_to_json(ol: &OpenLoopLog) -> Json {
    Json::obj(vec![
        ("spec", Json::Str(ol.spec.clone())),
        ("arrivals", Json::Arr(ol.arrivals.iter().map(|&c| Json::U64(c)).collect())),
        ("workers", Json::U64(ol.workers as u64)),
        ("accept_cap", Json::U64(ol.accept_cap as u64)),
        ("max_resident", Json::U64(ol.max_resident as u64)),
        ("quantum", Json::U64(ol.quantum)),
        ("completed", Json::U64(ol.completed)),
        ("shed", Json::U64(ol.shed)),
        ("wall_cycles", Json::U64(ol.wall_cycles)),
    ])
}

fn open_loop_from_json(doc: &Json) -> Result<OpenLoopLog, String> {
    let arrivals = arr_field(doc, "arrivals")?
        .iter()
        .map(|v| v.as_u64().ok_or_else(|| "non-integer arrival cycle".to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(OpenLoopLog {
        spec: str_field(doc, "spec")?.to_string(),
        arrivals,
        workers: u64_field(doc, "workers")? as usize,
        accept_cap: u64_field(doc, "accept_cap")? as usize,
        max_resident: u64_field(doc, "max_resident")? as usize,
        quantum: u64_field(doc, "quantum")?,
        completed: u64_field(doc, "completed")?,
        shed: u64_field(doc, "shed")?,
        wall_cycles: u64_field(doc, "wall_cycles")?,
    })
}

// ---- connections and outcomes -----------------------------------------------

fn connection_to_json(conn: &ConnectionLog) -> Json {
    Json::obj(vec![
        ("requests", hex_arr(&conn.requests)),
        (
            "injections",
            Json::Arr(
                conn.injections
                    .iter()
                    .map(|(after, inj)| {
                        Json::obj(vec![
                            ("after", Json::U64(*after)),
                            ("inject", injection_to_json(inj)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn connection_from_json(doc: &Json) -> Result<ConnectionLog, String> {
    let injections = arr_field(doc, "injections")?
        .iter()
        .map(|item| {
            let after = u64_field(item, "after")?;
            let inj = injection_from_json(item.get("inject").ok_or("missing `inject`")?)?;
            Ok((after, inj))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ConnectionLog { requests: unhex_arr(doc, "requests")?, injections })
}

fn expected_to_json(exp: &Expected) -> Json {
    Json::obj(vec![
        ("exit", Json::Str(exp.exit.clone())),
        ("state_digest", Json::U64(exp.state_digest)),
        ("cycles", Json::U64(exp.cycles)),
        ("instructions", Json::U64(exp.instructions)),
        ("delivered", Json::U64(exp.delivered)),
        ("served", Json::U64(exp.served)),
        ("recovered", Json::U64(exp.recovered)),
        ("dropped", Json::U64(exp.dropped)),
        ("violations", Json::Arr(exp.violations.iter().map(|p| Json::Str(p.clone())).collect())),
    ])
}

fn expected_from_json(doc: &Json) -> Result<Expected, String> {
    let violations = arr_field(doc, "violations")?
        .iter()
        .map(|v| v.as_str().map(str::to_string).ok_or_else(|| "non-string violation".to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Expected {
        exit: str_field(doc, "exit")?.to_string(),
        state_digest: u64_field(doc, "state_digest")?,
        cycles: u64_field(doc, "cycles")?,
        instructions: u64_field(doc, "instructions")?,
        delivered: u64_field(doc, "delivered")?,
        served: u64_field(doc, "served")?,
        recovered: u64_field(doc, "recovered")?,
        dropped: u64_field(doc, "dropped")?,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_machine::Violation;

    #[test]
    fn hex_round_trips_all_byte_values() {
        let all: Vec<u8> = (0u8..=255).collect();
        assert_eq!(unhex(&hex(&all)).unwrap(), all);
        assert!(unhex("abc").is_err());
        assert!(unhex("zz").is_err());
    }

    #[test]
    fn mode_keys_round_trip() {
        for key in [
            "plain",
            "byte",
            "word",
            "byte-enhanced",
            "word-enhanced",
            "shadow-byte",
            "shadow-word",
        ] {
            let mode = mode_from_key(key).unwrap();
            assert_eq!(mode_key(mode), key);
        }
        assert!(mode_from_key("turbo").is_none());
    }

    #[test]
    fn injections_round_trip_through_json() {
        let cases = [
            Injection::FlipNat { reg: Gpr::from_index(9) },
            Injection::CorruptByte { addr: 0x1234, xor: 0xa5 },
            Injection::Fault(Fault::Unmapped { addr: 0xdead, ip: 7 }),
            Injection::Fault(Fault::Unaligned { addr: 3, size: 8, ip: 1 }),
            Injection::Fault(Fault::NatConsumption { kind: NatFaultKind::BranchMove, ip: 42 }),
            Injection::Fault(Fault::BadSyscall { num: 99, ip: 0 }),
            Injection::Fault(Fault::BadIp { ip: 12 }),
            Injection::Fault(Fault::Unimplemented { addr: 0x77, ip: 3 }),
        ];
        for inj in cases {
            let doc = injection_to_json(&inj);
            let text = doc.render();
            let back = injection_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, inj);
        }
    }

    #[test]
    fn exit_signatures_distinguish_outcomes() {
        let sigs = [
            exit_signature(&Exit::Halted(0)),
            exit_signature(&Exit::Halted(3)),
            exit_signature(&Exit::Violation(Violation {
                policy: "H2".into(),
                message: "m".into(),
                ip: 5,
                provenance: None,
            })),
            exit_signature(&Exit::Fault(Fault::Unmapped { addr: 1, ip: 2 })),
            exit_signature(&Exit::FuelExhausted),
            exit_signature(&Exit::InsnLimit),
        ];
        let mut uniq = sigs.to_vec();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), sigs.len(), "{sigs:?}");
    }

    #[test]
    fn world_round_trips_including_binary_payloads() {
        let mut world = World::new()
            .file("www/page", vec![0u8, 255, 128, 7])
            .arg(b"--flag".to_vec())
            .net(vec![0x00, 0x01, 0xfe])
            .kbd(b"line\n".to_vec());
        Arc::make_mut(&mut world.files).insert("empty".into(), Vec::new());
        let back = world_from_json(&Json::parse(&world_to_json(&world).render()).unwrap()).unwrap();
        assert_eq!(back, world);
    }
}
