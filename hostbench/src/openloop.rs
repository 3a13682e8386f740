//! `openloop-tail`: `Fleet::serve_open_loop` with 8 modelled workers over
//! the seeded benign Apache stream, under Poisson arrivals at a rate that
//! keeps modelled utilisation high. Admission never sheds: the accept
//! queue holds every connection of a round.

use shift_core::event::{self, DesReport};
use shift_core::replay::{exit_signature, Expected};
use shift_core::{
    ConnectionReport, Disposition, Exit, Fleet, Granularity, Json, Mode, OpenLoopConfig,
    OpenLoopReport, ProgramImage, Registry, Shift, ShiftOptions, Stats,
};
use shift_ir::Program;
use shift_workloads::apache::{apache_fleet, apache_program};
use shift_workloads::chaos::derive;
use shift_workloads::ArrivalProcess;

use crate::gen::{traffic, Traffic};
use crate::oracle::{has_str, has_u64, Fold, Oracle, DEFAULT_SEED};
use crate::trace::{Count, Layer, Tracer};
use crate::{export, Workload};

/// Connections per round are `DECKS × 8`.
const DECKS: usize = 16;

/// Host threads of the capture phase: one, like the other workloads.
const HOST_WORKERS: usize = 1;

/// Offered load, in connections per modelled second.
const RATE_RPS: f64 = 64_000.0;

/// The scheduler: 8 workers, an accept queue longer than a round (so
/// nothing is shed), the fleet's default residency cap and quantum.
const CONFIG: OpenLoopConfig =
    OpenLoopConfig { workers: 8, accept_cap: 1 << 16, max_resident: 256, quantum: 100_000 };

/// The workload: generated traffic, its arrival schedule, and the
/// byte-mode serving session.
pub struct OpenLoopTail {
    traffic: Traffic,
    arrivals: Vec<u64>,
    shift: Shift,
    program: Program,
    oracle: Oracle,
}

/// A round's outputs: the open-loop report and its exported registry.
pub struct Output {
    report: OpenLoopReport,
    export: String,
}

/// Phase 3 of `Fleet::serve_open_loop`, as driven from outside.
struct Merged {
    stats: Stats,
    sojourns: Vec<u64>,
    served: u64,
    recovered: u64,
    dropped: u64,
    /// `(exit signature, state digest, sojourn)` per completed connection.
    rows: Vec<Option<(String, u64, u64)>>,
    registry: Registry,
}

impl OpenLoopTail {
    /// The workload at `seed`.
    pub fn new(seed: u64, oracle: Oracle) -> OpenLoopTail {
        let mode = Mode::Shift(ShiftOptions::baseline(Granularity::Byte));
        let traffic = traffic(seed, "hostbench/openloop-tail", DECKS, false);
        let process = ArrivalProcess::Poisson { rate_rps: RATE_RPS };
        let arrivals = process
            .schedule(traffic.connections.len(), derive(seed, "hostbench/openloop-tail/arrivals"));
        OpenLoopTail {
            traffic,
            arrivals,
            shift: apache_fleet(mode).shift().clone(),
            program: apache_program(),
            oracle,
        }
    }

    fn rows(report: &OpenLoopReport) -> Vec<Option<(String, u64, u64)>> {
        report
            .connections
            .iter()
            .map(|r| match (&r.exit, r.state_digest, r.sojourn) {
                (Some(e), Some(d), Some(s)) => Some((exit_signature(e), d, s)),
                _ => None,
            })
            .collect()
    }

    fn fold(report: &OpenLoopReport) -> Fold {
        let mut fold = Fold::new();
        for (sig, digest, _) in Self::rows(report).into_iter().flatten() {
            fold.add(&sig, digest);
        }
        fold
    }

    fn merge(&self, reports: Vec<ConnectionReport>, des: &DesReport, t: &mut Tracer) -> Merged {
        let mut m = Merged {
            stats: Stats::new(),
            sojourns: Vec::new(),
            served: 0,
            recovered: 0,
            dropped: 0,
            rows: Vec::with_capacity(reports.len()),
            registry: Registry::new(),
        };
        for (c, (report, disposition)) in reports.into_iter().zip(&des.dispositions).enumerate() {
            let Disposition::Done { finished, .. } = *disposition else {
                m.rows.push(None);
                continue;
            };
            let outcome = Expected::of(&report);
            let sojourn = finished - self.arrivals[c];
            m.sojourns.push(sojourn);
            m.stats.merge(&report.stats);
            t.span(Layer::RegistryMerge, |_| m.registry.merge(&report.registry));
            m.served += report.served;
            m.recovered += report.recovered;
            m.dropped += report.dropped;
            m.rows.push(Some((outcome.exit, outcome.state_digest, sojourn)));
        }
        m.sojourns.sort_unstable();
        for &s in &m.sojourns {
            m.registry.record("openloop.sojourn_cycles", s);
        }
        m.registry.counter_add("openloop.offered", des.dispositions.len() as u64);
        m.registry.counter_add("openloop.completed", m.sojourns.len() as u64);
        m.registry.counter_add("openloop.shed", des.shed);
        m.registry.counter_add("openloop.peak_queue_depth", des.peak_queue_depth);
        m.registry.counter_add("openloop.peak_resident", des.peak_resident);
        m
    }
}

impl Workload for OpenLoopTail {
    type Prepared = Fleet;
    type Output = Output;

    fn name(&self) -> &'static str {
        "openloop-tail"
    }

    fn ops(&self) -> u64 {
        self.traffic.connections.len() as u64
    }

    fn shape(&self) -> String {
        format!(
            "arrivals=poisson:{RATE_RPS} workers={} accept_cap={} max_resident={} mode=byte {}",
            CONFIG.workers,
            CONFIG.accept_cap,
            CONFIG.max_resident,
            self.traffic.shape()
        )
    }

    fn setup(&self, t: &mut Tracer) -> Fleet {
        let compiled =
            t.span(Layer::Compile, |_| self.shift.compile(&self.program).expect("apache compiles"));
        t.count(Count::Programs, 1);
        t.count(Count::InsnsEmitted, compiled.image.insn_count() as u64);
        let image = t.span(Layer::Load, |_| ProgramImage::new(&compiled));
        Fleet::from_image(self.shift.clone(), image)
    }

    fn round(&self, fleet: &Fleet) -> Output {
        let (world, conns) = (&self.traffic.world, &self.traffic.connections);
        let report =
            fleet.serve_open_loop(world, conns, &[], &self.arrivals, &CONFIG, HOST_WORKERS);
        let export = export(&report.registry);
        Output { report, export }
    }

    fn work(&self, out: &Output) -> (u64, u64) {
        (out.report.stats.instructions, out.report.served + out.report.recovered)
    }

    fn failures(&self, out: &Output, first: Option<&Output>) -> u64 {
        let r = &out.report;
        let pct = |p| r.sojourn_percentile(p).unwrap_or(0);
        let committed_ok = match &self.oracle {
            Oracle::Missing => false,
            Oracle::Off => true,
            Oracle::Committed(j) => {
                has_u64(j, "connections", self.ops())
                    && has_str(j, "fold", &Self::fold(r).hex())
                    && has_u64(j, "served", r.served)
                    && has_u64(j, "recovered", r.recovered)
                    && has_u64(j, "shed", r.shed)
                    && has_u64(j, "wall_cycles", r.wall_cycles)
                    && has_u64(j, "sojourn_p50", pct(50.0))
                    && has_u64(j, "sojourn_p99", pct(99.0))
                    && has_u64(j, "sojourn_p999", pct(99.9))
            }
        };
        let whole_ok = committed_ok
            && r.shed == 0
            && r.recovered == 0
            && r.dropped == 0
            && r.connections.len() as u64 == self.ops()
            && first
                .is_none_or(|f| f.export == out.export && f.report.wall_cycles == r.wall_cycles);
        if !whole_ok {
            return self.ops();
        }
        let rows = Self::rows(r);
        let first_rows = first.map(|f| Self::rows(&f.report));
        let mut failed = 0;
        for (k, (conn, row)) in r.connections.iter().zip(&rows).enumerate() {
            let e = &self.traffic.expect[k];
            let ok = conn.exit == Some(Exit::Halted(e.hits as i64))
                && conn.served == e.served()
                && row.is_some()
                && first_rows.as_ref().is_none_or(|f| f[k] == *row);
            failed += u64::from(!ok);
        }
        failed
    }

    fn traced_round(&self, fleet: &Fleet, t: &mut Tracer, reference: &Output) -> u64 {
        let (world, conns) = (&self.traffic.world, &self.traffic.connections);
        // Phase 1: capture every connection's segment trace.
        let mut reports = Vec::with_capacity(conns.len());
        let mut traces = Vec::with_capacity(conns.len());
        for (c, requests) in conns.iter().enumerate() {
            t.set_op(c);
            let (report, segments) = t.span(Layer::Capture, |_| {
                fleet.serve_one_traced(world, requests, &[], c, CONFIG.workers)
            });
            t.count(Count::Spawns, 1);
            t.count(Count::Insns, report.stats.instructions);
            t.count(Count::Recoveries, report.recovered);
            t.count(Count::Violations, report.violations.len() as u64);
            reports.push(report);
            traces.push(segments);
        }
        // Phase 2: the event loop. Phase 3: join and merge.
        t.count(Count::Segments, traces.iter().map(Vec::len).sum::<usize>() as u64);
        let des =
            t.span(Layer::Simulate, |_| event::simulate(&self.arrivals, &traces, &CONFIG, false));
        t.count(Count::Offered, des.dispositions.len() as u64);
        t.count(Count::Shed, des.shed);
        let merged = t.span(Layer::Merge, |t| self.merge(reports, &des, t));
        let export = t.span(Layer::Export, |_| export(&merged.registry));
        let r = &reference.report;
        if merged.stats != r.stats
            || merged.sojourns != r.sojourns
            || (merged.served, merged.recovered, merged.dropped)
                != (r.served, r.recovered, r.dropped)
            || export != reference.export
        {
            return self.ops();
        }
        merged.rows.iter().zip(Self::rows(r)).filter(|(a, b)| **a != *b).count() as u64
    }

    fn bless(&self, out: &Output) -> Json {
        let r = &out.report;
        let pct = |p| Json::U64(r.sojourn_percentile(p).unwrap_or(0));
        Json::obj(vec![
            ("workload", Json::Str(self.name().to_string())),
            ("seed", Json::U64(DEFAULT_SEED)),
            ("connections", Json::U64(self.ops())),
            ("fold", Json::Str(Self::fold(r).hex())),
            ("served", Json::U64(r.served)),
            ("recovered", Json::U64(r.recovered)),
            ("shed", Json::U64(r.shed)),
            ("wall_cycles", Json::U64(r.wall_cycles)),
            ("utilization", Json::F64(r.utilization())),
            ("sojourn_p50", pct(50.0)),
            ("sojourn_p99", pct(99.0)),
            ("sojourn_p999", pct(99.9)),
        ])
    }
}
