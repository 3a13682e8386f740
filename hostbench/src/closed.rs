//! `fleet-closed`: the closed-loop fleet at modelled width 2 over the
//! seeded mixed Apache stream in byte mode. One request in eight is a traversal exploit: it
//! trips H2 and `AbortTransaction` rolls it back.

use shift_core::metrics::serve_metrics;
use shift_core::replay::exit_signature;
use shift_core::{
    Exit, Fault, Fleet, FleetReport, Granularity, Json, Mode, Policy, ProgramImage, Registry,
    Runtime, ServeReport, Shift, ShiftOptions, Stats, Violation, ViolationAction, World,
};
use shift_ir::Program;
use shift_workloads::apache::{apache_fleet, apache_program};

use crate::gen::{traffic, Traffic};
use crate::oracle::{has_str, has_u64, Fold, Oracle, DEFAULT_SEED};
use crate::trace::{Count, Layer, TimedOs, Tracer};
use crate::{export, Workload};

/// Modelled fleet width. The host serves the connections on one thread
/// (`Fleet::serve_sequential`), which yields the same report as
/// `Fleet::serve` at this width.
const WIDTH: usize = 2;

/// Connections per round are `DECKS × 8`.
const DECKS: usize = 8;

/// The workload: the generated traffic and the byte-mode serving session.
pub struct FleetClosed {
    traffic: Traffic,
    shift: Shift,
    program: Program,
    oracle: Oracle,
}

/// A round's outputs: the fleet report and its exported registry.
pub struct Output {
    report: FleetReport,
    export: String,
}

/// One connection served by the traced session loop.
struct Served {
    exit: Exit,
    served: u64,
    recovered: u64,
    dropped: u64,
    stats: Stats,
    latencies: Vec<u64>,
    violations: Vec<Violation>,
    state_digest: u64,
    registry: Registry,
}

impl FleetClosed {
    /// The workload at `seed`.
    pub fn new(seed: u64, oracle: Oracle) -> FleetClosed {
        let mode = Mode::Shift(ShiftOptions::baseline(Granularity::Byte));
        FleetClosed {
            traffic: traffic(seed, "hostbench/fleet-closed", DECKS, true),
            // The session options of the repository's Apache fleet.
            shift: apache_fleet(mode).shift().clone(),
            program: apache_program(),
            oracle,
        }
    }

    /// The connection's outcome must follow from its requests alone.
    fn meets_expectation(
        &self,
        c: usize,
        exit: &Exit,
        served: u64,
        recovered: u64,
        dropped: u64,
        violations: &[Violation],
    ) -> bool {
        let e = &self.traffic.expect[c];
        *exit == Exit::Halted(e.hits as i64)
            && served == e.served()
            && recovered == e.exploits
            && dropped == 0
            && violations.len() as u64 == e.exploits
            && violations.iter().all(|v| v.policy == "H2")
    }

    fn fold(report: &FleetReport) -> Fold {
        let mut fold = Fold::new();
        for c in &report.connections {
            fold.add(&exit_signature(&c.exit), c.state_digest);
        }
        fold
    }

    /// The session loop of `ServeSession::advance` and `finish`, driven
    /// from outside with every layer call in a span.
    fn serve_traced(&self, fleet: &Fleet, requests: &[Vec<u8>], t: &mut Tracer) -> Served {
        let shift = fleet.shift();
        let world =
            requests.iter().fold(self.traffic.world.clone(), |w: World, m| w.net(m.clone()));
        let mut machine = t.span(Layer::Spawn, |_| fleet.image().spawn());
        t.count(Count::Spawns, 1);
        machine.arm_watchdog(shift.fuel());
        let mut runtime = Runtime::new(shift.config().clone(), world, shift.granularity())
            .with_io(shift.io())
            .with_transactions();
        let mut leg_base = machine.stats.instructions;
        let mut empty_recovery_at = None;
        let exit = loop {
            let budget = shift.insn_limit().saturating_sub(machine.stats.instructions - leg_base);
            let exit = t.span(Layer::Run, |t| {
                machine.run(&mut TimedOs { runtime: &mut runtime, tracer: t }, budget)
            });
            let recoverable = match &exit {
                Exit::Halted(_) | Exit::InsnLimit | Exit::Violation(_) | Exit::Parked => false,
                Exit::FuelExhausted => true,
                Exit::Fault(f @ Fault::NatConsumption { kind, .. }) => {
                    let p = Policy::from_fault(*kind);
                    runtime.record_violation(Violation {
                        policy: p.name().to_string(),
                        message: format!("detected by hardware: {f}"),
                        ip: machine.cpu.ip,
                        provenance: None,
                    });
                    runtime.config().action_for(p) != ViolationAction::Terminate
                }
                Exit::Fault(_) => true,
            };
            if recoverable && empty_recovery_at != Some(runtime.requests_delivered) {
                let delivered = runtime.requests_delivered;
                if t.span(Layer::Recover, |_| runtime.recover(&mut machine)) {
                    if runtime.requests_delivered == delivered {
                        empty_recovery_at = Some(delivered);
                    }
                    leg_base = machine.stats.instructions;
                    continue;
                }
            }
            break exit;
        };
        runtime.finish_request_window(machine.stats.total_time());
        let halted = matches!(exit, Exit::Halted(_));
        let open = runtime.open_request();
        t.count_machine(&machine);
        t.count(Count::Recoveries, runtime.recoveries);
        t.count(Count::Violations, runtime.violations.len() as u64);
        let report = ServeReport {
            exit,
            served: runtime.completed_requests + u64::from(halted && open),
            recovered: runtime.aborted_requests,
            dropped: u64::from(!halted && open) + runtime.pending_requests() as u64,
            recovery_cycles: runtime.recovery_cycles,
            violations: runtime.violations.clone(),
            stats: machine.stats.clone(),
            runtime,
            machine,
        };
        let registry = t.span(Layer::Report, |_| serve_metrics(&report));
        let state_digest = t.span(Layer::Digest, |_| report.machine.state_digest());
        Served {
            latencies: report.runtime.request_latencies.clone(),
            exit: report.exit,
            served: report.served,
            recovered: report.recovered,
            dropped: report.dropped,
            stats: report.stats,
            violations: report.violations,
            state_digest,
            registry,
        }
    }
}

impl Workload for FleetClosed {
    type Prepared = Fleet;
    type Output = Output;

    fn name(&self) -> &'static str {
        "fleet-closed"
    }

    fn ops(&self) -> u64 {
        self.traffic.connections.len() as u64
    }

    fn shape(&self) -> String {
        format!("width={WIDTH} mode=byte {}", self.traffic.shape())
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
        let report = fleet.serve_sequential(world, conns, WIDTH);
        let export = export(&report.registry);
        Output { report, export }
    }

    fn work(&self, out: &Output) -> (u64, u64) {
        (out.report.stats.instructions, out.report.served + out.report.recovered)
    }

    fn failures(&self, out: &Output, first: Option<&Output>) -> u64 {
        let r = &out.report;
        let committed_ok = match &self.oracle {
            Oracle::Missing => false,
            Oracle::Off => true,
            Oracle::Committed(j) => {
                has_u64(j, "connections", self.ops())
                    && has_str(j, "fold", &Self::fold(r).hex())
                    && has_u64(j, "served", r.served)
                    && has_u64(j, "recovered", r.recovered)
                    && has_u64(j, "dropped", r.dropped)
                    && has_u64(j, "wall_cycles", r.wall_cycles)
                    && has_u64(j, "instructions", r.stats.instructions)
            }
        };
        let same_export = first.is_none_or(|f| f.export == out.export);
        if !committed_ok || !same_export || r.connections.len() as u64 != self.ops() {
            return self.ops();
        }
        let mut failed = 0;
        for (k, c) in r.connections.iter().enumerate() {
            let ok =
                self.meets_expectation(k, &c.exit, c.served, c.recovered, c.dropped, &c.violations)
                    && first.is_none_or(|f| {
                        let g = &f.report.connections[k];
                        g.exit == c.exit
                            && g.state_digest == c.state_digest
                            && g.stats == c.stats
                            && g.latencies == c.latencies
                    });
            failed += u64::from(!ok);
        }
        failed
    }

    fn traced_round(&self, fleet: &Fleet, t: &mut Tracer, reference: &Output) -> u64 {
        let served: Vec<Served> = (self.traffic.connections.iter().enumerate())
            .map(|(c, requests)| {
                t.set_op(c);
                self.serve_traced(fleet, requests, t)
            })
            .collect();
        let reference_conns = &reference.report.connections;
        let mut mismatched = served
            .iter()
            .zip(reference_conns)
            .filter(|(s, r)| {
                s.exit != r.exit
                    || s.served != r.served
                    || s.recovered != r.recovered
                    || s.dropped != r.dropped
                    || s.stats != r.stats
                    || s.state_digest != r.state_digest
                    || s.latencies != r.latencies
                    || s.violations != r.violations
            })
            .count() as u64;
        // `Fleet::serve`'s aggregate: exact sums in connection order, and
        // the busiest modelled instance's time as the makespan.
        let mut stats = Stats::new();
        let mut registry = Registry::new();
        let mut busy = [0u64; WIDTH];
        for (c, s) in served.iter().enumerate() {
            stats.merge(&s.stats);
            t.span(Layer::RegistryMerge, |_| registry.merge(&s.registry));
            busy[c % WIDTH] += s.stats.total_time();
        }
        let export = t.span(Layer::Export, |_| export(&registry));
        if stats != reference.report.stats
            || busy.into_iter().max() != Some(reference.report.wall_cycles)
            || export != reference.export
        {
            mismatched = self.ops();
        }
        mismatched
    }

    fn bless(&self, out: &Output) -> Json {
        let r = &out.report;
        Json::obj(vec![
            ("workload", Json::Str(self.name().to_string())),
            ("seed", Json::U64(DEFAULT_SEED)),
            ("connections", Json::U64(self.ops())),
            ("fold", Json::Str(Self::fold(r).hex())),
            ("served", Json::U64(r.served)),
            ("recovered", Json::U64(r.recovered)),
            ("dropped", Json::U64(r.dropped)),
            ("wall_cycles", Json::U64(r.wall_cycles)),
            ("instructions", Json::U64(r.stats.instructions)),
        ])
    }
}
