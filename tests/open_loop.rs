//! Open-loop fleet scheduling: segment traces, host invariance, bounded
//! memory, and record/replay of arrival schedules.
//!
//! The event-driven scheduler multiplexes thousands of connections over a
//! handful of modelled workers by replaying each connection's segment trace
//! — the `(cpu, io)` legs the runtime's leg log records while the
//! connection runs straight through once (DESIGN.md §16). This file checks
//! that those legs partition the session exactly — deterministically on the
//! nastiest inputs (exploits, fault injections, recovery redeliveries) and
//! property-tested on arbitrary request streams — and then the
//! scheduler-level invariants: the merged open-loop report is identical at
//! any host worker count, peak guest memory tracks residency rather than
//! offered load, an open-loop run round-trips through the replay-log schema
//! with its materialized arrival schedule intact, and a small twin of CI's
//! open-loop smoke keeps its pinned outputs.

use std::sync::OnceLock;

use proptest::prelude::*;
use shift_core::{Fleet, OpenLoopConfig, ReplayLog};
use shift_workloads::apache::{
    apache_fleet, exploit_request, fleet_connections, fleet_world, ApacheStream, SECRET_BYTES,
    SECRET_PATH,
};
use shift_workloads::{chaos, ArrivalProcess, Rng};

/// One shared compiled fleet — compilation is the expensive part, and every
/// test here serves from a pristine spawn anyway.
fn fleet() -> &'static Fleet {
    static FLEET: OnceLock<Fleet> = OnceLock::new();
    FLEET.get_or_init(|| {
        apache_fleet(shift_core::Mode::Shift(shift_core::ShiftOptions::baseline(
            shift_core::Granularity::Byte,
        )))
    })
}

/// The mixed production stream with a planted exploit and the secret file
/// it exfiltrates, so the runs cover violations and recovery.
fn hostile_setup(connections: usize, requests: usize) -> (shift_core::World, Vec<Vec<Vec<u8>>>) {
    let mut conns = fleet_connections(ApacheStream::Mixed, connections, requests);
    conns[1 % connections][0] = exploit_request();
    let world = fleet_world(ApacheStream::Mixed).file(SECRET_PATH, SECRET_BYTES.to_vec());
    (world, conns)
}

/// The segment trace partitions the session on the hostile deterministic
/// stream, with chaos fault injections armed so recovery redeliveries
/// (whose I/O closes no leg) are on the covered path: cpu and io legs sum
/// exactly to the session totals the scheduler will replay.
#[test]
fn segment_traces_partition_hostile_sessions() {
    let fleet = fleet();
    let (world, conns) = hostile_setup(6, 4);
    let mut rng = Rng::new(chaos::derive(0xD1FF, "park-differential"));
    for (c, requests) in conns.iter().enumerate() {
        let injections: Vec<_> =
            (0..rng.below(3)).map(|_| chaos::random_fleet_injection(&mut rng)).collect();
        let (report, segments) = fleet.serve_one_traced(&world, requests, &injections, c, 8);
        let cpu: u64 = segments.iter().map(|s| s.cpu).sum();
        let io: u64 = segments.iter().map(|s| s.io).sum();
        assert_eq!(cpu, report.stats.cycles, "connection {c}: cpu legs don't partition");
        assert_eq!(io, report.stats.io_cycles, "connection {c}: io legs don't partition");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// For *arbitrary* request streams — malformed bytes, empty requests,
    /// anything — the segment trace partitions the session exactly.
    #[test]
    fn segment_traces_partition_arbitrary_streams(
        requests in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 0..3),
        inject_seed in any::<u64>(),
    ) {
        let fleet = fleet();
        let world = fleet_world(ApacheStream::Mixed);
        let mut rng = Rng::new(inject_seed);
        let injections: Vec<_> =
            (0..rng.below(2)).map(|_| chaos::random_fleet_injection(&mut rng)).collect();
        let (report, segments) = fleet.serve_one_traced(&world, &requests, &injections, 0, 1);
        let cpu: u64 = segments.iter().map(|s| s.cpu).sum();
        let io: u64 = segments.iter().map(|s| s.io).sum();
        prop_assert_eq!(cpu, report.stats.cycles);
        prop_assert_eq!(io, report.stats.io_cycles);
    }
}

/// Everything in an [`shift_core::OpenLoopReport`] that is contractually
/// host-invariant, flattened for equality comparison.
fn fingerprint(r: &shift_core::OpenLoopReport) -> (Vec<u64>, Vec<String>, String) {
    let numbers = vec![
        r.offered,
        r.completed,
        r.shed,
        r.requests,
        r.served,
        r.recovered,
        r.dropped,
        r.wall_cycles,
        r.busy_cycles,
        r.peak_queue_depth,
        r.peak_resident,
        r.owned_pages_total,
        r.peak_owned_pages,
        r.stats.cycles,
        r.stats.instructions,
    ];
    let mut rows: Vec<String> = r
        .connections
        .iter()
        .map(|c| {
            format!("{}:{:?}:{:?}:{:?}", c.connection, c.disposition, c.sojourn, c.state_digest)
        })
        .collect();
    rows.extend(r.sojourns.iter().map(|s| s.to_string()));
    rows.extend(r.violations.iter().map(|v| format!("{}@{}", v.policy, v.ip)));
    (numbers, rows, r.registry.to_json().render())
}

/// Host threads only accelerate the simulation: the merged open-loop
/// report is bit-identical at 1, 2, and 8 host workers.
#[test]
fn open_loop_report_is_host_worker_invariant() {
    let fleet = fleet();
    let (world, conns) = hostile_setup(12, 2);
    let arrivals = ArrivalProcess::Poisson { rate_rps: 20_000.0 }.schedule(conns.len(), 0xA221);
    let cfg = OpenLoopConfig { workers: 2, accept_cap: 4, max_resident: 3, quantum: 50_000 };
    let reference = fleet.serve_open_loop(&world, &conns, &[], &arrivals, &cfg, 1);
    // The tight caps must actually exercise admission control here, or the
    // invariance claim is vacuous on the interesting paths.
    assert!(reference.peak_queue_depth > 0, "queueing never happened");
    for host in [2usize, 8] {
        let other = fleet.serve_open_loop(&world, &conns, &[], &arrivals, &cfg, host);
        assert_eq!(
            fingerprint(&reference),
            fingerprint(&other),
            "host_workers={host} changed the modelled report"
        );
    }
}

/// Peak guest memory is bounded by residency, not offered load: quadrupling
/// the connection count at a fixed `max_resident` leaves the peak owned
/// page count of any single guest unchanged, and residency never exceeds
/// its cap.
#[test]
fn peak_memory_tracks_residency_not_offered_load() {
    let fleet = fleet();
    let world = fleet_world(ApacheStream::Mixed);
    let cfg = OpenLoopConfig { workers: 4, accept_cap: 64, max_resident: 4, quantum: 100_000 };
    let run = |n: usize| {
        let conns = fleet_connections(ApacheStream::Mixed, n, 2);
        let arrivals = ArrivalProcess::Poisson { rate_rps: 50_000.0 }.schedule(n, 0xBEE5);
        fleet.serve_open_loop(&world, &conns, &[], &arrivals, &cfg, 4)
    };
    let small = run(24);
    let large = run(96);
    assert!(small.peak_resident <= 4 && large.peak_resident <= 4);
    assert_eq!(
        small.peak_owned_pages, large.peak_owned_pages,
        "peak per-guest pages must not grow with offered connections"
    );
    // Total pages DO grow with completions — that is the load, not the
    // footprint.
    assert!(large.owned_pages_total > small.owned_pages_total);
}

/// An open-loop run — including a saturated one that sheds — captures to a
/// replay log that round-trips through render → parse, replays
/// bit-identically (shed connections skipped), and carries the materialized
/// arrival schedule through the schema unchanged.
#[test]
fn open_loop_runs_record_and_replay() {
    let fleet = fleet();
    let (world, conns) = hostile_setup(16, 2);
    let process = ArrivalProcess::Bursty { rate_rps: 400_000.0, burst: 8 };
    let arrivals = process.schedule(conns.len(), 0xC0FE);
    // Tight caps at a bursty overload: some connections must shed so the
    // log records both kinds of outcome.
    let cfg = OpenLoopConfig { workers: 2, accept_cap: 3, max_resident: 2, quantum: 25_000 };
    let report = fleet.serve_open_loop(&world, &conns, &[], &arrivals, &cfg, 4);
    assert!(report.shed > 0, "overload must shed for this test to bite");
    assert!(report.completed > 0, "something must complete too");

    let log = ReplayLog::capture_open_loop(
        "apache",
        fleet,
        &world,
        &conns,
        &[],
        0xC0FE,
        &process.spec(),
        &arrivals,
        &report,
    );
    let parsed = ReplayLog::parse(&log.render()).expect("rendered log parses");
    assert_eq!(parsed, log, "open-loop log must round-trip exactly");
    let ol = parsed.open_loop.as_ref().expect("open-loop section recorded");
    assert_eq!(ol.arrivals, arrivals, "materialized arrival schedule must survive the schema");
    assert_eq!(ol.spec, process.spec());
    assert_eq!((ol.completed, ol.shed), (report.completed, report.shed));

    // Shed rows carry the placeholder outcome; completed rows replay
    // bit-identically through `serve_one`, the same run the trace capture
    // made.
    let shed_rows = parsed.expected.iter().filter(|e| e.is_shed()).count();
    assert_eq!(shed_rows as u64, report.shed);
    let rebuilt = parsed
        .build_fleet(&shift_workloads::apache::apache_program())
        .expect("image digest matches");
    let outcomes = parsed.verify(&rebuilt);
    assert_eq!(outcomes.len() as u64, report.completed, "verify skips shed connections");
    for o in &outcomes {
        assert!(o.matches(), "connection {} diverged: {:?}", o.connection, o.mismatches);
    }

    // The replayed legs re-drive the recorded schedule to the recorded
    // completed/shed/makespan; a log that disagrees with them diverges.
    assert_eq!(parsed.verify_schedule(&outcomes), Vec::<String>::new());
    let tamper = |edit: &dyn Fn(&mut shift_core::OpenLoopLog)| {
        let mut log = parsed.clone();
        edit(log.open_loop.as_mut().unwrap());
        log.verify_schedule(&outcomes)
    };
    let wall = tamper(&|ol| ol.wall_cycles += 1);
    assert_eq!(wall.len(), 1, "{wall:?}");
    assert!(wall[0].starts_with("wall_cycles: recorded"), "{wall:?}");
    let shed = tamper(&|ol| ol.shed += 1);
    assert_eq!(shed.len(), 1, "{shed:?}");
    assert!(shed[0].starts_with("shed: recorded"), "{shed:?}");
}

/// The closed and the open loop merge connections the same way: on the
/// hostile stream with a chaos plan, and with caps loose enough that
/// nothing is shed, both give the same stats, request counts, violations,
/// page totals, and Prometheus export once the `openloop.*` series (which
/// only the open loop has) are set aside.
#[test]
fn closed_and_open_loop_merges_agree() {
    let fleet = fleet();
    let (world, conns) = hostile_setup(12, 3);
    let mut rng = Rng::new(chaos::derive(0x3E26, "merge-agreement"));
    let faults = chaos::random_fault_plan(&mut rng, conns.len());
    let closed = fleet.serve_chaos(&world, &conns, &faults, 2);
    let arrivals = ArrivalProcess::Poisson { rate_rps: 20_000.0 }.schedule(conns.len(), 0x3E26);
    let cfg = OpenLoopConfig { workers: 2, accept_cap: 1 << 16, max_resident: 1 << 16, quantum: 0 };
    let open = fleet.serve_open_loop(&world, &conns, &faults, &arrivals, &cfg, 2);
    assert_eq!(open.shed, 0, "the caps must admit every connection");
    // The plan must put recovery and violations on the merged path.
    assert!(closed.recovered > 0 && !closed.violations.is_empty(), "{closed:?}");

    assert_eq!(open.stats, closed.stats);
    assert_eq!(
        (open.requests, open.served, open.recovered, open.dropped),
        (closed.requests, closed.served, closed.recovered, closed.dropped)
    );
    assert_eq!(open.violations, closed.violations);
    assert_eq!(
        (open.owned_pages_total, open.peak_owned_pages),
        (closed.owned_pages_total, closed.peak_owned_pages)
    );
    let open_export = open.registry.to_prometheus();
    let open_lines: Vec<&str> =
        open_export.lines().filter(|l| !l.contains("shift_openloop_")).collect();
    let closed_export = closed.registry.to_prometheus();
    assert_eq!(open_lines, closed_export.lines().collect::<Vec<_>>());
}

/// FNV-1a over the little-endian bytes of `values`: a compact pin for a
/// list of modelled cycle counts.
fn fnv(values: &[u64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// A small twin of CI's open-loop smoke (`shift serve --mode byte --arrivals
/// poisson:30000 --requests 2 --workers 8 --accept-cap 1024 --max-resident
/// 256 --seed 42`, at 256 connections): the smoke's deterministic checks,
/// plus the modelled makespan, busy time and sorted sojourn list pinned to
/// their values, so any change to how segment traces are captured or
/// replayed shows here.
#[test]
fn open_loop_smoke_twin_is_pinned() {
    let fleet = fleet();
    let conns = fleet_connections(ApacheStream::Mixed, 256, 2);
    let world = fleet_world(ApacheStream::Mixed);
    let process = ArrivalProcess::parse("poisson:30000").expect("valid spec");
    let arrivals = process.schedule(conns.len(), chaos::derive(42, "arrivals"));
    let cfg = OpenLoopConfig { workers: 8, accept_cap: 1024, max_resident: 256, quantum: 100_000 };
    let report = fleet.serve_open_loop(&world, &conns, &[], &arrivals, &cfg, 2);

    assert_eq!(report.offered, 256);
    assert_eq!(report.completed + report.shed, report.offered);
    assert_eq!(report.shed, 0, "below saturation nothing is shed");
    let p = |q| report.sojourn_percentile(q).expect("completions exist");
    let max = *report.sojourns.last().expect("completions exist");
    assert!(0 < p(50.0) && p(50.0) <= p(99.0) && p(99.0) <= p(99.9) && p(99.9) <= max);
    assert!(report.peak_resident <= 256);
    assert!(report.registry.counter("machine.blocks.hits") > 0);
    assert_eq!(report.registry.counter("machine.blocks.misses"), 0);

    let pinned = (report.wall_cycles, report.busy_cycles, fnv(&report.sojourns));
    assert_eq!(
        pinned,
        (14_145_796, 3_515_904, 15_095_728_039_535_834_533),
        "open-loop outputs moved"
    );
}
