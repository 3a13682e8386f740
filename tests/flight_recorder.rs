//! Flight recorder: zero perturbation, width invariance, timeline content.
//!
//! The recorder's contract (DESIGN.md §14) is stronger than "low overhead":
//! arming it must not move one modelled number, and the merged fleet
//! timeline must be bit-identical at every worker width. Both properties
//! hold by construction — events are stamped with modelled cycles and their
//! track id is the *connection index*, never the scheduler's instance — and
//! this file is the differential test that keeps the construction honest.

use shift_core::{
    timeline_digest, Fleet, FlightConfig, Granularity, Mode, ShiftOptions, TraceKind,
};
use shift_workloads::apache::{
    apache_fleet, apache_program, exploit_request, fleet_connections, fleet_world, ApacheStream,
    SECRET_BYTES, SECRET_PATH,
};

/// The traced Apache fleet of `tests/fleet_serving.rs`, optionally with the
/// flight recorder armed (default ring cap, 100k-cycle sampling).
fn fleet(armed: bool) -> Fleet {
    let fleet = apache_fleet(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)));
    let shift = fleet.shift().clone().with_taint_trace();
    let shift = if armed {
        shift.with_flight_recorder(FlightConfig { cap: 4096, sample_cycles: 100_000 })
    } else {
        shift
    };
    shift.fleet(&apache_program()).expect("apache guest compiles")
}

/// The mixed stream with two exploit requests, so the timeline carries real
/// violation and recovery events, not just the happy path.
fn exploit_conns() -> Vec<Vec<Vec<u8>>> {
    let mut conns = fleet_connections(ApacheStream::Mixed, 6, 4);
    conns[1][0] = exploit_request();
    conns[4][2] = exploit_request();
    conns
}

#[test]
fn arming_the_recorder_perturbs_nothing_modelled() {
    let conns = exploit_conns();
    let world = fleet_world(ApacheStream::Mixed).file(SECRET_PATH, SECRET_BYTES.to_vec());
    let plain = fleet(false).serve(&world, &conns, 2);
    let traced = fleet(true).serve(&world, &conns, 2);

    // Every modelled number is bit-identical. (The metrics registries are
    // *not* compared whole: the armed one intentionally carries the extra
    // diagnostic `obs.trace.*` counters.)
    assert_eq!(plain.stats, traced.stats, "arming the recorder changed the merged stats");
    assert_eq!(plain.exits(), traced.exits());
    assert_eq!(plain.violations, traced.violations, "provenance chains must survive arming");
    assert_eq!(plain.wall_cycles, traced.wall_cycles);
    assert_eq!(
        (plain.requests, plain.served, plain.recovered, plain.dropped),
        (traced.requests, traced.served, traced.recovered, traced.dropped),
    );
    for (p, t) in plain.connections.iter().zip(&traced.connections) {
        assert_eq!(p.state_digest, t.state_digest, "connection {}", p.connection);
        assert_eq!(p.latencies, t.latencies, "connection {}", p.connection);
        assert_eq!(p.stats, t.stats, "connection {}", p.connection);
        assert!(p.trace.is_none(), "disarmed run grew a ring");
        assert!(t.trace.is_some(), "armed run lost its ring");
    }
    assert_eq!(plain.registry.counter("obs.trace.events"), 0);
    assert!(traced.registry.counter("obs.trace.events") > 0);
}

#[test]
fn merged_timeline_is_bit_identical_across_worker_widths() {
    let fleet = fleet(true);
    let conns = exploit_conns();
    let world = fleet_world(ApacheStream::Mixed).file(SECRET_PATH, SECRET_BYTES.to_vec());

    let reference = fleet.serve(&world, &conns, 1);
    let ref_events = reference.merged_trace_events();
    let ref_samples = reference.merged_samples();
    assert!(!ref_events.is_empty());
    assert!(!ref_samples.is_empty());
    let ref_digest = timeline_digest(&ref_events);

    for width in [2usize, 8] {
        let report = fleet.serve(&world, &conns, width);
        let events = report.merged_trace_events();
        assert_eq!(
            timeline_digest(&events),
            ref_digest,
            "width {width}: merged timeline diverged from width 1"
        );
        // The digest skips host_ns by design; everything else is compared
        // field-for-field here so a digest bug cannot hide a divergence.
        assert_eq!(events.len(), ref_events.len(), "width {width}");
        for (a, b) in events.iter().zip(&ref_events) {
            assert_eq!(
                (a.cycle, a.dur, a.worker, a.seq, &a.kind),
                (b.cycle, b.dur, b.worker, b.seq, &b.kind),
                "width {width}"
            );
        }
        assert_eq!(report.merged_samples(), ref_samples, "width {width}: samples diverged");
        assert_eq!(report.trace_dropped(), reference.trace_dropped(), "width {width}");
    }
}

#[test]
fn timeline_content_reflects_the_run() {
    let fleet = fleet(true);
    let conns = exploit_conns();
    let world = fleet_world(ApacheStream::Mixed).file(SECRET_PATH, SECRET_BYTES.to_vec());
    let report = fleet.serve(&world, &conns, 2);
    let events = report.merged_trace_events();

    // Track ids are connection indices: every connection contributes a
    // whole-session span on its own track, and no track id reaches the
    // fleet width (which would betray an instance id leaking through).
    for (c, _) in conns.iter().enumerate() {
        assert!(
            events.iter().any(|e| e.worker == c as u64
                && matches!(e.kind, TraceKind::Connection { connection } if connection == c as u64)),
            "connection {c} has no session span"
        );
    }
    assert!(events.iter().all(|e| (e.worker as usize) < conns.len()));

    // One request span per completed request, and the violation instants
    // carry the policy that fired with the action the config chose.
    let requests = events.iter().filter(|e| matches!(e.kind, TraceKind::Request { .. })).count();
    assert_eq!(requests as u64, report.served + report.recovered, "request spans vs accounting");
    let violations: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            TraceKind::Violation { policy, action } => Some((policy.as_str(), action.as_str())),
            _ => None,
        })
        .collect();
    assert_eq!(violations.len(), report.violations.len());
    for (policy, action) in violations {
        assert!(report.violations.iter().any(|v| v.policy == policy), "unknown policy {policy}");
        assert_eq!(action, "abort_transaction");
    }
    // Each exploit rollback leaves a recovery instant on the right track.
    for c in [1u64, 4] {
        assert!(
            events.iter().any(|e| e.worker == c && matches!(e.kind, TraceKind::Recovery { .. })),
            "connection {c} recovered without a recovery event"
        );
    }
}

/// Every syscall that charges I/O wait leaves one `SyscallIo` instant, so an
/// armed trace shows exactly the legs the open-loop scheduler replays: for a
/// connection with no recovery (whose redeliveries charge without closing a
/// leg), one instant per closed leg — every segment but the terminal one.
#[test]
fn every_charged_syscall_leaves_an_io_instant() {
    let fleet = fleet(true);
    let conns = fleet_connections(ApacheStream::Mixed, 6, 4);
    let world = fleet_world(ApacheStream::Mixed);
    for (c, requests) in conns.iter().enumerate() {
        let (report, segments) = fleet.serve_one_traced(&world, requests, &[], c, 1);
        assert_eq!(report.recovered, 0, "connection {c} is benign");
        let ring = report.trace.expect("armed run keeps its ring");
        assert_eq!(ring.dropped(), 0, "connection {c} overflowed the ring");
        let io = ring.events().filter(|e| matches!(e.kind, TraceKind::SyscallIo { .. })).count();
        assert_eq!(io, segments.len() - 1, "connection {c}: I/O instants vs closed legs");
    }
}
