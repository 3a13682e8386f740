//! Fleet serving engine: scheduler invariance, image hygiene, accounting.
//!
//! The fleet's contract is that host-side scheduling is *invisible* in every
//! modelled number: serving N connections across 1, 2, or 8 workers — or on
//! the serial reference path — must merge to bit-identical stats, exits,
//! violations (provenance strings included), and metrics. Only the modelled
//! makespan (and therefore throughput) may move with the fleet width.
//!
//! Alongside the differential checks, this file pins the serve-accounting
//! partition (`served + recovered + in-flight == requests delivered`) on the
//! nastiest path — a fault that recurs after an empty-queue rollback — and
//! property-tests that serving never leaks state back into the shared
//! [`ProgramImage`].

use std::sync::OnceLock;

use proptest::prelude::*;
use shift_core::{
    Exit, Fleet, Granularity, Mode, ProgramImage, Shift, ShiftOptions, TaintConfig,
    ViolationAction, World,
};
use shift_ir::{Program, ProgramBuilder, Rhs};
use shift_isa::{make_vaddr, sys, CmpRel};
use shift_machine::PAGE_SIZE;
use shift_workloads::apache::{
    apache_fleet, apache_program, exploit_request, fleet_connections, fleet_world, ApacheStream,
    SECRET_BYTES, SECRET_PATH,
};

/// The Apache fleet of [`apache_fleet`], with taint tracing switched on so
/// violations carry their full provenance chains into the merge.
fn traced_fleet() -> Fleet {
    let fleet = apache_fleet(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)));
    fleet.shift().clone().with_taint_trace().fleet(&apache_program()).expect("apache compiles")
}

#[test]
fn merged_results_are_bit_identical_across_worker_widths() {
    let fleet = traced_fleet();
    let mut conns = fleet_connections(ApacheStream::Mixed, 6, 4);
    // Two connections carry an exploit each, so the merge has real
    // violations — with provenance — to keep in connection order.
    conns[1][0] = exploit_request();
    conns[4][2] = exploit_request();
    let world = fleet_world(ApacheStream::Mixed).file(SECRET_PATH, SECRET_BYTES.to_vec());

    let reference = fleet.serve_sequential(&world, &conns, 1);
    assert_eq!(reference.violations.len(), 2, "{:?}", reference.exits());
    assert!(
        reference.violations.iter().all(|v| v.provenance.is_some()),
        "taint tracing must attach provenance chains"
    );

    for width in [1usize, 2, 8] {
        let parallel = fleet.serve(&world, &conns, width);
        // Nothing modelled may depend on scheduling: not the merged stats,
        // not the per-connection exits, not the violation provenance, not
        // the rendered metrics.
        assert_eq!(parallel.stats, reference.stats, "width {width}: stats diverged");
        assert_eq!(parallel.exits(), reference.exits(), "width {width}");
        assert_eq!(parallel.violations, reference.violations, "width {width}");
        assert_eq!(
            parallel.registry.to_json().render(),
            reference.registry.to_json().render(),
            "width {width}: metrics diverged"
        );
        assert_eq!(
            (parallel.requests, parallel.served, parallel.recovered, parallel.dropped),
            (reference.requests, reference.served, reference.recovered, reference.dropped),
            "width {width}: accounting diverged"
        );
        for (p, r) in parallel.connections.iter().zip(&reference.connections) {
            assert_eq!(p.state_digest, r.state_digest, "connection {}", r.connection);
            assert_eq!(p.latencies, r.latencies, "connection {}", r.connection);
        }
        // The threaded scheduler and the serial loop agree on everything at
        // the same width — modelled makespan included.
        let serial = fleet.serve_sequential(&world, &conns, width);
        assert_eq!(parallel.wall_cycles, serial.wall_cycles, "width {width}");
        assert_eq!(parallel.workers, serial.workers);
    }
}

#[test]
fn throughput_is_the_only_width_dependent_aggregate() {
    let fleet = traced_fleet();
    let conns = fleet_connections(ApacheStream::Mixed, 8, 4);
    let world = fleet_world(ApacheStream::Mixed);
    let one = fleet.serve(&world, &conns, 1);
    let eight = fleet.serve(&world, &conns, 8);
    assert_eq!(one.stats, eight.stats);
    assert!(one.nothing_dropped() && eight.nothing_dropped());
    assert!(
        eight.requests_per_sec() >= 3.0 * one.requests_per_sec(),
        "8-wide fleet only reached {:.2}x the 1-wide throughput",
        eight.requests_per_sec() / one.requests_per_sec()
    );
}

/// A server that remembers each request's first eight bytes in a global,
/// then *audits* the remembered value after the stream ends by dereferencing
/// it. The poison is older than the last checkpoint, so rolling back and
/// re-running the post-stream code faults identically every time — the
/// empty-queue livelock shape the serve loop must refuse to spin on.
fn sticky_audit_app() -> Program {
    let mut pb = ProgramBuilder::new();
    let g = pb.global_zeroed("sticky", 8);
    pb.func("main", 0, move |f| {
        let req = f.local(64);
        let reqp = f.local_addr(req);
        let gp = f.global_addr(g);
        f.loop_(|f| {
            let cap = f.iconst(63);
            let n = f.syscall(sys::NET_READ, &[reqp, cap]);
            f.if_cmp(CmpRel::Le, n, Rhs::Imm(0), |f| f.break_());
            let v = f.load8(reqp, 0);
            f.store8(v, gp, 0);
        });
        let p = f.load8(gp, 0);
        f.if_cmp(CmpRel::Ne, p, Rhs::Imm(0), |f| {
            let v = f.load1(p, 0); // tainted pointer ⇒ L1 fault, every run
            f.ret(Some(v));
        });
        let z = f.iconst(0);
        f.ret(Some(z));
    });
    pb.build().unwrap()
}

#[test]
fn recurring_tail_fault_ends_the_session_with_exact_accounting() {
    let mut cfg = TaintConfig::default_secure();
    cfg.set_default_action(ViolationAction::AbortTransaction);
    let shift = Shift::new(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)))
        .with_config(cfg)
        .with_insn_limit(2_000_000);
    let world = World::new().net(&b"AAAAAAAA"[..]).net(&b"BBBBBBBB"[..]);
    let report = shift.serve(&sticky_audit_app(), world).unwrap();

    // One rollback is allowed (it might clear a poisoned request); when the
    // re-run faults again with nothing left to redeliver, the session must
    // surface the fault — not respin to the instruction limit.
    assert!(matches!(report.exit, Exit::Fault(_)), "expected the fault, got {:?}", report.exit);
    assert!(report.stats.instructions < 100_000, "livelocked: {} insns", report.stats.instructions);
    assert_eq!(report.runtime.recoveries, 1, "exactly one rollback attempt");

    // Both requests completed before the audit ran; the empty-window
    // rollback aborted none of them. served/recovered/dropped must
    // partition the delivered stream exactly — no saturating arithmetic.
    assert_eq!(report.runtime.requests_delivered, 2);
    assert_eq!(report.served, 2);
    assert_eq!(report.recovered, 0);
    assert_eq!(report.dropped, 0);
    assert_eq!(
        report.served + report.recovered + report.dropped,
        report.runtime.requests_delivered
    );
}

#[test]
fn empty_chaos_plan_is_bit_identical_to_plain_serving() {
    // `serve` is `serve_chaos` with no injections; the chaos entry point
    // must not perturb an uninjected run in any modelled number.
    let fleet = traced_fleet();
    let conns = fleet_connections(ApacheStream::Mixed, 5, 3);
    let world = fleet_world(ApacheStream::Mixed);
    let plain = fleet.serve(&world, &conns, 2);
    let chaos = fleet.serve_chaos(&world, &conns, &[], 2);
    assert_eq!(plain.stats, chaos.stats);
    assert_eq!(plain.exits(), chaos.exits());
    assert_eq!(plain.wall_cycles, chaos.wall_cycles);
    for (p, c) in plain.connections.iter().zip(&chaos.connections) {
        assert_eq!(p.state_digest, c.state_digest, "connection {}", p.connection);
    }
}

#[test]
fn recording_does_not_perturb_the_run_it_records() {
    // A replay log is assembled *after* the fact from the run's inputs and
    // report; re-serving after a capture must be bit-identical, and the log
    // itself must replay against the same fleet without divergence.
    let fleet = traced_fleet();
    let conns = fleet_connections(ApacheStream::Mixed, 4, 3);
    let world = fleet_world(ApacheStream::Mixed);
    let first = fleet.serve_chaos(&world, &conns, &[], 2);
    let log = shift_core::ReplayLog::capture("apache", &fleet, &world, &conns, &[], 7, &first);
    let second = fleet.serve_chaos(&world, &conns, &[], 2);
    assert_eq!(first.stats, second.stats, "capture perturbed the fleet");
    for (a, b) in first.connections.iter().zip(&second.connections) {
        assert_eq!(a.state_digest, b.state_digest);
    }
    for outcome in log.verify(&fleet) {
        assert!(outcome.matches(), "replay diverged: {:?}", outcome.mismatches);
    }
}

/// Memory-diet regression: 256 instances served from one Apache seed must
/// cost at least 10× less private memory per instance than a deep-clone
/// fleet (every resident page copied per spawn) would — while the instances
/// stay observably independent and the pristine image stays pristine.
#[test]
fn fleet_of_256_pays_a_fraction_of_the_deep_clone_footprint() {
    // The stock Apache image is tiny (a single resident data page), so
    // sharing it proves nothing. Weigh it down with a 100-page static
    // segment — the shape of a real server's read-mostly image — placed
    // well past the compiler's global layout in the static-data region.
    const EXTRA_PAGES: usize = 100;
    let shift =
        apache_fleet(Mode::Shift(ShiftOptions::baseline(Granularity::Byte))).shift().clone();
    let mut compiled = shift.compile(&apache_program()).expect("apache guest compiles");
    compiled
        .image
        .data
        .push((make_vaddr(1, 0x0100_0000), vec![0xA5; EXTRA_PAGES * PAGE_SIZE as usize]));
    let image = ProgramImage::new(&compiled);
    assert!(image.resident_pages() >= EXTRA_PAGES, "static segment must be resident");
    assert_eq!(image.owned_pages(), 0, "a frozen image owns no private pages");
    let pristine = image.pristine_digest();

    let fleet = Fleet::from_image(shift, image);
    let conns = fleet_connections(ApacheStream::Mixed, 256, 1);
    let world = fleet_world(ApacheStream::Mixed);
    let report = fleet.serve(&world, &conns, 8);
    assert_eq!(report.connections.len(), 256);
    assert!(report.nothing_dropped());

    // Every instance dirtied something real (stack frames, globals, tag
    // pages) — the counter is live, not vacuously zero ...
    assert!(report.owned_pages_total > 0, "serving must dirty pages");
    // ... but an instance pays only for the pages it dirtied. The deep-clone
    // baseline copies every resident page into every spawn.
    let deep_clone_bytes = fleet.image().resident_pages() as f64 * PAGE_SIZE as f64;
    let cow_bytes = report.private_bytes_per_instance();
    assert!(
        cow_bytes * 10.0 <= deep_clone_bytes,
        "COW instance costs {cow_bytes:.0} B; deep clone would cost {deep_clone_bytes:.0} B \
         — less than the promised 10x saving"
    );

    // Sharing never compromises independence: 256 dirty instances later,
    // every connection diverged from the pristine digest, and the shared
    // image still spawns bit-identically.
    for c in &report.connections {
        assert_ne!(c.state_digest, pristine, "connection {} never diverged", c.connection);
    }
    assert_eq!(fleet.image().pristine_digest(), pristine, "serving leaked into the image");
}

/// FNV-1a over the little-endian bytes of `values`: a compact pin for a
/// list of per-connection digests.
fn fnv(values: impl IntoIterator<Item = u64>) -> u64 {
    values
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// A small twin of CI's serve smoke (`shift serve --mode byte --requests 1
/// --workers 8 --seed 7`, at 128 connections): the smoke's checks, plus the
/// modelled makespan, the per-connection state digests and the host taint
/// shadow's counters pinned to their values, so any change to how a
/// closed-loop request is served, checkpointed or tainted shows here.
#[test]
fn serve_smoke_twin_is_pinned() {
    let fleet = apache_fleet(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)));
    let conns = fleet_connections(ApacheStream::Mixed, 128, 1);
    let report = fleet.serve(&fleet_world(ApacheStream::Mixed), &conns, 8);

    assert_eq!(report.served + report.recovered + report.dropped, report.requests);
    assert!(report.served > 0, "the fleet served nothing");
    let counter = |path: &str| report.registry.counter(path);
    for path in ["mem.cow.owned", "mem.cow.faults", "mem.cow.shared"] {
        assert!(counter(path) > 0, "{path} is dead across the fleet");
    }
    assert!(counter("machine.blocks.hits") > 0);
    assert_eq!(counter("machine.blocks.misses"), 0, "serving left the superblock tier");

    let pinned = (
        report.wall_cycles,
        fnv(report.connections.iter().map(|c| c.state_digest)),
        counter("tagmap.shadow.tainted_bytes"),
        counter("tagmap.shadow.marks"),
        counter("tagmap.shadow.clears"),
    );
    assert_eq!(
        pinned,
        (24_970_560, 11_747_018_233_821_608_229, 330_624, 330_624, 0),
        "serve outputs moved"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Serving arbitrary request bytes through a spawned instance never
    /// leaks state back into the shared image: a fresh spawn after the
    /// session digests identically to one taken before it.
    #[test]
    fn serving_never_mutates_the_shared_image(
        reqs in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..48), 1..4),
    ) {
        static FLEET: OnceLock<(Fleet, u64)> = OnceLock::new();
        let (fleet, pristine) = FLEET.get_or_init(|| {
            let fleet = apache_fleet(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)));
            let digest = fleet.image().spawn().state_digest();
            (fleet, digest)
        });
        let report = fleet.serve(&fleet_world(ApacheStream::Mixed), &[reqs], 1);
        prop_assert_eq!(report.connections.len(), 1);
        prop_assert_eq!(fleet.image().spawn().state_digest(), *pristine);
        // Spawning is reproducible, too: pristine instances are bit-identical.
        prop_assert_eq!(
            fleet.image().spawn().state_digest(),
            fleet.image().spawn().state_digest()
        );
    }
}
