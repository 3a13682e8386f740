//! Fault-injection harness for the recovery layer.
//!
//! Randomized trials perturb a live instrumented guest mid-run — flipping
//! NaT bits, corrupting tag-bitmap bytes, raising transient architectural
//! faults — and assert the safety contract of the paper's detection story:
//!
//! * every injected event is either **detected** (a policy violation, a
//!   NaT-consumption fault, or the injected fault itself surfacing) or
//!   **provably benign** — the guest's tag bitmap still agrees with the
//!   host's ground-truth shadow everywhere the policy engine looks, so no
//!   tag corruption escaped unnoticed;
//! * every recovery lands byte-for-byte on the pre-request snapshot
//!   (verified with [`Machine::state_digest`]).

use shift_core::{Exit, Granularity, Mode, Runtime, Shift, ShiftOptions, TaintConfig, World};
use shift_ir::{Program, ProgramBuilder};
use shift_isa::{sys, Gpr};
use shift_machine::{layout, Fault, Injection, Machine};
use shift_workloads::apache;
use shift_workloads::chaos::{self, Rng};

/// Per-trial RNG for a named stream, derived from the single master seed
/// (`SHIFT_SEED` env or the default) — the same seed the CLI and bench
/// harness thread through, so one integer reproduces every trial here.
fn trial_rng(stream: &str, trial: u64) -> Rng {
    Rng::new(chaos::derive(chaos::master_seed(), &format!("{stream}-{trial}")))
}

/// Single-shot SQL server: read one request, `strcpy` it, execute it as a
/// query. With the exploit input the uninjected run *must* end in an H3
/// detection — so a clean exit under injection means the tags were damaged,
/// and the bitmap cross-check has to account for it.
fn sql_once_app() -> Program {
    let mut pb = ProgramBuilder::new();
    pb.func("main", 0, |f| {
        let req = f.local(128);
        let reqp = f.local_addr(req);
        let copy = f.local(128);
        let copyp = f.local_addr(copy);
        let cap = f.iconst(127);
        let n = f.syscall(sys::NET_READ, &[reqp, cap]);
        let end = f.add(reqp, n);
        let z = f.iconst(0);
        f.store1(z, end, 0);
        f.call_void("strcpy", &[copyp, reqp]);
        let len = f.call("strlen", &[copyp]);
        f.syscall_void(sys::SQL_EXEC, &[copyp, len]);
        let zero = f.iconst(0);
        f.ret(Some(zero));
    });
    pb.build().unwrap()
}

fn exploit_world() -> World {
    World::new().net(&b"x' OR '1'='1"[..])
}

fn byte_shift() -> Shift {
    Shift::new(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)))
}

fn runtime(world: World) -> Runtime {
    Runtime::new(TaintConfig::default_secure(), world, Some(Granularity::Byte))
}

/// One random injection. Mix: NaT flips on random registers, XOR corruption
/// of tag-bitmap bytes shadowing the guest's stack buffers, and transient
/// unmapped/unaligned faults.
fn random_injection(rng: &mut Rng) -> Injection {
    match rng.below(4) {
        0 => Injection::FlipNat { reg: Gpr::from_index(rng.below(Gpr::COUNT as u64) as usize) },
        1 => {
            // Corrupt the tag byte shadowing a random byte of the guest's
            // live stack frame (where the request/copy buffers sit).
            let victim = layout::stack_top() - 1 - rng.below(0x400);
            let loc = shift_tagmap::tag_location(victim, Granularity::Byte)
                .expect("stack addresses have tag locations");
            Injection::CorruptByte { addr: loc.byte_addr, xor: (rng.below(255) + 1) as u8 }
        }
        2 => Injection::Fault(Fault::Unmapped { addr: layout::DATA_BASE + 0x40_0000, ip: 0 }),
        _ => Injection::Fault(Fault::Unaligned { addr: layout::GLOBALS_BASE + 1, size: 8, ip: 0 }),
    }
}

/// The region the policy engine reads tags from in these trials: the top of
/// the stack (locals) plus the globals page.
fn audit_tag_integrity(rt: &Runtime, m: &mut Machine) -> Option<u64> {
    let stack_lo = layout::stack_top() - 0x1000;
    rt.shadow_mismatch(m, stack_lo, 0x1000)
        .or_else(|| rt.shadow_mismatch(m, layout::GLOBALS_BASE, 0x1000))
}

#[test]
fn injection_trials_never_escape_undetected() {
    let compiled = byte_shift().compile(&sql_once_app()).unwrap();

    // Baseline: deterministic uninjected run ends in an H3 detection after a
    // known number of instructions.
    let baseline_insns = {
        let mut m = Machine::new(&compiled.image);
        let mut rt = runtime(exploit_world());
        let exit = m.run(&mut rt, 1_000_000);
        assert!(exit.is_detection(), "uninjected baseline must detect: {exit:?}");
        m.stats.instructions
    };
    assert!(baseline_insns > 100, "guest long enough to inject into");

    let trials = 120u64;
    let (mut detected, mut audited) = (0u64, 0u64);
    for trial in 0..trials {
        let mut rng = trial_rng("escape", trial);
        let mut m = Machine::new(&compiled.image);
        let mut rt = runtime(exploit_world());

        // Recovery fidelity: snapshot the pristine machine.
        let snap = m.snapshot();
        let d0 = m.state_digest();

        let inj = random_injection(&mut rng);
        m.inject_after(rng.below(baseline_insns - 10), inj);
        let exit = m.run(&mut rt, 1_000_000);
        assert_eq!(m.pending_injections(), 0, "trial {trial}: injection never fired");
        assert_eq!(m.stats.injected_events, 1);
        assert!(
            !matches!(exit, Exit::InsnLimit | Exit::FuelExhausted),
            "trial {trial}: runaway after injection: {exit:?}"
        );

        // Detected, or provably benign per the host reference bitmap.
        if exit.is_detection() || matches!(exit, Exit::Fault(_)) {
            detected += 1;
        } else {
            match audit_tag_integrity(&rt, &mut m) {
                // The cross-check exposes the corruption: not an escape.
                Some(_) => audited += 1,
                // Clean exit AND bitmap agrees with ground truth everywhere
                // the policy engine looks ⇒ the sink verdict was computed
                // from intact tags. But the exploit input *must* then have
                // been detected — a clean run with intact tags is an escape.
                None => panic!(
                    "trial {trial}: undetected escape: exit {exit:?} with \
                     bitmap and shadow in agreement"
                ),
            }
        }

        // Every recovery restores the pre-run snapshot byte-for-byte, no
        // matter what the injection scribbled on.
        m.restore(&snap);
        assert_eq!(m.state_digest(), d0, "trial {trial}: restore diverged from snapshot");
    }

    assert_eq!(detected + audited, trials);
    // The mix must actually exercise both outcomes.
    assert!(detected >= trials / 3, "detected only {detected}/{trials}");
}

#[test]
fn benign_run_with_injections_stays_consistent_or_detects() {
    // Same guest, benign input: injections may surface as spurious
    // detections (availability loss, not a security escape) or pass through
    // benignly — but a clean exit must leave bitmap and shadow in agreement.
    let compiled = byte_shift().compile(&sql_once_app()).unwrap();
    let world = || World::new().net(&b"SELECT col FROM t"[..]);

    let baseline_insns = {
        let mut m = Machine::new(&compiled.image);
        let mut rt = runtime(world());
        let exit = m.run(&mut rt, 1_000_000);
        assert!(exit.is_clean(), "benign baseline: {exit:?}");
        m.stats.instructions
    };

    for trial in 0..60u64 {
        let mut rng = trial_rng("benign", trial);
        let mut m = Machine::new(&compiled.image);
        let mut rt = runtime(world());
        let snap = m.snapshot();
        let d0 = m.state_digest();
        m.inject_after(rng.below(baseline_insns - 10), random_injection(&mut rng));
        let exit = m.run(&mut rt, 1_000_000);
        if matches!(exit, Exit::Halted(_)) {
            if let Some(addr) = audit_tag_integrity(&rt, &mut m) {
                // Tag damage survived to the end without reaching a sink:
                // visible to the audit, hence not silent. Nothing tainted
                // reached a sink (the run was clean), so this is contained.
                assert!(addr >= layout::DATA_BASE, "mismatch outside guest data: {addr:#x}");
            }
        }
        m.restore(&snap);
        assert_eq!(m.state_digest(), d0, "trial {trial}: restore diverged");
    }
}

#[test]
fn apache_recovery_restores_pre_request_state() {
    // Drive the real Apache guest by hand: one benign request, then the
    // traversal exploit. Under the default fail-stop action the exploit
    // surfaces as a violation; rolling back must land byte-for-byte on the
    // pre-request state, repeatably, and the guest must resume cleanly.
    let program = apache::apache_program();
    let shift = byte_shift();
    let compiled = shift.compile(&program).unwrap();
    let world = World::new()
        .file(apache::DOC_PATH, vec![7u8; 1024])
        .file(apache::SECRET_PATH, apache::SECRET_BYTES.to_vec())
        .net(apache::benign_request())
        .net(apache::exploit_request());
    let mut m = Machine::new(&compiled.image);
    let mut rt = runtime(world).with_transactions();

    let exit = m.run(&mut rt, 100_000_000);
    match &exit {
        Exit::Violation(v) => assert_eq!(v.policy, "H2", "{exit:?}"),
        other => panic!("expected the traversal to be detected, got {other:?}"),
    }
    assert!(m.mem.dirty_pages() > 0, "the aborted request left dirty state behind");

    // Roll back (queue is drained, so recovery delivers 0 bytes).
    assert!(rt.recover(&mut m));
    let d1 = m.state_digest();
    // A second rollback to the same checkpoint is byte-identical.
    assert!(rt.recover(&mut m));
    assert_eq!(m.state_digest(), d1, "recovery must be deterministic");

    // The guest resumes and halts cleanly: exactly 1 request was served.
    let exit = m.run(&mut rt, 100_000_000);
    assert_eq!(exit, Exit::Halted(1));
    assert_eq!(rt.recoveries, 2);
    // The exploit's work was rolled back: the secret never left.
    let out = &rt.net_output;
    assert!(
        !out.windows(apache::SECRET_BYTES.len()).any(|w| w == apache::SECRET_BYTES),
        "rolled-back request must not leak"
    );
}

#[test]
fn injected_transient_faults_are_recoverable_mid_request() {
    // Transient unmapped faults injected into an Apache request: the
    // session-level contract — roll back, keep serving — verified at the
    // machine level with an explicit snapshot.
    let program = apache::apache_program();
    let compiled = byte_shift().compile(&program).unwrap();
    for trial in 0..20u64 {
        let mut rng = trial_rng("transient", trial);
        let world =
            World::new().file(apache::DOC_PATH, vec![3u8; 512]).net(apache::benign_request());
        let mut m = Machine::new(&compiled.image);
        // Snapshot managed by the harness itself (a transactional runtime
        // would supersede it with its own per-request checkpoint).
        let mut rt = runtime(world);
        let snap = m.snapshot();
        let d0 = m.state_digest();
        m.inject_after(
            200 + rng.below(5_000),
            Injection::Fault(Fault::Unmapped { addr: layout::HEAP_BASE + 0x900_0000, ip: 0 }),
        );
        let exit = m.run(&mut rt, 100_000_000);
        match exit {
            // The fault surfaced mid-request: state must restore exactly.
            Exit::Fault(Fault::Unmapped { .. }) => {
                m.restore(&snap);
                assert_eq!(m.state_digest(), d0, "trial {trial}: restore diverged");
            }
            other => panic!("trial {trial}: expected the injected fault, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Fleet-scale chaos campaigns
// ---------------------------------------------------------------------------

/// 200+ randomized fleet trials on the SQL guest, swept across worker
/// widths: randomized NaT flips, bitmap corruption, and transient faults
/// land mid-serve, and every connection must either detect the damage or
/// prove (against the host's ground-truth shadow) that nothing escaped —
/// with served/recovered/dropped accounting exact at every width.
#[test]
fn fleet_chaos_campaign_sql_has_no_undetected_escapes() {
    let spec = shift_workloads::ChaosSpec {
        program: "chaos-sql".into(),
        mode: Mode::Shift(ShiftOptions::baseline(Granularity::Byte)),
        trials: 200,
        widths: vec![1, 2, 4],
        connections: 3,
        requests: 3,
        seed: chaos::derive(chaos::master_seed(), "campaign-sql"),
    };
    let report = shift_workloads::chaos::run_chaos(&spec);
    assert!(report.passed(), "undetected escapes: {:?}", report.failures);
    assert_eq!(report.trials, 200);
    assert!(report.injections > 100, "campaign barely injected: {}", report.injections);
    assert!(report.detections > 0, "no injection was ever detected");
    assert!(report.served > 0 && report.recovered > 0, "campaign must exercise both outcomes");
    assert_eq!(report.dropped + report.served + report.recovered, 200 * 3 * 3);
}

/// A smaller Apache-fleet campaign: the real multi-request server guest,
/// mixed document stream, same zero-escape contract.
#[test]
fn fleet_chaos_campaign_apache_has_no_undetected_escapes() {
    let spec = shift_workloads::ChaosSpec {
        program: "apache".into(),
        mode: Mode::Shift(ShiftOptions::baseline(Granularity::Byte)),
        trials: 24,
        widths: vec![1, 2],
        connections: 2,
        requests: 3,
        seed: chaos::derive(chaos::master_seed(), "campaign-apache"),
    };
    let report = shift_workloads::chaos::run_chaos(&spec);
    assert!(report.passed(), "undetected escapes: {:?}", report.failures);
    assert!(report.injections > 0);
}

/// A failing-looking trial's reproducer actually reproduces: the campaign
/// emits a shrunk single-connection replay log for the first perturbed
/// detection, and replaying it is bit-identical to what it recorded.
#[test]
fn chaos_campaign_reproducer_replays_bit_identically() {
    let spec = shift_workloads::ChaosSpec {
        program: "chaos-sql".into(),
        mode: Mode::Shift(ShiftOptions::baseline(Granularity::Byte)),
        trials: 12,
        widths: vec![1, 2],
        connections: 3,
        requests: 3,
        seed: chaos::derive(chaos::master_seed(), "campaign-repro"),
    };
    let report = shift_workloads::chaos::run_chaos(&spec);
    let repro = report.example_repro.expect("campaign produced a reproducer");
    // Round-trip through the on-disk form first: the artifact a user would
    // feed back to `shift replay` must behave identically.
    let log = shift_core::ReplayLog::parse(&repro.render()).unwrap();
    let guest = chaos::guest(&log.program).unwrap();
    let fleet = log.build_fleet(&(guest.program)()).unwrap();
    for outcome in log.verify(&fleet) {
        assert!(outcome.matches(), "reproducer diverged: {:?}", outcome.mismatches);
    }
}

/// A chaos campaign slice served twice — flight recorder disarmed, then
/// armed with time-series sampling (DESIGN.md §14) — must be bit-identical
/// in every modelled number: exits, state digests, [`shift_core::Stats`],
/// and violation provenance, with the injection schedule live in both runs.
/// This is the zero-perturbation contract on the *nastiest* path: rollbacks,
/// mid-request injections, and policy aborts all happening while the
/// recorder watches.
#[test]
fn chaos_slice_is_bit_identical_with_recorder_armed() {
    use shift_core::{FlightConfig, TraceKind};
    let mode = Mode::Shift(ShiftOptions::baseline(Granularity::Byte));
    let guest = chaos::guest("chaos-sql").unwrap();
    let disarmed = (guest.fleet)(mode);
    let armed =
        (guest.fleet)(mode).with_flight_recorder(FlightConfig { cap: 4096, sample_cycles: 50_000 });

    let world = (guest.world)();
    let benign = (guest.benign)();
    let exploit = (guest.exploit)();
    let conns: Vec<Vec<Vec<u8>>> = (0..4)
        .map(|c| {
            (0..3)
                .map(|r| if (c + r) % 5 == 1 { exploit.clone() } else { benign.clone() })
                .collect()
        })
        .collect();
    let mut rng = trial_rng("recorder-slice", 0);
    let mut faults = chaos::random_fault_plan(&mut rng, conns.len());
    // At least one injection is always armed, whatever the seed drew.
    faults[0].push(chaos::random_fleet_injection(&mut rng));

    let plain = disarmed.serve_chaos(&world, &conns, &faults, 2);
    let traced = armed.serve_chaos(&world, &conns, &faults, 2);

    assert_eq!(plain.stats, traced.stats, "arming the recorder changed the chaos run's stats");
    assert_eq!(plain.exits(), traced.exits());
    assert_eq!(plain.wall_cycles, traced.wall_cycles);
    assert_eq!(plain.violations, traced.violations, "provenance chains must be unchanged");
    assert_eq!(
        (plain.requests, plain.served, plain.recovered, plain.dropped),
        (traced.requests, traced.served, traced.recovered, traced.dropped),
    );
    for (p, t) in plain.connections.iter().zip(&traced.connections) {
        assert_eq!(p.state_digest, t.state_digest, "connection {}", p.connection);
        assert_eq!(p.stats, t.stats, "connection {}", p.connection);
        assert_eq!(p.violations, t.violations, "connection {}", p.connection);
        assert_eq!(p.latencies, t.latencies, "connection {}", p.connection);
    }

    // The armed run actually recorded the slice: every injection that fired
    // left an instant on the timeline.
    let events = traced.merged_trace_events();
    assert!(!events.is_empty(), "armed chaos run recorded nothing");
    let fired: u64 = plain.connections.iter().map(|c| c.stats.injected_events).sum();
    let logged =
        events.iter().filter(|e| matches!(e.kind, TraceKind::InjectionFired { .. })).count() as u64;
    assert_eq!(logged, fired, "fired injections vs InjectionFired trace events");
}

/// The escape audit catches a *forged* escape. Random single-byte bitmap
/// corruption essentially never blinds the whole policy check (the quotes
/// span multiple tag bytes), so this test constructs the worst case by
/// hand: locate every tag bit the exploit's taint occupies (via the
/// postmortem debugger), then scrub exactly those bits two instructions
/// before the sink check. The fleet run finishes clean with zero
/// violations — a would-be escape — and the forensic audit must classify
/// it as tag damage, not let it pass.
#[test]
fn escape_audit_catches_taint_scrubbing_injections() {
    use shift_workloads::chaos::EscapeVerdict;
    let mode = Mode::Shift(ShiftOptions::baseline(Granularity::Byte));
    let guest = chaos::guest("chaos-sql").unwrap();
    let fleet = (guest.fleet)(mode);
    let base = (guest.world)();
    let exploit = (guest.exploit)();

    // Forensics first: where does the exploit's taint sit, and how many
    // instructions retire before the sink check trips?
    let world = base.clone().net(exploit.clone());
    let mut pm = shift_core::Postmortem::new(fleet.shift(), fleet.image(), world, &[]);
    pm.run_to_violation(2_000_000);
    assert!(
        matches!(pm.exit(), Some(Exit::Violation(_))),
        "uninjected exploit must detect: {:?}",
        pm.exit()
    );
    let sink_insns = pm.instructions();
    let stack_lo = layout::stack_top() - 0x1000;
    let runs = pm.tainted_ranges(stack_lo, 0x1000);
    assert!(!runs.is_empty(), "exploit taint must be visible on the stack");

    // Scrub exactly those tag bits just before the sink check fires.
    let mut xors: std::collections::BTreeMap<u64, u8> = std::collections::BTreeMap::new();
    for &(addr, len) in &runs {
        for a in addr..addr + len {
            let loc = shift_tagmap::tag_location(a, Granularity::Byte).unwrap();
            *xors.entry(loc.byte_addr).or_insert(0) |= loc.mask;
        }
    }
    let scrub: Vec<(u64, shift_machine::Injection)> = xors
        .into_iter()
        .map(|(addr, xor)| (sink_insns - 2, Injection::CorruptByte { addr, xor }))
        .collect();

    // The forged escape: the fleet sees a clean, violation-free connection.
    let conn = fleet.serve_one(&base, std::slice::from_ref(&exploit), &scrub, 0, 1);
    assert!(matches!(conn.exit, Exit::Halted(_)), "scrubbed run must finish: {:?}", conn.exit);
    assert!(conn.violations.is_empty(), "scrubbing must blind the policy engine");

    // ... and the audit refuses to certify it.
    let verdict =
        shift_workloads::escape_audit(&guest, &fleet, &base, &[exploit], &scrub, conn.state_digest);
    assert_eq!(
        verdict,
        EscapeVerdict::TagDamageContained,
        "the bitmap/shadow cross-check must expose the scrubbed tags"
    );
}

// ---------------------------------------------------------------------------
// Committed fixture: schema drift tripwire
// ---------------------------------------------------------------------------

/// The committed replay fixture (recorded by `shift serve --record` with
/// `--seed 7 --inject`) must still parse under today's schema and replay
/// every connection bit-identically. A failure here means either the
/// serialization schema or the execution model drifted from what was
/// recorded — both are breaking changes for saved reproducers.
#[test]
fn committed_replay_fixture_still_replays_bit_identically() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/replay_fixture.json");
    let text = std::fs::read_to_string(path).expect("fixture present");
    let log = shift_core::ReplayLog::parse(&text).expect("fixture parses under current schema");
    assert_eq!(log.program, "apache");
    assert!(log.connections.len() >= 8, "fixture fleet too small");
    assert!(log.workers >= 2);
    assert!(
        log.connections.iter().any(|c| !c.injections.is_empty()),
        "fixture must have injections armed"
    );
    let guest = chaos::guest(&log.program).unwrap();
    let fleet =
        log.build_fleet(&(guest.program)()).expect("compiled image matches recorded digest");
    for outcome in log.verify(&fleet) {
        assert!(
            outcome.matches(),
            "fixture connection {} diverged: {:?}",
            outcome.connection,
            outcome.mismatches
        );
    }
}
