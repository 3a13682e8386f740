//! Cross-crate integration tests: whole-system behaviours that span the
//! ISA, machine, compiler, runtime, libc, workloads and attack corpus.

use shift_core::{Granularity, Mode, Policy, Shift, ShiftOptions, Source, TaintConfig, World};
use shift_ir::{ProgramBuilder, Rhs};
use shift_isa::sys;
use shift_workloads::apache::{apache_fleet, fleet_connections, fleet_world, ApacheStream};

fn byte_shift() -> Shift {
    Shift::new(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)))
}

/// The full attack corpus detects at byte level and the apache server stays
/// clean under full instrumentation — the Table-2 + Figure-6 combination in
/// one smoke test.
#[test]
fn corpus_and_server_coexist() {
    for atk in shift_attacks::all_attacks().iter().take(3) {
        let app = (atk.build)();
        let hit = byte_shift().run(&app, (atk.exploit)()).unwrap();
        assert!(hit.exit.is_detection(), "{}", atk.program);
    }
    let stream = ApacheStream::Uniform(2048);
    let fleet = apache_fleet(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)));
    let run = fleet.serve(&fleet_world(stream), &fleet_connections(stream, 1, 2), 1);
    assert_eq!(run.served, 2);
}

/// Taint survives arbitrarily long chains of guest computation: memory →
/// register → arithmetic → memory → libc copy → sink.
#[test]
fn taint_survives_long_flows() {
    let mut pb = ProgramBuilder::new();
    pb.func("main", 0, |f| {
        let input = f.local(64);
        let inp = f.local_addr(input);
        let cap = f.iconst(32);
        let n = f.syscall(sys::NET_READ, &[inp, cap]);

        // Mix every input byte through arithmetic, then write the result
        // bytes out and strcpy them onward.
        let mixed = f.local(64);
        let mixp = f.local_addr(mixed);
        f.for_up(Rhs::Imm(0), Rhs::Reg(n), |f, i| {
            let p = f.add(inp, i);
            let c = f.load1(p, 0);
            let x1 = f.xor(c, i);
            let x2 = f.addi(x1, 13);
            let x3 = f.andi(x2, 0x7f);
            // Force the *value* to a SQL quote while keeping x3's taint:
            // and-with-zero clears the bits but OR-propagates the tag.
            let zeroed = f.andi(x3, 0);
            let tainted_quote = f.addi(zeroed, '\'' as i64);
            let dp = f.add(mixp, i);
            f.store1(tainted_quote, dp, 0);
        });
        let end = f.add(mixp, n);
        let z = f.iconst(0);
        f.store1(z, end, 0);

        let copied = f.local(64);
        let cpyp = f.local_addr(copied);
        f.call_void("strcpy", &[cpyp, mixp]);
        let len = f.call("strlen", &[cpyp]);
        f.syscall_void(sys::SQL_EXEC, &[cpyp, len]);
        let zero = f.iconst(0);
        f.ret(Some(zero));
    });
    let app = pb.build().unwrap();
    // Input bytes chosen so some mixed byte is a SQL metachar ('\'' = 0x27).
    let report = byte_shift().run(&app, World::new().net(vec![0x27; 8])).unwrap();
    assert_eq!(report.detected_policy(), Some(Policy::H3), "{:?}", report.exit);
}

/// `xor r, r, r` really purifies: a tainted value xored with itself becomes
/// clean all the way down to the sink (§3.3.2's corner case).
#[test]
fn self_xor_purifies() {
    let mut pb = ProgramBuilder::new();
    pb.func("main", 0, |f| {
        let input = f.local(16);
        let inp = f.local_addr(input);
        let cap = f.iconst(8);
        f.syscall_void(sys::NET_READ, &[inp, cap]);
        let v = f.load8(inp, 0); // tainted
        let zeroed = f.xor(v, v); // clean by the architectural idiom
        let quote = f.addi(zeroed, '\'' as i64);
        f.store1(quote, inp, 0); // clean quote over tainted memory
        let one = f.iconst(1);
        f.syscall_void(sys::SQL_EXEC, &[inp, one]);
        let z = f.iconst(0);
        f.ret(Some(z));
    });
    let app = pb.build().unwrap();
    let report = byte_shift().run(&app, World::new().net(vec![b'\''; 8])).unwrap();
    assert!(report.exit.is_clean(), "self-xor must purify: {:?}", report.exit);
}

/// Keyboard and argument sources obey the configuration independently.
#[test]
fn per_channel_source_configuration() {
    let mut pb = ProgramBuilder::new();
    pb.func("main", 0, |f| {
        let buf = f.local(64);
        let p = f.local_addr(buf);
        let cap = f.iconst(32);
        let n = f.syscall(sys::KBD_READ, &[p, cap]);
        f.syscall_void(sys::SQL_EXEC, &[p, n]);
        let z = f.iconst(0);
        f.ret(Some(z));
    });
    let app = pb.build().unwrap();
    let hostile = World::new().kbd(&b"';DROP TABLE users"[..]);

    let armed = byte_shift().run(&app, hostile.clone()).unwrap();
    assert_eq!(armed.detected_policy(), Some(Policy::H3));

    let mut cfg = TaintConfig::default_secure();
    cfg.set_source(Source::Keyboard, false);
    let disarmed = byte_shift().with_config(cfg).run(&app, hostile).unwrap();
    assert!(disarmed.exit.is_clean());
}

/// The chk.s guard catches taint arriving through a *register* path that
/// never goes near a policy sink.
#[test]
fn guard_fires_on_pure_register_taint() {
    let mut pb = ProgramBuilder::new();
    pb.func("main", 0, |f| {
        let buf = f.local(16);
        let p = f.local_addr(buf);
        let cap = f.iconst(8);
        f.syscall_void(sys::NET_READ, &[p, cap]);
        let v = f.load8(p, 0);
        let derived = f.muli(v, 3);
        let derived2 = f.addi(derived, 17);
        f.guard(derived2);
        let z = f.iconst(0);
        f.ret(Some(z));
    });
    let app = pb.build().unwrap();

    let hit = byte_shift().run(&app, World::new().net(vec![1u8; 8])).unwrap();
    assert!(hit.exit.is_detection(), "{:?}", hit.exit);

    // Same program with an untainted world: guard stays quiet.
    let mut cfg = TaintConfig::default_secure();
    cfg.set_source(Source::Network, false);
    let quiet = byte_shift().with_config(cfg).run(&app, World::new().net(vec![1u8; 8])).unwrap();
    assert!(quiet.exit.is_clean(), "{:?}", quiet.exit);
}

/// Register pressure does not lose taint: values spilled across calls carry
/// their NaT bits through `st8.spill`/`ld8.fill`.
#[test]
fn taint_survives_register_spills() {
    let mut pb = ProgramBuilder::new();
    pb.func("noop", 0, |f| f.ret(None));
    pb.func("main", 0, |f| {
        let buf = f.local(16);
        let p = f.local_addr(buf);
        let cap = f.iconst(8);
        f.syscall_void(sys::NET_READ, &[p, cap]);
        let tainted = f.load8(p, 0);
        // Force the tainted value to live across a call (all registers are
        // caller-saved ⇒ it must be spilled and refilled).
        f.call_void("noop", &[]);
        f.call_void("noop", &[]);
        f.guard(tainted);
        let z = f.iconst(0);
        f.ret(Some(z));
    });
    let app = pb.build().unwrap();
    let report = byte_shift().run(&app, World::new().net(vec![9u8; 8])).unwrap();
    assert!(
        report.exit.is_detection(),
        "taint must survive spill/fill across calls: {:?}",
        report.exit
    );
}

/// All SPEC kernels behave identically under the per-use NaT-generation
/// strawman (semantics are orthogonal to the generation strategy).
#[test]
fn natgen_strategies_agree_semantically() {
    use shift_compiler::NatGen;
    let bench = &shift_workloads::all_benches()[2]; // crafty: fastest kernel
    let expect =
        shift_workloads::run_spec(bench, Mode::Uninstrumented, shift_workloads::Scale::Test, true)
            .checksum();
    for nat_gen in [NatGen::Kept, NatGen::PerFunction, NatGen::PerUse] {
        let opts = ShiftOptions { nat_gen, ..ShiftOptions::baseline(Granularity::Byte) };
        let run =
            shift_workloads::run_spec(bench, Mode::Shift(opts), shift_workloads::Scale::Test, true);
        assert_eq!(run.checksum(), expect, "{nat_gen:?}");
    }
}

/// The word-level false-negative window (short payload + terminating NUL in
/// one word) does not exist at byte level — the precision argument for
/// byte-level tracking, pinned at the integration level.
#[test]
fn granularity_precision_difference() {
    let mut pb = ProgramBuilder::new();
    pb.func("main", 0, |f| {
        let buf = f.local(16);
        let p = f.local_addr(buf);
        let cap = f.iconst(7);
        let n = f.syscall(sys::NET_READ, &[p, cap]);
        // Guest writes a clean NUL right after — same word as the payload.
        let end = f.add(p, n);
        let z = f.iconst(0);
        f.store1(z, end, 0);
        f.syscall_void(sys::SQL_EXEC, &[p, n]);
        let zero = f.iconst(0);
        f.ret(Some(zero));
    });
    let app = pb.build().unwrap();
    let world = || World::new().net(&b"';--"[..]);

    let byte = byte_shift().run(&app, world()).unwrap();
    assert_eq!(byte.detected_policy(), Some(Policy::H3));

    let word = Shift::new(Mode::Shift(ShiftOptions::baseline(Granularity::Word)))
        .run(&app, world())
        .unwrap();
    assert!(word.exit.is_clean(), "documented word-level false negative expected: {:?}", word.exit);
}
