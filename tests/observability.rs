//! Observability integration tests: taint-flow provenance chains across the
//! attack corpus, metrics reconciliation, and the cycle-attribution
//! profiler.
//!
//! The tentpole guarantee: observability is *diagnostic-only*. Chains and
//! metrics must describe the run faithfully (source channel named, cycle
//! totals reconciling exactly) without perturbing it — the zero-perturbation
//! half lives in `tests/taint_invariants.rs`.

use shift_core::{metrics, Exit, Granularity, Json, Mode, Registry, Shift, ShiftOptions, World};
use shift_ir::ProgramBuilder;
use shift_isa::sys;

fn traced(mode: Mode) -> Shift {
    Shift::new(mode).with_insn_limit(200_000_000).with_taint_trace()
}

/// Names a taint source the runtime can produce: chains must start at one.
fn names_a_source(chain: &str) -> bool {
    ["net_read msg#", "kbd_read line#", "file_read ", "arg#"]
        .iter()
        .any(|prefix| chain.starts_with(prefix))
}

/// Every detected Table-2 attack reports a non-empty provenance chain from
/// a named source channel to the sink (or to the NaT-consumption fault for
/// the low-level detections), at both tag granularities.
#[test]
fn every_detected_attack_reports_a_full_chain() {
    for gran in [Granularity::Byte, Granularity::Word] {
        for atk in shift_attacks::all_attacks() {
            let app = (atk.build)();
            let shift = traced(Mode::Shift(ShiftOptions::baseline(gran)));
            let report = shift.run(&app, (atk.exploit)()).unwrap();
            if !report.exit.is_detection() {
                // Documented word-level false negatives (word_smears) are
                // not chain bugs.
                assert!(
                    gran == Granularity::Word,
                    "{}: byte level must detect, got {:?}",
                    atk.program,
                    report.exit
                );
                continue;
            }
            let chain = report
                .taint_chain()
                .unwrap_or_else(|| panic!("{} ({gran}): detection without a chain", atk.program));
            assert!(!chain.is_empty(), "{}: empty chain", atk.program);
            assert!(
                names_a_source(chain),
                "{} ({gran}): chain does not start at a named source: {chain}",
                atk.program
            );
            assert!(
                chain.contains('→'),
                "{} ({gran}): chain has no propagation steps: {chain}",
                atk.program
            );
            match &report.exit {
                Exit::Violation(v) => {
                    assert_eq!(v.provenance.as_deref(), Some(chain), "{}", atk.program);
                    // High-level sinks name themselves at the end of the
                    // chain; the chk.s guard path ends at the alert.
                    assert!(
                        chain.ends_with("arg") || chain.ends_with("alert"),
                        "{}: chain must end at the sink: {chain}",
                        atk.program
                    );
                }
                Exit::Fault(_) => {
                    assert!(
                        chain.contains("fault"),
                        "{}: fault chain must say so: {chain}",
                        atk.program
                    );
                }
                other => panic!("{}: unexpected detection {other:?}", atk.program),
            }
        }
    }
}

/// Without taint tracing, violations carry no provenance — the field is
/// strictly opt-in.
#[test]
fn chains_absent_when_tracing_disabled() {
    let atk = &shift_attacks::all_attacks()[0];
    let app = (atk.build)();
    let shift = Shift::new(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)))
        .with_insn_limit(200_000_000);
    let report = shift.run(&app, (atk.exploit)()).unwrap();
    match &report.exit {
        Exit::Violation(v) => assert_eq!(v.provenance, None),
        other => panic!("expected a violation, got {other:?}"),
    }
    assert_eq!(report.taint_chain(), None);
}

/// The observer counts taint births and every recorded violation chain, and
/// the `journal.*` metrics export exactly those counters.
#[test]
fn journal_counts_births_and_sinks() {
    let atk = &shift_attacks::all_attacks()[0];
    let app = (atk.build)();
    let report = traced(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)))
        .run(&app, (atk.exploit)())
        .unwrap();
    let observer = report.machine.taint_observer().unwrap();
    assert!(observer.births() > 0, "the exploit input must be born tainted");
    assert!(observer.sinks() > 0, "the detection must be counted");
    let reg = metrics::run_metrics(&report);
    assert_eq!(reg.counter("journal.births"), observer.births());
    assert_eq!(reg.counter("journal.propagations"), observer.propagations());
    assert_eq!(reg.counter("journal.sinks"), observer.sinks());
}

/// A tier-1 twin of CI's metrics smoke (`shift attacks --metrics`): byte
/// mode with taint tracing on, `run_metrics` merged over every exploit run,
/// and the smoke's checks on the exported JSON.
#[test]
fn attack_corpus_metrics_smoke_twin() {
    let shift =
        Shift::new(Mode::Shift(ShiftOptions::baseline(Granularity::Byte))).with_taint_trace();
    let mut merged = Registry::new();
    for atk in shift_attacks::all_attacks() {
        let hit = shift.run(&(atk.build)(), (atk.exploit)()).unwrap();
        merged.merge(&metrics::run_metrics(&hit));
    }
    let doc = Json::parse(&merged.to_json().render()).unwrap();
    for key in ["schema_version", "stats", "cache", "mem", "tagmap", "journal", "runtime"] {
        assert!(doc.get(key).is_some(), "metrics JSON missing {key}");
    }
    let at = |path: &str| {
        let leaf = path.split('.').try_fold(&doc, |j, key| j.get(key));
        leaf.and_then(Json::as_u64).unwrap_or_else(|| panic!("metrics JSON missing {path}"))
    };
    assert_eq!(at("stats.total_time"), at("stats.cycles") + at("stats.io_cycles"));
    // The corpus runs with the taint observer armed, so its counters must
    // be live: exploit inputs are born tainted and reach sinks.
    assert!(at("journal.births") > 0, "no taint births counted over the attack corpus");
    assert!(at("journal.sinks") > 0, "no sink hits counted over the attack corpus");
    for key in ["hits", "misses"] {
        at(&format!("machine.blocks.{key}"));
    }
    assert!(at("machine.blocks.decoded") > 0, "no superblocks decoded over the attack corpus");
    for key in ["owned", "shared"] {
        at(&format!("mem.cow.{key}"));
    }
    assert!(at("mem.cow.faults") > 0, "attack corpus dirtied no pages");
}

fn spec_like_app() -> shift_ir::Program {
    let mut pb = ProgramBuilder::new();
    pb.func("main", 0, |f| {
        let buf = f.local(64);
        let bufp = f.local_addr(buf);
        let copy = f.local(64);
        let copyp = f.local_addr(copy);
        let cap = f.iconst(48);
        let n = f.syscall(sys::NET_READ, &[bufp, cap]);
        let end = f.add(bufp, n);
        let z = f.iconst(0);
        f.store1(z, end, 0);
        f.call_void("strcpy", &[copyp, bufp]);
        let len = f.call("strlen", &[copyp]);
        f.syscall_void(sys::NET_WRITE, &[copyp, len]);
        let zero = f.iconst(0);
        f.ret(Some(zero));
    });
    pb.build().unwrap()
}

/// Metrics reconcile exactly: `stats.total_time == stats.cycles +
/// stats.io_cycles` as integers through the JSON round-trip, and the
/// per-provenance rows sum back to the cycle total.
#[test]
fn metrics_cycle_totals_reconcile_through_json() {
    let shift = traced(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)))
        .with_io(shift_core::IoCostModel::SERVER);
    let report = shift.run(&spec_like_app(), World::new().net(&b"hello metrics"[..])).unwrap();
    let reg = metrics::run_metrics(&report);
    let parsed = shift_core::Json::parse(&reg.to_json().render()).unwrap();
    let stat = |k: &str| parsed.get("stats").unwrap().get(k).unwrap().as_u64().unwrap();
    assert_eq!(stat("cycles"), report.stats.cycles);
    assert_eq!(stat("io_cycles"), report.stats.io_cycles);
    assert!(report.stats.io_cycles > 0, "SERVER io model must charge waits");
    assert_eq!(stat("total_time"), stat("cycles") + stat("io_cycles"));
    let prov_sum: u64 = shift_isa::Provenance::ALL
        .into_iter()
        .map(|p| {
            parsed
                .get("stats")
                .unwrap()
                .get("by_provenance")
                .unwrap()
                .get(p.name())
                .unwrap()
                .get("cycles")
                .unwrap()
                .as_u64()
                .unwrap()
        })
        .sum();
    assert_eq!(prov_sum, report.stats.cycles);
}

/// Serve sessions export per-request latency percentiles.
#[test]
fn serve_metrics_include_request_latencies() {
    let mut pb = ProgramBuilder::new();
    pb.func("main", 0, |f| {
        let req = f.local(128);
        let reqp = f.local_addr(req);
        let served = f.iconst(0);
        f.loop_(|f| {
            let cap = f.iconst(127);
            let n = f.syscall(sys::NET_READ, &[reqp, cap]);
            f.if_cmp(shift_isa::CmpRel::Le, n, shift_ir::Rhs::Imm(0), |f| f.break_());
            f.syscall_void(sys::NET_WRITE, &[reqp, n]);
            let s1 = f.addi(served, 1);
            f.assign(served, s1);
        });
        f.ret(Some(served));
    });
    let app = pb.build().unwrap();
    let world = World::new().net(&b"one"[..]).net(&b"two"[..]).net(&b"three"[..]);
    let shift = Shift::new(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)))
        .with_io(shift_core::IoCostModel::SERVER);
    let report = shift.serve(&app, world).unwrap();
    assert_eq!(report.served, 3, "{:?}", report.exit);
    assert_eq!(report.runtime.request_latencies.len(), 3, "one latency window per request");
    let reg = metrics::serve_metrics(&report);
    let hist = reg.histogram("serve.latency_cycles").expect("latency histogram");
    assert_eq!(hist.count(), 3);
    assert!(
        hist.percentile(50.0).unwrap()
            >= report.runtime.request_latencies.iter().min().copied().unwrap()
    );
    let parsed = shift_core::Json::parse(&reg.to_json().render()).unwrap();
    let lat = parsed.get("serve").unwrap().get("latency_cycles").unwrap();
    for k in ["count", "p50", "p99"] {
        assert!(lat.get(k).is_some(), "latency histogram missing {k}");
    }
}

/// The profiler's attributed cycles equal the machine's retired cycles
/// exactly, and the folded stacks name guest functions.
#[test]
fn profiler_attribution_reconciles_and_names_functions() {
    let shift = Shift::new(Mode::Shift(ShiftOptions::baseline(Granularity::Byte))).with_profile();
    let report = shift.run(&spec_like_app(), World::new().net(&b"profile me"[..])).unwrap();
    assert!(report.exit.is_clean(), "{:?}", report.exit);
    let prof = report.machine.profiler().expect("profiler armed");
    assert_eq!(prof.total_cycles(), report.stats.cycles, "every cycle must be attributed");
    let folded = prof.folded();
    assert!(folded.contains("main"), "folded stacks must name main:\n{folded}");
    assert!(folded.contains("strcpy"), "libc frames must appear:\n{folded}");
    assert!(folded.contains(";["), "instrumentation leaf frames must appear:\n{folded}");
    let hot = prof.hot_blocks(3);
    assert!(!hot.is_empty());
    assert!(hot[0].2 >= hot[hot.len() - 1].2, "hot blocks sorted by cycles");
}
