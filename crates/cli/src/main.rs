//! `shift` — the command-line front end for the SHIFT reproduction.
//!
//! ```text
//! shift attacks [--mode M] [--trace-taint] [--metrics <path>]
//! shift attack <program> [--mode M] [--benign] [--trace] [--trace-depth N]
//!              [--trace-taint] [--metrics <path>] [--profile <path>]
//! shift spec <bench|all> [--mode M] [--reference] [--safe]
//! shift apache <size-kb> <requests> [--mode M]
//! shift serve [--mode M] [--workers N] [--connections N] [--requests N]
//!             [--size-kb N] [--json <path>] [--seed N] [--inject]
//!             [--record <path>] [--trace-out <path>] [--prom-out <path>]
//!             [--sample-cycles N] [--arrivals SPEC] [--accept-cap N]
//!             [--max-resident N] [--quantum N]
//! shift trace <file>                   summarize a recorded trace file
//! shift replay <log> [--connection N] [--debug] [--shrink <path>]
//! shift bench [--json] [--reference] [--seed N]
//! shift disasm [--mode M]              show the instrumentation templates
//! shift modes                          list compilation modes
//! shift help                           usage plus the exit-code table
//! ```
//!
//! `serve` runs the fleet engine: the Apache guest is compiled once, then
//! `--connections` connections of `--requests` requests each are served
//! across a `--workers`-wide modelled fleet (default 8, in both loops, so
//! the modelled numbers do not depend on the host). Without `--size-kb`
//! the connections carry the mixed
//! production-traffic stream; with it, every request fetches one file of
//! that size. Every simulation — `serve` in both loops, `spec` and the
//! `bench` sweeps — runs on one host thread per core
//! ([`shift_core::pool::host_threads`]); no flag sizes that pool, and every
//! modelled number is bit-identical at any host thread count.
//!
//! Open-loop serving (`--arrivals`, DESIGN.md §16): instead of the
//! closed-loop round-robin fleet, connections *arrive* on a modelled clock
//! drawn from an arrival process — `poisson:RATE`, `bursty:RATE[:BURST]`,
//! or `diurnal:RATE[:AMPLITUDE]` (RATE in connections per modelled
//! second) — and are multiplexed over `--workers` modelled workers by the
//! discrete-event scheduler. Each connection runs once, and the scheduler
//! replays its alternating CPU and I/O legs, so thousands of in-flight
//! connections share a handful of workers: a connection waiting on I/O
//! holds no worker. Admission control is explicit: `--accept-cap` bounds
//! the accept queue (beyond it, arrivals are shed and counted),
//! `--max-resident` caps simultaneously-live guests, `--quantum` sets the
//! round-robin slice in cycles (0 = run each CPU leg to its I/O wait). The report adds sojourn latency
//! (completion − arrival) at p50/p99/p999, saturation throughput, queue
//! depth, and peak resident pages. The three scheduler flags need
//! `--arrivals`; one given without it is a usage error, as is, for every
//! subcommand, an argument it does not know.
//!
//! Record/replay: `serve --record <path>` writes a replay log of the run —
//! every connection's request stream, the session options, the injection
//! schedule (`--inject` arms a randomized chaos schedule derived from
//! `--seed`), and the per-connection outcome digests. `shift replay <log>`
//! reconstructs and re-runs every recorded connection (or one, with
//! `--connection N`) and verifies bit-identical digests, cycles, and
//! violations — open-loop logs carry their materialized arrival schedule,
//! and connections recorded as shed are skipped (they never ran); a full
//! open-loop replay also re-drives the event loop from the replayed legs
//! and checks the recorded `completed`, `shed` and `wall_cycles`;
//! `--debug` opens the postmortem debugger on the connection instead. On a
//! terminal the debugger is an interactive REPL (`step`, `run`, `regs`,
//! `mem`, `taint`, `bt`, `dis`, `report`, `quit`); with stdin closed or
//! piped it runs straight to the recorded stop and prints the postmortem
//! report (registers, NaT bits, tag-bitmap slices, provenance chain at
//! the fault). `--shrink <path>` writes a minimized single-connection
//! reproducer preserving the connection's outcome. One `--seed` integer
//! reproduces every randomized harness — it flows from the CLI through the
//! bench summary and the fault-injection schedules, and defaults to the
//! `SHIFT_SEED` environment variable.
//!
//! Observability flags: `--trace-taint` counts taint births, propagations,
//! and sink hits, and prints the provenance chain behind a detection
//! (`net_read msg#0 bytes 4..12 → r9 → store @0x6000f8 → file_open arg`);
//! `--metrics <path>` writes a schema-stable JSON metrics snapshot;
//! `--profile <path>` writes per-guest-function folded stacks; `--trace-depth
//! N` sizes the last-instructions ring shown by `--trace` (default 16).
//!
//! Flight recording (`serve` only, see DESIGN.md §14): `--trace-out <path>`
//! writes the merged fleet timeline as Chrome `trace_event` JSON — load it
//! in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`;
//! `--prom-out <path>` writes the merged metrics registry in the Prometheus
//! text exposition format; `--sample-cycles N` snapshots the serving
//! counters every N modelled cycles into the trace file's `timeseries`
//! section. `shift trace <file>` summarizes a written trace: a
//! per-connection span table, the longest spans, and the recovery timeline.
//! Recording is zero-perturbation: the modelled results are bit-identical
//! with and without these flags.
//!
//! Modes: `plain`, `byte` (default), `word`, `byte-enhanced`,
//! `word-enhanced`, `shadow-byte`, `shadow-word`.
//!
//! Process exit codes distinguish how the guest ended, so scripts can tell
//! a detection from a crash from a wedged guest:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | clean `Halted(0)` exit (or a successful report command) |
//! | 1    | usage error, or a corpus scan found a missed detection |
//! | 2    | guest program failed to compile |
//! | 3    | guest halted with a nonzero status |
//! | 10   | policy violation detected (H1–H5 sink policies) |
//! | 11   | architectural fault (incl. NaT consumption = L1–L3) |
//! | 12   | per-transaction watchdog fuel exhausted |
//! | 13   | whole-run instruction limit reached |
//! | 14   | replay diverged from the recorded outcome (or wrong image) |
//! | 15   | a shrunk reproducer was produced and written |

use std::process::ExitCode as ProcessExit;

use shift_bench::{spec_matrix, Cell};
use shift_core::replay::mode_from_key;
use shift_core::{CompileError, Exit, Granularity, Mode, Shift, ShiftOptions, MODES};
use shift_workloads::Scale;

/// Every process exit code `shift` can return, in one place.
///
/// The discriminants ARE the process exit codes (the module-level table and
/// the `shift help` output are generated from [`ExitCode::ALL`], so neither
/// can drift from this enum). Codes 4–9 are reserved; scripts can key on
/// the rest unambiguously.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
enum ExitCode {
    /// Clean `Halted(0)` guest exit, or a successful report command.
    Success = 0,
    /// Usage error, a missed-detection corpus scan, or an unreadable input.
    Usage = 1,
    /// The guest program failed to compile.
    Compile = 2,
    /// The guest halted with a nonzero status.
    GuestStatus = 3,
    /// The run ended in a policy violation (H1–H5 sink policies).
    Violation = 10,
    /// The run ended in an architectural fault (incl. NaT consumption =
    /// L1–L3).
    Fault = 11,
    /// The per-transaction watchdog fuel ran dry.
    Fuel = 12,
    /// The whole-run instruction budget ran out.
    InsnLimit = 13,
    /// A replay did not reproduce the recorded outcome bit-identically (or
    /// the compiled image is not the recorded one).
    ReplayDiverged = 14,
    /// A shrunk reproducer was produced and written (`replay --shrink`).
    Shrunk = 15,
}

impl ExitCode {
    /// Every code, in numeric order — the source of the `shift help` table.
    const ALL: [ExitCode; 10] = [
        ExitCode::Success,
        ExitCode::Usage,
        ExitCode::Compile,
        ExitCode::GuestStatus,
        ExitCode::Violation,
        ExitCode::Fault,
        ExitCode::Fuel,
        ExitCode::InsnLimit,
        ExitCode::ReplayDiverged,
        ExitCode::Shrunk,
    ];

    /// The numeric process exit code.
    fn code(self) -> u8 {
        self as u8
    }

    /// One-line meaning, as shown by `shift help`.
    fn describe(self) -> &'static str {
        match self {
            ExitCode::Success => "clean Halted(0) exit (or a successful report command)",
            ExitCode::Usage => "usage error, or a corpus scan found a missed detection",
            ExitCode::Compile => "guest program failed to compile",
            ExitCode::GuestStatus => "guest halted with a nonzero status",
            ExitCode::Violation => "policy violation detected (H1-H5 sink policies)",
            ExitCode::Fault => "architectural fault (incl. NaT consumption = L1-L3)",
            ExitCode::Fuel => "per-transaction watchdog fuel exhausted",
            ExitCode::InsnLimit => "whole-run instruction limit reached",
            ExitCode::ReplayDiverged => "replay diverged from the recorded outcome",
            ExitCode::Shrunk => "a shrunk reproducer was produced and written",
        }
    }

    /// The exit-code table, rendered for `shift help` (and asserted against
    /// this enum by the CLI tests, so the help text cannot drift).
    fn table() -> String {
        let mut out = String::from("exit codes:\n");
        for c in ExitCode::ALL {
            out.push_str(&format!("  {:>4}  {}\n", c.code(), c.describe()));
        }
        out
    }
}

impl From<ExitCode> for ProcessExit {
    fn from(c: ExitCode) -> ProcessExit {
        ProcessExit::from(c.code())
    }
}

/// Maps a guest [`Exit`] to its [`ExitCode`].
fn exit_code_for(exit: &Exit) -> ExitCode {
    match exit {
        Exit::Halted(0) => ExitCode::Success,
        Exit::Halted(_) => ExitCode::GuestStatus,
        Exit::Violation(_) => ExitCode::Violation,
        Exit::Fault(_) => ExitCode::Fault,
        Exit::FuelExhausted => ExitCode::Fuel,
        Exit::InsnLimit => ExitCode::InsnLimit,
        // No runtime produces a park; the match stays total over `Exit`.
        Exit::Parked => ExitCode::Usage,
    }
}

/// Reports a compile failure and yields its dedicated exit code.
fn compile_failed(e: &CompileError) -> ExitCode {
    eprintln!("compile error: {e}");
    ExitCode::Compile
}

/// Pulls `--mode <m>` out of the argument list (default: byte-level SHIFT).
fn take_mode(args: &mut Vec<String>) -> Result<Mode, String> {
    let Some(name) = take_opt(args, "--mode")? else {
        return Ok(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)));
    };
    mode_from_key(&name).ok_or_else(|| format!("unknown mode `{name}` (try `shift modes`)"))
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// Pulls `--flag <value>` out of the argument list. `Ok(None)` when the
/// flag is absent; `Err` when it is present without a value.
fn take_opt(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(value))
}

/// [`take_opt`] for a numeric value: `Err` names the flag when the value
/// does not parse.
fn take_num<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Result<Option<T>, String> {
    take_opt(args, flag)?.map(|n| n.parse().map_err(|_| format!("bad {flag} `{n}`"))).transpose()
}

/// Writes an observability artifact, mapping I/O failure to a usage-style
/// error exit.
fn write_artifact(path: &str, what: &str, content: &str) -> Result<(), ExitCode> {
    std::fs::write(path, content).map_err(|e| {
        eprintln!("cannot write {what} to {path}: {e}");
        ExitCode::Usage
    })
}

fn mode_name(mode: Mode) -> String {
    match mode {
        Mode::Uninstrumented => "plain".into(),
        Mode::Shift(o) => format!(
            "shift/{}{}",
            o.granularity,
            if o.set_clr || o.nat_cmp { "-enhanced" } else { "" }
        ),
        Mode::Shadow(g) => format!("shadow/{g}"),
    }
}

fn cmd_modes() {
    println!("compilation modes:");
    for (name, _, what) in MODES {
        println!("  {name:<14} {what}");
    }
}

fn cmd_attacks(mode: Mode, trace_taint: bool, metrics: Option<String>) -> ExitCode {
    println!("{:<22} {:<24} {:>10} {:>8}", "program", "attack", "verdict", "benign");
    let mut all_ok = true;
    let mut merged = shift_core::Registry::new();
    for atk in shift_attacks::all_attacks() {
        let app = (atk.build)();
        let mut shift = Shift::new(mode);
        if trace_taint || metrics.is_some() {
            shift = shift.with_taint_trace();
        }
        let hit = match shift.run(&app, (atk.exploit)()) {
            Ok(r) => r,
            Err(e) => return compile_failed(&e),
        };
        let benign = match shift.run(&app, (atk.benign)()) {
            Ok(r) => r,
            Err(e) => return compile_failed(&e),
        };
        let verdict = match (mode, hit.exit.is_detection()) {
            (Mode::Uninstrumented, false) => "unseen".to_string(),
            (_, true) => hit
                .detected_policy()
                .map(|p| format!("caught:{p}"))
                .unwrap_or_else(|| "caught".into()),
            (_, false) => {
                all_ok = false;
                "MISSED".into()
            }
        };
        println!(
            "{:<22} {:<24} {:>10} {:>8}",
            atk.program,
            atk.attack_type,
            verdict,
            if benign.exit.is_detection() { "FP!" } else { "clean" }
        );
        if trace_taint {
            match hit.taint_chain() {
                Some(chain) => println!("{:>22}   chain: {chain}", ""),
                None => println!("{:>22}   chain: (none)", ""),
            }
        }
        if metrics.is_some() {
            merged.merge(&shift_core::metrics::run_metrics(&hit));
        }
    }
    if let Some(path) = metrics {
        if let Err(code) = write_artifact(&path, "metrics", &merged.to_json().render()) {
            return code;
        }
        println!("metrics written to {path}");
    }
    if all_ok {
        ExitCode::Success
    } else {
        ExitCode::Usage
    }
}

/// Observability options for `shift attack`.
struct AttackOpts {
    benign: bool,
    /// `Some(depth)` enables the last-instructions ring (`--trace`,
    /// `--trace-depth N`).
    trace_depth: Option<usize>,
    trace_taint: bool,
    metrics: Option<String>,
    profile: Option<String>,
}

fn cmd_attack(name: &str, mode: Mode, opts: AttackOpts) -> ExitCode {
    let Some(atk) = shift_attacks::all_attacks()
        .into_iter()
        .find(|a| a.program.to_lowercase().contains(&name.to_lowercase()))
    else {
        eprintln!("no attack matching `{name}`; programs are:");
        for a in shift_attacks::all_attacks() {
            eprintln!("  {}", a.program);
        }
        return ExitCode::Usage;
    };
    let app = (atk.build)();
    let world = if opts.benign { (atk.benign)() } else { (atk.exploit)() };
    let mut shift = Shift::new(mode);
    if opts.trace_taint {
        shift = shift.with_taint_trace();
    }
    if opts.profile.is_some() {
        shift = shift.with_profile();
    }
    let report = if let Some(depth) = opts.trace_depth {
        // Arm the last-instructions ring on top of the session's own
        // diagnostics so the instructions before the detection are visible.
        let image = match shift.image(&app) {
            Ok(image) => image,
            Err(e) => return compile_failed(&e),
        };
        let mut machine = shift.spawn(&image, &[]);
        machine.enable_trace(depth);
        let report = shift.run_machine(machine, world);
        println!("last instructions before the end of the run:");
        print!("{}", report.machine.trace_listing());
        println!();
        report
    } else {
        match shift.run(&app, world) {
            Ok(r) => r,
            Err(e) => return compile_failed(&e),
        }
    };
    println!("program : {} ({})", atk.program, atk.cve);
    println!("mode    : {}", mode_name(mode));
    println!("input   : {}", if opts.benign { "benign" } else { "exploit" });
    println!("exit    : {}", report.exit);
    if let Some(p) = report.detected_policy() {
        println!("policy  : {p} — {}", p.description());
    }
    if opts.trace_taint {
        match report.taint_chain() {
            Some(chain) => println!("chain   : {chain}"),
            None => println!("chain   : (none)"),
        }
    }
    println!(
        "cycles  : {} ({} instrumentation)",
        report.stats.cycles,
        report.stats.instrumentation_cycles()
    );
    if let Some(path) = &opts.metrics {
        let reg = shift_core::metrics::run_metrics(&report);
        if let Err(code) = write_artifact(path, "metrics", &reg.to_json().render()) {
            return code;
        }
        println!("metrics : written to {path}");
    }
    if let Some(path) = &opts.profile {
        let Some(prof) = report.machine.profiler() else {
            eprintln!("profiler was not armed");
            return ExitCode::Usage;
        };
        if let Err(code) = write_artifact(path, "profile", &prof.folded()) {
            return code;
        }
        println!("profile : folded stacks written to {path}");
        println!("hottest blocks:");
        for (ip, func, cycles) in prof.hot_blocks(5) {
            println!("  ip {ip:>6}  {func:<20} {cycles:>12} cycles");
        }
    }
    exit_code_for(&report.exit)
}

/// Runs the headline experiments (Figure-7 SPEC geomeans, Figure-6 Apache
/// geomeans, the fleet-serving sweep) and prints — or with `json`, writes
/// to `BENCH_shift.json` — a machine-readable summary. The sweeps run on
/// one host thread per core; the modelled results are identical at any
/// host thread count. `seed` is stamped into the summary so a run can be
/// tied back to the randomized schedules it drove.
fn cmd_bench(json: bool, scale: Scale, seed: u64) -> ExitCode {
    let (sizes, requests): (&[usize], usize) = match scale {
        Scale::Test => (&[1 << 10, 8 << 10], 6),
        Scale::Reference => (&[1 << 10, 10 << 10, 100 << 10], 50),
    };
    let started = std::time::Instant::now();
    let summary = shift_bench::bench_summary(scale, sizes, requests, seed);
    let host = started.elapsed();
    let text = summary.render();
    if json {
        if let Err(code) = write_artifact("BENCH_shift.json", "bench summary", &text) {
            return code;
        }
        println!(
            "bench summary written to BENCH_shift.json ({:.2}s host time)",
            host.as_secs_f64()
        );
    } else {
        print!("{text}");
    }
    ExitCode::Success
}

fn cmd_spec(name: &str, mode: Mode, scale: Scale, tainted: bool) -> ExitCode {
    let selected: Vec<_> = shift_workloads::all_benches()
        .into_iter()
        .filter(|b| name == "all" || b.name == name)
        .collect();
    if selected.is_empty() {
        eprintln!(
            "no benchmark `{name}`; try: all, gzip, gcc, crafty, bzip2, vpr, mcf, parser, twolf"
        );
        return ExitCode::Usage;
    }
    let cells = [Cell { mode: Mode::Uninstrumented, tainted }, Cell { mode, tainted }];
    println!("{:<10} {:>14} {:>14} {:>10}", "bench", "cycles", "instructions", "slowdown");
    for (bench, runs) in selected.iter().zip(spec_matrix(&selected, scale, &cells)) {
        let (base, run) = (&runs[0].0, &runs[1].0);
        println!(
            "{:<10} {:>14} {:>14} {:>9.2}x",
            bench.name,
            run.cycles,
            run.instructions,
            run.cycles as f64 / base.cycles as f64
        );
    }
    ExitCode::Success
}

fn cmd_apache(size_kb: usize, requests: usize, mode: Mode) -> ExitCode {
    let run = shift_workloads::apache::run_apache(mode, size_kb << 10, requests);
    let base = shift_workloads::apache::run_apache(Mode::Uninstrumented, size_kb << 10, requests);
    println!("mode       : {}", mode_name(mode));
    println!("served     : {} requests of {size_kb} KB", run.served);
    println!("cpu cycles : {} (baseline {})", run.stats.cycles, base.stats.cycles);
    println!("io cycles  : {}", run.stats.io_cycles);
    println!(
        "overhead   : {:+.2}% end-to-end, {:.2}x cpu",
        (run.total_time() as f64 / base.total_time() as f64 - 1.0) * 100.0,
        run.stats.cycles as f64 / base.stats.cycles as f64
    );
    ExitCode::Success
}

/// `shift serve` options, after mode extraction.
struct ServeOpts {
    workers: usize,
    connections: usize,
    requests: usize,
    size_kb: Option<usize>,
    json: Option<String>,
    /// Master seed for randomized schedules (default: `SHIFT_SEED` env or
    /// the built-in default).
    seed: Option<u64>,
    /// Arm a randomized chaos injection schedule derived from the seed.
    inject: bool,
    /// Write a replay log of the run here.
    record: Option<String>,
    /// Write the merged flight-recorder timeline here as Chrome
    /// `trace_event` JSON (arms the recorder).
    trace_out: Option<String>,
    /// Write the merged metrics registry here in the Prometheus text
    /// exposition format (arms the recorder).
    prom_out: Option<String>,
    /// Snapshot serving counters every N modelled cycles (arms the
    /// recorder; the samples land in the trace file's `timeseries`).
    sample_cycles: Option<u64>,
    /// `--arrivals` and the scheduler flags that go with it. `Some`
    /// switches serving to the event-driven scheduler.
    open_loop: Option<OpenLoopOpts>,
}

/// The open-loop half of [`ServeOpts`].
struct OpenLoopOpts {
    /// The arrival process (`poisson:RATE`, `bursty:RATE[:B]`,
    /// `diurnal:RATE[:A]`).
    process: shift_workloads::ArrivalProcess,
    /// Modelled workers (`--workers`), accept-queue bound, resident-guest
    /// cap, and round-robin quantum in cycles (0 = run each CPU leg to its
    /// park).
    cfg: shift_core::OpenLoopConfig,
}

impl ServeOpts {
    /// Whether any flag asked for the flight recorder.
    fn recording(&self) -> bool {
        self.trace_out.is_some() || self.prom_out.is_some() || self.sample_cycles.is_some()
    }
}

/// Parses `shift serve`'s arguments (after mode extraction). An argument
/// left over once every flag is taken, or a scheduler flag given without
/// `--arrivals`, is an error naming it.
fn parse_serve(args: &mut Vec<String>) -> Result<ServeOpts, String> {
    let arrivals = take_opt(args, "--arrivals")?;
    // `--workers` is a modelled width in both loops (the closed loop's
    // fleet, the event scheduler's cores), so it defaults to the
    // paper-scale 8 rather than to anything about the host.
    let workers = take_num(args, "--workers")?.unwrap_or(8);
    let mut opts = ServeOpts {
        workers,
        connections: take_num(args, "--connections")?.unwrap_or(8),
        requests: take_num(args, "--requests")?.unwrap_or(4),
        size_kb: take_num(args, "--size-kb")?,
        json: take_opt(args, "--json")?,
        seed: take_num(args, "--seed")?,
        inject: take_flag(args, "--inject"),
        record: take_opt(args, "--record")?,
        trace_out: take_opt(args, "--trace-out")?,
        prom_out: take_opt(args, "--prom-out")?,
        sample_cycles: take_num(args, "--sample-cycles")?,
        open_loop: None,
    };
    let accept_cap = take_num(args, "--accept-cap")?;
    let max_resident = take_num(args, "--max-resident")?;
    let quantum = take_num(args, "--quantum")?;
    no_leftovers("serve", args)?;
    let open_only = [
        ("--accept-cap", accept_cap.is_some()),
        ("--max-resident", max_resident.is_some()),
        ("--quantum", quantum.is_some()),
    ];
    if let (None, Some((flag, _))) = (&arrivals, open_only.iter().find(|(_, given)| *given)) {
        return Err(format!("{flag} applies only to open-loop serving (--arrivals)"));
    }
    let Some(spec) = arrivals else { return Ok(opts) };
    let process = shift_workloads::ArrivalProcess::parse(&spec)
        .map_err(|e| format!("bad --arrivals `{spec}`: {e}"))?;
    opts.open_loop = Some(OpenLoopOpts {
        process,
        cfg: shift_core::OpenLoopConfig {
            workers,
            accept_cap: accept_cap.unwrap_or(1024),
            max_resident: max_resident.unwrap_or(256),
            quantum: quantum.unwrap_or(100_000),
        },
    });
    Ok(opts)
}

/// One `shift serve` run, reduced to what [`cmd_serve`] prints and writes.
/// Each serving loop fills it in its own branch of [`serve_run`].
struct ServeRun {
    seed: u64,
    /// Injections armed by `--inject`.
    armed: usize,
    /// The loop's own report lines, printed after the `mode` line.
    lines: Vec<String>,
    violations: usize,
    host_ns: u64,
    /// The merged timeline when `--trace-out` asked for it, plus the note
    /// appended to the `trace` line.
    trace: Option<(Vec<shift_core::TraceEvent>, Vec<shift_core::Sample>, String)>,
    registry: shift_core::Registry,
    /// The replay log when `--record` asked for it, plus the `record`
    /// line's parenthesised summary.
    log: Option<(shift_core::ReplayLog, String)>,
    /// The loop's own `--json` keys, between `seed` and `violations`.
    pairs: Vec<(&'static str, shift_obs::Json)>,
    /// What a failed `--json` write calls the document.
    json_what: &'static str,
    /// The exit of every connection that ran, in connection order.
    exits: Vec<Exit>,
}

/// Serves a deterministic Apache request stream — closed loop across a
/// `workers`-wide modelled fleet, or open loop under `--arrivals` — and
/// collects what [`cmd_serve`] reports. The recording artifacts are
/// assembled *after* the run from its inputs and report, so the serving
/// path is identical with and without them.
fn serve_run(mode: Mode, opts: &ServeOpts) -> ServeRun {
    use shift_core::ReplayLog;
    use shift_obs::Json;
    use shift_workloads::apache::{apache_fleet, fleet_connections, fleet_world, ApacheStream};
    use shift_workloads::chaos;
    let stream = match opts.size_kb {
        Some(kb) => ApacheStream::Uniform(kb << 10),
        None => ApacheStream::Mixed,
    };
    let mut fleet = apache_fleet(mode);
    if opts.recording() {
        // Zero-perturbation by construction (DESIGN.md §14): arming changes
        // only host-side buffers, never the modelled outcome.
        fleet = fleet.with_flight_recorder(shift_core::FlightConfig {
            cap: shift_core::DEFAULT_TRACE_CAP,
            sample_cycles: opts.sample_cycles.unwrap_or(0),
        });
    }
    let conns = fleet_connections(stream, opts.connections, opts.requests);
    let seed = opts.seed.unwrap_or_else(chaos::master_seed);
    let faults = if opts.inject {
        chaos::random_fault_plan(
            &mut chaos::Rng::new(chaos::derive(seed, "serve-inject")),
            conns.len(),
        )
    } else {
        Vec::new()
    };
    let world = fleet_world(stream);
    let image = format!(
        "image      : {} insns compiled once, {} pristine pages per spawn",
        fleet.image().insn_count(),
        fleet.image().resident_pages()
    );
    let requests = |served, recovered, dropped, delivered| {
        format!(
            "requests   : {served} served / {recovered} recovered / {dropped} dropped of \
             {delivered} delivered"
        )
    };
    let armed = faults.iter().map(Vec::len).sum();
    let Some(ol) = &opts.open_loop else {
        let report = fleet.serve_chaos(&world, &conns, &faults, opts.workers);
        return ServeRun {
            seed,
            armed,
            lines: vec![
                format!(
                    "fleet      : {} instances, {} connections x {} requests",
                    report.workers,
                    conns.len(),
                    opts.requests
                ),
                image,
                requests(report.served, report.recovered, report.dropped, report.requests),
                format!(
                    "throughput : {:.0} req/s modelled ({} wall cycles)",
                    report.requests_per_sec(),
                    report.wall_cycles
                ),
                format!(
                    "latency    : p50 {} / p99 {} cycles",
                    report.latency_percentile(50.0).unwrap_or(0),
                    report.latency_percentile(99.0).unwrap_or(0)
                ),
            ],
            violations: report.violations.len(),
            host_ns: report.host_ns,
            trace: opts.trace_out.as_ref().map(|_| {
                let dropped = report.trace_dropped();
                let note = if dropped > 0 {
                    format!(" ({dropped} dropped to ring caps)")
                } else {
                    String::new()
                };
                (report.merged_trace_events(), report.merged_samples(), note)
            }),
            log: opts.record.as_ref().map(|_| {
                let log =
                    ReplayLog::capture("apache", &fleet, &world, &conns, &faults, seed, &report);
                (log, format!("{} connections", conns.len()))
            }),
            pairs: vec![
                ("workers", Json::U64(report.workers as u64)),
                ("connections", Json::U64(conns.len() as u64)),
                ("requests", Json::U64(report.requests)),
                ("served", Json::U64(report.served)),
                ("recovered", Json::U64(report.recovered)),
                ("dropped", Json::U64(report.dropped)),
                ("wall_cycles", Json::U64(report.wall_cycles)),
                ("requests_per_sec", Json::F64(report.requests_per_sec())),
            ],
            json_what: "fleet report",
            exits: report.exits(),
            registry: report.registry,
        };
    };
    let (cfg, spec) = (ol.cfg, ol.process.spec());
    let arrivals = ol.process.schedule(conns.len(), chaos::derive(seed, "arrivals"));
    let host = shift_core::pool::host_threads();
    let report = fleet.serve_open_loop(&world, &conns, &faults, &arrivals, &cfg, host);
    let sojourn = |p| report.sojourn_percentile(p).unwrap_or(0);
    ServeRun {
        seed,
        armed,
        lines: vec![
            format!("arrivals   : {spec} ({} connections offered)", report.offered),
            format!(
                "fleet      : {} modelled workers, accept-cap {}, max-resident {}, quantum {}",
                cfg.workers, cfg.accept_cap, cfg.max_resident, cfg.quantum
            ),
            image,
            format!(
                "admission  : {} completed / {} shed of {} offered{}",
                report.completed,
                report.shed,
                report.offered,
                if report.saturated() { " — SATURATED" } else { "" }
            ),
            requests(report.served, report.recovered, report.dropped, report.requests),
            format!(
                "sojourn    : p50 {} / p99 {} / p999 {} cycles (max {})",
                sojourn(50.0),
                sojourn(99.0),
                sojourn(99.9),
                report.sojourn_max().unwrap_or(0)
            ),
            format!(
                "throughput : {:.0} req/s modelled, {:.1} conn/s ({} wall cycles, {:.1}% \
                 utilization)",
                report.requests_per_sec(),
                report.completions_per_sec(),
                report.wall_cycles,
                report.utilization() * 100.0
            ),
            format!(
                "queue      : peak depth {} / peak resident {} guests",
                report.peak_queue_depth, report.peak_resident
            ),
            format!(
                "memory     : peak {} owned pages in any resident guest ({} total over the run)",
                report.peak_owned_pages, report.owned_pages_total
            ),
        ],
        violations: report.violations.len(),
        host_ns: report.host_ns,
        trace: opts
            .trace_out
            .as_ref()
            .map(|_| (report.merged_trace_events(), report.merged_samples(), String::new())),
        log: opts.record.as_ref().map(|_| {
            let log = ReplayLog::capture_open_loop(
                "apache", &fleet, &world, &conns, &faults, seed, &spec, &arrivals, &report,
            );
            (log, format!("{} connections, {} shed", conns.len(), report.shed))
        }),
        pairs: vec![
            ("arrivals", Json::Str(spec.clone())),
            ("workers", Json::U64(cfg.workers as u64)),
            ("accept_cap", Json::U64(cfg.accept_cap as u64)),
            ("max_resident", Json::U64(cfg.max_resident as u64)),
            ("quantum", Json::U64(cfg.quantum)),
            ("offered", Json::U64(report.offered)),
            ("completed", Json::U64(report.completed)),
            ("shed", Json::U64(report.shed)),
            ("saturated", Json::Bool(report.saturated())),
            ("requests", Json::U64(report.requests)),
            ("served", Json::U64(report.served)),
            ("recovered", Json::U64(report.recovered)),
            ("dropped", Json::U64(report.dropped)),
            ("wall_cycles", Json::U64(report.wall_cycles)),
            ("requests_per_sec", Json::F64(report.requests_per_sec())),
            ("sojourn_p50", Json::U64(sojourn(50.0))),
            ("sojourn_p99", Json::U64(sojourn(99.0))),
            ("sojourn_p999", Json::U64(sojourn(99.9))),
            ("sojourn_max", Json::U64(report.sojourn_max().unwrap_or(0))),
            ("utilization", Json::F64(report.utilization())),
            ("peak_queue_depth", Json::U64(report.peak_queue_depth)),
            ("peak_resident", Json::U64(report.peak_resident)),
            ("peak_owned_pages", Json::U64(report.peak_owned_pages)),
        ],
        json_what: "open-loop report",
        exits: report.connections.iter().filter_map(|c| c.exit.clone()).collect(),
        registry: report.registry,
    }
}

/// The `serve --json` document: the envelope every serve writes around the
/// serving loop's own keys.
fn serve_json(mode: Mode, run: &ServeRun, record: Option<&str>) -> shift_obs::Json {
    use shift_obs::Json;
    let mut pairs = vec![
        ("schema_version", Json::U64(shift_obs::SCHEMA_VERSION)),
        ("mode", Json::Str(mode_name(mode))),
        ("seed", Json::U64(run.seed)),
    ];
    pairs.extend(run.pairs.iter().cloned());
    pairs.extend([
        ("violations", Json::U64(run.violations as u64)),
        ("host_ns", Json::U64(run.host_ns)),
        ("metrics", run.registry.to_json()),
    ]);
    if let Some(record) = record {
        pairs.push(("record_log", Json::Str(record.to_string())));
    }
    Json::obj(pairs)
}

/// `shift serve`: serves the Apache stream (see [`serve_run`]), prints the
/// report, and writes the artifacts the flags asked for. Succeeds when
/// every connection that ran reached a halt (served responses — 200s and
/// 404s alike — are successes; open-loop shedding is the admission
/// controller doing its job); otherwise exits with the first non-halt's
/// code.
fn cmd_serve(mode: Mode, opts: ServeOpts) -> ExitCode {
    let run = serve_run(mode, &opts);
    println!("mode       : {}", mode_name(mode));
    for line in &run.lines {
        println!("{line}");
    }
    if run.violations > 0 {
        println!("violations : {}", run.violations);
    }
    if opts.inject {
        println!("chaos      : {} injections armed (seed {})", run.armed, run.seed);
    }
    println!(
        "host       : {:.2} ms ({} host workers)",
        run.host_ns as f64 / 1e6,
        shift_core::pool::host_threads()
    );
    if let (Some(path), Some((events, samples, note))) = (&opts.trace_out, &run.trace) {
        let doc = shift_core::chrome_trace_json(events, samples);
        if let Err(code) = write_artifact(path, "trace", &doc.render()) {
            return code;
        }
        println!(
            "trace      : {} events / {} samples written to {path}{note}",
            events.len(),
            samples.len()
        );
    }
    if let Some(path) = &opts.prom_out {
        if let Err(code) = write_artifact(path, "prometheus metrics", &run.registry.to_prometheus())
        {
            return code;
        }
        println!("metrics    : prometheus text written to {path}");
    }
    if let (Some(path), Some((log, summary))) = (&opts.record, &run.log) {
        if let Err(code) = write_artifact(path, "replay log", &log.render()) {
            return code;
        }
        println!("record     : replay log written to {path} ({summary})");
    }
    if let Some(path) = &opts.json {
        let doc = serve_json(mode, &run, opts.record.as_deref());
        if let Err(code) = write_artifact(path, run.json_what, &doc.render()) {
            return code;
        }
        println!("report     : written to {path}");
    }
    match run.exits.iter().find(|e| !matches!(e, Exit::Halted(_))) {
        Some(exit) => exit_code_for(exit),
        None => ExitCode::Success,
    }
}

/// Parses a REPL address operand: `0x`-prefixed hex or plain decimal.
fn parse_addr(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// One-line position summary for the debugger prompt.
fn repl_position(pm: &shift_core::Postmortem) -> String {
    match pm.exit() {
        Some(exit) => format!(
            "stopped: {exit} (ip {}, {} insns, {} cycles)",
            pm.ip(),
            pm.instructions(),
            pm.cycles()
        ),
        None => format!("ip {} ({} insns, {} cycles)", pm.ip(), pm.instructions(), pm.cycles()),
    }
}

const REPL_HELP: &str = "commands:\n  \
     step [n] (s)     single-step n instructions (default 1)\n  \
     run [n]          run up to n more instructions (default: the log's budget)\n  \
     regs (r)         general registers (nonzero or NaT'd) and unat\n  \
     mem <addr> [len] hex dump of guest memory (default 64 bytes)\n  \
     taint <addr> [len] tainted byte ranges in [addr, addr+len)\n  \
     bt               recent-instruction trace and provenance chain\n  \
     dis [radius]     disassembly around the current ip (default 4)\n  \
     report           the full postmortem report\n  \
     quit (q)         leave — prints the final postmortem on the way out";

/// The interactive postmortem debugger behind `shift replay --debug`.
///
/// Reads commands from stdin (prompting only when stdin is a terminal) and
/// drives the [`shift_core::Postmortem`] single-step API. On `quit` or EOF
/// the session runs to its recorded stop (if it has not already) and prints
/// the full postmortem report — so a non-interactive `--debug` (stdin
/// closed or piped empty, as in CI) behaves exactly like the batch
/// debugger did.
fn debug_repl(pm: &mut shift_core::Postmortem, log: &shift_core::ReplayLog, c: usize) -> ExitCode {
    use std::io::{BufRead, IsTerminal, Write};
    let stdin = std::io::stdin();
    let interactive = stdin.is_terminal();
    if interactive {
        println!("--- interactive postmortem: connection {c} (`help` lists commands) ---");
        println!("{}", repl_position(pm));
    }
    let mut lines = stdin.lock().lines();
    loop {
        if interactive {
            print!("(pm) ");
            std::io::stdout().flush().ok();
        }
        let Some(Ok(line)) = lines.next() else { break };
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else { continue };
        match cmd {
            "q" | "quit" => break,
            "h" | "help" | "?" => println!("{REPL_HELP}"),
            "s" | "step" => {
                let n = parts.next().and_then(|v| v.parse().ok()).unwrap_or(1);
                pm.step(n);
                println!("{}", repl_position(pm));
            }
            "run" => {
                let n = parts.next().and_then(|v| v.parse().ok()).unwrap_or(log.insn_limit);
                pm.run_to_violation(n);
                println!("{}", repl_position(pm));
            }
            "r" | "regs" => {
                for (reg, val) in pm.registers() {
                    if val.value != 0 || val.nat {
                        println!(
                            "  {reg:<4} {:#018x}{}",
                            val.value,
                            if val.nat { "  NaT" } else { "" }
                        );
                    }
                }
                println!("  unat {:#018x}", pm.unat());
            }
            "mem" => {
                let Some(addr) = parts.next().and_then(parse_addr) else {
                    println!("usage: mem <addr> [len]");
                    continue;
                };
                let len = parts.next().and_then(parse_addr).unwrap_or(64);
                for row in pm.mem_slice(addr, len).chunks(16) {
                    let bytes: Vec<String> = row
                        .iter()
                        .map(|(_, b)| b.map_or("--".into(), |v| format!("{v:02x}")))
                        .collect();
                    let ascii: String = row
                        .iter()
                        .map(|(_, b)| match b {
                            Some(v) if v.is_ascii_graphic() || *v == b' ' => *v as char,
                            Some(_) => '.',
                            None => ' ',
                        })
                        .collect();
                    println!("  {:#010x}  {:<47}  |{ascii}|", row[0].0, bytes.join(" "));
                }
            }
            "taint" => {
                let Some(addr) = parts.next().and_then(parse_addr) else {
                    println!("usage: taint <addr> [len]");
                    continue;
                };
                let len = parts.next().and_then(parse_addr).unwrap_or(64);
                let runs = pm.tainted_ranges(addr, len);
                if runs.is_empty() {
                    println!("  no tainted bytes in [{addr:#x}, {:#x})", addr.saturating_add(len));
                } else {
                    for (start, n) in runs {
                        println!("  {start:#x} +{n} tainted");
                    }
                }
            }
            "bt" => {
                print!("{}", pm.trace_listing());
                match pm.provenance() {
                    Some(chain) => println!("provenance: {chain}"),
                    None => println!("provenance: (none)"),
                }
            }
            "dis" => {
                let radius = parts.next().and_then(|v| v.parse().ok()).unwrap_or(4);
                print!("{}", pm.disasm_window(radius));
            }
            "report" => print!("{}", pm.report()),
            _ => println!("unknown command `{cmd}` — `help` lists commands"),
        }
    }
    if pm.exit().is_none() {
        pm.run_to_violation(log.insn_limit);
    }
    println!("--- postmortem: connection {c} ---");
    print!("{}", pm.report());
    match pm.exit() {
        Some(exit) => exit_code_for(exit),
        None => ExitCode::Success,
    }
}

/// Replays a recorded fleet run from `path` and verifies bit-identical
/// outcomes. `--connection N` restricts to one connection; `--debug` runs
/// that connection under the postmortem debugger instead of verifying;
/// `--shrink <out>` writes a minimized single-connection reproducer.
fn cmd_replay(
    path: &str,
    connection: Option<usize>,
    debug: bool,
    shrink_out: Option<String>,
) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read replay log `{path}`: {e}");
            return ExitCode::Usage;
        }
    };
    let log = match shift_core::ReplayLog::parse(&text) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bad replay log `{path}`: {e}");
            return ExitCode::Usage;
        }
    };
    let Some(guest) = shift_workloads::chaos::guest(&log.program) else {
        eprintln!("replay log names unknown program `{}`", log.program);
        return ExitCode::Usage;
    };
    let fleet = match log.build_fleet(&(guest.program)()) {
        Ok(f) => f,
        Err(e) => {
            // A digest mismatch means the rebuilt image differs from the
            // recorded one — the log can no longer reproduce that run.
            eprintln!("replay diverged: {e}");
            return ExitCode::ReplayDiverged;
        }
    };
    if let Some(c) = connection {
        if c >= log.connections.len() {
            eprintln!("log has {} connections; no connection {c}", log.connections.len());
            return ExitCode::Usage;
        }
    }
    println!("log        : {path}");
    println!("program    : {} ({})", log.program, mode_name(log.mode));
    println!("connections: {} recorded, seed {}", log.connections.len(), log.seed);
    if let Some(ol) = &log.open_loop {
        println!(
            "open-loop  : {} over {} workers (accept-cap {}, max-resident {}, quantum {}); \
             {} completed / {} shed",
            ol.spec, ol.workers, ol.accept_cap, ol.max_resident, ol.quantum, ol.completed, ol.shed
        );
    }
    if debug {
        let c = connection.unwrap_or(0);
        if log.expected.get(c).is_some_and(shift_core::replay::Expected::is_shed) {
            eprintln!("connection {c} was shed by admission control — it never ran");
            return ExitCode::Usage;
        }
        let mut pm = shift_core::Postmortem::from_log(&log, &fleet, c);
        return debug_repl(&mut pm, &log, c);
    }
    if let Some(out) = shrink_out {
        let c = connection.unwrap_or(0);
        let shrunk = log.shrink(&fleet, c);
        if let Err(code) = write_artifact(&out, "shrunk reproducer", &shrunk.log.render()) {
            return code;
        }
        println!(
            "shrunk     : connection {c} -> {} requests / {} injections \
             (-{} requests, -{} injections, {} probes)",
            shrunk.log.connections[0].requests.len(),
            shrunk.log.connections[0].injections.len(),
            shrunk.removed_requests,
            shrunk.removed_injections,
            shrunk.probes,
        );
        println!("reproduce  : shift replay {out}");
        return ExitCode::Shrunk;
    }
    let targets: Vec<usize> = match connection {
        Some(c) => vec![c],
        None => (0..log.connections.len()).collect(),
    };
    let mut diverged = false;
    let mut outcomes = Vec::new();
    for c in targets {
        if log.expected.get(c).is_some_and(shift_core::replay::Expected::is_shed) {
            println!("connection {c:>2}: shed by admission control (not replayed)");
            continue;
        }
        let outcome = log.replay_connection(&fleet, c);
        if outcome.matches() {
            println!(
                "connection {c:>2}: ok ({}, digest {:016x})",
                shift_core::replay::exit_signature(&outcome.live.exit),
                outcome.live.state_digest
            );
        } else {
            diverged = true;
            println!("connection {c:>2}: DIVERGED");
            for m in &outcome.mismatches {
                println!("    {m}");
            }
        }
        if log.open_loop.is_some() {
            outcomes.push(outcome);
        }
    }
    // The open-loop schedule needs every connection's legs.
    if let (None, Some(_)) = (connection, &log.open_loop) {
        let mismatches = log.verify_schedule(&outcomes);
        diverged |= !mismatches.is_empty();
        println!("schedule   : {}", if mismatches.is_empty() { "ok" } else { "DIVERGED" });
        for m in &mismatches {
            println!("    {m}");
        }
    }
    if diverged {
        eprintln!("replay diverged from the recorded run");
        ExitCode::ReplayDiverged
    } else {
        println!("replay     : bit-identical");
        ExitCode::Success
    }
}

fn cmd_disasm(mode: Mode) -> ExitCode {
    use shift_ir::ProgramBuilder;
    let mut pb = ProgramBuilder::new();
    let g = pb.global_zeroed("cell", 16);
    pb.func("main", 0, move |f| {
        let p = f.global_addr(g);
        let v = f.load8(p, 0);
        let b = f.andi(v, 0xff);
        f.store1(b, p, 8);
        f.ret(Some(b));
    });
    let program = pb.build().unwrap();
    let compiled = match shift_compiler::Compiler::new(mode).compile(&program) {
        Ok(c) => c,
        Err(e) => return compile_failed(&e),
    };
    let (start, end) = compiled.func_ranges["main"];
    println!("mode: {} — one ld8 + one st1, instrumented:", mode_name(mode));
    println!("{}", shift_isa::disasm_listing(&compiled.image.code[start..end], start));
    ExitCode::Success
}

/// Summarizes a Chrome `trace_event` JSON file written by
/// `shift serve --trace-out`: a per-connection span table, the longest
/// spans, and the recovery timeline (recoveries, violations, injections).
fn cmd_trace(path: &str) -> ExitCode {
    use shift_core::Json;
    use std::collections::BTreeMap;
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read trace `{path}`: {e}");
            return ExitCode::Usage;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bad trace `{path}`: {e}");
            return ExitCode::Usage;
        }
    };
    let Some(Json::Arr(raw)) = doc.get("traceEvents") else {
        eprintln!("`{path}` has no traceEvents array — not a shift trace");
        return ExitCode::Usage;
    };
    // One decoded row per non-metadata event. `dur == 0` means an instant.
    struct Ev<'a> {
        name: &'a str,
        tid: u64,
        cycle: u64,
        dur: u64,
        args: &'a Json,
    }
    let events: Vec<Ev> = raw
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
        .filter_map(|e| {
            Some(Ev {
                name: e.get("name")?.as_str()?,
                tid: e.get("tid")?.as_u64()?,
                cycle: e.get("args")?.get("cycle")?.as_u64()?,
                dur: e.get("args")?.get("dur_cycles")?.as_u64()?,
                args: e.get("args")?,
            })
        })
        .collect();
    if events.len()
        != raw.iter().filter(|e| e.get("ph").and_then(Json::as_str) != Some("M")).count()
    {
        eprintln!("`{path}` has malformed trace events");
        return ExitCode::Usage;
    }

    #[derive(Default)]
    struct Row {
        events: usize,
        requests: usize,
        recoveries: usize,
        violations: usize,
        span_cycles: u64,
    }
    let mut rows: BTreeMap<u64, Row> = BTreeMap::new();
    for e in &events {
        let row = rows.entry(e.tid).or_default();
        row.events += 1;
        match e.name {
            "request" => row.requests += 1,
            "recovery" => row.recoveries += 1,
            "violation" => row.violations += 1,
            "connection" => row.span_cycles = row.span_cycles.max(e.dur),
            _ => {}
        }
    }
    println!("trace      : {path} ({} events)", events.len());
    println!(
        "{:>10} {:>8} {:>9} {:>11} {:>11} {:>14}",
        "connection", "events", "requests", "recoveries", "violations", "span cycles"
    );
    for (tid, r) in &rows {
        println!(
            "{:>10} {:>8} {:>9} {:>11} {:>11} {:>14}",
            tid, r.events, r.requests, r.recoveries, r.violations, r.span_cycles
        );
    }

    let mut spans: Vec<&Ev> = events.iter().filter(|e| e.dur > 0).collect();
    spans.sort_by(|a, b| b.dur.cmp(&a.dur).then(a.cycle.cmp(&b.cycle)).then(a.tid.cmp(&b.tid)));
    if !spans.is_empty() {
        println!("longest spans:");
        for e in spans.iter().take(5) {
            println!(
                "  {:>12} cycles  {} (connection {}, start {})",
                e.dur, e.name, e.tid, e.cycle
            );
        }
    }

    let mut incidents: Vec<&Ev> = events
        .iter()
        .filter(|e| matches!(e.name, "recovery" | "violation" | "injection"))
        .collect();
    incidents.sort_by_key(|e| (e.cycle, e.tid));
    if incidents.is_empty() {
        println!("recovery timeline: clean run, no incidents");
    } else {
        println!("recovery timeline:");
        for e in &incidents {
            let detail = match e.name {
                "violation" => format!(
                    "{} -> {}",
                    e.args.get("policy").and_then(Json::as_str).unwrap_or("?"),
                    e.args.get("action").and_then(Json::as_str).unwrap_or("?")
                ),
                "recovery" => format!(
                    "{} cycles thrown away",
                    e.args.get("recovered_cycles").and_then(Json::as_u64).unwrap_or(0)
                ),
                _ => e.args.get("what").and_then(Json::as_str).unwrap_or("?").to_string(),
            };
            println!("  cycle {:>12}  connection {:>2}  {:<10} {}", e.cycle, e.tid, e.name, detail);
        }
    }
    if let Some(Json::Arr(series)) = doc.get("timeseries") {
        if !series.is_empty() {
            println!("timeseries : {} samples", series.len());
        }
    }
    ExitCode::Success
}

const USAGE: &str = "usage:\n  \
     shift attacks [--mode M] [--trace-taint] [--metrics <path>]\n  \
     shift attack <program> [--mode M] [--benign] [--trace] [--trace-depth N]\n  \
     \x20                  [--trace-taint] [--metrics <path>] [--profile <path>]\n  \
     shift spec <bench|all> [--mode M] [--reference] [--safe]\n  \
     shift apache <size-kb> <requests> [--mode M]\n  \
     shift serve [--mode M] [--workers N] [--connections N] [--requests N]\n  \
     \x20           [--size-kb N] [--json <path>] [--seed N] [--inject] [--record <path>]\n  \
     \x20           [--trace-out <path>] [--prom-out <path>] [--sample-cycles N]\n  \
     \x20           [--arrivals poisson:R|bursty:R[:B]|diurnal:R[:A]] [--accept-cap N]\n  \
     \x20           [--max-resident N] [--quantum N]\n  \
     shift trace <file>\n  \
     shift replay <log> [--connection N] [--debug] [--shrink <path>]\n  \
     shift bench [--json] [--reference] [--seed N]\n  \
     shift disasm [--mode M]\n  \
     shift modes\n  \
     shift help";

/// `shift help`: the usage text plus the exit-code table, on stdout.
fn cmd_help() -> ExitCode {
    println!("{USAGE}");
    println!();
    print!("{}", ExitCode::table());
    ExitCode::Success
}

/// A parsed subcommand with everything it takes.
enum Command {
    Modes,
    Attacks { trace_taint: bool, metrics: Option<String> },
    Attack { name: String, opts: AttackOpts },
    Spec { name: String, scale: Scale, tainted: bool },
    Apache { size_kb: usize, requests: usize },
    Serve(ServeOpts),
    Bench { json: bool, scale: Scale, seed: u64 },
    Replay { path: String, connection: Option<usize>, debug: bool, shrink: Option<String> },
    Trace { path: String },
    Disasm,
    Help,
}

/// `Err` naming the first argument nobody took, if any.
fn no_leftovers(cmd: &str, args: &[String]) -> Result<(), String> {
    match args.first() {
        Some(extra) => Err(format!("unrecognised {cmd} argument `{extra}`")),
        None => Ok(()),
    }
}

/// Takes the next positional argument; without one, the usage text.
fn positional(args: &mut Vec<String>) -> Result<String, String> {
    if args.is_empty() {
        Err(USAGE.into())
    } else {
        Ok(args.remove(0))
    }
}

/// Parses a command line (program name stripped): the subcommand, its
/// `--mode`, and its options. Each subcommand takes its flags, then its
/// positionals; an argument left over after that is an error naming it.
/// `Err` is the message to print — the usage text for a missing or
/// malformed positional or an unknown subcommand.
fn parse(mut args: Vec<String>) -> Result<(Command, Mode), String> {
    if args.is_empty() {
        return Err(USAGE.into());
    }
    let cmd = args.remove(0);
    let mode = take_mode(&mut args)?;
    let args = &mut args;
    let reference = |args: &mut Vec<String>| {
        if take_flag(args, "--reference") {
            Scale::Reference
        } else {
            Scale::Test
        }
    };
    let command = match cmd.as_str() {
        "modes" => Command::Modes,
        "attacks" => Command::Attacks {
            trace_taint: take_flag(args, "--trace-taint"),
            metrics: take_opt(args, "--metrics")?,
        },
        "attack" => {
            let benign = take_flag(args, "--benign");
            let trace = take_flag(args, "--trace");
            // `--trace` alone keeps the historical 16-deep ring.
            let trace_depth = take_num(args, "--trace-depth")?.or(trace.then_some(16));
            let opts = AttackOpts {
                benign,
                trace_depth,
                trace_taint: take_flag(args, "--trace-taint"),
                metrics: take_opt(args, "--metrics")?,
                profile: take_opt(args, "--profile")?,
            };
            Command::Attack { name: positional(args)?, opts }
        }
        "spec" => {
            let scale = reference(args);
            let tainted = !take_flag(args, "--safe");
            Command::Spec { name: positional(args)?, scale, tainted }
        }
        "apache" => {
            let mut num = || positional(args)?.parse().map_err(|_| USAGE.to_string());
            Command::Apache { size_kb: num()?, requests: num()? }
        }
        "serve" => Command::Serve(parse_serve(args)?),
        "bench" => Command::Bench {
            json: take_flag(args, "--json"),
            scale: reference(args),
            seed: take_num(args, "--seed")?.unwrap_or_else(shift_workloads::master_seed),
        },
        "replay" => {
            let debug = take_flag(args, "--debug");
            let shrink = take_opt(args, "--shrink")?;
            let connection = take_num(args, "--connection")?;
            Command::Replay { path: positional(args)?, connection, debug, shrink }
        }
        "trace" => Command::Trace { path: positional(args)? },
        "disasm" => Command::Disasm,
        "help" | "--help" | "-h" => Command::Help,
        _ => return Err(USAGE.into()),
    };
    no_leftovers(&cmd, args)?;
    Ok((command, mode))
}

fn main() -> ProcessExit {
    run().into()
}

fn run() -> ExitCode {
    let (command, mode) = match parse(std::env::args().skip(1).collect()) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::Usage;
        }
    };
    match command {
        Command::Modes => {
            cmd_modes();
            ExitCode::Success
        }
        Command::Attacks { trace_taint, metrics } => cmd_attacks(mode, trace_taint, metrics),
        Command::Attack { name, opts } => cmd_attack(&name, mode, opts),
        Command::Spec { name, scale, tainted } => cmd_spec(&name, mode, scale, tainted),
        Command::Apache { size_kb, requests } => cmd_apache(size_kb, requests, mode),
        Command::Serve(opts) => cmd_serve(mode, opts),
        Command::Bench { json, scale, seed } => cmd_bench(json, scale, seed),
        Command::Replay { path, connection, debug, shrink } => {
            cmd_replay(&path, connection, debug, shrink)
        }
        Command::Trace { path } => cmd_trace(&path),
        Command::Disasm => cmd_disasm(mode),
        Command::Help => cmd_help(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn all_documented_modes_parse() {
        for (name, mode, _) in MODES {
            assert_eq!(mode_from_key(name), Some(mode), "{name}");
        }
        assert!(mode_from_key("turbo").is_none());
    }

    #[test]
    fn take_mode_extracts_and_defaults() {
        let mut a = args(&["spec", "--mode", "word", "gzip"]);
        let mode = take_mode(&mut a).unwrap();
        assert_eq!(mode, Mode::Shift(ShiftOptions::baseline(Granularity::Word)));
        assert_eq!(a, args(&["spec", "gzip"]));

        let mut b = args(&["attacks"]);
        let mode = take_mode(&mut b).unwrap();
        assert_eq!(mode, Mode::Shift(ShiftOptions::baseline(Granularity::Byte)));

        let mut c = args(&["spec", "--mode"]);
        assert!(take_mode(&mut c).is_err());

        let mut d = args(&["spec", "--mode", "bogus"]);
        assert!(take_mode(&mut d).is_err());
    }

    #[test]
    fn take_flag_removes_only_the_flag() {
        let mut a = args(&["attack", "tar", "--benign"]);
        assert!(take_flag(&mut a, "--benign"));
        assert!(!take_flag(&mut a, "--benign"));
        assert_eq!(a, args(&["attack", "tar"]));
    }

    #[test]
    fn exit_codes_are_distinct_per_outcome() {
        use shift_core::{Fault, Violation};
        let codes = [
            exit_code_for(&Exit::Halted(0)),
            exit_code_for(&Exit::Halted(4)),
            exit_code_for(&Exit::Violation(Violation {
                policy: "H3".into(),
                message: "test".into(),
                ip: 0,
                provenance: None,
            })),
            exit_code_for(&Exit::Fault(Fault::Unmapped { addr: 0, ip: 0 })),
            exit_code_for(&Exit::FuelExhausted),
            exit_code_for(&Exit::InsnLimit),
            ExitCode::ReplayDiverged,
            ExitCode::Shrunk,
        ];
        let mut uniq: Vec<String> = codes.iter().map(|c| format!("{c:?}")).collect();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), codes.len(), "{codes:?}");
    }

    /// The replay-specific exit codes must not collide with the usage code
    /// or with any run-outcome code (guarded above), so scripts can key on
    /// them unambiguously.
    #[test]
    fn replay_exit_codes_are_reserved() {
        assert_eq!(ExitCode::ReplayDiverged.code(), 14);
        assert_eq!(ExitCode::Shrunk.code(), 15);
        assert_ne!(ExitCode::ReplayDiverged.code(), ExitCode::Usage.code());
        assert_ne!(ExitCode::Shrunk.code(), ExitCode::Usage.code());
    }

    /// `shift help` renders its exit-code table from [`ExitCode::ALL`]; this
    /// pins the documented numeric codes and checks that every code and its
    /// description actually appear in the rendered table, so the help text
    /// and the enum cannot drift apart.
    #[test]
    fn help_table_agrees_with_exit_code_enum() {
        let codes: Vec<u8> = ExitCode::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(codes, vec![0, 1, 2, 3, 10, 11, 12, 13, 14, 15]);
        let mut uniq = codes.clone();
        uniq.dedup();
        assert_eq!(uniq, codes, "exit codes must be distinct and sorted");
        let table = ExitCode::table();
        for c in ExitCode::ALL {
            let row = format!("{:>4}  {}", c.code(), c.describe());
            assert!(table.contains(&row), "help table missing row {row:?}:\n{table}");
        }
    }

    #[test]
    fn serve_rejects_leftover_arguments() {
        let err = parse_serve(&mut args(&["--conections", "2", "--requests", "1"])).err();
        assert_eq!(err.as_deref(), Some("unrecognised serve argument `--conections`"));
        let err = parse_serve(&mut args(&["--requests", "1", "stray"])).err();
        assert_eq!(err.as_deref(), Some("unrecognised serve argument `stray`"));
        let opts = parse_serve(&mut args(&["--connections", "2", "--requests", "1"])).unwrap();
        assert_eq!((opts.connections, opts.requests), (2, 1));
    }

    #[test]
    fn every_subcommand_rejects_leftover_arguments() {
        let lines: [&[&str]; 11] = [
            &["modes"],
            &["attacks"],
            &["attack", "qwikiwiki"],
            &["spec", "gzip", "--reference"],
            &["apache", "16", "5"],
            &["serve", "--requests", "1"],
            &["bench", "--seed", "7"],
            &["replay", "log.json", "--debug"],
            &["trace", "trace.json"],
            &["disasm", "--mode", "word"],
            &["help"],
        ];
        for line in lines {
            assert!(parse(args(line)).is_ok(), "{line:?}");
            let mut extra = args(line);
            extra.push("--referense".into());
            let want = format!("unrecognised {} argument `--referense`", line[0]);
            assert_eq!(parse(extra).err(), Some(want), "{line:?}");
        }
    }

    #[test]
    fn host_pool_flags_are_gone() {
        let err = parse(args(&["serve", "--arrivals", "poisson:1000", "--host-workers", "2"]));
        assert_eq!(err.err().as_deref(), Some("unrecognised serve argument `--host-workers`"));
        let err = parse(args(&["bench", "--workers", "2"]));
        assert_eq!(err.err().as_deref(), Some("unrecognised bench argument `--workers`"));
    }

    #[test]
    fn serve_workers_default_to_eight_in_both_loops() {
        let closed = parse_serve(&mut args(&[])).unwrap();
        assert_eq!(closed.workers, 8);
        let open = parse_serve(&mut args(&["--arrivals", "poisson:1000"])).unwrap();
        assert_eq!(open.workers, 8);
        assert_eq!(open.open_loop.map(|ol| ol.cfg.workers), Some(8));
    }

    #[test]
    fn serve_rejects_open_loop_flags_without_arrivals() {
        for flag in ["--quantum", "--accept-cap", "--max-resident"] {
            let err = parse_serve(&mut args(&[flag, "5"])).err().unwrap_or_default();
            assert!(err.starts_with(flag) && err.contains("--arrivals"), "{flag}: {err:?}");
            let mut with_arrivals = args(&["--arrivals", "poisson:1000", flag, "5"]);
            let opts = parse_serve(&mut with_arrivals).unwrap();
            assert!(opts.open_loop.is_some(), "{flag}");
        }
    }

    /// The `serve --json` key sets that CI smokes and outside scripts read:
    /// closed and open loop must each emit exactly these, in this order.
    #[test]
    fn serve_json_key_sets_are_pinned() {
        let keys = |extra: &[&str]| {
            let base = ["--connections", "2", "--requests", "1", "--workers", "2"];
            let mut argv = args(&base);
            argv.extend(args(extra));
            argv.extend(args(&["--record", "run.json"]));
            let opts = parse_serve(&mut argv).unwrap();
            let mode = Mode::Shift(ShiftOptions::baseline(Granularity::Byte));
            let run = serve_run(mode, &opts);
            match serve_json(mode, &run, opts.record.as_deref()) {
                shift_obs::Json::Obj(pairs) => pairs.into_iter().map(|(k, _)| k).collect(),
                other => panic!("serve --json must be an object: {other:?}"),
            }
        };
        let closed: Vec<String> = keys(&[]);
        assert_eq!(
            closed,
            [
                "schema_version",
                "mode",
                "seed",
                "workers",
                "connections",
                "requests",
                "served",
                "recovered",
                "dropped",
                "wall_cycles",
                "requests_per_sec",
                "violations",
                "host_ns",
                "metrics",
                "record_log",
            ]
        );
        let open: Vec<String> = keys(&["--arrivals", "poisson:1000"]);
        assert_eq!(
            open,
            [
                "schema_version",
                "mode",
                "seed",
                "arrivals",
                "workers",
                "accept_cap",
                "max_resident",
                "quantum",
                "offered",
                "completed",
                "shed",
                "saturated",
                "requests",
                "served",
                "recovered",
                "dropped",
                "wall_cycles",
                "requests_per_sec",
                "sojourn_p50",
                "sojourn_p99",
                "sojourn_p999",
                "sojourn_max",
                "utilization",
                "peak_queue_depth",
                "peak_resident",
                "peak_owned_pages",
                "violations",
                "host_ns",
                "metrics",
                "record_log",
            ]
        );
    }

    #[test]
    fn mode_names_are_distinct() {
        let names: Vec<String> = [
            Mode::Uninstrumented,
            Mode::Shift(ShiftOptions::baseline(Granularity::Byte)),
            Mode::Shift(ShiftOptions::enhanced(Granularity::Byte)),
            Mode::Shadow(Granularity::Word),
        ]
        .into_iter()
        .map(mode_name)
        .collect();
        let mut uniq = names.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len(), "{names:?}");
    }
}
