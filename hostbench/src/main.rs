//! Host-time benchmark of the SHIFT reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload spec-matrix|fleet-closed|openloop-tail --seed N --seconds S --trace 0|1
//! ```
//!
//! A run compiles the workload's guests several times (`setup_s` is the
//! median), then repeats one fixed batch of work (a *round*) for `S`
//! seconds with tracing off and reports medians over rounds. Every timed
//! pass is followed by the host-speed probe and scaled to the reference
//! host speed (see `probe.rs`). With `--trace 1` it spends half the time
//! on untraced rounds and half on traced ones, and reports per-layer self
//! times instead. Every round's modelled outputs are checked; the last
//! line of standard output is one JSON object. README.md lists the
//! workloads, metrics and layers.

mod closed;
mod gen;
mod openloop;
mod oracle;
mod probe;
mod spec;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use shift_core::{Json, Registry};

use oracle::Oracle;
use probe::Probe;
use trace::{Count, Layer, Phase, TraceRun, Tracer};

/// Most setup passes a run takes; `setup_s` is their median. One pass
/// precedes the rounds and one follows each timed round, so the samples
/// span the run like the rounds do.
const SETUP_PASSES: usize = 64;

/// Fewest timed rounds a measurement takes, however long they run.
const MIN_ROUNDS: usize = 3;

/// One workload: its setup, an untraced round and a traced round over the
/// same fixed batch of operations.
pub trait Workload {
    /// What setup produces: the compiled and frozen guests.
    type Prepared;
    /// The modelled outputs of a round.
    type Output;

    /// The workload's name.
    fn name(&self) -> &'static str;
    /// Operations per round (kernel runs or connections).
    fn ops(&self) -> u64;
    /// The generated input's shape, for the run's record.
    fn shape(&self) -> String;
    /// Compiles and freezes every guest the workload needs.
    fn setup(&self, t: &mut Tracer) -> Self::Prepared;
    /// One untraced round.
    fn round(&self, p: &Self::Prepared) -> Self::Output;
    /// Guest instructions retired and requests completed in a round.
    /// Requests are served plus recovered; in `spec-matrix` a kernel run
    /// is one request.
    fn work(&self, out: &Self::Output) -> (u64, u64);
    /// Operations of `out` whose outcome is wrong: checked against the
    /// committed oracle, the generator's expectations and the run's first
    /// round.
    fn failures(&self, out: &Self::Output, first: Option<&Self::Output>) -> u64;
    /// One traced round; returns the operations whose outputs differ from
    /// the untraced `reference` in any bit.
    fn traced_round(&self, p: &Self::Prepared, t: &mut Tracer, reference: &Self::Output) -> u64;
    /// The expectations to commit for `out`.
    fn bless(&self, out: &Self::Output) -> Json;
}

/// Renders a registry the way the serve exports do (Prometheus text and
/// JSON); the benchmark keeps the text to compare rounds.
pub fn export(registry: &Registry) -> String {
    let mut text = registry.to_prometheus();
    text.push_str(&registry.to_json().render());
    text
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

const USAGE: &str = "usage: hostbench --workload spec-matrix|fleet-closed|openloop-tail \
                     [--seed N] [--seconds S] [--trace 0|1] [--bless]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: oracle::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {}", args.seconds));
    }
    if args.bless && args.seed != oracle::DEFAULT_SEED {
        return Err(format!(
            "--bless writes the default seed's expectations; drop --seed {}",
            args.seed
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let oracle = Oracle::for_run(&args.workload, args.seed, args.bless);
    match args.workload.as_str() {
        "spec-matrix" => run(&spec::SpecMatrix::new(args.seed, oracle), &args, nproc),
        "fleet-closed" => run(&closed::FleetClosed::new(args.seed, oracle), &args, nproc),
        "openloop-tail" => run(&openloop::OpenLoopTail::new(args.seed, oracle), &args, nproc),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Process peak resident memory (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Timed passes: wall seconds and the probe time taken right after each.
#[derive(Default)]
struct Passes {
    walls: Vec<f64>,
    probes: Vec<f64>,
}

impl Passes {
    /// Records a pass of `wall` seconds and probes the host after it.
    fn push(&mut self, wall: f64, probe: &mut Probe) {
        self.walls.push(wall);
        self.probes.push(probe.run());
    }

    /// Median of `f(normalized wall)` over the passes.
    fn median_of(&self, f: impl Fn(f64) -> f64) -> f64 {
        let v: Vec<f64> =
            self.walls.iter().zip(&self.probes).map(|(&w, &p)| f(probe::normalize(w, p))).collect();
        median(&v)
    }

    fn len(&self) -> usize {
        self.walls.len()
    }
}

/// One untraced setup pass, timed into `passes`.
fn timed_setup<W: Workload>(w: &W, passes: &mut Passes, probe: &mut Probe) -> W::Prepared {
    let t0 = Instant::now();
    let p = w.setup(&mut Tracer::detached());
    passes.push(t0.elapsed().as_secs_f64(), probe);
    p
}

/// Tally of a run's rounds.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Guest instructions and requests of one round (every round does the
    /// same work).
    work: (u64, u64),
    /// The timed untraced rounds.
    rounds: Passes,
}

fn run<W: Workload>(w: &W, args: &Args, nproc: usize) -> ExitCode {
    println!("workload={} seed={} threads=1 nproc={} {}", w.name(), args.seed, nproc, w.shape());

    let mut probe = Probe::new();
    let mut setup = Passes::default();
    let p = timed_setup(w, &mut setup, &mut probe);

    if args.bless {
        let out = w.round(&p);
        let failed = w.failures(&out, None);
        if failed > 0 {
            eprintln!("refusing to bless: {failed} operations fail the generator's expectations");
            return ExitCode::FAILURE;
        }
        return match oracle::bless(w.name(), &w.bless(&out)) {
            Ok(path) => {
                println!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot write expectations: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Untraced rounds. The first round warms host caches and the allocator
    // and becomes the reference every later round must reproduce; it is
    // checked but not timed into the medians.
    let budget = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let mut tally = Tally::default();
    let mut first: Option<W::Output> = None;
    let start = Instant::now();
    let mut warm = true;
    while warm || tally.rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < budget {
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| w.round(&p)));
        let wall = t0.elapsed().as_secs_f64();
        tally.attempted += w.ops();
        match out {
            Ok(out) => {
                tally.failed += w.failures(&out, first.as_ref()).min(w.ops());
                tally.work = w.work(&out);
                if !warm {
                    tally.rounds.push(wall, &mut probe);
                }
                if first.is_none() {
                    first = Some(out);
                }
            }
            Err(_) => tally.failed += w.ops(),
        }
        if !warm && setup.len() < SETUP_PASSES {
            drop(timed_setup(w, &mut setup, &mut probe));
        }
        warm = false;
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut correct = first.is_some();
    if args.trace {
        match &first {
            Some(reference) => {
                let (reconciled, layers) =
                    traced(w, &p, reference, args, budget, &mut tally, &mut probe);
                correct &= reconciled;
                metrics = layers;
            }
            None => eprintln!("no untraced round finished: nothing to compare the traced run to"),
        }
    } else {
        let (insns, requests) = (tally.work.0 as f64, tally.work.1 as f64);
        let rounds = &tally.rounds;
        metrics.push(("setup_s".into(), setup.median_of(|s| s), "s"));
        metrics.push(("sim_mips".into(), rounds.median_of(|s| insns / s / 1e6), "Minsn/s"));
        metrics.push(("requests_per_s".into(), rounds.median_of(|s| requests / s), "req/s"));
        let rss_mb = peak_rss_mb() - probe::TABLE_BYTES as f64 / (1 << 20) as f64;
        metrics.push(("peak_rss_mb".into(), rss_mb, "MB"));
        let success = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
        metrics.push(("success_rate".into(), success, "fraction"));
        println!(
            "rounds={} setup_passes={} unscaled medians: round_wall_s={:.4} setup_s={:.6} \
             probe_s={:.6} (reference {})",
            rounds.len(),
            setup.len(),
            median(&rounds.walls),
            median(&setup.walls),
            median(&rounds.probes),
            probe::PROBE_REF_S
        );
    }
    correct &= tally.failed == 0;
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// The traced half of a `--trace 1` run: one traced setup pass, then traced
/// rounds for `budget` seconds, each compared bit for bit with the
/// untraced `reference`. Returns whether the trace reconciles with its
/// wall time, and the per-layer figures.
fn traced<W: Workload>(
    w: &W,
    p: &W::Prepared,
    reference: &W::Output,
    args: &Args,
    budget: f64,
    tally: &mut Tally,
    probe: &mut Probe,
) -> (bool, Vec<(String, f64, &'static str)>) {
    let mut run = TraceRun::new();
    run.pass(Phase::Setup, |t| drop(w.setup(t)));
    let mut traced_rounds = Passes::default();
    let start = Instant::now();
    while traced_rounds.len() == 0 || start.elapsed().as_secs_f64() < budget {
        let t0 = Instant::now();
        let mismatched = catch_unwind(AssertUnwindSafe(|| {
            run.pass(Phase::Rounds, |t| w.traced_round(p, t, reference))
        }));
        traced_rounds.push(t0.elapsed().as_secs_f64(), probe);
        tally.attempted += w.ops();
        match mismatched {
            Ok(n) => tally.failed += n.min(w.ops()),
            Err(_) => {
                tally.failed += w.ops();
                eprintln!("a traced round panicked; its trace is incomplete");
                return (false, Vec::new());
            }
        }
    }

    let path =
        std::path::PathBuf::from(format!("hostbench/out/{}-seed{}.spans.tsv", w.name(), args.seed));
    match run.write_spans(&path) {
        Ok(n) => println!("wrote {n} spans to {}", path.display()),
        Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
    }

    let (s, r) = (&run.setup, &run.rounds);
    let layer = |l: Layer| s.self_per_pass(l) + r.self_per_pass(l);
    let count = |c: Count| s.count_per_pass(c) + r.count_per_pass(c);
    let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    let syscall_s: f64 = Layer::ALL.into_iter().filter(|l| l.is_syscall()).map(layer).sum();
    let wall = s.wall_s + r.wall_s;
    let unattributed = s.unattributed_s() + r.unattributed_s();
    let overhead = traced_rounds.median_of(|s| s) / tally.rounds.median_of(|s| s) - 1.0;
    let m: Vec<(&str, f64, &'static str)> = vec![
        ("machine.run_self_s", layer(Layer::Run), "s"),
        ("machine.insns", count(Count::Insns), "count"),
        (
            "machine.mips",
            if layer(Layer::Run) > 0.0 {
                count(Count::Insns) / layer(Layer::Run) / 1e6
            } else {
                0.0
            },
            "Minsn/s",
        ),
        (
            "machine.blocks.hit_ratio",
            ratio(count(Count::BlockHits), count(Count::BlockMisses)),
            "fraction",
        ),
        ("mem.tlb.hit_ratio", ratio(count(Count::TlbHits), count(Count::TlbMisses)), "fraction"),
        ("runtime.syscall_s", syscall_s, "s"),
        ("runtime.syscalls", count(Count::Syscalls), "count"),
        ("runtime.file_read_s", layer(Layer::FileRead), "s"),
        ("runtime.file_reads", count(Count::FileReads), "count"),
        ("runtime.net_io_s", layer(Layer::NetIo), "s"),
        ("runtime.other_syscall_s", layer(Layer::OtherSyscall), "s"),
        ("runtime.recover_s", layer(Layer::Recover), "s"),
        ("runtime.recoveries", count(Count::Recoveries), "count"),
        ("runtime.violations", count(Count::Violations), "count"),
        ("compiler.compile_s", layer(Layer::Compile), "s"),
        ("compiler.programs", count(Count::Programs), "count"),
        ("compiler.insns_emitted", count(Count::InsnsEmitted), "count"),
        ("machine.load_s", layer(Layer::Load), "s"),
        ("machine.spawn_s", layer(Layer::Spawn), "s"),
        ("machine.spawns", count(Count::Spawns), "count"),
        ("mem.cow.faults", count(Count::CowFaults), "count"),
        ("machine.digest_s", layer(Layer::Digest), "s"),
        ("fleet.report_s", layer(Layer::Report), "s"),
        ("openloop.capture_s", layer(Layer::Capture), "s"),
        ("event.simulate_s", layer(Layer::Simulate), "s"),
        ("event.segments", count(Count::Segments), "count"),
        ("openloop.merge_s", layer(Layer::Merge), "s"),
        ("obs.registry_merge_s", layer(Layer::RegistryMerge), "s"),
        ("obs.export_s", layer(Layer::Export), "s"),
        (
            "openloop.shed_frac",
            if count(Count::Offered) > 0.0 {
                count(Count::Shed) / count(Count::Offered)
            } else {
                0.0
            },
            "fraction",
        ),
        ("trace.overhead_frac", overhead, "fraction"),
        ("trace.unattributed_frac", unattributed / wall, "fraction"),
    ];

    // The split of one traced round's wall time, largest layer first.
    let mut split: Vec<(&str, f64)> = Vec::new();
    for l in Layer::ALL {
        if r.self_s[l as usize] > 0.0 {
            split.push((l.name(), r.self_per_pass(l)));
        }
    }
    split.push(("unattributed", r.unattributed_s() / r.passes.max(1) as f64));
    split.sort_by(|a, b| b.1.total_cmp(&a.1));
    let round_wall = r.wall_s / r.passes.max(1) as f64;
    println!("traced rounds={} round_wall_s={round_wall:.4} (per-round split):", r.passes);
    for (name, secs) in &split {
        println!("  {name:<24} {secs:>10.4} s  {:>6.2}%", 100.0 * secs / round_wall);
    }
    // Self times plus the unattributed rest add up to the wall time by
    // construction; a negative rest would mean overlapping spans.
    let reconciled =
        s.unattributed_s() >= -1e-6 * s.wall_s && r.unattributed_s() >= -1e-6 * r.wall_s;
    if !reconciled {
        eprintln!("trace does not reconcile: unattributed {unattributed:.6} s of {wall:.6} s");
    }
    (reconciled, m.into_iter().map(|(n, v, u)| (n.to_string(), v, u)).collect())
}
