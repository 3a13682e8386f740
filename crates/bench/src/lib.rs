//! # shift-bench — the experiment harnesses
//!
//! One function per table/figure of the paper's evaluation (§5–§6); the
//! `benches/` targets are thin `main`s that call these and print the rows.
//! Everything returns plain data structures so the integration test-suite
//! can assert on experiment *shapes* (who wins, rough factors, orderings)
//! without parsing text.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use shift_core::{Granularity, Mode, ShiftOptions};
use shift_isa::Provenance;
use shift_workloads::{
    all_benches, compile_spec, run_spec, run_spec_precompiled, ArrivalProcess, Scale, SpecBench,
};

/// Geometric mean of a non-empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Host worker-pool override for every sweep in this crate (`shift bench
/// --workers N`). `0` — the default — means "one thread per host core".
static SWEEP_WORKERS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Overrides the host thread count used by the sweep pools (`parallel_map`
/// and the figure matrices built on it). `0` restores the default
/// (`available_parallelism`); `1` makes every sweep run serially — the
/// deterministic-CI setting, though the *modelled* numbers never depend on
/// this either way.
pub fn set_sweep_workers(workers: usize) {
    SWEEP_WORKERS.store(workers, std::sync::atomic::Ordering::Relaxed);
}

/// The host worker count a sweep over `jobs` jobs should use: the
/// [`set_sweep_workers`] override if set, else one per host core, always
/// capped by the job count and at least 1.
fn sweep_workers(jobs: usize) -> usize {
    let configured = match SWEEP_WORKERS.load(std::sync::atomic::Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(4, |p| p.get()),
        n => n,
    };
    configured.min(jobs).max(1)
}

/// Runs `f` over `items` on the shared host pool ([`shift_core::pool`]),
/// sized by [`sweep_workers`], preserving input order in the output. Every
/// simulated Machine is independent, so the modelled numbers are identical
/// to a serial sweep — only host wall-clock changes.
fn parallel_map<I: Sync, T: Send>(items: &[I], f: impl Fn(&I) -> T + Sync) -> Vec<T> {
    shift_core::pool::map(items.len(), sweep_workers(items.len()), |i| f(&items[i]))
}

/// The mode groups behind Figures 7 and 8, in one canonical order:
///
/// | group | mode                         | conditions    |
/// |-------|------------------------------|---------------|
/// | 0     | uninstrumented baseline      | tainted       |
/// | 1     | byte baseline                | `fig7_conds`  |
/// | 2     | word baseline                | `fig7_conds`  |
/// | 3     | byte + `tset`/`tclr`         | tainted       |
/// | 4     | byte + both enhancements    | tainted       |
/// | 5     | word + `tset`/`tclr`         | tainted       |
/// | 6     | word + both enhancements    | tainted       |
///
/// Groups 0–2 are exactly Figure 7's modes (pass `&[true, false]` as
/// `fig7_conds` to get its safe bars too); groups 3–6 are the extra
/// Figure-8 cells. Keeping both figures' modes in one table lets
/// [`bench_summary`] run the union once and assemble each figure from it —
/// Figure 8's stock-Itanium bars are the *same deterministic simulations*
/// as Figure 7's unsafe bars, so re-running them would only burn host time.
fn spec_groups(fig7_conds: &'static [bool]) -> [(Mode, &'static [bool]); 7] {
    let set_clr = |g| ShiftOptions { set_clr: true, nat_cmp: false, ..ShiftOptions::baseline(g) };
    [
        (Mode::Uninstrumented, &[true]),
        (Mode::Shift(ShiftOptions::baseline(Granularity::Byte)), fig7_conds),
        (Mode::Shift(ShiftOptions::baseline(Granularity::Word)), fig7_conds),
        (Mode::Shift(set_clr(Granularity::Byte)), &[true]),
        (Mode::Shift(ShiftOptions::enhanced(Granularity::Byte)), &[true]),
        (Mode::Shift(set_clr(Granularity::Word)), &[true]),
        (Mode::Shift(ShiftOptions::enhanced(Granularity::Word)), &[true]),
    ]
}

/// Runs a bench × mode-group matrix as one `parallel_map` job pool and
/// returns, per benchmark, per group, one `(modelled cycles, host ns)` pair
/// per taint condition.
///
/// Each job compiles its mode once and runs every condition against that
/// compile (compilation is taint-independent); the shared compile's host
/// time is billed to the group's first condition.
fn spec_matrix(scale: Scale, groups: &[(Mode, &'static [bool])]) -> Vec<Vec<Vec<(u64, u64)>>> {
    let benches = all_benches();
    let jobs: Vec<(usize, Mode, &[bool])> = benches
        .iter()
        .enumerate()
        .flat_map(|(b, _)| groups.iter().map(move |&(m, conds)| (b, m, conds)))
        .collect();
    let results: Vec<Vec<(u64, u64)>> = parallel_map(&jobs, |&(b, mode, conds)| {
        let bench = &benches[b];
        let t0 = Instant::now();
        let compiled = compile_spec(bench, mode);
        let compile_ns = t0.elapsed().as_nanos() as u64;
        let mut out: Vec<(u64, u64)> = conds
            .iter()
            .map(|&tainted| {
                let t = Instant::now();
                let cycles =
                    run_spec_precompiled(bench, &compiled, mode, scale, tainted).stats.cycles;
                (cycles, t.elapsed().as_nanos() as u64)
            })
            .collect();
        out[0].1 += compile_ns;
        out
    });
    results.chunks(groups.len()).map(|chunk| chunk.to_vec()).collect()
}

/// A Figure-7 row: slowdowns relative to the uninstrumented baseline.
#[derive(Clone, Debug)]
pub struct SpecRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Byte-level tracking, tainted input ("byte-unsafe").
    pub byte_unsafe: f64,
    /// Byte-level tracking, untainted input ("byte-safe").
    pub byte_safe: f64,
    /// Word-level, tainted.
    pub word_unsafe: f64,
    /// Word-level, untainted.
    pub word_safe: f64,
    /// Host wall-clock spent producing this row (baseline + all four
    /// conditions), in nanoseconds. Diagnostics only — never part of the
    /// modelled results.
    pub host_ns: u64,
}

/// Figure 7: SPEC slowdowns at both granularities and taint conditions.
///
/// The whole bench × mode matrix (including the uninstrumented baselines)
/// runs as one job list over `parallel_map`, so a slow benchmark's modes
/// overlap instead of serializing behind each other. The tainted and
/// untainted bars of a mode share one job — compilation is independent of
/// the taint condition, so each mode compiles once and runs twice.
pub fn fig7_spec_slowdowns(scale: Scale) -> Vec<SpecRow> {
    let groups = spec_groups(&[true, false]);
    let matrix = spec_matrix(scale, &groups[..3]);
    fig7_rows_from(&matrix, &[0, 1, 2])
}

/// Assembles Figure-7 rows from a `spec_matrix` whose groups 0–2 follow
/// the [`spec_groups`] layout with `&[true, false]` conditions. `bill` lists
/// the group indices whose host time is charged to each row's `host_ns` —
/// the whole matrix when it was run for this figure alone, only this
/// figure's share when the matrix is shared (see [`bench_summary`]).
fn fig7_rows_from(matrix: &[Vec<Vec<(u64, u64)>>], bill: &[usize]) -> Vec<SpecRow> {
    all_benches()
        .iter()
        .zip(matrix)
        .map(|(bench, row)| {
            let baseline = row[0][0].0;
            let slowdown = |cell: &(u64, u64)| cell.0 as f64 / baseline as f64;
            SpecRow {
                name: bench.name,
                byte_unsafe: slowdown(&row[1][0]),
                byte_safe: slowdown(&row[1][1]),
                word_unsafe: slowdown(&row[2][0]),
                word_safe: slowdown(&row[2][1]),
                host_ns: bill.iter().flat_map(|&g| &row[g]).map(|&(_, ns)| ns).sum(),
            }
        })
        .collect()
}

/// A Figure-8 row: slowdowns under the architectural-enhancement modes
/// (tainted input throughout, like the paper's byte/word-unsafe baselines).
#[derive(Clone, Debug)]
pub struct EnhanceRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Stock Itanium, byte level.
    pub byte_unsafe: f64,
    /// `tset`/`tclr` added, byte level.
    pub byte_set_clr: f64,
    /// Both enhancements, byte level.
    pub byte_both: f64,
    /// Stock Itanium, word level.
    pub word_unsafe: f64,
    /// `tset`/`tclr` added, word level.
    pub word_set_clr: f64,
    /// Both enhancements, word level.
    pub word_both: f64,
    /// Host wall-clock spent producing this row, in nanoseconds
    /// (diagnostics only).
    pub host_ns: u64,
}

impl EnhanceRow {
    /// The paper's "reduction of performance slowdown": old − new, in
    /// slowdown units (their §6.3 definition).
    pub fn reduction_byte_both(&self) -> f64 {
        self.byte_unsafe - self.byte_both
    }
    /// See [`EnhanceRow::reduction_byte_both`].
    pub fn reduction_word_both(&self) -> f64 {
        self.word_unsafe - self.word_both
    }
}

/// Figure 8: the effect of the proposed instructions.
///
/// Like [`fig7_spec_slowdowns`], the full bench × mode matrix runs as one
/// `parallel_map` job list.
pub fn fig8_enhancements(scale: Scale) -> Vec<EnhanceRow> {
    let matrix = spec_matrix(scale, &spec_groups(&[true]));
    fig8_rows_from(&matrix, &[0, 1, 2, 3, 4, 5, 6])
}

/// Where each Figure-8 column lives in the [`spec_groups`] matrix, as
/// `(group, condition)` cells, in row order: baseline, byte-unsafe,
/// byte-set/clr, byte-both, word-unsafe, word-set/clr, word-both. The
/// stock-Itanium columns point into Figure 7's groups (1 and 2).
const FIG8_CELLS: [(usize, usize); 7] = [(0, 0), (1, 0), (3, 0), (4, 0), (2, 0), (5, 0), (6, 0)];

/// Assembles Figure-8 rows from a full seven-group [`spec_groups`] matrix;
/// `bill` works as in [`fig7_rows_from`].
fn fig8_rows_from(matrix: &[Vec<Vec<(u64, u64)>>], bill: &[usize]) -> Vec<EnhanceRow> {
    all_benches()
        .iter()
        .zip(matrix)
        .map(|(bench, row)| {
            let cell = |i: usize| row[FIG8_CELLS[i].0][FIG8_CELLS[i].1].0;
            let baseline = cell(0);
            let slowdown = |i: usize| cell(i) as f64 / baseline as f64;
            EnhanceRow {
                name: bench.name,
                byte_unsafe: slowdown(1),
                byte_set_clr: slowdown(2),
                byte_both: slowdown(3),
                word_unsafe: slowdown(4),
                word_set_clr: slowdown(5),
                word_both: slowdown(6),
                host_ns: bill.iter().flat_map(|&g| &row[g]).map(|&(_, ns)| ns).sum(),
            }
        })
        .collect()
}

/// A Figure-9 row: the instrumentation-cycle breakdown, as fractions of the
/// *baseline* execution time (so the bars stack like the paper's).
#[derive(Clone, Debug)]
pub struct BreakdownRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Granularity of this row.
    pub granularity: Granularity,
    /// Load-side tag-address computation.
    pub ld_compute: f64,
    /// Load-side bitmap accesses.
    pub ld_memory: f64,
    /// Store-side tag-address computation.
    pub st_compute: f64,
    /// Store-side bitmap accesses.
    pub st_memory: f64,
    /// Compare relaxation / laundering.
    pub relax: f64,
    /// Taint-source material.
    pub taint_src: f64,
}

/// Figure 9: where the instrumented cycles go, per benchmark and
/// granularity (tainted input).
pub fn fig9_breakdown(scale: Scale) -> Vec<BreakdownRow> {
    let mut out = Vec::new();
    for gran in [Granularity::Byte, Granularity::Word] {
        let rows = run_suite(scale, |bench, baseline| {
            let run = run_spec(bench, Mode::Shift(ShiftOptions::baseline(gran)), scale, true);
            let frac = |p: Provenance| run.stats.cycles_for(p) as f64 / baseline as f64;
            BreakdownRow {
                name: bench.name,
                granularity: gran,
                ld_compute: frac(Provenance::LdTagCompute),
                ld_memory: frac(Provenance::LdTagMemory),
                st_compute: frac(Provenance::StTagCompute),
                st_memory: frac(Provenance::StTagMemory),
                relax: frac(Provenance::Relax),
                taint_src: frac(Provenance::TaintSource),
            }
        });
        out.extend(rows);
    }
    out
}

/// Runs `f` for every benchmark (on the worker pool), handing it the
/// baseline (uninstrumented, tainted-config) cycle count.
fn run_suite<T: Send>(scale: Scale, f: impl Fn(&SpecBench, u64) -> T + Sync) -> Vec<T> {
    let benches = all_benches();
    parallel_map(&benches, |bench| {
        let baseline = run_spec(bench, Mode::Uninstrumented, scale, true).stats.cycles;
        f(bench, baseline)
    })
}

/// A Figure-6 cell: server overhead at one file size and granularity.
#[derive(Clone, Debug)]
pub struct ApacheRow {
    /// Requested file size in bytes.
    pub file_size: usize,
    /// Latency overhead of byte-level tracking (instrumented / baseline).
    pub byte_latency: f64,
    /// Throughput ratio (baseline / instrumented — >1 means slower).
    pub byte_throughput: f64,
    /// Latency overhead of word-level tracking.
    pub word_latency: f64,
    /// Throughput ratio, word level.
    pub word_throughput: f64,
    /// Host wall-clock spent producing this row (all three server runs), in
    /// nanoseconds (diagnostics only).
    pub host_ns: u64,
}

/// Figure 6: Apache overheads over the paper's file-size sweep.
///
/// `requests` scales the run length (the paper used 1,000 requests with
/// `ab`; the simulator preserves the CPU-to-I/O structure at smaller
/// counts). The size × mode matrix runs on the `parallel_map` pool —
/// every server run is an independent simulated machine.
pub fn fig6_apache(file_sizes: &[usize], requests: usize) -> Vec<ApacheRow> {
    use shift_workloads::apache::run_apache;
    let modes: [Mode; 3] = [
        Mode::Uninstrumented,
        Mode::Shift(ShiftOptions::baseline(Granularity::Byte)),
        Mode::Shift(ShiftOptions::baseline(Granularity::Word)),
    ];
    let jobs: Vec<(usize, Mode)> =
        file_sizes.iter().flat_map(|&size| modes.iter().map(move |&m| (size, m))).collect();
    let results = parallel_map(&jobs, |&(size, mode)| {
        let t0 = Instant::now();
        let run = run_apache(mode, size, requests);
        (run.latency(), run.throughput(), t0.elapsed().as_nanos() as u64)
    });
    file_sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            let (base_lat, base_tp, base_ns) = results[3 * i];
            let (byte_lat, byte_tp, byte_ns) = results[3 * i + 1];
            let (word_lat, word_tp, word_ns) = results[3 * i + 2];
            ApacheRow {
                file_size: size,
                byte_latency: byte_lat / base_lat,
                byte_throughput: base_tp / byte_tp,
                word_latency: word_lat / base_lat,
                word_throughput: base_tp / word_tp,
                host_ns: base_ns + byte_ns + word_ns,
            }
        })
        .collect()
}

/// One cell of the fleet-serving sweep: one worker width × request stream ×
/// taint mode.
#[derive(Clone, Debug)]
pub struct ServePoint {
    /// Modelled fleet width this point served at.
    pub workers: usize,
    /// `"uniform"` (one file size, Figure-6 shape) or `"mixed"` (three file
    /// sizes plus 404s, the production-traffic mix).
    pub stream: &'static str,
    /// Requested file size in bytes for `"uniform"` streams; 0 for
    /// `"mixed"`.
    pub file_size: usize,
    /// Taint mode: `"byte"` or `"word"`.
    pub mode: &'static str,
    /// Connections in the stream.
    pub connections: u64,
    /// Requests delivered across the fleet.
    pub requests: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Modelled fleet makespan in cycles (the busiest instance's total).
    pub wall_cycles: u64,
    /// Modelled throughput at this width: served requests per second at the
    /// fleet clock ([`shift_core::CLOCK_HZ`]).
    pub requests_per_sec: f64,
    /// Median per-request latency in modelled cycles.
    pub p50_latency: u64,
    /// 99th-percentile per-request latency in modelled cycles.
    pub p99_latency: u64,
    /// Host wall-clock spent simulating this point, in nanoseconds.
    pub host_ns: u64,
}

impl ServePoint {
    /// A stable row key — `mode/stream[_size]` — identifying this point's
    /// (mode, stream) group across worker widths.
    pub fn group(&self) -> String {
        if self.stream == "uniform" {
            format!("{}/{}_{}", self.mode, self.stream, self.file_size)
        } else {
            format!("{}/{}", self.mode, self.stream)
        }
    }
}

/// The fleet-serving sweep: `workers_list` widths × (`file_sizes` uniform
/// streams + the mixed stream) × byte/word taint modes.
///
/// Each taint mode compiles its Apache guest exactly once (the
/// [`shift_core::Fleet`] fast path under measurement); every (stream,
/// width) point then re-simulates its connections from the shared image so
/// each point's `host_ns` reflects real simulation work. The *modelled*
/// per-connection numbers are width-independent by construction — only the
/// makespan, and hence `requests_per_sec`, varies with `workers` — so the
/// sweep doubles as a determinism check on the fleet scheduler.
///
/// Rows come out grouped by (mode, stream), widths in `workers_list` order,
/// so consumers can scan each group for throughput scaling.
pub fn serve_sweep(
    workers_list: &[usize],
    file_sizes: &[usize],
    connections: usize,
    requests_per_conn: usize,
) -> Vec<ServePoint> {
    use shift_workloads::apache::{apache_fleet, fleet_connections, fleet_world, ApacheStream};
    let modes: [(&'static str, Mode); 2] = [
        ("byte", Mode::Shift(ShiftOptions::baseline(Granularity::Byte))),
        ("word", Mode::Shift(ShiftOptions::baseline(Granularity::Word))),
    ];
    let mut streams: Vec<ApacheStream> =
        file_sizes.iter().map(|&s| ApacheStream::Uniform(s)).collect();
    streams.push(ApacheStream::Mixed);

    let mut points = Vec::new();
    for (mode_name, mode) in modes {
        let fleet = apache_fleet(mode);
        for &stream in &streams {
            let world = fleet_world(stream);
            let conns = fleet_connections(stream, connections, requests_per_conn);
            for &workers in workers_list {
                let report = fleet.serve(&world, &conns, workers);
                let (stream_name, file_size) = match stream {
                    ApacheStream::Uniform(size) => ("uniform", size),
                    ApacheStream::Mixed => ("mixed", 0),
                };
                points.push(ServePoint {
                    workers,
                    stream: stream_name,
                    file_size,
                    mode: mode_name,
                    connections: conns.len() as u64,
                    requests: report.requests,
                    served: report.served,
                    wall_cycles: report.wall_cycles,
                    requests_per_sec: report.requests_per_sec(),
                    p50_latency: report.latency_percentile(50.0).unwrap_or(0),
                    p99_latency: report.latency_percentile(99.0).unwrap_or(0),
                    host_ns: report.host_ns.max(1),
                });
            }
        }
    }
    points
}

/// The flight-recorder overhead experiment (DESIGN.md §14): one
/// mixed-stream byte-mode fleet serve, run with the recorder disarmed and
/// then armed (ring at the default cap, time-series sampling on).
#[derive(Clone, Debug)]
pub struct TraceOverhead {
    /// Best host time with the recorder disarmed, in ns.
    pub disarmed_host_ns: u64,
    /// Best host time with the recorder armed, in ns.
    pub armed_host_ns: u64,
    /// `armed / disarmed − 1` (negative means the armed run measured
    /// faster — pure host noise).
    pub overhead_frac: f64,
    /// Merged trace events the armed run recorded.
    pub trace_events: u64,
    /// Time-series samples the armed run recorded.
    pub trace_samples: u64,
    /// Whether the armed run's modelled outcome was bit-identical to the
    /// disarmed run's: per-connection exits, state digests, stats,
    /// latencies, violations, and the fleet makespan.
    pub modelled_identical: bool,
}

/// Measures what arming the flight recorder costs the *host* and proves it
/// costs the *model* nothing.
///
/// The same mixed-stream connections are served serially (width 1, so host
/// scheduling noise stays out of the measurement) with the recorder off and
/// on; each arm takes the best of nine repetitions, interleaved so a host
/// slowdown hits both arms alike — the modelled
/// outcome is identical across repetitions by construction, so min() is a
/// pure noise filter. The armed ring uses the default cap with `sample_cycles`
/// time-series sampling, i.e. the `serve --trace-out --sample-cycles`
/// configuration.
pub fn trace_overhead(
    connections: usize,
    requests_per_conn: usize,
    sample_cycles: u64,
) -> TraceOverhead {
    use shift_core::{Fleet, FleetReport, FlightConfig, DEFAULT_TRACE_CAP};
    use shift_workloads::apache::{apache_fleet, fleet_connections, fleet_world, ApacheStream};
    let stream = ApacheStream::Mixed;
    let world = fleet_world(stream);
    let conns = fleet_connections(stream, connections, requests_per_conn);
    let mode = Mode::Shift(ShiftOptions::baseline(Granularity::Byte));
    let disarmed = apache_fleet(mode);
    let armed = apache_fleet(mode)
        .with_flight_recorder(FlightConfig { cap: DEFAULT_TRACE_CAP, sample_cycles });
    let keep_best = |best: &mut Option<(FleetReport, u64)>, fleet: &Fleet| {
        let r = fleet.serve(&world, &conns, 1);
        let ns = r.host_ns.max(1);
        if best.as_ref().is_none_or(|&(_, b)| ns < b) {
            *best = Some((r, ns));
        }
    };
    let (mut base, mut traced) = (None, None);
    // One repetition serves in about 3 ms, where best-of-three left the
    // overhead estimate too noisy to hold the 10% budget; nine keep it steady.
    for _ in 0..9 {
        keep_best(&mut base, &disarmed);
        keep_best(&mut traced, &armed);
    }
    let (base, disarmed_host_ns) = base.expect("repetitions ran");
    let (traced, armed_host_ns) = traced.expect("repetitions ran");
    let modelled_identical = base.wall_cycles == traced.wall_cycles
        && base.connections.len() == traced.connections.len()
        && base.connections.iter().zip(&traced.connections).all(|(a, b)| {
            a.exit == b.exit
                && a.state_digest == b.state_digest
                && a.stats == b.stats
                && a.latencies == b.latencies
                && a.violations == b.violations
        });
    TraceOverhead {
        disarmed_host_ns,
        armed_host_ns,
        overhead_frac: armed_host_ns as f64 / disarmed_host_ns as f64 - 1.0,
        trace_events: traced.merged_trace_events().len() as u64,
        trace_samples: traced.merged_samples().len() as u64,
        modelled_identical,
    }
}

/// The spawn-latency experiment (DESIGN.md §15): is `MachineSeed::spawn`
/// really O(1) in the image size?
#[derive(Clone, Debug)]
pub struct SpawnLatency {
    /// Resident pages of the small synthetic image.
    pub small_pages: u64,
    /// Resident pages of the large image (4× the small one's data).
    pub large_pages: u64,
    /// Best-of-three per-spawn host cost from the small image, in ns.
    pub small_spawn_ns: u64,
    /// Best-of-three per-spawn host cost from the large image, in ns.
    pub large_spawn_ns: u64,
    /// `large_spawn_ns / small_spawn_ns`. O(1) spawning keeps this near
    /// 1.0 regardless of the 4× size gap; the deep-clone implementation
    /// this replaced scaled it with the page count.
    pub o1_ratio: f64,
    /// Private pages a fresh spawn starts with — 0 under copy-on-write
    /// sharing (every pristine page is shared or canonical-zero).
    pub spawn_owned_pages: u64,
}

/// Measures the host cost of [`shift_machine::MachineSeed::spawn`] from a
/// small and a 4×-larger synthetic image (256 vs 1024 resident data pages)
/// and reports the ratio.
///
/// Each image is loaded once; spawns are timed in batches (the per-spawn
/// cost is far below timer granularity) with the best of three batches kept
/// as a noise filter, mirroring [`trace_overhead`]'s best-of-three shape.
/// Under page sharing both images spawn by bumping the same number of
/// reference counts, so the ratio stays near 1.0; CI asserts it under 1.5,
/// a bound the old deep-clone spawn (~4× here, by construction) fails.
pub fn spawn_latency() -> SpawnLatency {
    use shift_isa::{make_vaddr, Gpr, Insn, Op};
    use shift_machine::{Image, MachineSeed, PAGE_SIZE};

    let build = |pages: usize| -> MachineSeed {
        // Non-zero fill so every page is a real resident (shared) page —
        // all-zero pages would deduplicate away and undercut the contrast.
        let image = Image::builder()
            .code(vec![Insn::new(Op::MovI { dst: Gpr::R8, imm: 0 }), Insn::new(Op::Halt)])
            .data(make_vaddr(1, 0x10_0000), vec![0xA5u8; pages * PAGE_SIZE as usize])
            .build();
        MachineSeed::new(&image)
    };
    let measure = |seed: &MachineSeed| -> u64 {
        const BATCH: u32 = 256;
        let mut best = u64::MAX;
        for _ in 0..3 {
            let t = Instant::now();
            for _ in 0..BATCH {
                std::hint::black_box(seed.spawn());
            }
            best = best.min((t.elapsed().as_nanos() as u64 / u64::from(BATCH)).max(1));
        }
        best
    };

    let small = build(256); // 1 MiB of image data
    let large = build(1024); // 4 MiB
    let small_spawn_ns = measure(&small);
    let large_spawn_ns = measure(&large);
    SpawnLatency {
        small_pages: small.resident_pages() as u64,
        large_pages: large.resident_pages() as u64,
        small_spawn_ns,
        large_spawn_ns,
        o1_ratio: large_spawn_ns as f64 / small_spawn_ns as f64,
        spawn_owned_pages: large.spawn().mem.owned_pages() as u64,
    }
}

/// One point of the connection-count sweep: the mixed Apache stream at a
/// fixed fleet width, scaled from a handful of connections to serving-farm
/// counts.
#[derive(Clone, Debug)]
pub struct ConnPoint {
    /// Connections served at this point.
    pub connections: u64,
    /// Modelled fleet width (fixed across the sweep).
    pub workers: usize,
    /// Requests delivered across the fleet.
    pub requests: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Modelled fleet makespan in cycles.
    pub wall_cycles: u64,
    /// Modelled throughput: served requests per second at the fleet clock.
    pub requests_per_sec: f64,
    /// 99th-percentile per-request latency in modelled cycles.
    pub p99_latency: u64,
    /// Private (COW-owned) pages summed over every connection's instance.
    pub owned_pages_total: u64,
    /// The largest private page count any single instance reached.
    pub peak_owned_pages: u64,
    /// Mean private bytes per instance — the memory-diet figure that makes
    /// thousand-connection fleets affordable (DESIGN.md §15).
    pub private_bytes_per_instance: f64,
    /// Host wall-clock spent simulating this point, in nanoseconds.
    pub host_ns: u64,
}

/// Sweeps the mixed byte-mode Apache fleet over connection counts at a
/// fixed width ({8, 256, 1024} in `BENCH_shift.json`) — the fleet-scale
/// counterpart of [`serve_sweep`]'s width axis.
///
/// The guest compiles once; every point re-serves its own connection list
/// from the shared image. Modelled throughput is monotone non-degrading in
/// the connection count (more connections only improve instance load
/// balance at a fixed width), and the per-instance private-byte figures
/// expose what copy-on-write sharing saves as the fleet scales: total
/// owned pages grow with connections while bytes *per instance* stay flat
/// and small.
pub fn connection_sweep(
    connections_list: &[usize],
    workers: usize,
    requests_per_conn: usize,
) -> Vec<ConnPoint> {
    use shift_workloads::apache::{apache_fleet, fleet_connections, fleet_world, ApacheStream};
    let stream = ApacheStream::Mixed;
    let world = fleet_world(stream);
    let fleet = apache_fleet(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)));
    connections_list
        .iter()
        .map(|&n| {
            let conns = fleet_connections(stream, n, requests_per_conn);
            let report = fleet.serve(&world, &conns, workers);
            ConnPoint {
                connections: conns.len() as u64,
                workers,
                requests: report.requests,
                served: report.served,
                wall_cycles: report.wall_cycles,
                requests_per_sec: report.requests_per_sec(),
                p99_latency: report.latency_percentile(99.0).unwrap_or(0),
                owned_pages_total: report.owned_pages_total,
                peak_owned_pages: report.peak_owned_pages,
                private_bytes_per_instance: report.private_bytes_per_instance(),
                host_ns: report.host_ns.max(1),
            }
        })
        .collect()
}

/// One point of the open-loop offered-load sweep: a Poisson arrival stream
/// at a fixed rate driven through the event-driven scheduler
/// ([`shift_core::Fleet::serve_open_loop`]), reporting tail sojourn latency
/// and admission-control outcomes.
#[derive(Clone, Debug)]
pub struct OpenLoopPoint {
    /// Canonical arrival-process spec (e.g. `poisson:1000`).
    pub arrivals: String,
    /// Offered arrival rate in connections per modelled second.
    pub rate_rps: f64,
    /// Connections offered at this point.
    pub connections: u64,
    /// Modelled worker count of the event scheduler.
    pub workers: usize,
    /// Connections completed.
    pub completed: u64,
    /// Connections shed by admission control.
    pub shed: u64,
    /// `true` when the offered rate exceeded saturation throughput.
    pub saturated: bool,
    /// Modelled makespan in cycles.
    pub wall_cycles: u64,
    /// Served requests per modelled second.
    pub requests_per_sec: f64,
    /// Modelled worker utilization in [0, 1].
    pub utilization: f64,
    /// Median sojourn latency (completion − arrival) in cycles.
    pub sojourn_p50: u64,
    /// 99th-percentile sojourn latency in cycles.
    pub sojourn_p99: u64,
    /// 99.9th-percentile sojourn latency in cycles.
    pub sojourn_p999: u64,
    /// Deepest the ready queue got.
    pub peak_queue_depth: u64,
    /// Most guests simultaneously resident.
    pub peak_resident: u64,
    /// The largest private page count any single guest reached — bounded by
    /// residency, not by the offered connection count.
    pub peak_owned_pages: u64,
    /// Host wall-clock spent simulating this point, in nanoseconds.
    pub host_ns: u64,
}

/// Sweeps the open-loop byte-mode Apache fleet over offered Poisson rates
/// at a fixed modelled width — the tail-latency experiment behind
/// `open_loop_rows` in `BENCH_shift.json`.
///
/// The sweep is run with a deliberately tight admission controller
/// (accept-cap 16, max-resident 8) so the rate axis crosses saturation
/// inside the sweep: the lowest rate must complete everything (`shed == 0`,
/// finite p99), and a rate far above capacity must shed (`shed > 0`) —
/// both asserted by the CI bench smoke. The guest compiles once; every
/// point re-serves the same connection list under its own arrival schedule
/// derived from `seed`.
pub fn open_loop_sweep(
    connections: usize,
    rates_rps: &[f64],
    workers: usize,
    requests_per_conn: usize,
    seed: u64,
) -> Vec<OpenLoopPoint> {
    use shift_core::OpenLoopConfig;
    use shift_workloads::apache::{apache_fleet, fleet_connections, fleet_world, ApacheStream};
    use shift_workloads::chaos;
    let stream = ApacheStream::Mixed;
    let world = fleet_world(stream);
    let fleet = apache_fleet(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)));
    let conns = fleet_connections(stream, connections, requests_per_conn);
    let cfg = OpenLoopConfig { workers, accept_cap: 16, max_resident: 8, quantum: 100_000 };
    rates_rps
        .iter()
        .map(|&rate| {
            let process = ArrivalProcess::Poisson { rate_rps: rate };
            let arrivals = process.schedule(conns.len(), chaos::derive(seed, &process.spec()));
            let host = sweep_workers(conns.len());
            let report = fleet.serve_open_loop(&world, &conns, &[], &arrivals, &cfg, host);
            OpenLoopPoint {
                arrivals: process.spec(),
                rate_rps: rate,
                connections: report.offered,
                workers,
                completed: report.completed,
                shed: report.shed,
                saturated: report.saturated(),
                wall_cycles: report.wall_cycles,
                requests_per_sec: report.requests_per_sec(),
                utilization: report.utilization(),
                sojourn_p50: report.sojourn_percentile(50.0).unwrap_or(0),
                sojourn_p99: report.sojourn_percentile(99.0).unwrap_or(0),
                sojourn_p999: report.sojourn_percentile(99.9).unwrap_or(0),
                peak_queue_depth: report.peak_queue_depth,
                peak_resident: report.peak_resident,
                peak_owned_pages: report.peak_owned_pages,
                host_ns: report.host_ns.max(1),
            }
        })
        .collect()
}

/// A Table-3 row: static code size under each compilation mode.
#[derive(Clone, Debug)]
pub struct CodeSizeRow {
    /// "glibc" or a benchmark name.
    pub name: String,
    /// Uninstrumented size in instructions.
    pub orig: usize,
    /// Word-level instrumented size.
    pub word: usize,
    /// Byte-level instrumented size.
    pub byte: usize,
}

impl CodeSizeRow {
    /// Word-level expansion, percent.
    pub fn word_overhead(&self) -> f64 {
        (self.word as f64 / self.orig as f64 - 1.0) * 100.0
    }
    /// Byte-level expansion, percent.
    pub fn byte_overhead(&self) -> f64 {
        (self.byte as f64 / self.orig as f64 - 1.0) * 100.0
    }
}

/// Table 3: code-size expansion for the guest libc and every benchmark.
pub fn table3_codesize() -> Vec<CodeSizeRow> {
    use shift_compiler::{CompiledProgram, Compiler};
    use shift_core::libc_program;

    let compile = |program: &shift_ir::Program, mode: Mode| -> CompiledProgram {
        let mut linked = program.clone();
        linked.link(libc_program());
        Compiler::new(mode).compile(&linked).expect("benchmarks compile")
    };
    let libc_size = |c: &CompiledProgram| -> usize {
        shift_core::LIBC_FUNCS.iter().filter_map(|n| c.func_size(n)).sum()
    };
    let app_size = |c: &CompiledProgram| -> usize {
        c.func_ranges
            .iter()
            .filter(|(n, _)| {
                !shift_core::LIBC_FUNCS.contains(&n.as_str()) && n.as_str() != "_start"
            })
            .map(|(_, (s, e))| e - s)
            .sum()
    };

    let mut rows = Vec::new();
    // glibc row: measured inside the first benchmark's image (the libc is
    // identical across programs).
    let probe = (all_benches()[0].build)();
    let orig = compile(&probe, Mode::Uninstrumented);
    let word = compile(&probe, Mode::Shift(ShiftOptions::baseline(Granularity::Word)));
    let byte = compile(&probe, Mode::Shift(ShiftOptions::baseline(Granularity::Byte)));
    rows.push(CodeSizeRow {
        name: "glibc".into(),
        orig: libc_size(&orig),
        word: libc_size(&word),
        byte: libc_size(&byte),
    });
    for bench in all_benches() {
        let program = (bench.build)();
        let orig = compile(&program, Mode::Uninstrumented);
        let word = compile(&program, Mode::Shift(ShiftOptions::baseline(Granularity::Word)));
        let byte = compile(&program, Mode::Shift(ShiftOptions::baseline(Granularity::Byte)));
        rows.push(CodeSizeRow {
            name: bench.name.into(),
            orig: app_size(&orig),
            word: app_size(&word),
            byte: app_size(&byte),
        });
    }
    rows
}

/// An ablation row over SHIFT's implementation choices (byte-level
/// slowdowns, tainted input).
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Benchmark name.
    pub name: &'static str,
    /// The shipped configuration: kept NaT source, clean-register analysis.
    pub default: f64,
    /// Clean-register analysis disabled (every compare relaxed, every store
    /// treated as possibly tainted).
    pub no_analysis: f64,
    /// NaT source regenerated at every function entry — the strategy the
    /// paper rejects in §4.4 ("degrades the performance by a factor of 3X,
    /// compared to generating a NaT-bit and keeping it").
    pub natgen_per_function: f64,
    /// NaT source regenerated before every use (worst case).
    pub natgen_per_use: f64,
}

/// A NaT-vs-shadow row: SHIFT's hardware-assisted tracking against the
/// software-only shadow-register implementation of the same semantics.
#[derive(Clone, Debug)]
pub struct NatVsShadowRow {
    /// Benchmark name.
    pub name: &'static str,
    /// SHIFT, byte level (NaT bits track register taint for free).
    pub shift_byte: f64,
    /// Software-only, byte level (explicit propagation around every
    /// instruction, LIFT-style).
    pub shadow_byte: f64,
    /// SHIFT, word level.
    pub shift_word: f64,
    /// Software-only, word level.
    pub shadow_word: f64,
}

/// The headline ablation: what is the NaT reuse actually worth? Runs every
/// kernel under SHIFT and under the software-only shadow-register mode.
pub fn ablation_nat_vs_shadow(scale: Scale) -> Vec<NatVsShadowRow> {
    run_suite(scale, |bench, baseline| {
        let slowdown = |mode: Mode| {
            let run = run_spec(bench, mode, scale, true);
            run.stats.cycles as f64 / baseline as f64
        };
        NatVsShadowRow {
            name: bench.name,
            shift_byte: slowdown(Mode::Shift(ShiftOptions::baseline(Granularity::Byte))),
            shadow_byte: slowdown(Mode::Shadow(Granularity::Byte)),
            shift_word: slowdown(Mode::Shift(ShiftOptions::baseline(Granularity::Word))),
            shadow_word: slowdown(Mode::Shadow(Granularity::Word)),
        }
    })
}

/// Ablation: the kept-NaT-source decision (§4.4) and the clean-register
/// analysis, quantified.
pub fn ablation_design_choices(scale: Scale) -> Vec<AblationRow> {
    use shift_compiler::NatGen;
    run_suite(scale, |bench, baseline| {
        let slowdown = |opts: ShiftOptions| {
            let run = run_spec(bench, Mode::Shift(opts), scale, true);
            run.stats.cycles as f64 / baseline as f64
        };
        let base = ShiftOptions::baseline(Granularity::Byte);
        AblationRow {
            name: bench.name,
            default: slowdown(base),
            no_analysis: slowdown(ShiftOptions { relax_analysis: false, ..base }),
            natgen_per_function: slowdown(ShiftOptions { nat_gen: NatGen::PerFunction, ..base }),
            natgen_per_use: slowdown(ShiftOptions { nat_gen: NatGen::PerUse, ..base }),
        }
    })
}

/// A machine-readable summary of the headline experiments — Figure-7/8 SPEC
/// slowdown geomeans, Figure-6 Apache overhead geomeans, the fleet-serving
/// throughput sweep ([`serve_sweep`], `serve_rows`), the connection-count
/// sweep ([`connection_sweep`], `conn_sweep_rows`), the flight-recorder
/// cost check ([`trace_overhead`], `trace_overhead`), and the O(1)-spawn
/// check ([`spawn_latency`], `spawn_latency`) — for CI regression tracking
/// (`shift bench --json` writes it to `BENCH_shift.json`).
///
/// Besides the modelled numbers, every row carries `host_ns` (host
/// wall-clock spent on that row's runs) and a top-level `host_ns` section
/// records per-figure attribution and total wall-clock, so BENCH_shift.json
/// tracks real interpreter speedups across PRs alongside the modelled
/// results.
///
/// Figures 7 and 8 share five of their seven mode groups (Figure 8's
/// stock-Itanium bars *are* Figure 7's unsafe bars — identical
/// deterministic simulations), so the summary runs the union of both
/// figures' modes as one `spec_matrix` pool and assembles each figure
/// from it. The numbers are bit-identical to running each figure alone;
/// only the duplicate host work disappears. `host_ns.fig7`/`host_ns.fig8`
/// are therefore row sums under that split — the shared runs are billed to
/// Figure 7, and Figure 8 is charged only for its extra enhancement modes.
/// `seed` is the run's master seed, stamped into the summary so any
/// randomized harness seeded from the same integer (the chaos trials, the
/// injection sweeps) is reproducible from the artifact alone — the
/// experiments themselves are deterministic and ignore it.
pub fn bench_summary(
    scale: Scale,
    file_sizes: &[usize],
    requests: usize,
    seed: u64,
) -> shift_obs::Json {
    use shift_obs::Json;
    let t_total = Instant::now();

    let matrix = spec_matrix(scale, &spec_groups(&[true, false]));
    let spec = fig7_rows_from(&matrix, &[0, 1, 2]);
    let enh = fig8_rows_from(&matrix, &[3, 4, 5, 6]);
    let fig7_ns: u64 = spec.iter().map(|r| r.host_ns).sum();
    let fig8_ns: u64 = enh.iter().map(|r| r.host_ns).sum();

    let t0 = Instant::now();
    let apache = fig6_apache(file_sizes, requests);
    let fig6_ns = t0.elapsed().as_nanos() as u64;

    let t0 = Instant::now();
    let (serve_conns, serve_reqs) = match scale {
        Scale::Test => (8, 4),
        Scale::Reference => (16, 8),
    };
    let serve = serve_sweep(&[1, 2, 4, 8], file_sizes, serve_conns, serve_reqs);
    let serve_ns = t0.elapsed().as_nanos() as u64;

    let t0 = Instant::now();
    let trace = trace_overhead(serve_conns, serve_reqs, 100_000);
    let trace_ns = t0.elapsed().as_nanos() as u64;

    let t0 = Instant::now();
    let spawn = spawn_latency();
    let spawn_ns = t0.elapsed().as_nanos() as u64;

    let t0 = Instant::now();
    let conn_sweep = connection_sweep(&[8, 256, 1024], 8, 1);
    let conn_sweep_ns = t0.elapsed().as_nanos() as u64;

    // Open-loop tail-latency sweep: one rate well below the tight admission
    // controller's capacity, one far above it, so the CI smoke can assert
    // both sides of saturation from the same artifact.
    let t0 = Instant::now();
    let (ol_conns, ol_rates): (usize, &[f64]) = match scale {
        Scale::Test => (96, &[1_000.0, 1_000_000.0]),
        Scale::Reference => (4096, &[2_000.0, 1_000_000.0]),
    };
    let open_loop = open_loop_sweep(ol_conns, ol_rates, 8, 2, seed);
    let open_loop_ns = t0.elapsed().as_nanos() as u64;

    let gm = |sel: &dyn Fn(&SpecRow) -> f64| geomean(&spec.iter().map(sel).collect::<Vec<f64>>());
    let egm =
        |sel: &dyn Fn(&EnhanceRow) -> f64| geomean(&enh.iter().map(sel).collect::<Vec<f64>>());
    let agm =
        |sel: &dyn Fn(&ApacheRow) -> f64| geomean(&apache.iter().map(sel).collect::<Vec<f64>>());
    let fig7_rows = spec
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("name", Json::Str(r.name.to_string())),
                ("byte_unsafe", Json::F64(r.byte_unsafe)),
                ("byte_safe", Json::F64(r.byte_safe)),
                ("word_unsafe", Json::F64(r.word_unsafe)),
                ("word_safe", Json::F64(r.word_safe)),
                ("host_ns", Json::U64(r.host_ns)),
            ])
        })
        .collect();
    let fig8_rows = enh
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("name", Json::Str(r.name.to_string())),
                ("byte_unsafe", Json::F64(r.byte_unsafe)),
                ("byte_set_clr", Json::F64(r.byte_set_clr)),
                ("byte_both", Json::F64(r.byte_both)),
                ("word_unsafe", Json::F64(r.word_unsafe)),
                ("word_set_clr", Json::F64(r.word_set_clr)),
                ("word_both", Json::F64(r.word_both)),
                ("host_ns", Json::U64(r.host_ns)),
            ])
        })
        .collect();
    let serve_rows = serve
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("workers", Json::U64(p.workers as u64)),
                ("stream", Json::Str(p.stream.to_string())),
                ("file_size", Json::U64(p.file_size as u64)),
                ("mode", Json::Str(p.mode.to_string())),
                ("connections", Json::U64(p.connections)),
                ("requests", Json::U64(p.requests)),
                ("served", Json::U64(p.served)),
                ("wall_cycles", Json::U64(p.wall_cycles)),
                ("requests_per_sec", Json::F64(p.requests_per_sec)),
                ("p50_latency_cycles", Json::U64(p.p50_latency)),
                ("p99_latency_cycles", Json::U64(p.p99_latency)),
                ("host_ns", Json::U64(p.host_ns)),
            ])
        })
        .collect();
    let conn_sweep_rows = conn_sweep
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("connections", Json::U64(p.connections)),
                ("workers", Json::U64(p.workers as u64)),
                ("requests", Json::U64(p.requests)),
                ("served", Json::U64(p.served)),
                ("wall_cycles", Json::U64(p.wall_cycles)),
                ("requests_per_sec", Json::F64(p.requests_per_sec)),
                ("p99_latency_cycles", Json::U64(p.p99_latency)),
                ("owned_pages_total", Json::U64(p.owned_pages_total)),
                ("peak_owned_pages", Json::U64(p.peak_owned_pages)),
                ("private_bytes_per_instance", Json::F64(p.private_bytes_per_instance)),
                ("host_ns", Json::U64(p.host_ns)),
            ])
        })
        .collect();
    let open_loop_rows = open_loop
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("arrivals", Json::Str(p.arrivals.clone())),
                ("rate_rps", Json::F64(p.rate_rps)),
                ("connections", Json::U64(p.connections)),
                ("workers", Json::U64(p.workers as u64)),
                ("completed", Json::U64(p.completed)),
                ("shed", Json::U64(p.shed)),
                ("saturated", Json::Bool(p.saturated)),
                ("wall_cycles", Json::U64(p.wall_cycles)),
                ("requests_per_sec", Json::F64(p.requests_per_sec)),
                ("utilization", Json::F64(p.utilization)),
                ("sojourn_p50", Json::U64(p.sojourn_p50)),
                ("sojourn_p99", Json::U64(p.sojourn_p99)),
                ("sojourn_p999", Json::U64(p.sojourn_p999)),
                ("peak_queue_depth", Json::U64(p.peak_queue_depth)),
                ("peak_resident", Json::U64(p.peak_resident)),
                ("peak_owned_pages", Json::U64(p.peak_owned_pages)),
                ("host_ns", Json::U64(p.host_ns)),
            ])
        })
        .collect();
    let fig6_rows = apache
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("file_size", Json::U64(r.file_size as u64)),
                ("byte_latency", Json::F64(r.byte_latency)),
                ("byte_throughput", Json::F64(r.byte_throughput)),
                ("word_latency", Json::F64(r.word_latency)),
                ("word_throughput", Json::F64(r.word_throughput)),
                ("host_ns", Json::U64(r.host_ns)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema_version", Json::U64(shift_obs::SCHEMA_VERSION)),
        ("seed", Json::U64(seed)),
        (
            "scale",
            Json::Str(match scale {
                Scale::Test => "test".to_string(),
                Scale::Reference => "reference".to_string(),
            }),
        ),
        ("spec_benches", Json::U64(spec.len() as u64)),
        (
            "fig7_spec_geomean",
            Json::obj(vec![
                ("byte_unsafe", Json::F64(gm(&|r| r.byte_unsafe))),
                ("byte_safe", Json::F64(gm(&|r| r.byte_safe))),
                ("word_unsafe", Json::F64(gm(&|r| r.word_unsafe))),
                ("word_safe", Json::F64(gm(&|r| r.word_safe))),
            ]),
        ),
        (
            "fig8_spec_geomean",
            Json::obj(vec![
                ("byte_unsafe", Json::F64(egm(&|r| r.byte_unsafe))),
                ("byte_set_clr", Json::F64(egm(&|r| r.byte_set_clr))),
                ("byte_both", Json::F64(egm(&|r| r.byte_both))),
                ("word_unsafe", Json::F64(egm(&|r| r.word_unsafe))),
                ("word_set_clr", Json::F64(egm(&|r| r.word_set_clr))),
                ("word_both", Json::F64(egm(&|r| r.word_both))),
            ]),
        ),
        (
            "fig6_apache_geomean",
            Json::obj(vec![
                ("byte_latency", Json::F64(agm(&|r| r.byte_latency))),
                ("byte_throughput", Json::F64(agm(&|r| r.byte_throughput))),
                ("word_latency", Json::F64(agm(&|r| r.word_latency))),
                ("word_throughput", Json::F64(agm(&|r| r.word_throughput))),
            ]),
        ),
        ("fig7_rows", Json::Arr(fig7_rows)),
        ("fig8_rows", Json::Arr(fig8_rows)),
        ("fig6_rows", Json::Arr(fig6_rows)),
        ("serve_rows", Json::Arr(serve_rows)),
        ("conn_sweep_rows", Json::Arr(conn_sweep_rows)),
        ("open_loop_rows", Json::Arr(open_loop_rows)),
        (
            "spawn_latency",
            Json::obj(vec![
                ("small_pages", Json::U64(spawn.small_pages)),
                ("large_pages", Json::U64(spawn.large_pages)),
                ("small_spawn_ns", Json::U64(spawn.small_spawn_ns)),
                ("large_spawn_ns", Json::U64(spawn.large_spawn_ns)),
                ("o1_ratio", Json::F64(spawn.o1_ratio)),
                ("spawn_owned_pages", Json::U64(spawn.spawn_owned_pages)),
            ]),
        ),
        (
            "trace_overhead",
            Json::obj(vec![
                ("disarmed_host_ns", Json::U64(trace.disarmed_host_ns)),
                ("armed_host_ns", Json::U64(trace.armed_host_ns)),
                ("overhead_frac", Json::F64(trace.overhead_frac)),
                ("trace_events", Json::U64(trace.trace_events)),
                ("trace_samples", Json::U64(trace.trace_samples)),
                ("modelled_identical", Json::Bool(trace.modelled_identical)),
            ]),
        ),
        (
            "host_ns",
            Json::obj(vec![
                ("fig7", Json::U64(fig7_ns)),
                ("fig8", Json::U64(fig8_ns)),
                ("fig6_apache", Json::U64(fig6_ns)),
                ("serve", Json::U64(serve_ns)),
                ("trace_overhead", Json::U64(trace_ns)),
                ("spawn_latency", Json::U64(spawn_ns)),
                ("conn_sweep", Json::U64(conn_sweep_ns)),
                ("open_loop", Json::U64(open_loop_ns)),
                ("total", Json::U64(t_total.elapsed().as_nanos() as u64)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn fig7_shape_holds_at_test_scale() {
        let rows = fig7_spec_slowdowns(Scale::Test);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.byte_unsafe > 1.0, "{}: no overhead?", r.name);
            // Byte-level ≥ word-level on average; safe ≤ unsafe.
            assert!(r.byte_safe <= r.byte_unsafe + 1e-9, "{}", r.name);
            assert!(r.word_safe <= r.word_unsafe + 1e-9, "{}", r.name);
        }
        let byte: Vec<f64> = rows.iter().map(|r| r.byte_unsafe).collect();
        let word: Vec<f64> = rows.iter().map(|r| r.word_unsafe).collect();
        assert!(
            geomean(&byte) > geomean(&word),
            "byte tracking must cost more on average: {:.2} vs {:.2}",
            geomean(&byte),
            geomean(&word)
        );
    }

    #[test]
    fn serve_sweep_scales_and_stays_deterministic() {
        // One uniform stream plus the mixed stream, byte + word, widths
        // 1/2/8: rows come out grouped with widths in order, throughput is
        // monotone non-degrading in width, and the modelled serve totals
        // never depend on width.
        let points = serve_sweep(&[1, 2, 8], &[4 << 10], 8, 4);
        assert_eq!(points.len(), 2 * 2 * 3);
        for group in points.chunks(3) {
            let one = &group[0];
            assert_eq!(one.workers, 1);
            assert!(one.host_ns > 0);
            assert_eq!(one.served, one.requests, "nothing dropped at width 1: {}", one.group());
            for p in group {
                assert_eq!(p.group(), one.group());
                assert_eq!(p.served, one.served, "{}: served depends on width", p.group());
                assert_eq!(p.p99_latency, one.p99_latency, "{}", p.group());
            }
            for pair in group.windows(2) {
                assert!(
                    pair[1].requests_per_sec >= pair[0].requests_per_sec - 1e-9,
                    "{}: throughput degraded {} -> {} workers",
                    one.group(),
                    pair[0].workers,
                    pair[1].workers
                );
            }
            let eight = &group[2];
            assert!(
                eight.requests_per_sec >= 3.0 * one.requests_per_sec,
                "{}: 8-wide fleet only {:.2}x over 1-wide",
                one.group(),
                eight.requests_per_sec / one.requests_per_sec
            );
        }
    }

    #[test]
    fn sweep_workers_override_caps_the_pool() {
        // The override changes only host scheduling; the shared pool's
        // results stay ordered and complete.
        set_sweep_workers(1);
        let serial: Vec<u64> = parallel_map(&[1u64, 2, 3, 4], |&x| x * x);
        set_sweep_workers(3);
        let pooled: Vec<u64> = parallel_map(&[1u64, 2, 3, 4], |&x| x * x);
        set_sweep_workers(0);
        assert_eq!(serial, vec![1, 4, 9, 16]);
        assert_eq!(serial, pooled);
        assert_eq!(sweep_workers(100).max(1), sweep_workers(100));
        set_sweep_workers(5);
        assert_eq!(sweep_workers(100), 5);
        assert_eq!(sweep_workers(2), 2);
        set_sweep_workers(0);
    }

    #[test]
    fn spawn_latency_is_o1_in_image_size() {
        let s = spawn_latency();
        assert_eq!(s.large_pages, 4 * s.small_pages, "images must differ 4x in size");
        assert_eq!(s.spawn_owned_pages, 0, "a fresh spawn must own no private pages");
        // `o1_ratio` is host wall-clock time: the CI bench smoke gates it.
    }

    #[test]
    fn connection_sweep_scales_to_fleet_counts() {
        // Test-scale miniature of the {8, 256, 1024} sweep in the summary.
        let points = connection_sweep(&[4, 16, 64], 4, 1);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert_eq!(p.served, p.requests, "mixed stream drops nothing: {p:?}");
            assert!(p.owned_pages_total > 0, "serving must dirty private pages");
            assert!(p.private_bytes_per_instance > 0.0);
            assert!(p.peak_owned_pages * (p.connections) >= p.owned_pages_total);
        }
        for pair in points.windows(2) {
            assert!(
                pair[1].requests_per_sec >= pair[0].requests_per_sec - 1e-9,
                "throughput degraded {} -> {} connections",
                pair[0].connections,
                pair[1].connections
            );
            // Per-instance private bytes stay flat as the fleet grows: the
            // whole point of sharing the pristine image.
            assert!(
                pair[1].private_bytes_per_instance
                    <= pair[0].private_bytes_per_instance * 1.5 + 4096.0,
                "private bytes/instance grew with the fleet: {points:?}"
            );
        }
    }

    #[test]
    fn open_loop_sweep_crosses_saturation() {
        // Test-scale miniature of the summary's open-loop rate sweep: the
        // low rate must clear the tight admission controller, the overload
        // must trip it.
        let rows = open_loop_sweep(48, &[1_000.0, 1_000_000.0], 8, 1, 7);
        assert_eq!(rows.len(), 2);
        let (low, high) = (&rows[0], &rows[1]);
        assert_eq!(low.shed, 0, "below saturation nothing sheds: {low:?}");
        assert!(!low.saturated);
        assert!(low.completed == low.connections);
        assert!(
            low.sojourn_p50 <= low.sojourn_p99 && low.sojourn_p99 <= low.sojourn_p999,
            "{low:?}"
        );
        assert!(low.sojourn_p999 > 0, "completed connections must have sojourn: {low:?}");
        assert!(high.shed > 0, "overload must shed: {high:?}");
        assert!(high.saturated);
        assert_eq!(high.completed + high.shed, high.connections);
        // Residency — not the offered count — bounds peak guest memory.
        assert!(high.peak_resident <= 8, "{high:?}");
        assert!(high.peak_owned_pages > 0);
    }

    #[test]
    fn trace_overhead_is_zero_perturbation_and_cheap() {
        let t = trace_overhead(4, 3, 100_000);
        assert!(t.modelled_identical, "arming the recorder perturbed the modelled outcome");
        assert!(t.trace_events > 0, "armed run recorded no events");
        assert!(t.trace_samples > 0, "armed run recorded no samples");
        // The < 10% armed-overhead budget is a host-time threshold: CI's
        // bench smoke checks it on `BENCH_shift.json`.
    }

    #[test]
    fn table3_shape_holds() {
        let rows = table3_codesize();
        assert_eq!(rows.len(), 9);
        let glibc = &rows[0];
        assert_eq!(glibc.name, "glibc");
        for r in &rows {
            assert!(r.word > r.orig, "{}: word must grow", r.name);
            assert!(r.byte >= r.word, "{}: byte ≥ word expected", r.name);
        }
        // Expansion magnitudes stay in the paper's ballpark (tens to a few
        // hundred percent). Note our guest libc is pure byte-loop string
        // code, so unlike the paper's real glibc (+45%, diluted by masses
        // of non-memory code) it expands about as much as the benchmarks —
        // EXPERIMENTS.md discusses the divergence.
        for r in &rows {
            assert!(
                r.byte_overhead() > 30.0 && r.byte_overhead() < 400.0,
                "{}: implausible expansion {:.0}%",
                r.name,
                r.byte_overhead()
            );
        }
    }
}
