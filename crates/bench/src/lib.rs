//! # shift-bench — the experiment harnesses
//!
//! One function per table/figure of the paper's evaluation (§5–§6); the
//! `benches/` targets are thin `main`s that call these and print the rows.
//! Everything returns plain data structures so the integration test-suite
//! can assert on experiment *shapes* (who wins, rough factors, orderings)
//! without parsing text.
//!
//! Every SPEC experiment — Figures 7, 8 and 9, both ablations,
//! [`bench_summary`] and `shift spec` — is a list of [`Cell`]s (a mode plus
//! a tainted-input flag) run by one function, [`spec_matrix`], which
//! compiles each (kernel, mode) once on the shared host pool, and a row
//! builder that reads the cells it needs by value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use shift_core::{pool, Granularity, Mode, ShiftOptions, Stats};
use shift_isa::Provenance;
use shift_obs::Json;
use shift_workloads::apache::{apache_fleet, fleet_connections, fleet_world, ApacheStream};
use shift_workloads::{
    all_benches, compile_spec, run_spec_precompiled, ArrivalProcess, Scale, SpecBench,
};

/// Geometric mean of a non-empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// One cell of a SPEC experiment: a compilation mode, and whether the
/// kernel's input file is a taint source (the paper's "unsafe" bars) or
/// not ("safe").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cell {
    /// Compilation mode.
    pub mode: Mode,
    /// Whether the input file is tainted.
    pub tainted: bool,
}

const fn tainted(mode: Mode) -> Cell {
    Cell { mode, tainted: true }
}

const fn safe(mode: Mode) -> Cell {
    Cell { mode, tainted: false }
}

const BYTE: Mode = Mode::Shift(ShiftOptions::baseline(Granularity::Byte));
const WORD: Mode = Mode::Shift(ShiftOptions::baseline(Granularity::Word));

/// Stock Itanium plus `tset`/`tclr` (Figure 8's middle bars).
const fn set_clr(g: Granularity) -> Mode {
    Mode::Shift(ShiftOptions { set_clr: true, ..ShiftOptions::baseline(g) })
}

/// The uninstrumented, tainted-input run every slowdown divides by.
const BASELINE: Cell = tainted(Mode::Uninstrumented);

/// Figure 7's cells: both granularities, tainted and untainted.
const FIG7: [Cell; 5] = [BASELINE, tainted(BYTE), safe(BYTE), tainted(WORD), safe(WORD)];

/// Figure 8's cells: each enhancement step at both granularities, tainted.
/// The stock-Itanium cells are Figure 7's unsafe cells.
const FIG8: [Cell; 7] = [
    BASELINE,
    tainted(BYTE),
    tainted(set_clr(Granularity::Byte)),
    tainted(Mode::Shift(ShiftOptions::enhanced(Granularity::Byte))),
    tainted(WORD),
    tainted(set_clr(Granularity::Word)),
    tainted(Mode::Shift(ShiftOptions::enhanced(Granularity::Word))),
];

/// The SPEC experiment runner behind Figures 7–9, both ablations and
/// `shift spec`: runs every cell on every benchmark and returns
/// `[bench][cell]` → (the run's [`Stats`], host ns), in `benches` and
/// `cells` order.
///
/// Compilation depends only on the mode, so each (benchmark, mode) pair is
/// one job on the shared host pool: it compiles once, runs that mode's
/// cells against the compile, and bills the compile's host time to the
/// mode's first cell. Every run is an independent deterministic machine, so
/// the modelled numbers do not depend on how the pool schedules the jobs.
pub fn spec_matrix(benches: &[SpecBench], scale: Scale, cells: &[Cell]) -> Vec<Vec<(Stats, u64)>> {
    let mut modes: Vec<Mode> = Vec::new();
    for cell in cells {
        if !modes.contains(&cell.mode) {
            modes.push(cell.mode);
        }
    }
    let jobs: Vec<(&SpecBench, Mode)> =
        benches.iter().flat_map(|b| modes.iter().map(move |&m| (b, m))).collect();
    let results = pool::map(jobs.len(), pool::host_threads(), |j| {
        let (bench, mode) = jobs[j];
        let (compiled, mut compile_ns) = timed(|| compile_spec(bench, mode));
        let mine = cells.iter().enumerate().filter(|(_, c)| c.mode == mode);
        mine.map(|(i, cell)| {
            let (run, ns) =
                timed(|| run_spec_precompiled(bench, &compiled, mode, scale, cell.tainted));
            (i, run.stats, ns + std::mem::take(&mut compile_ns))
        })
        .collect::<Vec<_>>()
    });
    results
        .chunks(modes.len().max(1))
        .map(|bench_jobs| {
            let mut row: Vec<_> = bench_jobs.iter().flatten().cloned().collect();
            row.sort_by_key(|&(i, ..)| i);
            row.into_iter().map(|(_, stats, ns)| (stats, ns)).collect()
        })
        .collect()
}

/// One benchmark's [`spec_matrix`] row, read by cell value.
struct Runs<'a> {
    cells: &'a [Cell],
    runs: &'a [(Stats, u64)],
}

impl Runs<'_> {
    fn get(&self, cell: Cell) -> &(Stats, u64) {
        &self.runs[self.cells.iter().position(|&c| c == cell).expect("cell was run")]
    }

    /// `cell`'s modelled cycles over the uninstrumented baseline's.
    fn slowdown(&self, cell: Cell) -> f64 {
        self.get(cell).0.cycles as f64 / self.get(BASELINE).0.cycles as f64
    }

    /// Host ns spent on the `billed` cells.
    fn host_ns(&self, billed: &[Cell]) -> u64 {
        billed.iter().map(|&c| self.get(c).1).sum()
    }
}

/// Runs `cells` over every benchmark and builds one row per benchmark.
fn spec_rows<T>(scale: Scale, cells: &[Cell], row: impl Fn(&SpecBench, &Runs) -> T) -> Vec<T> {
    let benches = all_benches();
    let matrix = spec_matrix(&benches, scale, cells);
    benches.iter().zip(&matrix).map(|(b, runs)| row(b, &Runs { cells, runs })).collect()
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

/// Figure 7: SPEC slowdowns at both granularities and taint conditions,
/// one [`spec_matrix`] over its five cells.
pub fn fig7_spec_slowdowns(scale: Scale) -> Vec<SpecRow> {
    spec_rows(scale, &FIG7, |bench, runs| fig7_row(bench, runs, &FIG7))
}

/// A Figure-7 row, billed for the `bill` cells' host time.
fn fig7_row(bench: &SpecBench, runs: &Runs, bill: &[Cell]) -> SpecRow {
    SpecRow {
        name: bench.name,
        byte_unsafe: runs.slowdown(tainted(BYTE)),
        byte_safe: runs.slowdown(safe(BYTE)),
        word_unsafe: runs.slowdown(tainted(WORD)),
        word_safe: runs.slowdown(safe(WORD)),
        host_ns: runs.host_ns(bill),
    }
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

/// Figure 8: the effect of the proposed instructions, one [`spec_matrix`]
/// over its seven cells.
pub fn fig8_enhancements(scale: Scale) -> Vec<EnhanceRow> {
    spec_rows(scale, &FIG8, |bench, runs| fig8_row(bench, runs, &FIG8))
}

/// A Figure-8 row, billed for the `bill` cells' host time.
fn fig8_row(bench: &SpecBench, runs: &Runs, bill: &[Cell]) -> EnhanceRow {
    let slowdown = |i: usize| runs.slowdown(FIG8[i]);
    EnhanceRow {
        name: bench.name,
        byte_unsafe: slowdown(1),
        byte_set_clr: slowdown(2),
        byte_both: slowdown(3),
        word_unsafe: slowdown(4),
        word_set_clr: slowdown(5),
        word_both: slowdown(6),
        host_ns: runs.host_ns(bill),
    }
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
/// granularity (tainted input) — every byte row, then every word row. The
/// per-provenance cycles come from Figure 7's unsafe cells, over one
/// baseline per kernel.
pub fn fig9_breakdown(scale: Scale) -> Vec<BreakdownRow> {
    let grans = [Granularity::Byte, Granularity::Word];
    let cells = [BASELINE, tainted(BYTE), tainted(WORD)];
    let rows = spec_rows(scale, &cells, |bench, runs| {
        grans.map(|gran| {
            let stats = &runs.get(tainted(Mode::Shift(ShiftOptions::baseline(gran)))).0;
            let frac =
                |p: Provenance| stats.cycles_for(p) as f64 / runs.get(BASELINE).0.cycles as f64;
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
        })
    });
    (0..grans.len()).flat_map(|g| rows.iter().map(move |pair| pair[g].clone())).collect()
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
    /// Host wall-clock spent producing this row (its three serves, without
    /// the per-mode compiles), in nanoseconds (diagnostics only).
    pub host_ns: u64,
}

/// Figure 6: Apache overheads over the paper's file-size sweep.
///
/// `requests` scales the run length (the paper used 1,000 requests with
/// `ab`; the simulator preserves the CPU-to-I/O structure at smaller
/// counts). Each mode compiles one [`apache_fleet`]; every (size, mode)
/// cell then serves one connection of `requests` requests at width 1, and
/// the cells run on the shared host pool — each is an independent
/// simulated machine.
pub fn fig6_apache(file_sizes: &[usize], requests: usize) -> Vec<ApacheRow> {
    let modes = [Mode::Uninstrumented, BYTE, WORD];
    let fleets = pool::map(modes.len(), pool::host_threads(), |m| apache_fleet(modes[m]));
    let results = pool::map(file_sizes.len() * modes.len(), pool::host_threads(), |j| {
        let stream = ApacheStream::Uniform(file_sizes[j / modes.len()]);
        let conns = fleet_connections(stream, 1, requests);
        let report = fleets[j % modes.len()].serve(&fleet_world(stream), &conns, 1);
        let (served, time) = (report.connections[0].served, report.connections[0].time);
        (time as f64 / served.max(1) as f64, served as f64 * 1e6 / time as f64, report.host_ns)
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

/// The fleet-serving sweep: `workers_list` widths × (`file_sizes` uniform
/// streams + the mixed stream) × byte/word taint modes, one
/// `serve_rows` object per point:
///
/// - `workers`: modelled fleet width this point served at;
/// - `stream`: `"uniform"` (one file size, Figure-6 shape) or `"mixed"`
///   (three file sizes plus 404s, the production-traffic mix);
/// - `file_size`: requested file size in bytes, 0 for `"mixed"`;
/// - `mode`: taint mode, `"byte"` or `"word"`;
/// - `connections`: connections in the stream;
/// - `requests`: requests delivered across the fleet;
/// - `served`: requests served to completion;
/// - `wall_cycles`: modelled fleet makespan (the busiest instance's total);
/// - `requests_per_sec`: served requests per second at the fleet clock
///   ([`shift_core::CLOCK_HZ`]);
/// - `p50_latency_cycles`, `p99_latency_cycles`: per-request latency
///   percentiles in modelled cycles;
/// - `host_ns`: host wall-clock spent simulating this point.
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
) -> Vec<Json> {
    let modes = [("byte", BYTE), ("word", WORD)];
    let mut streams: Vec<ApacheStream> =
        file_sizes.iter().map(|&s| ApacheStream::Uniform(s)).collect();
    streams.push(ApacheStream::Mixed);

    let mut rows = Vec::new();
    for (mode_name, mode) in modes {
        let fleet = apache_fleet(mode);
        for &stream in &streams {
            let world = fleet_world(stream);
            let conns = fleet_connections(stream, connections, requests_per_conn);
            let (stream_name, file_size) = match stream {
                ApacheStream::Uniform(size) => ("uniform", size),
                ApacheStream::Mixed => ("mixed", 0),
            };
            for &workers in workers_list {
                let report = fleet.serve(&world, &conns, workers);
                rows.push(Json::obj(vec![
                    ("workers", Json::U64(workers as u64)),
                    ("stream", Json::Str(stream_name.to_string())),
                    ("file_size", Json::U64(file_size as u64)),
                    ("mode", Json::Str(mode_name.to_string())),
                    ("connections", Json::U64(conns.len() as u64)),
                    ("requests", Json::U64(report.requests)),
                    ("served", Json::U64(report.served)),
                    ("wall_cycles", Json::U64(report.wall_cycles)),
                    ("requests_per_sec", Json::F64(report.requests_per_sec())),
                    ("p50_latency_cycles", Json::U64(report.latency_percentile(50.0).unwrap_or(0))),
                    ("p99_latency_cycles", Json::U64(report.latency_percentile(99.0).unwrap_or(0))),
                    ("host_ns", Json::U64(report.host_ns.max(1))),
                ]));
            }
        }
    }
    rows
}

/// The flight-recorder overhead experiment (DESIGN.md §14): measures what
/// arming the flight recorder costs the *host* and proves it costs the
/// *model* nothing. Returns the `trace_overhead` object:
///
/// - `disarmed_host_ns`, `armed_host_ns`: best per-serve host time with
///   the recorder disarmed and armed;
/// - `overhead_frac`: the median sample's `armed / disarmed − 1` (negative
///   means the armed serves measured faster — pure host noise);
/// - `trace_events`, `trace_samples`: merged trace events and time-series
///   samples one armed serve recorded;
/// - `modelled_identical`: whether the armed run's modelled outcome was
///   bit-identical to the disarmed run's — per-connection exits, state
///   digests, stats, latencies, violations, and the fleet makespan.
///
/// The same mixed-stream connections are served on one host thread
/// ([`shift_core::Fleet::serve_sequential`], so host scheduling noise stays
/// out of the measurement) at modelled width 1, with the recorder off and
/// on. Each of nine timed samples serves the connection list enough times
/// per arm to run for at least 10 ms (a warm disarmed serve sizes it),
/// alternating single disarmed and armed serves so a host slowdown hits
/// both arms alike; the median sample's ratio filters out a burst that
/// still lands on one arm. The modelled outcome is identical across serves
/// by construction, so the repetition only steadies the host-time estimate.
/// The armed ring uses the default cap with `sample_cycles` time-series
/// sampling, i.e. the `serve --trace-out --sample-cycles` configuration.
pub fn trace_overhead(connections: usize, requests_per_conn: usize, sample_cycles: u64) -> Json {
    use shift_core::{Fleet, FlightConfig, DEFAULT_TRACE_CAP};
    let stream = ApacheStream::Mixed;
    let world = fleet_world(stream);
    let conns = fleet_connections(stream, connections, requests_per_conn);
    let disarmed = apache_fleet(BYTE);
    let armed = apache_fleet(BYTE)
        .with_flight_recorder(FlightConfig { cap: DEFAULT_TRACE_CAP, sample_cycles });
    let serve = |fleet: &Fleet| fleet.serve_sequential(&world, &conns, 1);
    let (base, traced) = (serve(&disarmed), serve(&armed));
    let serves = 10_000_000u64.div_ceil(serve(&disarmed).host_ns.max(1));
    let samples: Vec<(u64, u64)> = (0..9)
        .map(|_| {
            (0..serves)
                .fold((1, 1), |(d, a), _| (d + serve(&disarmed).host_ns, a + serve(&armed).host_ns))
        })
        .collect();
    let best = |arm: fn(&(u64, u64)) -> u64| samples.iter().map(arm).min().unwrap_or(1) / serves;
    let mut ratios: Vec<f64> = samples.iter().map(|&(d, a)| a as f64 / d as f64).collect();
    ratios.sort_by(f64::total_cmp);
    let modelled_identical = base.wall_cycles == traced.wall_cycles
        && base.connections.len() == traced.connections.len()
        && base.connections.iter().zip(&traced.connections).all(|(a, b)| {
            a.exit == b.exit
                && a.state_digest == b.state_digest
                && a.stats == b.stats
                && a.latencies == b.latencies
                && a.violations == b.violations
        });
    Json::obj(vec![
        ("disarmed_host_ns", Json::U64(best(|s| s.0).max(1))),
        ("armed_host_ns", Json::U64(best(|s| s.1).max(1))),
        ("overhead_frac", Json::F64(ratios[ratios.len() / 2] - 1.0)),
        ("trace_events", Json::U64(traced.merged_trace_events().len() as u64)),
        ("trace_samples", Json::U64(traced.merged_samples().len() as u64)),
        ("modelled_identical", Json::Bool(modelled_identical)),
    ])
}

/// The spawn-latency experiment (DESIGN.md §15): is
/// [`shift_machine::MachineSeed::spawn`] really O(1) in the image size?
/// Measures the host cost of a spawn from a small and a 4×-larger synthetic
/// image (256 vs 1024 resident data pages) and returns the `spawn_latency`
/// object:
///
/// - `small_pages`, `large_pages`: resident pages of the two images;
/// - `small_spawn_ns`, `large_spawn_ns`: best-of-three per-spawn host cost
///   from each image;
/// - `o1_ratio`: `large_spawn_ns / small_spawn_ns` — O(1) spawning keeps
///   it near 1.0 regardless of the 4× size gap; the deep-clone
///   implementation this replaced scaled it with the page count;
/// - `spawn_owned_pages`: private pages a fresh spawn starts with — 0 under
///   copy-on-write sharing (every pristine page is shared or
///   canonical-zero).
///
/// Each image is loaded once; spawns are timed in batches (the per-spawn
/// cost is far below timer granularity) with the best of three batches kept
/// as a noise filter. Under page sharing both images spawn by bumping the
/// same number of reference counts, so the ratio stays near 1.0; CI asserts
/// it under 1.5, a bound the old deep-clone spawn (~4× here, by
/// construction) fails.
pub fn spawn_latency() -> Json {
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
        const BATCH: u64 = 256;
        let batch = || timed(|| (0..BATCH).for_each(|_| drop(std::hint::black_box(seed.spawn()))));
        (0..3).map(|_| (batch().1 / BATCH).max(1)).min().expect("three batches ran")
    };

    let small = build(256); // 1 MiB of image data
    let large = build(1024); // 4 MiB
    let small_spawn_ns = measure(&small);
    let large_spawn_ns = measure(&large);
    Json::obj(vec![
        ("small_pages", Json::U64(small.resident_pages() as u64)),
        ("large_pages", Json::U64(large.resident_pages() as u64)),
        ("small_spawn_ns", Json::U64(small_spawn_ns)),
        ("large_spawn_ns", Json::U64(large_spawn_ns)),
        ("o1_ratio", Json::F64(large_spawn_ns as f64 / small_spawn_ns as f64)),
        ("spawn_owned_pages", Json::U64(large.spawn().mem.owned_pages() as u64)),
    ])
}

/// Sweeps the mixed byte-mode Apache fleet over connection counts at a
/// fixed width ({8, 256, 1024} in `BENCH_shift.json`) — the fleet-scale
/// counterpart of [`serve_sweep`]'s width axis — one `conn_sweep_rows`
/// object per point:
///
/// - `connections`: connections served at this point;
/// - `workers`: modelled fleet width (fixed across the sweep);
/// - `requests`, `served`: requests delivered, and served to completion;
/// - `wall_cycles`: modelled fleet makespan;
/// - `requests_per_sec`: served requests per second at the fleet clock;
/// - `p99_latency_cycles`: 99th-percentile per-request latency;
/// - `owned_pages_total`: private (COW-owned) pages summed over every
///   connection's instance;
/// - `peak_owned_pages`: the largest private page count any single
///   instance reached;
/// - `private_bytes_per_instance`: mean private bytes per instance — the
///   memory-diet figure that makes thousand-connection fleets affordable
///   (DESIGN.md §15);
/// - `host_ns`: host wall-clock spent simulating this point.
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
) -> Vec<Json> {
    let stream = ApacheStream::Mixed;
    let world = fleet_world(stream);
    let fleet = apache_fleet(BYTE);
    connections_list
        .iter()
        .map(|&n| {
            let conns = fleet_connections(stream, n, requests_per_conn);
            let report = fleet.serve(&world, &conns, workers);
            Json::obj(vec![
                ("connections", Json::U64(conns.len() as u64)),
                ("workers", Json::U64(workers as u64)),
                ("requests", Json::U64(report.requests)),
                ("served", Json::U64(report.served)),
                ("wall_cycles", Json::U64(report.wall_cycles)),
                ("requests_per_sec", Json::F64(report.requests_per_sec())),
                ("p99_latency_cycles", Json::U64(report.latency_percentile(99.0).unwrap_or(0))),
                ("owned_pages_total", Json::U64(report.owned_pages_total)),
                ("peak_owned_pages", Json::U64(report.peak_owned_pages)),
                ("private_bytes_per_instance", Json::F64(report.private_bytes_per_instance())),
                ("host_ns", Json::U64(report.host_ns.max(1))),
            ])
        })
        .collect()
}

/// Sweeps the open-loop byte-mode Apache fleet over offered Poisson rates
/// at a fixed modelled width — the tail-latency experiment behind
/// `open_loop_rows` in `BENCH_shift.json` — one object per rate, driven
/// through the event-driven scheduler
/// ([`shift_core::Fleet::serve_open_loop`]):
///
/// - `arrivals`: canonical arrival-process spec (e.g. `poisson:1000`);
/// - `rate_rps`: offered arrival rate in connections per modelled second;
/// - `connections`: connections offered;
/// - `workers`: modelled worker count of the event scheduler;
/// - `completed`, `shed`: connections completed, and shed by admission
///   control;
/// - `saturated`: `true` when the offered rate exceeded saturation
///   throughput;
/// - `wall_cycles`: modelled makespan;
/// - `requests_per_sec`: served requests per modelled second;
/// - `utilization`: modelled worker utilization in [0, 1];
/// - `sojourn_p50`, `sojourn_p99`, `sojourn_p999`: sojourn latency
///   (completion − arrival) percentiles in cycles;
/// - `peak_queue_depth`: deepest the ready queue got;
/// - `peak_resident`: most guests simultaneously resident;
/// - `peak_owned_pages`: the largest private page count any single guest
///   reached — bounded by residency, not by the offered connection count;
/// - `host_ns`: host wall-clock spent simulating this point.
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
) -> Vec<Json> {
    use shift_core::OpenLoopConfig;
    use shift_workloads::chaos;
    let stream = ApacheStream::Mixed;
    let world = fleet_world(stream);
    let fleet = apache_fleet(BYTE);
    let conns = fleet_connections(stream, connections, requests_per_conn);
    let cfg = OpenLoopConfig { workers, accept_cap: 16, max_resident: 8, quantum: 100_000 };
    let host = pool::host_threads();
    rates_rps
        .iter()
        .map(|&rate| {
            let process = ArrivalProcess::Poisson { rate_rps: rate };
            let arrivals = process.schedule(conns.len(), chaos::derive(seed, &process.spec()));
            let report = fleet.serve_open_loop(&world, &conns, &[], &arrivals, &cfg, host);
            let sojourn = |p| Json::U64(report.sojourn_percentile(p).unwrap_or(0));
            Json::obj(vec![
                ("arrivals", Json::Str(process.spec())),
                ("rate_rps", Json::F64(rate)),
                ("connections", Json::U64(report.offered)),
                ("workers", Json::U64(workers as u64)),
                ("completed", Json::U64(report.completed)),
                ("shed", Json::U64(report.shed)),
                ("saturated", Json::Bool(report.saturated())),
                ("wall_cycles", Json::U64(report.wall_cycles)),
                ("requests_per_sec", Json::F64(report.requests_per_sec())),
                ("utilization", Json::F64(report.utilization())),
                ("sojourn_p50", sojourn(50.0)),
                ("sojourn_p99", sojourn(99.0)),
                ("sojourn_p999", sojourn(99.9)),
                ("peak_queue_depth", Json::U64(report.peak_queue_depth)),
                ("peak_resident", Json::U64(report.peak_resident)),
                ("peak_owned_pages", Json::U64(report.peak_owned_pages)),
                ("host_ns", Json::U64(report.host_ns.max(1))),
            ])
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

    // Per benchmark, its compiles in the three modes. The glibc row is
    // measured inside the first benchmark's image (the libc is identical
    // across programs).
    let compiled: Vec<(&str, [CompiledProgram; 3])> = all_benches()
        .iter()
        .map(|bench| {
            let program = (bench.build)();
            (bench.name, [Mode::Uninstrumented, WORD, BYTE].map(|m| compile(&program, m)))
        })
        .collect();
    let row = |name: &str,
               [orig, word, byte]: &[CompiledProgram; 3],
               size: &dyn Fn(&CompiledProgram) -> usize| {
        CodeSizeRow { name: name.into(), orig: size(orig), word: size(word), byte: size(byte) }
    };
    let glibc = row("glibc", &compiled[0].1, &libc_size);
    std::iter::once(glibc).chain(compiled.iter().map(|(name, c)| row(name, c, &app_size))).collect()
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
    let [shadow_byte, shadow_word] = [Granularity::Byte, Granularity::Word].map(Mode::Shadow);
    let cells = [Mode::Uninstrumented, BYTE, shadow_byte, WORD, shadow_word].map(tainted);
    spec_rows(scale, &cells, |bench, runs| NatVsShadowRow {
        name: bench.name,
        shift_byte: runs.slowdown(cells[1]),
        shadow_byte: runs.slowdown(cells[2]),
        shift_word: runs.slowdown(cells[3]),
        shadow_word: runs.slowdown(cells[4]),
    })
}

/// Ablation: the kept-NaT-source decision (§4.4) and the clean-register
/// analysis, quantified.
pub fn ablation_design_choices(scale: Scale) -> Vec<AblationRow> {
    use shift_compiler::NatGen;
    let base = ShiftOptions::baseline(Granularity::Byte);
    let cells = [
        Mode::Uninstrumented,
        Mode::Shift(base),
        Mode::Shift(ShiftOptions { relax_analysis: false, ..base }),
        Mode::Shift(ShiftOptions { nat_gen: NatGen::PerFunction, ..base }),
        Mode::Shift(ShiftOptions { nat_gen: NatGen::PerUse, ..base }),
    ]
    .map(tainted);
    spec_rows(scale, &cells, |bench, runs| AblationRow {
        name: bench.name,
        default: runs.slowdown(cells[1]),
        no_analysis: runs.slowdown(cells[2]),
        natgen_per_function: runs.slowdown(cells[3]),
        natgen_per_use: runs.slowdown(cells[4]),
    })
}

/// Runs `f` and returns its result with the host ns it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

/// A named `f64` column of a figure's rows.
type Column<R> = (&'static str, fn(&R) -> f64);

/// A figure's `*_rows` array (the `key` field, every column, `host_ns`)
/// and its geomean object (every column), from one column list.
fn figure_json<R>(
    rows: &[R],
    key: fn(&R) -> (&'static str, Json),
    cols: &[Column<R>],
    host_ns: fn(&R) -> u64,
) -> (Json, Json) {
    let row = |r: &R| {
        let mut fields = vec![key(r)];
        fields.extend(cols.iter().map(|&(k, col)| (k, Json::F64(col(r)))));
        fields.push(("host_ns", Json::U64(host_ns(r))));
        Json::obj(fields)
    };
    let gm =
        |&(k, col): &Column<R>| (k, Json::F64(geomean(&rows.iter().map(col).collect::<Vec<_>>())));
    (Json::Arr(rows.iter().map(row).collect()), Json::obj(cols.iter().map(gm).collect()))
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
/// Figure 8's baseline and stock-Itanium cells *are* Figure 7's (identical
/// deterministic simulations), so the summary runs the union of both
/// figures' cells as one [`spec_matrix`] and builds each figure's rows from
/// it. The numbers are bit-identical to running each figure alone; only
/// the duplicate host work disappears. `host_ns.fig7`/`host_ns.fig8` are
/// therefore row sums under that split — the shared cells are billed to
/// Figure 7, and Figure 8 is charged only for its extra enhancement cells.
/// `seed` is the run's master seed, stamped into the summary so any
/// randomized harness seeded from the same integer (the chaos trials, the
/// injection sweeps) is reproducible from the artifact alone — the
/// experiments themselves are deterministic and ignore it.
pub fn bench_summary(scale: Scale, file_sizes: &[usize], requests: usize, seed: u64) -> Json {
    let t_total = Instant::now();

    let fig8_extra: Vec<Cell> = FIG8.into_iter().filter(|c| !FIG7.contains(c)).collect();
    let cells = [&FIG7[..], &fig8_extra].concat();
    let (spec, enh): (Vec<SpecRow>, Vec<EnhanceRow>) = spec_rows(scale, &cells, |bench, runs| {
        (fig7_row(bench, runs, &FIG7), fig8_row(bench, runs, &fig8_extra))
    })
    .into_iter()
    .unzip();
    let fig7_ns: u64 = spec.iter().map(|r| r.host_ns).sum();
    let fig8_ns: u64 = enh.iter().map(|r| r.host_ns).sum();

    let (apache, fig6_ns) = timed(|| fig6_apache(file_sizes, requests));
    let (serve_conns, serve_reqs) = match scale {
        Scale::Test => (8, 4),
        Scale::Reference => (16, 8),
    };
    let (serve, serve_ns) =
        timed(|| serve_sweep(&[1, 2, 4, 8], file_sizes, serve_conns, serve_reqs));
    let (trace, trace_ns) = timed(|| trace_overhead(serve_conns, serve_reqs, 100_000));
    let (spawn, spawn_ns) = timed(spawn_latency);
    let (conn_sweep, conn_sweep_ns) = timed(|| connection_sweep(&[8, 256, 1024], 8, 1));
    // Open-loop tail-latency sweep: one rate well below the tight admission
    // controller's capacity, one far above it, so the CI smoke can assert
    // both sides of saturation from the same artifact.
    let (ol_conns, ol_rates): (usize, &[f64]) = match scale {
        Scale::Test => (96, &[1_000.0, 1_000_000.0]),
        Scale::Reference => (4096, &[2_000.0, 1_000_000.0]),
    };
    let (open_loop, open_loop_ns) = timed(|| open_loop_sweep(ol_conns, ol_rates, 8, 2, seed));

    let (fig7_rows, fig7_gm) = figure_json(
        &spec,
        |r| ("name", Json::Str(r.name.to_string())),
        &[
            ("byte_unsafe", |r| r.byte_unsafe),
            ("byte_safe", |r| r.byte_safe),
            ("word_unsafe", |r| r.word_unsafe),
            ("word_safe", |r| r.word_safe),
        ],
        |r| r.host_ns,
    );
    let (fig8_rows, fig8_gm) = figure_json(
        &enh,
        |r| ("name", Json::Str(r.name.to_string())),
        &[
            ("byte_unsafe", |r| r.byte_unsafe),
            ("byte_set_clr", |r| r.byte_set_clr),
            ("byte_both", |r| r.byte_both),
            ("word_unsafe", |r| r.word_unsafe),
            ("word_set_clr", |r| r.word_set_clr),
            ("word_both", |r| r.word_both),
        ],
        |r| r.host_ns,
    );
    let (fig6_rows, fig6_gm) = figure_json(
        &apache,
        |r| ("file_size", Json::U64(r.file_size as u64)),
        &[
            ("byte_latency", |r| r.byte_latency),
            ("byte_throughput", |r| r.byte_throughput),
            ("word_latency", |r| r.word_latency),
            ("word_throughput", |r| r.word_throughput),
        ],
        |r| r.host_ns,
    );
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
        ("fig7_spec_geomean", fig7_gm),
        ("fig8_spec_geomean", fig8_gm),
        ("fig6_apache_geomean", fig6_gm),
        ("fig7_rows", fig7_rows),
        ("fig8_rows", fig8_rows),
        ("fig6_rows", fig6_rows),
        ("serve_rows", Json::Arr(serve)),
        ("conn_sweep_rows", Json::Arr(conn_sweep)),
        ("open_loop_rows", Json::Arr(open_loop)),
        ("spawn_latency", spawn),
        ("trace_overhead", trace),
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

    fn u64_of(row: &Json, key: &str) -> u64 {
        row.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("no u64 `{key}` in {row:?}"))
    }

    fn f64_of(row: &Json, key: &str) -> f64 {
        row.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("no f64 `{key}` in {row:?}"))
    }

    /// A serve row's `mode/stream[_size]` group key, built the way CI's
    /// bench smoke builds it.
    fn group(row: &Json) -> String {
        let (mode, stream) = (row.get("mode").unwrap(), row.get("stream").unwrap());
        let (mode, stream) = (mode.as_str().unwrap(), stream.as_str().unwrap());
        if stream == "uniform" {
            format!("{mode}/{stream}_{}", u64_of(row, "file_size"))
        } else {
            format!("{mode}/{stream}")
        }
    }

    #[test]
    fn serve_sweep_scales_and_stays_deterministic() {
        // One uniform stream plus the mixed stream, byte + word, widths
        // 1/2/8: rows come out grouped with widths in order, throughput is
        // monotone non-degrading in width, and the modelled serve totals
        // never depend on width.
        let points = serve_sweep(&[1, 2, 8], &[4 << 10], 8, 4);
        assert_eq!(points.len(), 2 * 2 * 3);
        for group_rows in points.chunks(3) {
            let one = &group_rows[0];
            let key = group(one);
            assert_eq!(u64_of(one, "workers"), 1);
            assert!(u64_of(one, "host_ns") > 0);
            assert_eq!(u64_of(one, "served"), u64_of(one, "requests"), "dropped at width 1: {key}");
            for p in group_rows {
                assert_eq!(group(p), key);
                assert_eq!(u64_of(p, "served"), u64_of(one, "served"), "{key}: served by width");
                assert_eq!(u64_of(p, "p99_latency_cycles"), u64_of(one, "p99_latency_cycles"));
            }
            for pair in group_rows.windows(2) {
                assert!(
                    f64_of(&pair[1], "requests_per_sec")
                        >= f64_of(&pair[0], "requests_per_sec") - 1e-9,
                    "{key}: throughput degraded {} -> {} workers",
                    u64_of(&pair[0], "workers"),
                    u64_of(&pair[1], "workers")
                );
            }
            let (rps1, rps8) =
                (f64_of(one, "requests_per_sec"), f64_of(&group_rows[2], "requests_per_sec"));
            assert!(rps8 >= 3.0 * rps1, "{key}: 8-wide fleet only {:.2}x over 1-wide", rps8 / rps1);
        }
    }

    #[test]
    fn spawn_latency_is_o1_in_image_size() {
        let s = spawn_latency();
        let (small, large) = (u64_of(&s, "small_pages"), u64_of(&s, "large_pages"));
        assert_eq!(large, 4 * small, "images must differ 4x in size");
        assert_eq!(u64_of(&s, "spawn_owned_pages"), 0, "a fresh spawn must own no private pages");
        // `o1_ratio` is host wall-clock time: the CI bench smoke gates it.
    }

    #[test]
    fn connection_sweep_scales_to_fleet_counts() {
        // Test-scale miniature of the {8, 256, 1024} sweep in the summary.
        let points = connection_sweep(&[4, 16, 64], 4, 1);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert_eq!(
                u64_of(p, "served"),
                u64_of(p, "requests"),
                "mixed stream drops nothing: {p:?}"
            );
            let owned = u64_of(p, "owned_pages_total");
            assert!(owned > 0, "serving must dirty private pages");
            assert!(f64_of(p, "private_bytes_per_instance") > 0.0);
            assert!(u64_of(p, "peak_owned_pages") * u64_of(p, "connections") >= owned);
        }
        for pair in points.windows(2) {
            assert!(
                f64_of(&pair[1], "requests_per_sec") >= f64_of(&pair[0], "requests_per_sec") - 1e-9,
                "throughput degraded {} -> {} connections",
                u64_of(&pair[0], "connections"),
                u64_of(&pair[1], "connections")
            );
            // Per-instance private bytes stay flat as the fleet grows: the
            // whole point of sharing the pristine image.
            let bytes = |p: &Json| f64_of(p, "private_bytes_per_instance");
            assert!(
                bytes(&pair[1]) <= bytes(&pair[0]) * 1.5 + 4096.0,
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
        assert_eq!(u64_of(low, "shed"), 0, "below saturation nothing sheds: {low:?}");
        assert_eq!(low.get("saturated"), Some(&Json::Bool(false)));
        assert!(u64_of(low, "completed") == u64_of(low, "connections"));
        let (p50, p99, p999) =
            (u64_of(low, "sojourn_p50"), u64_of(low, "sojourn_p99"), u64_of(low, "sojourn_p999"));
        assert!(p50 <= p99 && p99 <= p999, "{low:?}");
        assert!(p999 > 0, "completed connections must have sojourn: {low:?}");
        assert!(u64_of(high, "shed") > 0, "overload must shed: {high:?}");
        assert_eq!(high.get("saturated"), Some(&Json::Bool(true)));
        assert_eq!(u64_of(high, "completed") + u64_of(high, "shed"), u64_of(high, "connections"));
        // Residency — not the offered count — bounds peak guest memory.
        assert!(u64_of(high, "peak_resident") <= 8, "{high:?}");
        assert!(u64_of(high, "peak_owned_pages") > 0);
    }

    #[test]
    fn trace_overhead_is_zero_perturbation_and_cheap() {
        let t = trace_overhead(4, 3, 100_000);
        assert_eq!(
            t.get("modelled_identical"),
            Some(&Json::Bool(true)),
            "arming the recorder perturbed the modelled outcome"
        );
        assert!(u64_of(&t, "trace_events") > 0, "armed run recorded no events");
        assert!(u64_of(&t, "trace_samples") > 0, "armed run recorded no samples");
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
