//! Bit-identity contract for the host-side performance work.
//!
//! The software TLB, page-span memory paths, and word-level shadow-bitmap
//! fast paths are *host* optimizations: they must not change anything the
//! model observes. This test pins every modelled result the evaluation
//! depends on — `Exit`, `state_digest`, `Stats` cycle counters across the
//! attack corpus at both granularities, and the full Figure 6/7/8 slowdown
//! tables (as exact f64 bit patterns) — against a committed golden file
//! captured from the pre-optimization implementation.
//!
//! Regenerate (only when the *model* legitimately changes — new cost model,
//! new instrumentation — never to paper over a host-path bug) with:
//!
//! ```text
//! cargo test --release --test perf_invariance -- --ignored regenerate
//! ```

use shift_bench::{fig6_apache, fig7_spec_slowdowns, fig8_enhancements, geomean, serve_sweep};
use shift_core::{Granularity, Mode, Shift, ShiftOptions};
use shift_obs::Json;
use shift_workloads::Scale;

const GOLDEN_PATH: &str = "tests/data/golden_model.json";
const GOLDEN: &str = include_str!("data/golden_model.json");
/// The reference CI's bench smoke compares `shift bench --json` against.
const BENCH_REFERENCE: &str = include_str!("data/bench_reference.json");

/// Apache sweep matching the CLI's test-scale `bench` configuration.
const FILE_SIZES: [usize; 2] = [1 << 10, 8 << 10];
const REQUESTS: usize = 6;

/// An f64 captured exactly: the bit pattern is authoritative, the float is
/// a human-readable annotation for diffs.
fn exact(v: f64) -> Json {
    Json::obj(vec![("bits", Json::U64(v.to_bits())), ("approx", Json::F64(v))])
}

fn attack_corpus() -> Json {
    let mut rows = Vec::new();
    for atk in shift_attacks::all_attacks() {
        for gran in [Granularity::Byte, Granularity::Word] {
            let shift = Shift::new(Mode::Shift(ShiftOptions::baseline(gran)));
            let app = (atk.build)();
            for (input, world) in [("exploit", (atk.exploit)()), ("benign", (atk.benign)())] {
                let report = shift.run(&app, world).expect("attack guest compiles");
                rows.push(Json::obj(vec![
                    ("program", Json::Str(atk.program.to_string())),
                    ("granularity", Json::Str(gran.name().to_string())),
                    ("input", Json::Str(input.to_string())),
                    ("exit", Json::Str(report.exit.to_string())),
                    ("state_digest", Json::Str(format!("{:#018x}", report.machine.state_digest()))),
                    ("instructions", Json::U64(report.stats.instructions)),
                    ("cycles", Json::U64(report.stats.cycles)),
                    ("io_cycles", Json::U64(report.stats.io_cycles)),
                ]));
            }
        }
    }
    Json::Arr(rows)
}

fn fig7_table() -> Json {
    let rows = fig7_spec_slowdowns(Scale::Test)
        .into_iter()
        .map(|r| {
            Json::obj(vec![
                ("name", Json::Str(r.name.to_string())),
                ("byte_unsafe", exact(r.byte_unsafe)),
                ("byte_safe", exact(r.byte_safe)),
                ("word_unsafe", exact(r.word_unsafe)),
                ("word_safe", exact(r.word_safe)),
            ])
        })
        .collect();
    Json::Arr(rows)
}

fn fig8_table() -> Json {
    let rows = fig8_enhancements(Scale::Test)
        .into_iter()
        .map(|r| {
            Json::obj(vec![
                ("name", Json::Str(r.name.to_string())),
                ("byte_unsafe", exact(r.byte_unsafe)),
                ("byte_set_clr", exact(r.byte_set_clr)),
                ("byte_both", exact(r.byte_both)),
                ("word_unsafe", exact(r.word_unsafe)),
                ("word_set_clr", exact(r.word_set_clr)),
                ("word_both", exact(r.word_both)),
            ])
        })
        .collect();
    Json::Arr(rows)
}

fn fig6_table() -> Json {
    let rows = fig6_apache(&FILE_SIZES, REQUESTS)
        .into_iter()
        .map(|r| {
            Json::obj(vec![
                ("file_size", Json::U64(r.file_size as u64)),
                ("byte_latency", exact(r.byte_latency)),
                ("byte_throughput", exact(r.byte_throughput)),
                ("word_latency", exact(r.word_latency)),
                ("word_throughput", exact(r.word_throughput)),
            ])
        })
        .collect();
    Json::Arr(rows)
}

fn collect() -> Json {
    Json::obj(vec![
        ("attacks", attack_corpus()),
        ("fig7", fig7_table()),
        ("fig8", fig8_table()),
        ("fig6", fig6_table()),
    ])
}

/// The committed golden file, normalized through the parser so formatting
/// differences cannot mask (or fake) a mismatch.
fn golden() -> Json {
    Json::parse(GOLDEN).expect("golden file parses")
}

/// Splits a rendered table into per-row lines so a mismatch reports the
/// offending rows instead of two multi-kilobyte strings.
fn assert_section_eq(section: &str, got: &Json, want: &Json) {
    let (Json::Arr(got_rows), Json::Arr(want_rows)) = (got, want) else {
        panic!("{section}: golden section is not an array");
    };
    assert_eq!(got_rows.len(), want_rows.len(), "{section}: row count drifted");
    for (g, w) in got_rows.iter().zip(want_rows) {
        assert_eq!(g.render(), w.render(), "{section}: modelled results drifted");
    }
}

#[test]
fn modelled_results_are_bit_identical_to_golden() {
    let got = collect();
    let want = golden();
    for section in ["attacks", "fig7", "fig8", "fig6"] {
        assert_section_eq(
            section,
            got.get(section).expect("section collected"),
            want.get(section).unwrap_or_else(|| panic!("golden missing {section}")),
        );
    }
}

/// Relative tolerance of the bench-reference comparisons, as in CI.
fn assert_close(what: &str, got: f64, want: f64) {
    assert!((got - want).abs() <= 1e-9 * want.abs(), "{what} drifted: {got} != {want}");
}

/// The object at `key` of the bench reference, as `(column, value)` pairs.
fn reference_section(reference: &Json, key: &str) -> Vec<(String, f64)> {
    let Some(Json::Obj(pairs)) = reference.get(key) else {
        panic!("bench reference missing {key}");
    };
    pairs.iter().map(|(k, v)| (k.clone(), v.as_f64().expect("numeric reference"))).collect()
}

/// `tests/data/bench_reference.json` agrees with the pinned model: the
/// geomeans of the golden fig7/fig8/fig6 rows (which the test above pins
/// to the live model) are its three geomean blocks, and a one-wide serve
/// sweep at `shift bench`'s test scale reproduces its `serve_rps_workers1`.
#[test]
fn bench_reference_matches_the_golden_model() {
    let reference = Json::parse(BENCH_REFERENCE).expect("bench reference parses");
    let golden = golden();
    for (block, section) in [
        ("fig7_spec_geomean", "fig7"),
        ("fig8_spec_geomean", "fig8"),
        ("fig6_apache_geomean", "fig6"),
    ] {
        let Some(Json::Arr(rows)) = golden.get(section) else {
            panic!("golden missing {section}");
        };
        for (col, want) in reference_section(&reference, block) {
            let xs: Vec<f64> = rows
                .iter()
                .map(|r| {
                    let bits = r.get(&col).and_then(|c| c.get("bits")).and_then(Json::as_u64);
                    f64::from_bits(bits.unwrap_or_else(|| panic!("{section} row lacks {col}")))
                })
                .collect();
            assert_close(&format!("{block}.{col}"), geomean(&xs), want);
        }
    }

    let want = reference_section(&reference, "serve_rps_workers1");
    let points = serve_sweep(&[1], &FILE_SIZES, 8, 4);
    assert_eq!(points.len(), want.len(), "serve_rps_workers1 row count");
    for p in &points {
        let key = match p.stream {
            "uniform" => format!("{}/uniform_{}", p.mode, p.file_size),
            stream => format!("{}/{stream}", p.mode),
        };
        let rps = want.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        assert_close(&key, p.requests_per_sec, rps.unwrap_or_else(|| panic!("no {key}")));
    }
}

/// Rewrites the golden file from the current implementation. Ignored by
/// default; see the module docs for when regeneration is legitimate.
#[test]
#[ignore = "regenerates the golden fixture; run explicitly"]
fn regenerate() {
    std::fs::write(GOLDEN_PATH, collect().render()).expect("write golden file");
}
