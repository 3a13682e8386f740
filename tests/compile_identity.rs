//! Bit-identity contract for the compiler's host-side work.
//!
//! Lowering, register allocation, instrumentation, peephole and linking may
//! get faster, but they must emit exactly the same program. This test
//! compiles every distinct guest — the Apache server, the eight SPEC
//! kernels, the eight attack programs and the non-Apache chaos guests — in
//! every `shift --mode` mode, and pins an FNV-1a digest of each result
//! (the image, the sorted function ranges, the sorted global addresses and
//! the instrumentation statistics) against a committed fixture.
//!
//! Regenerate (only when the *emitted code* legitimately changes — a new
//! lowering, a new instrumentation sequence — never to paper over a
//! host-path bug) with:
//!
//! ```text
//! cargo test --release --test compile_identity -- --ignored regenerate
//! ```

use shift_core::{replay, Shift};
use shift_ir::Program;
use shift_obs::Json;

const FIXTURE_PATH: &str = "tests/data/compile_digests.json";
const FIXTURE: &str = include_str!("data/compile_digests.json");

/// The canonical mode keys `shift --mode` accepts.
const MODES: [&str; 7] =
    ["plain", "byte", "word", "byte-enhanced", "word-enhanced", "shadow-byte", "shadow-word"];

/// Every distinct guest program, by name. The chaos registry's `apache`
/// entry is `apache_program` again, so only its other guests are added.
fn guests() -> Vec<(String, Program)> {
    let mut out = vec![("apache".to_string(), shift_workloads::apache::apache_program())];
    out.extend(
        shift_workloads::all_benches().into_iter().map(|b| (b.name.to_string(), (b.build)())),
    );
    out.extend(
        shift_attacks::all_attacks().into_iter().map(|a| (a.program.to_string(), (a.build)())),
    );
    out.extend(
        shift_workloads::chaos::GUESTS
            .iter()
            .filter(|g| g.name != "apache")
            .map(|g| (g.name.to_string(), (g.program)())),
    );
    out
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `guest/mode` → digest of the compiled program, in a fixed order.
fn collect() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (name, program) in guests() {
        for key in MODES {
            let mode = replay::mode_from_key(key).expect("canonical mode key");
            let c = Shift::new(mode).compile(&program).expect("guest compiles");
            let mut ranges: Vec<_> = c.func_ranges.iter().collect();
            ranges.sort();
            let mut globals: Vec<_> = c.global_addrs.iter().collect();
            globals.sort();
            let text = format!("{:?}\n{ranges:?}\n{globals:?}\n{:?}", c.image, c.stats);
            out.push((format!("{name}/{key}"), format!("{:#018x}", fnv1a(text.as_bytes()))));
        }
    }
    out
}

#[test]
fn every_guest_compiles_bit_identically_in_every_mode() {
    let got = collect();
    let want = Json::parse(FIXTURE).expect("fixture parses");
    let Json::Obj(want) = want else { panic!("fixture is not an object") };
    assert_eq!(got.len(), 126, "18 distinct guests x 7 modes");
    let want_keys: Vec<&str> = want.iter().map(|(k, _)| k.as_str()).collect();
    let got_keys: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(got_keys, want_keys, "the guest/mode matrix drifted");
    let drifted: Vec<&str> = got
        .iter()
        .zip(&want)
        .filter(|((_, g), (_, w))| Some(g.as_str()) != w.as_str())
        .map(|((k, _), _)| k.as_str())
        .collect();
    assert!(drifted.is_empty(), "emitted code drifted for {drifted:?}");
}

/// Rewrites the fixture from the current compiler. Ignored by default; see
/// the module docs for when regeneration is legitimate.
#[test]
#[ignore = "regenerates the compile-identity fixture; run explicitly"]
fn regenerate() {
    let doc = Json::Obj(collect().into_iter().map(|(k, d)| (k, Json::Str(d))).collect());
    std::fs::write(FIXTURE_PATH, doc.render()).expect("write fixture");
}
