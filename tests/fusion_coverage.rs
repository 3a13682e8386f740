//! Coverage of the superblock tier's template fusion (DESIGN.md §13).
//!
//! Every load and store the SHIFT pass instruments opens with one Figure-4
//! tag-address sequence, which the superblock decoder fuses into one
//! micro-op. These tests compile real guests and require the decoded
//! program to hold exactly one fused tag-address site per instrumented
//! access, so a change to the pass's templates cannot silently switch
//! fusion off (the differential proptests would still pass, only slower).
//! The software-only shadow pass emits the same sequence through the same
//! emitter, so in every mode the fused sites must equal the Figure-4
//! sequences counted in the emitted code. The relax launders of the
//! baseline modes fuse the same way, and the enhanced modes emit none.

use shift_compiler::CompiledProgram;
use shift_core::{Granularity, Mode, Shift, ShiftOptions};
use shift_isa::{AluOp, Insn, Op, Provenance};
use shift_machine::Machine;
use shift_workloads::apache::apache_program;
use shift_workloads::spec::all_benches;

fn baseline_modes() -> [(&'static str, Mode); 2] {
    [
        ("byte", Mode::Shift(ShiftOptions::baseline(Granularity::Byte))),
        ("word", Mode::Shift(ShiftOptions::baseline(Granularity::Word))),
    ]
}

fn enhanced_modes() -> [(&'static str, Mode); 2] {
    [
        ("byte-enhanced", Mode::Shift(ShiftOptions::enhanced(Granularity::Byte))),
        ("word-enhanced", Mode::Shift(ShiftOptions::enhanced(Granularity::Word))),
    ]
}

/// The shadow pass emits the same sequence but keeps no `InstrumentStats`.
fn shadow_modes() -> [(&'static str, Mode); 2] {
    [
        ("shadow-byte", Mode::Shadow(Granularity::Byte)),
        ("shadow-word", Mode::Shadow(Granularity::Word)),
    ]
}

/// Figure-4 tag-address sequences in `code`: the region-number `shr …, 61`
/// directly followed by its `add …, -1`.
fn figure4_sequences(code: &[Insn]) -> u64 {
    code.windows(2)
        .filter(|w| {
            matches!(
                (&w[0].op, &w[1].op),
                (
                    Op::AluI { op: AluOp::Shr, imm: 61, .. },
                    Op::AluI { op: AluOp::Add, imm: -1, .. }
                )
            )
        })
        .count() as u64
}

/// Every Figure-4 sequence in the code fuses; under SHIFT there is exactly
/// one per instrumented load and store.
fn assert_every_access_fuses(what: &str, mode: Mode, compiled: &CompiledProgram) {
    let sb = Machine::new(&compiled.image).superblock_stats();
    let sequences = figure4_sequences(&compiled.image.code);
    assert!(sequences > 0, "{what}: the pass emitted no tag-address sequence");
    assert_eq!(
        sb.fused_tag_addrs, sequences,
        "{what}: fused tag-address sites must equal the Figure-4 sequences in the code"
    );
    if let Mode::Shift(_) = mode {
        let accesses = (compiled.stats.loads + compiled.stats.stores) as u64;
        assert_eq!(
            sb.fused_tag_addrs, accesses,
            "{what}: fused tag-address sites must equal instrumented loads + stores"
        );
    }
}

#[test]
fn apache_tag_address_templates_all_fuse() {
    for (name, mode) in baseline_modes().into_iter().chain(shadow_modes()) {
        let compiled = Shift::new(mode).compile(&apache_program()).expect("apache compiles");
        assert_every_access_fuses(&format!("apache/{name}"), mode, &compiled);
    }
}

#[test]
fn spec_tag_address_templates_all_fuse() {
    for bench in all_benches() {
        for (name, mode) in baseline_modes().into_iter().chain(shadow_modes()) {
            let compiled = shift_workloads::compile_spec(&bench, mode);
            assert_every_access_fuses(&format!("{}/{name}", bench.name), mode, &compiled);
        }
    }
}

/// Byte mode's sub-word stores of possibly-tainted data — exactly the
/// stores the pass launders — merge the tag byte under `tnat` predicates,
/// and every merge fuses. Word mode stores whole tag bytes and never
/// emits the merge.
#[test]
fn store_merges_fuse_once_per_laundered_byte_mode_store() {
    for (name, mode) in baseline_modes() {
        let compiled = Shift::new(mode).compile(&apache_program()).expect("apache compiles");
        let merges = Machine::new(&compiled.image).superblock_stats().fused_merges;
        let expected = if name == "byte" { compiled.stats.stores_laundered as u64 } else { 0 };
        assert!(name == "word" || expected > 0, "apache/byte: no laundered store");
        assert_eq!(merges, expected, "apache/{name}: fused store tag merges");
    }
}

/// Relax launder sequences in `code`: a `movl` of the spill slot, the
/// predicated `st8.spill` to it and the plain `ld8` back, all tagged
/// `Relax`. Each is the tail of either launder form.
fn launder_sequences(code: &[Insn]) -> u64 {
    code.windows(3)
        .filter(|w| {
            w.iter().all(|i| i.prov == Provenance::Relax)
                && matches!(
                    (&w[0].op, &w[1].op, &w[2].op),
                    (Op::MovI { .. }, Op::StSpill { .. }, Op::Ld { spec: false, .. })
                )
        })
        .count() as u64
}

fn assert_every_launder_fuses(what: &str, compiled: &CompiledProgram, enhanced: bool) {
    let fused = Machine::new(&compiled.image).superblock_stats().fused_launders;
    let sequences = launder_sequences(&compiled.image.code);
    assert_eq!(fused, sequences, "{what}: fused launders must equal the launder sequences");
    if enhanced {
        assert_eq!(sequences, 0, "{what}: the enhancements remove every launder");
    }
}

/// Every relax launder the baseline pass emits (compare operands,
/// sanitized addresses, sub-word stores) fuses into one micro-op; the
/// `cmp.nat` and `tset/tclr` enhancements leave none to fuse.
#[test]
fn relax_launders_fuse_in_baseline_modes_and_vanish_when_enhanced() {
    let modes = baseline_modes().into_iter().map(|m| (m, false));
    let modes: Vec<_> = modes.chain(enhanced_modes().into_iter().map(|m| (m, true))).collect();
    let app = apache_program();
    for &((name, mode), enhanced) in &modes {
        let compiled = Shift::new(mode).compile(&app).expect("apache compiles");
        assert!(
            enhanced || launder_sequences(&compiled.image.code) > 0,
            "apache/{name}: no launder emitted"
        );
        assert_every_launder_fuses(&format!("apache/{name}"), &compiled, enhanced);
    }
    for bench in all_benches() {
        for &((name, mode), enhanced) in &modes {
            let compiled = shift_workloads::compile_spec(&bench, mode);
            assert_every_launder_fuses(&format!("{}/{name}", bench.name), &compiled, enhanced);
        }
    }
}
