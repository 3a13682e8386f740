//! Coverage of the superblock tier's template fusion (DESIGN.md §13).
//!
//! Every load and store the SHIFT pass instruments opens with one Figure-4
//! tag-address sequence, which the superblock decoder fuses into one
//! micro-op. These tests compile real guests and require the decoded
//! program to hold exactly one fused tag-address site per instrumented
//! access, so a change to the pass's templates cannot silently switch
//! fusion off (the differential proptests would still pass, only slower).

use shift_compiler::CompiledProgram;
use shift_core::{Granularity, Mode, Shift, ShiftOptions};
use shift_machine::Machine;
use shift_workloads::apache::apache_program;
use shift_workloads::spec::all_benches;

fn baseline_modes() -> [(&'static str, Mode); 2] {
    [
        ("byte", Mode::Shift(ShiftOptions::baseline(Granularity::Byte))),
        ("word", Mode::Shift(ShiftOptions::baseline(Granularity::Word))),
    ]
}

fn assert_every_access_fuses(what: &str, compiled: &CompiledProgram) {
    let sb = Machine::new(&compiled.image).superblock_stats();
    let accesses = (compiled.stats.loads + compiled.stats.stores) as u64;
    assert!(accesses > 0, "{what}: the pass instrumented nothing");
    assert_eq!(
        sb.fused_tag_addrs, accesses,
        "{what}: fused tag-address sites must equal instrumented loads + stores"
    );
}

#[test]
fn apache_tag_address_templates_all_fuse() {
    for (name, mode) in baseline_modes() {
        let compiled = Shift::new(mode).compile(&apache_program()).expect("apache compiles");
        assert_every_access_fuses(&format!("apache/{name}"), &compiled);
    }
}

#[test]
fn spec_tag_address_templates_all_fuse() {
    for bench in all_benches() {
        for (name, mode) in baseline_modes() {
            let compiled = shift_workloads::compile_spec(&bench, mode);
            assert_every_access_fuses(&format!("{}/{name}", bench.name), &compiled);
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
