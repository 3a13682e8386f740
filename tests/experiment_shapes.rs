//! Shape tests over the experiment harnesses themselves: the qualitative
//! claims of every paper figure, asserted at test scale so `cargo test`
//! guards them without the cost of the reference runs.

use shift_bench::{
    ablation_design_choices, ablation_nat_vs_shadow, fig6_apache, fig7_spec_slowdowns,
    fig8_enhancements, fig9_breakdown, geomean,
};
use shift_workloads::Scale;

/// Figure 7's claims: instrumentation costs real factors, byte ≥ word on
/// average, safe ≤ unsafe everywhere.
#[test]
fn fig7_shape() {
    let rows = fig7_spec_slowdowns(Scale::Test);
    assert_eq!(rows.len(), 8);
    let byte = geomean(&rows.iter().map(|r| r.byte_unsafe).collect::<Vec<_>>());
    let word = geomean(&rows.iter().map(|r| r.word_unsafe).collect::<Vec<_>>());
    assert!(byte > 1.5 && byte < 6.0, "byte slowdown out of plausible range: {byte:.2}");
    assert!(byte > word, "byte {byte:.2} must exceed word {word:.2}");
    for r in &rows {
        assert!(r.byte_safe <= r.byte_unsafe + 1e-9, "{}", r.name);
        assert!(r.word_safe <= r.word_unsafe + 1e-9, "{}", r.name);
    }
}

/// Figure 8's claims: each enhancement step strictly helps, on every
/// benchmark, at both granularities.
#[test]
fn fig8_shape() {
    for r in fig8_enhancements(Scale::Test) {
        assert!(r.byte_set_clr <= r.byte_unsafe, "{}: set/clr must help (byte)", r.name);
        assert!(r.byte_both <= r.byte_set_clr, "{}: nat-cmp must help (byte)", r.name);
        assert!(r.word_set_clr <= r.word_unsafe, "{}: set/clr must help (word)", r.name);
        assert!(r.word_both <= r.word_set_clr, "{}: nat-cmp must help (word)", r.name);
        assert!(r.reduction_byte_both() > 0.0, "{}", r.name);
        assert!(r.reduction_word_both() > 0.0, "{}", r.name);
    }
}

/// Figure 9's claims: tag-address computation dominates bitmap memory
/// access, and the load side dominates the store side, in aggregate.
#[test]
fn fig9_shape() {
    let rows = fig9_breakdown(Scale::Test);
    let comp: f64 = rows.iter().map(|r| r.ld_compute + r.st_compute).sum();
    let mem: f64 = rows.iter().map(|r| r.ld_memory + r.st_memory).sum();
    let ld: f64 = rows.iter().map(|r| r.ld_compute + r.ld_memory).sum();
    let st: f64 = rows.iter().map(|r| r.st_compute + r.st_memory).sum();
    assert!(comp > 2.0 * mem, "computation must dominate: {comp:.2} vs {mem:.2}");
    assert!(ld > st, "loads must dominate: {ld:.2} vs {st:.2}");
}

/// Figure 6's claims: end-to-end server overhead is I/O-masked and largest
/// for the smallest files.
#[test]
fn fig6_shape() {
    let rows = fig6_apache(&[4 << 10, 64 << 10], 3);
    assert!(rows[0].byte_latency >= rows[1].byte_latency, "small files cost more");
    for r in &rows {
        assert!(r.byte_latency < 1.15, "{} B: overhead not I/O-masked", r.file_size);
        assert!(r.word_latency <= r.byte_latency + 0.02);
    }
}

/// The headline ablation's claim: software-only tracking costs a multiple
/// of SHIFT, for every benchmark.
#[test]
fn nat_vs_shadow_shape() {
    for r in ablation_nat_vs_shadow(Scale::Test) {
        assert!(
            r.shadow_byte > r.shift_byte * 1.3,
            "{}: shadow {:.2} vs shift {:.2}",
            r.name,
            r.shadow_byte,
            r.shift_byte
        );
    }
}

/// Figure 9 and both ablations, pinned to their definitions: every field is
/// recomputed here from direct [`run_spec`] calls (one uninstrumented,
/// tainted-input baseline per kernel) and compared as an exact f64 bit
/// pattern, so a change to how the harness schedules or shares its runs
/// cannot move a modelled number.
#[test]
fn fig9_and_ablations_match_direct_runs() {
    use shift_compiler::NatGen;
    use shift_core::{Granularity, Mode, ShiftOptions};
    use shift_isa::Provenance;
    use shift_workloads::{all_benches, run_spec};

    let scale = Scale::Test;
    let same = |what: &str, name: &str, got: f64, want: f64| {
        assert_eq!(got.to_bits(), want.to_bits(), "{name} {what}: {got} vs {want}");
    };
    let benches = all_benches();
    let stats = |b: usize, mode: Mode| run_spec(&benches[b], mode, scale, true).stats;
    let baselines: Vec<u64> =
        (0..benches.len()).map(|b| stats(b, Mode::Uninstrumented).cycles).collect();
    let slowdown = |b: usize, mode: Mode| stats(b, mode).cycles as f64 / baselines[b] as f64;
    let byte = ShiftOptions::baseline(Granularity::Byte);
    let word = ShiftOptions::baseline(Granularity::Word);

    let fig9 = fig9_breakdown(scale);
    assert_eq!(fig9.len(), 2 * benches.len());
    for (i, r) in fig9.iter().enumerate() {
        let (b, gran) =
            (i % benches.len(), [Granularity::Byte, Granularity::Word][i / benches.len()]);
        assert_eq!((r.name, r.granularity), (benches[b].name, gran));
        let run = stats(b, Mode::Shift(ShiftOptions::baseline(gran)));
        let frac = |p: Provenance| run.cycles_for(p) as f64 / baselines[b] as f64;
        same("ld_compute", r.name, r.ld_compute, frac(Provenance::LdTagCompute));
        same("ld_memory", r.name, r.ld_memory, frac(Provenance::LdTagMemory));
        same("st_compute", r.name, r.st_compute, frac(Provenance::StTagCompute));
        same("st_memory", r.name, r.st_memory, frac(Provenance::StTagMemory));
        same("relax", r.name, r.relax, frac(Provenance::Relax));
        same("taint_src", r.name, r.taint_src, frac(Provenance::TaintSource));
    }

    let nat = ablation_nat_vs_shadow(scale);
    assert_eq!(nat.len(), benches.len());
    for (b, r) in nat.iter().enumerate() {
        assert_eq!(r.name, benches[b].name);
        same("shift_byte", r.name, r.shift_byte, slowdown(b, Mode::Shift(byte)));
        same("shadow_byte", r.name, r.shadow_byte, slowdown(b, Mode::Shadow(Granularity::Byte)));
        same("shift_word", r.name, r.shift_word, slowdown(b, Mode::Shift(word)));
        same("shadow_word", r.name, r.shadow_word, slowdown(b, Mode::Shadow(Granularity::Word)));
    }

    let design = ablation_design_choices(scale);
    assert_eq!(design.len(), benches.len());
    for (b, r) in design.iter().enumerate() {
        let variant = |opts: ShiftOptions| slowdown(b, Mode::Shift(opts));
        assert_eq!(r.name, benches[b].name);
        same("default", r.name, r.default, variant(byte));
        same(
            "no_analysis",
            r.name,
            r.no_analysis,
            variant(ShiftOptions { relax_analysis: false, ..byte }),
        );
        same(
            "natgen_per_function",
            r.name,
            r.natgen_per_function,
            variant(ShiftOptions { nat_gen: NatGen::PerFunction, ..byte }),
        );
        same(
            "natgen_per_use",
            r.name,
            r.natgen_per_use,
            variant(ShiftOptions { nat_gen: NatGen::PerUse, ..byte }),
        );
    }
}
