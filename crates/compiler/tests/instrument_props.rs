//! Property tests over the SHIFT instrumentation pass: for random
//! application code and random pass options, the pass preserves the
//! original instruction stream as an ordered sub-sequence (modulo the
//! documented `st8 → st8.spill` rewrite) and confines its own additions to
//! the reserved scratch state.

use proptest::prelude::*;

use shift_compiler::instrument::{instrument, NatGen, ShiftOptions};
use shift_compiler::{CInsn, COp};
use shift_isa::{AluOp, CmpRel, ExtKind, Gpr, MemSize, Op, Pr, Provenance};
use shift_tagmap::Granularity;

/// Application registers only (never the reserved r24–r31).
fn app_reg() -> impl Strategy<Value = Gpr> {
    (1usize..16).prop_map(Gpr::from_index)
}

fn mem_size() -> impl Strategy<Value = MemSize> {
    prop_oneof![Just(MemSize::B1), Just(MemSize::B2), Just(MemSize::B4), Just(MemSize::B8)]
}

fn app_insn() -> impl Strategy<Value = CInsn<Gpr>> {
    prop_oneof![
        (app_reg(), app_reg(), app_reg()).prop_map(|(d, a, b)| {
            CInsn::isa(Op::Alu { op: AluOp::Add, dst: d, src1: a, src2: b })
        }),
        (app_reg(), any::<i16>())
            .prop_map(|(d, imm)| { CInsn::isa(Op::MovI { dst: d, imm: i64::from(imm) }) }),
        (mem_size(), app_reg(), app_reg()).prop_map(|(size, d, a)| {
            CInsn::isa(Op::Ld { size, ext: ExtKind::Zero, dst: d, addr: a, spec: false })
        }),
        (mem_size(), app_reg(), app_reg())
            .prop_map(|(size, s, a)| { CInsn::isa(Op::St { size, src: s, addr: a }) }),
        (app_reg(), app_reg()).prop_map(|(a, b)| {
            CInsn::isa(Op::Cmp {
                rel: CmpRel::Lt,
                pt: Pr::P1,
                pf: Pr::P2,
                src1: a,
                src2: b,
                nat_aware: false,
            })
        }),
        (app_reg(), app_reg()).prop_map(|(d, s)| CInsn::isa(Op::Mov { dst: d, src: s })),
    ]
}

fn options() -> impl Strategy<Value = ShiftOptions> {
    (
        prop_oneof![Just(Granularity::Byte), Just(Granularity::Word)],
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        prop_oneof![Just(NatGen::Kept), Just(NatGen::PerFunction), Just(NatGen::PerUse)],
    )
        .prop_map(|(granularity, set_clr, nat_cmp, relax_analysis, nat_gen)| ShiftOptions {
            granularity,
            set_clr,
            nat_cmp,
            relax_analysis,
            nat_gen,
        })
}

/// Two instructions are "the same original" if equal, or related by the
/// pass's documented rewrites (`st8 → st8.spill`, `cmp → cmp.nat`).
fn matches_original(orig: &CInsn<Gpr>, got: &CInsn<Gpr>) -> bool {
    if orig == got {
        return true;
    }
    match (&orig.op, &got.op) {
        (
            COp::Isa(Op::St { size: MemSize::B8, src: s1, addr: a1 }),
            COp::Isa(Op::StSpill { src: s2, addr: a2 }),
        ) => s1 == s2 && a1 == a2,
        (
            COp::Isa(Op::Cmp { rel: r1, pt: t1, pf: f1, src1: a1, src2: b1, .. }),
            COp::Isa(Op::Cmp { rel: r2, pt: t2, pf: f2, src1: a2, src2: b2, nat_aware: true }),
        ) => r1 == r2 && t1 == t2 && f1 == f2 && a1 == a2 && b1 == b2,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Every original instruction survives, in order.
    #[test]
    fn originals_form_an_ordered_subsequence(
        code in prop::collection::vec(app_insn(), 1..24),
        opts in options(),
    ) {
        let (out, _) = instrument(&code, &opts);
        let mut cursor = out.iter();
        for orig in &code {
            let found = cursor.any(|got| matches_original(orig, got));
            prop_assert!(found, "lost original {orig:?} under {opts:?}");
        }
    }

    /// Instrumentation writes only reserved scratch registers, the taint
    /// predicates, or registers it is explicitly laundering/tainting (which
    /// are registers the adjacent original instruction touches).
    #[test]
    fn instrumentation_confines_its_register_writes(
        code in prop::collection::vec(app_insn(), 1..24),
        opts in options(),
    ) {
        let (out, _) = instrument(&code, &opts);
        let app_regs_touched: Vec<Gpr> = code
            .iter()
            .flat_map(|i| i.uses().chain(i.def()))
            .collect();
        for insn in &out {
            if insn.prov == Provenance::Original {
                continue;
            }
            if let Some(dst) = insn.def() {
                let ok = dst.is_scratch()
                    || dst.index() >= 24 // glue temporaries
                    || app_regs_touched.contains(&dst);
                prop_assert!(
                    ok,
                    "instrumentation wrote unrelated register {dst} in {insn:?} under {opts:?}"
                );
            }
        }
    }

    /// The pass never shrinks code and is linear-ish in its input: the
    /// per-instruction expansion is bounded (the largest template plus the
    /// per-use NaT regeneration is well under 40 instructions).
    #[test]
    fn expansion_is_bounded(
        code in prop::collection::vec(app_insn(), 1..24),
        opts in options(),
    ) {
        let (out, _) = instrument(&code, &opts);
        prop_assert!(out.len() >= code.len());
        prop_assert!(
            out.len() <= code.len() * 40 + 8,
            "implausible expansion: {} → {} under {opts:?}",
            code.len(),
            out.len()
        );
    }

    /// Glue is never instrumented: a fully-glued stream passes through
    /// identically.
    #[test]
    fn glue_passes_through(
        code in prop::collection::vec(app_insn(), 1..16),
        opts in options(),
    ) {
        let glued: Vec<CInsn<Gpr>> = code.into_iter().map(|i| i.glued()).collect();
        let (out, stats) = instrument(&glued, &opts);
        // PerFunction mode prepends its generation sequence; everything
        // else must be byte-identical.
        let body = &out[out.len() - glued.len()..];
        prop_assert_eq!(body, &glued[..]);
        prop_assert_eq!(stats.loads + stats.stores + stats.cmps_relaxed, 0);
    }
}
