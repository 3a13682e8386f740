//! Property test: the whole compilation pipeline (lowering, register
//! allocation, instrumentation, linking, simulation) computes exactly what
//! the IR reference interpreter computes, for randomly generated programs
//! and for the allocator's edge cases (live sets wider than two words, a
//! function with no virtual registers), in every compilation mode.

use proptest::prelude::*;

use shift_compiler::lower::lower_fn;
use shift_core::{Granularity, Mode, Shift, ShiftOptions, TaintConfig, World};
use shift_ir::{interp, Program, ProgramBuilder, Rhs};
use shift_isa::{AluOp, CmpRel};

/// One step of a generated program.
#[derive(Clone, Debug)]
enum Step {
    Const(i32),
    Bin(AluOp, u8, u8),
    BinI(AluOp, u8, i8),
    StoreSlot(u8, u8),
    LoadSlot(u8),
    CmpSelect(u8, u8),
    LoopAccum(u8, u8),
}

fn alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Mul),
    ]
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<i32>().prop_map(Step::Const),
        (alu_op(), any::<u8>(), any::<u8>()).prop_map(|(o, a, b)| Step::Bin(o, a, b)),
        (alu_op(), any::<u8>(), any::<i8>()).prop_map(|(o, a, i)| Step::BinI(o, a, i)),
        (any::<u8>(), any::<u8>()).prop_map(|(v, s)| Step::StoreSlot(v, s)),
        any::<u8>().prop_map(Step::LoadSlot),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::CmpSelect(a, b)),
        (1u8..12, any::<u8>()).prop_map(|(n, a)| Step::LoopAccum(n, a)),
    ]
}

const SLOTS: i64 = 16;

/// Builds a program from the steps: each step produces one value; operand
/// indices select among previously produced values (modulo); the result is
/// the masked sum of all values.
fn build(steps: &[Step]) -> Program {
    let mut pb = ProgramBuilder::new();
    let steps = steps.to_vec();
    pb.func("main", 0, move |f| {
        let arena = f.local((SLOTS * 8) as u64);
        let base = f.local_addr(arena);
        // Slots start zeroed (stack pages are zero-filled).
        let mut vals = vec![f.iconst(1)];
        let pick = |k: u8, len: usize| (k as usize) % len;
        for s in &steps {
            let v = match *s {
                Step::Const(c) => f.iconst(i64::from(c)),
                Step::Bin(op, a, b) => {
                    let (x, y) = (vals[pick(a, vals.len())], vals[pick(b, vals.len())]);
                    f.bin(op, x, y)
                }
                Step::BinI(op, a, imm) => {
                    let x = vals[pick(a, vals.len())];
                    f.bini(op, x, i64::from(imm))
                }
                Step::StoreSlot(vi, slot) => {
                    let v = vals[pick(vi, vals.len())];
                    let off = (i64::from(slot) % SLOTS) * 8;
                    f.store8(v, base, off);
                    v
                }
                Step::LoadSlot(slot) => {
                    let off = (i64::from(slot) % SLOTS) * 8;
                    f.load8(base, off)
                }
                Step::CmpSelect(a, b) => {
                    let (x, y) = (vals[pick(a, vals.len())], vals[pick(b, vals.len())]);
                    let out = f.iconst(0);
                    f.if_else_cmp(
                        CmpRel::Lt,
                        x,
                        Rhs::Reg(y),
                        |f| f.assign(out, x),
                        |f| f.assign(out, y),
                    );
                    out
                }
                Step::LoopAccum(n, a) => {
                    let x = vals[pick(a, vals.len())];
                    let acc = f.iconst(0);
                    f.for_up(Rhs::Imm(0), Rhs::Imm(i64::from(n)), |f, i| {
                        let t = f.xor(x, i);
                        let s = f.add(acc, t);
                        f.assign(acc, s);
                    });
                    acc
                }
            };
            vals.push(v);
        }
        let total = f.iconst(0);
        for &v in &vals {
            let s = f.add(total, v);
            f.assign(total, s);
        }
        let masked = f.andi(total, 0x7fff_ffff);
        f.ret(Some(masked));
    });
    pb.build().expect("generated IR is structurally valid")
}

/// Compiles `program` in every mode — the seven `shift --mode` modes plus
/// `set.clr` without NaT-aware compares — and runs it; `Err` names the
/// first mode whose exit differs from the IR reference interpreter's.
fn check_every_mode(program: &Program) -> Result<(), String> {
    let expect = interp::run_func(program, "main", &[])
        .expect("interpreter accepts generated programs")
        .expect("main returns a value");
    for mode in [
        Mode::Uninstrumented,
        Mode::Shift(ShiftOptions::baseline(Granularity::Byte)),
        Mode::Shift(ShiftOptions::baseline(Granularity::Word)),
        Mode::Shift(ShiftOptions::enhanced(Granularity::Byte)),
        Mode::Shift(ShiftOptions::enhanced(Granularity::Word)),
        Mode::Shift(ShiftOptions {
            set_clr: true,
            relax_analysis: false,
            ..ShiftOptions::baseline(Granularity::Word)
        }),
        Mode::Shadow(Granularity::Byte),
        Mode::Shadow(Granularity::Word),
    ] {
        let report = Shift::new(mode)
            .with_config(TaintConfig::off())
            .run(program, World::new())
            .expect("generated programs compile");
        if report.exit != shift_core::Exit::Halted(expect) {
            return Err(format!(
                "mode {mode:?} diverged from the reference interpreter: {:?} vs halted:{expect}",
                report.exit
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn machine_matches_interpreter_in_every_mode(steps in prop::collection::vec(step(), 1..24)) {
        let checked = check_every_mode(&build(&steps));
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

/// More than 128 values stay live across a loop back-edge, so the
/// allocator's live sets span three 64-bit words and the values at the
/// 63/64 and 127/128 word boundaries are all live at once.
#[test]
fn values_live_across_a_back_edge_span_three_words() {
    const LIVE: i64 = 140;
    let mut pb = ProgramBuilder::new();
    pb.func("main", 0, |f| {
        let vals: Vec<_> = (0..LIVE).map(|k| f.iconst(k * 7 + 1)).collect();
        let acc = f.iconst(0);
        f.for_up(Rhs::Imm(0), Rhs::Imm(3), |f, i| {
            for &v in &vals {
                let t = f.xor(v, i);
                let s = f.add(acc, t);
                f.assign(acc, s);
            }
        });
        let masked = f.andi(acc, 0x7fff_ffff);
        f.ret(Some(masked));
    });
    let program = pb.build().expect("valid IR");
    let main = program.func("main").expect("main is defined");
    let lowered = lower_fn(main, &Default::default()).expect("main lowers");
    assert!(lowered.nvregs > 128, "premise: live sets need a third word");
    check_every_mode(&program).unwrap();
}

/// A function with no virtual registers at all: its live sets have zero
/// words.
#[test]
fn function_without_vregs_compiles_and_runs() {
    let mut pb = ProgramBuilder::new();
    pb.func("nothing", 0, |f| f.ret(None));
    pb.func("main", 0, |f| {
        f.call_void("nothing", &[]);
        let v = f.iconst(42);
        f.ret(Some(v));
    });
    let program = pb.build().expect("valid IR");
    let nothing = program.func("nothing").expect("nothing is defined");
    let lowered = lower_fn(nothing, &Default::default()).expect("nothing lowers");
    assert_eq!(lowered.nvregs, 0, "premise: the callee has no vregs");
    check_every_mode(&program).unwrap();
}
