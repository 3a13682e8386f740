//! Differential property tests for superblock dispatch.
//!
//! The superblock tier (DESIGN.md §13) is a pure host optimization: for any
//! program — loops, predication, speculative loads, mid-block faults,
//! injected perturbations — [`Machine::run`] must produce bit-identical
//! results to stepping the same instructions one at a time. These tests
//! generate random programs from the constructs that stress block dispatch
//! (backward branches forming hot blocks, predicated slots, `chk.s` side
//! exits, faulting stores) and require *everything* observable to match:
//! the exit, the final `state_digest`, and the whole [`Stats`] struct
//! (total and per-provenance cycle/instruction counts included).

use proptest::prelude::*;
use shift_isa::{AluOp, CmpRel, ExtKind, Gpr, Insn, MemSize, Op, Pr, Provenance};
use shift_machine::{layout, Exit, Fault, FuncSpan, Image, Injection, MachineSeed, NullOs};

/// Retired-instruction budget for every differential run: generated
/// programs may loop forever, and `Exit::InsnLimit` must also match.
const BUDGET: u64 = 50_000;

/// Scratch registers `r1..=r11`.
fn reg(i: usize) -> Gpr {
    Gpr::from_index(1 + i % 11)
}

/// Loop counter, address scratch, and skip-target scratch registers,
/// disjoint from `reg()`'s range.
const CTR: Gpr = Gpr::R13;
const ADDR: Gpr = Gpr::R14;
const SCRATCH: Gpr = Gpr::R15;

/// An 8-aligned address inside the mapped data window.
fn data_addr(off: u64) -> u64 {
    layout::DATA_BASE + (off % 0x4000) / 8 * 8
}

/// One generated program construct. Each expands to a short instruction
/// sequence; together they cover every superblock execution path: pure
/// straight-line ALU work, impure blocks (loads/stores/predication), block
/// side exits (`chk.s`, faults, syscalls), and back-edges that make the
/// same block hot.
#[derive(Clone, Debug)]
enum Step {
    /// `movl dst = imm`.
    MovI { dst: usize, imm: i64 },
    /// A three-operand ALU op.
    Alu { which: u8, dst: usize, src1: usize, src2: usize },
    /// `cmp.eq p1,p2 = src,0` then two predicated immediates — exercises
    /// predicated-off slots inside a block.
    PredAlu { dst: usize, src: usize },
    /// `ld8.s` from an unmapped address: manufactures a NaT (deferred
    /// fault) instead of trapping.
    SpecLoadBad { dst: usize },
    /// `chk.s src, +2`: a data-dependent side exit out of the middle of a
    /// block when `src` carries a NaT.
    ChkSkip { src: usize },
    /// `st8 [data + off] = src` — may NaT-fault if `src` was NaT'd.
    Store { src: usize, off: u64 },
    /// `ld8 dst = [data + off]`.
    Load { dst: usize, off: u64 },
    /// A non-speculative store to an unmapped address: a mid-block
    /// architectural fault.
    StoreBad { src: usize },
    /// A counted backward loop: the canonical hot superblock.
    Loop { count: u8, body: u8 },
    /// `syscall` — [`NullOs`] stops the run with a `BadSyscall` fault,
    /// exercising the block's syscall side exit.
    Sys,
    /// The Figure-4 tag-address template (`bit`: with the bit-index
    /// tail) over a random address value and NaT, with random constants,
    /// registers `reg(k + i·d)` (distinct, since 11 is prime), and an
    /// optional near miss that must keep it from fusing.
    TagAddr { bit: bool, k: usize, d: usize, consts: [i64; 7], value: i64, nat: bool, miss: Miss },
    /// The store tag merge over a random source NaT and random scratch
    /// values, with an optional near miss.
    Merge { k: usize, d: usize, imm: i64, vals: [i64; 2], nat: bool, miss: Miss },
}

/// How a generated template departs from the fusable shape. `at` picks
/// the member (or the scratch register) the departure touches.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Miss {
    /// Fusable as emitted.
    None,
    /// The address register is one of the scratch registers (for the
    /// merge: its two scratch registers coincide).
    Aliased(u8),
    /// One member is predicated (for the merge: the `tnat`).
    Predicated(u8),
    /// One member carries a different provenance.
    MixedProv(u8),
    /// A branch targets a member other than the first.
    BranchInto(u8),
}

/// Applies `miss` to a template about to be appended at `code.len()`:
/// re-tags or predicates one member, or emits a conditional jump into it.
fn emit_template(code: &mut Vec<Insn>, mut members: Vec<Insn>, miss: Miss) {
    let len = members.len();
    match miss {
        Miss::Predicated(_) if len == 4 => members[0] = members[0].under(Pr::P1),
        Miss::Predicated(at) => {
            let m = &mut members[usize::from(at) % len];
            *m = m.under(Pr::P1);
        }
        Miss::MixedProv(at) => {
            let m = &mut members[usize::from(at) % len];
            *m = m.with_prov(Provenance::Relax);
        }
        Miss::BranchInto(at) => {
            let target = code.len() + 2 + usize::from(at) % (len - 1);
            code.push(Insn::new(Op::Jmp { target }).under(Pr::P1));
        }
        Miss::None | Miss::Aliased(_) => {}
    }
    code.extend(members);
}

fn assemble(steps: &[Step]) -> Vec<Insn> {
    let mut code = Vec::new();
    for step in steps {
        match *step {
            Step::MovI { dst, imm } => code.push(Insn::new(Op::MovI { dst: reg(dst), imm })),
            Step::Alu { which, dst, src1, src2 } => {
                let op = [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::Mul][which as usize % 4];
                code.push(Insn::new(Op::Alu {
                    op,
                    dst: reg(dst),
                    src1: reg(src1),
                    src2: reg(src2),
                }));
            }
            Step::PredAlu { dst, src } => {
                code.push(Insn::new(Op::CmpI {
                    rel: CmpRel::Eq,
                    pt: Pr::P1,
                    pf: Pr::P2,
                    src1: reg(src),
                    imm: 0,
                    nat_aware: false,
                }));
                code.push(
                    Insn::new(Op::AluI { op: AluOp::Add, dst: reg(dst), src1: reg(dst), imm: 3 })
                        .under(Pr::P1),
                );
                code.push(
                    Insn::new(Op::AluI { op: AluOp::Sub, dst: reg(dst), src1: reg(dst), imm: 5 })
                        .under(Pr::P2),
                );
            }
            Step::SpecLoadBad { dst } => {
                code.push(Insn::new(Op::MovI { dst: ADDR, imm: 16 }));
                code.push(Insn::new(Op::Ld {
                    size: MemSize::B8,
                    ext: ExtKind::Zero,
                    dst: reg(dst),
                    addr: ADDR,
                    spec: true,
                }));
            }
            Step::ChkSkip { src } => {
                // Forward skip over one instruction; the trailing
                // `movi r8/halt` epilogue guarantees the target exists.
                let target = code.len() + 2;
                code.push(Insn::new(Op::ChkS { src: reg(src), target }));
                code.push(Insn::new(Op::MovI { dst: SCRATCH, imm: 1 }));
            }
            Step::Store { src, off } => {
                code.push(Insn::new(Op::MovI { dst: ADDR, imm: data_addr(off) as i64 }));
                code.push(Insn::new(Op::St { size: MemSize::B8, src: reg(src), addr: ADDR }));
            }
            Step::Load { dst, off } => {
                code.push(Insn::new(Op::MovI { dst: ADDR, imm: data_addr(off) as i64 }));
                code.push(Insn::new(Op::Ld {
                    size: MemSize::B8,
                    ext: ExtKind::Zero,
                    dst: reg(dst),
                    addr: ADDR,
                    spec: false,
                }));
            }
            Step::StoreBad { src } => {
                code.push(Insn::new(Op::MovI { dst: ADDR, imm: 16 }));
                code.push(Insn::new(Op::St { size: MemSize::B8, src: reg(src), addr: ADDR }));
            }
            Step::Loop { count, body } => {
                code.push(Insn::new(Op::MovI { dst: CTR, imm: i64::from(count % 6 + 1) }));
                let top = code.len();
                for b in 0..(body % 4 + 1) {
                    let r = reg(usize::from(b));
                    code.push(Insn::new(Op::AluI {
                        op: AluOp::Add,
                        dst: r,
                        src1: r,
                        imm: i64::from(b) + 1,
                    }));
                }
                code.push(Insn::new(Op::AluI { op: AluOp::Add, dst: CTR, src1: CTR, imm: -1 }));
                code.push(Insn::new(Op::CmpI {
                    rel: CmpRel::Eq,
                    pt: Pr::P1,
                    pf: Pr::P2,
                    src1: CTR,
                    imm: 0,
                    nat_aware: false,
                }));
                code.push(Insn::new(Op::Jmp { target: top }).under(Pr::P2));
            }
            Step::Sys => code.push(Insn::new(Op::Syscall { num: 99 })),
            Step::TagAddr { bit, k, d, consts: c, value, nat, miss } => {
                let [addr, s0, s1, s2] = [0, 1, 2, 3].map(|i| reg(k + i * d));
                let addr = match miss {
                    Miss::Aliased(at) => [s0, s1, s2][usize::from(at) % 3],
                    _ => addr,
                };
                code.push(Insn::new(Op::MovI { dst: addr, imm: value }));
                if nat {
                    code.push(Insn::new(Op::Tset { dst: addr }));
                }
                let (shr, and) = (AluOp::Shr, AluOp::And);
                let mut t = vec![
                    Op::AluI { op: shr, dst: s0, src1: addr, imm: c[0] },
                    Op::AluI { op: AluOp::Add, dst: s0, src1: s0, imm: c[1] },
                    Op::AluI { op: AluOp::Shl, dst: s0, src1: s0, imm: c[2] },
                    Op::MovI { dst: s1, imm: c[3] },
                    Op::Alu { op: and, dst: s1, src1: addr, src2: s1 },
                    Op::AluI { op: shr, dst: s2, src1: s1, imm: c[4] },
                    Op::Alu { op: AluOp::Or, dst: s0, src1: s0, src2: s2 },
                ];
                if bit {
                    t.push(Op::AluI { op: and, dst: s1, src1: s1, imm: c[5] });
                    t.push(Op::MovI { dst: s2, imm: c[6] });
                    t.push(Op::Alu { op: AluOp::Shl, dst: s2, src1: s2, src2: s1 });
                }
                let members =
                    t.into_iter().map(|op| Insn::tagged(op, Provenance::LdTagCompute)).collect();
                emit_template(&mut code, members, miss);
            }
            Step::Merge { k, d, imm, vals, nat, miss } => {
                let [src, t1, t2] = [0, 1, 2].map(|i| reg(k + i * d));
                let t2 = if let Miss::Aliased(_) = miss { t1 } else { t2 };
                code.push(Insn::new(Op::MovI { dst: t1, imm: vals[0] }));
                code.push(Insn::new(Op::MovI { dst: t2, imm: vals[1] }));
                if nat {
                    code.push(Insn::new(Op::Tset { dst: src }));
                }
                let sc = Provenance::StTagCompute;
                let members = vec![
                    Insn::tagged(Op::Tnat { pt: Pr::P6, pf: Pr::P7, src }, sc),
                    Insn::tagged(Op::Alu { op: AluOp::Or, dst: t1, src1: t1, src2: t2 }, sc)
                        .under(Pr::P6),
                    Insn::tagged(Op::AluI { op: AluOp::Xor, dst: t2, src1: t2, imm }, sc)
                        .under(Pr::P7),
                    Insn::tagged(Op::Alu { op: AluOp::And, dst: t1, src1: t1, src2: t2 }, sc)
                        .under(Pr::P7),
                ];
                let miss = match miss {
                    Miss::MixedProv(at) => Miss::MixedProv(at % 3 + 1),
                    other => other,
                };
                emit_template(&mut code, members, miss);
            }
        }
    }
    code.push(Insn::new(Op::MovI { dst: Gpr::R8, imm: 0 }));
    code.push(Insn::new(Op::Halt));
    code
}

fn build_image(steps: &[Step]) -> Image {
    Image::builder()
        .code(assemble(steps))
        .map(layout::DATA_BASE, 0x4000)
        .data(layout::DATA_BASE + 0x100, vec![0xab; 64])
        .build()
}

fn step_strategy() -> BoxedStrategy<Step> {
    let r = || 0usize..11;
    // The vendored `prop_oneof!` has no weighted arms; common constructs
    // are simply listed more than once to bias the mix toward dense
    // ALU/loop/memory work with rarer run-ending faults and syscalls.
    prop_oneof![
        (r(), any::<i64>()).prop_map(|(dst, imm)| Step::MovI { dst, imm }),
        (any::<u8>(), r(), r(), r()).prop_map(|(which, dst, src1, src2)| Step::Alu {
            which,
            dst,
            src1,
            src2
        }),
        (any::<u8>(), r(), r(), r()).prop_map(|(which, dst, src1, src2)| Step::Alu {
            which,
            dst,
            src1,
            src2
        }),
        (r(), r()).prop_map(|(dst, src)| Step::PredAlu { dst, src }),
        r().prop_map(|dst| Step::SpecLoadBad { dst }),
        r().prop_map(|src| Step::ChkSkip { src }),
        (r(), 0u64..0x4000).prop_map(|(src, off)| Step::Store { src, off }),
        (r(), 0u64..0x4000).prop_map(|(dst, off)| Step::Load { dst, off }),
        r().prop_map(|src| Step::StoreBad { src }),
        (any::<u8>(), any::<u8>()).prop_map(|(count, body)| Step::Loop { count, body }),
        (any::<u8>(), any::<u8>()).prop_map(|(count, body)| Step::Loop { count, body }),
        Just(Step::Sys),
        tag_addr_strategy(),
        tag_addr_strategy(),
        merge_strategy(),
    ]
    .boxed()
}

fn miss_strategy() -> BoxedStrategy<Miss> {
    prop_oneof![
        Just(Miss::None),
        Just(Miss::None),
        Just(Miss::None),
        any::<u8>().prop_map(Miss::Aliased),
        any::<u8>().prop_map(Miss::Predicated),
        any::<u8>().prop_map(Miss::MixedProv),
        any::<u8>().prop_map(Miss::BranchInto),
    ]
    .boxed()
}

fn tag_addr_strategy() -> BoxedStrategy<Step> {
    (
        (any::<bool>(), 0usize..11, 1usize..11),
        prop::collection::vec(any::<i64>(), 7),
        (any::<i64>(), any::<bool>(), miss_strategy()),
    )
        .prop_map(|((bit, k, d), consts, (value, nat, miss))| Step::TagAddr {
            bit,
            k,
            d,
            consts: consts.try_into().expect("seven constants"),
            value,
            nat,
            miss,
        })
        .boxed()
}

fn merge_strategy() -> BoxedStrategy<Step> {
    (
        0usize..11,
        1usize..11,
        any::<i64>(),
        any::<i64>(),
        any::<i64>(),
        any::<bool>(),
        miss_strategy(),
    )
        .prop_map(|(k, d, imm, v1, v2, nat, miss)| Step::Merge {
            k,
            d,
            imm,
            vals: [v1, v2],
            nat,
            miss,
        })
        .boxed()
}

/// Runs `image` through both dispatch tiers and asserts bit-identity of
/// everything observable. Two more `run` arms pin the tier gate: with every
/// per-instruction diagnostic armed, execution must never enter a
/// superblock; with only the flight recorder armed, it must dispatch
/// exactly as the unarmed run does.
fn assert_tiers_agree(image: &Image, injections: &[(u64, Injection)]) -> Result<(), TestCaseError> {
    let seed = MachineSeed::new(image);
    let mut sb = seed.spawn_injected(injections);
    let mut pi = seed.spawn_injected(injections);

    let exit_sb = sb.run(&mut NullOs, BUDGET);
    let exit_pi = pi.run_per_insn(&mut NullOs, BUDGET);

    prop_assert_eq!(&exit_sb, &exit_pi, "dispatch tiers diverged in exit");
    prop_assert_eq!(sb.cpu.ip, pi.cpu.ip, "dispatch tiers diverged in final ip");
    prop_assert_eq!(sb.state_digest(), pi.state_digest(), "dispatch tiers diverged in guest state");
    prop_assert_eq!(&sb.stats, &pi.stats, "dispatch tiers diverged in modelled accounting");

    let mut diag = seed.spawn_injected(injections);
    diag.enable_trace(16);
    diag.enable_taint_observer();
    diag.enable_profiler(vec![FuncSpan { name: "main".into(), start: 0, end: image.code.len() }]);
    let exit_diag = diag.run(&mut NullOs, BUDGET);
    prop_assert_eq!(&exit_sb, &exit_diag, "armed diagnostics changed the exit");
    prop_assert_eq!(sb.cpu.ip, diag.cpu.ip, "armed diagnostics changed the final ip");
    prop_assert_eq!(
        sb.state_digest(),
        diag.state_digest(),
        "armed diagnostics changed guest state"
    );
    prop_assert_eq!(&sb.stats, &diag.stats, "armed diagnostics changed modelled accounting");
    prop_assert_eq!(diag.superblock_stats().hits, 0, "armed diagnostics entered a superblock");

    let mut flight = seed.spawn_injected(injections);
    flight.enable_flight_recorder(64, 0);
    let exit_flight = flight.run(&mut NullOs, BUDGET);
    prop_assert_eq!(&exit_sb, &exit_flight, "the flight recorder changed the exit");
    prop_assert_eq!(sb.cpu.ip, flight.cpu.ip, "the flight recorder changed the final ip");
    prop_assert_eq!(
        sb.state_digest(),
        flight.state_digest(),
        "the flight recorder changed guest state"
    );
    prop_assert_eq!(&sb.stats, &flight.stats, "the flight recorder changed modelled accounting");
    let (armed, unarmed) = (flight.superblock_stats(), sb.superblock_stats());
    prop_assert_eq!(
        (armed.hits, armed.misses),
        (unarmed.hits, unarmed.misses),
        "the flight recorder changed dispatch"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Superblock dispatch ≡ per-instruction stepping on random programs:
    /// same exit, same final state, same modelled cycles — including
    /// per-provenance attribution.
    #[test]
    fn superblocks_match_per_insn(
        steps in prop::collection::vec(step_strategy(), 1..40),
    ) {
        assert_tiers_agree(&build_image(&steps), &[])?;
    }

    /// ... and with a random injection schedule armed: events that land in
    /// the middle of a block must make the block guard refuse entry, so the
    /// perturbation fires at exactly the same retired-instruction count on
    /// both tiers.
    #[test]
    fn superblocks_match_per_insn_under_injection(
        steps in prop::collection::vec(step_strategy(), 1..40),
        countdown in 0u64..200,
        flip in any::<bool>(),
    ) {
        let inj = if flip {
            Injection::FlipNat { reg: Gpr::R3 }
        } else {
            Injection::Fault(Fault::Unmapped { addr: 0xdead_0000, ip: 0 })
        };
        assert_tiers_agree(&build_image(&steps), &[(countdown, inj)])?;
    }

    /// Invalidating and rebuilding the superblock tables mid-run changes
    /// nothing observable: the rebuilt decode is bit-identical.
    #[test]
    fn flush_mid_run_is_invisible(
        steps in prop::collection::vec(step_strategy(), 1..40),
        cut in 1u64..500,
    ) {
        let image = build_image(&steps);
        let seed = MachineSeed::new(&image);

        let mut flushed = seed.spawn();
        let first = flushed.run(&mut NullOs, cut);
        flushed.flush_superblocks();
        if first == Exit::InsnLimit {
            let _ = flushed.run(&mut NullOs, BUDGET - cut);
        }

        let mut straight = seed.spawn();
        let _ = straight.run(&mut NullOs, BUDGET);

        prop_assert_eq!(flushed.state_digest(), straight.state_digest(),
            "flush_superblocks changed observable state");
        prop_assert_eq!(&flushed.stats, &straight.stats,
            "flush_superblocks changed modelled accounting");
        prop_assert_eq!(flushed.superblock_stats().flushes, 1);
    }
}

/// Regression: an injection scheduled to fire in the middle of what block
/// dispatch sees as one long superblock must still fire at *exactly* its
/// retired-instruction count — the entry guard has to bounce the block to
/// the per-instruction tier rather than run past the event.
#[test]
fn mid_block_injection_fires_at_exact_instruction_count() {
    // One 21-instruction straight-line block (20 ALU ops + halt).
    let mut code = Vec::new();
    for i in 0..20 {
        code.push(Insn::new(Op::AluI { op: AluOp::Add, dst: Gpr::R1, src1: Gpr::R1, imm: i + 1 }));
    }
    code.push(Insn::new(Op::Halt));
    let image = Image::builder().code(code).build();
    let seed = MachineSeed::new(&image);

    for countdown in [0u64, 1, 9, 10, 19, 20] {
        let fault = Fault::Unmapped { addr: 0xbad0, ip: 0 };
        let mut m = seed.spawn_injected(&[(countdown, Injection::Fault(fault))]);
        let exit = m.run(&mut NullOs, BUDGET);
        if countdown <= 20 {
            assert_eq!(exit, Exit::Fault(fault), "countdown {countdown}");
            assert_eq!(
                m.stats.instructions, countdown,
                "injection at countdown {countdown} fired at the wrong retired count"
            );
            // The faulting "instruction" never retires; `ip` rests on it.
            assert_eq!(m.cpu.ip, countdown as usize, "countdown {countdown}");
        }
    }
}

/// The generated templates really reach the fused kernels, and every near
/// miss really decodes unfused — otherwise the differential proptests
/// above would compare two unfused runs.
#[test]
fn generated_templates_fuse_and_near_misses_do_not() {
    let fused = |step: Step| {
        let sb = MachineSeed::new(&build_image(&[step])).spawn().superblock_stats();
        (sb.fused_tag_addrs, sb.fused_merges)
    };
    let misses = [Miss::Aliased(1), Miss::Predicated(4), Miss::MixedProv(2), Miss::BranchInto(3)];
    for bit in [false, true] {
        let t = |miss| Step::TagAddr {
            bit,
            k: 2,
            d: 3,
            consts: [61, -1, 58, 0x0fff_ffff_ffff, 3, 7, 3],
            value: 0x2000_0000_0000_1234,
            nat: false,
            miss,
        };
        assert_eq!(fused(t(Miss::None)), (1, 0), "bit={bit}");
        for miss in misses {
            assert_eq!(fused(t(miss)), (0, 0), "bit={bit} {miss:?}");
        }
    }
    let m = |miss| Step::Merge { k: 4, d: 5, imm: -1, vals: [0x0f, 0x30], nat: true, miss };
    assert_eq!(fused(m(Miss::None)), (0, 1));
    for miss in misses {
        assert_eq!(fused(m(miss)), (0, 0), "{miss:?}");
    }
}
