//! Differential property tests for superblock dispatch.
//!
//! The superblock tier (DESIGN.md §13) is a pure host optimization: for any
//! program — loops, predication, speculative loads, mid-block faults,
//! injected perturbations — [`Machine::run`] must produce bit-identical
//! results to stepping the same instructions one at a time. These tests
//! generate random programs from the constructs that stress block dispatch
//! (backward branches forming hot blocks, jump chains that traces run
//! through, predicated slots, `chk.s` side exits, faulting stores, fused
//! templates that fault mid-way) and require *everything* observable to
//! match:
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

/// An 8-aligned data-region address past the mapped window. (Region 0,
/// the tag space, is lazily backed: a low address there never faults.)
const UNMAPPED: u64 = layout::DATA_BASE + 0x10_0000;

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
    /// The relax launder of register `reg(r)` (`four`: with its leading
    /// `tnat`; else the 3-instruction form under a predicate a `tnat` set
    /// two instructions earlier) over a random value and NaT, through a
    /// `slot` that may be unmapped or misaligned so the spill faults
    /// mid-template, with an optional near miss.
    Launder { four: bool, r: usize, value: i64, nat: bool, slot: Slot, miss: Miss },
    /// `hops` forward `jmp`s, each over a dead `halt`, with `body` ALU ops
    /// at every stop: a chain of blocks one trace runs through.
    Chain { hops: u8, body: u8 },
    /// A counted loop whose conditional exit leaves a lone `jmp` back to
    /// the head (the `strlen` layout): the head is reached by falling
    /// through from the counter's `movl`, and the loop closes through the
    /// unconditional `jmp`.
    LoopJmp { count: u8, body: u8 },
}

/// Where a generated launder spills.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Slot {
    /// An aligned slot in the mapped data window.
    Mapped(u64),
    /// An unmapped address: the spill faults.
    Unmapped,
    /// A misaligned address: the spill faults.
    Misaligned,
}

/// How a generated template departs from the fusable shape. `at` picks
/// the member (or the scratch register) the departure touches.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Miss {
    /// Fusable as emitted.
    None,
    /// The address register is one of the scratch registers (for the
    /// merge: its two scratch registers coincide; for the launder: the
    /// reload writes another register than the spill reads).
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
            let other =
                if m.prov == Provenance::Relax { Provenance::Check } else { Provenance::Relax };
            *m = m.with_prov(other);
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
                code.push(Insn::new(Op::MovI { dst: ADDR, imm: UNMAPPED as i64 }));
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
                code.push(Insn::new(Op::MovI { dst: ADDR, imm: UNMAPPED as i64 }));
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
            Step::Launder { four, r, value, nat, slot, miss } => {
                assemble_launder(&mut code, four, r, value, nat, slot, miss);
            }
            Step::Chain { hops, body } => {
                for _ in 0..hops % 4 + 1 {
                    for b in 0..body % 3 {
                        let r = reg(usize::from(b) + usize::from(hops));
                        code.push(Insn::new(Op::AluI { op: AluOp::Add, dst: r, src1: r, imm: 7 }));
                    }
                    let target = code.len() + 2;
                    code.push(Insn::new(Op::Jmp { target }));
                    code.push(Insn::new(Op::Halt));
                }
            }
            Step::LoopJmp { count, body } => {
                code.push(Insn::new(Op::MovI { dst: CTR, imm: i64::from(count % 6 + 1) }));
                let top = code.len();
                for b in 0..(body % 4 + 1) {
                    let r = reg(usize::from(b) + 3);
                    code.push(Insn::new(Op::AluI { op: AluOp::Xor, dst: r, src1: r, imm: 5 }));
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
                let exit = code.len() + 2;
                code.push(Insn::new(Op::Jmp { target: exit }).under(Pr::P1));
                code.push(Insn::new(Op::Jmp { target: top }));
            }
        }
    }
    code.push(Insn::new(Op::MovI { dst: Gpr::R8, imm: 0 }));
    code.push(Insn::new(Op::Halt));
    code
}

/// The launder's scratch (`t`) register, disjoint from `reg()`'s range
/// like the other fixed registers, and its predicates.
const SLOT_REG: Gpr = Gpr::R12;
const LP: Pr = Pr::P6;
const LQ: Pr = Pr::P7;

fn assemble_launder(
    code: &mut Vec<Insn>,
    four: bool,
    r: usize,
    value: i64,
    nat: bool,
    slot: Slot,
    miss: Miss,
) {
    let src = reg(r);
    code.push(Insn::new(Op::MovI { dst: src, imm: value }));
    if nat {
        code.push(Insn::new(Op::Tset { dst: src }));
    }
    let slot = match slot {
        Slot::Mapped(off) => data_addr(off),
        Slot::Unmapped => UNMAPPED,
        Slot::Misaligned => layout::DATA_BASE + 4,
    };
    let rx = |op| Insn::tagged(op, Provenance::Relax);
    let tnat = rx(Op::Tnat { pt: LP, pf: LQ, src });
    let mut members = Vec::new();
    if four {
        members.push(tnat);
    } else {
        // The store path's shape: the predicate comes from an earlier
        // `tnat`, with other work in between.
        code.push(tnat);
        code.push(Insn::new(Op::AluI { op: AluOp::Add, dst: SCRATCH, src1: SCRATCH, imm: 1 }));
    }
    let dst = if let Miss::Aliased(_) = miss { reg(r + 1) } else { src };
    members.push(rx(Op::MovI { dst: SLOT_REG, imm: slot as i64 }));
    members.push(rx(Op::StSpill { src, addr: SLOT_REG }).under(LP));
    members.push(
        rx(Op::Ld { size: MemSize::B8, ext: ExtKind::Zero, dst, addr: SLOT_REG, spec: false })
            .under(LP),
    );
    let miss = match miss {
        // The `movl` is unpredicated in the fusable shape of both forms.
        Miss::Predicated(_) => {
            let movl = &mut members[usize::from(four)];
            *movl = movl.under(Pr::P1);
            Miss::None
        }
        other => other,
    };
    emit_template(code, members, miss);
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
        launder_strategy(),
        launder_strategy(),
        (any::<u8>(), any::<u8>()).prop_map(|(hops, body)| Step::Chain { hops, body }),
        (any::<u8>(), any::<u8>()).prop_map(|(count, body)| Step::LoopJmp { count, body }),
    ]
    .boxed()
}

fn launder_strategy() -> BoxedStrategy<Step> {
    let slot = prop_oneof![
        (0u64..0x4000).prop_map(Slot::Mapped),
        (0u64..0x4000).prop_map(Slot::Mapped),
        (0u64..0x4000).prop_map(Slot::Mapped),
        Just(Slot::Unmapped),
        Just(Slot::Misaligned),
    ];
    (any::<bool>(), 0usize..11, any::<i64>(), any::<bool>(), slot, miss_strategy())
        .prop_map(|(four, r, value, nat, slot, miss)| Step::Launder {
            four,
            r,
            value,
            nat,
            slot,
            miss,
        })
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
    assert_tiers_agree_with_fuel(image, injections, None)
}

/// [`assert_tiers_agree`] with the watchdog armed at `fuel` instructions
/// on every arm, when given.
fn assert_tiers_agree_with_fuel(
    image: &Image,
    injections: &[(u64, Injection)],
    fuel: Option<u64>,
) -> Result<(), TestCaseError> {
    let seed = MachineSeed::new(image);
    let spawn = || {
        let mut m = seed.spawn_injected(injections);
        if let Some(fuel) = fuel {
            m.arm_watchdog(fuel);
        }
        m
    };
    let mut sb = spawn();
    let mut pi = spawn();

    let exit_sb = sb.run(&mut NullOs, BUDGET);
    let exit_pi = pi.run_per_insn(&mut NullOs, BUDGET);

    prop_assert_eq!(&exit_sb, &exit_pi, "dispatch tiers diverged in exit");
    prop_assert_eq!(sb.cpu.ip, pi.cpu.ip, "dispatch tiers diverged in final ip");
    prop_assert_eq!(sb.state_digest(), pi.state_digest(), "dispatch tiers diverged in guest state");
    prop_assert_eq!(&sb.stats, &pi.stats, "dispatch tiers diverged in modelled accounting");

    let mut diag = spawn();
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

    let mut flight = spawn();
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

    /// ... and with the watchdog armed: fuel that runs out inside a trace
    /// must make the trace guard refuse entry, so the run stops with
    /// `FuelExhausted` at exactly the same retired-instruction count.
    #[test]
    fn superblocks_match_per_insn_under_watchdog(
        steps in prop::collection::vec(step_strategy(), 1..40),
        fuel in 0u64..300,
    ) {
        assert_tiers_agree_with_fuel(&build_image(&steps), &[], Some(fuel))?;
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
        (sb.fused_tag_addrs, sb.fused_merges, sb.fused_launders)
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
        assert_eq!(fused(t(Miss::None)), (1, 0, 0), "bit={bit}");
        for miss in misses {
            assert_eq!(fused(t(miss)), (0, 0, 0), "bit={bit} {miss:?}");
        }
    }
    let m = |miss| Step::Merge { k: 4, d: 5, imm: -1, vals: [0x0f, 0x30], nat: true, miss };
    assert_eq!(fused(m(Miss::None)), (0, 1, 0));
    for miss in misses {
        assert_eq!(fused(m(miss)), (0, 0, 0), "{miss:?}");
    }
    for four in [false, true] {
        let l =
            |miss| Step::Launder { four, r: 3, value: 5, nat: true, slot: Slot::Mapped(64), miss };
        assert_eq!(fused(l(Miss::None)), (0, 0, 1), "four={four}");
        for at in 0..4 {
            for miss in
                [Miss::Aliased(at), Miss::Predicated(at), Miss::MixedProv(at), Miss::BranchInto(at)]
            {
                // A near miss that touches only the `tnat` of the
                // 4-instruction form (re-tagging it, or branching to the
                // `movl` after it) leaves a fusable 3-instruction tail.
                let tail = four && matches!(miss, Miss::MixedProv(0 | 4) | Miss::BranchInto(0 | 3));
                let expected = (0, 0, u64::from(tail));
                assert_eq!(fused(l(miss)), expected, "four={four} {miss:?}");
            }
        }
    }
}

/// A spill that faults inside a fused launder leaves `ip` on the spill
/// and retires exactly the members before it and the spill itself — the
/// reload never issues — on the trace tier as on the stepper. (The reload
/// cannot fault once its spill succeeded: it reads back the same aligned
/// 8 bytes, and permissions are page-granular.)
#[test]
fn launder_spill_faults_retire_exactly_the_members_up_to_the_spill() {
    for four in [false, true] {
        for slot in [Slot::Unmapped, Slot::Misaligned] {
            let step = Step::Launder { four, r: 3, value: 5, nat: true, slot, miss: Miss::None };
            let image = build_image(&[step]);
            let spill = image.code.iter().position(|i| matches!(i.op, Op::StSpill { .. }));
            let spill = spill.expect("the launder spills");
            let seed = MachineSeed::new(&image);
            assert_eq!(seed.spawn().superblock_stats().fused_launders, 1);
            let (mut sb, mut pi) = (seed.spawn(), seed.spawn());
            let exit = sb.run(&mut NullOs, BUDGET);
            assert_eq!(exit, pi.run_per_insn(&mut NullOs, BUDGET), "four={four} {slot:?}");
            assert!(matches!(exit, Exit::Fault(_)), "four={four} {slot:?}: {exit:?}");
            assert_eq!(sb.cpu.ip, spill, "four={four} {slot:?}: ip rests on the spill");
            assert_eq!(sb.stats.instructions, spill as u64 + 1, "four={four} {slot:?}");
            assert_eq!(&sb.stats, &pi.stats, "four={four} {slot:?}");
            assert!(sb.superblock_stats().hits > 0, "four={four} {slot:?}: ran as a trace");
        }
    }
}
