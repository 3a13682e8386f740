//! Criterion microbenchmarks of the interpreter hot paths this crate's
//! evaluation sweeps lean on: superblock vs. per-instruction dispatch, the
//! software-TLB'd `Memory` accessors, the page-span bulk copies, the
//! word-level `HostShadow` operations, and a whole apache-sim request as
//! the end-to-end composite. These are the numbers to watch when touching
//! `shift-machine::exec`, `shift-machine::mem` or `shift-tagmap::HostShadow`
//! — the figure sweeps only show regressions after minutes of simulation,
//! these show them in microseconds.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use shift_core::{Granularity, Mode, ShiftOptions};
use shift_ir::ProgramBuilder;
use shift_isa::{make_vaddr, AluOp, CmpRel, ExtKind, Gpr, Insn, MemSize, Op, Pr};
use shift_machine::{layout, Image, MachineSeed, Memory, NullOs, PAGE_SIZE};
use shift_tagmap::HostShadow;
use shift_workloads::apache::run_apache;

/// Loop iterations for the dispatch A/B — enough retired instructions
/// (~20k) that per-iteration dispatch overhead dominates setup.
const DISPATCH_ITERS: i64 = 2_000;

/// A counted hot loop of ALU + load/store + compare/branch work: the
/// instruction mix superblock dispatch is built for, with no syscalls so
/// both tiers run start-to-halt uninterrupted.
fn dispatch_program() -> Vec<Insn> {
    vec![
        /* 0 */ Insn::new(Op::MovI { dst: Gpr::R1, imm: DISPATCH_ITERS }),
        /* 1 */ Insn::new(Op::MovI { dst: Gpr::R2, imm: layout::DATA_BASE as i64 }),
        // Loop body (instructions 2..=10, one superblock).
        /* 2 */
        Insn::new(Op::Ld {
            size: MemSize::B8,
            ext: ExtKind::Zero,
            dst: Gpr::R3,
            addr: Gpr::R2,
            spec: false,
        }),
        /* 3 */ Insn::new(Op::AluI { op: AluOp::Add, dst: Gpr::R3, src1: Gpr::R3, imm: 1 }),
        /* 4 */
        Insn::new(Op::Alu { op: AluOp::Xor, dst: Gpr::R4, src1: Gpr::R3, src2: Gpr::R1 }),
        /* 5 */ Insn::new(Op::AluI { op: AluOp::Shl, dst: Gpr::R5, src1: Gpr::R4, imm: 3 }),
        /* 6 */
        Insn::new(Op::Alu { op: AluOp::Add, dst: Gpr::R6, src1: Gpr::R5, src2: Gpr::R4 }),
        /* 7 */ Insn::new(Op::St { size: MemSize::B8, src: Gpr::R3, addr: Gpr::R2 }),
        /* 8 */ Insn::new(Op::AluI { op: AluOp::Sub, dst: Gpr::R1, src1: Gpr::R1, imm: 1 }),
        /* 9 */
        Insn::new(Op::CmpI {
            rel: CmpRel::Eq,
            pt: Pr::P1,
            pf: Pr::P2,
            src1: Gpr::R1,
            imm: 0,
            nat_aware: false,
        }),
        /* 10 */ Insn::new(Op::Jmp { target: 2 }).under(Pr::P2),
        /* 11 */ Insn::new(Op::Halt),
    ]
}

fn bench_dispatch(c: &mut Criterion) {
    let image = Image::builder().code(dispatch_program()).map(layout::DATA_BASE, 0x1000).build();
    let seed = MachineSeed::new(&image);
    let insns = 2 + 9 * DISPATCH_ITERS as u64 + 1;

    let mut g = c.benchmark_group("dispatch");
    g.throughput(Throughput::Elements(insns));

    // The production tier: pre-decoded superblocks chained back-to-back.
    g.bench_function("superblock_loop", |b| {
        b.iter(|| {
            let mut m = seed.spawn();
            m.run(&mut NullOs, u64::MAX)
        })
    });

    // Control arm: the same machine stepped one instruction at a time
    // through the one checked stepper (watchdog, injection and diagnostics
    // tests live, all disarmed here). Criterion interleaves the two in one
    // process, which is the only trustworthy comparison on a noisy host —
    // see DESIGN.md §13.
    g.bench_function("per_insn_loop", |b| {
        b.iter(|| {
            let mut m = seed.spawn();
            m.run_per_insn(&mut NullOs, u64::MAX)
        })
    });

    g.finish();
}

/// The byte-mode instrumentation of one `ld8` and one `st1` — the
/// program `shift disasm` lists — with its `br b0` return replaced by a
/// counted loop back to its first instruction. Its Figure-4 tag-address
/// sequences and store tag merge are what the superblock decoder fuses,
/// so this loop is the fused path's A/B guard.
fn instrumented_ld_st_image() -> (Image, u64) {
    let mut pb = ProgramBuilder::new();
    let g = pb.global_zeroed("cell", 16);
    pb.func("main", 0, move |f| {
        let p = f.global_addr(g);
        let v = f.load8(p, 0);
        let b = f.andi(v, 0xff);
        f.store1(b, p, 8);
        f.ret(Some(b));
    });
    let mode = Mode::Shift(ShiftOptions::baseline(Granularity::Byte));
    let compiled =
        shift_compiler::Compiler::new(mode).compile(&pb.build().unwrap()).expect("compiles");
    let (start, end) = compiled.func_ranges["main"];
    // Everything but the final `br b0` is straight-line.
    let body = &compiled.image.code[start..end - 1];
    assert!(body.iter().all(|i| !i.op.is_control()), "template body must be straight-line");

    // r20 is free in `main`; the template's own predicates are p6/p7.
    let ctr = Gpr::R20;
    let mut code = vec![Insn::new(Op::MovI { dst: ctr, imm: DISPATCH_ITERS })];
    code.extend_from_slice(body);
    code.push(Insn::new(Op::AluI { op: AluOp::Add, dst: ctr, src1: ctr, imm: -1 }));
    code.push(Insn::new(Op::CmpI {
        rel: CmpRel::Eq,
        pt: Pr::P1,
        pf: Pr::P2,
        src1: ctr,
        imm: 0,
        nat_aware: false,
    }));
    code.push(Insn::new(Op::Jmp { target: 1 }).under(Pr::P2));
    code.push(Insn::new(Op::Halt));
    let insns = 2 + (body.len() as u64 + 3) * DISPATCH_ITERS as u64;
    let mut image = compiled.image;
    image.code = code;
    image.entry = 0;
    image.symbols.clear();
    (image, insns)
}

fn bench_instrumented_dispatch(c: &mut Criterion) {
    let (image, insns) = instrumented_ld_st_image();
    let seed = MachineSeed::new(&image);
    let mut g = c.benchmark_group("dispatch/instrumented_ld_st");
    g.throughput(Throughput::Elements(insns));
    // Fused superblock micro-ops vs. the unfused, fully checked
    // per-instruction stepper, in one process (DESIGN.md §13).
    g.bench_function("superblock", |b| {
        b.iter(|| {
            let mut m = seed.spawn();
            m.run(&mut NullOs, u64::MAX)
        })
    });
    g.bench_function("per_insn", |b| {
        b.iter(|| {
            let mut m = seed.spawn();
            m.run_per_insn(&mut NullOs, u64::MAX)
        })
    });
    g.finish();
}

fn bench_memory(c: &mut Criterion) {
    let base = make_vaddr(1, 0x10_0000);
    let mut g = c.benchmark_group("memory");

    // Aligned integer loads hammering a handful of hot pages — the TLB-hit
    // fast path that dominates simulator load/store handling.
    g.throughput(Throughput::Elements(4096));
    g.bench_function("read_int_hot", |b| {
        let mut mem = Memory::new();
        mem.map_range(base, 4 * PAGE_SIZE);
        for i in 0..4 * PAGE_SIZE / 8 {
            mem.write_int(base + i * 8, 8, i).unwrap();
        }
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..4096u64 {
                acc ^= mem.read_int(base + (i % 2048) * 8, 8).unwrap();
            }
            acc
        })
    });

    // Aligned stores with live spill-NaT slots, so the per-store NaT
    // invalidation cannot take the empty-bank early exit.
    g.bench_function("write_int_hot", |b| {
        let mut mem = Memory::new();
        mem.map_range(base, 4 * PAGE_SIZE);
        mem.set_spill_nat(base, true);
        b.iter(|| {
            for i in 0..4096u64 {
                mem.write_int(base + 8 + (i % 2047) * 8, 8, i).unwrap();
            }
            mem.spill_nat(base)
        })
    });

    // Page-crossing bulk copy — the span-at-a-time `write_bytes` path used
    // by syscall buffers and string traffic — with a live spill-NaT slot
    // outside the span, as an instrumented guest keeps one banked, so the
    // span-wide NaT invalidation runs on every page.
    let blob = vec![0xA5u8; 3 * PAGE_SIZE as usize];
    g.throughput(Throughput::Bytes(blob.len() as u64));
    g.bench_function("write_bytes_3_pages", |b| {
        let mut mem = Memory::new();
        mem.map_range(base, 4 * PAGE_SIZE);
        mem.set_spill_nat(base, true);
        b.iter(|| {
            mem.write_bytes(base + 100, &blob).unwrap();
            mem.spill_nat(base)
        })
    });

    g.finish();
}

fn bench_shadow(c: &mut Criterion) {
    let mut g = c.benchmark_group("shadow");

    // Word-masked range marking across page boundaries, both directions.
    g.throughput(Throughput::Bytes(8192));
    g.bench_function("set_range_8k", |b| {
        let mut s = HostShadow::new();
        b.iter(|| {
            s.set_range(100, 8192, true);
            s.set_range(100, 8192, false);
            s.tainted_bytes()
        })
    });

    // Overlapping forward copy of a ragged (unaligned ends) region — the
    // worst case for the 64-byte-chunk shift-combine path.
    g.throughput(Throughput::Bytes(4000));
    g.bench_function("copy_taint_overlap", |b| {
        let mut s = HostShadow::new();
        s.set_range(3, 997, true);
        b.iter(|| {
            s.copy_taint(517, 3, 4000);
            s.tainted_bytes()
        })
    });

    g.finish();
}

fn bench_apache_request(c: &mut Criterion) {
    let mut g = c.benchmark_group("apache");
    // One full simulated request at the smallest file size: compile, serve,
    // tag-propagate, and check — the composite all the hot paths feed.
    g.bench_function("request_byte_1k", |b| {
        b.iter(|| {
            let run =
                run_apache(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)), 1 << 10, 1);
            run.latency()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_dispatch,
    bench_instrumented_dispatch,
    bench_memory,
    bench_shadow,
    bench_apache_request
);
criterion_main!(benches);
