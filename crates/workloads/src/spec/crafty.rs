//! crafty-like kernel: bitboard attack generation and SWAR popcounts.
//!
//! Chess engines spend their time in register arithmetic — shifts, masks,
//! popcounts — with comparatively little memory traffic. The kernel folds
//! the (tainted) input into a PRNG seed, *sanitizes* it (a config file does
//! not taint a search), then counts knight and king attacks over
//! pseudo-random occupancies. Low load/store density ⇒ the small end of
//! Figure 7's slowdown range.

use shift_ir::{FnBuilder, Program, ProgramBuilder, Rhs, VReg};
use shift_isa::CmpRel;

use crate::harness::{input_reader, rng_step};
use crate::{Scale, SpecBench};

/// Benchmark descriptor.
pub fn bench() -> SpecBench {
    SpecBench { name: "crafty", build, input }
}

fn input(scale: Scale) -> Vec<u8> {
    // The input only seeds the search and sets the iteration count.
    super::prng_bytes(
        0xc0ffee,
        match scale {
            Scale::Test => 96,
            Scale::Reference => 1400,
        },
    )
}

/// Emits a SWAR popcount of `v`.
fn popcount(f: &mut FnBuilder, v: VReg) -> VReg {
    let m1 = f.iconst(0x5555_5555_5555_5555);
    let m2 = f.iconst(0x3333_3333_3333_3333);
    let m4 = f.iconst(0x0f0f_0f0f_0f0f_0f0f);
    let h01 = f.iconst(0x0101_0101_0101_0101);
    let s1 = f.shri(v, 1);
    let a1 = f.and(s1, m1);
    let v1 = f.sub(v, a1);
    let lo = f.and(v1, m2);
    let s2 = f.shri(v1, 2);
    let hi = f.and(s2, m2);
    let v2 = f.add(lo, hi);
    let s4 = f.shri(v2, 4);
    let v3 = f.add(v2, s4);
    let v4 = f.and(v3, m4);
    let v5 = f.mul(v4, h01);
    f.shri(v5, 56)
}

fn build() -> Program {
    let mut pb = ProgramBuilder::new();
    let len_g = input_reader(&mut pb);

    pb.func("main", 0, move |f| {
        let buf = f.call("read_input", &[]);
        let lg = f.global_addr(len_g);
        let len = f.load8(lg, 0);

        // Fold the input into a seed, then sanitize: the engine's own
        // search state is not attacker-steered control data.
        let seed = f.iconst(0x9e37_79b9);
        f.for_up(Rhs::Imm(0), Rhs::Reg(len), |f, i| {
            let p = f.add(buf, i);
            let b = f.load1(p, 0);
            let rot = f.shli(seed, 5);
            let x = f.xor(rot, b);
            let m = f.add(x, seed);
            f.assign(seed, m);
        });
        let s = f.sanitize(seed);
        let state = f.fresh();
        let one = f.iconst(1);
        let s1 = f.or(s, one);
        f.assign(state, s1);

        // A small board table keeps some (clean-indexed) memory in the mix.
        let boardslot = f.local(64);
        let board = f.local_addr(boardslot);

        let iters = f.shli(len, 4);
        let total = f.iconst(0);
        let notafile = f.iconst(0xfefe_fefe_fefe_fefeu64 as i64);
        let nothfile = f.iconst(0x7f7f_7f7f_7f7f_7f7fu64 as i64);

        f.for_up(Rhs::Imm(0), Rhs::Reg(iters), |f, it| {
            let occ = rng_step(f, state);

            // Knight attacks (4 of the 8 directions, mirrored by symmetry).
            let n1 = f.shli(occ, 17);
            let n1m = f.and(n1, notafile);
            let n2 = f.shli(occ, 15);
            let n2m = f.and(n2, nothfile);
            let n3 = f.shri(occ, 17);
            let n3m = f.and(n3, nothfile);
            let n4 = f.shri(occ, 15);
            let n4m = f.and(n4, notafile);
            let ka = f.or(n1m, n2m);
            let kb = f.or(n3m, n4m);
            let knights = f.or(ka, kb);

            // King ring.
            let e = f.shli(occ, 1);
            let em = f.and(e, notafile);
            let w = f.shri(occ, 1);
            let wm = f.and(w, nothfile);
            let nd = f.shli(occ, 8);
            let sd = f.shri(occ, 8);
            let r1 = f.or(em, wm);
            let r2 = f.or(nd, sd);
            let king = f.or(r1, r2);

            let att = f.or(knights, king);
            let pc = popcount(f, att);
            let t1 = f.add(total, pc);
            f.assign(total, t1);

            // Light memory traffic through a clean index.
            let idx = f.andi(it, 63);
            let bp = f.add(board, idx);
            let old = f.load1(bp, 0);
            let nv = f.xor(old, pc);
            f.store1(nv, bp, 0);
        });

        // Mix the board back in.
        f.for_up(Rhs::Imm(0), Rhs::Imm(64), |f, i| {
            let bp = f.add(board, i);
            let b = f.load1(bp, 0);
            let t = f.add(total, b);
            f.assign(total, t);
        });
        let folded = f.andi(total, 0x3fff_ffff);
        f.if_cmp(CmpRel::Eq, folded, Rhs::Imm(0), |f| {
            let one = f.iconst(1);
            f.ret(Some(one));
        });
        f.ret(Some(folded));
    });

    pb.build().expect("crafty kernel is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{all_benches, run_spec};
    use shift_core::{Granularity, Mode, ShiftOptions};

    #[test]
    fn register_heavy_means_low_slowdown() {
        // crafty's instrumented/baseline cycle ratio must be the lowest of
        // all kernels at byte level — the figure-7 ordering anchor.
        let mode = Mode::Shift(ShiftOptions::baseline(Granularity::Byte));
        let slowdown = |name: &str| {
            let b = all_benches().into_iter().find(|b| b.name == name).unwrap();
            let plain = run_spec(&b, Mode::Uninstrumented, Scale::Test, true);
            let inst = run_spec(&b, mode, Scale::Test, true);
            inst.stats.cycles as f64 / plain.stats.cycles as f64
        };
        let crafty = slowdown("crafty");
        let gzip = slowdown("gzip");
        assert!(crafty < gzip, "crafty ({crafty:.2}x) should be lighter than gzip ({gzip:.2}x)");
        assert!(crafty < 3.0, "register-heavy kernel slowdown too high: {crafty:.2}x");
    }

    /// Full host-side replica of the kernel: every shift, mask and popcount
    /// recomputed in Rust must agree with the simulated guest bit for bit.
    #[test]
    fn checksum_matches_host_replica() {
        let data = input(Scale::Test);
        // Seed fold.
        let mut seed: u64 = 0x9e37_79b9;
        for &b in &data {
            let rot = seed << 5;
            let x = rot ^ u64::from(b);
            seed = x.wrapping_add(seed);
        }
        let mut state = seed | 1;
        let mut rng = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let notafile = 0xfefe_fefe_fefe_fefeu64;
        let nothfile = 0x7f7f_7f7f_7f7f_7f7fu64;
        let mut board = [0u8; 64];
        let mut total: u64 = 0;
        let iters = (data.len() as u64) << 4;
        for it in 0..iters {
            let occ = rng();
            let knights = ((occ << 17) & notafile)
                | ((occ << 15) & nothfile)
                | ((occ >> 17) & nothfile)
                | ((occ >> 15) & notafile);
            let king = ((occ << 1) & notafile) | ((occ >> 1) & nothfile) | (occ << 8) | (occ >> 8);
            let pc = u64::from((knights | king).count_ones());
            total = total.wrapping_add(pc);
            let idx = (it & 63) as usize;
            board[idx] ^= pc as u8;
        }
        for &b in &board {
            total = total.wrapping_add(u64::from(b));
        }
        let folded = total & 0x3fff_ffff;
        let expect = if folded == 0 { 1 } else { folded as i64 };

        let r = run_spec(&bench(), Mode::Uninstrumented, Scale::Test, true);
        assert_eq!(r.checksum(), expect);
    }

    #[test]
    fn checksum_is_stable() {
        let b = bench();
        let r1 = run_spec(&b, Mode::Uninstrumented, Scale::Test, true);
        let r2 = run_spec(&b, Mode::Uninstrumented, Scale::Test, true);
        assert_eq!(r1.checksum(), r2.checksum());
        assert!(r1.checksum() > 0);
    }
}
