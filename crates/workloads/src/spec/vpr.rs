//! vpr-like kernel: simulated-annealing placement over a grid.
//!
//! FPGA placement spends its time computing wire-length deltas over
//! word-sized position arrays and swapping cells. The input only seeds the
//! annealer and sets the move budget, so very little tainted data reaches
//! the hot loop — the "-safe" and "-unsafe" bars land close together.

use shift_ir::{FnBuilder, Program, ProgramBuilder, Rhs, VReg};
use shift_isa::{sys, CmpRel};

use crate::harness::{input_reader, rng_step};
use crate::{Scale, SpecBench};

const GRID: i64 = 16;
const CELLS: i64 = GRID * GRID;

/// Benchmark descriptor.
pub fn bench() -> SpecBench {
    SpecBench { name: "vpr", build, input }
}

fn input(scale: Scale) -> Vec<u8> {
    super::prng_bytes(
        0x0bb1,
        match scale {
            Scale::Test => 120,
            Scale::Reference => 1_600,
        },
    )
}

/// |a - b| via a branch.
fn absdiff(f: &mut FnBuilder, a: VReg, b: VReg) -> VReg {
    let d = f.sub(a, b);
    let out = f.fresh();
    f.assign(out, d);
    f.if_cmp(CmpRel::Lt, d, Rhs::Imm(0), |f| {
        let z = f.iconst(0);
        let n = f.sub(z, d);
        f.assign(out, n);
    });
    out
}

/// Manhattan distance between the positions of cells `a` and `b`
/// (positions are grid indices: x = p & 15, y = p >> 4).
fn manhattan(f: &mut FnBuilder, pos: VReg, a: VReg, b: VReg) -> VReg {
    let ao = f.shli(a, 3);
    let ap = f.add(pos, ao);
    let pa = f.load8(ap, 0);
    let bo = f.shli(b, 3);
    let bp = f.add(pos, bo);
    let pb_ = f.load8(bp, 0);
    let xa = f.andi(pa, GRID - 1);
    let xb = f.andi(pb_, GRID - 1);
    let ya = f.shri(pa, 4);
    let yb = f.shri(pb_, 4);
    let dx = absdiff(f, xa, xb);
    let dy = absdiff(f, ya, yb);
    f.add(dx, dy)
}

/// Cost of cell `c` against its two implicit net neighbours `(c+1, c+GRID)
/// mod CELLS`.
fn cell_cost(f: &mut FnBuilder, pos: VReg, c: VReg) -> VReg {
    let n1r = f.addi(c, 1);
    let n1 = f.andi(n1r, CELLS - 1);
    let n2r = f.addi(c, GRID);
    let n2 = f.andi(n2r, CELLS - 1);
    let c1 = manhattan(f, pos, c, n1);
    let c2 = manhattan(f, pos, c, n2);
    f.add(c1, c2)
}

fn build() -> Program {
    let mut pb = ProgramBuilder::new();
    let len_g = input_reader(&mut pb);

    pb.func("main", 0, move |f| {
        let buf = f.call("read_input", &[]);
        let lg = f.global_addr(len_g);
        let len = f.load8(lg, 0);

        // pos[c] = current grid slot of cell c, identity to start.
        let possz = f.iconst(CELLS * 8);
        let pos = f.syscall(sys::BRK, &[possz]);
        f.for_up(Rhs::Imm(0), Rhs::Imm(CELLS), |f, c| {
            let off = f.shli(c, 3);
            let p = f.add(pos, off);
            f.store8(c, p, 0);
        });

        // Seed from the input, sanitized (config data, not control data).
        let seed = f.iconst(0x5eed);
        f.for_up(Rhs::Imm(0), Rhs::Reg(len), |f, i| {
            let p = f.add(buf, i);
            let b = f.load1(p, 0);
            let r = f.shli(seed, 3);
            let x = f.xor(r, b);
            f.assign(seed, x);
        });
        let clean = f.sanitize(seed);
        let state = f.fresh();
        let one = f.iconst(1);
        let s = f.or(clean, one);
        f.assign(state, s);

        let iters = f.shli(len, 4);
        let accepted = f.iconst(0);
        f.for_up(Rhs::Imm(0), Rhs::Reg(iters), |f, _it| {
            let r1 = rng_step(f, state);
            let a = f.andi(r1, CELLS - 1);
            let r2s = f.shri(r1, 17);
            let b = f.andi(r2s, CELLS - 1);
            f.if_cmp(CmpRel::Eq, a, Rhs::Reg(b), |f| f.continue_());

            let before_a = cell_cost(f, pos, a);
            let before_b = cell_cost(f, pos, b);
            let before = f.add(before_a, before_b);

            // Swap positions.
            let ao = f.shli(a, 3);
            let ap = f.add(pos, ao);
            let bo = f.shli(b, 3);
            let bp = f.add(pos, bo);
            let pa = f.load8(ap, 0);
            let pb_ = f.load8(bp, 0);
            f.store8(pb_, ap, 0);
            f.store8(pa, bp, 0);

            let after_a = cell_cost(f, pos, a);
            let after_b = cell_cost(f, pos, b);
            let after = f.add(after_a, after_b);

            // Accept improvements, or occasionally a bad move.
            let noise = f.shri(state, 40);
            let hot = f.andi(noise, 15);
            let keep = f.iconst(0);
            f.if_cmp(CmpRel::Lt, after, Rhs::Reg(before), |f| f.assign_imm(keep, 1));
            f.if_cmp(CmpRel::Eq, hot, Rhs::Imm(0), |f| f.assign_imm(keep, 1));
            f.if_else_cmp(
                CmpRel::Ne,
                keep,
                Rhs::Imm(0),
                |f| {
                    let acc1 = f.addi(accepted, 1);
                    f.assign(accepted, acc1);
                },
                |f| {
                    // Swap back.
                    f.store8(pa, ap, 0);
                    f.store8(pb_, bp, 0);
                },
            );
        });

        // checksum = Σ pos[c]·(c+1), folded.
        let sum = f.fresh();
        f.assign(sum, accepted);
        f.for_up(Rhs::Imm(0), Rhs::Imm(CELLS), |f, c| {
            let off = f.shli(c, 3);
            let p = f.add(pos, off);
            let v = f.load8(p, 0);
            let c1 = f.addi(c, 1);
            let w = f.mul(v, c1);
            let s1 = f.add(sum, w);
            f.assign(sum, s1);
        });
        let folded = f.andi(sum, 0x3fff_ffff);
        f.if_cmp(CmpRel::Eq, folded, Rhs::Imm(0), |f| {
            let one = f.iconst(1);
            f.ret(Some(one));
        });
        f.ret(Some(folded));
    });

    pb.build().expect("vpr kernel is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_spec;
    use shift_core::{Granularity, Mode, ShiftOptions};

    #[test]
    fn annealer_accepts_some_moves() {
        let r = run_spec(&bench(), Mode::Uninstrumented, Scale::Test, true);
        assert!(r.checksum() > 0);
        // Some swaps survive: the final placement differs from identity,
        // so the checksum differs from Σ c·(c+1).
        let identity: i64 = (0..CELLS).map(|c| c * (c + 1)).sum::<i64>() & 0x3fff_ffff;
        assert_ne!(r.checksum() & 0x3fff_ffff, identity);
    }

    /// Full host-side replica of the annealer: swaps, rejections and the
    /// acceptance noise must agree with the guest exactly.
    #[test]
    fn checksum_matches_host_replica() {
        let data = input(Scale::Test);
        let mut seed: u64 = 0x5eed;
        for &b in &data {
            seed = (seed << 3) ^ u64::from(b);
        }
        let mut state = seed | 1;
        fn step(s: &mut u64) -> u64 {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            *s
        }
        let cells = CELLS as usize;
        let mut pos: Vec<u64> = (0..cells as u64).collect();
        let manhattan = |pos: &[u64], a: usize, b: usize| -> u64 {
            let (pa, pb) = (pos[a], pos[b]);
            let (xa, xb) = (pa & (GRID as u64 - 1), pb & (GRID as u64 - 1));
            let (ya, yb) = (pa >> 4, pb >> 4);
            xa.abs_diff(xb) + ya.abs_diff(yb)
        };
        let cell_cost = |pos: &[u64], c: usize| -> u64 {
            let n1 = (c + 1) & (cells - 1);
            let n2 = (c + GRID as usize) & (cells - 1);
            manhattan(pos, c, n1) + manhattan(pos, c, n2)
        };
        let iters = (data.len() as u64) << 4;
        let mut accepted: u64 = 0;
        for _ in 0..iters {
            let r1 = step(&mut state);
            let a = (r1 & (cells as u64 - 1)) as usize;
            let b = ((r1 >> 17) & (cells as u64 - 1)) as usize;
            if a == b {
                continue;
            }
            let before = cell_cost(&pos, a) + cell_cost(&pos, b);
            pos.swap(a, b);
            let after = cell_cost(&pos, a) + cell_cost(&pos, b);
            let hot = (state >> 40) & 15;
            let keep = after < before || hot == 0;
            if keep {
                accepted += 1;
            } else {
                pos.swap(a, b);
            }
        }
        let mut sum = accepted;
        for (c, &p) in pos.iter().enumerate() {
            sum = sum.wrapping_add(p.wrapping_mul(c as u64 + 1));
        }
        let folded = sum & 0x3fff_ffff;
        let expect = if folded == 0 { 1 } else { folded as i64 };

        let r = run_spec(&bench(), Mode::Uninstrumented, Scale::Test, true);
        assert_eq!(r.checksum(), expect);
    }

    #[test]
    fn little_taint_means_safe_close_to_unsafe() {
        // Unlike gzip/gcc, vpr's tainted and untainted runs should be within
        // a few percent of each other: taint dies at the sanitize.
        let mode = Mode::Shift(ShiftOptions::baseline(Granularity::Byte));
        let unsafe_run = run_spec(&bench(), mode, Scale::Test, true);
        let safe_run = run_spec(&bench(), mode, Scale::Test, false);
        let ratio = unsafe_run.stats.cycles as f64 / safe_run.stats.cycles as f64;
        assert!(ratio < 1.10, "vpr should be nearly taint-independent, got {ratio:.3}");
    }
}
