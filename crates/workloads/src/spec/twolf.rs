//! twolf-like kernel: standard-cell annealing with cost-table lookups.
//!
//! 300.twolf mixes table-driven wire-cost evaluation with cell swaps. Here
//! the cell *widths* come straight from the tainted input, so the swap
//! traffic is tainted byte stores (laundered on baseline hardware), while
//! the cost table is indexed through clean position arithmetic.

use shift_ir::{Program, ProgramBuilder, Rhs};
use shift_isa::{sys, CmpRel};

use crate::harness::{input_reader, rng_step};
use crate::{Scale, SpecBench};

const CELLS: i64 = 256;

/// Benchmark descriptor.
pub fn bench() -> SpecBench {
    SpecBench { name: "twolf", build, input }
}

fn input(scale: Scale) -> Vec<u8> {
    // Cell widths 1..32.
    super::prng_bytes(
        0x2201f,
        match scale {
            Scale::Test => 300,
            Scale::Reference => 4_200,
        },
    )
    .into_iter()
    .map(|b| 1 + b % 32)
    .collect()
}

/// Precomputed wire-cost table (quadratic-ish distance penalty).
fn cost_table() -> Vec<u8> {
    (0..64u64).map(|d| ((d * d / 16).min(255)) as u8).collect()
}

fn build() -> Program {
    let mut pb = ProgramBuilder::new();
    let len_g = input_reader(&mut pb);
    let table_g = pb.global("wirecost", 64, cost_table());

    pb.func("main", 0, move |f| {
        let buf = f.call("read_input", &[]);
        let lg = f.global_addr(len_g);
        let len = f.load8(lg, 0);
        let table = f.global_addr(table_g);

        // widths[c]: tainted bytes from the input (cyclically).
        let wsz = f.iconst(CELLS);
        let widths = f.syscall(sys::BRK, &[wsz]);
        let src = f.iconst(0);
        f.for_up(Rhs::Imm(0), Rhs::Imm(CELLS), |f, c| {
            let sp = f.add(buf, src);
            let w = f.load1(sp, 0);
            let dp = f.add(widths, c);
            f.store1(w, dp, 0);
            let s1 = f.addi(src, 1);
            f.assign(src, s1);
            f.if_cmp(CmpRel::Ge, src, Rhs::Reg(len), |f| f.assign_imm(src, 0));
        });

        // Annealer seed (sanitized).
        let seed = f.iconst(0x701f);
        f.for_up(Rhs::Imm(0), Rhs::Reg(len), |f, i| {
            let p = f.add(buf, i);
            let b = f.load1(p, 0);
            let r = f.shli(seed, 9);
            let x = f.xor(r, b);
            f.assign(seed, x);
        });
        let clean = f.sanitize(seed);
        let state = f.fresh();
        let one = f.iconst(1);
        let s = f.or(clean, one);
        f.assign(state, s);

        let iters = f.shli(len, 3);
        let improved = f.iconst(0);
        f.for_up(Rhs::Imm(0), Rhs::Reg(iters), |f, _it| {
            let r = rng_step(f, state);
            let a = f.andi(r, CELLS - 1);
            let rs = f.shri(r, 21);
            let b = f.andi(rs, CELLS - 1);
            f.if_cmp(CmpRel::Eq, a, Rhs::Reg(b), |f| f.continue_());

            // Wire cost of a slot: table[|a-b| & 63] scaled by the widths
            // at both ends (width loads are tainted).
            let d = f.sub(a, b);
            let dm = f.andi(d, 63); // clean: a,b derive from the sanitized RNG
            let tp = f.add(table, dm);
            let wire_cost = f.load1(tp, 0);
            let ap = f.add(widths, a);
            let wa = f.load1(ap, 0);
            let bp = f.add(widths, b);
            let wb = f.load1(bp, 0);

            // Swap if it narrows the wider-left imbalance: tainted compare.
            f.if_cmp(CmpRel::Gt, wa, Rhs::Reg(wb), |f| {
                // Tainted byte swap: two laundered sub-word stores on
                // baseline hardware.
                f.store1(wb, ap, 0);
                f.store1(wa, bp, 0);
                let gain = f.add(wire_cost, wa);
                let i1 = f.add(improved, gain);
                let i2 = f.andi(i1, 0x3fff_ffff);
                f.assign(improved, i2);
            });
        });

        // checksum = fold of final widths + improvement score.
        let sum = f.fresh();
        f.assign(sum, improved);
        f.for_up(Rhs::Imm(0), Rhs::Imm(CELLS), |f, c| {
            let p = f.add(widths, c);
            let w = f.load1(p, 0);
            let c1 = f.addi(c, 1);
            let t = f.mul(w, c1);
            let s1 = f.add(sum, t);
            f.assign(sum, s1);
        });
        let folded = f.andi(sum, 0x3fff_ffff);
        f.if_cmp(CmpRel::Eq, folded, Rhs::Imm(0), |f| {
            let one = f.iconst(1);
            f.ret(Some(one));
        });
        f.ret(Some(folded));
    });

    pb.build().expect("twolf kernel is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_spec;
    use shift_core::{Granularity, Mode, ShiftOptions};
    use shift_isa::Provenance;

    #[test]
    fn checksum_is_stable_and_nonzero() {
        let r1 = run_spec(&bench(), Mode::Uninstrumented, Scale::Test, true);
        let r2 = run_spec(&bench(), Mode::Uninstrumented, Scale::Test, true);
        assert_eq!(r1.checksum(), r2.checksum());
        assert!(r1.checksum() > 0);
    }

    /// Full host-side replica: width initialization, swaps, and the cost
    /// table must agree with the guest exactly.
    #[test]
    fn checksum_matches_host_replica() {
        let data = input(Scale::Test);
        let table = cost_table();
        let cells = CELLS as usize;
        // widths[c] = data[src] cycling (reset after the increment).
        let mut widths = vec![0u8; cells];
        let mut src = 0usize;
        for w in widths.iter_mut() {
            *w = data[src];
            src += 1;
            if src >= data.len() {
                src = 0;
            }
        }
        let mut seed: u64 = 0x701f;
        for &b in &data {
            seed = (seed << 9) ^ u64::from(b);
        }
        let mut state = seed | 1;
        let mut rng = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let iters = (data.len() as u64) << 3;
        let mut improved: u64 = 0;
        for _ in 0..iters {
            let r = rng();
            let a = (r & (cells as u64 - 1)) as usize;
            let b = ((r >> 21) & (cells as u64 - 1)) as usize;
            if a == b {
                continue;
            }
            let dm = ((a as u64).wrapping_sub(b as u64) & 63) as usize;
            let wire_cost = u64::from(table[dm]);
            let (wa, wb) = (widths[a], widths[b]);
            if wa > wb {
                widths.swap(a, b);
                let gain = wire_cost + u64::from(wa);
                improved = (improved + gain) & 0x3fff_ffff;
            }
        }
        let mut sum = improved;
        for (c, &w) in widths.iter().enumerate() {
            sum = sum.wrapping_add(u64::from(w).wrapping_mul(c as u64 + 1));
        }
        let folded = sum & 0x3fff_ffff;
        let expect = if folded == 0 { 1 } else { folded as i64 };

        let r = run_spec(&bench(), Mode::Uninstrumented, Scale::Test, true);
        assert_eq!(r.checksum(), expect);
    }

    #[test]
    fn tainted_swaps_cost_relax_time_on_baseline() {
        let base = run_spec(
            &bench(),
            Mode::Shift(ShiftOptions::baseline(Granularity::Byte)),
            Scale::Test,
            true,
        );
        assert!(
            base.stats.cycles_for(Provenance::Relax) > 0,
            "tainted sub-word stores must be laundered"
        );
        // With set/clear the laundering becomes register-only and cheaper.
        let mut opts = ShiftOptions::baseline(Granularity::Byte);
        opts.set_clr = true;
        let enh = run_spec(&bench(), Mode::Shift(opts), Scale::Test, true);
        assert!(enh.stats.cycles < base.stats.cycles);
    }
}
