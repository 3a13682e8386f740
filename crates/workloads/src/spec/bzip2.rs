//! bzip2-like kernel: run-length encoding + move-to-front transform.
//!
//! The MTF inner loop shifts a 256-entry recency table byte by byte — a
//! storm of 1-byte loads and stores over (increasingly) tainted data. At
//! byte granularity every tainted sub-word store must be laundered on
//! baseline hardware, which is exactly the cost the `tset`/`tclr`
//! enhancement targets.

use shift_ir::{Program, ProgramBuilder, Rhs};
use shift_isa::{sys, CmpRel};

use crate::harness::input_reader;
use crate::{Scale, SpecBench};

/// Benchmark descriptor.
pub fn bench() -> SpecBench {
    SpecBench { name: "bzip2", build, input }
}

fn input(scale: Scale) -> Vec<u8> {
    // Runs plus structure: RLE has something to chew on, MTF sees skew.
    let n = match scale {
        Scale::Test => 500,
        Scale::Reference => 7_000,
    };
    let noise = super::prng_bytes(0xb21b2, n);
    let mut out = Vec::with_capacity(n);
    let mut k = 0usize;
    while out.len() < n {
        let b = noise[k % noise.len()];
        k += 1;
        let run = 1 + (b as usize % 7);
        // Small alphabet keeps MTF ranks low-but-nonzero.
        let sym = b'a' + (b % 17);
        for _ in 0..run {
            out.push(sym);
        }
    }
    out.truncate(n);
    out
}

fn build() -> Program {
    let mut pb = ProgramBuilder::new();
    let len_g = input_reader(&mut pb);

    pb.func("main", 0, move |f| {
        let buf = f.call("read_input", &[]);
        let lg = f.global_addr(len_g);
        let len = f.load8(lg, 0);

        // ---- RLE pass: (symbol, count) pairs --------------------------------
        let cap = f.shli(len, 1);
        let cap2 = f.addi(cap, 16);
        let rle = f.syscall(sys::BRK, &[cap2]);
        let rlen = f.iconst(0);
        let i = f.iconst(0);
        f.while_cmp(
            |f| (CmpRel::Lt, f.use_of(i), Rhs::Reg(len)),
            |f| {
                let p = f.add(buf, i);
                let c = f.load1(p, 0);
                let run = f.iconst(1);
                f.loop_(|f| {
                    let j = f.add(i, run);
                    f.if_cmp(CmpRel::Ge, j, Rhs::Reg(len), |f| f.break_());
                    f.if_cmp(CmpRel::Ge, run, Rhs::Imm(255), |f| f.break_());
                    let q = f.add(buf, j);
                    let d = f.load1(q, 0);
                    f.if_cmp(CmpRel::Ne, d, Rhs::Reg(c), |f| f.break_());
                    let r1 = f.addi(run, 1);
                    f.assign(run, r1);
                });
                let op = f.add(rle, rlen);
                f.store1(c, op, 0);
                f.store1(run, op, 1);
                let rl2 = f.addi(rlen, 2);
                f.assign(rlen, rl2);
                let i2 = f.add(i, run);
                f.assign(i, i2);
            },
        );

        // ---- MTF pass over the RLE stream -----------------------------------
        let tblslot = f.local(256);
        let tbl = f.local_addr(tblslot);
        f.for_up(Rhs::Imm(0), Rhs::Imm(256), |f, k| {
            let p = f.add(tbl, k);
            f.store1(k, p, 0);
        });
        let checksum = f.iconst(0);
        f.for_up(Rhs::Imm(0), Rhs::Reg(rlen), |f, k| {
            let p = f.add(rle, k);
            let c = f.load1(p, 0);
            // Find the rank of c in the table (tainted compares).
            let rank = f.iconst(0);
            f.loop_(|f| {
                f.if_cmp(CmpRel::Ge, rank, Rhs::Imm(256), |f| f.break_());
                let tp = f.add(tbl, rank);
                let e = f.load1(tp, 0);
                f.if_cmp(CmpRel::Eq, e, Rhs::Reg(c), |f| f.break_());
                let r1 = f.addi(rank, 1);
                f.assign(rank, r1);
            });
            // Shift table[0..rank] up by one, install c at the front
            // (byte-store storm).
            let j = f.fresh();
            f.assign(j, rank);
            f.while_cmp(
                |f| (CmpRel::Gt, f.use_of(j), Rhs::Imm(0)),
                |f| {
                    let jm1 = f.addi(j, -1);
                    let src = f.add(tbl, jm1);
                    let v = f.load1(src, 0);
                    let dst = f.add(tbl, j);
                    f.store1(v, dst, 0);
                    f.assign(j, jm1);
                },
            );
            f.store1(c, tbl, 0);
            // Fold the rank (clean value) into the checksum.
            let w = f.mul(rank, rank);
            let s1 = f.add(checksum, w);
            let s2 = f.andi(s1, 0x3fff_ffff);
            f.assign(checksum, s2);
        });

        f.if_cmp(CmpRel::Eq, checksum, Rhs::Imm(0), |f| {
            let one = f.iconst(1);
            f.ret(Some(one));
        });
        f.ret(Some(checksum));
    });

    pb.build().expect("bzip2 kernel is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_spec;
    use shift_core::{Granularity, Mode, ShiftOptions};
    use shift_isa::Provenance;

    #[test]
    fn checksum_matches_host_reference() {
        let data = input(Scale::Test);
        // Host-side RLE + MTF with the same parameters.
        let mut rle = Vec::new();
        let mut i = 0usize;
        while i < data.len() {
            let c = data[i];
            let mut run = 1usize;
            while i + run < data.len() && run < 255 && data[i + run] == c {
                run += 1;
            }
            rle.push(c);
            rle.push(run as u8);
            i += run;
        }
        let mut tbl: Vec<u8> = (0..=255).collect();
        let mut checksum: i64 = 0;
        for &c in &rle {
            let rank = tbl.iter().position(|&e| e == c).unwrap();
            tbl.remove(rank);
            tbl.insert(0, c);
            checksum = (checksum + (rank * rank) as i64) & 0x3fff_ffff;
        }
        let expect = if checksum == 0 { 1 } else { checksum };

        let r = run_spec(&bench(), Mode::Uninstrumented, Scale::Test, true);
        assert_eq!(r.checksum(), expect);
    }

    #[test]
    fn byte_level_store_instrumentation_is_heavy_here() {
        let b = bench();
        let run =
            run_spec(&b, Mode::Shift(ShiftOptions::baseline(Granularity::Byte)), Scale::Test, true);
        let st = run.stats.cycles_for(Provenance::StTagCompute)
            + run.stats.cycles_for(Provenance::StTagMemory);
        let ld = run.stats.cycles_for(Provenance::LdTagCompute)
            + run.stats.cycles_for(Provenance::LdTagMemory);
        // MTF stores nearly as often as it loads; most kernels are far more
        // load-biased.
        assert!(st * 4 > ld, "expected store-heavy instrumentation: st={st} ld={ld}");
    }
}
