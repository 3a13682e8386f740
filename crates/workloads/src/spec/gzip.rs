//! gzip-like kernel: LZ77 match finding with a hash chain head table.
//!
//! The hot loop hashes three tainted input bytes, looks up the previous
//! occurrence through a *sanitized* table index (the §3.3.2 bounds-check
//! pattern — gzip masks its hash exactly like this), extends the match with
//! tainted byte compares, and emits literals or (distance, length) tokens
//! with byte stores. The checksum is an Adler-flavoured fold of the output.

use shift_ir::{Program, ProgramBuilder, Rhs};
use shift_isa::{sys, CmpRel};

use crate::harness::input_reader;
use crate::{Scale, SpecBench};

/// Benchmark descriptor.
pub fn bench() -> SpecBench {
    SpecBench { name: "gzip", build, input }
}

fn input(scale: Scale) -> Vec<u8> {
    // Compressible text: a pool of words stitched pseudo-randomly.
    let words: &[&str] = &[
        "the",
        "compression",
        "of",
        "redundant",
        "data",
        "window",
        "match",
        "hash",
        "distance",
        "literal",
        "stream",
        "deflate",
    ];
    let target = match scale {
        Scale::Test => 600,
        Scale::Reference => 10_000,
    };
    let noise = super::prng_bytes(0x9e3779b9, target / 4);
    let mut out = Vec::with_capacity(target + 16);
    let mut k = 0usize;
    while out.len() < target {
        out.extend_from_slice(words[(noise[k % noise.len()] as usize) % words.len()].as_bytes());
        out.push(b' ');
        k += 1;
    }
    out.truncate(target);
    out
}

fn build() -> Program {
    let mut pb = ProgramBuilder::new();
    let len_g = input_reader(&mut pb);

    pb.func("main", 0, move |f| {
        let buf = f.call("read_input", &[]);
        let lg = f.global_addr(len_g);
        let len = f.load8(lg, 0);
        f.if_cmp(CmpRel::Lt, len, Rhs::Imm(8), |f| {
            let one = f.iconst(1);
            f.ret(Some(one));
        });

        let outcap = f.shli(len, 1);
        let outcap2 = f.addi(outcap, 32);
        let out = f.syscall(sys::BRK, &[outcap2]);
        let tblsz = f.iconst(4096 * 8);
        let tbl = f.syscall(sys::BRK, &[tblsz]);

        let outn = f.iconst(0);
        let i = f.iconst(0);
        let limit = f.addi(len, -3);

        f.while_cmp(
            |f| (CmpRel::Lt, f.use_of(i), Rhs::Reg(limit)),
            |f| {
                // h = (b0 ^ b1<<4 ^ b2<<8) & 0xfff, sanitized before indexing.
                let p = f.add(buf, i);
                let b0 = f.load1(p, 0);
                let b1 = f.load1(p, 1);
                let b2 = f.load1(p, 2);
                let b1s = f.shli(b1, 4);
                let b2s = f.shli(b2, 8);
                let h1 = f.xor(b0, b1s);
                let h2 = f.xor(h1, b2s);
                let h = f.andi(h2, 0xfff);
                let hs = f.sanitize(h);
                let off = f.shli(hs, 3);
                let slot = f.add(tbl, off);
                let cand = f.load8(slot, 0);
                let i1 = f.addi(i, 1);
                f.store8(i1, slot, 0); // store i+1 so 0 means "empty"

                let matched = f.iconst(0);
                f.if_cmp(CmpRel::Ne, cand, Rhs::Imm(0), |f| {
                    let c = f.addi(cand, -1);
                    let dist = f.sub(i, c);
                    f.if_cmp(CmpRel::Gt, dist, Rhs::Imm(0), |f| {
                        f.if_cmp(CmpRel::Lt, dist, Rhs::Imm(4096), |f| {
                            // Extend the match with tainted compares.
                            let l = f.iconst(0);
                            f.loop_(|f| {
                                f.if_cmp(CmpRel::Ge, l, Rhs::Imm(64), |f| f.break_());
                                let il = f.add(i, l);
                                f.if_cmp(CmpRel::Ge, il, Rhs::Reg(len), |f| f.break_());
                                let cp = f.add(buf, c);
                                let cpl = f.add(cp, l);
                                let x = f.load1(cpl, 0);
                                let ip = f.add(buf, il);
                                let y = f.load1(ip, 0);
                                f.if_cmp(CmpRel::Ne, x, Rhs::Reg(y), |f| f.break_());
                                let l1 = f.addi(l, 1);
                                f.assign(l, l1);
                            });
                            f.if_cmp(CmpRel::Ge, l, Rhs::Imm(4), |f| {
                                // Emit a match token: FF, dist.lo, dist.hi, len.
                                let op = f.add(out, outn);
                                let tag = f.iconst(0xff);
                                f.store1(tag, op, 0);
                                let dlo = f.andi(dist, 0xff);
                                f.store1(dlo, op, 1);
                                let dhi = f.shri(dist, 8);
                                f.store1(dhi, op, 2);
                                f.store1(l, op, 3);
                                let o4 = f.addi(outn, 4);
                                f.assign(outn, o4);
                                let inext = f.add(i, l);
                                f.assign(i, inext);
                                f.assign_imm(matched, 1);
                            });
                        });
                    });
                });
                f.if_cmp(CmpRel::Eq, matched, Rhs::Imm(0), |f| {
                    // Literal byte.
                    let p = f.add(buf, i);
                    let b = f.load1(p, 0);
                    let op = f.add(out, outn);
                    f.store1(b, op, 0);
                    let o1 = f.addi(outn, 1);
                    f.assign(outn, o1);
                    let i1 = f.addi(i, 1);
                    f.assign(i, i1);
                });
            },
        );

        // Adler-flavoured checksum of the token stream.
        let a = f.iconst(1);
        let b = f.iconst(0);
        f.for_up(Rhs::Imm(0), Rhs::Reg(outn), |f, j| {
            let p = f.add(out, j);
            let c = f.load1(p, 0);
            let a1 = f.add(a, c);
            let a2 = f.andi(a1, 0xffff);
            f.assign(a, a2);
            let b1 = f.add(b, a);
            let b2 = f.andi(b1, 0xffff);
            f.assign(b, b2);
        });
        let hi = f.shli(b, 16);
        let sum = f.or(hi, a);
        // Keep the exit status positive.
        let folded = f.andi(sum, 0x3fff_ffff);
        f.ret(Some(folded));
    });

    pb.build().expect("gzip kernel is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_spec, Scale};
    use shift_core::Mode;

    #[test]
    fn produces_stable_nonzero_checksum() {
        let b = bench();
        let r1 = run_spec(&b, Mode::Uninstrumented, Scale::Test, true);
        let r2 = run_spec(&b, Mode::Uninstrumented, Scale::Test, true);
        assert_eq!(r1.checksum(), r2.checksum());
        assert!(r1.checksum() > 0);
    }

    #[test]
    fn repetitive_input_is_cheaper_than_random() {
        // Matches skip ahead by their length, so compressible input takes
        // fewer outer-loop iterations (and fewer instructions) than
        // incompressible noise of the same size — evidence that the match
        // finder actually finds matches.
        use shift_core::{Mode, Shift, TaintConfig, World};
        let text = vec![b"abcdefgh".as_slice(); 75].concat(); // 600 repetitive bytes
        let noise = crate::spec::prng_bytes(0x51, 600);
        let run_with = |data: Vec<u8>| {
            let report = Shift::new(Mode::Uninstrumented)
                .with_config(TaintConfig::default_secure())
                .run(&build(), World::new().file(crate::INPUT_FILE, data))
                .unwrap();
            assert!(matches!(report.exit, shift_core::Exit::Halted(_)));
            report.stats.instructions
        };
        let compressible = run_with(text);
        let incompressible = run_with(noise);
        assert!(
            compressible * 3 < incompressible * 2,
            "matches should shrink the work: {compressible} vs {incompressible}"
        );
    }
}
