//! parser-like kernel: dictionary word matching over tainted text.
//!
//! 197.parser spends its time comparing input characters against dictionary
//! entries. The kernel tokenizes tainted text and linearly probes a packed
//! dictionary with byte-by-byte comparisons — tainted compare after tainted
//! compare, with the dictionary side loaded from clean globals.

use shift_ir::{Program, ProgramBuilder, Rhs};
use shift_isa::CmpRel;

use crate::harness::input_reader;
use crate::{Scale, SpecBench};

const DICT: &[&str] = &[
    "the", "of", "and", "a", "to", "in", "is", "you", "that", "it", "he", "was", "for", "on",
    "are", "as", "with", "his", "they", "at", "be", "this", "have", "from", "or", "one", "had",
    "by", "word", "but", "not", "what",
];

/// Benchmark descriptor.
pub fn bench() -> SpecBench {
    SpecBench { name: "parser", build, input }
}

fn input(scale: Scale) -> Vec<u8> {
    let words = match scale {
        Scale::Test => 90,
        Scale::Reference => 1_400,
    };
    let noise = super::prng_bytes(0x9a45e4, words * 2);
    let mut out = Vec::new();
    for k in 0..words {
        let r = noise[k % noise.len()] as usize;
        if r.is_multiple_of(3) {
            // Out-of-dictionary word.
            out.extend_from_slice(b"zyxq");
            out.push(b'a' + (r % 26) as u8);
        } else {
            out.extend_from_slice(DICT[r % DICT.len()].as_bytes());
        }
        out.push(if r.is_multiple_of(7) { b'.' } else { b' ' });
    }
    out
}

/// Packs the dictionary as `len`-prefixed entries terminated by a 0 length.
fn packed_dict() -> Vec<u8> {
    let mut out = Vec::new();
    for w in DICT {
        out.push(w.len() as u8);
        out.extend_from_slice(w.as_bytes());
    }
    out.push(0);
    out
}

fn build() -> Program {
    let mut pb = ProgramBuilder::new();
    let len_g = input_reader(&mut pb);
    let packed = packed_dict();
    let dsize = packed.len() as u64;
    let dict_g = pb.global("dictionary", dsize, packed);

    pb.func("main", 0, move |f| {
        let buf = f.call("read_input", &[]);
        let lg = f.global_addr(len_g);
        let len = f.load8(lg, 0);
        let dict = f.global_addr(dict_g);

        let matches = f.iconst(0);
        let sentences = f.iconst(0);
        let i = f.iconst(0);

        f.while_cmp(
            |f| (CmpRel::Lt, f.use_of(i), Rhs::Reg(len)),
            |f| {
                let p = f.add(buf, i);
                let c = f.load1(p, 0);

                // Sentence punctuation.
                f.if_cmp(CmpRel::Eq, c, Rhs::Imm('.' as i64), |f| {
                    let s1 = f.addi(sentences, 1);
                    f.assign(sentences, s1);
                    let i1 = f.addi(i, 1);
                    f.assign(i, i1);
                    f.continue_();
                });

                // Skip non-letters.
                let ge = f.set_cmp(CmpRel::Ge, c, Rhs::Imm('a' as i64));
                let le = f.set_cmp(CmpRel::Le, c, Rhs::Imm('z' as i64));
                let alpha = f.and(ge, le);
                f.if_cmp(CmpRel::Eq, alpha, Rhs::Imm(0), |f| {
                    let i1 = f.addi(i, 1);
                    f.assign(i, i1);
                    f.continue_();
                });

                // Collect the word [i, j).
                let j = f.fresh();
                f.assign(j, i);
                f.loop_(|f| {
                    f.if_cmp(CmpRel::Ge, j, Rhs::Reg(len), |f| f.break_());
                    let q = f.add(buf, j);
                    let d = f.load1(q, 0);
                    let ge = f.set_cmp(CmpRel::Ge, d, Rhs::Imm('a' as i64));
                    let le = f.set_cmp(CmpRel::Le, d, Rhs::Imm('z' as i64));
                    let a2 = f.and(ge, le);
                    f.if_cmp(CmpRel::Eq, a2, Rhs::Imm(0), |f| f.break_());
                    let j1 = f.addi(j, 1);
                    f.assign(j, j1);
                });
                let wlen = f.sub(j, i);

                // Linear dictionary probe.
                let dp = f.fresh();
                f.assign(dp, dict);
                f.loop_(|f| {
                    let elen = f.load1(dp, 0);
                    f.if_cmp(CmpRel::Eq, elen, Rhs::Imm(0), |f| f.break_());
                    f.if_else_cmp(
                        CmpRel::Eq,
                        elen,
                        Rhs::Reg(wlen),
                        |f| {
                            // Byte-compare entry vs word (tainted side: word).
                            let ok = f.iconst(1);
                            f.for_up(Rhs::Imm(0), Rhs::Reg(wlen), |f, k| {
                                let ep = f.add(dp, k);
                                let e = f.load1(ep, 1); // skip length byte
                                let wpbase = f.add(buf, i);
                                let wp = f.add(wpbase, k);
                                let w = f.load1(wp, 0);
                                f.if_cmp(CmpRel::Ne, e, Rhs::Reg(w), |f| {
                                    f.assign_imm(ok, 0);
                                    f.break_();
                                });
                            });
                            f.if_cmp(CmpRel::Ne, ok, Rhs::Imm(0), |f| {
                                let m1 = f.addi(matches, 1);
                                f.assign(matches, m1);
                                f.break_();
                            });
                            let skip = f.addi(elen, 1);
                            let dp1 = f.add(dp, skip);
                            f.assign(dp, dp1);
                        },
                        |f| {
                            let skip = f.addi(elen, 1);
                            let dp1 = f.add(dp, skip);
                            f.assign(dp, dp1);
                        },
                    );
                });

                f.assign(i, j);
            },
        );

        let s1000 = f.muli(sentences, 4096);
        let sum = f.add(s1000, matches);
        let folded = f.andi(sum, 0x3fff_ffff);
        f.if_cmp(CmpRel::Eq, folded, Rhs::Imm(0), |f| {
            let one = f.iconst(1);
            f.ret(Some(one));
        });
        f.ret(Some(folded));
    });

    pb.build().expect("parser kernel is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_spec;
    use shift_core::Mode;

    #[test]
    fn counts_match_host_reference() {
        let text = input(Scale::Test);
        let mut matches = 0i64;
        let mut sentences = 0i64;
        let mut i = 0usize;
        while i < text.len() {
            let c = text[i];
            if c == b'.' {
                sentences += 1;
                i += 1;
                continue;
            }
            if !c.is_ascii_lowercase() {
                i += 1;
                continue;
            }
            let mut j = i;
            while j < text.len() && text[j].is_ascii_lowercase() {
                j += 1;
            }
            let word = &text[i..j];
            if DICT.iter().any(|w| w.as_bytes() == word) {
                matches += 1;
            }
            i = j;
        }
        let expect = (sentences * 4096 + matches) & 0x3fff_ffff;
        let expect = if expect == 0 { 1 } else { expect };

        let r = run_spec(&bench(), Mode::Uninstrumented, Scale::Test, true);
        assert_eq!(r.checksum(), expect);
        assert!(matches > 0, "the generated text must contain dictionary words");
    }
}
