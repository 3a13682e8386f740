//! gcc-like kernel: tokenize and constant-fold arithmetic expressions.
//!
//! A shunting-yard evaluator over tainted source text. Almost every dynamic
//! instruction compares a tainted character or a tainted operator/precedence
//! value, making this the kernel that benefits most from the NaT-aware
//! compare enhancement — the paper reports the same for 176.gcc (a 173%
//! slowdown reduction with both enhancements, §6.3).

use shift_ir::{Program, ProgramBuilder, Rhs, VReg};
use shift_isa::{sys, CmpRel};

use crate::harness::input_reader;
use crate::{Scale, SpecBench};

/// Benchmark descriptor.
pub fn bench() -> SpecBench {
    SpecBench { name: "gcc", build, input }
}

fn input(scale: Scale) -> Vec<u8> {
    // Deterministic well-formed expressions: digits, + * ( ) ;
    let exprs = match scale {
        Scale::Test => 24,
        Scale::Reference => 420,
    };
    let noise = super::prng_bytes(0xabcdef12, exprs * 40);
    let mut out = Vec::new();
    let mut k = 0usize;
    let mut next = |m: usize| {
        k += 1;
        noise[k % noise.len()] as usize % m
    };
    for _ in 0..exprs {
        // term (op term){2..6} with occasional parens
        let terms = 2 + next(5);
        for t in 0..terms {
            if t > 0 {
                out.push(if next(2) == 0 { b'+' } else { b'*' });
            }
            if next(4) == 0 {
                out.push(b'(');
                out.extend_from_slice(format!("{}", 1 + next(9)).as_bytes());
                out.push(if next(2) == 0 { b'+' } else { b'*' });
                out.extend_from_slice(format!("{}", 1 + next(9)).as_bytes());
                out.push(b')');
            } else {
                out.extend_from_slice(format!("{}", 1 + next(99)).as_bytes());
            }
        }
        out.push(b';');
        out.push(b'\n');
    }
    out
}

/// Emits "reduce one operator": pops an op and two values, pushes the
/// result. `vsp`/`osp` are stack depths, `vstk`/`ostk` base addresses.
fn emit_reduce(f: &mut shift_ir::FnBuilder, vstk: VReg, vsp: VReg, ostk: VReg, osp: VReg) {
    let o1 = f.addi(osp, -1);
    f.assign(osp, o1);
    let opoff = f.shli(osp, 3);
    let opp = f.add(ostk, opoff);
    let op = f.load8(opp, 0);

    let v1 = f.addi(vsp, -1);
    f.assign(vsp, v1);
    let boff = f.shli(vsp, 3);
    let bp = f.add(vstk, boff);
    let bval = f.load8(bp, 0);
    let v2 = f.addi(vsp, -1);
    f.assign(vsp, v2);
    let aoff = f.shli(vsp, 3);
    let ap = f.add(vstk, aoff);
    let aval = f.load8(ap, 0);

    let res = f.fresh();
    f.if_else_cmp(
        CmpRel::Eq,
        op,
        Rhs::Imm('+' as i64),
        |f| {
            let s = f.add(aval, bval);
            f.assign(res, s);
        },
        |f| {
            let m = f.mul(aval, bval);
            let masked = f.andi(m, 0xffff_ffff);
            f.assign(res, masked);
        },
    );
    f.store8(res, ap, 0);
    let v3 = f.addi(vsp, 1);
    f.assign(vsp, v3);
}

fn prec_of(f: &mut shift_ir::FnBuilder, op: VReg) -> VReg {
    // '*' binds tighter than '+'; '(' marker has precedence 0.
    let p = f.iconst(0);
    f.if_cmp(CmpRel::Eq, op, Rhs::Imm('+' as i64), |f| f.assign_imm(p, 1));
    f.if_cmp(CmpRel::Eq, op, Rhs::Imm('*' as i64), |f| f.assign_imm(p, 2));
    p
}

fn build() -> Program {
    let mut pb = ProgramBuilder::new();
    let len_g = input_reader(&mut pb);

    pb.func("main", 0, move |f| {
        let buf = f.call("read_input", &[]);
        let lg = f.global_addr(len_g);
        let len = f.load8(lg, 0);

        let vslot = f.local(64 * 8);
        let vstk = f.local_addr(vslot);
        let oslot = f.local(64 * 8);
        let ostk = f.local_addr(oslot);
        let vsp = f.iconst(0);
        let osp = f.iconst(0);
        let total = f.iconst(0);
        let i = f.iconst(0);

        f.while_cmp(
            |f| (CmpRel::Lt, f.use_of(i), Rhs::Reg(len)),
            |f| {
                let p = f.add(buf, i);
                let c = f.load1(p, 0);
                let i1 = f.addi(i, 1);
                f.assign(i, i1);

                // Digits: accumulate a number, push it.
                let isd_lo = f.set_cmp(CmpRel::Ge, c, Rhs::Imm('0' as i64));
                let isd_hi = f.set_cmp(CmpRel::Le, c, Rhs::Imm('9' as i64));
                let isd = f.and(isd_lo, isd_hi);
                f.if_cmp(CmpRel::Ne, isd, Rhs::Imm(0), |f| {
                    let n = f.addi(c, -('0' as i64));
                    f.loop_(|f| {
                        let p = f.add(buf, i);
                        let d = f.load1(p, 0);
                        let lo = f.set_cmp(CmpRel::Ge, d, Rhs::Imm('0' as i64));
                        let hi = f.set_cmp(CmpRel::Le, d, Rhs::Imm('9' as i64));
                        let dd = f.and(lo, hi);
                        f.if_cmp(CmpRel::Eq, dd, Rhs::Imm(0), |f| f.break_());
                        let n10 = f.muli(n, 10);
                        let dv = f.addi(d, -('0' as i64));
                        let n2 = f.add(n10, dv);
                        f.assign(n, n2);
                        let i2 = f.addi(i, 1);
                        f.assign(i, i2);
                    });
                    let off = f.shli(vsp, 3);
                    let vp = f.add(vstk, off);
                    f.store8(n, vp, 0);
                    let v1 = f.addi(vsp, 1);
                    f.assign(vsp, v1);
                    f.continue_();
                });

                // Operators: reduce while the top has ≥ precedence.
                let isplus = f.set_cmp(CmpRel::Eq, c, Rhs::Imm('+' as i64));
                let isstar = f.set_cmp(CmpRel::Eq, c, Rhs::Imm('*' as i64));
                let isop = f.or(isplus, isstar);
                f.if_cmp(CmpRel::Ne, isop, Rhs::Imm(0), |f| {
                    let myprec = prec_of(f, c);
                    f.loop_(|f| {
                        f.if_cmp(CmpRel::Eq, osp, Rhs::Imm(0), |f| f.break_());
                        let topoff = f.addi(osp, -1);
                        let toff = f.shli(topoff, 3);
                        let tp = f.add(ostk, toff);
                        let top = f.load8(tp, 0);
                        let tprec = prec_of(f, top);
                        f.if_cmp(CmpRel::Lt, tprec, Rhs::Reg(myprec), |f| f.break_());
                        emit_reduce(f, vstk, vsp, ostk, osp);
                    });
                    let off = f.shli(osp, 3);
                    let op = f.add(ostk, off);
                    f.store8(c, op, 0);
                    let o1 = f.addi(osp, 1);
                    f.assign(osp, o1);
                    f.continue_();
                });

                f.if_cmp(CmpRel::Eq, c, Rhs::Imm('(' as i64), |f| {
                    let off = f.shli(osp, 3);
                    let op = f.add(ostk, off);
                    f.store8(c, op, 0);
                    let o1 = f.addi(osp, 1);
                    f.assign(osp, o1);
                    f.continue_();
                });

                f.if_cmp(CmpRel::Eq, c, Rhs::Imm(')' as i64), |f| {
                    f.loop_(|f| {
                        f.if_cmp(CmpRel::Eq, osp, Rhs::Imm(0), |f| f.break_());
                        let topoff = f.addi(osp, -1);
                        let toff = f.shli(topoff, 3);
                        let tp = f.add(ostk, toff);
                        let top = f.load8(tp, 0);
                        f.if_cmp(CmpRel::Eq, top, Rhs::Imm('(' as i64), |f| {
                            let o1 = f.addi(osp, -1);
                            f.assign(osp, o1);
                            f.break_();
                        });
                        emit_reduce(f, vstk, vsp, ostk, osp);
                    });
                    f.continue_();
                });

                f.if_cmp(CmpRel::Eq, c, Rhs::Imm(';' as i64), |f| {
                    f.while_cmp(
                        |f| (CmpRel::Gt, f.use_of(osp), Rhs::Imm(0)),
                        |f| emit_reduce(f, vstk, vsp, ostk, osp),
                    );
                    f.if_cmp(CmpRel::Gt, vsp, Rhs::Imm(0), |f| {
                        let v1 = f.addi(vsp, -1);
                        f.assign(vsp, v1);
                        let off = f.shli(vsp, 3);
                        let vp = f.add(vstk, off);
                        let v = f.load8(vp, 0);
                        let t1 = f.add(total, v);
                        let t2 = f.andi(t1, 0x3fff_ffff);
                        f.assign(total, t2);
                    });
                    f.continue_();
                });
                // Whitespace and anything else: skip.
            },
        );

        f.syscall_void(sys::PRINT, &[buf, f.use_of(i)]);
        f.ret(Some(total));
    });

    pb.build().expect("gcc kernel is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_spec, Scale};
    use shift_core::{Granularity, Mode, ShiftOptions};

    #[test]
    fn evaluates_expressions_correctly() {
        // Cross-check the guest evaluator against a host-side evaluator on
        // the same generated input.
        let text = input(Scale::Test);
        let expect = host_eval(&text);
        let b = bench();
        let r = run_spec(&b, Mode::Uninstrumented, Scale::Test, true);
        assert_eq!(r.checksum(), expect);
    }

    fn host_eval(text: &[u8]) -> i64 {
        let mut total: i64 = 0;
        for stmt in text.split(|&b| b == b';') {
            let s: String =
                stmt.iter().map(|&b| b as char).filter(|c| !c.is_whitespace()).collect();
            if s.is_empty() {
                continue;
            }
            let (v, _) = eval_expr(s.as_bytes(), 0);
            total = (total + v) & 0x3fff_ffff;
        }
        total
    }

    // Precedence-climbing reference evaluator matching the guest's
    // wrap-to-32-bit multiply.
    fn eval_expr(s: &[u8], mut i: usize) -> (i64, usize) {
        let (mut acc, ni) = eval_term(s, i);
        i = ni;
        while i < s.len() && s[i] == b'+' {
            let (t, ni) = eval_term(s, i + 1);
            acc += t;
            i = ni;
        }
        (acc, i)
    }

    fn eval_term(s: &[u8], mut i: usize) -> (i64, usize) {
        let (mut acc, ni) = eval_atom(s, i);
        i = ni;
        while i < s.len() && s[i] == b'*' {
            let (t, ni) = eval_atom(s, i + 1);
            acc = (acc * t) & 0xffff_ffff;
            i = ni;
        }
        (acc, i)
    }

    fn eval_atom(s: &[u8], mut i: usize) -> (i64, usize) {
        if s[i] == b'(' {
            let (v, ni) = eval_expr(s, i + 1);
            return (v, ni + 1); // skip ')'
        }
        let mut v = 0i64;
        while i < s.len() && s[i].is_ascii_digit() {
            v = v * 10 + i64::from(s[i] - b'0');
            i += 1;
        }
        (v, i)
    }

    #[test]
    fn compare_relaxation_dominates_this_kernel() {
        let b = bench();
        let base =
            run_spec(&b, Mode::Shift(ShiftOptions::baseline(Granularity::Byte)), Scale::Test, true);
        let relax = base.stats.cycles_for(shift_isa::Provenance::Relax);
        assert!(
            relax * 4 > base.stats.instrumentation_cycles(),
            "gcc-like code should be relax-heavy: {relax} of {}",
            base.stats.instrumentation_cycles()
        );
    }
}
