//! Architected CPU state: GPRs with NaT bits, predicates, branch registers,
//! `UNAT`, and the instruction pointer.

use shift_isa::{Br, Gpr, Pr};

/// A register value together with its NaT (deferred-exception / taint) bit.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RegVal {
    /// The 64-bit register contents.
    pub value: u64,
    /// The NaT bit; under SHIFT this *is* the taint tag.
    pub nat: bool,
}

impl RegVal {
    /// A non-NaT value.
    #[inline]
    pub const fn of(value: u64) -> RegVal {
        RegVal { value, nat: false }
    }

    /// A NaT'd register (value zeroed, as a speculative-load failure leaves
    /// it and as `tset` defines it).
    pub const NAT: RegVal = RegVal { value: 0, nat: true };
}

/// The architected register state.
#[derive(Clone, Debug)]
pub struct Cpu {
    gpr: [u64; Gpr::COUNT],
    nat: [bool; Gpr::COUNT],
    pr: [bool; Pr::COUNT],
    br: [u64; Br::COUNT],
    /// The `UNAT` application register: banked NaT bits for `st8.spill` /
    /// `ld8.fill`, indexed by bits 8:3 of the spill address.
    pub unat: u64,
    /// Instruction pointer (index into the code image).
    pub ip: usize,
}

impl Cpu {
    /// Resets all state: registers zero, predicates false (`p0` reads true
    /// regardless), `ip` at `entry`.
    pub fn new(entry: usize) -> Cpu {
        Cpu {
            gpr: [0; Gpr::COUNT],
            nat: [false; Gpr::COUNT],
            pr: [false; Pr::COUNT],
            br: [0; Br::COUNT],
            unat: 0,
            ip: entry,
        }
    }

    /// Reads a GPR (with its NaT bit). `r0` always reads as non-NaT zero:
    /// every write path skips `r0`, so its slot holds zero from
    /// [`Cpu::new`] on and the read needs no test.
    #[inline]
    pub fn gpr(&self, r: Gpr) -> RegVal {
        RegVal { value: self.gpr[r.index()], nat: self.nat[r.index()] }
    }

    /// Writes a GPR (with its NaT bit). Writes to `r0` are ignored.
    #[inline]
    pub fn set_gpr(&mut self, r: Gpr, v: RegVal) {
        if r != Gpr::R0 {
            self.gpr[r.index()] = v.value;
            self.nat[r.index()] = v.nat;
        }
    }

    /// Writes a GPR the caller knows is not `r0` — the superblock decoder
    /// lowers every `r0` destination of a register-writing kind to a no-op.
    #[inline]
    pub(crate) fn set_gpr_nz(&mut self, r: Gpr, v: RegVal) {
        debug_assert!(r != Gpr::R0, "r0 destination reached a specialised kind");
        self.gpr[r.index()] = v.value;
        self.nat[r.index()] = v.nat;
    }

    /// Convenience: writes a non-NaT value.
    #[inline]
    pub fn set_gpr_val(&mut self, r: Gpr, value: u64) {
        self.set_gpr(r, RegVal::of(value));
    }

    /// Reads a predicate register. `p0` always reads true.
    #[inline]
    pub fn pr(&self, p: Pr) -> bool {
        p == Pr::P0 || self.pr[p.index()]
    }

    /// Writes a predicate register. Writes to `p0` are ignored.
    #[inline]
    pub fn set_pr(&mut self, p: Pr, v: bool) {
        if p != Pr::P0 {
            self.pr[p.index()] = v;
        }
    }

    /// Reads a branch register.
    #[inline]
    pub fn br(&self, b: Br) -> u64 {
        self.br[b.index()]
    }

    /// Writes a branch register.
    #[inline]
    pub fn set_br(&mut self, b: Br, v: u64) {
        self.br[b.index()] = v;
    }

    /// The UNAT bit slot for a spill at `addr` (bits 8:3, like IA-64).
    #[inline]
    pub fn unat_slot(addr: u64) -> u32 {
        ((addr >> 3) & 63) as u32
    }

    /// Folds every piece of architected state into `h`, in a fixed order —
    /// two CPUs digest equal iff their observable state is identical.
    pub(crate) fn digest_into(&self, h: &mut crate::snapshot::Fnv) {
        for &g in &self.gpr {
            h.word(g);
        }
        for &n in &self.nat {
            h.byte(u8::from(n));
        }
        for &p in &self.pr {
            h.byte(u8::from(p));
        }
        for &b in &self.br {
            h.word(b);
        }
        h.word(self.unat);
        h.word(self.ip as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r0_reads_zero_and_ignores_writes() {
        let mut cpu = Cpu::new(0);
        cpu.set_gpr(Gpr::R0, RegVal { value: 99, nat: true });
        assert_eq!(cpu.gpr(Gpr::R0), RegVal::of(0));
    }

    #[test]
    fn p0_reads_true_and_ignores_writes() {
        let mut cpu = Cpu::new(0);
        assert!(cpu.pr(Pr::P0));
        cpu.set_pr(Pr::P0, false);
        assert!(cpu.pr(Pr::P0));
        cpu.set_pr(Pr::P3, true);
        assert!(cpu.pr(Pr::P3));
    }

    #[test]
    fn nat_round_trips_through_gpr() {
        let mut cpu = Cpu::new(0);
        cpu.set_gpr(Gpr::R5, RegVal::NAT);
        assert!(cpu.gpr(Gpr::R5).nat);
        assert_eq!(cpu.gpr(Gpr::R5).value, 0);
    }

    #[test]
    fn unat_slots_wrap_per_512_bytes() {
        assert_eq!(Cpu::unat_slot(0), 0);
        assert_eq!(Cpu::unat_slot(8), 1);
        assert_eq!(Cpu::unat_slot(63 * 8), 63);
        assert_eq!(Cpu::unat_slot(64 * 8), 0);
    }
}
