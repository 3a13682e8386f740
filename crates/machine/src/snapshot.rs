//! Guest snapshots, fault injection, and state digests.
//!
//! The recovery layer (shift-core) snapshots the machine at request
//! boundaries and rolls back on a violation or fault, so one malicious or
//! wedged request cannot take down a long-running server. A [`Snapshot`]
//! is a value: a full copy of the architected CPU state (GPRs with NaT
//! bits, predicates, branch registers, `UNAT`, `ip`) and a memory
//! [`Checkpoint`] — the page table by reference, sharing the pristine
//! image's pages, plus copies of only the instance's privately owned pages.
//! A per-request snapshot costs in proportion to the instance's owned
//! pages, not the address space, and it owns everything it restores, so
//! any number can be live and each restores any number of times.
//!
//! [`Injection`] describes the transient events the fault-injection harness
//! drives through [`crate::Machine::inject_after`]: NaT-bit flips, tag-bitmap
//! byte corruption, and spurious architectural faults, delivered after a
//! countdown of retired instructions so they land mid-run deterministically.

use shift_isa::Gpr;

use crate::cpu::Cpu;
use crate::fault::Fault;
use crate::mem::Checkpoint;

/// A restorable point in a guest's execution.
///
/// Created by [`crate::Machine::snapshot`]; restored by
/// [`crate::Machine::restore`], as often and in whatever order the caller
/// likes. Timing state (cache contents, accumulated statistics) is
/// deliberately *not* rolled back: recovery rewinds what the guest can
/// observe, while cycle accounting keeps recording what actually happened,
/// recovery included.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub(crate) cpu: Cpu,
    pub(crate) mem: Checkpoint,
}

impl Snapshot {
    /// The memory half, for [`crate::Memory::dirty_pages`].
    pub fn mem(&self) -> &Checkpoint {
        &self.mem
    }
}

/// A transient event the fault-injection harness can deliver mid-run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Injection {
    /// Toggles the NaT bit of a register, leaving its value intact — models
    /// a bit flip in the register file's NaT bank.
    FlipNat {
        /// Register whose NaT bit is toggled.
        reg: Gpr,
    },
    /// XORs one byte of memory — aimed at tag-bitmap bytes in region 0 to
    /// model corruption of the in-memory taint state. Injection into an
    /// unmapped address is a no-op (provably benign).
    CorruptByte {
        /// Byte address to corrupt.
        addr: u64,
        /// Mask XORed into the byte (0 is a no-op).
        xor: u8,
    },
    /// Raises an architectural fault out of thin air — models a transient
    /// unmapped/unaligned access the guest did not architecturally make.
    Fault(Fault),
}

/// The 64-bit FNV prime.
const FNV_PRIME: u64 = 0x1000_0000_01B3;

/// Longest zero run folded with one table lookup; longer runs take several.
const ZERO_RUN_MAX: usize = 4096;

/// `FNV_PRIME^k` for `k` in `0..=ZERO_RUN_MAX` (wrapping).
static PRIME_POWERS: [u64; ZERO_RUN_MAX + 1] = {
    let mut t = [1u64; ZERO_RUN_MAX + 1];
    let mut k = 1;
    while k <= ZERO_RUN_MAX {
        t[k] = t[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    t
};

/// Incremental FNV-1a hasher used for byte-for-byte state digests.
#[derive(Clone, Debug)]
pub(crate) struct Fnv(pub u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    #[inline]
    pub(crate) fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    #[inline]
    pub(crate) fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Hashes `bs` exactly as [`Fnv::byte`] on each byte would. A zero byte
    /// only multiplies the state by the prime (the XOR is a no-op), so a
    /// run of `k` zeros is one multiplication by `FNV_PRIME^k`. Guest pages
    /// are mostly zero, and runs are found 8 bytes at a time.
    pub(crate) fn bytes(&mut self, bs: &[u8]) {
        let mut i = 0;
        while i < bs.len() {
            if bs[i] != 0 {
                self.byte(bs[i]);
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while let Some(w) = bs.get(j..j + 8) {
                if w != [0; 8] {
                    break;
                }
                j += 8;
            }
            while j < bs.len() && bs[j] == 0 {
                j += 1;
            }
            self.zeros(j - i);
            i = j;
        }
    }

    /// Folds `k` zero bytes.
    fn zeros(&mut self, mut k: usize) {
        while k > ZERO_RUN_MAX {
            self.0 = self.0.wrapping_mul(PRIME_POWERS[ZERO_RUN_MAX]);
            k -= ZERO_RUN_MAX;
        }
        self.0 = self.0.wrapping_mul(PRIME_POWERS[k]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference(bs: &[u8]) -> u64 {
        let mut h = Fnv::new();
        for &b in bs {
            h.byte(b);
        }
        h.0
    }

    /// Slices built from alternating zero runs and nonzero bursts: zero
    /// runs at either end, runs longer than the power table, and runs that
    /// straddle the 8-byte scan in every alignment.
    fn zero_heavy() -> impl Strategy<Value = Vec<u8>> {
        let zero_run = prop_oneof![0usize..24, 0usize..600, 4090usize..4110, 8000usize..13000];
        let burst = prop::collection::vec(1u8..=255, 0..12);
        prop::collection::vec((zero_run, burst), 0..6).prop_map(|parts| {
            let mut out = Vec::new();
            for (zeros, burst) in parts {
                out.resize(out.len() + zeros, 0);
                out.extend_from_slice(&burst);
            }
            out
        })
    }

    proptest! {
        #[test]
        fn bytes_matches_the_byte_at_a_time_reference(bs in zero_heavy(), lead in 0usize..9) {
            let mut h = Fnv::new();
            h.bytes(&bs[lead.min(bs.len())..]);
            prop_assert_eq!(h.0, reference(&bs[lead.min(bs.len())..]));
        }
    }

    #[test]
    fn all_zero_and_empty_slices_match() {
        for n in [0usize, 1, 7, 8, 9, 4096, 4097, 8192, 8193, 12_345] {
            let bs = vec![0u8; n];
            let mut h = Fnv::new();
            h.bytes(&bs);
            assert_eq!(h.0, reference(&bs), "{n} zeros");
        }
    }
}
