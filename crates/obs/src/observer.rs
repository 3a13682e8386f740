//! Taint-flow provenance tracking.
//!
//! [`TaintObserver`] shadows the modelled machine's taint state with
//! *origin* information the hardware does not keep: which source channel
//! each tainted byte came from, which register carried it, and where it was
//! last stored. The machine calls the `on_*` hooks from its execute stage
//! (behind an `Option` guard, so the disabled cost is one branch); the
//! runtime reports births at syscall sites and renders provenance chains at
//! policy sinks. Births, propagations and sink hits are counted, not
//! stored: the counters feed the `journal.*` metrics.
//!
//! The observer is diagnostic state only: it never influences execution,
//! costs no modelled cycles, and is excluded from `state_digest()`.
//!
//! ## How store tracking works
//!
//! The instrumented store sequence always executes `tnat pX, pY = src`
//! immediately before writing the data (the tag byte is stored under the
//! same predicate). The observer stages the source register's origin at
//! `tnat` and lets the next data store consume it — matching the hardware,
//! where the store's tag write is driven by the source register's NaT bit.
//! Stores with no staged origin (clean stores skip the `tnat`) clear the
//! written range, mirroring the tag bitmap.

use std::collections::HashMap;

use shift_isa::Gpr;

/// Origin of one tainted byte in guest memory.
#[derive(Clone, Copy, Debug)]
struct ByteTaint {
    origin: u32,
    src_off: u32,
    via_reg: Option<u8>,
    store_addr: Option<u64>,
}

/// Origin carried by a tainted (NaT) register.
#[derive(Clone, Copy, Debug)]
struct RegTaint {
    origin: u32,
    src_off: u32,
}

/// Origin staged by a `tnat` for the data store that follows it.
#[derive(Clone, Copy, Debug)]
struct Pending {
    nat: bool,
    taint: Option<RegTaint>,
    reg: u8,
}

/// Shadow provenance state for taint-flow tracing.
#[derive(Clone, Debug, Default)]
pub struct TaintObserver {
    /// Source labels; a `ByteTaint::origin` indexes this table.
    origins: Vec<String>,
    /// Per-byte origin of tainted guest memory.
    mem: HashMap<u64, ByteTaint>,
    /// Per-register origin stash.
    reg: [Option<RegTaint>; Gpr::COUNT],
    /// Origin staged by the most recent `tnat`, consumed by the next store.
    pending: Option<Pending>,
    /// Tainted runtime writes (taint births from a source channel).
    births: u64,
    /// Loads, stores and spills that carried a known origin.
    propagations: u64,
    /// Policy sinks that rendered a provenance chain.
    sinks: u64,
    /// Chain captured at the last taken `chk.s` (for GUARD alerts).
    guard: Option<String>,
    /// Chain captured at a NaT-consumption fault (for L1/L2 detections).
    fault: Option<String>,
    /// Most recent birth origin, used as a last-resort chain fallback.
    last_birth: Option<u32>,
}

impl TaintObserver {
    /// A fresh observer.
    pub fn new() -> TaintObserver {
        TaintObserver::default()
    }

    /// Taint births seen: tainted runtime writes into guest memory.
    pub fn births(&self) -> u64 {
        self.births
    }

    /// Propagations seen: loads, stores and spills that moved a known origin
    /// into a register or memory.
    pub fn propagations(&self) -> u64 {
        self.propagations
    }

    /// Sink hits seen: policy sinks that rendered a provenance chain.
    pub fn sinks(&self) -> u64 {
        self.sinks
    }

    /// Chain captured when a NaT-consumption fault fired, if any.
    pub fn fault_chain(&self) -> Option<&str> {
        self.fault.as_deref()
    }

    /// Chain captured at the last taken `chk.s` guard, if any.
    pub fn guard_chain(&self) -> Option<&str> {
        self.guard.as_deref()
    }

    // ---- runtime-facing hooks -------------------------------------------

    /// Records a runtime write into guest memory. Tainted writes are taint
    /// *births* from the named source channel (`label`); clean writes clear
    /// any stale origins in the range.
    pub fn record_runtime_write(&mut self, label: &str, addr: u64, len: u64, tainted: bool) {
        if !tainted {
            for a in addr..addr.saturating_add(len) {
                self.mem.remove(&a);
            }
            return;
        }
        let origin = self.origins.len() as u32;
        self.origins.push(label.to_string());
        self.last_birth = Some(origin);
        for i in 0..len {
            self.mem.insert(
                addr + i,
                ByteTaint { origin, src_off: i as u32, via_reg: None, store_addr: None },
            );
        }
        self.births += 1;
    }

    /// Renders the provenance chain for a policy sink inspecting `len`
    /// bytes at `addr`, where `taint[i]` flags byte `i` as tainted. Returns
    /// `None` when nothing in the range is tainted or no origin is known.
    pub fn sink_chain(&self, sink: &str, addr: u64, taint: &[bool]) -> Option<String> {
        let first = taint
            .iter()
            .enumerate()
            .filter(|(_, t)| **t)
            .find_map(|(i, _)| self.mem.get(&(addr + i as u64)))?;
        let (mut lo, mut hi) = (first.src_off, first.src_off);
        for (i, t) in taint.iter().enumerate() {
            if *t {
                if let Some(bt) = self.mem.get(&(addr + i as u64)) {
                    if bt.origin == first.origin {
                        lo = lo.min(bt.src_off);
                        hi = hi.max(bt.src_off);
                    }
                }
            }
        }
        let mut chain = format!("{} bytes {}..{}", self.origins[first.origin as usize], lo, hi + 1);
        if let Some(r) = first.via_reg {
            chain.push_str(&format!(" \u{2192} r{r}"));
        }
        if let Some(a) = first.store_addr {
            chain.push_str(&format!(" \u{2192} store @{a:#x}"));
        }
        chain.push_str(&format!(" \u{2192} {sink} arg"));
        Some(chain)
    }

    /// Counts a sink hit whose chain was already rendered.
    pub fn record_sink_event(&mut self) {
        self.sinks += 1;
    }

    // ---- machine-facing hooks -------------------------------------------

    /// A load (or register fill) completed into `dst` from `addr`.
    pub fn on_load(&mut self, dst: Gpr, addr: u64, size: u64) {
        let hit = (0..size).find_map(|i| self.mem.get(&(addr + i)).copied());
        self.reg[dst.index()] = hit.map(|bt| RegTaint { origin: bt.origin, src_off: bt.src_off });
        self.propagations += u64::from(hit.is_some());
    }

    /// A speculative load deferred (manufactured NaT, no data read).
    pub fn on_load_deferred(&mut self, dst: Gpr) {
        self.reg[dst.index()] = None;
    }

    /// A two-source ALU op wrote `dst`; `nat` is the result's NaT bit.
    pub fn on_alu2(&mut self, dst: Gpr, nat: bool, a: (Gpr, bool), b: (Gpr, bool)) {
        if !nat {
            self.reg[dst.index()] = None;
            return;
        }
        // Prefer an origin carried by a NaT source; fall back to any source
        // origin (laundered values are clean but keep their stash); keep the
        // destination's own stash last (covers `add dst = dst, nat_src`
        // re-taint where only the manufactured-NaT register is NaT).
        let pick = [(a.0, a.1), (b.0, b.1)]
            .iter()
            .filter(|(_, n)| *n)
            .find_map(|(r, _)| self.reg[r.index()])
            .or_else(|| [a.0, b.0].iter().find_map(|r| self.reg[r.index()]));
        if let Some(rt) = pick {
            self.reg[dst.index()] = Some(rt);
        }
    }

    /// A single-source ALU op (immediate ALU, extract) wrote `dst`.
    pub fn on_alu1(&mut self, dst: Gpr, nat: bool, src: Gpr) {
        if !nat {
            self.reg[dst.index()] = None;
            return;
        }
        if let Some(rt) = self.reg[src.index()] {
            self.reg[dst.index()] = Some(rt);
        } else if dst.index() != src.index() {
            self.reg[dst.index()] = None;
        }
    }

    /// A register-to-register move (copies the stash verbatim).
    pub fn on_mov(&mut self, dst: Gpr, src: Gpr) {
        self.reg[dst.index()] = self.reg[src.index()];
    }

    /// An immediate move wrote `dst` (always clean).
    pub fn on_movi(&mut self, dst: Gpr) {
        self.reg[dst.index()] = None;
    }

    /// `tnat` tested `src` (NaT bit `nat`): stage its origin for the data
    /// store that follows in the instrumented store sequence.
    pub fn on_tnat(&mut self, src: Gpr, nat: bool) {
        self.pending = Some(Pending { nat, taint: self.reg[src.index()], reg: src.index() as u8 });
    }

    /// `tclr` cleared `dst`'s NaT bit. Relaxation `tclr`s launder a value
    /// that is immediately re-tainted, so the stash survives; sanitization
    /// `tclr`s genuinely clear the origin.
    pub fn on_tclr(&mut self, dst: Gpr, relax: bool) {
        if !relax {
            self.reg[dst.index()] = None;
        }
    }

    /// A compare executed. Comparison relaxation sequences stage a `tnat`
    /// that no store consumes; drop it so it cannot leak into an unrelated
    /// clean store.
    pub fn on_cmp(&mut self) {
        self.pending = None;
    }

    /// A data store of `size` bytes at `addr` completed: consume the staged
    /// `tnat` origin, mirroring the tag write the instrumentation performs.
    pub fn on_store(&mut self, addr: u64, size: u64) {
        let pending = self.pending.take();
        match pending {
            Some(p) if p.nat => {
                if let Some(rt) = p.taint {
                    for i in 0..size {
                        self.mem.insert(
                            addr + i,
                            ByteTaint {
                                origin: rt.origin,
                                src_off: rt.src_off + i as u32,
                                via_reg: Some(p.reg),
                                store_addr: Some(addr),
                            },
                        );
                    }
                    self.propagations += 1;
                }
                // Without a recorded origin the tag still says tainted:
                // leave any prior byte origins in place rather than
                // inventing or erasing.
            }
            _ => {
                for i in 0..size {
                    self.mem.remove(&(addr + i));
                }
            }
        }
    }

    /// A register spill (`st8.spill`) banked `src` at `addr`; `nat` is the
    /// spilled NaT bit. Spills write taint straight from the register, with
    /// no preceding `tnat`.
    pub fn on_spill(&mut self, src: Gpr, addr: u64, nat: bool) {
        self.pending = None;
        if !nat {
            for i in 0..8 {
                self.mem.remove(&(addr + i));
            }
            return;
        }
        if let Some(rt) = self.reg[src.index()] {
            for i in 0..8u64 {
                self.mem.insert(
                    addr + i,
                    ByteTaint {
                        origin: rt.origin,
                        src_off: rt.src_off,
                        via_reg: Some(src.index() as u8),
                        store_addr: Some(addr),
                    },
                );
            }
            self.propagations += 1;
        }
    }

    /// A NaT-consumption fault is about to fire on `reg`: capture the chain
    /// so the detection report can name the source channel.
    pub fn on_nat_fault(&mut self, reg: Gpr, kind: &str, ip: usize) {
        let chain = match self.reg[reg.index()] {
            Some(rt) => format!(
                "{} byte {} \u{2192} r{} \u{2192} nat-consumption fault ({kind}) @ip {ip}",
                self.origins[rt.origin as usize],
                rt.src_off,
                reg.index()
            ),
            None => match self.last_birth {
                Some(o) => format!(
                    "{} \u{2192} \u{2026} \u{2192} r{} \u{2192} nat-consumption fault ({kind}) @ip {ip}",
                    self.origins[o as usize],
                    reg.index()
                ),
                None => format!(
                    "tainted r{} \u{2192} nat-consumption fault ({kind}) @ip {ip}",
                    reg.index()
                ),
            },
        };
        self.fault = Some(chain);
    }

    /// A `chk.s` guard branched to recovery on `src`: capture the chain for
    /// the GUARD alert the handler will raise.
    pub fn on_chk_taken(&mut self, src: Gpr) {
        let chain = match self.reg[src.index()] {
            Some(rt) => format!(
                "{} byte {} \u{2192} r{} \u{2192} chk.s guard",
                self.origins[rt.origin as usize],
                rt.src_off,
                src.index()
            ),
            None => match self.last_birth {
                Some(o) => format!(
                    "{} \u{2192} \u{2026} \u{2192} r{} \u{2192} chk.s guard",
                    self.origins[o as usize],
                    src.index()
                ),
                None => format!("tainted r{} \u{2192} chk.s guard", src.index()),
            },
        };
        self.guard = Some(chain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R9: Gpr = Gpr::R9;
    const R10: Gpr = Gpr::R10;

    #[test]
    fn birth_load_store_sink_renders_the_full_chain() {
        let mut o = TaintObserver::new();
        o.record_runtime_write("net_read msg#0", 0x1000, 16, true);
        // Guest loads byte 4, stores it at 0x6000f8 (tnat precedes store).
        o.on_load(R9, 0x1004, 1);
        o.on_tnat(R9, true);
        o.on_store(0x6000f8, 1);
        let chain = o.sink_chain("file_open", 0x6000f8, &[true]).unwrap();
        assert_eq!(
            chain,
            "net_read msg#0 bytes 4..5 \u{2192} r9 \u{2192} store @0x6000f8 \u{2192} file_open arg"
        );
    }

    #[test]
    fn class_counters_split_by_event_kind() {
        let mut o = TaintObserver::new();
        o.record_runtime_write("net_read msg#0", 0x1000, 8, true);
        o.record_runtime_write("file_read data", 0x2000, 8, false);
        o.on_load(R9, 0x1000, 1);
        o.on_load(R10, 0x2000, 1);
        o.on_tnat(R9, true);
        o.on_store(0x6000, 1);
        o.on_spill(R9, 0x8000, true);
        o.record_sink_event();
        // One tainted write, a load/store/spill that moved its origin (the
        // clean load moves none), and one sink.
        assert_eq!((o.births(), o.propagations(), o.sinks()), (1, 3, 1));
    }

    #[test]
    fn runtime_written_bytes_chain_without_register_hops() {
        let mut o = TaintObserver::new();
        o.record_runtime_write("arg#0", 0x2000, 4, true);
        let chain = o.sink_chain("file_open", 0x2000, &[true, true, true, true]).unwrap();
        assert_eq!(chain, "arg#0 bytes 0..4 \u{2192} file_open arg");
    }

    #[test]
    fn clean_store_clears_origins() {
        let mut o = TaintObserver::new();
        o.record_runtime_write("kbd_read line#0", 0x3000, 1, true);
        // A clean store (no tnat staged) overwrites the byte.
        o.on_store(0x3000, 1);
        assert!(o.sink_chain("html_out", 0x3000, &[true]).is_none());
    }

    #[test]
    fn clean_runtime_write_clears_origins() {
        let mut o = TaintObserver::new();
        o.record_runtime_write("net_read msg#0", 0x3000, 8, true);
        o.record_runtime_write("file_read data", 0x3000, 8, false);
        assert!(o.sink_chain("html_out", 0x3000, &[true; 8]).is_none());
    }

    #[test]
    fn alu_keeps_origin_through_retaint() {
        let mut o = TaintObserver::new();
        o.record_runtime_write("net_read msg#0", 0x1000, 8, true);
        o.on_load(R9, 0x1000, 1);
        // Baseline laundering: plain reload leaves the stash, re-taint adds
        // a manufactured NaT register with no origin of its own.
        o.on_alu2(R9, true, (R9, false), (Gpr::R31, true));
        o.on_tnat(R9, true);
        o.on_store(0x5000, 1);
        assert!(o.sink_chain("sql_exec", 0x5000, &[true]).is_some());
    }

    #[test]
    fn nat_fault_chain_names_the_source() {
        let mut o = TaintObserver::new();
        o.record_runtime_write("net_read msg#3", 0x1000, 8, true);
        o.on_load(R10, 0x1002, 1);
        o.on_nat_fault(R10, "store value", 42);
        let chain = o.fault_chain().unwrap();
        assert!(chain.contains("net_read msg#3"));
        assert!(chain.contains("r10"));
        assert!(chain.contains("store value"));
    }

    #[test]
    fn cmp_drops_a_stale_tnat_stage() {
        let mut o = TaintObserver::new();
        o.record_runtime_write("net_read msg#0", 0x1000, 1, true);
        o.on_load(R9, 0x1000, 1);
        // Comparison relaxation: tnat, then the cmp — no store consumes it.
        o.on_tnat(R9, true);
        o.on_cmp();
        // A later clean store must not inherit the stale stage.
        o.on_store(0x7000, 1);
        assert!(o.sink_chain("html_out", 0x7000, &[true]).is_none());
    }

    #[test]
    fn spill_and_fill_round_trip_keeps_the_origin() {
        let mut o = TaintObserver::new();
        o.record_runtime_write("file_read cfg", 0x1000, 8, true);
        o.on_load(R9, 0x1000, 8);
        o.on_spill(R9, 0x8000, true);
        o.on_movi(R9);
        o.on_load(R10, 0x8000, 8);
        o.on_tnat(R10, true);
        o.on_store(0x9000, 8);
        let chain = o.sink_chain("system", 0x9000, &[true; 8]).unwrap();
        assert!(chain.contains("file_read cfg"));
        assert!(chain.contains("r10"));
    }
}
