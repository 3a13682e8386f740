//! # shift-machine — the simulated Itanium-like processor
//!
//! An in-order functional simulator with a cycle cost model for the ISA
//! defined in [`shift_isa`]. It implements the deferred-exception semantics
//! SHIFT builds on (§2.2 of the paper):
//!
//! * every GPR carries a NaT bit, OR-propagated through computation;
//! * speculative loads (`ld*.s`) record failures (unmapped or unimplemented
//!   addresses, NaT address registers) in the target's NaT bit instead of
//!   faulting;
//! * `chk.s` branches to recovery code when the NaT bit is set;
//! * NaT-*consumption* faults fire when NaT'd registers reach places where
//!   deferral is impossible: stores (other than `st8.spill`), non-speculative
//!   address uses, and branch registers — the last being the hardware half of
//!   policy L3;
//! * `st8.spill`/`ld8.fill` round-trip NaT bits through the `UNAT` register.
//!
//! The cost model is in-order and single-issue: each instruction retires
//! after its base latency (see [`shift_isa::CostModel`]) plus any memory
//! stall from the two-level [`cache`] model, and its cycles are attributed to
//! the instruction's [`shift_isa::Provenance`] — that attribution regenerates
//! the paper's Figure 9 breakdown exactly.
//!
//! The machine knows nothing about taint policies: the host runtime
//! (`shift-core`) supplies an [`Os`] implementation that handles
//! [`shift_isa::Op::Syscall`] traps, implements taint sources/sinks, and may
//! stop the run with a policy [`Violation`].
//!
//! ## Example
//!
//! ```
//! use shift_isa::{Insn, Op, Gpr};
//! use shift_machine::{Exit, Image, Machine, NullOs};
//!
//! let image = Image::builder()
//!     .code(vec![
//!         Insn::new(Op::MovI { dst: Gpr::R8, imm: 42 }),
//!         Insn::new(Op::Halt),
//!     ])
//!     .build();
//! let mut m = Machine::new(&image);
//! assert_eq!(m.run(&mut NullOs, 1_000), Exit::Halted(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
pub mod cache;
mod cpu;
mod exec;
mod fault;
mod image;
pub mod layout;
mod mem;
mod seed;
mod snapshot;
mod stats;

/// The one modelled processor's instruction latencies. A constant, not a
/// per-machine field: every experiment runs the same Itanium 2, so the
/// stepper and the superblock decoder read the same table.
pub(crate) const COST: shift_isa::CostModel = shift_isa::CostModel::ITANIUM2;

pub use cache::CacheHierarchy;
pub use cpu::{Cpu, RegVal};
pub use exec::{Machine, NullOs, Os, StepOut, SuperblockStats, SysResult};
pub use fault::{Fault, NatFaultKind};
pub use image::{Image, ImageBuilder};
pub use mem::{Checkpoint, MemError, Memory, PAGE_SIZE};
pub use seed::MachineSeed;
pub use snapshot::{Injection, Snapshot};
pub use stats::{Exit, Stats, Violation};

// Observability types surface through the machine's enable/accessor
// methods; re-export them so downstream crates need not depend on
// `shift-obs` directly for the common paths.
pub use shift_obs::{FuncSpan, Profiler, Sample, TaintObserver, TraceEvent, TraceKind, TraceRing};
