//! # shift-workloads — the performance-experiment guest programs
//!
//! Two families, matching the paper's §6 evaluation:
//!
//! * [`spec`] — eight compute kernels standing in for the SPEC-INT2000
//!   subset the paper measures (gzip, gcc, crafty, bzip2, vpr, mcf, parser,
//!   twolf). Each kernel is written in the guest IR, reads its reference
//!   input from a (taintable) disk file, and mirrors the *character* of its
//!   namesake — load/store density, compare density, and how much tainted
//!   data flows through the hot loop — because those three axes are what
//!   drive Figures 7–9;
//! * [`apache`] — an HTTP-ish static-file server plus a request generator,
//!   standing in for Apache + `ab` in Figure 6. Per-request CPU work
//!   (request parsing, header construction) is instrumented guest code;
//!   file and socket transfer time comes from the runtime's I/O cost model,
//!   so the experiment preserves the paper's I/O-dominated structure.
//!
//! The [`run_spec`] / [`apache::run_apache`] helpers compile and execute a
//! workload under any [`Mode`] and return cycle accounting, which the bench
//! harness turns into the paper's tables and figures. Serving goes through
//! [`apache::apache_fleet`], the one definition of the Apache serving
//! session, and the [`chaos`] guest registry ([`chaos::guest`]) resolves a
//! guest's name to its program, fleet, world, requests and escape check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apache;
pub mod arrivals;
pub mod chaos;
mod harness;
pub mod spec;

pub use arrivals::ArrivalProcess;
pub use chaos::{escape_audit, master_seed, ChaosReport, ChaosSpec, EscapeVerdict, Rng};
pub use harness::{input_reader, rng_step, INPUT_FILE};
pub use spec::{all_benches, SpecBench};

use shift_core::{Mode, Shift, Source, Stats, TaintConfig, World};
use shift_machine::Exit;

/// Input-size scale for the SPEC-like kernels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Small inputs for unit tests (fast even uninstrumented-debug).
    Test,
    /// Reference inputs for the experiments.
    Reference,
}

/// Result of one SPEC-kernel run.
#[derive(Clone, Debug)]
pub struct SpecRun {
    /// How the run ended (must be `Halted(checksum)`).
    pub exit: Exit,
    /// Full cycle accounting.
    pub stats: Stats,
}

impl SpecRun {
    /// The kernel's checksum (its exit status).
    ///
    /// # Panics
    ///
    /// Panics if the run did not halt cleanly — kernels are benign; anything
    /// else is a false positive or a compiler bug.
    pub fn checksum(&self) -> i64 {
        match self.exit {
            Exit::Halted(v) => v,
            ref other => panic!("kernel did not halt cleanly: {other}"),
        }
    }
}

/// Compiles and runs a SPEC-like kernel.
///
/// `tainted` selects the Figure-7 input condition: `true` marks all data
/// read from disk as tainted ("-unsafe" bars), `false` leaves it clean
/// ("-safe" bars). The instrumented code is identical either way — only the
/// dynamic taint population differs.
pub fn run_spec(bench: &SpecBench, mode: Mode, scale: Scale, tainted: bool) -> SpecRun {
    let compiled = compile_spec(bench, mode);
    run_spec_precompiled(bench, &compiled, mode, scale, tainted)
}

/// Compiles a SPEC-like kernel under `mode` without running it.
///
/// Compilation depends only on the mode — not on the input scale or taint
/// condition — so one compiled program can serve several
/// [`run_spec_precompiled`] calls (e.g. Figure 7's tainted and untainted
/// bars of the same mode).
pub fn compile_spec(bench: &SpecBench, mode: Mode) -> shift_core::CompiledProgram {
    let program = (bench.build)();
    Shift::new(mode).compile(&program).expect("kernel compiles")
}

/// Runs an already-compiled kernel; see [`run_spec`] for the condition
/// semantics. `mode` must be the mode `compiled` was produced with (it
/// selects the runtime's tag granularity).
pub fn run_spec_precompiled(
    bench: &SpecBench,
    compiled: &shift_core::CompiledProgram,
    mode: Mode,
    scale: Scale,
    tainted: bool,
) -> SpecRun {
    let mut cfg = TaintConfig::default_secure();
    cfg.set_source(Source::Disk, tainted);
    let shift = Shift::new(mode).with_config(cfg).with_insn_limit(4_000_000_000);
    let world = World::new().file(INPUT_FILE, (bench.input)(scale));
    let report = shift.run_compiled(compiled, world);
    SpecRun { exit: report.exit, stats: report.stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_core::{Granularity, ShiftOptions};

    /// Every kernel must produce the same checksum in every compilation
    /// mode — the end-to-end differential test of the whole stack.
    #[test]
    fn all_kernels_agree_across_modes() {
        for bench in all_benches() {
            let baseline = run_spec(&bench, Mode::Uninstrumented, Scale::Test, true);
            let expect = baseline.checksum();
            assert_ne!(expect, 0, "{}: degenerate checksum", bench.name);
            for mode in [
                Mode::Shift(ShiftOptions::baseline(Granularity::Byte)),
                Mode::Shift(ShiftOptions::baseline(Granularity::Word)),
                Mode::Shift(ShiftOptions::enhanced(Granularity::Byte)),
                Mode::Shift(ShiftOptions::enhanced(Granularity::Word)),
                Mode::Shadow(Granularity::Byte),
            ] {
                let run = run_spec(&bench, mode, Scale::Test, true);
                assert_eq!(run.checksum(), expect, "{}: wrong result under {mode:?}", bench.name);
            }
        }
    }

    /// Tainted-input instrumented runs must be slower than the baseline,
    /// and the instrumentation share must be visible in the accounting.
    #[test]
    fn instrumentation_costs_cycles() {
        let bench = &all_benches()[0];
        let plain = run_spec(bench, Mode::Uninstrumented, Scale::Test, true);
        let byte = run_spec(
            bench,
            Mode::Shift(ShiftOptions::baseline(Granularity::Byte)),
            Scale::Test,
            true,
        );
        assert!(byte.stats.cycles > plain.stats.cycles);
        assert!(byte.stats.instrumentation_cycles() > 0);
        assert_eq!(plain.stats.instrumentation_cycles(), 0);
    }

    /// The "-safe" condition (untainted input) must not be slower than the
    /// "-unsafe" one: less taint means fewer NaT bits and cheaper dynamic
    /// behaviour, never more.
    #[test]
    fn safe_inputs_are_not_slower() {
        let bench = &all_benches()[0];
        let mode = Mode::Shift(ShiftOptions::baseline(Granularity::Byte));
        let unsafe_run = run_spec(bench, mode, Scale::Test, true);
        let safe_run = run_spec(bench, mode, Scale::Test, false);
        assert_eq!(unsafe_run.checksum(), safe_run.checksum());
        assert!(safe_run.stats.cycles <= unsafe_run.stats.cycles);
    }
}
