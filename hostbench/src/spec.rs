//! `spec-matrix`: the eight SPEC-like kernels at `Scale::Reference` under
//! the Figure 7/8 mode groups, one job per (kernel, mode, taint condition).
//!
//! The kernels' reference inputs are fixed; the seed only shuffles the
//! order in which the jobs run.

use shift_core::replay::exit_signature;
use shift_core::{
    CompiledProgram, Exit, Granularity, Json, Mode, Runtime, Shift, ShiftOptions, Source, Stats,
    TaintConfig, World,
};
use shift_ir::Program;
use shift_machine::Machine;
use shift_workloads::chaos::{derive, Rng};
use shift_workloads::{all_benches, Scale, SpecBench, INPUT_FILE};

use crate::gen::shuffle;
use crate::oracle::{has_str, has_u64, Oracle, DEFAULT_SEED};
use crate::trace::{Count, Layer, TimedOs, Tracer};
use crate::Workload;

/// Instruction budget of one kernel run (the figure harness's).
const INSN_LIMIT: u64 = 4_000_000_000;

/// The Figure 7/8 mode groups and the taint conditions each runs under, in
/// the figure harness's order.
fn groups() -> [(&'static str, Mode, &'static [bool]); 7] {
    let set_clr = |g| ShiftOptions { set_clr: true, nat_cmp: false, ..ShiftOptions::baseline(g) };
    [
        ("uninstrumented", Mode::Uninstrumented, &[true]),
        ("byte", Mode::Shift(ShiftOptions::baseline(Granularity::Byte)), &[true, false]),
        ("word", Mode::Shift(ShiftOptions::baseline(Granularity::Word)), &[true, false]),
        ("byte-set-clr", Mode::Shift(set_clr(Granularity::Byte)), &[true]),
        ("byte-enhanced", Mode::Shift(ShiftOptions::enhanced(Granularity::Byte)), &[true]),
        ("word-set-clr", Mode::Shift(set_clr(Granularity::Word)), &[true]),
        ("word-enhanced", Mode::Shift(ShiftOptions::enhanced(Granularity::Word)), &[true]),
    ]
}

struct Job {
    bench: usize,
    group: usize,
    tainted: bool,
    shift: Shift,
}

/// The workload: kernels, their inputs, and the jobs in canonical order.
pub struct SpecMatrix {
    benches: Vec<SpecBench>,
    programs: Vec<Program>,
    inputs: Vec<Vec<u8>>,
    jobs: Vec<Job>,
    /// Seeded run order: `order[i]` is the job run `i`-th.
    order: Vec<usize>,
    oracle: Oracle,
}

/// A round's outputs: `(exit, stats)` per job, in canonical job order.
pub struct Output(Vec<(Exit, Stats)>);

impl SpecMatrix {
    /// The workload at `seed`.
    pub fn new(seed: u64, oracle: Oracle) -> SpecMatrix {
        let benches = all_benches();
        let programs = benches.iter().map(|b| (b.build)()).collect();
        let inputs = benches.iter().map(|b| (b.input)(Scale::Reference)).collect();
        let mut jobs = Vec::new();
        for bench in 0..benches.len() {
            for (group, (_, mode, conds)) in groups().into_iter().enumerate() {
                for &tainted in conds {
                    let mut cfg = TaintConfig::default_secure();
                    cfg.set_source(Source::Disk, tainted);
                    let shift = Shift::new(mode).with_config(cfg).with_insn_limit(INSN_LIMIT);
                    jobs.push(Job { bench, group, tainted, shift });
                }
            }
        }
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        shuffle(&mut order, &mut Rng::new(derive(seed, "hostbench/spec-matrix")));
        SpecMatrix { benches, programs, inputs, jobs, order, oracle }
    }

    fn compiled<'p>(&self, p: &'p [CompiledProgram], job: &Job) -> &'p CompiledProgram {
        &p[job.bench * groups().len() + job.group]
    }

    fn world(&self, job: &Job) -> World {
        World::new().file(INPUT_FILE, self.inputs[job.bench].clone())
    }

    fn label(&self, job: &Job) -> (&'static str, &'static str) {
        (self.benches[job.bench].name, groups()[job.group].0)
    }

    /// Runs `job(k)` for every job `k` in the seeded order and returns the
    /// results in canonical order.
    fn in_order(&self, mut job: impl FnMut(usize) -> (Exit, Stats)) -> Output {
        let mut slots: Vec<Option<(Exit, Stats)>> = (0..self.jobs.len()).map(|_| None).collect();
        for &k in &self.order {
            slots[k] = Some(job(k));
        }
        Output(slots.into_iter().map(|s| s.expect("every job ran once")).collect())
    }
}

impl Workload for SpecMatrix {
    type Prepared = Vec<CompiledProgram>;
    type Output = Output;

    fn name(&self) -> &'static str {
        "spec-matrix"
    }

    fn ops(&self) -> u64 {
        self.jobs.len() as u64
    }

    fn shape(&self) -> String {
        let names: Vec<&str> = self.benches.iter().map(|b| b.name).collect();
        let bytes: usize = self.inputs.iter().map(Vec::len).sum();
        format!(
            "kernels={} mode_groups={} jobs={} compiles={} input_bytes={bytes} scale=reference",
            names.join(","),
            groups().len(),
            self.jobs.len(),
            self.programs.len() * groups().len()
        )
    }

    fn setup(&self, t: &mut Tracer) -> Vec<CompiledProgram> {
        let mut out = Vec::with_capacity(self.programs.len() * groups().len());
        for program in &self.programs {
            for (_, mode, _) in groups() {
                let compiled = t.span(Layer::Compile, |_| {
                    Shift::new(mode).compile(program).expect("kernels compile")
                });
                t.count(Count::Programs, 1);
                t.count(Count::InsnsEmitted, compiled.image.insn_count() as u64);
                out.push(compiled);
            }
        }
        out
    }

    fn round(&self, p: &Vec<CompiledProgram>) -> Output {
        self.in_order(|k| {
            let job = &self.jobs[k];
            let report = job.shift.run_compiled(self.compiled(p, job), self.world(job));
            (report.exit, report.stats)
        })
    }

    fn work(&self, out: &Output) -> (u64, u64) {
        (out.0.iter().map(|(_, s)| s.instructions).sum(), out.0.len() as u64)
    }

    fn failures(&self, out: &Output, first: Option<&Output>) -> u64 {
        let cells = match &self.oracle {
            Oracle::Missing => return self.ops(),
            Oracle::Committed(json) => match json.get("cells") {
                Some(Json::Arr(cells)) if cells.len() == self.jobs.len() => Some(cells),
                _ => return self.ops(),
            },
            Oracle::Off => None,
        };
        let mut failed = 0;
        for (k, (exit, stats)) in out.0.iter().enumerate() {
            let job = &self.jobs[k];
            let (kernel, mode) = self.label(job);
            let ok = matches!(exit, Exit::Halted(_))
                && first.is_none_or(|f| f.0[k] == (exit.clone(), stats.clone()))
                && cells.is_none_or(|cells| {
                    let c = &cells[k];
                    has_str(c, "kernel", kernel)
                        && has_str(c, "mode", mode)
                        && c.get("tainted") == Some(&Json::Bool(job.tainted))
                        && has_str(c, "exit", &exit_signature(exit))
                        && has_u64(c, "cycles", stats.cycles)
                        && has_u64(c, "instructions", stats.instructions)
                });
            failed += u64::from(!ok);
        }
        failed
    }

    fn traced_round(&self, p: &Vec<CompiledProgram>, t: &mut Tracer, reference: &Output) -> u64 {
        let traced = self.in_order(|k| {
            let job = &self.jobs[k];
            t.set_op(k);
            // `Shift::run_compiled`, spelled out so each call is a span.
            let compiled = self.compiled(p, job);
            let mut machine = t.span(Layer::Load, |_| Machine::new(&compiled.image));
            let shift = &job.shift;
            let mut runtime =
                Runtime::new(shift.config().clone(), self.world(job), shift.granularity())
                    .with_io(shift.io());
            let exit = t.span(Layer::Run, |t| {
                machine.run(&mut TimedOs { runtime: &mut runtime, tracer: t }, shift.insn_limit())
            });
            t.count_machine(&machine);
            t.count(Count::Recoveries, runtime.recoveries);
            t.count(Count::Violations, runtime.violations.len() as u64);
            (exit, machine.stats.clone())
        });
        traced.0.iter().zip(&reference.0).filter(|(a, b)| a != b).count() as u64
    }

    fn bless(&self, out: &Output) -> Json {
        let cells = out
            .0
            .iter()
            .zip(&self.jobs)
            .map(|((exit, stats), job)| {
                let (kernel, mode) = self.label(job);
                Json::obj(vec![
                    ("kernel", Json::Str(kernel.to_string())),
                    ("mode", Json::Str(mode.to_string())),
                    ("tainted", Json::Bool(job.tainted)),
                    ("exit", Json::Str(exit_signature(exit))),
                    ("cycles", Json::U64(stats.cycles)),
                    ("instructions", Json::U64(stats.instructions)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::Str(self.name().to_string())),
            ("seed", Json::U64(DEFAULT_SEED)),
            ("cells", Json::Arr(cells)),
        ])
    }
}
