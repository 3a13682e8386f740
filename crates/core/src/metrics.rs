//! Assembles a [`Registry`] snapshot from a finished run.
//!
//! One schema serves every entry point (`run`, `serve`, the CLI's
//! `--metrics` flag): counters are laid out under dotted paths that render
//! as nested JSON objects, and the invariant
//! `stats.total_time == stats.cycles + stats.io_cycles` holds *exactly* —
//! cycle counters are exported as integers (never `f64`) so nothing is lost
//! in the round-trip.

use shift_isa::Provenance;
use shift_machine::{Machine, Stats};
use shift_obs::Registry;

use crate::runtime::Runtime;
use crate::{RunReport, ServeReport};

/// Fills `reg` with the machine/stats/tagmap counters shared by plain runs
/// and serve sessions.
fn common_metrics(reg: &mut Registry, stats: &Stats, machine: &Machine, runtime: &Runtime) {
    // `Registry::to_json` stamps `schema_version` itself, so it stays a
    // constant even when registries from several runs are merged.
    reg.counter_add("stats.instructions", stats.instructions);
    reg.counter_add("stats.cycles", stats.cycles);
    reg.counter_add("stats.io_cycles", stats.io_cycles);
    reg.counter_add("stats.total_time", stats.total_time());
    reg.counter_add("stats.instrumentation_cycles", stats.instrumentation_cycles());
    reg.counter_add("stats.loads", stats.loads);
    reg.counter_add("stats.stores", stats.stores);
    reg.counter_add("stats.deferred_loads", stats.deferred_loads);
    reg.counter_add("stats.chk_taken", stats.chk_taken);
    reg.counter_add("stats.syscalls", stats.syscalls);
    for p in Provenance::ALL {
        // Dots nest; provenance names use '-' and pass through unchanged.
        reg.counter_add(&format!("stats.by_provenance.{}.insns", p.name()), stats.insns_for(p));
        reg.counter_add(&format!("stats.by_provenance.{}.cycles", p.name()), stats.cycles_for(p));
    }

    let (l1h, l1m) = machine.cache.l1_stats();
    let (l2h, l2m) = machine.cache.l2_stats();
    reg.counter_add("cache.l1.hits", l1h);
    reg.counter_add("cache.l1.misses", l1m);
    reg.counter_add("cache.l2.hits", l2h);
    reg.counter_add("cache.l2.misses", l2m);

    // Host-side software-TLB effectiveness (see DESIGN.md §8). Unlike the
    // cache counters above these model nothing — they exist so interpreter
    // regressions show up in metrics, not just in wall-clock.
    let (tlb_h, tlb_m) = machine.mem.tlb_stats();
    reg.counter_add("mem.tlb.hits", tlb_h);
    reg.counter_add("mem.tlb.misses", tlb_m);

    // Copy-on-write footprint (see DESIGN.md §15): how many pages this
    // instance privately owns vs. still shares with the pristine image, and
    // how many COW faults materialized private copies. Host-side only, like
    // the TLB counters.
    let (cow_owned, cow_shared, cow_faults) = machine.mem.cow_stats();
    reg.counter_add("mem.cow.owned", cow_owned as u64);
    reg.counter_add("mem.cow.shared", cow_shared as u64);
    reg.counter_add("mem.cow.faults", cow_faults);

    // Superblock dispatch effectiveness (see DESIGN.md §13): how many blocks
    // executed whole vs. fell back to the per-instruction stepper. Host-side
    // only, like the TLB counters above.
    let sb = machine.superblock_stats();
    reg.counter_add("machine.blocks.hits", sb.hits);
    reg.counter_add("machine.blocks.misses", sb.misses);
    reg.counter_add("machine.blocks.decoded", sb.blocks);

    reg.counter_add("tagmap.shadow.tainted_bytes", runtime.shadow.tainted_bytes());
    reg.counter_add("tagmap.shadow.marks", runtime.shadow.marks());
    reg.counter_add("tagmap.shadow.clears", runtime.shadow.clears());

    if let Some(o) = machine.taint_observer() {
        reg.counter_add("journal.births", o.births());
        reg.counter_add("journal.propagations", o.propagations());
        reg.counter_add("journal.sinks", o.sinks());
    }

    if let Some(fr) = machine.flight_recorder() {
        reg.counter_add("obs.trace.events", fr.len() as u64);
        reg.counter_add("obs.trace.dropped", fr.dropped());
        reg.counter_add("obs.trace.samples", fr.samples().len() as u64);
    }

    reg.counter_add("runtime.requests_delivered", runtime.requests_delivered);
    reg.counter_add("runtime.recoveries", runtime.recoveries);
    reg.counter_add("runtime.suppressed_sinks", runtime.suppressed_sinks);
    reg.counter_add("runtime.recovery_cycles", runtime.recovery_cycles);
    reg.counter_add("runtime.violations", runtime.violations.len() as u64);
    for lat in &runtime.request_latencies {
        reg.record("serve.latency_cycles", *lat);
    }
}

/// A metrics snapshot of a plain [`crate::Shift::run`] report.
pub fn run_metrics(report: &RunReport) -> Registry {
    let mut reg = Registry::new();
    common_metrics(&mut reg, &report.stats, &report.machine, &report.runtime);
    reg
}

/// A metrics snapshot of a resilient [`crate::Shift::serve`] report, with
/// the session counters included.
pub fn serve_metrics(report: &ServeReport) -> Registry {
    let mut reg = Registry::new();
    common_metrics(&mut reg, &report.stats, &report.machine, &report.runtime);
    reg.counter_add("serve.served", report.served);
    reg.counter_add("serve.recovered", report.recovered);
    reg.counter_add("serve.dropped", report.dropped);
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Granularity, Mode, Shift, ShiftOptions, World};
    use shift_ir::ProgramBuilder;
    use shift_isa::sys;
    use shift_obs::SCHEMA_VERSION;

    fn tiny_app() -> shift_ir::Program {
        let mut pb = ProgramBuilder::new();
        pb.func("main", 0, |f| {
            let req = f.local(64);
            let reqp = f.local_addr(req);
            let cap = f.iconst(63);
            f.syscall_void(sys::NET_READ, &[reqp, cap]);
            let z = f.iconst(0);
            f.ret(Some(z));
        });
        pb.build().unwrap()
    }

    #[test]
    fn cycle_totals_reconcile_exactly() {
        let shift = Shift::new(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)));
        let report = shift.run(&tiny_app(), World::new().net(&b"hello"[..])).unwrap();
        let reg = run_metrics(&report);
        assert_eq!(reg.counter("stats.cycles"), report.stats.cycles);
        assert_eq!(reg.counter("stats.io_cycles"), report.stats.io_cycles);
        assert_eq!(
            reg.counter("stats.total_time"),
            reg.counter("stats.cycles") + reg.counter("stats.io_cycles"),
            "total_time must reconcile exactly"
        );
        // The provenance rows sum back to the cycle total.
        let prov_sum: u64 = shift_isa::Provenance::ALL
            .into_iter()
            .map(|p| reg.counter(&format!("stats.by_provenance.{}.cycles", p.name())))
            .sum();
        assert_eq!(prov_sum, report.stats.cycles);
    }

    #[test]
    fn obs_drop_counters_surface_in_metrics() {
        use crate::FlightConfig;
        let shift = Shift::new(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)))
            .with_flight_recorder(FlightConfig { cap: 1, sample_cycles: 100 });
        let report = shift.serve(&tiny_app(), World::new().net(&b"hello"[..])).unwrap();
        let reg = serve_metrics(&report);
        let fr = report.machine.flight_recorder().expect("recorder armed");
        // The tiny serve emits more than one event, so a cap of 1 must drop
        // and the drops must be visible as obs.* counters.
        assert!(fr.dropped() > 0, "cap-1 ring should have dropped events");
        assert_eq!(reg.counter("obs.trace.dropped"), fr.dropped());
        assert_eq!(reg.counter("obs.trace.events"), fr.len() as u64);
    }

    #[test]
    fn metrics_json_schema_round_trips() {
        let shift =
            Shift::new(Mode::Shift(ShiftOptions::baseline(Granularity::Byte))).with_taint_trace();
        let report = shift.run(&tiny_app(), World::new().net(&b"hello"[..])).unwrap();
        let reg = run_metrics(&report);
        let json = reg.to_json();
        let text = json.render();
        let parsed = shift_obs::Json::parse(&text).unwrap();
        for key in ["schema_version", "stats", "cache", "mem", "tagmap", "journal", "runtime"] {
            assert!(parsed.get(key).is_some(), "missing top-level key {key}:\n{text}");
        }
        assert_eq!(parsed.get("schema_version").and_then(|j| j.as_u64()), Some(SCHEMA_VERSION));
        let stats = parsed.get("stats").unwrap();
        assert_eq!(
            stats.get("total_time").and_then(|j| j.as_u64()),
            Some(report.stats.total_time()),
            "cycle counters must survive the JSON round-trip bit-exactly"
        );
        assert!(parsed.get("journal").unwrap().get("births").and_then(|j| j.as_u64()).unwrap() > 0);
    }
}
