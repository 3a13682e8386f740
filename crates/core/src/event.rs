//! Event-driven open-loop fleet scheduling (DESIGN.md §16).
//!
//! The closed-loop [`crate::fleet::Fleet::serve`] path walks a fixed request
//! list with one resident instance per in-flight connection — fine for
//! throughput geomeans, useless for the paper's real claim: a *production
//! server under load*, where connections arrive on their own clock and tail
//! latency is the number that matters. This module supplies the missing
//! half: a discrete-event simulation (DES) that multiplexes thousands of
//! connections over `W` modelled workers.
//!
//! ## Two-phase architecture
//!
//! Connections share no modelled state (each runs on a pristine spawn of
//! the shared image), so the simulation splits exactly:
//!
//! 1. **Trace capture** (parallel, host-side): every connection is
//!    served straight through once ([`crate::Fleet::serve_one_traced`]),
//!    and the runtime's leg log splits that run into its [`Segment`] trace
//!    — the alternating `(cpu, io)` legs of its execution, one closed at
//!    every syscall that charged I/O wait. The trace is read off the very
//!    run the closed loop makes, so it is *the* connection's behaviour,
//!    not an approximation of it, and its legs sum to the run's cycle
//!    totals by construction.
//! 2. **Event loop** (sequential, cheap): a binary-heap run queue keyed on
//!    modelled cycles replays the traces against the arrival schedule:
//!    workers execute cpu legs (sliced by the round-robin quantum), parked
//!    connections sleep out their io legs with the worker free, admission
//!    control bounds the accept queue and sheds the overflow.
//!
//! Because phase 1 is pure per connection and phase 2 is sequential, the
//! outcome is bit-identical at any *host* worker count — the same
//! determinism contract as the closed-loop fleet — while the modelled
//! worker count `W` is an input of the simulation.
//!
//! Shed connections never run in the model; their pre-simulated traces are
//! simply unused (the price of keeping phase 1 embarrassingly parallel).

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use shift_obs::TraceKind;

/// One leg of a connection's execution trace: occupy a worker for `cpu`
/// cycles, then wait `io` cycles with the worker free (the modelled I/O is
/// in flight).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Segment {
    /// CPU cycles executed before the leg's I/O wait.
    pub cpu: u64,
    /// I/O wait cycles charged by the syscall that ended the leg (and by
    /// any recovery redelivery inside it).
    pub io: u64,
}

/// Admission-control and scheduling parameters of the open-loop event loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OpenLoopConfig {
    /// Modelled worker count `W`: how many cpu legs run concurrently.
    pub workers: usize,
    /// Accept-queue bound: arrivals beyond this wait-list length are shed.
    pub accept_cap: usize,
    /// Residency cap: connections holding a live (admitted) slot at once.
    /// This — not the total connection count — bounds resident guests.
    pub max_resident: usize,
    /// Round-robin fairness quantum in cycles: a cpu leg longer than this
    /// is sliced and the connection re-queued at the back. `0` runs every
    /// leg to its park point unsliced.
    pub quantum: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> OpenLoopConfig {
        OpenLoopConfig { workers: 8, accept_cap: 1024, max_resident: 256, quantum: 100_000 }
    }
}

/// What the event loop did with one offered connection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Disposition {
    /// Turned away at arrival: the accept queue was full with residency at
    /// its cap. The connection never ran.
    Shed,
    /// Admitted, ran, completed.
    Done {
        /// Cycle the connection was admitted onto a resident slot.
        admitted: u64,
        /// Cycle its first cpu slice started on a worker.
        started: u64,
        /// Cycle its last segment finished.
        finished: u64,
        /// Dense resident-slot id it occupied (also its trace track).
        slot: u64,
    },
}

/// Outcome of one [`simulate`] run: the scheduler-level aggregates; the
/// caller joins them with the per-connection serve results.
#[derive(Clone, Debug)]
pub struct DesReport {
    /// Per-connection dispositions, in connection order.
    pub dispositions: Vec<Disposition>,
    /// Cycle of the last event — the modelled session makespan.
    pub wall_cycles: u64,
    /// Connections shed by admission control.
    pub shed: u64,
    /// Sum of all executed cpu slices: worker-busy integral, for
    /// utilization (`busy / (wall × workers)`).
    pub busy_cycles: u64,
    /// Largest ready + accept queue depth observed.
    pub peak_queue_depth: u64,
    /// Largest resident-connection count observed (≤ `max_resident`).
    pub peak_resident: u64,
    /// Scheduler timeline events (admissions, sheds, parks, queue depths)
    /// for the flight recorder's shared scheduler track. Empty unless
    /// requested.
    pub sched_events: Vec<(u64, TraceKind)>,
}

/// Per-connection scheduler state while admitted.
struct Resident {
    seg: usize,
    cpu_left: u64,
    slice: u64,
    started: Option<u64>,
    admitted: u64,
    slot: usize,
}

/// Heap events. Variant order is irrelevant: the `(cycle, seq)` key is
/// unique (seq is a global event counter), so ordering is total and
/// deterministic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Ev {
    Arrive(usize),
    SliceEnd(usize),
    Wake(usize),
}

/// The sequential event loop: replays `traces` against the `arrivals`
/// schedule (cycle of each connection's arrival, one entry per connection)
/// under `cfg`. With `trace_events` set, scheduler-track timeline events are
/// collected into [`DesReport::sched_events`].
///
/// Deterministic by construction: a binary heap keyed on
/// `(cycle, event-seq)` with a monotone sequence counter makes the event
/// order total, ties broken by creation order.
///
/// # Panics
///
/// When `arrivals` and `traces` disagree on the connection count.
pub fn simulate(
    arrivals: &[u64],
    traces: &[Vec<Segment>],
    cfg: &OpenLoopConfig,
    trace_events: bool,
) -> DesReport {
    assert_eq!(arrivals.len(), traces.len(), "one trace per arrival");
    let n = arrivals.len();
    let workers = cfg.workers.max(1);
    let max_resident = cfg.max_resident.max(1);

    let mut heap: BinaryHeap<Reverse<(u64, u64, Ev)>> = BinaryHeap::with_capacity(n);
    let mut seq: u64 = 0;
    for (c, &at) in arrivals.iter().enumerate() {
        heap.push(Reverse((at, seq, Ev::Arrive(c))));
        seq += 1;
    }

    let mut conns: Vec<Option<Resident>> = (0..n).map(|_| None).collect();
    let mut dispositions = vec![Disposition::Shed; n];
    let mut free_slots: BTreeSet<usize> = (0..max_resident).collect();
    let mut accept: VecDeque<usize> = VecDeque::new();
    let mut ready: VecDeque<usize> = VecDeque::new();
    let mut idle = workers;
    let mut resident: usize = 0;

    let mut report = DesReport {
        dispositions: Vec::new(),
        wall_cycles: 0,
        shed: 0,
        busy_cycles: 0,
        peak_queue_depth: 0,
        peak_resident: 0,
        sched_events: Vec::new(),
    };
    let mut last_depth = u64::MAX;

    // Admit: claim the lowest free slot (deterministic) and ready the
    // first segment.
    macro_rules! admit {
        ($c:expr, $t:expr) => {{
            let slot = *free_slots.iter().next().expect("admit under residency cap");
            free_slots.remove(&slot);
            resident += 1;
            report.peak_resident = report.peak_resident.max(resident as u64);
            conns[$c] = Some(Resident {
                seg: 0,
                cpu_left: traces[$c].first().map_or(0, |s| s.cpu),
                slice: 0,
                started: None,
                admitted: $t,
                slot,
            });
            if trace_events {
                report
                    .sched_events
                    .push(($t, TraceKind::Admitted { connection: $c as u64, slot: slot as u64 }));
            }
            ready.push_back($c);
        }};
    }

    while let Some(Reverse((t, _, ev))) = heap.pop() {
        report.wall_cycles = report.wall_cycles.max(t);
        match ev {
            Ev::Arrive(c) => {
                if resident < max_resident {
                    admit!(c, t);
                } else if accept.len() < cfg.accept_cap {
                    accept.push_back(c);
                } else {
                    report.shed += 1;
                    if trace_events {
                        report.sched_events.push((t, TraceKind::Shed { connection: c as u64 }));
                    }
                }
            }
            Ev::SliceEnd(c) => {
                idle += 1;
                let state = conns[c].as_mut().expect("slice ends on a resident connection");
                state.cpu_left -= state.slice;
                if state.cpu_left > 0 {
                    // Quantum expired mid-leg: back of the queue (fairness).
                    ready.push_back(c);
                } else {
                    // The cpu leg is done; park for its I/O wait, or move
                    // straight on when the leg charged none.
                    let io = traces[c][state.seg].io;
                    if io > 0 {
                        if trace_events {
                            report.sched_events.push((
                                t,
                                TraceKind::Parked { connection: c as u64, wake: t + io },
                            ));
                        }
                        heap.push(Reverse((t + io, seq, Ev::Wake(c))));
                        seq += 1;
                    } else {
                        heap.push(Reverse((t, seq, Ev::Wake(c))));
                        seq += 1;
                    }
                }
            }
            Ev::Wake(c) => {
                let state = conns[c].as_mut().expect("wakes a resident connection");
                state.seg += 1;
                if state.seg == traces[c].len() {
                    // Completed: release the slot, pull from the accept
                    // queue if anyone is waiting.
                    let state = conns[c].take().expect("completing connection is resident");
                    dispositions[c] = Disposition::Done {
                        admitted: state.admitted,
                        started: state.started.unwrap_or(state.admitted),
                        finished: t,
                        slot: state.slot as u64,
                    };
                    free_slots.insert(state.slot);
                    resident -= 1;
                    if let Some(next) = accept.pop_front() {
                        admit!(next, t);
                    }
                } else {
                    state.cpu_left = traces[c][state.seg].cpu;
                    ready.push_back(c);
                }
            }
        }
        // Dispatch: hand ready connections to idle workers.
        while idle > 0 {
            let Some(c) = ready.pop_front() else { break };
            idle -= 1;
            let state = conns[c].as_mut().expect("ready connection is resident");
            state.started.get_or_insert(t);
            let slice =
                if cfg.quantum > 0 { state.cpu_left.min(cfg.quantum) } else { state.cpu_left };
            state.slice = slice;
            report.busy_cycles += slice;
            heap.push(Reverse((t + slice, seq, Ev::SliceEnd(c))));
            seq += 1;
        }
        // Queue depth: the peak always, the series (on change) when traced.
        let depth = (ready.len() + accept.len()) as u64;
        report.peak_queue_depth = report.peak_queue_depth.max(depth);
        if trace_events && depth != last_depth {
            last_depth = depth;
            report
                .sched_events
                .push((t, TraceKind::QueueDepth { depth, resident: resident as u64 }));
        }
    }
    debug_assert_eq!(resident, 0, "every admitted connection must complete");
    debug_assert!(ready.is_empty() && accept.is_empty());
    report.dispositions = dispositions;
    debug_assert_eq!(
        report.shed,
        report.dispositions.iter().filter(|d| matches!(d, Disposition::Shed)).count() as u64,
        "shed counter must match shed dispositions"
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(legs: &[(u64, u64)]) -> Vec<Segment> {
        legs.iter().map(|&(cpu, io)| Segment { cpu, io }).collect()
    }

    fn cfg(workers: usize) -> OpenLoopConfig {
        OpenLoopConfig { workers, accept_cap: 16, max_resident: 8, quantum: 0 }
    }

    #[test]
    fn single_connection_runs_start_to_finish() {
        let r = simulate(&[100], &[trace(&[(50, 200), (30, 0)])], &cfg(1), false);
        assert_eq!(r.shed, 0);
        match r.dispositions[0] {
            Disposition::Done { admitted, started, finished, slot } => {
                assert_eq!(admitted, 100);
                assert_eq!(started, 100);
                // 100 arrive + 50 cpu + 200 io + 30 cpu.
                assert_eq!(finished, 380);
                assert_eq!(slot, 0);
            }
            d => panic!("expected completion, got {d:?}"),
        }
        assert_eq!(r.wall_cycles, 380);
        assert_eq!(r.busy_cycles, 80);
    }

    #[test]
    fn one_worker_serializes_two_guests_parks_overlap() {
        // Two identical connections arriving together on one worker: cpu
        // legs serialize, io waits overlap.
        let t = trace(&[(100, 1000)]);
        let r = simulate(&[0, 0], &[t.clone(), t], &cfg(1), false);
        let f: Vec<u64> = r
            .dispositions
            .iter()
            .map(|d| match d {
                Disposition::Done { finished, .. } => *finished,
                Disposition::Shed => panic!("shed"),
            })
            .collect();
        // c0: cpu 0..100, io till 1100. c1: cpu 100..200, io till 1200.
        assert_eq!(f, vec![1100, 1200]);
    }

    #[test]
    fn two_workers_run_cpu_legs_concurrently() {
        let t = trace(&[(100, 1000)]);
        let r = simulate(&[0, 0], &[t.clone(), t], &cfg(2), false);
        let f: Vec<u64> = r
            .dispositions
            .iter()
            .map(|d| match d {
                Disposition::Done { finished, .. } => *finished,
                Disposition::Shed => panic!("shed"),
            })
            .collect();
        assert_eq!(f, vec![1100, 1100]);
    }

    #[test]
    fn quantum_interleaves_long_legs_fairly() {
        // One long leg and one short leg on one worker: with slicing the
        // short connection finishes long before the long one; without, it
        // waits for the whole long leg.
        let long = trace(&[(1000, 0)]);
        let short = trace(&[(10, 0)]);
        let unsliced = simulate(&[0, 1], &[long.clone(), short.clone()], &cfg(1), false);
        let sliced = simulate(
            &[0, 1],
            &[long, short],
            &OpenLoopConfig { workers: 1, quantum: 50, ..cfg(1) },
            false,
        );
        let fin = |r: &DesReport, c: usize| match r.dispositions[c] {
            Disposition::Done { finished, .. } => finished,
            Disposition::Shed => panic!("shed"),
        };
        assert_eq!(fin(&unsliced, 1), 1010, "short waits out the whole long leg");
        assert_eq!(fin(&sliced, 1), 60, "one quantum of the long leg, then the short leg");
        assert_eq!(fin(&sliced, 0), 1010, "slicing only reorders, never loses cycles");
    }

    #[test]
    fn admission_control_sheds_overflow_deterministically() {
        // 1 resident slot, accept queue of 1, three simultaneous arrivals:
        // the third is shed.
        let t = trace(&[(100, 0)]);
        let cfg = OpenLoopConfig { workers: 1, accept_cap: 1, max_resident: 1, quantum: 0 };
        let r = simulate(&[0, 0, 0], &[t.clone(), t.clone(), t], &cfg, false);
        assert_eq!(r.shed, 1);
        assert!(matches!(r.dispositions[2], Disposition::Shed));
        assert!(matches!(r.dispositions[0], Disposition::Done { .. }));
        assert!(matches!(r.dispositions[1], Disposition::Done { .. }));
        assert_eq!(r.peak_resident, 1);
    }

    #[test]
    fn queue_depth_series_tracks_backlog() {
        let t = trace(&[(100, 0)]);
        let cfg = OpenLoopConfig { workers: 1, accept_cap: 16, max_resident: 8, quantum: 0 };
        let r = simulate(&[0, 0, 0, 0], &[t.clone(), t.clone(), t.clone(), t], &cfg, true);
        assert!(r.peak_queue_depth >= 3, "three connections queue behind the first");
        // Depth series is on-change and ends drained.
        let depths: Vec<u64> = r
            .sched_events
            .iter()
            .filter_map(|(_, k)| match *k {
                TraceKind::QueueDepth { depth, .. } => Some(depth),
                _ => None,
            })
            .collect();
        assert_eq!(depths.last(), Some(&0));
        assert_eq!(depths.iter().max(), Some(&r.peak_queue_depth));
        let mut deduped = depths.clone();
        deduped.dedup();
        assert_eq!(depths, deduped, "series records changes only");
    }

    #[test]
    fn zero_cpu_segments_terminate() {
        // Degenerate traces (cpu 0, io 0) must still complete.
        let r = simulate(&[0], &[trace(&[(0, 0), (0, 5), (0, 0)])], &cfg(1), false);
        assert!(matches!(r.dispositions[0], Disposition::Done { finished: 5, .. }));
    }

    #[test]
    fn slots_are_dense_and_reused() {
        // Sequential connections on one slot: both get slot 0.
        let t = trace(&[(10, 0)]);
        let cfg = OpenLoopConfig { workers: 1, accept_cap: 4, max_resident: 1, quantum: 0 };
        let r = simulate(&[0, 1000], &[t.clone(), t], &cfg, true);
        for d in &r.dispositions {
            assert!(matches!(d, Disposition::Done { slot: 0, .. }));
        }
        assert!(r
            .sched_events
            .iter()
            .any(|(_, k)| matches!(k, TraceKind::Admitted { slot: 0, .. })));
    }

    #[test]
    fn simulation_is_deterministic() {
        let traces: Vec<Vec<Segment>> =
            (0..64).map(|i| trace(&[(100 + i * 7, 500 + i * 13), (50, 0)])).collect();
        let arrivals: Vec<u64> = (0..64).map(|i| i * 137).collect();
        let cfg = OpenLoopConfig { workers: 4, accept_cap: 8, max_resident: 16, quantum: 75 };
        let a = simulate(&arrivals, &traces, &cfg, true);
        let b = simulate(&arrivals, &traces, &cfg, true);
        assert_eq!(a.dispositions, b.dispositions);
        assert_eq!(a.wall_cycles, b.wall_cycles);
        // The scheduler track carries the queue-depth series too.
        assert_eq!(a.sched_events, b.sched_events);
    }
}
