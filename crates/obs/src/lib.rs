//! # shift-obs — observability for the SHIFT stack
//!
//! Four pillars, all dependency-free and all zero-cost when disabled:
//!
//! 1. **Taint-flow tracing** ([`TaintObserver`]): shadow provenance state
//!    that turns a bare `Violation` into a chain like
//!    `net_read msg#0 bytes 4..12 → r9 → store @0x6000f8 → file_open arg`,
//!    plus counters of taint births, propagations and sink hits.
//! 2. **Metrics** ([`Registry`], [`Histogram`], [`Json`]): a counter and
//!    histogram registry with a schema-stable nested-JSON export (see
//!    DESIGN.md §7 for the key layout).
//! 3. **Profiling** ([`Profiler`]): per-guest-function cycle attribution
//!    with folded-stack output and hot-block ranking, layered on the same
//!    provenance labels as Fig. 9's overhead breakdown.
//! 4. **Flight recording** ([`TraceRing`], [`TraceEvent`]): deterministic
//!    span/instant timelines of the serving stack with Chrome `trace_event`
//!    export and modelled-time series sampling (DESIGN.md §14).
//!
//! The crate sits between `shift-tagmap` and `shift-machine` in the
//! dependency order: the machine owns the observer/profiler behind
//! `Option` guards, higher layers (runtime, CLI, bench) drive the metrics
//! and rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod observer;
pub mod profile;
pub mod trace;

pub use json::{Json, JsonError};
pub use metrics::{Histogram, Registry, SCHEMA_VERSION};
pub use observer::TaintObserver;
pub use profile::{FuncSpan, Profiler, BLOCK_INSNS};
pub use trace::{
    chrome_trace_json, merge_events, merge_samples, timeline_digest, Sample, TraceEvent, TraceKind,
    TraceRing, CYCLES_PER_US, DEFAULT_TRACE_CAP, SCHEDULER_TRACK,
};
