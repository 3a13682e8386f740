//! The host-speed probe.
//!
//! On a shared host, other tenants' memory traffic changes how fast the
//! same work runs: on the 2-vCPU development host one `fleet-closed` round
//! took 0.28–0.53 s over an hour with nothing else running in the VM. A
//! fixed probe run right after each timed pass feels the same
//! interference, and scaling the pass's wall time by `PROBE_REF_S / probe`
//! estimates what it would have taken at the reference host speed. See
//! README.md for the spreads measured with and without it.

use std::time::Instant;

/// Near the probe's wall time on the quiet development host (a 2 GHz Xeon
/// VM). It only sets the scale of the probe-scaled figures.
pub const PROBE_REF_S: f64 = 0.02;

/// Table size: 8 MiB, larger than the last-level cache share a tenant
/// can count on.
const WORDS: usize = 1 << 20;

/// The probe table's size in bytes. The table stays resident for the whole
/// run, so the run's peak resident memory minus this is the workload's.
pub const TABLE_BYTES: usize = WORDS * 8;

/// Random read-modify-writes per probe.
const UPDATES: u32 = 4_000_000;

/// The probe's table, allocated once so its pages are resident before the
/// workload's first setup pass.
pub struct Probe(Vec<u64>);

impl Probe {
    /// Allocates and touches the table.
    pub fn new() -> Probe {
        Probe(vec![1; WORDS])
    }

    /// Runs the probe and returns its wall time in seconds: refill the
    /// table, then update random words of it, a memory-latency-bound loop.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        for (i, w) in self.0.iter_mut().enumerate() {
            *w = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        let mut x = 1u64;
        for _ in 0..UPDATES {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 40) as usize & (WORDS - 1);
            self.0[i] = self.0[i].wrapping_add(x);
        }
        std::hint::black_box(&self.0);
        t0.elapsed().as_secs_f64()
    }
}

/// `wall` scaled to the reference host speed, given the probe time taken
/// next to it.
pub fn normalize(wall: f64, probe_s: f64) -> f64 {
    wall * PROBE_REF_S / probe_s
}
