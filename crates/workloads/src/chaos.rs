//! Fleet-scale chaos harness: randomized fault injection across a serving
//! fleet, with an escape audit and automatic shrunk reproducers.
//!
//! The harness extends the single-machine injection trials to the fleet:
//! every trial serves a randomized request mix (benign traffic salted with
//! real exploits) across a fleet of instances while NaT flips, tag-bitmap
//! corruption, and transient architectural faults land mid-serve on
//! randomly chosen connections. After each trial it checks the two
//! properties the paper's deployment story rests on:
//!
//! 1. **Exact accounting** — every queued request is served, recovered, or
//!    dropped; the three partition the queue exactly, at every worker
//!    width.
//! 2. **No undetected escapes** — a connection that carried an exploit and
//!    finished with zero violations gets a forensic re-run: if the exploit
//!    demonstrably reached its sink (the SQL log, the secret on the
//!    socket) *and* the guest tag bitmap still agrees with the host's
//!    ground-truth shadow, the attack sailed through silently — a
//!    detection failure.
//!
//! Any failing trial is converted into evidence: the harness captures a
//! [`ReplayLog`] of the trial and runs the shrinking reducer, so the
//! failure reproduces from one small committed artifact in one CLI
//! command.
//!
//! All randomness flows from one master seed ([`master_seed`], overridable
//! via the `SHIFT_SEED` environment variable) through [`derive`](fn@derive), so every
//! randomized harness in the repo is reproducible from a single integer.

use shift_core::{
    Fleet, Injection, Mode, Policy, ReplayLog, Runtime, Shift, TaintConfig, ViolationAction, World,
};
use shift_ir::{Program, ProgramBuilder, Rhs};
use shift_isa::{sys, CmpRel, Gpr};
use shift_machine::layout::{stack_top, DATA_BASE, GLOBALS_BASE};
use shift_machine::Fault;
use shift_tagmap::{tag_location, Granularity};

use crate::apache;

/// The default master seed when `SHIFT_SEED` is unset.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// A splitmix64 generator: the one RNG every randomized harness in the
/// repo draws from, always via [`derive`](fn@derive) so each harness gets an
/// independent but reproducible stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `true` with probability `pct`%.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// The run's master seed: `SHIFT_SEED` from the environment when set and
/// parseable, [`DEFAULT_SEED`] otherwise. Harnesses must not invent their
/// own seeds — derive per-harness streams with [`derive`](fn@derive).
pub fn master_seed() -> u64 {
    std::env::var("SHIFT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_SEED)
}

/// Derives an independent stream seed from the master seed and a label
/// (FNV-mixes the label, then one splitmix round), so two harnesses never
/// share a stream even under the same master seed.
pub fn derive(master: u64, label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ master;
    for &b in label.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Rng(h).next_u64()
}

// ---- guest registry --------------------------------------------------------

/// A multi-request SQL server guest for cheap high-volume chaos trials:
/// reads requests in a loop and executes each at the SQL sink, counting the
/// accepted ones. An injected quote in a tainted request must trip H3.
fn chaos_sql_program() -> Program {
    let mut pb = ProgramBuilder::new();
    pb.func("main", 0, |f| {
        let req = f.local(256);
        let reqp = f.local_addr(req);
        let served = f.iconst(0);
        f.loop_(|f| {
            let cap = f.iconst(255);
            let n = f.syscall(sys::NET_READ, &[reqp, cap]);
            f.if_cmp(CmpRel::Le, n, Rhs::Imm(0), |f| f.break_());
            let r = f.syscall(sys::SQL_EXEC, &[reqp, n]);
            f.if_cmp(CmpRel::Lt, r, Rhs::Imm(0), |f| f.continue_());
            let s1 = f.addi(served, 1);
            f.assign(served, s1);
        });
        f.ret(Some(served));
    });
    pb.build().expect("chaos guest is well-formed")
}

/// A registered serving guest: everything the chaos harness, the escape
/// audit and `shift replay` need to serve it, torture it and judge the
/// outcome. Look one up by name with [`guest`].
#[derive(Clone, Copy)]
pub struct Guest {
    /// Registry name — what a [`ReplayLog`] records as its `program`.
    pub name: &'static str,
    /// Builds the guest program.
    pub program: fn() -> Program,
    /// Builds the resilient serving fleet under a mode: default-secure
    /// policies disposed by `abort-transaction`, so detections roll back
    /// and service continues — the configuration the accounting invariant
    /// is stated against.
    pub fleet: fn(Mode) -> Fleet,
    /// The base world (files, no network) the fleet serves from.
    pub world: fn() -> World,
    /// A benign request: must be served clean under full instrumentation.
    pub benign: fn() -> Vec<u8>,
    /// A real exploit — one whose sink effect is observable, so the escape
    /// audit has ground truth.
    pub exploit: fn() -> Vec<u8>,
    /// The policy the exploit trips under byte-level tracking.
    pub expected: Policy,
    /// Did the exploit demonstrably reach its sink in this runtime?
    pub escaped: fn(&Runtime) -> bool,
}

/// Every registered guest: the Apache server (its exploit is the
/// directory traversal, which leaks the secret onto the socket) and the
/// SQL server (its exploit is a quote injection into the executed-SQL log).
pub const GUESTS: [Guest; 2] = [
    Guest {
        name: "apache",
        program: apache::apache_program,
        fleet: apache::apache_fleet,
        world: || {
            apache::fleet_world(apache::ApacheStream::Mixed)
                .file(apache::SECRET_PATH, apache::SECRET_BYTES)
        },
        benign: apache::benign_request,
        exploit: apache::exploit_request,
        expected: Policy::H2,
        escaped: |rt| {
            rt.net_output.windows(apache::SECRET_BYTES.len()).any(|w| w == apache::SECRET_BYTES)
        },
    },
    Guest {
        name: "chaos-sql",
        program: chaos_sql_program,
        fleet: |mode| {
            let mut cfg = TaintConfig::default_secure();
            cfg.set_default_action(ViolationAction::AbortTransaction);
            let shift = Shift::new(mode).with_config(cfg).with_fuel(2_000_000);
            shift.fleet(&chaos_sql_program()).expect("chaos guest compiles")
        },
        world: World::new,
        benign: || b"SELECT a FROM t".to_vec(),
        exploit: || b"x' OR '1'='1".to_vec(),
        expected: Policy::H3,
        escaped: |rt| rt.sql_log.iter().any(|q| q.contains(&b'\'')),
    },
];

/// Resolves a guest by its registry name — the one lookup `shift replay`,
/// the chaos harness and the tests share.
pub fn guest(name: &str) -> Option<Guest> {
    GUESTS.into_iter().find(|g| g.name == name)
}

/// Verdict of the forensic escape audit on a clean-exit exploit connection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EscapeVerdict {
    /// The forensic re-run did not land on the fleet's recorded state
    /// digest — the trial is not trustworthy and counts as a failure.
    DigestDiverged,
    /// The exploit reached its sink with the tag bitmap still agreeing with
    /// the host's ground-truth shadow: a true undetected escape.
    UndetectedEscape,
    /// The exploit reached its sink only because injected tag damage
    /// blinded the policy engine — the bitmap/shadow cross-check exposes
    /// the damage, so nothing escaped *unnoticed*.
    TagDamageContained,
    /// Nothing tainted demonstrably reached a sink.
    Benign,
}

/// Forensically re-runs one connection that finished clean (halted, zero
/// violations) despite carrying an exploit, and classifies it: did the
/// exploit actually reach its sink, and if so, can the tag bitmap's
/// disagreement with the host's ground-truth shadow account for the missed
/// detection? See [`EscapeVerdict`].
pub fn escape_audit(
    guest: &Guest,
    fleet: &Fleet,
    base: &World,
    requests: &[Vec<u8>],
    injections: &[(u64, Injection)],
    expected_digest: u64,
) -> EscapeVerdict {
    let world = requests.iter().fold(base.clone(), |w, msg| w.net(msg.clone()));
    let mut live = fleet.shift().serve_image(fleet.image(), world, injections);
    if live.machine.state_digest() != expected_digest {
        return EscapeVerdict::DigestDiverged;
    }
    let lo = stack_top() - 0x1000;
    let machine = &mut live.machine;
    let tag_corrupt = live.runtime.shadow_mismatch(machine, lo, 0x1000).is_some()
        || live.runtime.shadow_mismatch(machine, GLOBALS_BASE, 0x1000).is_some();
    match ((guest.escaped)(&live.runtime), tag_corrupt) {
        (true, false) => EscapeVerdict::UndetectedEscape,
        (true, true) => EscapeVerdict::TagDamageContained,
        (false, _) => EscapeVerdict::Benign,
    }
}

/// One random fleet injection: the same NaT-flip / tag-bitmap-corruption /
/// transient-fault mix as the single-machine trials, with a countdown that
/// lands mid-serve.
pub fn random_fleet_injection(rng: &mut Rng) -> (u64, Injection) {
    let countdown = 200 + rng.below(80_000);
    let inj = match rng.below(4) {
        0 => Injection::FlipNat { reg: Gpr::from_index(rng.below(Gpr::COUNT as u64) as usize) },
        1 => {
            // Corrupt the guest's own tag bitmap under a live stack address:
            // the adversarial case for the escape audit.
            let vaddr = stack_top() - 1 - rng.below(0x400);
            let loc = tag_location(vaddr, Granularity::Byte).expect("stack addr has a tag");
            Injection::CorruptByte { addr: loc.byte_addr, xor: (rng.below(255) + 1) as u8 }
        }
        2 => Injection::Fault(Fault::Unmapped { addr: DATA_BASE + 0x40_0000, ip: 0 }),
        _ => Injection::Fault(Fault::Unaligned { addr: GLOBALS_BASE + 1, size: 8, ip: 0 }),
    };
    (countdown, inj)
}

/// A random fault plan over `connections` connections: up to two
/// [`random_fleet_injection`]s per connection, drawn connection by
/// connection.
pub fn random_fault_plan(rng: &mut Rng, connections: usize) -> Vec<Vec<(u64, Injection)>> {
    (0..connections)
        .map(|_| (0..rng.below(3)).map(|_| random_fleet_injection(rng)).collect())
        .collect()
}

// ---- the harness -----------------------------------------------------------

/// Parameters of a chaos campaign.
#[derive(Clone, Debug)]
pub struct ChaosSpec {
    /// Registry name of the guest to torture.
    pub program: String,
    /// Compilation mode.
    pub mode: Mode,
    /// Number of randomized fleet trials.
    pub trials: usize,
    /// Worker widths to rotate through (one per trial, round-robin).
    pub widths: Vec<usize>,
    /// Connections per trial.
    pub connections: usize,
    /// Requests per connection.
    pub requests: usize,
    /// Seed of this campaign's RNG stream (derive it from [`master_seed`]).
    pub seed: u64,
}

/// One invariant violation found by the harness, with its shrunk
/// reproducer.
#[derive(Clone, Debug)]
pub struct ChaosFailure {
    /// Trial index within the campaign.
    pub trial: usize,
    /// Connection index within the trial.
    pub connection: usize,
    /// Which invariant broke, and how.
    pub reason: String,
    /// Minimized single-connection replay log reproducing the failure.
    pub repro: ReplayLog,
}

/// Aggregate outcome of a chaos campaign.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Trials executed.
    pub trials: usize,
    /// Injections armed across all trials.
    pub injections: usize,
    /// Requests served (completed) across all trials.
    pub served: u64,
    /// Requests recovered (detected or faulted, rolled back) across all
    /// trials.
    pub recovered: u64,
    /// Requests dropped across all trials.
    pub dropped: u64,
    /// Violations recorded across all trials.
    pub detections: u64,
    /// Forensic escape audits performed on clean-exit exploit connections.
    pub audits: usize,
    /// Invariant violations, each with a shrunk reproducer. Empty on a
    /// passing campaign.
    pub failures: Vec<ChaosFailure>,
    /// A shrunk reproducer of the first detection-carrying perturbed
    /// connection, produced even when the campaign passes — it keeps the
    /// capture→shrink→emit path exercised on every run.
    pub example_repro: Option<ReplayLog>,
}

impl ChaosReport {
    /// `true` when every trial upheld both invariants.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs a chaos campaign; see the module docs for the invariants checked.
///
/// # Panics
///
/// Panics on an unknown program name or empty `widths`.
pub fn run_chaos(spec: &ChaosSpec) -> ChaosReport {
    assert!(!spec.widths.is_empty(), "need at least one worker width");
    let guest =
        guest(&spec.program).unwrap_or_else(|| panic!("unknown chaos guest `{}`", spec.program));
    let fleet = (guest.fleet)(spec.mode);
    let base = (guest.world)();
    let benign = (guest.benign)();
    let exploit = (guest.exploit)();
    let mut rng = Rng::new(spec.seed);
    let mut out = ChaosReport { trials: spec.trials, ..ChaosReport::default() };

    for trial in 0..spec.trials {
        let width = spec.widths[trial % spec.widths.len()];
        // Randomized traffic: ~1 in 4 requests is a real exploit.
        let connections: Vec<Vec<Vec<u8>>> = (0..spec.connections)
            .map(|_| {
                (0..spec.requests)
                    .map(|_| if rng.chance(25) { exploit.clone() } else { benign.clone() })
                    .collect()
            })
            .collect();
        // Randomized perturbation: up to two injections per connection.
        let faults = random_fault_plan(&mut rng, spec.connections);
        out.injections += faults.iter().map(Vec::len).sum::<usize>();

        let report = fleet.serve_chaos(&base, &connections, &faults, width);
        out.served += report.served;
        out.recovered += report.recovered;
        out.dropped += report.dropped;
        out.detections += report.violations.len() as u64;

        let shrunk_repro = |c: usize| {
            let log = ReplayLog::capture(
                &spec.program,
                &fleet,
                &base,
                &connections,
                &faults,
                spec.seed,
                &report,
            );
            log.shrink(&fleet, c).log
        };

        for (c, conn) in report.connections.iter().enumerate() {
            // Invariant 1: served/recovered/dropped partition the queue.
            let queued = connections[c].len() as u64;
            if conn.served + conn.recovered + conn.dropped != queued {
                out.failures.push(ChaosFailure {
                    trial,
                    connection: c,
                    reason: format!(
                        "accounting broke at width {width}: served {} + recovered {} + \
                         dropped {} != queued {queued}",
                        conn.served, conn.recovered, conn.dropped
                    ),
                    repro: shrunk_repro(c),
                });
                continue;
            }
            let carried_exploit = connections[c].contains(&exploit);
            // Invariant 2: no undetected escapes. A clean-exit, zero-violation
            // connection that carried an exploit gets the forensic re-run.
            if carried_exploit
                && conn.violations.is_empty()
                && matches!(conn.exit, shift_core::Exit::Halted(_))
            {
                out.audits += 1;
                let verdict = escape_audit(
                    &guest,
                    &fleet,
                    &base,
                    &connections[c],
                    &faults[c],
                    conn.state_digest,
                );
                match verdict {
                    EscapeVerdict::DigestDiverged => out.failures.push(ChaosFailure {
                        trial,
                        connection: c,
                        reason: "audit re-run diverged from the fleet run".to_string(),
                        repro: shrunk_repro(c),
                    }),
                    EscapeVerdict::UndetectedEscape => out.failures.push(ChaosFailure {
                        trial,
                        connection: c,
                        reason: format!(
                            "undetected escape at width {width}: exploit reached its sink \
                             with zero violations and a consistent tag bitmap"
                        ),
                        repro: shrunk_repro(c),
                    }),
                    EscapeVerdict::TagDamageContained | EscapeVerdict::Benign => {}
                }
            }
            // Keep the reducer exercised: shrink the first perturbed
            // connection that was actually detected.
            if out.example_repro.is_none() && !conn.violations.is_empty() && !faults[c].is_empty() {
                out.example_repro = Some(shrunk_repro(c));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_core::{Granularity, ShiftOptions};

    fn byte_mode() -> Mode {
        Mode::Shift(ShiftOptions::baseline(Granularity::Byte))
    }

    #[test]
    fn derive_separates_streams_and_is_stable() {
        let a = derive(1, "fleet-chaos");
        let b = derive(1, "fault-injection");
        assert_ne!(a, b);
        assert_eq!(a, derive(1, "fleet-chaos"), "derivation must be deterministic");
        assert_ne!(a, derive(2, "fleet-chaos"), "master seed must matter");
    }

    #[test]
    fn rng_below_stays_in_range() {
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            assert!(rng.below(13) < 13);
        }
        let hits = (0..1000).filter(|_| rng.chance(25)).count();
        assert!((150..400).contains(&hits), "chance(25) way off: {hits}");
    }

    #[test]
    fn every_guest_detects_and_recovers_its_exploit() {
        for g in GUESTS {
            let name = g.name;
            assert_eq!(guest(name).map(|found| found.name), Some(name), "{name} must resolve");
            let fleet = (g.fleet)(byte_mode());
            let conns = vec![vec![(g.benign)(), (g.exploit)(), (g.benign)()]];
            let report = fleet.serve(&(g.world)(), &conns, 1);
            assert_eq!(report.served, 2, "{name}: {:?}", report.exits());
            assert_eq!(report.recovered, 1, "{name}");
            assert!(report.nothing_dropped(), "{name}");
            assert_eq!(report.violations.len(), 1, "{name}");
            assert_eq!(report.violations[0].policy, g.expected.name(), "{name}");
        }
        assert!(guest("nope").is_none());
    }

    #[test]
    fn tiny_campaign_passes_and_emits_an_example_repro() {
        let spec = ChaosSpec {
            program: "chaos-sql".to_string(),
            mode: byte_mode(),
            trials: 6,
            widths: vec![1, 2],
            connections: 3,
            requests: 3,
            seed: derive(master_seed(), "chaos-unit"),
        };
        let report = run_chaos(&spec);
        assert!(report.passed(), "{:#?}", report.failures);
        assert!(report.detections > 0, "a 25% exploit mix must trip detections");
        assert!(report.injections > 0);
        let repro = report.example_repro.expect("detected+perturbed connection must exist");
        assert_eq!(repro.connections.len(), 1);
        // The shrunk reproducer replays bit-identically.
        let fleet = (guest("chaos-sql").unwrap().fleet)(byte_mode());
        let outcome = repro.replay_connection(&fleet, 0);
        assert!(outcome.matches(), "{:?}", outcome.mismatches);
    }
}
