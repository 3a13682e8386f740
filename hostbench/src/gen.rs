//! The seeded traffic generator of the serving workloads.
//!
//! Every seed shuffles the same balanced deck: each request count 1–8
//! appears equally often across connections, each document and the
//! missing name are requested equally often, and (in `fleet-closed`)
//! exactly one request in eight is a traversal exploit. The seed decides
//! which connection carries which requests, so seeds differ in arrangement
//! (and hence in modelled sojourn tails) while offering the same total
//! work; that keeps the cross-seed spread of host metrics down to host
//! noise.

use shift_core::World;
use shift_workloads::apache::{exploit_request, SECRET_BYTES, SECRET_PATH};
use shift_workloads::chaos::{derive, Rng};
use shift_workloads::spec::prng_bytes;

/// The documents the server holds: request name and size in bytes.
pub const DOCS: [(&str, usize); 5] = [
    ("f1k", 1 << 10),
    ("f4k", 4 << 10),
    ("f16k", 16 << 10),
    ("f64k", 64 << 10),
    ("f128k", 128 << 10),
];

/// A name with no document behind it: the server answers 404.
pub const MISSING: &str = "missing";

/// Requests per connection run over `1..=MAX_REQUESTS`.
pub const MAX_REQUESTS: usize = 8;

/// What one connection must come to, derived from its requests alone.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ConnExpect {
    /// Requests for an existing document (the guest's exit status).
    pub hits: u64,
    /// Requests for the missing name.
    pub misses: u64,
    /// Traversal exploits: each trips H2 and is rolled back.
    pub exploits: u64,
}

impl ConnExpect {
    /// Requests the connection serves (hits and 404s).
    pub fn served(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A generated workload input: the shared filesystem, the per-connection
/// request lists, and what each connection must come to.
#[derive(Clone, Debug)]
pub struct Traffic {
    /// Documents (and, with exploits, the secret) every connection sees.
    pub world: World,
    /// Ordered requests per connection.
    pub connections: Vec<Vec<Vec<u8>>>,
    /// Per-connection expectations, in connection order.
    pub expect: Vec<ConnExpect>,
}

/// Fisher–Yates shuffle of `xs` driven by `rng`.
pub fn shuffle<T>(xs: &mut [T], rng: &mut Rng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

fn get(name: &str) -> Vec<u8> {
    format!("GET /{name} HTTP/1.0\r\n\r\n").into_bytes()
}

/// Generates `decks × MAX_REQUESTS` connections from `seed`; `label`
/// separates the workloads' random streams.
pub fn traffic(seed: u64, label: &str, decks: usize, exploits: bool) -> Traffic {
    let mut rng = Rng::new(derive(seed, label));
    let mut counts: Vec<usize> = (0..decks).flat_map(|_| 1..=MAX_REQUESTS).collect();
    shuffle(&mut counts, &mut rng);
    let total: usize = counts.iter().sum();
    let n_exploits = if exploits { total / 8 } else { 0 };
    // Targets 0..DOCS.len() are documents, DOCS.len() is the missing name,
    // and None is an exploit.
    let mut targets: Vec<Option<usize>> =
        (0..total).map(|i| i.checked_sub(n_exploits).map(|j| j % (DOCS.len() + 1))).collect();
    shuffle(&mut targets, &mut rng);

    let mut next = targets.into_iter();
    let mut connections = Vec::with_capacity(counts.len());
    let mut expect = Vec::with_capacity(counts.len());
    for n in counts {
        let mut e = ConnExpect::default();
        let requests = (0..n)
            .map(|_| match next.next().expect("the deck holds every request") {
                None => {
                    e.exploits += 1;
                    exploit_request()
                }
                Some(d) if d == DOCS.len() => {
                    e.misses += 1;
                    get(MISSING)
                }
                Some(d) => {
                    e.hits += 1;
                    get(DOCS[d].0)
                }
            })
            .collect();
        connections.push(requests);
        expect.push(e);
    }

    let mut world = World::new();
    for (k, &(name, size)) in DOCS.iter().enumerate() {
        world = world.file(format!("www/{name}"), prng_bytes(101 + k as u64, size));
    }
    if exploits {
        world = world.file(SECRET_PATH, SECRET_BYTES.to_vec());
    }
    Traffic { world, connections, expect }
}

impl Traffic {
    /// The input shape, for the run's record.
    pub fn shape(&self) -> String {
        let sum = |f: fn(&ConnExpect) -> u64| self.expect.iter().map(f).sum::<u64>();
        let docs: Vec<String> = DOCS.iter().map(|(n, s)| format!("{n}:{s}")).collect();
        format!(
            "connections={} requests={} hits={} misses={} exploits={} docs={}",
            self.connections.len(),
            self.connections.iter().map(Vec::len).sum::<usize>(),
            sum(|e| e.hits),
            sum(|e| e.misses),
            sum(|e| e.exploits),
            docs.join(",")
        )
    }
}
