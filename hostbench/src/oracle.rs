//! The outcome oracle: modelled outputs committed at the default seed.
//!
//! A host-speed change must never move a modelled number, so every round's
//! outputs are checked against these files (at [`DEFAULT_SEED`]), against
//! the generator's per-connection expectations (at every seed) and against
//! the run's first round. `--bless` rewrites a file from a fresh run.

use std::path::{Path, PathBuf};

use shift_core::Json;

/// The seed the committed expectations were made at.
pub const DEFAULT_SEED: u64 = 1;

/// The committed expectations of `workload`, or `None` when its file holds
/// none for it.
fn expected(workload: &str) -> Option<Json> {
    let text = match workload {
        "spec-matrix" => include_str!("../expected/spec-matrix.json"),
        "fleet-closed" => include_str!("../expected/fleet-closed.json"),
        "openloop-tail" => include_str!("../expected/openloop-tail.json"),
        _ => return None,
    };
    Json::parse(text).ok().filter(|j| j.get("workload").and_then(Json::as_str) == Some(workload))
}

/// What a run checks its outputs against beyond the generator and its own
/// first round.
#[derive(Clone, Debug)]
pub enum Oracle {
    /// Another seed, or a `--bless` run: nothing committed applies.
    Off,
    /// The default seed, but no committed file: every operation fails.
    Missing,
    /// The default seed's committed expectations.
    Committed(Json),
}

impl Oracle {
    /// The oracle of a `workload` run at `seed`.
    pub fn for_run(workload: &str, seed: u64, bless: bool) -> Oracle {
        if bless || seed != DEFAULT_SEED {
            return Oracle::Off;
        }
        expected(workload).map_or(Oracle::Missing, Oracle::Committed)
    }
}

/// Writes `json` as the committed expectation of `workload`.
pub fn bless(workload: &str, json: &Json) -> std::io::Result<PathBuf> {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("expected").join(format!("{workload}.json"));
    std::fs::write(&path, json.render())?;
    Ok(path)
}

/// An order-sensitive FNV-1a fold of per-connection outcomes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fold(u64);

impl Fold {
    /// The empty fold.
    pub fn new() -> Fold {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in one connection's exit signature and state digest.
    pub fn add(&mut self, exit_signature: &str, state_digest: u64) {
        for &b in exit_signature.as_bytes().iter().chain(&state_digest.to_le_bytes()) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The fold as committed: 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// `true` when `json[key]` is the unsigned integer `value`.
pub fn has_u64(json: &Json, key: &str, value: u64) -> bool {
    json.get(key).and_then(Json::as_u64) == Some(value)
}

/// `true` when `json[key]` is the string `value`.
pub fn has_str(json: &Json, key: &str, value: &str) -> bool {
    json.get(key).and_then(Json::as_str) == Some(value)
}
