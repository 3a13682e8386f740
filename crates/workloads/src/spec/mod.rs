//! The SPEC-INT2000-like kernel suite.
//!
//! Eight kernels mirror the benchmarks in the paper's Figure 7, each tuned
//! along the three axes that determine SHIFT's overhead:
//!
//! | kernel  | stands in for | character |
//! |---------|---------------|-----------|
//! | gzip    | 164.gzip      | LZ77 match finding: dense tainted byte loads/stores + tainted compares, hash-table indexing through sanitized values |
//! | gcc     | 176.gcc       | expression tokenizing/folding: the most tainted-compare-heavy kernel (largest gain from NaT-aware compares, like the paper's gcc) |
//! | crafty  | 186.crafty    | bitboard attack counting: register-dominated SWAR arithmetic, light memory traffic (small slowdown) |
//! | bzip2   | 256.bzip2     | RLE + move-to-front: byte-granularity store storms (laundering-heavy at byte level) |
//! | vpr     | 175.vpr       | placement annealing over word-sized arrays with little tainted data |
//! | mcf     | 181.mcf       | Bellman-Ford relaxation over arc arrays: load-dominated, almost no taint (smallest enhancement benefit, like the paper's mcf) |
//! | parser  | 197.parser    | dictionary word matching over tainted text: compare + byte-load heavy |
//! | twolf   | 300.twolf     | annealing with cost-table lookups and tainted byte swaps |

mod bzip2;
mod crafty;
mod gcc;
mod gzip;
mod mcf;
mod parser;
mod twolf;
mod vpr;

use shift_ir::Program;

use crate::Scale;

/// One SPEC-like benchmark: a guest program plus its input generator.
#[derive(Clone, Copy)]
pub struct SpecBench {
    /// Short name, matching the paper's figures ("gzip", "gcc", …).
    pub name: &'static str,
    /// Builds the guest program (libc is linked in by the runner).
    pub build: fn() -> Program,
    /// Generates the (deterministic) input file contents.
    pub input: fn(Scale) -> Vec<u8>,
}

impl std::fmt::Debug for SpecBench {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpecBench").field("name", &self.name).finish()
    }
}

/// All eight benchmarks, in the paper's figure order.
pub fn all_benches() -> Vec<SpecBench> {
    vec![
        gzip::bench(),
        gcc::bench(),
        crafty::bench(),
        bzip2::bench(),
        vpr::bench(),
        mcf::bench(),
        parser::bench(),
        twolf::bench(),
    ]
}

/// Deterministic byte stream shared by the input generators.
pub fn prng_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 32) as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_named_like_the_paper() {
        let names: Vec<_> = all_benches().iter().map(|b| b.name).collect();
        assert_eq!(names, ["gzip", "gcc", "crafty", "bzip2", "vpr", "mcf", "parser", "twolf"]);
    }

    #[test]
    fn inputs_are_deterministic_and_scaled() {
        for b in all_benches() {
            let t1 = (b.input)(Scale::Test);
            let t2 = (b.input)(Scale::Test);
            assert_eq!(t1, t2, "{}: input must be deterministic", b.name);
            let r = (b.input)(Scale::Reference);
            assert!(
                r.len() > t1.len(),
                "{}: reference input must be larger than test input",
                b.name
            );
            assert!(!t1.is_empty());
        }
    }

    #[test]
    fn programs_build_and_validate() {
        for b in all_benches() {
            let p = (b.build)();
            assert!(p.func("main").is_some(), "{}: no main", b.name);
        }
    }
}
