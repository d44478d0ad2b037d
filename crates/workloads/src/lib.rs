//! Powerstone/EEMBC-style benchmark kernels for the warp-processing study.
//!
//! The paper evaluates six embedded applications: `brev`, `g3fax`, and
//! `matmul` from Motorola's Powerstone suite, and `canrdr`, `bitmnp`, and
//! `idct` from EEMBC. The original sources are proprietary, so this crate
//! reconstructs each benchmark from its documented structure: the same
//! critical-kernel shape (bit reversal by shifts, run-length expansion,
//! CAN message filtering, bit manipulation, 8-point IDCT, matrix multiply)
//! embedded in realistic surrounding code (initialization, checksum
//! verification) that sets the kernel's share of execution time.
//!
//! Every benchmark provides:
//!
//! * a MicroBlaze assembly implementation built through the
//!   configuration-aware [`mb_isa::codegen`] helpers (so the barrel
//!   shifter / multiplier options change the generated code exactly as the
//!   paper's Section 2 describes),
//! * a pure-Rust golden model used to pre-compute expected results,
//! * kernel annotations (loop head/tail addresses) checked against what
//!   the on-chip profiler discovers,
//! * post-run memory verification.
//!
//! # Example
//!
//! ```
//! use workloads::by_name;
//! use mb_isa::MbFeatures;
//!
//! let brev = by_name("brev").expect("brev is a paper benchmark");
//! let built = brev.build(MbFeatures::paper_default());
//! let mut sys = built.instantiate(&mb_sim::MbConfig::paper_default());
//! let outcome = sys.run(10_000_000).unwrap();
//! assert!(outcome.exited());
//! built.verify(sys.dmem()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmnp;
mod brev;
mod canrdr;
pub mod common;
mod extra;
mod g3fax;
mod idct;
mod matmul;
pub mod phased;

use std::error::Error;
use std::fmt;

use mb_isa::{MbFeatures, Program};
use mb_sim::{Bram, MbConfig, System};

/// Which benchmark suite a workload reconstructs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Suite {
    /// Motorola Powerstone.
    Powerstone,
    /// EEMBC (automotive/consumer).
    Eembc,
    /// Additional workloads beyond the paper's six.
    Extra,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Suite::Powerstone => f.write_str("Powerstone"),
            Suite::Eembc => f.write_str("EEMBC"),
            Suite::Extra => f.write_str("extra"),
        }
    }
}

/// Byte-address bounds of a benchmark's critical kernel loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KernelBounds {
    /// Address of the loop head (the backward branch's target).
    pub head: u32,
    /// Address of the loop's backward branch.
    pub tail: u32,
}

impl KernelBounds {
    /// The half-open byte range `[head, end)` covering the whole loop.
    #[must_use]
    pub fn range(&self) -> (u32, u32) {
        (self.head, self.tail + 4)
    }

    /// Address of the first instruction after the loop.
    #[must_use]
    pub fn after(&self) -> u32 {
        self.tail + 4
    }

    /// Number of instruction words in the loop.
    #[must_use]
    pub fn words(&self) -> u32 {
        (self.tail + 4 - self.head) / 4
    }
}

/// An expected final memory region.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MemCheck {
    /// What this region holds (for diagnostics).
    pub label: String,
    /// Byte address of the first word.
    pub addr: u32,
    /// Expected word values.
    pub expected: Vec<u32>,
}

/// Verification failure: simulated memory does not match the golden model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifyError {
    /// Which check failed.
    pub label: String,
    /// First mismatching word's byte address.
    pub addr: u32,
    /// Expected word.
    pub expected: u32,
    /// Actual word.
    pub actual: u32,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: mismatch at {:#010x}: expected {:#010x}, got {:#010x}",
            self.label, self.addr, self.expected, self.actual
        )
    }
}

impl Error for VerifyError {}

/// A benchmark built for a specific processor feature configuration.
#[derive(Clone, Debug)]
pub struct BuiltWorkload {
    /// Benchmark name (`brev`, `g3fax`, …).
    pub name: String,
    /// Which suite the benchmark reconstructs.
    pub suite: Suite,
    /// The assembled binary.
    pub program: Program,
    /// Initial data memory regions.
    pub data: Vec<(u32, Vec<u32>)>,
    /// The critical kernel the profiler is expected to find.
    pub kernel: KernelBounds,
    /// Expected final memory contents.
    pub checks: Vec<MemCheck>,
    /// The feature configuration this binary was compiled for.
    pub features: MbFeatures,
}

impl BuiltWorkload {
    /// Creates a simulated system with the program and data loaded.
    ///
    /// # Panics
    ///
    /// Panics if the program or data do not fit in the configured
    /// memories (workload images are fixed-size and known to fit the
    /// default 64 KiB configuration).
    #[must_use]
    pub fn instantiate(&self, config: &MbConfig) -> System {
        let config = config.clone().with_features(self.features);
        let mut sys = System::new(config);
        sys.load_program(&self.program).expect("program fits instruction BRAM");
        for (addr, words) in &self.data {
            sys.load_data(*addr, words).expect("data fits data BRAM");
        }
        sys
    }

    /// A stable identity for "this binary under this machine
    /// configuration" — the key a serving-fleet session pool uses to
    /// share one frozen program image across sessions.
    ///
    /// Hashes (FNV-1a) the program base and words plus the *effective*
    /// configuration the workload instantiates with (`config` with this
    /// build's features applied) — everything that determines the
    /// decoded slots and block tables. Initial data and expected
    /// results are deliberately excluded: seeded builds share the
    /// unseeded binary, so every seed of a workload maps to one image.
    #[must_use]
    pub fn fingerprint(&self, config: &MbConfig) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(PRIME);
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        mix(&mut h, &self.program.base.to_le_bytes());
        for w in &self.program.words {
            mix(&mut h, &w.to_le_bytes());
        }
        let effective = config.clone().with_features(self.features);
        mix(&mut h, format!("{effective:?}").as_bytes());
        h
    }

    /// Checks final data memory against the golden model.
    ///
    /// Each check is compared against the BRAM's words in place — this
    /// runs after every simulated execution (including each repeat of
    /// an online session), so it allocates nothing. A word past the end
    /// of the BRAM reads as `0xDEAD_DEAD`.
    ///
    /// # Errors
    ///
    /// Returns the first mismatch found.
    pub fn verify(&self, dmem: &Bram) -> Result<(), VerifyError> {
        let words = dmem.words();
        for check in &self.checks {
            let first = (check.addr / 4) as usize;
            for (i, &expected) in check.expected.iter().enumerate() {
                let actual = words.get(first + i).copied().unwrap_or(0xDEAD_DEAD);
                if actual != expected {
                    let addr = check.addr + (i as u32) * 4;
                    return Err(VerifyError { label: check.label.clone(), addr, expected, actual });
                }
            }
        }
        Ok(())
    }
}

/// A benchmark definition that can be built for any feature configuration.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Benchmark name.
    pub name: &'static str,
    /// Source suite.
    pub suite: Suite,
    /// One-line description of the critical kernel.
    pub description: &'static str,
    build_fn: fn(MbFeatures) -> BuiltWorkload,
    build_seeded_fn: fn(MbFeatures, u64) -> BuiltWorkload,
}

impl Workload {
    /// Builds the benchmark binary for a feature configuration.
    #[must_use]
    pub fn build(&self, features: MbFeatures) -> BuiltWorkload {
        (self.build_fn)(features)
    }

    /// Builds the benchmark with input data drawn from `seed`.
    ///
    /// The program binary and kernel bounds are identical to
    /// [`build`](Workload::build) — only the initial data and the
    /// expected results (recomputed through the golden model) change.
    /// The same seed always produces the same data; different seeds
    /// produce different data. Inputs come from the workspace `rand`
    /// shim (SplitMix64) via [`common::seeded_words`].
    #[must_use]
    pub fn build_seeded(&self, features: MbFeatures, seed: u64) -> BuiltWorkload {
        (self.build_seeded_fn)(features, seed)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}): {}", self.name, self.suite, self.description)
    }
}

/// The six benchmarks evaluated in the paper, in figure order.
#[must_use]
pub fn paper_suite() -> Vec<Workload> {
    vec![
        Workload {
            name: "brev",
            suite: Suite::Powerstone,
            description: "bit reversal of a word array using shift/mask stages",
            build_fn: brev::build,
            build_seeded_fn: brev::build_seeded,
        },
        Workload {
            name: "g3fax",
            suite: Suite::Powerstone,
            description: "Group-3 fax run-length expansion into scanline words",
            build_fn: g3fax::build,
            build_seeded_fn: g3fax::build_seeded,
        },
        Workload {
            name: "canrdr",
            suite: Suite::Eembc,
            description: "CAN bus message filtering and payload extraction",
            build_fn: canrdr::build,
            build_seeded_fn: canrdr::build_seeded,
        },
        Workload {
            name: "bitmnp",
            suite: Suite::Eembc,
            description: "bit manipulation: interleave/parity/swap per word",
            build_fn: bitmnp::build,
            build_seeded_fn: bitmnp::build_seeded,
        },
        Workload {
            name: "idct",
            suite: Suite::Eembc,
            description: "fixed-point 8-point inverse DCT over coefficient rows",
            build_fn: idct::build,
            build_seeded_fn: idct::build_seeded,
        },
        Workload {
            name: "matmul",
            suite: Suite::Powerstone,
            description: "integer matrix multiply with MAC inner loop",
            build_fn: matmul::build,
            build_seeded_fn: matmul::build_seeded,
        },
    ]
}

/// Additional workloads beyond the paper (FIR filter, CRC32) used by the
/// extension studies.
#[must_use]
pub fn extra_suite() -> Vec<Workload> {
    vec![
        Workload {
            name: "fir",
            suite: Suite::Extra,
            description: "8-tap FIR filter over a sample stream",
            build_fn: extra::build_fir,
            build_seeded_fn: extra::build_fir_seeded,
        },
        Workload {
            name: "crc32",
            suite: Suite::Extra,
            description: "word-parallel checksum over a message buffer",
            build_fn: extra::build_crc32,
            build_seeded_fn: extra::build_crc32_seeded,
        },
        Workload {
            name: "phased",
            suite: Suite::Extra,
            description: "two-phase run whose hot kernel shifts mid-execution",
            build_fn: phased::build,
            build_seeded_fn: phased::build_seeded,
        },
    ]
}

/// All workloads: the paper's six plus the extras.
#[must_use]
pub fn all() -> Vec<Workload> {
    let mut v = paper_suite();
    v.extend(extra_suite());
    v
}

/// Finds a workload by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// The matrix dimension of the `matmul` benchmark (its inner loop is
/// invoked once per output element).
#[must_use]
pub fn matmul_dim() -> usize {
    matmul::DIM
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_suite_matches_figure_order() {
        let names: Vec<&str> = paper_suite().iter().map(|w| w.name).collect();
        assert_eq!(names, ["brev", "g3fax", "canrdr", "bitmnp", "idct", "matmul"]);
    }

    #[test]
    fn by_name_finds_every_workload() {
        for w in all() {
            assert!(by_name(w.name).is_some(), "{} must be findable", w.name);
        }
        assert!(by_name("nonsense").is_none());
    }

    #[test]
    fn kernel_bounds_arithmetic() {
        let k = KernelBounds { head: 0x100, tail: 0x140 };
        assert_eq!(k.range(), (0x100, 0x144));
        assert_eq!(k.after(), 0x144);
        assert_eq!(k.words(), 17);
    }

    #[test]
    fn seeded_builds_are_deterministic_per_seed() {
        let features = MbFeatures::paper_default();
        for w in all() {
            let a = w.build_seeded(features, 42);
            let b = w.build_seeded(features, 42);
            assert_eq!(a.data, b.data, "{}: same seed must give same data", w.name);
            assert_eq!(a.checks, b.checks, "{}: same seed must give same checks", w.name);
        }
    }

    #[test]
    fn seeded_builds_differ_across_seeds() {
        let features = MbFeatures::paper_default();
        for w in all() {
            let a = w.build_seeded(features, 1);
            let b = w.build_seeded(features, 2);
            assert_ne!(a.data, b.data, "{}: different seeds must give different data", w.name);
            assert_ne!(
                a.checks, b.checks,
                "{}: different seeds must give different expected results",
                w.name
            );
        }
    }

    #[test]
    fn seeded_builds_share_the_unseeded_program() {
        let features = MbFeatures::paper_default();
        for w in all() {
            let plain = w.build(features);
            for seed in [0u64, 1, 0xDEAD_BEEF] {
                let seeded = w.build_seeded(features, seed);
                assert_eq!(
                    seeded.program.words, plain.program.words,
                    "{}: program must not depend on the seed",
                    w.name
                );
                assert_eq!(seeded.kernel, plain.kernel, "{}: kernel bounds fixed", w.name);
            }
        }
    }

    #[test]
    fn fingerprints_key_on_binary_and_config_not_seed() {
        let features = MbFeatures::paper_default();
        let config = MbConfig::paper_default();
        let brev = by_name("brev").unwrap();
        let base = brev.build(features).fingerprint(&config);
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            assert_eq!(
                brev.build_seeded(features, seed).fingerprint(&config),
                base,
                "seeds share the binary, so they must share the fingerprint"
            );
        }
        assert_ne!(
            by_name("g3fax").unwrap().build(features).fingerprint(&config),
            base,
            "different binaries must not collide"
        );
        let mut no_blocks = config.clone();
        no_blocks.blocks = false;
        assert_ne!(
            brev.build(features).fingerprint(&no_blocks),
            base,
            "the machine configuration is part of the image identity"
        );
    }

    #[test]
    fn verify_reports_the_first_wrong_word_and_reads_past_the_end_as_dead() {
        let mut built = by_name("brev").unwrap().build(MbFeatures::paper_default());
        let mut dmem = Bram::new(64);
        dmem.load_words(0x30, &[1, 2, 3, 4]).unwrap();
        let check = |label: &str, addr, expected: &[u32]| MemCheck {
            label: label.into(),
            addr,
            expected: expected.to_vec(),
        };

        built.checks = vec![check("fits", 0x30, &[1, 2, 3, 4])];
        assert_eq!(built.verify(&dmem), Ok(()));

        built.checks = vec![check("ok", 0x30, &[1, 2]), check("wrong", 0x38, &[3, 5])];
        let wrong = VerifyError { label: "wrong".into(), addr: 0x3C, expected: 5, actual: 4 };
        assert_eq!(built.verify(&dmem), Err(wrong));

        built.checks = vec![check("tail", 0x38, &[3, 4, 9])];
        let past =
            VerifyError { label: "tail".into(), addr: 0x40, expected: 9, actual: 0xDEAD_DEAD };
        assert_eq!(built.verify(&dmem), Err(past));
    }

    #[test]
    fn seeded_build_runs_and_verifies() {
        // End-to-end check that the recomputed golden results match what
        // the program actually produces on seeded data.
        let w = by_name("brev").unwrap();
        let built = w.build_seeded(MbFeatures::paper_default(), 7);
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let out = sys.run(50_000_000).unwrap();
        assert!(out.exited());
        built.verify(sys.dmem()).unwrap();
    }
}
