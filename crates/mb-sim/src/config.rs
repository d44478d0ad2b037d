//! System configuration.

use mb_isa::MbFeatures;

/// MicroBlaze clock frequency on the Spartan3 FPGA used in the paper.
pub const MB_CLOCK_HZ: u64 = 85_000_000;

/// Configuration of a simulated MicroBlaze system.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MbConfig {
    /// Optional functional units (barrel shifter, multiplier, divider).
    pub features: MbFeatures,
    /// Core clock frequency in Hz (85 MHz on Spartan3 in the paper).
    pub clock_hz: u64,
    /// Instruction BRAM size in bytes.
    pub imem_bytes: u32,
    /// Data BRAM size in bytes.
    pub dmem_bytes: u32,
    /// Whether fetch uses the pre-decoded instruction store (decode each
    /// imem word once into a side table, invalidated on imem writes).
    /// On by default; disabling it restores the decode-per-fetch
    /// reference loop, which the fast-path equivalence tests and the
    /// `simperf` harness use as their baseline. Simulated timing is
    /// identical either way — this only changes host-side speed.
    pub predecode: bool,
    /// Whether the run loop may retire fused straight-line superblocks
    /// in one dispatch instead of stepping instruction by instruction.
    /// On by default; it takes effect only with `predecode` on (see
    /// `System::active_engine`). Simulated timing, traces, and
    /// statistics are identical either way — this only changes
    /// host-side speed. `MbConfig::with_blocks(false)` restores the PR 3
    /// per-instruction predecoded loop.
    pub blocks: bool,
    /// Whether the block store may chain a superblock across a
    /// predicted-taken backward branch into a megablock loop trace with
    /// a guarded side exit: a hot loop body then iterates inside one
    /// dispatch instead of paying a dispatch per iteration. On by
    /// default; takes effect only with `blocks` on. Guard failure
    /// resumes at the exact architectural boundary, so simulated
    /// timing, traces, and statistics are identical either way.
    /// `MbConfig::with_traces(false)` restores the PR 5 one-block-per-
    /// dispatch engine.
    pub traces: bool,
}

impl MbConfig {
    /// The configuration used in the paper's experiments: 85 MHz, barrel
    /// shifter and multiplier included, no divider, local BRAM memories
    /// and no caches.
    #[must_use]
    pub fn paper_default() -> Self {
        MbConfig {
            features: MbFeatures::paper_default(),
            clock_hz: MB_CLOCK_HZ,
            imem_bytes: 64 * 1024,
            dmem_bytes: 64 * 1024,
            predecode: true,
            blocks: true,
            traces: true,
        }
    }

    /// Returns a copy with the pre-decoded fetch path enabled or
    /// disabled.
    #[must_use]
    pub fn with_predecode(mut self, predecode: bool) -> Self {
        self.predecode = predecode;
        self
    }

    /// Returns a copy with the superblock execution engine enabled or
    /// disabled.
    #[must_use]
    pub fn with_blocks(mut self, blocks: bool) -> Self {
        self.blocks = blocks;
        self
    }

    /// Returns a copy with megablock loop-trace chaining enabled or
    /// disabled.
    #[must_use]
    pub fn with_traces(mut self, traces: bool) -> Self {
        self.traces = traces;
        self
    }

    /// Returns a copy with different functional units.
    #[must_use]
    pub fn with_features(mut self, features: MbFeatures) -> Self {
        self.features = features;
        self
    }

    /// Seconds taken by `cycles` at this configuration's clock.
    #[must_use]
    pub fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz as f64
    }
}

impl Default for MbConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_4() {
        let c = MbConfig::paper_default();
        assert_eq!(c.clock_hz, 85_000_000);
        assert!(c.features.barrel_shifter);
        assert!(c.features.multiplier);
        assert!(!c.features.divider);
    }

    #[test]
    fn seconds_scale_with_clock() {
        let c = MbConfig::paper_default();
        let t = c.seconds(85_000_000);
        assert!((t - 1.0).abs() < 1e-12);
    }
}
