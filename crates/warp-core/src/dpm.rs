//! Dynamic partitioning module cost model.
//!
//! The paper implements the DPM "as another embedded MicroBlaze
//! processor core" running the ROCPART tools, and the companion papers
//! (DATE'04, DAC'04, DAC'03) emphasize that those lean tools execute in
//! seconds and well under a megabyte on such a processor. Our CAD
//! algorithms run natively in this reproduction, so the DPM's cost is
//! *modeled*: each stage is charged MicroBlaze cycles proportional to
//! the work units it actually processed (instructions decompiled, gates
//! synthesized, cuts enumerated, swaps attempted, wires explored), with
//! per-unit constants representing a straightforward embedded port of
//! the same algorithms.

use warp_cdfg::LoopKernel;
use warp_fabric::CompiledCircuit;
use warp_synth::{LutNetlist, SynthReport};
use warp_wcla::CadWork;

/// Cycles charged per unit of work in each CAD stage (MicroBlaze
/// cycles; documented model constants).
pub mod costs {
    /// Per instruction decompiled (decode, classify, DFG build).
    pub const DECOMPILE_PER_INSN: u64 = 220;
    /// Per gate created during RT synthesis.
    pub const SYNTH_PER_GATE: u64 = 90;
    /// Per gate during technology mapping (cut enumeration dominates).
    pub const MAP_PER_GATE: u64 = 260;
    /// Per placement swap attempt.
    pub const PLACE_PER_ATTEMPT: u64 = 55;
    /// Per routed wire segment (A* push/pop amortized).
    pub const ROUTE_PER_WIRE: u64 = 480;
    /// Per bitstream word written.
    pub const BITSTREAM_PER_WORD: u64 = 12;
}

/// The DPM's modeled execution cost for one warp.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DpmReport {
    /// Cycles spent decompiling.
    pub decompile_cycles: u64,
    /// Cycles spent in RT/logic synthesis.
    pub synth_cycles: u64,
    /// Cycles spent in technology mapping.
    pub map_cycles: u64,
    /// Cycles spent placing.
    pub place_cycles: u64,
    /// Cycles spent routing.
    pub route_cycles: u64,
    /// Cycles spent writing the bitstream.
    pub bitstream_cycles: u64,
    /// Peak data-structure footprint in bytes (netlists + routing
    /// state), the on-chip memory requirement.
    pub peak_memory_bytes: u64,
}

impl DpmReport {
    /// Total DPM cycles.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.decompile_cycles
            + self.synth_cycles
            + self.map_cycles
            + self.place_cycles
            + self.route_cycles
            + self.bitstream_cycles
    }

    /// Wall-clock seconds on a DPM clocked at `clock_hz`.
    #[must_use]
    pub fn seconds(&self, clock_hz: u64) -> f64 {
        self.total_cycles() as f64 / clock_hz as f64
    }
}

/// Derives the DPM cost model from what the tools actually did.
///
/// Each stage is charged for the work units it *performed*, taken from
/// the [`CadWork`] accounting of the compile. A from-scratch compile
/// (empty caches) charges the full chain; an incremental re-warp that
/// replayed mapped cones, restored its placement, and restored its net
/// routes is charged only the delta — decompilation, full re-synthesis
/// (the sweep always runs), whatever cut enumeration and routing the
/// caches could not cover, and the bitstream write (the physical
/// reconfiguration is never skipped).
#[must_use]
pub fn estimate(
    kernel: &LoopKernel,
    synth: &SynthReport,
    netlist: &LutNetlist,
    compiled: &CompiledCircuit,
    work: &CadWork,
) -> DpmReport {
    let gates = synth.gates_before_sweep.max(1);
    let luts = netlist.lut_count() as u64;

    // Peak memory: gate netlist (≈16 B/gate), LUT netlist (≈24 B/LUT),
    // routing occupancy/history (≈8 B/wire), bitstream.
    let wires = (compiled.config.wire_count()) as u64;
    let peak_memory_bytes =
        gates * 16 + luts * 24 + wires * 8 + compiled.bitstream.len_bytes() as u64;

    DpmReport {
        decompile_cycles: kernel.body_insns as u64 * costs::DECOMPILE_PER_INSN,
        synth_cycles: gates * costs::SYNTH_PER_GATE,
        map_cycles: work.map.gates_enumerated * costs::MAP_PER_GATE,
        place_cycles: work.fabric.place_attempts * costs::PLACE_PER_ATTEMPT,
        route_cycles: work.fabric.routed_wires * costs::ROUTE_PER_WIRE,
        bitstream_cycles: compiled.bitstream.words().len() as u64 * costs::BITSTREAM_PER_WORD,
        peak_memory_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_isa::MbFeatures;
    use warp_cdfg::decompile_loop;
    use warp_wcla::WclaCircuit;

    #[test]
    fn dpm_cost_is_seconds_scale_and_sub_megabyte_for_small_kernels() {
        let built = workloads::by_name("canrdr").unwrap().build(MbFeatures::paper_default());
        let kernel = decompile_loop(&built.program, built.kernel.head, built.kernel.tail).unwrap();
        let (circuit, synth, work) =
            WclaCircuit::build_cached(kernel, &Default::default(), None).unwrap();
        let report = estimate(&circuit.kernel, &synth, &circuit.netlist, &circuit.compiled, &work);
        let seconds = report.seconds(85_000_000);
        assert!(
            (0.000_01..30.0).contains(&seconds),
            "DPM time {seconds:.4}s outside the on-chip CAD band"
        );
        assert!(
            report.peak_memory_bytes < 1_500_000,
            "DPM memory {} B should stay lean",
            report.peak_memory_bytes
        );
        assert!(report.total_cycles() > 0);
    }

    #[test]
    fn bigger_kernels_cost_more() {
        let small = {
            let b = workloads::by_name("brev").unwrap().build(MbFeatures::paper_default());
            let k = decompile_loop(&b.program, b.kernel.head, b.kernel.tail).unwrap();
            let (c, s, w) = WclaCircuit::build_cached(k, &Default::default(), None).unwrap();
            estimate(&c.kernel, &s, &c.netlist, &c.compiled, &w).total_cycles()
        };
        let big = {
            let b = workloads::by_name("idct").unwrap().build(MbFeatures::paper_default());
            let k = decompile_loop(&b.program, b.kernel.head, b.kernel.tail).unwrap();
            let (c, s, w) = WclaCircuit::build_cached(k, &Default::default(), None).unwrap();
            estimate(&c.kernel, &s, &c.netlist, &c.compiled, &w).total_cycles()
        };
        assert!(big > small * 5, "idct DPM {big} vs brev {small}");
    }
}
