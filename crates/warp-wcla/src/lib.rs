//! The warp configurable logic architecture (WCLA).
//!
//! Paper Figure 3: the WCLA consists of a data address generator (DADG)
//! with loop control hardware (LCH), three input/output registers
//! (Reg0–Reg2), a 32-bit multiplier-accumulator (MAC), and the
//! configurable logic fabric. It handles all memory accesses through the
//! dual-ported data BRAM and controls the execution of the partitioned
//! loop; the MicroBlaze communicates with it over the on-chip peripheral
//! bus.
//!
//! This crate provides:
//!
//! * [`WclaCircuit`] — a kernel compiled end-to-end (decompiled loop +
//!   mapped netlist + placed/routed fabric configuration + cycle model);
//! * [`executor`] — the cycle-level hardware executor: per iteration the
//!   DADG performs each load/store in one fabric cycle, the routed logic
//!   settles over however many fabric cycles its critical path needs,
//!   and MAC operations serialize on the single hard multiplier;
//! * [`device`] — the OPB peripheral ([`WclaDevice`]): memory-mapped
//!   registers the patched binary writes to seed the counter, stream
//!   bases, accumulators, and invariants, plus a blocking status read
//!   that stalls the MicroBlaze (idle) while hardware executes;
//! * [`patch`] — binary patching: generates the invocation stub and
//!   rewrites the running program so the kernel loop invokes the
//!   hardware — the "updates the executing application's binary code"
//!   step of warp processing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod executor;
pub mod patch;

use std::sync::Arc;

use warp_cdfg::LoopKernel;
use warp_fabric::{CompiledCircuit, FabricCaches, FabricConfig, FabricMemo, FabricWork};
use warp_synth::map::{MapCache, MapWork};
use warp_synth::{LutNetlist, SynthReport};

pub use device::{WclaDevice, WclaStats, WCLA_BASE, WCLA_WINDOW};
pub use executor::ExecModel;
pub use patch::{apply_patch, stub_base_for, PatchPlan, STUB_GAP_WORDS};

/// Memoization caches spanning the whole CAD back end: technology
/// mapping cones, placements, and first-pass net routes.
///
/// These are the *modeled* tiers: the on-chip tools' reuse. Compiling
/// with caches never changes any artifact — a from-scratch compile is
/// exactly an incremental compile with empty caches — it only changes
/// the work a [`CadWork`] reports, and hence the modeled CAD time
/// charged to the online timeline.
///
/// Caches built [`over`](CadCaches::over) a host [`FabricMemo`] also
/// skip the placer and router runs that memo has seen, reporting the
/// same work as if they had run. Technology mapping has no host memo:
/// its modeled work depends on the union of the cones that missed
/// `map`, so it runs on every compile.
#[derive(Debug, Default)]
pub struct CadCaches {
    /// Mapped LUT-cone cache (sub-kernel fingerprints).
    pub map: MapCache,
    /// Placement and routing caches.
    pub fabric: FabricCaches,
}

impl CadCaches {
    /// Creates empty caches.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates empty caches whose placement and routing run over the
    /// shared host `memo`.
    #[must_use]
    pub fn over(memo: Arc<FabricMemo>) -> Self {
        CadCaches { map: MapCache::default(), fabric: FabricCaches::over(memo) }
    }
}

/// Work the CAD back end actually performed for one compile.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CadWork {
    /// Technology-mapping work (cones mapped vs. replayed).
    pub map: MapWork,
    /// Place & route work (attempts, fresh wires, restored nets).
    pub fabric: FabricWork,
}

/// Fabric clock ceiling: "the remaining FPGA circuits can operate at up
/// to 250 MHz" (paper Section 4).
pub const FABRIC_CLOCK_HZ: u64 = 250_000_000;

/// MAC latency in fabric cycles (hard 32-bit multiplier).
pub const MAC_LATENCY: u64 = 2;

/// A kernel fully compiled for the WCLA.
#[derive(Clone, Debug)]
pub struct WclaCircuit {
    /// The decompiled kernel (streams, stores, accumulators).
    pub kernel: LoopKernel,
    /// The mapped LUT netlist (used for fast functional iteration).
    pub netlist: LutNetlist,
    /// The placed/routed/configured fabric circuit.
    pub compiled: CompiledCircuit,
    /// The derived cycle model.
    pub model: ExecModel,
}

impl WclaCircuit {
    /// Compiles a decompiled kernel onto the WCLA: synthesis → mapping →
    /// place & route → bitstream → cycle model.
    ///
    /// # Errors
    ///
    /// Propagates fabric capacity/routability errors.
    pub fn build(kernel: LoopKernel) -> Result<(Self, SynthReport), warp_fabric::CompileError> {
        Self::build_cached(kernel, None).map(|(circuit, report, _)| (circuit, report))
    }

    /// [`WclaCircuit::build`] with memoization: reuses mapped cones,
    /// placements, and net routes from `caches`, reporting the work
    /// actually performed. The circuit is bit-identical with or without
    /// caches.
    ///
    /// # Errors
    ///
    /// Propagates fabric capacity/routability errors.
    pub fn build_cached(
        kernel: LoopKernel,
        caches: Option<&CadCaches>,
    ) -> Result<(Self, SynthReport, CadWork), warp_fabric::CompileError> {
        let report = warp_synth::synthesize(&kernel);
        let (netlist, map_work) =
            warp_synth::map::map_netlist_cached(&report.netlist, caches.map(|c| &c.map));
        let base = FabricConfig::sized_for(netlist.lut_count(), netlist.ffs().len());
        let (compiled, fabric_work) =
            warp_fabric::compile_cached(&netlist, &base, caches.map(|c| &c.fabric))?;
        let model = ExecModel::derive(&kernel, &netlist, &compiled);
        let work = CadWork { map: map_work, fabric: fabric_work };
        Ok((WclaCircuit { kernel, netlist, compiled, model }, report, work))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_isa::MbFeatures;
    use warp_cdfg::decompile_loop;

    #[test]
    fn every_workload_kernel_builds_a_circuit() {
        for workload in workloads::all() {
            let built = workload.build(MbFeatures::paper_default());
            let kernel =
                decompile_loop(&built.program, built.kernel.head, built.kernel.tail).unwrap();
            let (circuit, report) = WclaCircuit::build(kernel).unwrap();
            assert!(circuit.model.cycles_per_iteration >= 1);
            assert!(circuit.model.fabric_clock_hz <= FABRIC_CLOCK_HZ);
            assert!(
                report.stats.gates >= circuit.netlist.lut_count() as u64 / 4,
                "{}: gate/LUT ratio sanity",
                workload.name
            );
        }
    }
}
