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
//!   functionally it runs the kernel's [`Tape`] in chunks of iterations;
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

use warp_cdfg::LoopKernel;
use warp_fabric::{CompiledCircuit, FabricCaches, FabricConfig, FabricStore, FabricWork};
use warp_synth::map::{MapCache, MapStore, MapWork};
use warp_synth::store::Lookups;
use warp_synth::{LutNetlist, SynthReport};

pub use device::{WclaDevice, WclaStats, WCLA_BASE, WCLA_WINDOW};
pub use executor::{ExecModel, Tape};
pub use patch::{apply_patch, stub_base_for, PatchPlan, STUB_GAP_WORDS};

/// The modeled reuse tiers of the whole CAD back end: the canonical
/// mapping cones, placement views, and first-pass net routes the
/// on-chip tools have already computed.
///
/// The tiers hold only keys. Every artifact comes from a [`CadStore`],
/// so compiling with caches never changes a circuit — a from-scratch
/// compile is exactly an incremental compile with empty caches — it
/// only changes the work a [`CadWork`] reports, and hence the modeled
/// CAD time charged to the online timeline.
#[derive(Debug, Default)]
pub struct CadCaches {
    /// Canonical mapping cones already mapped.
    pub map: MapCache,
    /// Placement views and net routes already computed.
    pub fabric: FabricCaches,
}

impl CadCaches {
    /// Creates empty caches.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The host store every compile computes through: each stage's
/// artifact, kept once by the stage's full input (canonical cone,
/// placement view, routing key). What the store serves is never
/// charged, so it changes no [`CadWork`]; it only spares the host the
/// work it has already done. Unbounded; it lives as long as its owner.
#[derive(Debug, Default)]
pub struct CadStore {
    /// Cone mapping plans.
    pub map: MapStore,
    /// Placements and negotiated routings.
    pub fabric: FabricStore,
}

/// Host lookups a [`CadStore`] served or missed, per stage. These count
/// host work, which no modeled counter shows.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StoreStats {
    /// Cone plan lookups.
    pub map: Lookups,
    /// Placement lookups.
    pub place: Lookups,
    /// Routing lookups.
    pub route: Lookups,
}

impl CadStore {
    /// Lookups so far, per stage.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            map: self.map.lookups(),
            place: self.fabric.place_lookups(),
            route: self.fabric.route_lookups(),
        }
    }
}

/// Work the on-chip CAD tools performed for one compile, given what
/// its [`CadCaches`] already held.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CadWork {
    /// Technology-mapping work (cones mapped vs. held).
    pub map: MapWork,
    /// Place & route work (attempts, fresh wires, held nets).
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
    /// The mapped LUT netlist.
    pub netlist: LutNetlist,
    /// The placed/routed/configured fabric circuit.
    pub compiled: CompiledCircuit,
    /// The derived cycle model.
    pub model: ExecModel,
    /// The kernel's DFG lowered for [`executor::execute_flat`].
    pub tape: Tape,
}

impl WclaCircuit {
    /// Compiles a decompiled kernel onto the WCLA: synthesis → mapping →
    /// place & route → bitstream → cycle model.
    ///
    /// # Errors
    ///
    /// Propagates fabric capacity/routability errors.
    pub fn build(kernel: LoopKernel) -> Result<(Self, SynthReport), warp_fabric::CompileError> {
        Self::build_cached(kernel, &CadStore::default(), None)
            .map(|(circuit, report, _)| (circuit, report))
    }

    /// [`WclaCircuit::build`] through the host `store`, reporting the
    /// work the on-chip tools performed given what `caches` already held.
    /// The circuit is bit-identical whatever the store and the caches
    /// hold.
    ///
    /// # Errors
    ///
    /// Propagates fabric capacity/routability errors.
    pub fn build_cached(
        kernel: LoopKernel,
        store: &CadStore,
        caches: Option<&CadCaches>,
    ) -> Result<(Self, SynthReport, CadWork), warp_fabric::CompileError> {
        let report = warp_synth::synthesize(&kernel);
        let (netlist, map_work) = warp_synth::map::map_netlist_cached(
            &report.netlist,
            &store.map,
            caches.map(|c| &c.map),
        );
        let base = FabricConfig::sized_for(netlist.lut_count(), netlist.ffs().len());
        let (compiled, fabric_work) =
            warp_fabric::compile_cached(&netlist, &base, &store.fabric, caches.map(|c| &c.fabric))?;
        let model = ExecModel::derive(&kernel, &netlist, &compiled);
        let tape = Tape::lower(&kernel);
        let work = CadWork { map: map_work, fabric: fabric_work };
        Ok((WclaCircuit { kernel, netlist, compiled, model, tape }, report, work))
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
