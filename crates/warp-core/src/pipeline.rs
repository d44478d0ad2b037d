//! The staged warp pipeline: every paper phase as a typed function.
//!
//! The paper's warp flow is a chain of distinct on-chip CAD phases —
//! profile, decompile, synthesize/map/place/route, patch, execute. This
//! module makes that chain explicit: each phase is a free function from
//! one typed artifact to the next, so anything between phases can be
//! inspected, cached, reused, or parallelized:
//!
//! | stage | artifact produced |
//! |---|---|
//! | [`trace_software`] | [`TracedRun`] — software-only outcome + trace |
//! | [`profile_trace`] | [`HotRegion`] — the profiler's chosen loop |
//! | [`decompile`] | [`DecompiledKernel`] — kernel + stable fingerprint |
//! | [`compile_circuit`] | [`CompiledWcla`] — circuit, synth report, DPM cost |
//! | [`plan_patch`] | [`PatchedBinary`] — the binary rewrite plan |
//! | [`execute_and_measure`] | [`WarpMeasurement`] — the [`WarpReport`] |
//!
//! [`run_staged`] drives the whole chain, timing each stage into a
//! [`PipelineStats`] and optionally consulting a
//! [`CircuitCache`] so that a second warp of
//! an identical kernel performs zero synthesis/place/route work.
//! [`warp_run`](crate::warp_run) is the trivial composition with no
//! cache — it returns exactly what the monolithic implementation did.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use mb_sim::{MbConfig, Outcome, StopReason, Trace};
use warp_cdfg::LoopKernel;
use warp_profiler::Profiler;
use warp_synth::SynthReport;
use warp_wcla::device::WCLA_WINDOW;
use warp_wcla::patch::{apply_patch, stub_base_for, PatchError, PatchPlan};
use warp_wcla::{CadCaches, CadStore, CadWork, WclaCircuit, WclaDevice, WCLA_BASE};
use workloads::BuiltWorkload;

use crate::cache::CircuitCache;
use crate::dpm::{self, DpmReport};
use crate::system::{WarpError, WarpReport};
use crate::WarpOptions;

pub use warp_profiler::HotRegion;

/// Phase 1 artifact: the software-only traced execution.
#[derive(Clone, Debug)]
pub struct TracedRun {
    /// How the software-only run ended.
    pub outcome: Outcome,
    /// The full instruction trace (feeds the profiler and the ARM
    /// baseline simulations).
    pub trace: Trace,
    /// Software-only seconds at the MicroBlaze clock.
    pub sw_seconds: f64,
}

/// Phase 3 artifact: the decompiled kernel plus its identity.
#[derive(Clone, Debug)]
pub struct DecompiledKernel {
    /// The hardware-ready kernel.
    pub kernel: LoopKernel,
    /// Stable content hash of the kernel — the circuit-cache key.
    pub fingerprint: u64,
    /// Whether the profiler's chosen region matched the benchmark
    /// annotation.
    pub profiler_agrees: bool,
}

/// Phase 4 artifact: the kernel compiled end-to-end for the WCLA.
///
/// Everything in here is a pure function of the decompiled kernel —
/// nothing depends on the surrounding program or on [`WarpOptions`] —
/// which is what makes it safe to share through the
/// [`CircuitCache`].
#[derive(Clone, Debug)]
pub struct CompiledWcla {
    /// The compiled circuit (netlist, placed/routed fabric, cycle model),
    /// shared with every [`WclaDevice`] that hosts it.
    pub circuit: Arc<WclaCircuit>,
    /// Synthesis cost reporting.
    pub synth: SynthReport,
    /// The DPM's modeled CAD cost for this compile. Unlike the circuit,
    /// this is *not* a pure function of the kernel — an incremental
    /// compile that reused cached sub-kernel artifacts reports a smaller
    /// cost than a from-scratch one for the same bit-identical circuit.
    pub dpm: DpmReport,
    /// What the CAD chain actually did (cones mapped vs. replayed,
    /// placement attempts, wires routed vs. restored).
    pub work: CadWork,
    /// Fingerprint of the kernel this was compiled from.
    pub fingerprint: u64,
}

/// Phase 5 artifact: the binary rewrite that invokes the hardware.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PatchedBinary {
    /// The prepared patch (stub plus head replacement).
    pub plan: PatchPlan,
}

/// The final artifact: the measured warp plus where the wall-clock went.
#[derive(Clone, Debug)]
pub struct WarpMeasurement {
    /// Everything measured from the warped execution.
    pub report: WarpReport,
    /// Per-stage pipeline timing (filled by [`run_staged`]; zeroed when
    /// the stages are composed by hand).
    pub stats: PipelineStats,
}

/// Wall-clock nanoseconds spent in each pipeline stage of one warp.
///
/// `cad_ns` covers the whole synthesis → map → place → route →
/// bitstream chain ([`compile_circuit`]); on a circuit-cache hit it is
/// exactly zero and [`cache_hit`](PipelineStats::cache_hit) is set —
/// that pair is the observable proof that a hit performs no CAD work.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PipelineStats {
    /// Software-only traced execution.
    pub trace_ns: u128,
    /// Profiler replay and hot-region selection.
    pub profile_ns: u128,
    /// Decompilation (including fingerprinting).
    pub decompile_ns: u128,
    /// Synthesis, mapping, place & route, bitstream, DPM estimate.
    pub cad_ns: u128,
    /// Patch planning.
    pub patch_ns: u128,
    /// Warped execution, verification, and accounting.
    pub execute_ns: u128,
    /// Whether the compiled circuit came from a [`CircuitCache`].
    pub cache_hit: bool,
}

impl PipelineStats {
    /// Total nanoseconds across all stages.
    #[must_use]
    pub fn total_ns(&self) -> u128 {
        self.trace_ns
            + self.profile_ns
            + self.decompile_ns
            + self.cad_ns
            + self.patch_ns
            + self.execute_ns
    }

    /// Sums stage timings across many runs (for suite-level reporting).
    /// The aggregate `cache_hit` is set only if *every* run hit.
    #[must_use]
    pub fn accumulate(runs: &[PipelineStats]) -> PipelineStats {
        let mut total = PipelineStats { cache_hit: !runs.is_empty(), ..PipelineStats::default() };
        for s in runs {
            total.trace_ns += s.trace_ns;
            total.profile_ns += s.profile_ns;
            total.decompile_ns += s.decompile_ns;
            total.cad_ns += s.cad_ns;
            total.patch_ns += s.patch_ns;
            total.execute_ns += s.execute_ns;
            total.cache_hit &= s.cache_hit;
        }
        total
    }
}

impl fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |ns: u128| ns as f64 / 1e6;
        write!(
            f,
            "trace {:.1} ms | profile {:.1} ms | decompile {:.1} ms | \
             cad {:.1} ms{} | patch {:.1} ms | execute {:.1} ms",
            ms(self.trace_ns),
            ms(self.profile_ns),
            ms(self.decompile_ns),
            ms(self.cad_ns),
            if self.cache_hit { " (cache hit)" } else { "" },
            ms(self.patch_ns),
            ms(self.execute_ns),
        )
    }
}

/// Phase 1: software-only traced execution, verified against the golden
/// model.
///
/// # Errors
///
/// [`WarpError::Software`] if the run faults, exhausts the cycle
/// budget, or produces wrong results.
pub fn trace_software(
    built: &BuiltWorkload,
    options: &WarpOptions,
) -> Result<TracedRun, WarpError> {
    let mb_config = MbConfig::paper_default();
    let mut sys = built.instantiate(&mb_config);
    let (outcome, trace) = sys
        .run_traced(options.cycle_budget.max_cycles)
        .map_err(|e| WarpError::Software(e.to_string()))?;
    if outcome.stop == StopReason::CycleLimit {
        return Err(WarpError::Software("cycle budget exhausted".into()));
    }
    built.verify(sys.dmem()).map_err(|e| WarpError::Software(e.to_string()))?;
    let sw_seconds = mb_config.seconds(outcome.cycles);
    Ok(TracedRun { outcome, trace, sw_seconds })
}

/// Phase 2: on-chip profiling — replay the trace through the
/// branch-frequency cache and pick the hottest loop.
///
/// # Errors
///
/// [`WarpError::NoHotRegion`] if the profiler saw no loops.
pub fn profile_trace(traced: &TracedRun, options: &WarpOptions) -> Result<HotRegion, WarpError> {
    let mut profiler = Profiler::new(options.profiler);
    profiler.observe_trace(&traced.trace);
    profiler.best().ok_or(WarpError::NoHotRegion)
}

/// Phase 3: decompile the hot region into a hardware-ready kernel and
/// fingerprint it.
///
/// # Errors
///
/// [`WarpError::Decompile`] if the region is not WCLA-implementable.
pub fn decompile(built: &BuiltWorkload, hot: &HotRegion) -> Result<DecompiledKernel, WarpError> {
    let kernel = warp_cdfg::decompile_loop(&built.program, hot.head, hot.tail)
        .map_err(WarpError::Decompile)?;
    let fingerprint = kernel.fingerprint();
    let profiler_agrees = hot.head == built.kernel.head && hot.tail == built.kernel.tail;
    Ok(DecompiledKernel { kernel, fingerprint, profiler_agrees })
}

/// Phase 4: the CAD chain — synthesis, technology mapping, place &
/// route, bitstream, cycle model, and the DPM cost estimate.
///
/// A from-scratch compile runs through a private [`CadStore`] and fresh,
/// private [`CadCaches`]: the modeled tools reuse within the chain (a
/// channel-width retry restores the placement it just computed instead
/// of re-placing), and the modeled cost is identical to what an online
/// runtime charges for the same kernel through empty caches.
///
/// # Errors
///
/// [`WarpError::Fabric`] if the kernel does not fit or route.
pub fn compile_circuit(decompiled: &DecompiledKernel) -> Result<CompiledWcla, WarpError> {
    compile_circuit_cached(decompiled, &CadStore::default(), Some(&CadCaches::new()))
}

/// [`compile_circuit`] through the host `store`, charging only the
/// sub-kernel work `caches` did not already hold: cones, placements,
/// and net routes. The circuit artifacts are bit-identical whatever the
/// store and the caches hold — a from-scratch compile *is* an
/// incremental compile with empty caches — but the DPM cost reflects
/// only the work the on-chip tools performed, which is what makes a
/// re-warp of a shifted-but-similar kernel delta-cost on the online
/// timeline.
///
/// # Errors
///
/// [`WarpError::Fabric`] if the kernel does not fit or route.
pub fn compile_circuit_cached(
    decompiled: &DecompiledKernel,
    store: &CadStore,
    caches: Option<&CadCaches>,
) -> Result<CompiledWcla, WarpError> {
    let (circuit, synth, work) =
        WclaCircuit::build_cached(decompiled.kernel.clone(), store, caches)
            .map_err(WarpError::Fabric)?;
    let dpm = dpm::estimate(&circuit.kernel, &synth, &circuit.netlist, &circuit.compiled, &work);
    Ok(CompiledWcla {
        circuit: Arc::new(circuit),
        synth,
        dpm,
        work,
        fingerprint: decompiled.fingerprint,
    })
}

/// Phase 5: plan the binary rewrite — the invocation stub goes at
/// [`stub_base_for`] the program image, and the loop head becomes a jump
/// to it.
///
/// # Errors
///
/// [`WarpError::Patch`] if the stub cannot be built.
pub fn plan_patch(
    built: &BuiltWorkload,
    compiled: &CompiledWcla,
) -> Result<PatchedBinary, WarpError> {
    plan_patch_kernel(built, &compiled.circuit.kernel)
}

/// [`plan_patch`] from the decompiled kernel alone. The plan depends
/// only on the kernel and the program image — not on the compiled
/// circuit — so an online runtime can plan the rewrite at detection
/// time, before (and concurrently with) compilation.
///
/// # Errors
///
/// [`WarpError::Patch`] if the stub cannot be built.
pub fn plan_patch_kernel(
    built: &BuiltWorkload,
    kernel: &LoopKernel,
) -> Result<PatchedBinary, WarpError> {
    let head_word = built
        .program
        .word_at(kernel.head)
        .ok_or(WarpError::Patch(PatchError::NoScratchRegister))?;
    let stub_base = stub_base_for(built.program.end());
    let plan =
        PatchPlan::new(kernel, head_word, stub_base, kernel.tail + 4).map_err(WarpError::Patch)?;
    Ok(PatchedBinary { plan })
}

/// Phase 6: run the patched binary with the WCLA device mapped, verify
/// against the golden model, and account time and energy.
///
/// # Errors
///
/// [`WarpError::PatchApply`], [`WarpError::Warped`], or
/// [`WarpError::Verification`] from the respective sub-steps.
pub fn execute_and_measure(
    built: &BuiltWorkload,
    traced: &TracedRun,
    decompiled: &DecompiledKernel,
    compiled: &CompiledWcla,
    patched: &PatchedBinary,
    options: &WarpOptions,
) -> Result<WarpMeasurement, WarpError> {
    let mb_config = MbConfig::paper_default();
    let map_stats = compiled.circuit.netlist.stats();
    let timing = compiled.circuit.compiled.timing;
    let route_stats = compiled.circuit.compiled.route_stats;
    let bitstream_bytes = compiled.circuit.compiled.bitstream.len_bytes();
    let hw_power_w =
        options.wcla_power.circuit_power_w(&map_stats, compiled.circuit.model.fabric_clock_hz);

    let mut warped = built.instantiate(&mb_config);
    let (device, hw_stats) = WclaDevice::new(Arc::clone(&compiled.circuit), mb_config.clock_hz);
    warped.map_peripheral(WCLA_BASE, WCLA_WINDOW, Box::new(device));
    apply_patch(&mut warped, &patched.plan).map_err(WarpError::PatchApply)?;

    let warped_outcome = warped
        .run(options.cycle_budget.max_cycles)
        .map_err(|e| WarpError::Warped(e.to_string()))?;
    if warped_outcome.stop == StopReason::CycleLimit {
        return Err(WarpError::Warped("cycle budget exhausted".into()));
    }

    // Verification: the warped run must produce the golden model's
    // memory exactly.
    built.verify(warped.dmem()).map_err(|e| WarpError::Verification(e.to_string()))?;

    // Time and energy accounting.
    let hw = *hw_stats.lock().expect("wcla stats lock");
    let sw_seconds = traced.sw_seconds;
    let warped_cycles = warped_outcome.cycles;
    let warped_seconds = mb_config.seconds(warped_cycles);
    let mb_stall_cycles = hw.mb_stall_cycles;
    let mb_active_cycles = warped_cycles.saturating_sub(mb_stall_cycles);
    let t_active = mb_config.seconds(mb_active_cycles);
    let t_idle = mb_config.seconds(mb_stall_cycles);
    let hw_seconds = hw.fabric_cycles as f64 / warp_wcla::FABRIC_CLOCK_HZ as f64;

    let energy_sw = warp_power::mb_only_energy(&options.mb_power, sw_seconds);
    let energy_warp =
        warp_power::figure5_energy(&options.mb_power, hw_power_w, t_active, t_idle, hw_seconds);

    let report = WarpReport {
        name: built.name.clone(),
        sw_cycles: traced.outcome.cycles,
        sw_seconds,
        warped_cycles,
        warped_seconds,
        mb_active_cycles,
        mb_stall_cycles,
        hw,
        hw_seconds,
        profiler_agrees: decompiled.profiler_agrees,
        energy_sw,
        energy_warp,
        hw_power_w,
        map_stats,
        timing,
        route_stats,
        dpm: compiled.dpm,
        dpm_clock_hz: options.dpm_clock_hz,
        bitstream_bytes,
    };
    Ok(WarpMeasurement { report, stats: PipelineStats::default() })
}

/// Runs the complete staged pipeline on one benchmark, timing each
/// stage and optionally consulting a circuit cache.
///
/// # Errors
///
/// Returns [`WarpError`] describing the failing phase.
pub fn run_staged(
    built: &BuiltWorkload,
    options: &WarpOptions,
    cache: Option<&CircuitCache>,
) -> Result<WarpMeasurement, WarpError> {
    let start = Instant::now();
    let traced = trace_software(built, options)?;
    let trace_ns = start.elapsed().as_nanos();
    let mut measurement = resume_after_trace(built, &traced, options, cache)?;
    measurement.stats.trace_ns = trace_ns;
    Ok(measurement)
}

/// Runs phases 2–6 on an already-traced benchmark.
///
/// Callers that need the trace for their own purposes (the experiment
/// harness feeds it to the ARM baseline simulators) run
/// [`trace_software`] once and resume here, instead of paying for a
/// second software simulation.
///
/// # Errors
///
/// Returns [`WarpError`] describing the failing phase.
pub fn resume_after_trace(
    built: &BuiltWorkload,
    traced: &TracedRun,
    options: &WarpOptions,
    cache: Option<&CircuitCache>,
) -> Result<WarpMeasurement, WarpError> {
    let mut stats = PipelineStats::default();

    let t = Instant::now();
    let hot = profile_trace(traced, options)?;
    stats.profile_ns = t.elapsed().as_nanos();

    let t = Instant::now();
    let decompiled = decompile(built, &hot)?;
    stats.decompile_ns = t.elapsed().as_nanos();

    let t = Instant::now();
    let (compiled, cache_hit) = match cache {
        Some(cache) => cache.lookup_or_compile(&decompiled)?,
        None => (Arc::new(compile_circuit(&decompiled)?), false),
    };
    stats.cache_hit = cache_hit;
    // A cache hit performs zero synthesis/place/route work; charge it
    // nothing so the stats prove the CAD chain was skipped.
    stats.cad_ns = if cache_hit { 0 } else { t.elapsed().as_nanos() };

    let t = Instant::now();
    let patched = plan_patch(built, &compiled)?;
    stats.patch_ns = t.elapsed().as_nanos();

    let t = Instant::now();
    let mut measurement =
        execute_and_measure(built, traced, &decompiled, &compiled, &patched, options)?;
    stats.execute_ns = t.elapsed().as_nanos();

    measurement.stats = stats;
    Ok(measurement)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate_sums_and_ands_hits() {
        let hit = PipelineStats { cad_ns: 0, execute_ns: 5, cache_hit: true, ..Default::default() };
        let miss =
            PipelineStats { cad_ns: 7, execute_ns: 3, cache_hit: false, ..Default::default() };
        let total = PipelineStats::accumulate(&[hit, miss]);
        assert_eq!(total.cad_ns, 7);
        assert_eq!(total.execute_ns, 8);
        assert!(!total.cache_hit, "one miss taints the aggregate");
        assert!(PipelineStats::accumulate(&[hit, hit]).cache_hit);
        assert!(!PipelineStats::accumulate(&[]).cache_hit);
        assert_eq!(total.total_ns(), 15);
    }

    #[test]
    fn stages_compose_to_the_same_report_as_warp_run() {
        let built =
            workloads::by_name("canrdr").unwrap().build(mb_isa::MbFeatures::paper_default());
        let options = WarpOptions::default();

        // Hand-composed stages.
        let traced = trace_software(&built, &options).unwrap();
        let hot = profile_trace(&traced, &options).unwrap();
        let decompiled = decompile(&built, &hot).unwrap();
        let compiled = compile_circuit(&decompiled).unwrap();
        let patched = plan_patch(&built, &compiled).unwrap();
        let by_hand =
            execute_and_measure(&built, &traced, &decompiled, &compiled, &patched, &options)
                .unwrap();

        let composed = crate::warp_run(&built, &options).unwrap();
        assert_eq!(by_hand.report, composed, "warp_run must be exactly this composition");
    }
}
