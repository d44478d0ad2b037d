//! Warp processor orchestration — the paper's Figure 2 system.
//!
//! A warp processor starts executing a standard binary on the soft core
//! alone. The on-chip profiler watches the instruction bus; once the
//! critical kernel is known, the dynamic partitioning module (DPM) runs
//! the ROCPART chain — decompilation, logic synthesis, technology
//! mapping, placement, routing, bitstream generation — configures the
//! WCLA, and patches the running binary so the kernel invokes hardware.
//! All of that is implemented by the sibling crates; this crate wires
//! the phases together and measures the result:
//!
//! * [`pipeline`] — the staged CAD pipeline: each phase is a typed
//!   function producing a typed artifact
//!   ([`TracedRun`](pipeline::TracedRun) →
//!   [`HotRegion`](pipeline::HotRegion) →
//!   [`DecompiledKernel`](pipeline::DecompiledKernel) →
//!   [`CompiledWcla`](pipeline::CompiledWcla) →
//!   [`PatchedBinary`](pipeline::PatchedBinary) →
//!   [`WarpMeasurement`]), with per-stage wall-clock timing in
//!   [`PipelineStats`];
//! * [`warp_run`] — end-to-end single-processor warp execution with
//!   verification against the software-only run, implemented as the
//!   trivial composition of the pipeline stages;
//! * [`cache`] — the content-addressed [`CircuitCache`]: compiled
//!   circuits keyed by the decompiled kernel's stable fingerprint, so a
//!   repeated warp of an identical kernel skips the CAD chain entirely;
//! * [`batch`] — the [`BatchRunner`]: fans warp runs and full
//!   figure-suite comparisons across scoped worker threads with
//!   deterministic, sequential-equal result ordering;
//! * [`dpm`] — the DPM's own execution-time and memory model (the
//!   "on-chip CAD is lean" claims of refs \[15]\[16]\[17]);
//! * [`experiments`] — the paper's evaluation: Figure 6 (speedups),
//!   Figure 7 (normalized energy), the Section 2 configurability study,
//!   and the in-text summary statistics;
//! * [`multi`] — the Figure 4 multi-processor warp system with a single
//!   shared DPM serving processors round-robin;
//! * [`service`] — the concurrent CAD service: background worker
//!   threads that overlap host-side compilation with simulation behind
//!   a [`CadHandle`] the caller waits on, without letting host speed or
//!   thread count leak into the modeled timeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod dpm;
pub mod experiments;
pub mod multi;
pub mod pipeline;
pub mod service;
mod system;

pub use batch::BatchRunner;
pub use cache::{CacheStats, CircuitCache};
pub use pipeline::{PipelineStats, WarpMeasurement};
pub use service::{CadHandle, CadService, CAD_THREADS_ENV};
pub use system::{warp_run, WarpError, WarpReport};

/// The paper's DPM clock: the dynamic partitioning module is "another
/// embedded MicroBlaze processor core", clocked like the main core at
/// 85 MHz.
pub const DEFAULT_DPM_CLOCK_HZ: u64 = 85_000_000;

/// Workspace-wide defaults for the warp flow.
#[derive(Clone, Debug)]
pub struct WarpOptions {
    /// Profiler cache configuration.
    pub profiler: warp_profiler::ProfilerConfig,
    /// MicroBlaze power model.
    pub mb_power: warp_power::MbPower,
    /// WCLA power model.
    pub wcla_power: warp_power::WclaPowerModel,
    /// Simulation cycle budget per phase.
    pub cycle_budget: CycleBudget,
    /// Clock of the dynamic partitioning module that runs the on-chip
    /// CAD chain. Every amortization and round-robin schedule derives
    /// its DPM seconds from this one knob.
    pub dpm_clock_hz: u64,
}

impl Default for WarpOptions {
    fn default() -> Self {
        WarpOptions {
            profiler: warp_profiler::ProfilerConfig::default(),
            mb_power: warp_power::MbPower::default(),
            wcla_power: warp_power::WclaPowerModel::default(),
            cycle_budget: CycleBudget::default(),
            dpm_clock_hz: DEFAULT_DPM_CLOCK_HZ,
        }
    }
}

/// Simulation limits.
#[derive(Clone, Copy, Debug)]
pub struct CycleBudget {
    /// Maximum cycles for each full-application run.
    pub max_cycles: u64,
}

impl Default for CycleBudget {
    fn default() -> Self {
        CycleBudget { max_cycles: 500_000_000 }
    }
}
