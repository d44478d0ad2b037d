//! The warp processor's simple configurable logic fabric, with on-chip
//! place & route.
//!
//! The paper's warp processor does not target the FPGA's native fabric —
//! "developing computer aided design tools for existing FPGAs capable of
//! executing on-chip using very limited memory resources is a difficult
//! task". Instead it uses a *simple configurable logic fabric* designed
//! together with "a set of lean synthesis, technology mapping, placement,
//! and routing algorithms" (DATE'04 / DAC'04, refs \[15]\[16]). This crate
//! implements that fabric and those back-end tools:
//!
//! * [`FabricConfig`] — an island-style array of CLBs (two 3-input LUTs
//!   with optional flip-flops per CLB), horizontal/vertical routing
//!   channels with a configurable track count, full connection boxes and
//!   disjoint switch boxes, and input ports along the left edge fed by
//!   the WCLA registers;
//! * [`place`] — levelized placement with greedy swap refinement;
//! * [`route`] — the Riverside On-Chip Router: a PathFinder-style
//!   negotiated-congestion router with A*-directed searches, trimmed to
//!   the memory budget of an on-chip tool;
//! * [`bitstream`] — configuration bit generation and decoding;
//! * [`sim`] — functional simulation *from the decoded bitstream* (not
//!   from the netlist), so a configuration bug cannot hide;
//! * [`timing`] — routed critical-path extraction, which sets the
//!   hardware clock the WCLA executor uses.
//!
//! The top-level entry point is [`compile`], which runs
//! place → route → bitstream → timing and retries with wider channels if
//! routing fails (the channel-width sweep of the DAC'04 evaluation).
//! [`compile_cached`] adds the modeled reuse caches ([`FabricCaches`])
//! and, beneath them, an optional host memo ([`FabricMemo`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod bitstream;
pub mod memo;
pub mod place;
pub mod route;
pub mod sim;
pub mod timing;

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use warp_synth::LutNetlist;

pub use arch::FabricConfig;
pub use bitstream::Bitstream;
pub use memo::{FabricMemo, MemoStats};
pub use place::{PlaceCache, Placement};
pub use route::{RouteCache, RouteStats};
pub use sim::FabricSim;
pub use timing::TimingReport;

/// Memoization caches for the fabric back-end stages: the model of the
/// on-chip tools' reuse, optionally over a host [`FabricMemo`].
///
/// Compiling with caches never changes the result — every cached
/// artifact is the memoized output of a pure function of the netlist
/// structure and fabric geometry, verified structurally on lookup — it
/// only changes how much work [`compile_cached`] reports having done.
/// The memo changes neither: it only spares the host the placer and
/// router runs it has already seen.
#[derive(Debug, Default)]
pub struct FabricCaches {
    /// Memoized placements keyed by netlist structure.
    pub place: PlaceCache,
    /// Memoized first-pass net routes keyed by geometry and pins.
    pub route: RouteCache,
    memo: Option<Arc<FabricMemo>>,
}

impl FabricCaches {
    /// Creates empty caches.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates empty caches over a shared host `memo`.
    #[must_use]
    pub fn over(memo: Arc<FabricMemo>) -> Self {
        FabricCaches { memo: Some(memo), ..Self::default() }
    }
}

/// Modeled work the fabric back end actually performed, summed over
/// channel-width retries.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FabricWork {
    /// Placement refinement attempts executed (0 when restored).
    pub place_attempts: u64,
    /// Whether the successful attempt restored its placement.
    pub place_restored: bool,
    /// Wire segments traversed by freshly computed route paths.
    pub routed_wires: u64,
    /// Nets whose first-pass route was restored on the successful
    /// attempt.
    pub nets_restored: usize,
}

/// Why a netlist could not be compiled onto the fabric.
#[derive(Clone, PartialEq, Debug)]
pub enum CompileError {
    /// More LUTs/FFs than the fabric has slots.
    FabricFull {
        /// LUT slots required.
        needed: usize,
        /// LUT slots available.
        available: usize,
    },
    /// Routing failed even at the maximum channel width.
    Unroutable {
        /// Channel width at which routing gave up.
        tracks: usize,
        /// Nets that remained congested.
        overused: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::FabricFull { needed, available } => {
                write!(f, "design needs {needed} LUT slots, fabric has {available}")
            }
            CompileError::Unroutable { tracks, overused } => {
                write!(f, "{overused} nets unroutable at channel width {tracks}")
            }
        }
    }
}

impl Error for CompileError {}

/// A fully compiled kernel circuit: configuration plus reports.
#[derive(Clone, Debug)]
pub struct CompiledCircuit {
    /// The fabric configuration used (after any channel-width retries).
    pub config: FabricConfig,
    /// Where each netlist node landed.
    pub placement: Placement,
    /// The configuration bitstream.
    pub bitstream: Bitstream,
    /// Routing statistics (iterations, wirelength, channel width).
    pub route_stats: RouteStats,
    /// Routed timing: critical path and achievable clock.
    pub timing: TimingReport,
}

/// Places, routes, and configures a mapped netlist onto the fabric,
/// widening the routing channels (up to 4 doublings) if congestion
/// cannot be resolved.
///
/// # Errors
///
/// Returns [`CompileError`] if the netlist exceeds the fabric capacity
/// or remains unroutable at the maximum channel width.
pub fn compile(netlist: &LutNetlist, base: &FabricConfig) -> Result<CompiledCircuit, CompileError> {
    compile_cached(netlist, base, None).map(|(circuit, _)| circuit)
}

/// [`compile`] with memoization: restores placements and first-pass net
/// routes from `caches` when the structure matches, and reports the
/// work actually performed. The compiled circuit is bit-identical with
/// or without caches, and the circuit and the work are the same with or
/// without a memo beneath them.
///
/// # Errors
///
/// Returns [`CompileError`] if the netlist exceeds the fabric capacity
/// or remains unroutable at the maximum channel width.
pub fn compile_cached(
    netlist: &LutNetlist,
    base: &FabricConfig,
    caches: Option<&FabricCaches>,
) -> Result<(CompiledCircuit, FabricWork), CompileError> {
    let mut config = base.clone();
    let mut last_overused = 0;
    let mut work = FabricWork::default();
    let memo = caches.and_then(|c| c.memo.as_deref());
    for _attempt in 0..5 {
        let (placement, place_work) =
            place::place_cached(netlist, &config, caches.map(|c| &c.place), memo)?;
        work.place_attempts += place_work.attempts;
        work.place_restored = place_work.restored;
        match route::route_cached(netlist, &placement, &config, caches.map(|c| &c.route), memo) {
            Ok((routing, route_work)) => {
                work.routed_wires += route_work.routed_wires;
                work.nets_restored = route_work.nets_restored;
                let bitstream = bitstream::generate(netlist, &placement, &routing, &config);
                let timing = timing::analyze(netlist, &placement, &routing, &config);
                return Ok((
                    CompiledCircuit {
                        config,
                        placement,
                        bitstream,
                        route_stats: routing.stats,
                        timing,
                    },
                    work,
                ));
            }
            Err(route::RouteError::Congested { overused }) => {
                last_overused = overused;
                config.tracks *= 2;
            }
        }
    }
    Err(CompileError::Unroutable { tracks: config.tracks, overused: last_overused })
}
