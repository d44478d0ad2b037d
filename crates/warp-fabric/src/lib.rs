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
//! [`compile_cached`] computes through a host [`FabricStore`], which
//! keeps every placement and routing once, and charges its work against
//! the modeled reuse caches ([`FabricCaches`]), which hold only keys.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod bitstream;
pub mod place;
pub mod route;
pub mod sim;
pub mod timing;

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use warp_synth::store::{Lookups, Table};
use warp_synth::LutNetlist;

pub use arch::FabricConfig;
pub use bitstream::Bitstream;
pub use place::{PlaceCache, Placement};
pub use route::{RouteCache, RouteStats};
pub use sim::FabricSim;
pub use timing::TimingReport;

/// The model of the on-chip back-end tools' reuse: the placement views
/// and first-pass net routes they have already computed.
///
/// The caches hold only keys. They never change a compiled circuit,
/// only how much work [`compile_cached`] reports having done.
#[derive(Debug, Default)]
pub struct FabricCaches {
    /// Placement views already placed.
    pub place: PlaceCache,
    /// First-pass net routes already routed, by geometry and pins.
    pub route: RouteCache,
}

impl FabricCaches {
    /// Creates empty caches.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The host store of placements and negotiated routings.
///
/// A placement is keyed by the placer's canonical view of the netlist
/// and restored by LUT rank. A routing is keyed by everything the
/// router reads, the fabric geometry and the ordered net list, and
/// holds the routing or congestion outcome, the wires the router
/// traversed over all its iterations, and the wires of every net's
/// iteration-0 paths: enough to charge it against any
/// [`RouteCache`]. So a netlist is placed and routed once per store,
/// however many compiles use it, and the store never changes a
/// reported [`FabricWork`].
#[derive(Debug, Default)]
pub struct FabricStore {
    places: Table<Arc<place::PlaceView>, place::StoredPlacement>,
    routes: Table<Arc<route::RouteKey>, route::RouteEntry>,
}

impl FabricStore {
    /// Placement lookups the store served or missed so far.
    #[must_use]
    pub fn place_lookups(&self) -> Lookups {
        self.places.lookups()
    }

    /// Routing lookups the store served or missed so far.
    #[must_use]
    pub fn route_lookups(&self) -> Lookups {
        self.routes.lookups()
    }
}

/// Modeled work the on-chip back-end tools performed, summed over
/// channel-width retries.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FabricWork {
    /// Placement refinement attempts executed (0 when restored).
    pub place_attempts: u64,
    /// Whether the caches held the successful attempt's placement.
    pub place_restored: bool,
    /// Wire segments traversed by freshly computed route paths.
    pub routed_wires: u64,
    /// Nets whose first-pass route the caches held on the successful
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
    compile_cached(netlist, base, &FabricStore::default(), None).map(|(circuit, _)| circuit)
}

/// [`compile`] through the host `store`, reporting the work the on-chip
/// tools performed given what `caches` already held (and adding what
/// they computed). The compiled circuit is bit-identical whatever the
/// store and the caches hold, and the work depends on the caches only.
///
/// # Errors
///
/// Returns [`CompileError`] if the netlist exceeds the fabric capacity
/// or remains unroutable at the maximum channel width.
pub fn compile_cached(
    netlist: &LutNetlist,
    base: &FabricConfig,
    store: &FabricStore,
    caches: Option<&FabricCaches>,
) -> Result<(CompiledCircuit, FabricWork), CompileError> {
    let mut config = base.clone();
    let mut last_overused = 0;
    let mut work = FabricWork::default();
    for _attempt in 0..5 {
        let (placement, place_work) =
            place::place_cached(netlist, &config, store, caches.map(|c| &c.place))?;
        work.place_attempts += place_work.attempts;
        work.place_restored = place_work.restored;
        match route::route_cached(netlist, &placement, &config, store, caches.map(|c| &c.route)) {
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
