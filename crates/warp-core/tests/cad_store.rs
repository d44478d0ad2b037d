//! The host CAD store is invisible to results, and the modeled work is
//! what the on-chip tools' reuse leaves undone.
//!
//! For every hot region the profiler ranks in each registry workload,
//! at each channel width the compiler's sweep tries for it, and with
//! the modeled caches empty, holding the same netlist, or holding
//! another kernel's (among them the phased workload's A before its
//! shifted A′), a compile through a cold [`CadStore`] must equal one
//! through a warm store: the mapped netlist, every `CompiledCircuit`
//! field, the full `CadWork`, and the modeled caches' sizes after. The
//! warm compile must compute nothing.
//!
//! The `CadWork` and the cache sizes must also equal [`REFERENCE`], a
//! table captured at commit c739743, before the host store existed: the
//! modeled caches then held real cones, placements and wire paths, and
//! the mapper and the router restored from them. To recapture it, check
//! out that commit and, for each row, start from `CadCaches::new()`.
//! When the row has a prior netlist, map it with
//! `warp_synth::map::map_netlist_cached(&gates, Some(&caches.map))` and
//! compile it at its base width with `warp_fabric::compile_cached(&luts,
//! &base, Some(&caches.fabric))`. Then do the same for the row's netlist
//! from the row's width, and print the seven `MapWork` and `FabricWork`
//! fields in [`work`]'s order and the three caches' `len()`.

use mb_isa::MbFeatures;
use warp_core::{pipeline, WarpOptions};
use warp_fabric::{compile_cached, CompileError, CompiledCircuit, FabricConfig};
use warp_profiler::{HotRegion, Profiler};
use warp_synth::bits::GateNetlist;
use warp_synth::map::{map_netlist, map_netlist_cached};
use warp_synth::LutNetlist;
use warp_wcla::{CadCaches, CadStore, CadWork, StoreStats};
use workloads::BuiltWorkload;

use Prior::{Empty, Other, Same};

/// idct's outer region, whose cold compile alone takes ~23 s.
const SKIPPED: (&str, u32, u32) = ("idct", 0x44, 0x148);

/// What the modeled caches held before the row's compile.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Prior {
    Empty,
    Same,
    Other,
}

/// Region, starting width, prior, [`work`], and the map, place and
/// route caches' sizes after.
type Row = (&'static str, usize, Prior, [u64; 7], [usize; 3]);

#[rustfmt::skip]
const REFERENCE: &[Row] = &[
    ("brev 0x14..0xa4", 8, Empty, [32, 0, 0, 0, 0, 0, 0], [1, 1, 0]),
    ("brev 0x14..0xa4", 8, Same, [32, 32, 0, 0, 1, 0, 0], [1, 1, 0]),
    ("brev 0x14..0xa4", 8, Other, [32, 0, 0, 0, 0, 0, 0], [2, 2, 32]),
    ("brev 0xb8..0xd0", 8, Empty, [32, 0, 269, 5616, 1, 3242, 0], [32, 1, 468]),
    ("brev 0xb8..0xd0", 8, Same, [32, 32, 0, 0, 1, 1814, 234], [32, 1, 468]),
    ("brev 0xb8..0xd0", 8, Other, [32, 0, 269, 5616, 1, 3242, 0], [33, 2, 468]),
    ("brev 0xb8..0xd0", 16, Empty, [32, 0, 269, 5616, 0, 3242, 0], [32, 1, 234]),
    ("brev 0xb8..0xd0", 16, Same, [32, 32, 0, 0, 1, 1814, 234], [32, 1, 468]),
    ("brev 0xb8..0xd0", 16, Other, [32, 0, 269, 5616, 0, 3242, 0], [33, 2, 234]),
    ("g3fax 0x48..0x74", 8, Empty, [32, 0, 73, 1488, 0, 473, 0], [32, 1, 31]),
    ("g3fax 0x48..0x74", 8, Same, [32, 32, 0, 0, 1, 261, 31], [32, 1, 31]),
    ("g3fax 0x48..0x74", 8, Other, [32, 0, 73, 1488, 0, 473, 0], [64, 2, 499]),
    ("g3fax 0x88..0xa0", 8, Empty, [32, 0, 269, 5616, 1, 3242, 0], [32, 1, 468]),
    ("g3fax 0x88..0xa0", 8, Same, [32, 32, 0, 0, 1, 1814, 234], [32, 1, 468]),
    ("g3fax 0x88..0xa0", 8, Other, [32, 0, 269, 5616, 1, 3242, 0], [64, 2, 499]),
    ("g3fax 0x88..0xa0", 16, Empty, [32, 0, 269, 5616, 0, 3242, 0], [32, 1, 234]),
    ("g3fax 0x88..0xa0", 16, Same, [32, 32, 0, 0, 1, 1814, 234], [32, 1, 468]),
    ("g3fax 0x88..0xa0", 16, Other, [32, 0, 269, 5616, 0, 3242, 0], [64, 2, 265]),
    ("g3fax 0x14..0x30", 8, Empty, [32, 0, 32, 768, 0, 0, 0], [1, 1, 0]),
    ("g3fax 0x14..0x30", 8, Same, [32, 32, 0, 0, 1, 0, 0], [1, 1, 0]),
    ("g3fax 0x14..0x30", 8, Other, [32, 0, 32, 768, 0, 0, 0], [33, 2, 468]),
    ("canrdr 0x44..0x80", 8, Empty, [32, 0, 60, 864, 0, 104, 0], [6, 1, 4]),
    ("canrdr 0x44..0x80", 8, Same, [32, 32, 0, 0, 1, 51, 4], [6, 1, 4]),
    ("canrdr 0x44..0x80", 8, Other, [32, 0, 60, 864, 0, 104, 0], [7, 2, 4]),
    ("canrdr 0x10..0x20", 8, Empty, [32, 0, 32, 768, 0, 60, 0], [1, 1, 32]),
    ("canrdr 0x10..0x20", 8, Same, [32, 32, 0, 0, 1, 28, 32], [1, 1, 32]),
    ("canrdr 0x10..0x20", 8, Other, [32, 0, 32, 768, 0, 60, 0], [7, 2, 36]),
    ("canrdr 0x94..0xac", 8, Empty, [32, 0, 269, 5616, 1, 3242, 0], [32, 1, 468]),
    ("canrdr 0x94..0xac", 8, Same, [32, 32, 0, 0, 1, 1814, 234], [32, 1, 468]),
    ("canrdr 0x94..0xac", 8, Other, [32, 0, 269, 5616, 1, 3242, 0], [33, 2, 500]),
    ("canrdr 0x94..0xac", 16, Empty, [32, 0, 269, 5616, 0, 3242, 0], [32, 1, 234]),
    ("canrdr 0x94..0xac", 16, Same, [32, 32, 0, 0, 1, 1814, 234], [32, 1, 468]),
    ("canrdr 0x94..0xac", 16, Other, [32, 0, 269, 5616, 0, 3242, 0], [33, 2, 266]),
    ("bitmnp 0x44..0x90", 8, Empty, [32, 0, 244, 4056, 0, 1204, 0], [32, 1, 137]),
    ("bitmnp 0x44..0x90", 8, Same, [32, 32, 0, 0, 1, 620, 137], [32, 1, 137]),
    ("bitmnp 0x44..0x90", 8, Other, [32, 0, 244, 4056, 0, 1204, 0], [64, 2, 605]),
    ("bitmnp 0x10..0x20", 8, Empty, [32, 0, 238, 3216, 0, 1397, 0], [32, 1, 134]),
    ("bitmnp 0x10..0x20", 8, Same, [32, 32, 0, 0, 1, 708, 134], [32, 1, 134]),
    ("bitmnp 0x10..0x20", 8, Other, [32, 1, 237, 3216, 0, 1397, 0], [63, 2, 271]),
    ("bitmnp 0xa4..0xbc", 8, Empty, [32, 0, 269, 5616, 1, 3242, 0], [32, 1, 468]),
    ("bitmnp 0xa4..0xbc", 8, Same, [32, 32, 0, 0, 1, 1814, 234], [32, 1, 468]),
    ("bitmnp 0xa4..0xbc", 8, Other, [32, 0, 269, 5616, 1, 3242, 0], [64, 2, 602]),
    ("bitmnp 0xa4..0xbc", 16, Empty, [32, 0, 269, 5616, 0, 3242, 0], [32, 1, 234]),
    ("bitmnp 0xa4..0xbc", 16, Same, [32, 32, 0, 0, 1, 1814, 234], [32, 1, 468]),
    ("bitmnp 0xa4..0xbc", 16, Other, [32, 0, 269, 5616, 0, 3242, 0], [64, 2, 368]),
    ("idct 0x10..0x20", 8, Empty, [32, 0, 238, 3216, 0, 1397, 0], [32, 1, 134]),
    ("idct 0x10..0x20", 8, Same, [32, 32, 0, 0, 1, 708, 134], [32, 1, 134]),
    ("idct 0x10..0x20", 8, Other, [32, 0, 238, 3216, 0, 1397, 0], [64, 2, 602]),
    ("idct 0x15c..0x174", 8, Empty, [32, 0, 269, 5616, 1, 3242, 0], [32, 1, 468]),
    ("idct 0x15c..0x174", 8, Same, [32, 32, 0, 0, 1, 1814, 234], [32, 1, 468]),
    ("idct 0x15c..0x174", 8, Other, [32, 0, 269, 5616, 1, 3242, 0], [64, 2, 602]),
    ("idct 0x15c..0x174", 16, Empty, [32, 0, 269, 5616, 0, 3242, 0], [32, 1, 234]),
    ("idct 0x15c..0x174", 16, Same, [32, 32, 0, 0, 1, 1814, 234], [32, 1, 468]),
    ("idct 0x15c..0x174", 16, Other, [32, 0, 269, 5616, 0, 3242, 0], [64, 2, 368]),
    ("matmul 0x30..0x4c", 8, Empty, [128, 0, 0, 0, 0, 0, 0], [1, 1, 0]),
    ("matmul 0x30..0x4c", 8, Same, [128, 128, 0, 0, 1, 0, 0], [1, 1, 0]),
    ("matmul 0x30..0x4c", 8, Other, [128, 0, 0, 0, 0, 0, 0], [33, 2, 468]),
    ("matmul 0x80..0x98", 8, Empty, [32, 0, 269, 5616, 1, 3242, 0], [32, 1, 468]),
    ("matmul 0x80..0x98", 8, Same, [32, 32, 0, 0, 1, 1814, 234], [32, 1, 468]),
    ("matmul 0x80..0x98", 8, Other, [32, 0, 269, 5616, 1, 3242, 0], [33, 2, 468]),
    ("matmul 0x80..0x98", 16, Empty, [32, 0, 269, 5616, 0, 3242, 0], [32, 1, 234]),
    ("matmul 0x80..0x98", 16, Same, [32, 32, 0, 0, 1, 1814, 234], [32, 1, 468]),
    ("matmul 0x80..0x98", 16, Other, [32, 0, 269, 5616, 0, 3242, 0], [33, 2, 234]),
    ("fir 0x14..0x8c", 8, Empty, [506, 0, 0, 0, 0, 0, 0], [3, 1, 0]),
    ("fir 0x14..0x8c", 8, Same, [506, 506, 0, 0, 1, 0, 0], [3, 1, 0]),
    ("fir 0x14..0x8c", 8, Other, [506, 0, 0, 0, 0, 0, 0], [35, 2, 468]),
    ("fir 0xa0..0xb8", 8, Empty, [32, 0, 269, 5616, 1, 3242, 0], [32, 1, 468]),
    ("fir 0xa0..0xb8", 8, Same, [32, 32, 0, 0, 1, 1814, 234], [32, 1, 468]),
    ("fir 0xa0..0xb8", 8, Other, [32, 0, 269, 5616, 1, 3242, 0], [35, 2, 468]),
    ("fir 0xa0..0xb8", 16, Empty, [32, 0, 269, 5616, 0, 3242, 0], [32, 1, 234]),
    ("fir 0xa0..0xb8", 16, Same, [32, 32, 0, 0, 1, 1814, 234], [32, 1, 468]),
    ("fir 0xa0..0xb8", 16, Other, [32, 0, 269, 5616, 0, 3242, 0], [35, 2, 234]),
    ("crc32 0x10..0x2c", 8, Empty, [32, 0, 32, 768, 0, 219, 0], [1, 1, 32]),
    ("crc32 0x10..0x2c", 8, Same, [32, 32, 0, 0, 1, 109, 32], [1, 1, 32]),
    ("crc32 0x10..0x2c", 8, Other, [32, 0, 32, 768, 0, 219, 0], [33, 2, 500]),
    ("phased 0x20..0x44", 8, Empty, [32, 0, 54, 768, 0, 0, 0], [2, 1, 0]),
    ("phased 0x20..0x44", 8, Same, [32, 32, 0, 0, 1, 0, 0], [2, 1, 0]),
    ("phased 0x20..0x44", 8, Other, [32, 10, 44, 768, 0, 0, 0], [2, 2, 32]),
    ("phased 0x70..0x94", 8, Empty, [32, 0, 50, 768, 0, 0, 0], [2, 1, 0]),
    ("phased 0x70..0x94", 8, Same, [32, 32, 0, 0, 1, 0, 0], [2, 1, 0]),
    ("phased 0x70..0x94", 8, Other, [32, 32, 0, 0, 1, 0, 0], [2, 1, 0]),
    ("phased 0xb4..0xd0", 8, Empty, [32, 0, 32, 768, 0, 258, 0], [1, 1, 32]),
    ("phased 0xb4..0xd0", 8, Same, [32, 32, 0, 0, 1, 145, 32], [1, 1, 32]),
    ("phased 0xb4..0xd0", 8, Other, [32, 32, 0, 768, 0, 258, 0], [2, 2, 32]),
    ("phased A then A′", 8, Empty, [32, 0, 50, 768, 0, 0, 0], [2, 1, 0]),
    ("phased A then A′", 8, Same, [32, 32, 0, 0, 1, 0, 0], [2, 1, 0]),
    ("phased A then A′", 8, Other, [32, 32, 0, 0, 1, 0, 0], [2, 1, 0]),
];

struct Region {
    label: String,
    gates: GateNetlist,
}

fn region(built: &BuiltWorkload, hot: &HotRegion) -> Option<Region> {
    let decompiled = pipeline::decompile(built, hot).ok()?;
    Some(Region {
        label: format!("{} {:#x}..{:#x}", built.name, hot.head, hot.tail),
        gates: warp_synth::synthesize(&decompiled.kernel).netlist,
    })
}

/// Every decompilable region the profiler ranks, workload by workload.
fn ranked_regions() -> Vec<Region> {
    let options = WarpOptions::default();
    let mut regions = Vec::new();
    for workload in workloads::all() {
        let built = workload.build(MbFeatures::paper_default());
        let traced = pipeline::trace_software(&built, &options).unwrap();
        let mut profiler = Profiler::new(options.profiler);
        profiler.observe_trace(&traced.trace);
        for hot in profiler.hot_regions() {
            if (workload.name, hot.head, hot.tail) != SKIPPED {
                regions.extend(region(&built, hot));
            }
        }
    }
    regions
}

fn base(luts: &LutNetlist) -> FabricConfig {
    FabricConfig::sized_for(luts.lut_count(), luts.ffs().len())
}

fn work(w: &CadWork) -> [u64; 7] {
    let (m, f) = (w.map, w.fabric);
    let restored = u64::from(f.place_restored);
    let held = f.nets_restored as u64;
    [
        m.clusters,
        m.clusters_reused,
        m.gates_enumerated,
        f.place_attempts,
        restored,
        f.routed_wires,
        held,
    ]
}

type Compiled = Result<(LutNetlist, CompiledCircuit, CadWork), CompileError>;

/// Maps `gates` through `store` and compiles them from `config` (their
/// base width when `None`), charging `caches`.
fn compile(
    store: &CadStore,
    caches: &CadCaches,
    gates: &GateNetlist,
    config: Option<&FabricConfig>,
) -> Compiled {
    let (luts, map) = map_netlist_cached(gates, &store.map, Some(&caches.map));
    let config = config.cloned().unwrap_or_else(|| base(&luts));
    let (circuit, fabric) = compile_cached(&luts, &config, &store.fabric, Some(&caches.fabric))?;
    Ok((luts, circuit, CadWork { map, fabric }))
}

/// One row: fresh caches filled with `prior` through `fill`, then
/// `gates` compiled from `config` through `store`. Returns the outcome,
/// the caches' sizes, and `store`'s counters around the row's compile.
fn row(
    store: &CadStore,
    fill: &CadStore,
    prior: Option<&GateNetlist>,
    gates: &GateNetlist,
    config: &FabricConfig,
) -> (Compiled, [usize; 3], [StoreStats; 2]) {
    let caches = CadCaches::new();
    if let Some(prior) = prior {
        let _ = compile(fill, &caches, prior, None);
    }
    let before = store.stats();
    let outcome = compile(store, &caches, gates, Some(config));
    let sizes = [caches.map.len(), caches.fabric.place.len(), caches.fabric.route.len()];
    (outcome, sizes, [before, store.stats()])
}

fn assert_same(label: &str, cold: &Compiled, warm: &Compiled) {
    match (cold, warm) {
        (Ok((cl, c, cw)), Ok((wl, w, ww))) => {
            assert_eq!(cl, wl, "{label}: mapped netlist");
            assert_eq!(cw, ww, "{label}: CAD work");
            assert_eq!(c.config, w.config, "{label}: config");
            assert_eq!(c.placement.lut_slot, w.placement.lut_slot, "{label}: LUT placement");
            assert_eq!(c.placement.ff_slot, w.placement.ff_slot, "{label}: FF placement");
            assert_eq!(c.bitstream, w.bitstream, "{label}: bitstream");
            assert_eq!(c.route_stats, w.route_stats, "{label}: route stats");
            assert_eq!(c.timing, w.timing, "{label}: timing");
        }
        (c, w) => assert_eq!(c.as_ref().err(), w.as_ref().err(), "{label}: outcome"),
    }
}

/// Checks `gates` at every width its cold compile tries, against the
/// next rows of `reference`.
fn check<'a>(
    label: &str,
    gates: &GateNetlist,
    other: &GateNetlist,
    reference: &mut impl Iterator<Item = &'a Row>,
) {
    let luts = map_netlist(gates);
    let start = base(&luts);
    let last = match warp_fabric::compile(&luts, &start) {
        Ok(circuit) => circuit.config.tracks,
        Err(CompileError::Unroutable { tracks, .. }) => tracks / 2,
        Err(CompileError::FabricFull { .. }) => start.tracks,
    };
    let warm = CadStore::default();
    let mut config = start;
    loop {
        let _ = compile(&warm, &CadCaches::new(), gates, Some(&config));
        for (prior, netlist) in [(Empty, None), (Same, Some(gates)), (Other, Some(other))] {
            let at = format!("{label} at {} tracks, {prior:?}", config.tracks);
            let (cold, cold_sizes, _) =
                row(&CadStore::default(), &CadStore::default(), netlist, gates, &config);
            let (hot, hot_sizes, [before, after]) = row(&warm, &warm, netlist, gates, &config);
            assert_same(&at, &cold, &hot);
            assert_eq!(cold_sizes, hot_sizes, "{at}: modeled cache sizes");
            let misses = |s: StoreStats| [s.map.misses, s.place.misses, s.route.misses];
            assert_eq!(misses(after), misses(before), "{at}: a warm store computes nothing");

            let Some(&(name, tracks, state, want, sizes)) = reference.next() else {
                panic!("{at}: no reference row");
            };
            assert_eq!((name, tracks, state), (label, config.tracks, prior), "reference order");
            let (_, _, got) = cold.as_ref().unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(work(got), want, "{at}: CAD work against the reference");
            assert_eq!(cold_sizes, sizes, "{at}: cache sizes against the reference");
        }
        if config.tracks >= last {
            break;
        }
        config.tracks *= 2;
    }
}

#[test]
fn a_cold_and_a_warm_store_charge_the_reference_work() {
    let regions = ranked_regions();
    assert!(regions.len() >= workloads::all().len(), "every workload ranks a region");
    let mut reference = REFERENCE.iter();
    for (i, r) in regions.iter().enumerate() {
        let other = &regions[(i + regions.len() - 1) % regions.len()];
        check(&r.label, &r.gates, &other.gates, &mut reference);
    }

    // The phased re-warp: A's entries in the modeled caches, then A′.
    let built = workloads::phased::build(MbFeatures::paper_default());
    let [a, a2, _] = workloads::phased::phase_kernels(&built);
    let hot = |k: &workloads::KernelBounds| HotRegion { head: k.head, tail: k.tail, count: 1 };
    let (a, a2) = (region(&built, &hot(&a)).unwrap(), region(&built, &hot(&a2)).unwrap());
    check("phased A then A′", &a2.gates, &a.gates, &mut reference);
    assert!(reference.next().is_none(), "every reference row is checked");
}
