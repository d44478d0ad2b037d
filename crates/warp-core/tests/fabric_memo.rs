//! The host place-and-route memo is invisible to results.
//!
//! For every hot region the profiler ranks in each registry workload,
//! and at each channel width the compiler's sweep tries for it, a
//! compile over a [`FabricMemo`] must equal the same compile with no
//! memo: every `CompiledCircuit` field, the reported `FabricWork`, and
//! the entries it leaves in the modeled caches. The memo is checked cold
//! (it records the routing while the modeled caches hold another
//! kernel's entries, so some nets are restored), then warm against
//! modeled caches that are empty, that hold the same netlist's entries,
//! and that hold another kernel's — among them the phased workload's A
//! before its shifted A′.

use std::sync::Arc;

use mb_isa::MbFeatures;
use warp_core::{pipeline, WarpOptions};
use warp_fabric::{
    compile_cached, CompileError, CompiledCircuit, FabricCaches, FabricConfig, FabricMemo,
    FabricWork,
};
use warp_profiler::{HotRegion, Profiler};
use warp_synth::LutNetlist;
use workloads::BuiltWorkload;

/// idct's outer region, whose cold compile alone takes ~23 s.
const SKIPPED: (&str, u32, u32) = ("idct", 0x44, 0x148);

struct Region {
    label: String,
    netlist: LutNetlist,
}

fn region(built: &BuiltWorkload, hot: &HotRegion) -> Option<Region> {
    let decompiled = pipeline::decompile(built, hot).ok()?;
    let synth = warp_synth::synthesize(&decompiled.kernel);
    Some(Region {
        label: format!("{} {:#x}..{:#x}", built.name, hot.head, hot.tail),
        netlist: warp_synth::map::map_netlist(&synth.netlist),
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

fn base(netlist: &LutNetlist) -> FabricConfig {
    FabricConfig::sized_for(netlist.lut_count(), netlist.ffs().len())
}

type Outcome = Result<(CompiledCircuit, FabricWork), CompileError>;

/// Compiles `prior` (when given) and then `netlist` at `config` through
/// `caches`, returning the second outcome and the modeled caches' sizes.
fn compile_after(
    caches: &FabricCaches,
    prior: Option<&LutNetlist>,
    netlist: &LutNetlist,
    config: &FabricConfig,
) -> (Outcome, [usize; 2]) {
    if let Some(prior) = prior {
        let _ = compile_cached(prior, &base(prior), Some(caches));
    }
    let outcome = compile_cached(netlist, config, Some(caches));
    (outcome, [caches.place.len(), caches.route.len()])
}

fn assert_same(
    label: &str,
    (memo, memo_lens): &(Outcome, [usize; 2]),
    (none, none_lens): &(Outcome, [usize; 2]),
) {
    assert_eq!(memo_lens, none_lens, "{label}: modeled cache entries");
    match (memo, none) {
        (Ok((m, mw)), Ok((n, nw))) => {
            assert_eq!(mw, nw, "{label}: fabric work");
            assert_eq!(m.config, n.config, "{label}: config");
            assert_eq!(m.placement.lut_slot, n.placement.lut_slot, "{label}: LUT placement");
            assert_eq!(m.placement.ff_slot, n.placement.ff_slot, "{label}: FF placement");
            assert_eq!(m.bitstream, n.bitstream, "{label}: bitstream");
            assert_eq!(m.route_stats, n.route_stats, "{label}: route stats");
            assert_eq!(m.timing, n.timing, "{label}: timing");
        }
        (m, n) => assert_eq!(m.as_ref().err(), n.as_ref().err(), "{label}: outcome"),
    }
}

/// Checks `netlist` at every width its cold compile tries, with
/// `other`'s entries in the modeled caches for the cold-memo compile.
fn check(label: &str, netlist: &LutNetlist, other: &LutNetlist) {
    let start = base(netlist);
    let last = match compile_cached(netlist, &start, None) {
        Ok((circuit, _)) => circuit.config.tracks,
        Err(CompileError::Unroutable { tracks, .. }) => tracks / 2,
        Err(CompileError::FabricFull { .. }) => start.tracks,
    };
    let mut config = start;
    loop {
        let label = format!("{label} at {} tracks", config.tracks);
        let memo = Arc::new(FabricMemo::new());
        let no_memo = |prior: Option<&LutNetlist>| {
            compile_after(&FabricCaches::new(), prior, netlist, &config)
        };
        let with_memo = |prior: Option<&LutNetlist>| {
            compile_after(&FabricCaches::over(Arc::clone(&memo)), prior, netlist, &config)
        };
        assert_same(&format!("{label}, cold memo"), &with_memo(Some(other)), &no_memo(Some(other)));
        for (case, prior) in
            [("empty", None), ("same netlist", Some(netlist)), ("other", Some(other))]
        {
            let routed = memo.stats().route_misses;
            assert_same(&format!("{label}, warm memo, {case}"), &with_memo(prior), &no_memo(prior));
            if prior.is_none() {
                assert_eq!(
                    memo.stats().route_misses,
                    routed,
                    "{label}: a warm memo must not route"
                );
            }
        }
        if config.tracks >= last {
            break;
        }
        config.tracks *= 2;
    }
}

#[test]
fn memo_replays_every_ranked_region_exactly() {
    let regions = ranked_regions();
    assert!(regions.len() >= workloads::all().len(), "every workload ranks a region");
    for (i, r) in regions.iter().enumerate() {
        let other = &regions[(i + regions.len() - 1) % regions.len()];
        check(&r.label, &r.netlist, &other.netlist);
    }

    // The phased re-warp: A's entries in the modeled caches, then A′.
    let built = workloads::phased::build(MbFeatures::paper_default());
    let [a, a2, _] = workloads::phased::phase_kernels(&built);
    let hot = |k: &workloads::KernelBounds| HotRegion { head: k.head, tail: k.tail, count: 1 };
    let (a, a2) = (region(&built, &hot(&a)).unwrap(), region(&built, &hot(&a2)).unwrap());
    check("phased A then A′", &a2.netlist, &a.netlist);
}
