//! The Riverside On-Chip Router: negotiated-congestion routing.
//!
//! ROCR (DAC'04, "Dynamic FPGA Routing for Just-in-Time FPGA
//! Compilation") follows the PathFinder recipe — route every net by
//! cheapest path, let nets temporarily share wires, then raise the cost
//! of congested wires and rip-up/re-route until no wire is shared — but
//! with the small, regular cost structures an on-chip tool can afford.
//! This implementation uses A*-directed searches over the wire graph
//! with integer milli-unit costs and epoch-stamped visited arrays (no
//! per-iteration clearing), which is both fast and memory-lean.
//!
//! Iteration 0 is congestion-blind: the presence multiplier starts at
//! zero, so every net's first route is a pure function of the fabric
//! geometry, its driver slot, and its ordered sink list. That purity is
//! what makes the per-net [`RouteCache`] sound: an on-chip router that
//! restored a first-pass path would get the one it would have computed,
//! and the negotiation iterations that resolve any sharing would
//! proceed identically.
//!
//! The whole negotiation is likewise a pure function of the geometry
//! and the ordered net list, which is what lets a [`FabricStore`] keep
//! each routing once on the host (see [`route_cached`]).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::{Arc, Mutex};

use warp_synth::map::LutNode;
use warp_synth::LutNetlist;

use crate::arch::{FabricConfig, SlotId, WireId, Wires};
use crate::place::Placement;
use crate::FabricStore;

/// Milli-unit base cost of one wire segment.
const BASE_COST: u64 = 1000;
/// Maximum rip-up/re-route iterations before widening channels.
const MAX_ITERS: usize = 24;

/// One routed sink: the pin it reaches and the wire path driving it.
#[derive(Clone, Debug)]
pub struct RoutedSink {
    /// The slot whose pin this path feeds.
    pub slot: SlotId,
    /// Which pin: `0..3` = LUT inputs, `3` = FF D.
    pub pin: u8,
    /// Wire sequence from the net's tree (or the driver) to the sink;
    /// `path[0]` is driven by the driver slot or by an earlier tree
    /// wire, each subsequent wire by its predecessor.
    pub path: Vec<WireId>,
}

/// A routed net: a driver and its sink paths.
#[derive(Clone, Debug)]
pub struct RoutedNet {
    /// Netlist node index of the driver (LUT or FF-Q node).
    pub driver_node: u32,
    /// The driver's slot.
    pub driver_slot: SlotId,
    /// Routed sinks.
    pub sinks: Vec<RoutedSink>,
}

/// Router result statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct RouteStats {
    /// Rip-up/re-route iterations used.
    pub iterations: usize,
    /// Total wire segments in use.
    pub wirelength: u64,
    /// Channel width routed at.
    pub tracks: usize,
    /// Number of routed nets.
    pub nets: usize,
}

/// The complete routing.
#[derive(Clone, Debug)]
pub struct Routing {
    /// All routed nets.
    pub nets: Vec<RoutedNet>,
    /// Statistics.
    pub stats: RouteStats,
}

/// Routing failure: congestion never resolved.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteError {
    /// Wires still shared after the iteration limit.
    Congested {
        /// Number of overused wires.
        overused: usize,
    },
}

/// A net awaiting routing.
#[derive(PartialEq, Eq, Hash, Debug)]
struct PendingNet {
    driver_node: u32,
    driver_slot: SlotId,
    sinks: Vec<(SlotId, u8)>,
}

/// The full identity of a first-pass net route: everything the
/// congestion-blind iteration-0 search depends on. The driver node
/// index is deliberately excluded — it names the net but does not
/// influence its path.
#[derive(PartialEq, Eq, Hash, Debug)]
struct NetKey {
    rows: usize,
    cols: usize,
    tracks: usize,
    driver_slot: SlotId,
    sinks: Vec<(SlotId, u8)>,
}

impl NetKey {
    fn of(key: &RouteKey, net: &PendingNet) -> Self {
        NetKey {
            rows: key.rows,
            cols: key.cols,
            tracks: key.tracks,
            driver_slot: net.driver_slot,
            sinks: net.sinks.clone(),
        }
    }
}

/// Everything the negotiated router reads: the fabric geometry and the
/// ordered net list [`collect_nets`] builds. The key of a
/// [`FabricStore`] routing.
#[derive(PartialEq, Eq, Hash, Debug)]
pub(crate) struct RouteKey {
    rows: usize,
    cols: usize,
    tracks: usize,
    nets: Vec<PendingNet>,
}

/// A stored negotiation: its outcome, the wires it traversed over all
/// iterations, and the wires of every net's iteration-0 paths in net
/// order (only the nets iteration 0 finished, should the search be
/// blocked part-way).
#[derive(Debug)]
pub(crate) struct RouteEntry {
    outcome: Result<Arc<Routing>, RouteError>,
    fresh_wires: u64,
    first_pass_wires: Vec<u64>,
}

impl RouteEntry {
    /// Charges the negotiation against the modeled `cache`, walking
    /// iteration 0 in net order as the on-chip router would: a net the
    /// cache holds is restored and its wires come off the total; any
    /// other net is added to the cache.
    fn charge(
        &self,
        key: &RouteKey,
        cache: Option<&RouteCache>,
    ) -> Result<(Arc<Routing>, RouteWork), RouteError> {
        let mut work = RouteWork { routed_wires: self.fresh_wires, nets_restored: 0 };
        if let Some(cache) = cache {
            let mut held = cache.nets.lock().expect("route cache lock");
            for (net, &wires) in key.nets.iter().zip(&self.first_pass_wires) {
                if !held.insert(NetKey::of(key, net)) {
                    work.nets_restored += 1;
                    work.routed_wires -= wires;
                }
            }
        }
        self.outcome.clone().map(|routing| (routing, work))
    }
}

/// The first-pass net routes the on-chip router has already computed,
/// shared across compiles: the model of its reuse.
///
/// Keys cover the fabric geometry, the driver slot, and the ordered
/// sink list, so a re-warped kernel whose placement survives intact
/// would restore its wire paths instead of re-running the A* searches,
/// and the cost model charges only the searches that ran. It holds only
/// keys, compared in full; the routing itself comes from a
/// [`FabricStore`] and never depends on the cache.
#[derive(Debug, Default)]
pub struct RouteCache {
    nets: Mutex<HashSet<NetKey>>,
}

impl RouteCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of net routes held.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nets.lock().expect("route cache lock").len()
    }

    /// True when no net route is held yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Modeled work the on-chip router performed, given what its cache held.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RouteWork {
    /// Wire segments traversed by freshly computed paths, summed over
    /// every iteration. Restored first-pass routes charge nothing.
    pub routed_wires: u64,
    /// Nets whose first-pass route the cache held.
    pub nets_restored: usize,
}

/// Collects the nets that must use general routing: LUT/FF-Q sources to
/// LUT-input/FF-D sinks. Input-bus and output-bus connections are
/// dedicated wiring and need no channel resources.
fn collect_nets(netlist: &LutNetlist, placement: &Placement) -> Vec<PendingNet> {
    let slot_of_driver = |node: u32| -> Option<SlotId> {
        match netlist.nodes()[node as usize] {
            LutNode::Lut { .. } => Some(placement.slot_of_lut(node)),
            LutNode::FfQ(k) => Some(placement.ff_slot[&k]),
            _ => None,
        }
    };
    let mut sinks_by_driver: HashMap<u32, Vec<(SlotId, u8)>> = HashMap::new();
    for (i, node) in netlist.nodes().iter().enumerate() {
        if let LutNode::Lut { inputs, .. } = node {
            let slot = placement.slot_of_lut(i as u32);
            for (pin, &inp) in inputs.iter().enumerate() {
                if slot_of_driver(inp).is_some() {
                    sinks_by_driver.entry(inp).or_default().push((slot, pin as u8));
                }
            }
        }
    }
    for (k, ff) in netlist.ffs().iter().enumerate() {
        if let Some(driver_slot) = slot_of_driver(ff.d) {
            let slot = placement.ff_slot[&k];
            let internal_feed = matches!(netlist.nodes()[ff.d as usize], LutNode::Lut { .. })
                && driver_slot == slot;
            if !internal_feed {
                sinks_by_driver.entry(ff.d).or_default().push((slot, 3));
            }
        }
    }
    let mut nets: Vec<PendingNet> = sinks_by_driver
        .into_iter()
        .map(|(driver_node, sinks)| PendingNet {
            driver_node,
            driver_slot: slot_of_driver(driver_node).expect("driver placed"),
            sinks,
        })
        .collect();
    // Deterministic order, larger nets first (hardest to route).
    nets.sort_by_key(|n| (Reverse(n.sinks.len()), n.driver_node));
    nets
}

/// Routes a placed netlist.
///
/// # Errors
///
/// Returns [`RouteError::Congested`] if wires are still shared after
/// `MAX_ITERS` (24) iterations (the caller widens the channels and retries).
pub fn route(
    netlist: &LutNetlist,
    placement: &Placement,
    config: &FabricConfig,
) -> Result<Arc<Routing>, RouteError> {
    negotiate(&collect_nets(netlist, placement), config).outcome
}

/// Routes a placed netlist through the host `store`, charging every
/// wire the router traversed except the first-pass routes of nets
/// `cache` already held (and adding the others to it).
///
/// A net list routed before at this geometry is not routed again. The
/// routing is bit-identical to [`route`]'s whatever `store` and `cache`
/// hold; only [`RouteWork`] depends on the cache.
///
/// # Errors
///
/// Returns [`RouteError::Congested`] if wires are still shared after
/// `MAX_ITERS` (24) iterations (the caller widens the channels and retries).
pub fn route_cached(
    netlist: &LutNetlist,
    placement: &Placement,
    config: &FabricConfig,
    store: &FabricStore,
    cache: Option<&RouteCache>,
) -> Result<(Arc<Routing>, RouteWork), RouteError> {
    let key = Arc::new(RouteKey {
        rows: config.rows,
        cols: config.cols,
        tracks: config.tracks,
        nets: collect_nets(netlist, placement),
    });
    let entry = match store.routes.get(&key) {
        Some(entry) => entry,
        None => {
            let entry = Arc::new(negotiate(&key.nets, config));
            store.routes.insert(Arc::clone(&key), Arc::clone(&entry));
            entry
        }
    };
    entry.charge(&key, cache)
}

/// The negotiated-congestion router over an ordered net list.
fn negotiate(pending: &[PendingNet], config: &FabricConfig) -> RouteEntry {
    let wires = Wires::new(config);
    let n_wires = wires.count();
    let mut fresh_wires = 0;
    let mut first_pass_wires: Vec<u64> = Vec::with_capacity(pending.len());

    let mut history: Vec<u64> = vec![0; n_wires];
    let mut occupancy: Vec<u16> = vec![0; n_wires];
    // Iteration 0 is congestion-blind (see the module docs); the
    // presence multiplier only turns on once sharing is observed.
    let mut pres_mult: u64 = 0;

    // Epoch-stamped A* state.
    let mut gscore: Vec<u64> = vec![0; n_wires];
    let mut prev: Vec<u32> = vec![u32::MAX; n_wires];
    let mut stamp: Vec<u32> = vec![0; n_wires];
    let mut goal_stamp: Vec<u32> = vec![0; n_wires];
    let mut tree_stamp: Vec<u32> = vec![0; n_wires];
    let mut epoch: u32 = 0;
    let mut goal_epoch: u32 = 0;
    let mut tree_epoch: u32 = 0;

    let mut scratch = Vec::new();
    let mut routes: Vec<Option<RoutedNet>> = (0..pending.len()).map(|_| None).collect();

    for iter in 0..MAX_ITERS {
        // Selective rip-up: after the first iteration only nets that
        // touch congested wires are re-routed (the lean variant of
        // PathFinder's negotiation — far less work per iteration).
        let to_route: Vec<usize> = if iter == 0 {
            (0..pending.len()).collect()
        } else {
            (0..pending.len())
                .filter(|&i| {
                    routes[i].as_ref().is_none_or(|r| {
                        r.sinks.iter().any(|s| s.path.iter().any(|w| occupancy[w.0 as usize] > 1))
                    })
                })
                .collect()
        };

        for &net_idx in &to_route {
            // Rip up the previous route of this net.
            if let Some(old) = routes[net_idx].take() {
                let mut seen = std::collections::HashSet::new();
                for sink in &old.sinks {
                    for &w in &sink.path {
                        if seen.insert(w) {
                            occupancy[w.0 as usize] = occupancy[w.0 as usize].saturating_sub(1);
                        }
                    }
                }
            }
            let net = &pending[net_idx];
            let (dr, dc, _) = net.driver_slot.pos(config);
            let mut routed = RoutedNet {
                driver_node: net.driver_node,
                driver_slot: net.driver_slot,
                sinks: Vec::with_capacity(net.sinks.len()),
            };
            // Tree wires of this net (cost-free re-entry points).
            tree_epoch += 1;
            let mut tree_wires: Vec<WireId> = Vec::new();

            // Route sinks farthest-first.
            let mut order: Vec<usize> = (0..net.sinks.len()).collect();
            order.sort_by_key(|&i| {
                let (sr, sc, _) = net.sinks[i].0.pos(config);
                Reverse(sr.abs_diff(dr) + sc.abs_diff(dc))
            });

            for &si in &order {
                let (sink_slot, pin) = net.sinks[si];
                let (sr, sc, _) = sink_slot.pos(config);

                // Mark goal wires.
                goal_epoch += 1;
                wires.clb_wires(sr, sc, &mut scratch);
                for &w in &scratch {
                    goal_stamp[w.0 as usize] = goal_epoch;
                }

                // Wire cost under present congestion + history.
                let cost_of = |w: WireId, occupancy: &[u16], history: &[u64]| -> u64 {
                    let o = occupancy[w.0 as usize] as u64;
                    BASE_COST + history[w.0 as usize] + o * pres_mult
                };

                epoch += 1;
                let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
                let h = |w: WireId| -> u64 {
                    let (mr, mc) = wires.midpoint(w);
                    let d = (mr - sr as f32).abs() + (mc - sc as f32).abs();
                    (d as u64).saturating_sub(1) * BASE_COST
                };

                // Seeds: the net's existing tree (free) plus the driver's
                // adjacent wires (paid).
                if tree_wires.is_empty() {
                    wires.clb_wires(dr, dc, &mut scratch);
                    for &w in &scratch {
                        let g = cost_of(w, &occupancy, &history);
                        if stamp[w.0 as usize] != epoch || gscore[w.0 as usize] > g {
                            stamp[w.0 as usize] = epoch;
                            gscore[w.0 as usize] = g;
                            prev[w.0 as usize] = u32::MAX;
                            heap.push(Reverse((g + h(w), w.0)));
                        }
                    }
                } else {
                    for &w in &tree_wires {
                        stamp[w.0 as usize] = epoch;
                        gscore[w.0 as usize] = 0;
                        prev[w.0 as usize] = u32::MAX;
                        heap.push(Reverse((h(w), w.0)));
                    }
                }

                let mut found: Option<WireId> = None;
                while let Some(Reverse((f, widx))) = heap.pop() {
                    let w = WireId(widx);
                    let g = gscore[widx as usize];
                    if stamp[widx as usize] == epoch && f > g + h(w) {
                        continue; // stale entry
                    }
                    if goal_stamp[widx as usize] == goal_epoch {
                        found = Some(w);
                        break;
                    }
                    wires.neighbors(w, &mut scratch);
                    for &nw in &scratch {
                        let ng = g + cost_of(nw, &occupancy, &history);
                        if stamp[nw.0 as usize] != epoch || gscore[nw.0 as usize] > ng {
                            stamp[nw.0 as usize] = epoch;
                            gscore[nw.0 as usize] = ng;
                            prev[nw.0 as usize] = widx;
                            heap.push(Reverse((ng + h(nw), nw.0)));
                        }
                    }
                }

                let Some(goal) = found else {
                    // Completely blocked: should not happen with full
                    // connection boxes, but treat as total congestion.
                    return RouteEntry {
                        outcome: Err(RouteError::Congested { overused: usize::MAX }),
                        fresh_wires,
                        first_pass_wires,
                    };
                };

                // Recover the path (goal back to a seed).
                let mut path = vec![goal];
                let mut cur = goal;
                while prev[cur.0 as usize] != u32::MAX {
                    cur = WireId(prev[cur.0 as usize]);
                    path.push(cur);
                }
                path.reverse();
                fresh_wires += path.len() as u64;
                // Add new wires to tree and occupancy (skip wires already
                // in this net's tree).
                for &w in &path {
                    if tree_stamp[w.0 as usize] != tree_epoch {
                        tree_stamp[w.0 as usize] = tree_epoch;
                        tree_wires.push(w);
                        occupancy[w.0 as usize] += 1;
                    }
                }
                routed.sinks.push(RoutedSink { slot: sink_slot, pin, path });
            }
            if iter == 0 {
                first_pass_wires.push(routed.sinks.iter().map(|s| s.path.len() as u64).sum());
            }
            routes[net_idx] = Some(routed);
        }

        // Congestion check.
        let overused = occupancy.iter().filter(|&&o| o > 1).count();
        if overused == 0 {
            let wirelength = occupancy.iter().map(|&o| u64::from(o)).sum();
            let nets: Vec<RoutedNet> = routes.into_iter().flatten().collect();
            let routing = Routing {
                nets,
                stats: RouteStats {
                    iterations: iter + 1,
                    wirelength,
                    tracks: config.tracks,
                    nets: pending.len(),
                },
            };
            return RouteEntry { outcome: Ok(Arc::new(routing)), fresh_wires, first_pass_wires };
        }
        for (w, &o) in occupancy.iter().enumerate() {
            if o > 1 {
                history[w] += u64::from(o - 1) * 400;
            }
        }
        pres_mult = if pres_mult == 0 { 500 } else { (pres_mult as f64 * 1.7) as u64 };
    }

    let overused = occupancy.iter().filter(|&&o| o > 1).count();
    RouteEntry { outcome: Err(RouteError::Congested { overused }), fresh_wires, first_pass_wires }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::place;
    use warp_synth::bits::{GateNetlist, InputWord};
    use warp_synth::map::map_netlist;

    fn adder_netlist() -> LutNetlist {
        let mut n = GateNetlist::new();
        let a = n.input_word(InputWord::Load { stream: 0, offset: 0 });
        let b = n.input_word(InputWord::Load { stream: 1, offset: 0 });
        let s = n.add_word(a, b, false);
        n.output(0, s);
        map_netlist(&n)
    }

    #[test]
    fn adder_routes_cleanly() {
        let nl = adder_netlist();
        let mut cfg = FabricConfig::sized_for(nl.lut_count(), 0);
        cfg.tracks = 16;
        let p = place(&nl, &cfg).unwrap();
        let r = route(&nl, &p, &cfg).expect("adder must route");
        assert!(r.stats.iterations <= MAX_ITERS);
        assert!(r.stats.wirelength > 0);
        // Every LUT-to-LUT edge must have a routed sink somewhere.
        let expected_sinks: usize = nl
            .nodes()
            .iter()
            .map(|n| match n {
                LutNode::Lut { inputs, .. } => inputs
                    .iter()
                    .filter(|&&i| matches!(nl.nodes()[i as usize], LutNode::Lut { .. }))
                    .count(),
                _ => 0,
            })
            .sum();
        let routed_sinks: usize = r.nets.iter().map(|n| n.sinks.len()).sum();
        assert_eq!(routed_sinks, expected_sinks);
    }

    #[test]
    fn paths_are_connected_and_exclusive() {
        let nl = adder_netlist();
        let mut cfg = FabricConfig::sized_for(nl.lut_count(), 0);
        cfg.tracks = 16;
        let p = place(&nl, &cfg).unwrap();
        let r = route(&nl, &p, &cfg).unwrap();
        let wires = Wires::new(&cfg);
        let mut owner: HashMap<WireId, u32> = HashMap::new();
        let mut scratch = Vec::new();
        for net in &r.nets {
            let mut tree: Vec<WireId> = Vec::new();
            for sink in &net.sinks {
                // Path wires: consecutive wires must be graph neighbors.
                for pair in sink.path.windows(2) {
                    wires.neighbors(pair[0], &mut scratch);
                    assert!(scratch.contains(&pair[1]), "disconnected path");
                }
                // First wire must touch the driver CLB or the net's tree.
                let (dr, dc, _) = net.driver_slot.pos(&cfg);
                wires.clb_wires(dr, dc, &mut scratch);
                let first = sink.path[0];
                assert!(
                    scratch.contains(&first) || tree.contains(&first),
                    "path must start at driver or tree"
                );
                // Last wire must touch the sink CLB.
                let (sr, sc, _) = sink.slot.pos(&cfg);
                wires.clb_wires(sr, sc, &mut scratch);
                assert!(scratch.contains(sink.path.last().unwrap()), "path must reach sink");
                // Exclusivity.
                for &w in &sink.path {
                    if let Some(&o) = owner.get(&w) {
                        assert_eq!(o, net.driver_node, "wire {w:?} shared between nets");
                    }
                    owner.insert(w, net.driver_node);
                    if !tree.contains(&w) {
                        tree.push(w);
                    }
                }
            }
        }
    }

    fn ff_netlist() -> LutNetlist {
        // An accumulator: FFs feed back into an adder, so FF-Q nets and
        // LUT-to-FF-D nets exercise general routing.
        let mut n = GateNetlist::new();
        let a = n.input_word(InputWord::Load { stream: 0, offset: 0 });
        let (ffs, qs): (Vec<_>, Vec<_>) = (0..32).map(|bit| n.ff(mb_isa::Reg::R22, bit)).unzip();
        let acc = core::array::from_fn(|i| qs[i]);
        let s = n.add_word(a, acc, false);
        for (ff, d) in ffs.into_iter().zip(s) {
            n.set_ff_d(ff, d);
        }
        n.output(0, s);
        map_netlist(&n)
    }

    #[test]
    fn cached_routing_is_bit_identical_and_charges_only_fresh_paths() {
        let nl = ff_netlist();
        let mut cfg = FabricConfig::sized_for(nl.lut_count(), nl.ffs().len());
        cfg.tracks = 16;
        let p = place(&nl, &cfg).unwrap();
        let fresh = route(&nl, &p, &cfg).expect("accumulator must route");
        assert!(fresh.stats.nets > 0);

        let store = FabricStore::default();
        let cache = RouteCache::new();
        let (first, w1) = route_cached(&nl, &p, &cfg, &store, Some(&cache)).unwrap();
        assert_eq!(w1.nets_restored, 0);
        assert!(w1.routed_wires > 0);
        assert!(!cache.is_empty());

        let (second, w2) = route_cached(&nl, &p, &cfg, &store, Some(&cache)).unwrap();
        assert_eq!(w2.nets_restored, first.stats.nets, "every first-pass route must restore");
        assert!(w2.routed_wires < w1.routed_wires, "restored first passes must not be re-charged");

        for r in [&first, &second] {
            assert_eq!(r.stats, fresh.stats);
            assert_eq!(r.nets.len(), fresh.nets.len());
            for (a, b) in r.nets.iter().zip(&fresh.nets) {
                assert_eq!(a.driver_node, b.driver_node);
                assert_eq!(a.driver_slot, b.driver_slot);
                assert_eq!(a.sinks.len(), b.sinks.len());
                for (sa, sb) in a.sinks.iter().zip(&b.sinks) {
                    assert_eq!((sa.slot, sa.pin), (sb.slot, sb.pin));
                    assert_eq!(sa.path, sb.path);
                }
            }
        }
    }

    type Flat = Vec<(u32, SlotId, Vec<(SlotId, u8, Vec<WireId>)>)>;

    /// A routing outcome in comparable form, with the cache's size after.
    fn outcome(
        result: Result<(Arc<Routing>, RouteWork), RouteError>,
        cache: &RouteCache,
    ) -> (Result<(Flat, RouteStats, RouteWork), RouteError>, usize) {
        let flat = result.map(|(r, work)| {
            let nets = r.nets.iter().map(|n| {
                let sinks = n.sinks.iter().map(|s| (s.slot, s.pin, s.path.clone())).collect();
                (n.driver_node, n.driver_slot, sinks)
            });
            (nets.collect(), r.stats, work)
        });
        (flat, cache.len())
    }

    #[test]
    fn a_warm_store_routes_nothing_and_charges_what_a_cold_one_does() {
        let nl = ff_netlist();
        let mut cfg = FabricConfig::sized_for(nl.lut_count(), nl.ffs().len());
        let p = place(&nl, &cfg).unwrap();
        // A congested width, then a routable one.
        for tracks in [2, 16] {
            cfg.tracks = tracks;
            let route = |store: &FabricStore, cache: &RouteCache| {
                outcome(route_cached(&nl, &p, &cfg, store, Some(cache)), cache)
            };
            let primed = || {
                let cache = RouteCache::new();
                let _ = route_cached(&nl, &p, &cfg, &FabricStore::default(), Some(&cache));
                cache
            };
            let cold = [
                route(&FabricStore::default(), &RouteCache::new()),
                route(&FabricStore::default(), &primed()),
            ];
            if let (Ok((_, stats, empty)), Ok((_, _, held))) = (&cold[0].0, &cold[1].0) {
                assert_eq!(held.nets_restored, stats.nets, "a primed cache holds every net");
                assert!(held.routed_wires < empty.routed_wires);
            }

            let warm = FabricStore::default();
            let _ = route(&warm, &RouteCache::new());
            assert_eq!(route(&warm, &RouteCache::new()), cold[0], "{tracks} tracks, empty");
            assert_eq!(route(&warm, &primed()), cold[1], "{tracks} tracks, primed");
            assert_eq!((warm.route_lookups().hits, warm.route_lookups().misses), (2, 1));
        }
    }

    #[test]
    fn tight_fabric_reports_congestion() {
        // Many nets, one track: must congest.
        let nl = adder_netlist();
        let cfg = FabricConfig { rows: 12, cols: 12, tracks: 1, delays: Default::default() };
        let p = place(&nl, &cfg).unwrap();
        match route(&nl, &p, &cfg) {
            Err(RouteError::Congested { .. }) => {}
            Ok(r) => {
                // If it managed to route at width 1, that is also fine —
                // but exclusivity must then hold.
                assert!(r.stats.wirelength > 0);
            }
        }
    }
}
