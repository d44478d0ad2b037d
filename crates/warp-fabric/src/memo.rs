//! The host memo beneath the modeled place-and-route caches.
//!
//! [`PlaceCache`] and [`RouteCache`](crate::RouteCache) model the on-chip
//! tools' reuse: what they restore is work the lean processor skips, so
//! they change the modeled CAD cost. A host serving many sessions still
//! reruns the placer and the router for every session whose modeled
//! caches start empty, although both are pure functions of their inputs.
//! A [`FabricMemo`] keeps each result on the host instead, so a netlist
//! is placed and routed once per memo however many sessions compile it:
//!
//! * a **placement** is keyed by the placer's canonical view of the
//!   netlist and restored by LUT rank, exactly as the modeled
//!   [`PlaceCache`] restores one; it is consulted only when the modeled
//!   cache misses;
//! * a **routing** is keyed by everything the router reads — the fabric
//!   geometry and the ordered net list — and holds the routing or
//!   congestion outcome, the wires the router traversed over all its
//!   iterations as if no net had been restored, and every net's
//!   iteration-0 paths. A hit replays iteration 0 against the modeled
//!   route cache in net order.
//!
//! Either way the modeled caches fill and every reported
//! [`FabricWork`](crate::FabricWork) comes out exactly as if the tools had run, so the
//! memo is invisible to results. It is unbounded and lives as long as
//! its owner.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::place::{CachedPlacement, PlaceCache, PlaceView};
use crate::route::{RouteEntry, RouteKey};

/// Host calls a [`FabricMemo`] served or ran. These count host work,
/// which the modeled [`FabricWork`](crate::FabricWork) does not show.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemoStats {
    /// Placements restored from the memo instead of running the placer.
    pub place_hits: u64,
    /// Placer runs (each memoized).
    pub place_misses: u64,
    /// Routings replayed from the memo instead of running the router.
    pub route_hits: u64,
    /// Router runs (each memoized).
    pub route_misses: u64,
}

/// A host-side memo of placements and negotiated routings, shared by
/// every compile whose [`FabricCaches`](crate::FabricCaches) are built
/// over it. See the module docs.
#[derive(Debug, Default)]
pub struct FabricMemo {
    place: PlaceCache,
    routes: Mutex<HashMap<RouteKey, Arc<RouteEntry>>>,
    place_hits: AtomicU64,
    place_misses: AtomicU64,
    route_hits: AtomicU64,
    route_misses: AtomicU64,
}

impl FabricMemo {
    /// Creates an empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Hit and miss counts so far.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            place_hits: self.place_hits.load(Ordering::Relaxed),
            place_misses: self.place_misses.load(Ordering::Relaxed),
            route_hits: self.route_hits.load(Ordering::Relaxed),
            route_misses: self.route_misses.load(Ordering::Relaxed),
        }
    }

    /// The memoized placement for `view`, counting a hit or a miss.
    pub(crate) fn placement(&self, key: u64, view: &PlaceView) -> Option<CachedPlacement> {
        let hit = self.place.lookup(key, view);
        count(hit.is_some(), &self.place_hits, &self.place_misses);
        hit
    }

    /// Memoizes a placement the placer just computed.
    pub(crate) fn keep_placement(&self, key: u64, cached: CachedPlacement) {
        self.place.insert(key, cached);
    }

    /// The memoized routing for `key`, counting a hit or a miss.
    pub(crate) fn routing(&self, key: &RouteKey) -> Option<Arc<RouteEntry>> {
        let hit = self.routes.lock().expect("fabric memo lock").get(key).cloned();
        count(hit.is_some(), &self.route_hits, &self.route_misses);
        hit
    }

    /// Memoizes a routing the router just ran. Racing routers of one key
    /// produce identical entries, so the first one stays.
    pub(crate) fn keep_routing(&self, key: RouteKey, entry: Arc<RouteEntry>) {
        self.routes.lock().expect("fabric memo lock").entry(key).or_insert(entry);
    }
}

fn count(hit: bool, hits: &AtomicU64, misses: &AtomicU64) {
    if hit { hits } else { misses }.fetch_add(1, Ordering::Relaxed);
}
