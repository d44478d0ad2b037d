//! Sessions sharing one `CadService` share its host store of cone
//! plans, placements and routings, and nothing else: with no circuit
//! cache, each session reports exactly what it reports on a service of
//! its own, while the service maps each distinct cone once and routes
//! each distinct netlist once per channel width.

use std::sync::Arc;

use mb_isa::MbFeatures;
use warp_core::CadService;
use warp_online::{OnlineConfig, OnlineReport, OnlineSession, SessionStatus, TopKPolicy};

fn session(name: &str, seed: u64, service: Arc<CadService>) -> OnlineSession {
    let built = workloads::by_name(name).unwrap().build_seeded(MbFeatures::paper_default(), seed);
    let config = OnlineConfig { repeats: 4, ..OnlineConfig::default() };
    OnlineSession::new(Arc::new(built), config)
        .with_policy(TopKPolicy { k: 2, min_count: 256 })
        .with_service(service)
}

const TENANTS: [(&str, u64); 6] =
    [("brev", 1), ("fir", 1), ("brev", 2), ("fir", 2), ("brev", 3), ("fir", 3)];

#[test]
fn sessions_on_one_service_route_each_netlist_once() {
    // Each tenant alone on its own service.
    let alone: Vec<(OnlineReport, _)> = TENANTS
        .iter()
        .map(|&(name, seed)| {
            let service = Arc::new(CadService::new(1));
            let report = session(name, seed, Arc::clone(&service)).run().unwrap();
            (report, service.store().stats())
        })
        .collect();

    // The same tenants interleaved slice by slice on one service.
    let shared = Arc::new(CadService::new(1));
    let mut sessions: Vec<OnlineSession> =
        TENANTS.iter().map(|&(name, seed)| session(name, seed, Arc::clone(&shared))).collect();
    let mut runnable = true;
    while runnable {
        runnable = false;
        for s in &mut sessions {
            runnable |= s.advance(1) == SessionStatus::Runnable;
        }
    }
    for (s, (report, _)) in sessions.into_iter().zip(&alone) {
        assert_eq!(&s.into_outcome().unwrap().unwrap(), report, "{}", report.name);
    }

    // brev's and fir's main kernels map to no LUTs, so at one geometry
    // they are one empty netlist. The checksum epilogue both warp (brev
    // 0xb8..0xd0, fir 0xa0..0xb8) is one netlist too; it congests at 8
    // tracks and routes at 16. Every tenant alone routes those three and
    // places those two; the shared service does so once for all six.
    // Mapping works on the gate netlists, where the main kernels differ:
    // brev's has one distinct cone and fir's three, among them brev's.
    // With the epilogue's 32, brev alone maps 33 cones and fir alone 35,
    // and the shared service maps fir's 35 once for all six.
    for (report, stats) in &alone {
        let cones = if report.name == "brev" { 33 } else { 35 };
        let misses = (stats.map.misses, stats.route.misses, stats.place.misses);
        assert_eq!(misses, (cones, 3, 2), "{}", report.name);
    }
    let store = shared.store().stats();
    assert_eq!((store.map.misses, store.route.misses, store.place.misses), (35, 3, 2));
    let sum =
        |f: fn(&warp_wcla::StoreStats) -> u64| -> u64 { alone.iter().map(|(_, s)| f(s)).sum() };
    let routings = sum(|s| s.route.hits + s.route.misses);
    assert_eq!(store.route.hits + store.route.misses, routings, "every other routing replays");
    let cones = sum(|s| s.map.hits + s.map.misses);
    assert_eq!(store.map.hits + store.map.misses, cones, "one lookup per distinct cone");
}
