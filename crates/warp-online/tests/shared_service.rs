//! Sessions sharing one `CadService` share its host memo of placements
//! and routings, and nothing else: with no circuit cache, each session
//! reports exactly what it reports on a service of its own, while the
//! service routes each distinct netlist once per channel width.

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
            (report, service.memo().stats())
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
    for (report, stats) in &alone {
        assert_eq!((stats.route_misses, stats.place_misses), (3, 2), "{}", report.name);
    }
    let memo = shared.memo().stats();
    assert_eq!((memo.route_misses, memo.place_misses), (3, 2));
    let routings: u64 = alone.iter().map(|(_, s)| s.route_hits + s.route_misses).sum();
    assert_eq!(memo.route_hits + memo.route_misses, routings, "every other routing replays");
}
