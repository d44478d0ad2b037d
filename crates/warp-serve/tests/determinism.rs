//! The acceptance pin: a served session's report is **bit-identical**
//! to a standalone `OnlineSession::run` of the same seeded workload — for
//! every workload in the registry, at 1 worker and at 8 workers, with
//! all sessions in flight concurrently so quanta genuinely interleave.
//!
//! No shared circuit cache here, deliberately: cross-session cache hits
//! shorten the hitting session's modeled CAD budget, so a shared cache
//! makes *which* session pays the cold compile depend on arrival order.
//! That opt-in trade is exercised by `tests/shared_cache.rs`; this test
//! pins the default serving mode, where tenancy is invisible.

use std::sync::Arc;

use mb_isa::MbFeatures;
use warp_core::CadService;
use warp_online::{OnlineConfig, OnlineSession, TopKPolicy};
use warp_serve::{ServeConfig, Server};

const SEED: u64 = 0xC0FFEE;
const POLICY: TopKPolicy = TopKPolicy { k: 2, min_count: 256 };

fn serve_whole_registry_with(workers: usize) {
    let names: Vec<String> = workloads::all().iter().map(|w| w.name.to_string()).collect();

    // Standalone references, one per workload.
    let reference: Vec<_> = names
        .iter()
        .map(|name| {
            let built =
                workloads::by_name(name).unwrap().build_seeded(MbFeatures::paper_default(), SEED);
            OnlineSession::new(Arc::new(built), OnlineConfig::default())
                .with_policy(POLICY)
                .run()
                .unwrap()
        })
        .collect();

    // The same workloads served concurrently through one scheduler,
    // with a deliberately small quantum so sessions interleave, and one
    // shared CAD pool so background compiles contend for workers.
    let server = Server::start(ServeConfig { workers, quantum_slices: 8 });
    let cad = Arc::new(CadService::from_env());
    let ids: Vec<_> = names
        .iter()
        .map(|name| {
            let built = Arc::new(
                workloads::by_name(name).unwrap().build_seeded(MbFeatures::paper_default(), SEED),
            );
            let session = OnlineSession::new(built, OnlineConfig::default())
                .with_policy(POLICY)
                .with_service(Arc::clone(&cad));
            let id = server.create(session);
            server.run(id).unwrap();
            id
        })
        .collect();

    for ((id, name), reference) in ids.into_iter().zip(&names).zip(&reference) {
        let served = server.wait(id).unwrap();
        assert_eq!(
            &served, reference,
            "served report for {name:?} at {workers} workers diverged from standalone run"
        );
    }
    assert_eq!(server.fleet().finished, names.len() as u64);
}

#[test]
fn whole_registry_bit_identical_at_one_worker() {
    serve_whole_registry_with(1);
}

#[test]
fn whole_registry_bit_identical_at_eight_workers() {
    serve_whole_registry_with(8);
}

/// Interleaving granularity itself must be invisible: serving the same
/// session with a 1-slice quantum and a huge quantum yields the same
/// report.
#[test]
fn quantum_size_is_invisible_to_the_timeline() {
    let session = |quantum: u64| {
        let built = Arc::new(
            workloads::by_name("crc32").unwrap().build_seeded(MbFeatures::paper_default(), SEED),
        );
        let server = Server::start(ServeConfig { workers: 2, quantum_slices: quantum });
        let id =
            server.create(OnlineSession::new(built, OnlineConfig::default()).with_policy(POLICY));
        server.run(id).unwrap();
        server.wait(id).unwrap()
    };
    assert_eq!(session(1), session(1 << 20));
}
