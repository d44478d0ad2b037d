//! End-to-end TCP: the framed protocol against a live socket, with the
//! determinism pin extended *through the wire* — a report decoded off
//! the socket equals a standalone `OnlineSession::run` bit-for-bit.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mb_isa::MbFeatures;
use warp_core::CircuitCache;
use warp_online::{OnlineConfig, OnlineSession, TopKPolicy};
use warp_serve::tcp::{Client, WireServer};
use warp_serve::{ServeConfig, ServeError, Server};

/// Starts a wire server; returns its address and its in-process core.
fn start_server() -> (SocketAddr, Arc<Server>) {
    let server = WireServer::bind(
        "127.0.0.1:0",
        ServeConfig { workers: 4, quantum_slices: 16 },
        Arc::new(CircuitCache::bounded(32)),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let core = Arc::clone(server.core());
    let _accept = server.spawn();
    (addr, core)
}

#[test]
fn served_report_over_tcp_matches_standalone_run() {
    let (addr, _) = start_server();
    let mut client = Client::connect(addr).unwrap();

    let seed = 7;
    let id = client.create("brev", seed, 1, 256, 0, 1, false).unwrap();
    client.run(id).unwrap();
    let over_wire = client.report(id).unwrap();

    let built = workloads::by_name("brev").unwrap().build_seeded(MbFeatures::paper_default(), seed);
    let standalone = OnlineSession::new(Arc::new(built), OnlineConfig::default())
        .with_policy(TopKPolicy { k: 1, min_count: 256 })
        .run()
        .unwrap();

    assert_eq!(over_wire, standalone, "wire round-trip must be lossless and deterministic");
}

#[test]
fn step_query_and_fleet_over_tcp() {
    let (addr, _) = start_server();
    let mut client = Client::connect(addr).unwrap();

    let id = client.create("crc32", 1, 1, 256, 0, 1, false).unwrap();
    let before = client.query(id).unwrap();
    assert_eq!(before.slices, 0, "created sessions idle until granted");

    client.step(id, 5).unwrap();
    // Step is asynchronous; poll the snapshot until the grant drains.
    let snap = loop {
        let snap = client.query(id).unwrap();
        if snap.slices >= 5 || snap.done {
            break snap;
        }
        std::thread::yield_now();
    };
    assert!(snap.cycles > 0);

    client.run(id).unwrap();
    let report = client.report(id).unwrap();
    assert_eq!(report.exit_code, 0);

    let fleet = client.fleet().unwrap();
    assert_eq!(fleet.finished, 1);
    assert!(fleet.cycles >= report.cycles);
}

#[test]
fn wire_errors_are_structured() {
    let (addr, _) = start_server();
    let mut client = Client::connect(addr).unwrap();

    // Unknown workload name.
    let err = client.create("no-such-kernel", 0, 1, 256, 0, 1, false).unwrap_err();
    assert!(matches!(err, ServeError::Protocol(msg) if msg.contains("no-such-kernel")));

    // Unknown session id.
    let err = client.run(999).unwrap_err();
    assert!(matches!(err, ServeError::Protocol(msg) if msg.contains("unknown session")));

    // A patch outside instruction memory surfaces the session's error.
    let id = client.create("brev", 0, 1, 256, 0, 1, false).unwrap();
    let err = client.patch(id, u32::MAX - 64, vec![1]).unwrap_err();
    assert!(matches!(err, ServeError::Protocol(msg) if msg.contains("session error")));
}

#[test]
fn shared_cache_tenants_over_tcp_report_hits() {
    let (addr, _) = start_server();
    let mut client = Client::connect(addr).unwrap();

    let ids: Vec<_> = (0..6)
        .map(|seed| {
            let id = client.create("brev", seed, 1, 256, 0, 1, true).unwrap();
            client.run(id).unwrap();
            id
        })
        .collect();
    let mut hits = 0;
    for id in ids {
        let report = client.report(id).unwrap();
        assert_eq!(report.exit_code, 0);
        if report.events.first().is_some_and(|e| e.cache_hit) {
            hits += 1;
        }
    }
    assert!(hits >= 1, "same-kernel tenants over TCP must warm-start from each other");
}

#[test]
fn a_vanished_client_leaves_no_sessions_behind() {
    let (addr, core) = start_server();
    let mut client = Client::connect(addr).unwrap();
    let ran = client.create("brev", 1, 1, 256, 0, 1, false).unwrap();
    let stepped = client.create("crc32", 1, 1, 256, 0, 1, false).unwrap();
    client.run(ran).unwrap();
    client.step(stepped, 2).unwrap();
    assert_eq!(core.sessions(), 2);

    // Disconnect without a report: one session was run, the other
    // only stepped.
    drop(client);
    let deadline = Instant::now() + Duration::from_secs(60);
    while core.sessions() > 0 {
        assert!(Instant::now() < deadline, "{} sessions outlived their client", core.sessions());
        std::thread::sleep(Duration::from_millis(5));
    }
}
