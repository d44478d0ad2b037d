//! A failing session costs one session, never a worker or the server:
//! a panic is parked as that session's error, a program that does not
//! fit its memories fails that session without a panic, and the server
//! goes on serving the sessions behind it.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use mb_isa::MbFeatures;
use warp_online::{OnlineConfig, OnlineError, OnlineSession, PolicyCtx, TopKPolicy, WarpPolicy};
use warp_profiler::HotRegion;
use warp_serve::{ServeConfig, ServeError, Server};

struct Exploding;

impl WarpPolicy for Exploding {
    fn should_warp(&mut self, _: &HotRegion, _: &PolicyCtx) -> bool {
        panic!("policy exploded")
    }
}

fn brev() -> OnlineSession {
    let built = workloads::by_name("brev").unwrap().build(MbFeatures::paper_default());
    OnlineSession::new(Arc::new(built), OnlineConfig::default())
        .with_policy(TopKPolicy { k: 1, min_count: 256 })
}

#[test]
fn a_panicking_policy_fails_its_session_and_the_worker_serves_on() {
    let reference = brev().run().unwrap();
    let server = Arc::new(Server::start(ServeConfig { workers: 1, quantum_slices: 8 }));
    let doomed = server.create(brev().with_policy(Exploding));
    let queued = server.create(brev());
    server.run(doomed).unwrap();
    server.run(queued).unwrap();

    // Wait on another thread: a worker killed by the panic would leave
    // `wait` blocked forever, which must fail the test, not hang it.
    let (tx, rx) = mpsc::channel();
    let server_ref = Arc::clone(&server);
    let waiter = std::thread::spawn(move || {
        let _ = tx.send((server_ref.wait(doomed), server_ref.wait(queued)));
    });
    let (failed, served) =
        rx.recv_timeout(Duration::from_secs(120)).expect("the worker must survive the panic");
    waiter.join().expect("the waiter sent its results");

    match failed {
        Err(ServeError::Session(OnlineError::Panicked(message))) => {
            assert!(message.contains("policy exploded"), "{message}");
        }
        other => panic!("expected the session's panic, got {other:?}"),
    }
    assert_eq!(served.unwrap(), reference, "the queued session must run as if alone");
    let fleet = server.fleet();
    assert_eq!((fleet.created, fleet.finished, fleet.failed), (2, 1, 1));
}

#[test]
fn a_program_that_does_not_fit_fails_its_session_and_the_server_serves_on() {
    let reference = brev().run().unwrap();
    let server = Arc::new(Server::start(ServeConfig { workers: 1, quantum_slices: 8 }));

    // Drive the server from another thread: a panic under the table
    // lock would poison it, and must fail the test, not hang it.
    let (tx, rx) = mpsc::channel();
    let server_ref = Arc::clone(&server);
    let client = std::thread::spawn(move || {
        let mut config = OnlineConfig::default();
        config.mb.imem_bytes = 64;
        let built = workloads::by_name("brev").unwrap().build(MbFeatures::paper_default());
        let tiny = server_ref.create(
            OnlineSession::new(Arc::new(built), config)
                .with_policy(TopKPolicy { k: 1, min_count: 256 }),
        );
        // Never run: the patch builds the session's system itself.
        let patched = server_ref.patch(tiny, 0, &[0]);
        let waited = server_ref.wait(tiny);
        let next = server_ref.create(brev());
        let _ = tx.send((patched, waited, server_ref.wait(next)));
    });
    let (patched, waited, served) =
        rx.recv_timeout(Duration::from_secs(120)).expect("the server must survive the session");
    client.join().expect("the client sent its results");

    assert!(matches!(patched, Err(ServeError::Session(OnlineError::Run(_)))), "{patched:?}");
    assert!(matches!(waited, Err(ServeError::Session(OnlineError::Run(_)))), "{waited:?}");
    assert_eq!(served.unwrap(), reference, "the next session must run as if alone");
    let fleet = server.fleet();
    assert_eq!((fleet.created, fleet.finished, fleet.failed), (2, 1, 1));
}
