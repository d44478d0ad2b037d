//! The serving hot path's allocation-free claim, asserted.
//!
//! A pooled [`OnlineSession`] that has attached its shared program
//! image must advance slices without touching the heap: the fetch
//! stores are frozen, the profiler ranking rebuilds into preallocated
//! scratch, and the slice loop carries no per-slice state. This test
//! pins that with the [`warp_bench::alloc`] counter — it is meaningful
//! only in debug builds (the counter is compiled out in release, and
//! the `#[cfg]` compiles the test out with it), which is why CI runs
//! `cargo test -p warp-bench` without `--release`.

#![cfg(debug_assertions)]

use std::sync::Arc;

use mb_isa::MbFeatures;
use warp_bench::alloc;
use warp_online::{NeverPolicy, OnlineConfig, OnlineSession, SessionPool, SessionStatus};

#[test]
fn pooled_steady_state_slices_allocate_nothing() {
    let built = Arc::new(workloads::by_name("crc32").unwrap().build(MbFeatures::paper_default()));
    // Fine slices so the run spans many of them.
    let config = OnlineConfig { slice_cycles: 2_000, ..OnlineConfig::default() };
    let pool = Arc::new(SessionPool::new());

    // First session end-to-end: builds the shared image, exercises
    // every cold path once.
    OnlineSession::new(Arc::clone(&built), config.clone())
        .with_policy(NeverPolicy)
        .with_pool(Arc::clone(&pool))
        .run()
        .expect("warmup verified");

    // Second session attaches the image. The first slice builds its
    // system and loads data (setup, not steady state); everything after
    // it is the serving hot path.
    let mut session = OnlineSession::new(Arc::clone(&built), config)
        .with_policy(NeverPolicy)
        .with_pool(Arc::clone(&pool));
    assert_eq!(session.advance(3), SessionStatus::Runnable, "run must outlast the warm slices");

    let (status, delta) = alloc::delta_during(|| session.advance(8));
    assert_eq!(status, SessionStatus::Runnable, "measured slices must be steady-state ones");
    assert_eq!(
        delta.expect("counter is live under cfg(debug_assertions)"),
        0,
        "steady-state pooled slices must not allocate"
    );

    // And the session still finishes correctly afterwards.
    session.run().expect("session verified");
}
