//! The serving hot path's allocation-free claim, asserted.
//!
//! A pooled [`OnlineSession`] that has attached its shared program
//! image must advance slices without touching the heap: the fetch
//! stores are frozen, the profiler ranking rebuilds into preallocated
//! scratch, and the slice loop carries no per-slice state. A warped
//! session must cross repeat boundaries without touching it either: a
//! repeat re-enters the program on the same machine, whose instruction
//! memory still holds the patch, and verifies the run in place. These
//! tests pin that with the [`warp_bench::alloc`] counter — it is meaningful
//! only in debug builds (the counter is compiled out in release, and
//! the `#[cfg]` compiles the test out with it), which is why CI runs
//! `cargo test -p warp-bench` without `--release`.

#![cfg(debug_assertions)]

use std::sync::{Arc, Mutex};

use mb_isa::MbFeatures;
use warp_bench::alloc;
use warp_online::{
    NeverPolicy, OnlineConfig, OnlineSession, SessionPool, SessionStatus, TopKPolicy,
};

/// The counter is process-wide and the test harness runs tests on
/// parallel threads, so each test holds this lock for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn pooled_steady_state_slices_allocate_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
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

#[test]
fn warped_repeat_boundaries_allocate_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let built = Arc::new(workloads::by_name("brev").unwrap().build(MbFeatures::paper_default()));
    let config = OnlineConfig { slice_cycles: 2_000, repeats: 6, ..OnlineConfig::default() };
    let pool = Arc::new(SessionPool::new());
    let session = || {
        OnlineSession::new(Arc::clone(&built), config.clone())
            .with_policy(TopKPolicy { k: 1, min_count: 256 })
            .with_pool(Arc::clone(&pool))
    };

    // First session end-to-end: builds the shared image, and its report
    // gives the slice count every identical session runs.
    let slices = session().run().expect("warmup verified").slices;
    let software = built.instantiate(&config.mb).run(config.max_cycles).unwrap().cycles;

    // Advance until the warp has landed (its compile was joined before
    // that, so the CAD thread is idle from here on) and the program has
    // re-entered warped once: that first warped pass still allocates,
    // once per session. A slice that runs short of its budget ended at
    // an exit.
    let mut session = session();
    let mut exits = 0;
    while session.warp_count() == 0 || exits < 2 {
        let before = session.cycles();
        assert_eq!(session.advance(1), SessionStatus::Runnable);
        exits += u32::from(session.cycles() - before < config.slice_cycles);
    }
    assert!(
        session.time_to_first_warp().unwrap() < software,
        "the warp lands in repeat 1, so repeat 2 ran warped and the window below \
         crosses the boundaries between repeats 3 to 6"
    );

    // Everything up to the final exit, whose report is the one thing a
    // finishing session allocates.
    let window = slices - session.slices() - 1;
    let (status, delta) = alloc::delta_during(|| session.advance(window));
    assert_eq!(status, SessionStatus::Runnable, "the window stops before the final exit");
    assert_eq!(
        delta.expect("counter is live under cfg(debug_assertions)"),
        0,
        "warped repeats and their boundaries must not allocate"
    );
    assert_eq!(session.advance(1), SessionStatus::Finished);
}
