//! Online warping: watch the runtime profile, warp, and hot-patch a
//! program *while it runs* — then re-warp when the hot loop moves.
//!
//! ```sh
//! cargo run --release --example online_warp
//! ```

use std::sync::Arc;

use mb_isa::MbFeatures;
use warp_online::{NeverPolicy, OnlineConfig, OnlineSession, ThresholdPolicy, TopKPolicy};

fn main() {
    // Part 1: a single-kernel workload, executed three times on one
    // timeline. The profiler detects the kernel mid-first-run, the
    // OCPM's CAD budget elapses in simulated time, the binary is
    // patched mid-run, and later runs start warped.
    let built = Arc::new(workloads::by_name("brev").unwrap().build(MbFeatures::paper_default()));
    let config = OnlineConfig { repeats: 3, ..OnlineConfig::default() };

    println!("online-warping `brev` (3 repeats on one timeline)");
    let report = OnlineSession::new(Arc::clone(&built), config.clone())
        .with_policy(TopKPolicy { k: 1, min_count: 512 })
        .run()
        .expect("online run succeeds");
    let software = OnlineSession::new(built, config)
        .with_policy(NeverPolicy)
        .run()
        .expect("software-only arm succeeds");

    print!("{report}");
    let event = &report.events[0];
    println!("  CAD ran concurrently: {} lean-processor cycles on the timeline", event.cad_cycles);
    println!(
        "  hardware: {} invocations, {} iterations ({} cycles/iteration on the fabric)",
        event.hw.invocations, event.hw.iterations, event.model.cycles_per_iteration
    );
    println!(
        "  online {} cycles vs software-only {} cycles -> {:.2}x end-to-end\n",
        report.cycles,
        software.cycles,
        report.speedup_vs(software.cycles)
    );

    // Part 2: the phased workload — its hot loop *moves* mid-run,
    // twice. The decaying profiler notices, the sitting circuit is
    // evicted, and the runtime re-warps to the new kernel; the A → A'
    // re-warp reuses phase A's mapped clusters and placement, so its
    // CAD charge is a fraction of a from-scratch compile.
    let phased =
        Arc::new(workloads::phased::build_scaled(MbFeatures::paper_default(), 300, 150, 700));
    let config = OnlineConfig { decay_interval: 8, ..OnlineConfig::default() };

    println!("online-warping `phased` (hot loop shifts mid-run)");
    let report = OnlineSession::new(Arc::clone(&phased), config.clone())
        .with_policy(ThresholdPolicy { min_count: 3000 })
        .run()
        .expect("phased online run succeeds");
    let software = OnlineSession::new(phased, config)
        .with_policy(NeverPolicy)
        .run()
        .expect("phased software arm succeeds");

    print!("{report}");
    println!(
        "  profiler: {} decay passes, {} entries decayed away",
        report.profiler.decays, report.profiler.decay_evictions
    );
    println!(
        "  online {} cycles vs software-only {} cycles -> {:.2}x end-to-end",
        report.cycles,
        software.cycles,
        report.speedup_vs(software.cycles)
    );
}
