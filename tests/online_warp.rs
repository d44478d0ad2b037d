//! The online runtime against the offline pipeline: convergence,
//! mid-run invalidation, and phased re-warping.
//!
//! Five contracts:
//!
//! 1. **online == offline convergence** — warping a single-kernel
//!    workload online must install the *exact* circuit the offline
//!    staged pipeline compiles (same kernel fingerprint, same
//!    [`ExecModel`](warp_mb::warp_wcla::ExecModel) cycles/iteration),
//!    and the end-to-end online speedup must sit in the band the
//!    offline amortization model predicts;
//! 2. **mid-run patch invalidation** — the online runtime's hot patch
//!    must behave identically with the pre-decoded fetch store on and
//!    off (the `tests/sim_fast_path.rs` contract, replayed from inside
//!    the online runtime);
//! 3. **phased re-warp** — on a workload whose hot loop shifts mid-run
//!    (A → A′ → B), the timeline must show three warp events, each
//!    after the first evicting its predecessor, with the
//!    shifted-but-similar A′ re-warp charging at most half of A's
//!    modeled CAD budget (the incremental-CAD payoff), and results
//!    bit-identical to software-only execution (verified against the
//!    golden model inside the run);
//! 4. **incremental == from-scratch** — compiling A′ through the
//!    sub-kernel caches populated by A must produce bit-identical
//!    artifacts (bitstream, cycle model, patch plan) to an empty-cache
//!    compile, differing only in the work/cost accounting;
//! 5. **thread-count invariance** — the whole online timeline must be
//!    identical under `WARP_CAD_THREADS=1` and `=4`: background CAD
//!    workers trade host wall-clock only, never modeled cycles.

use std::sync::Arc;

use mb_isa::MbFeatures;
use warp_bench::online::offline_reference;
use warp_mb::warp_online::{
    NeverPolicy, OnlineConfig, OnlineError, OnlineReport, OnlineSession, ThresholdPolicy,
    TopKPolicy, WarpPolicy,
};
use warp_mb::workloads::BuiltWorkload;
use warp_mb::{mb_sim, workloads};

/// The online runtime driven to completion on `built` under `policy`.
fn online(
    built: &Arc<BuiltWorkload>,
    config: OnlineConfig,
    policy: impl WarpPolicy + 'static,
) -> Result<OnlineReport, OnlineError> {
    OnlineSession::new(Arc::clone(built), config).with_policy(policy).run()
}

#[test]
fn online_converges_to_the_offline_pipeline_on_every_single_kernel_workload() {
    for workload in workloads::all().into_iter().filter(|w| w.name != "phased") {
        let built = Arc::new(workload.build(MbFeatures::paper_default()));

        // Offline staged reference with the OCPM clock pre-scaled so
        // the warp lands within a few repeats — the same helper the
        // `onlineperf` harness uses, so the scaling rule, the detection
        // threshold, and the amortization columns cannot drift apart.
        let offline = offline_reference(&built);
        let sw_cycles = offline.report.sw_cycles;

        let repeats = 3;
        let config = OnlineConfig {
            options: offline.options.clone(),
            slice_cycles: 10_000,
            decay_interval: 0, // convergence, not phase tracking
            repeats,
            ..OnlineConfig::default()
        };
        let report =
            online(&built, config, TopKPolicy { k: 1, min_count: offline.kernel_heat }).unwrap();

        // Exactly one warp, of exactly the offline kernel...
        assert_eq!(report.events.len(), 1, "{}", built.name);
        let event = &report.events[0];
        assert_eq!((event.head, event.tail), (built.kernel.head, built.kernel.tail));
        assert_eq!(event.fingerprint, offline.fingerprint, "{}", built.name);
        // ...installing the identical circuit: the online WCLA obeys
        // the exact cycle model the offline pipeline derived.
        assert_eq!(event.model, offline.model, "{}: ExecModel must match", built.name);
        assert_eq!(event.dpm, offline.dpm, "{}", built.name);
        assert!(event.hw.invocations >= 1, "{}: hardware never ran", built.name);
        assert!(event.patched_cycle >= event.detected_cycle + event.cad_cycles);

        // Hardware raises application progress per cycle.
        let insns_per_iter = f64::from(built.kernel.words());
        assert!(
            report.post_warp_progress(insns_per_iter) > report.pre_warp_ipc(),
            "{}: post-warp progress must beat pre-warp",
            built.name
        );

        // Convergence of the timeline itself: before the patch the
        // online runtime *is* software, and after it the workload must
        // run at the offline steady-state ratio — so the whole online
        // timeline is predictable from the patch cycle and the offline
        // speedup alone. A mis-modeled stub, a circuit that is not the
        // offline one, or broken invalidation would all bend this.
        let steady = offline.report.speedup();
        let total_sw = sw_cycles * u64::from(repeats);
        let predicted =
            event.patched_cycle as f64 + (total_sw - event.patched_cycle) as f64 / steady;
        let ratio = report.cycles as f64 / predicted;
        assert!(
            (0.8..=1.2).contains(&ratio),
            "{}: online {} cycles vs predicted {:.0} (ratio {ratio:.3})",
            built.name,
            report.cycles,
            predicted
        );

        // And the speedup sits where the amortization model says it
        // must: the scaled CAD pays back within these repeats
        // (break-even <= repeats), so online ends up strictly faster
        // than software but never faster than the offline steady state.
        let online_speedup = report.speedup_vs(total_sw);
        assert!(
            offline.break_even_runs <= u64::from(repeats),
            "{}: CAD must amortize here",
            built.name
        );
        assert!(
            online_speedup > 1.0,
            "{}: online must beat software ({online_speedup:.3})",
            built.name
        );
        assert!(
            online_speedup <= steady + 1e-9,
            "{}: online {online_speedup:.3} cannot beat the steady state {steady:.3}",
            built.name
        );
    }
}

#[test]
fn orchestrator_patch_replays_the_fast_path_invalidation_contract() {
    // The same online run with the pre-decoded fetch store on and off:
    // the mid-run hot patch must be invisible to simulated results —
    // identical timeline, identical warp events, identical totals.
    let built = Arc::new(workloads::by_name("brev").unwrap().build(MbFeatures::paper_default()));
    let run = |predecode: bool| {
        let config = OnlineConfig {
            mb: mb_sim::MbConfig::paper_default().with_predecode(predecode),
            repeats: 2,
            ..OnlineConfig::default()
        };
        online(&built, config, TopKPolicy { k: 1, min_count: 512 }).unwrap()
    };
    let fast = run(true);
    let reference = run(false);

    assert_eq!(fast.cycles, reference.cycles);
    assert_eq!(fast.instructions, reference.instructions);
    assert_eq!(fast.slices, reference.slices);
    assert_eq!(fast.exit_code, reference.exit_code);
    assert_eq!(fast.events, reference.events, "patch timeline must be fetch-path independent");
    assert_eq!(fast.events.len(), 1);
    assert!(fast.events[0].patched_cycle < fast.cycles, "the patch landed mid-run");
}

#[test]
fn phased_workload_rewarps_with_eviction() {
    let features = MbFeatures::paper_default();
    let built = Arc::new(workloads::phased::build_scaled(features, 300, 150, 700));
    let [kernel_a, kernel_a2, kernel_b] = workloads::phased::phase_kernels(&built);

    // The three phase kernels are genuinely different circuits.
    let fp = |k: &workloads::KernelBounds| {
        warp_mb::warp_cdfg::decompile_loop(&built.program, k.head, k.tail).unwrap().fingerprint()
    };
    let (fp_a, fp_a2, fp_b) = (fp(&kernel_a), fp(&kernel_a2), fp(&kernel_b));
    assert_ne!(fp_a, fp_a2);
    assert_ne!(fp_a, fp_b);
    assert_ne!(fp_a2, fp_b);

    let config = OnlineConfig {
        slice_cycles: 20_000,
        decay_interval: 8,
        repeats: 1,
        ..OnlineConfig::default()
    };
    let report = online(&built, config.clone(), ThresholdPolicy { min_count: 3000 }).unwrap();

    assert_eq!(
        report.events.len(),
        3,
        "the shifting hot loop must force exactly two re-warps: {report}"
    );
    let [first, second, third] = [&report.events[0], &report.events[1], &report.events[2]];
    assert_eq!((first.head, first.tail), (kernel_a.head, kernel_a.tail));
    assert_eq!(first.fingerprint, fp_a);
    assert_eq!(first.evicted, None);
    assert_eq!((second.head, second.tail), (kernel_a2.head, kernel_a2.tail));
    assert_eq!(second.fingerprint, fp_a2);
    assert_eq!(
        second.evicted,
        Some((kernel_a.head, kernel_a.tail)),
        "the A' re-warp must evict phase A's circuit"
    );
    assert_eq!((third.head, third.tail), (kernel_b.head, kernel_b.tail));
    assert_eq!(third.fingerprint, fp_b);
    assert_eq!(
        third.evicted,
        Some((kernel_a2.head, kernel_a2.tail)),
        "the B re-warp must evict phase A''s circuit"
    );
    assert!(first.patched_cycle < second.detected_cycle, "events in timeline order");
    assert!(second.patched_cycle < third.detected_cycle, "events in timeline order");
    assert!(
        first.hw.invocations > 0 && second.hw.invocations > 0 && third.hw.invocations > 0,
        "all three circuits must run"
    );
    assert!(report.profiler.decays > 0, "decay is what lets later phases rise");

    // The incremental-CAD payoff: A' is a shifted-but-similar kernel
    // (same cone structure, different mixing constant and streams), so
    // its compile replays A's mapped clusters, placement, and net
    // routes, and must charge at most half of A's modeled CAD budget.
    assert_eq!(first.reused_clusters, 0, "phase A compiles through empty caches");
    assert!(
        second.reused_clusters > 0,
        "A' must replay clusters A mapped ({} of {})",
        second.reused_clusters,
        second.total_clusters
    );
    assert!(
        second.cad_cycles * 2 <= first.cad_cycles,
        "incremental re-warp must charge at most half of from-scratch: A' {} vs A {}",
        second.cad_cycles,
        first.cad_cycles
    );
    assert!(!second.cache_hit, "A' is a new kernel, not a whole-circuit hit");
    // Overlap is bounded below by the budget itself (patch never lands
    // before the modeled CAD completes).
    for e in &report.events {
        assert!(e.cad_overlap_cycles >= e.cad_cycles);
    }

    // Results were verified bit-identical to the golden model inside
    // the run; the warped timeline must also beat the software-only
    // arm of the A-B (same slice scheduler, NeverPolicy).
    let software = online(&built, config, NeverPolicy).unwrap();
    assert!(software.events.is_empty());
    assert!(
        report.cycles < software.cycles,
        "online {} cycles vs software {} cycles",
        report.cycles,
        software.cycles
    );
}

#[test]
fn incremental_rewarp_is_bit_identical_to_from_scratch() {
    use warp_mb::warp_core::pipeline;
    use warp_mb::warp_profiler::HotRegion;
    use warp_mb::warp_wcla::{CadCaches, CadStore};

    let built = workloads::phased::build(MbFeatures::paper_default());
    let [kernel_a, kernel_a2, _] = workloads::phased::phase_kernels(&built);
    let hot = |k: &workloads::KernelBounds| HotRegion { head: k.head, tail: k.tail, count: 10_000 };
    let da = pipeline::decompile(&built, &hot(&kernel_a)).unwrap();
    let da2 = pipeline::decompile(&built, &hot(&kernel_a2)).unwrap();

    // Warm the sub-kernel caches with phase A, then compile A' through
    // them (the evict + re-warp path) and from scratch.
    let caches = CadCaches::new();
    let store = CadStore::default();
    let a = pipeline::compile_circuit_cached(&da, &store, Some(&caches)).unwrap();
    let incremental = pipeline::compile_circuit_cached(&da2, &store, Some(&caches)).unwrap();
    let scratch = pipeline::compile_circuit(&da2).unwrap();

    // Bit-identity: every artifact that reaches hardware or the
    // simulated timeline is equal — the caches are pure memoization.
    assert_eq!(
        incremental.circuit.compiled.bitstream.words(),
        scratch.circuit.compiled.bitstream.words(),
        "configuration bitstream must be bit-identical"
    );
    assert_eq!(incremental.circuit.compiled.route_stats, scratch.circuit.compiled.route_stats);
    assert_eq!(incremental.circuit.model, scratch.circuit.model, "cycle model must be identical");
    assert_eq!(incremental.fingerprint, scratch.fingerprint);
    let plan_inc = pipeline::plan_patch(&built, &incremental).unwrap();
    let plan_scratch = pipeline::plan_patch(&built, &scratch).unwrap();
    assert_eq!(plan_inc, plan_scratch, "patched binary must be identical");

    // Only the work accounting differs: the incremental compile replays
    // A's clusters/placement/routes and charges a fraction of the cost.
    assert!(incremental.work.map.clusters_reused > 0);
    assert_eq!(scratch.work.map.clusters_reused, 0);
    assert!(incremental.work.fabric.place_restored);
    assert!(
        incremental.work.fabric.nets_restored > 0 || scratch.circuit.compiled.route_stats.nets == 0
    );
    assert!(
        incremental.dpm.total_cycles() * 2 <= scratch.dpm.total_cycles(),
        "incremental CAD {} must be at most half of from-scratch {}",
        incremental.dpm.total_cycles(),
        scratch.dpm.total_cycles()
    );
    // Sanity: A itself was a full-price compile through empty caches.
    assert_eq!(a.work.map.clusters_reused, 0);
}

#[test]
fn online_timeline_is_identical_across_cad_thread_counts() {
    let built =
        Arc::new(workloads::phased::build_scaled(MbFeatures::paper_default(), 150, 75, 350));
    let run = |threads: &str| {
        std::env::set_var(warp_mb::warp_core::CAD_THREADS_ENV, threads);
        let config = OnlineConfig {
            slice_cycles: 20_000,
            decay_interval: 8,
            repeats: 1,
            ..OnlineConfig::default()
        };
        let report = online(&built, config, ThresholdPolicy { min_count: 1500 }).unwrap();
        std::env::remove_var(warp_mb::warp_core::CAD_THREADS_ENV);
        report
    };
    let one = run("1");
    let four = run("4");

    // The modeled timeline is byte-identical: worker count trades host
    // wall-clock only.
    assert_eq!(one.cycles, four.cycles);
    assert_eq!(one.instructions, four.instructions);
    assert_eq!(one.slices, four.slices);
    assert_eq!(one.exit_code, four.exit_code);
    assert_eq!(one.profiler, four.profiler);
    assert_eq!(one.events, four.events, "warp events must be thread-count independent");
    assert!(one.events.len() >= 2, "the phased run must re-warp: {one}");
}

#[test]
fn online_error_chain_reaches_the_leaf_cause() {
    use std::error::Error;
    // A workload that cannot exit within the timeline budget surfaces
    // BudgetExhausted; a golden-model mismatch would surface Verify.
    // Here: drive the budget to (effectively) zero and check the
    // chain-free variant, then check a wrapped chain end-to-end.
    let built = Arc::new(workloads::by_name("brev").unwrap().build(MbFeatures::paper_default()));
    let config = OnlineConfig { max_cycles: 1, ..OnlineConfig::default() };
    let err = online(&built, config, NeverPolicy).unwrap_err();
    assert!(err.to_string().contains("budget"));
    assert!(err.source().is_none());

    // WarpError::PatchApply now carries the memory fault as a typed
    // source: the chain is walkable to the leaf.
    let mem = mb_sim::Bram::new(16).write_word(0x100, 0).unwrap_err();
    let wrapped = warp_mb::warp_core::WarpError::PatchApply(mem);
    let leaf = wrapped.source().expect("PatchApply exposes the MemError");
    assert!(leaf.to_string().contains("0x"));
}
