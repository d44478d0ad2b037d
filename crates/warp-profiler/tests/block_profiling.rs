//! Block-engine profiling equivalence.
//!
//! The online runtime's warp decisions key on the profiler's hot-region
//! fingerprint, so the superblock engine must be invisible to it: a
//! [`Profiler`] sitting on the retirement stream sees branches only
//! through [`System::step`] (blocks are straight-line by construction)
//! and block retirements only through the batched
//! [`TraceSink::retire_block`] hook. These tests pin that the resulting
//! fingerprint — regions, order, counts, and the instruction tally — is
//! identical to per-instruction profiling, on every workload and under
//! arbitrary slice boundaries.
//!
//! [`System::step`]: mb_sim::System::step
//! [`TraceSink::retire_block`]: mb_sim::TraceSink::retire_block

use mb_isa::MbFeatures;
use mb_sim::{MbConfig, Outcome, System};
use proptest::prelude::*;
use warp_profiler::{HotRegion, Profiler, ProfilerConfig};

const MAX_CYCLES: u64 = 500_000_000;

fn profile_run(sys: &mut System) -> (Outcome, Profiler) {
    let mut p = Profiler::new(ProfilerConfig::paper_default());
    let outcome = sys.run_with_sink(MAX_CYCLES, &mut p).expect("workload runs");
    assert!(outcome.exited());
    (outcome, p)
}

#[test]
fn block_profiling_fingerprints_match_per_instruction_on_all_workloads() {
    let blocks_on = MbConfig::paper_default();
    let blocks_off = blocks_on.clone().with_blocks(false);
    for workload in workloads::all() {
        let built = workload.build(MbFeatures::paper_default());

        let (out_b, mut prof_b) = profile_run(&mut built.instantiate(&blocks_on));
        let (out_s, mut prof_s) = profile_run(&mut built.instantiate(&blocks_off));

        assert_eq!(out_b, out_s, "{}: outcome must be engine-independent", workload.name);
        assert_eq!(
            prof_b.hot_regions(),
            prof_s.hot_regions(),
            "{}: hot-region fingerprint must be identical",
            workload.name
        );
        assert_eq!(
            prof_b.stats(),
            prof_s.stats(),
            "{}: profiler statistics (incl. batched instruction tally) must match",
            workload.name
        );
        assert_eq!(
            prof_b.stats().instructions,
            out_b.instructions,
            "{}: the profiler must have seen every retired instruction",
            workload.name
        );
    }
}

proptest! {
    /// Slicing the run at arbitrary cycle budgets — so block retirement
    /// is interrupted at arbitrary points and the engine keeps switching
    /// between whole-block and stepped-tail dispatch — never perturbs
    /// the fingerprint. Uses the small scaled phased workload (three
    /// distinct kernels, so the fingerprint has several live regions)
    /// to keep 256 deterministic cases fast.
    #[test]
    fn sliced_block_profiling_matches_unsliced(seed in any::<u64>()) {
        let built = workloads::phased::build_scaled(MbFeatures::paper_default(), 3, 2, 2);
        let (_, mut reference) = profile_run(&mut built.instantiate(
            &MbConfig::paper_default().with_blocks(false),
        ));

        let mut sys = built.instantiate(&MbConfig::paper_default());
        let mut p = Profiler::new(ProfilerConfig::paper_default());
        let mut state = seed | 1;
        let mut spent = 0u64;
        loop {
            // SplitMix-ish slice budgets in [1, 4096]: small enough to
            // land inside blocks constantly.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let slice = 1 + (state >> 33) % 4096;
            let out = sys.run_with_sink(slice, &mut p).expect("slice runs");
            spent += out.cycles;
            prop_assert!(spent <= MAX_CYCLES, "runaway sliced run (seed {:#x})", seed);
            if out.exited() {
                break;
            }
        }
        let sliced: Vec<HotRegion> = p.hot_regions().to_vec();
        prop_assert_eq!(
            sliced,
            reference.hot_regions().to_vec(),
            "sliced fingerprint diverged (seed {:#x})",
            seed
        );
        prop_assert_eq!(p.stats(), reference.stats(), "stats diverged (seed {:#x})", seed);
    }
}
