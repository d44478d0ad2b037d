//! Fingerprint-stability properties of the profiler cache.
//!
//! The online runtime leans on two behaviors that must hold for *any*
//! branch stream, not just the curated workloads:
//!
//! 1. **Replay determinism** — the ranking is a pure function of the
//!    observation sequence: re-profiling the identical stream after
//!    [`Profiler::reset`] yields an identical [`Profiler::hot_regions`]
//!    answer (the "fingerprint" the runtime keys its warp decisions on).
//! 2. **No resurrection** — once [`Profiler::decay`] (or aging) evicts
//!    a region, no amount of further decay brings it back; only fresh
//!    observations of that branch can.

use mb_isa::{Cond, Insn, Reg};
use mb_sim::{BlockRetire, TraceEvent, TraceSink};
use proptest::prelude::*;
use warp_profiler::{HotRegion, Profiler, ProfilerConfig};

/// The guard event the megablock trace tier emits when a chained loop
/// iteration retires: a taken branch at `tail` back to `head`.
fn guard_event(tail: u32, head: u32) -> TraceEvent {
    TraceEvent {
        pc: tail,
        insn: Insn::Bci { cond: Cond::Ne, ra: Reg::R3, imm: 0, delay: false },
        cycles: 2,
        taken: Some(true),
        target: Some(head),
        ea: None,
    }
}

/// Deterministic branch-event stream derived from one seed: a mix of a
/// few loop tails (some backward, some forward so they are ignored),
/// interleaved in SplitMix order.
fn branch_stream(seed: u64, len: usize) -> Vec<(u32, u32)> {
    let mut state = seed | 1;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..len)
        .map(|_| {
            let r = next();
            // Up to 24 distinct tails in a 16-entry cache: evictions
            // happen, which is exactly the interesting regime.
            let tail = 0x100 + 4 * (r as u32 % 24) * 16;
            let span = 4 * ((r >> 8) as u32 % 40);
            if r & 0x10000 == 0 {
                (tail, tail - span.min(tail)) // backward (target <= tail)
            } else {
                (tail, tail + 4 + span) // forward: must be ignored
            }
        })
        .collect()
}

fn replay(config: ProfilerConfig, stream: &[(u32, u32)]) -> Profiler {
    let mut p = Profiler::new(config);
    for &(tail, head) in stream {
        p.observe_branch(tail, head);
    }
    p
}

proptest! {
    /// Re-profiling the same stream after `reset()` reproduces the
    /// exact ranking — same regions, same order, same counts.
    #[test]
    fn reprofiling_after_reset_is_identical(seed in any::<u64>()) {
        let stream = branch_stream(seed, 600);
        let mut p = replay(ProfilerConfig::default(), &stream);
        let first: Vec<HotRegion> = p.hot_regions().to_vec();
        let first_stats = p.stats();

        p.reset();
        prop_assert!(p.best().is_none());
        for &(tail, head) in &stream {
            p.observe_branch(tail, head);
        }
        prop_assert_eq!(p.hot_regions(), first.as_slice(), "seed {:#x}", seed);
        prop_assert_eq!(p.stats(), first_stats, "stats must replay too (seed {:#x})", seed);
    }

    /// Replay determinism holds for small caches too, where eviction
    /// and aging churn constantly.
    #[test]
    fn reprofiling_is_identical_under_heavy_eviction(seed in any::<u64>()) {
        let config = ProfilerConfig { entries: 4, counter_bits: 6 };
        let stream = branch_stream(seed, 400);
        let mut p = replay(config, &stream);
        let first: Vec<HotRegion> = p.hot_regions().to_vec();
        p.reset();
        for &(tail, head) in &stream {
            p.observe_branch(tail, head);
        }
        prop_assert_eq!(p.hot_regions(), first.as_slice(), "seed {:#x}", seed);
    }

    /// Decay only ever shrinks the tracked set, and a region evicted by
    /// decay never reappears however much further decay is applied.
    #[test]
    fn decayed_heat_never_resurrects_an_evicted_region(seed in any::<u64>()) {
        let stream = branch_stream(seed, 300);
        let mut p = replay(ProfilerConfig::default(), &stream);

        let mut alive: Vec<u32> = p.hot_regions().iter().map(|r| r.tail).collect();
        // Decay to exhaustion: the counters are <= 16 bits, so 17
        // halvings empty any cache.
        for round in 0..17 {
            p.decay();
            let now: Vec<u32> = p.hot_regions().iter().map(|r| r.tail).collect();
            for tail in &now {
                prop_assert!(
                    alive.contains(tail),
                    "decay round {} resurrected tail {:#x} (seed {:#x})",
                    round, tail, seed
                );
            }
            for r in p.hot_regions() {
                prop_assert!(r.count > 0, "zero-count entries must be evicted, not listed");
            }
            alive = now;
        }
        prop_assert!(p.hot_regions().is_empty(), "17 halvings must clear 16-bit counters");

        // A fresh observation *is* allowed to bring a region back.
        if let Some(&(tail, head)) = stream.iter().find(|(t, h)| h <= t) {
            p.observe_branch(tail, head);
            prop_assert_eq!(p.best().unwrap().tail, tail);
        }
    }

    /// The same no-resurrection law for **trace heads**: heat delivered
    /// through the megablock tier's batched sink path — one
    /// `retire_block` per loop body plus one guard branch event per
    /// iteration — decays and evicts identically, and an evicted trace
    /// head only returns on a fresh guard retirement, never from decay
    /// alone.
    #[test]
    fn decayed_trace_heads_never_resurrect(seed in any::<u64>()) {
        let stream = branch_stream(seed, 300);
        let mut p = Profiler::new(ProfilerConfig::default());
        for &(tail, head) in &stream {
            // A chained iteration: body batch, then the guard event
            // (forward "guards" in the stream must be ignored, exactly
            // like forward branches on the per-event path).
            p.retire_block(&BlockRetire { instructions: 3, events: &[] });
            p.record(&guard_event(tail, head));
        }

        let mut alive: Vec<u32> = p.hot_regions().iter().map(|r| r.tail).collect();
        for round in 0..17 {
            p.decay();
            let now: Vec<u32> = p.hot_regions().iter().map(|r| r.tail).collect();
            for tail in &now {
                prop_assert!(
                    alive.contains(tail),
                    "decay round {} resurrected trace head tail {:#x} (seed {:#x})",
                    round, tail, seed
                );
            }
            for r in p.hot_regions() {
                prop_assert!(r.count > 0, "zero-count trace heads must be evicted, not listed");
            }
            alive = now;
        }
        prop_assert!(p.hot_regions().is_empty(), "17 halvings must clear 16-bit counters");

        // A fresh guard retirement *is* allowed to bring it back.
        if let Some(&(tail, head)) = stream.iter().find(|(t, h)| h <= t) {
            p.record(&guard_event(tail, head));
            prop_assert_eq!(p.best().unwrap().tail, tail);
        }
    }
}
