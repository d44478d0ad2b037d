//! When to warp: pluggable decision policies for A-B experiments.

use warp_profiler::{HotRegion, ProfilerStats};

/// What the runtime knows when it asks a policy about a candidate.
#[derive(Clone, Copy, Debug)]
pub struct PolicyCtx {
    /// The currently-warped region (`(head, tail)`), if any.
    pub active: Option<(u32, u32)>,
    /// The active region's *current* heat in the profiler cache (zero
    /// once decay has evicted it). Policies use this for hysteresis: a
    /// challenger should be hotter than the incumbent before paying a
    /// reconfiguration.
    pub active_count: u64,
    /// Warp events committed so far (patches that actually landed).
    pub warps_committed: usize,
    /// Simulated cycles elapsed on the timeline.
    pub timeline_cycles: u64,
    /// Profiler hardware counters at decision time.
    pub profiler: ProfilerStats,
}

/// A warp-decision policy.
///
/// The online session offers candidates from
/// [`Profiler::hot_regions`](warp_profiler::Profiler::hot_regions) in
/// heat order (hottest first), already excluding the active region and
/// regions that previously failed decompilation. Returning `true`
/// commits the runtime to the candidate: the OCPM starts its CAD work
/// and the warp lands when the modeled cycle budget elapses.
///
/// Policies are `Send`: they live inside an
/// [`OnlineSession`](crate::OnlineSession) that a multi-session server
/// migrates between worker threads.
pub trait WarpPolicy: Send {
    /// Whether to start warping `candidate` now.
    fn should_warp(&mut self, candidate: &HotRegion, ctx: &PolicyCtx) -> bool;

    /// Short policy name for reports.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// Warp any region whose heat crosses a fixed threshold — the paper's
/// "most frequent loop" trigger with hysteresis against the incumbent.
#[derive(Clone, Copy, Debug)]
pub struct ThresholdPolicy {
    /// Minimum saturating count before a region is worth hardware.
    pub min_count: u64,
}

impl WarpPolicy for ThresholdPolicy {
    fn should_warp(&mut self, candidate: &HotRegion, ctx: &PolicyCtx) -> bool {
        // Strictly hotter than the incumbent's current (decaying) heat:
        // an evicted kernel's stale counters cannot win the slot back,
        // and two frozen counters cannot thrash the fabric A-B-A.
        candidate.count >= self.min_count && candidate.count > ctx.active_count
    }

    fn name(&self) -> &'static str {
        "threshold"
    }
}

/// Threshold with a hard cap on total warp events — at most `k`
/// configurations per run, for controlled experiments ("warp exactly
/// the top kernel", "allow one re-warp").
#[derive(Clone, Copy, Debug)]
pub struct TopKPolicy {
    /// Maximum warp events per run.
    pub k: usize,
    /// Minimum heat, as in [`ThresholdPolicy`].
    pub min_count: u64,
}

impl WarpPolicy for TopKPolicy {
    fn should_warp(&mut self, candidate: &HotRegion, ctx: &PolicyCtx) -> bool {
        ctx.warps_committed < self.k
            && ThresholdPolicy { min_count: self.min_count }.should_warp(candidate, ctx)
    }

    fn name(&self) -> &'static str {
        "top-k"
    }
}

/// Never warp: the software-only arm of an A-B experiment, run through
/// the identical slice scheduler so timelines compare like for like.
#[derive(Clone, Copy, Debug, Default)]
pub struct NeverPolicy;

impl WarpPolicy for NeverPolicy {
    fn should_warp(&mut self, _candidate: &HotRegion, _ctx: &PolicyCtx) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "never"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(active_count: u64, warps: usize) -> PolicyCtx {
        PolicyCtx {
            active: None,
            active_count,
            warps_committed: warps,
            timeline_cycles: 0,
            profiler: ProfilerStats::default(),
        }
    }

    fn region(count: u64) -> HotRegion {
        HotRegion { head: 0x100, tail: 0x140, count }
    }

    #[test]
    fn threshold_requires_min_and_hysteresis() {
        let mut p = ThresholdPolicy { min_count: 100 };
        assert!(!p.should_warp(&region(99), &ctx(0, 0)));
        assert!(p.should_warp(&region(100), &ctx(0, 0)));
        // Not hotter than the incumbent: no reconfiguration.
        assert!(!p.should_warp(&region(100), &ctx(100, 1)));
        assert!(p.should_warp(&region(101), &ctx(100, 1)));
    }

    #[test]
    fn top_k_caps_commitments() {
        let mut p = TopKPolicy { k: 1, min_count: 10 };
        assert!(p.should_warp(&region(50), &ctx(0, 0)));
        assert!(!p.should_warp(&region(50_000), &ctx(0, 1)), "k exhausted");
    }

    #[test]
    fn never_never_warps() {
        let mut p = NeverPolicy;
        assert!(!p.should_warp(&region(u64::MAX), &ctx(0, 0)));
        assert_eq!(p.name(), "never");
    }
}
