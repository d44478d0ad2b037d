//! Execution statistics.

use std::fmt;

use mb_isa::OpClass;

/// Per-class instruction and cycle counters for one execution.
///
/// [`record`](ExecStats::record) sits on the simulator's hottest path,
/// so it touches exactly one slot of each array; the run loop tracks its
/// cycle budget from [`System::step`]'s return value rather than polling
/// these counters, and the grand totals are summed on demand.
///
/// Equality compares only the architectural counters (per-class
/// instructions and cycles, branch totals). The engine-coverage tier
/// counters are deliberately excluded: *which* engine retires an
/// instruction depends on dispatch batching — a budget boundary cuts a
/// trace chain where a monolithic run would keep chaining — so they are
/// diagnostics about the simulator, not properties of the simulated
/// execution.
///
/// [`System::step`]: crate::System::step
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    instret: [u64; OpClass::ALL.len()],
    cycles: [u64; OpClass::ALL.len()],
    /// Number of taken branches.
    pub branches_taken: u64,
    /// Number of not-taken branches.
    pub branches_not_taken: u64,
    /// Number of backward (negative-displacement) taken branches — the
    /// events the warp profiler watches.
    pub backward_taken: u64,
    /// Instructions retired through the superblock tier: the first body
    /// (and first guard) of each block dispatch. See
    /// [`ExecStats::engine_coverage`].
    block_instret: u64,
    /// Instructions retired through the megablock trace tier: bodies and
    /// guards chained in place past a dispatch's first iteration.
    trace_instret: u64,
}

impl ExecStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one retired instruction of `class` costing `cycles`.
    #[inline(always)]
    pub fn record(&mut self, class: OpClass, cycles: u32) {
        let i = class.index();
        self.instret[i] += 1;
        self.cycles[i] += u64::from(cycles);
    }

    /// Records `iterations` retirements of the same fully-fused block
    /// body in one scaled update from its precomputed per-class deltas:
    /// O(classes) total instead of one [`record`] call per instruction
    /// per iteration. The megablock trace tier retires whole iterations
    /// inside a single dispatch, where per-iteration bookkeeping would
    /// rival the cost of a two-or-three-op body; the sums are identical
    /// because every iteration contributes the same deltas. Block
    /// bodies contain no branches, so the branch counters are
    /// untouched.
    ///
    /// [`record`]: ExecStats::record
    #[inline]
    pub(crate) fn record_block_scaled(
        &mut self,
        class_insns: &[u32; OpClass::ALL.len()],
        class_cycles: &[u32; OpClass::ALL.len()],
        iterations: u64,
    ) {
        for i in 0..OpClass::ALL.len() {
            self.instret[i] += u64::from(class_insns[i]) * iterations;
            self.cycles[i] += u64::from(class_cycles[i]) * iterations;
        }
    }

    /// Records a batch of retired loop-guard branches of one class:
    /// `retired` guards costing `cycles` total, `taken` of which
    /// branched. Guards are backward by construction, so every taken
    /// guard is also a taken backward branch.
    #[inline]
    pub(crate) fn record_guards(&mut self, class: OpClass, cycles: u64, retired: u64, taken: u64) {
        let i = class.index();
        self.instret[i] += retired;
        self.cycles[i] += cycles;
        self.branches_taken += taken;
        self.backward_taken += taken;
        self.branches_not_taken += retired - taken;
    }

    /// Attributes `insns` retired instructions to the superblock tier.
    /// The hot per-instruction [`record`](ExecStats::record) path stays
    /// untouched: engine attribution is batched at dispatch boundaries,
    /// and the step tier falls out by subtraction.
    #[inline]
    pub(crate) fn attribute_block(&mut self, insns: u64) {
        self.block_instret += insns;
    }

    /// Attributes `insns` retired instructions to the megablock trace
    /// tier (iterations chained in place beyond a dispatch's first).
    #[inline]
    pub(crate) fn attribute_trace(&mut self, insns: u64) {
        self.trace_instret += insns;
    }

    /// Total retired instructions (summed on demand; `record` stays
    /// minimal because it runs once per simulated instruction).
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instret.iter().sum()
    }

    /// Instructions retired through the superblock tier.
    #[must_use]
    pub fn block_instructions(&self) -> u64 {
        self.block_instret
    }

    /// Instructions retired through the megablock trace tier.
    #[must_use]
    pub fn trace_instructions(&self) -> u64 {
        self.trace_instret
    }

    /// Instructions retired by per-instruction stepping (everything the
    /// block and trace tiers did not claim).
    #[must_use]
    pub fn step_instructions(&self) -> u64 {
        self.instructions().saturating_sub(self.block_instret + self.trace_instret)
    }

    /// Fractions of retired instructions per execution tier, as
    /// `(step, block, trace)`; zeros when nothing retired. These are the
    /// engine-coverage counters the simulation-throughput harness
    /// publishes — a workload whose trace fraction is low cannot gain
    /// from trace chaining no matter how fast that tier is.
    #[must_use]
    pub fn engine_coverage(&self) -> (f64, f64, f64) {
        let total = self.instructions();
        if total == 0 {
            return (0.0, 0.0, 0.0);
        }
        let t = total as f64;
        (
            self.step_instructions() as f64 / t,
            self.block_instret as f64 / t,
            self.trace_instret as f64 / t,
        )
    }

    /// Total cycles (summed on demand).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Retired instructions of one class.
    #[must_use]
    pub fn instructions_of(&self, class: OpClass) -> u64 {
        self.instret[class.index()]
    }

    /// Cycles spent in one class.
    #[must_use]
    pub fn cycles_of(&self, class: OpClass) -> u64 {
        self.cycles[class.index()]
    }

    /// Cycles per instruction; 0 when nothing retired.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        let n = self.instructions();
        if n == 0 {
            0.0
        } else {
            self.cycles() as f64 / n as f64
        }
    }

    /// Merges another set of statistics into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        for i in 0..self.instret.len() {
            self.instret[i] += other.instret[i];
            self.cycles[i] += other.cycles[i];
        }
        self.branches_taken += other.branches_taken;
        self.branches_not_taken += other.branches_not_taken;
        self.backward_taken += other.backward_taken;
        self.block_instret += other.block_instret;
        self.trace_instret += other.trace_instret;
    }
}

impl PartialEq for ExecStats {
    fn eq(&self, other: &Self) -> bool {
        self.instret == other.instret
            && self.cycles == other.cycles
            && self.branches_taken == other.branches_taken
            && self.branches_not_taken == other.branches_not_taken
            && self.backward_taken == other.backward_taken
    }
}

impl Eq for ExecStats {}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} instructions, {} cycles (CPI {:.2})",
            self.instructions(),
            self.cycles(),
            self.cpi()
        )?;
        for class in OpClass::ALL {
            let n = self.instructions_of(class);
            if n > 0 {
                writeln!(f, "  {class:>13}: {n:>10} insns, {:>10} cycles", self.cycles_of(class))?;
            }
        }
        write!(
            f,
            "  branches: {} taken ({} backward), {} not taken",
            self.branches_taken, self.backward_taken, self.branches_not_taken
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = ExecStats::new();
        s.record(OpClass::Alu, 1);
        s.record(OpClass::Alu, 1);
        s.record(OpClass::Mul, 3);
        assert_eq!(s.instructions(), 3);
        assert_eq!(s.cycles(), 5);
        assert_eq!(s.instructions_of(OpClass::Alu), 2);
        assert_eq!(s.cycles_of(OpClass::Mul), 3);
        assert!((s.cpi() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cpi_is_zero() {
        assert_eq!(ExecStats::new().cpi(), 0.0);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = ExecStats::new();
        a.record(OpClass::Load, 2);
        a.branches_taken = 3;
        let mut b = ExecStats::new();
        b.record(OpClass::Load, 2);
        b.backward_taken = 1;
        a.merge(&b);
        assert_eq!(a.instructions_of(OpClass::Load), 2);
        assert_eq!(a.branches_taken, 3);
        assert_eq!(a.backward_taken, 1);
    }

    #[test]
    fn engine_coverage_partitions_retired_instructions() {
        let mut s = ExecStats::new();
        for _ in 0..10 {
            s.record(OpClass::Alu, 1);
        }
        s.attribute_block(3);
        s.attribute_trace(5);
        assert_eq!(s.block_instructions(), 3);
        assert_eq!(s.trace_instructions(), 5);
        assert_eq!(s.step_instructions(), 2);
        let (step, block, trace) = s.engine_coverage();
        assert!((step - 0.2).abs() < 1e-12);
        assert!((block - 0.3).abs() < 1e-12);
        assert!((trace - 0.5).abs() < 1e-12);
        assert_eq!(ExecStats::new().engine_coverage(), (0.0, 0.0, 0.0));

        // Tier counters are batching diagnostics: excluded from equality,
        // but summed by merge.
        let other = ExecStats { instret: s.instret, cycles: s.cycles, ..ExecStats::default() };
        assert_eq!(s, other);
        let mut merged = s.clone();
        merged.merge(&s);
        assert_eq!(merged.block_instructions(), 6);
        assert_eq!(merged.trace_instructions(), 10);
    }

    #[test]
    fn display_mentions_classes() {
        let mut s = ExecStats::new();
        s.record(OpClass::Mul, 3);
        let text = s.to_string();
        assert!(text.contains("mul"));
        assert!(text.contains("CPI"));
    }
}
