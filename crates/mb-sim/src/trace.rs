//! Instruction traces.
//!
//! The paper simulated each application with the Xilinx Microprocessor
//! Debug Engine to obtain an instruction trace, then replayed the trace
//! through the profiler and hardware models. [`Trace`] is our equivalent:
//! one [`TraceEvent`] per retired instruction.

use mb_isa::Insn;

/// One retired instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Byte address of the instruction.
    pub pc: u32,
    /// The decoded instruction.
    pub insn: Insn,
    /// Cycles this instruction cost (including branch penalties).
    pub cycles: u32,
    /// For branches: whether the branch was taken.
    pub taken: Option<bool>,
    /// For taken branches: the target address.
    pub target: Option<u32>,
    /// For loads/stores: the effective byte address.
    pub ea: Option<u32>,
}

impl TraceEvent {
    /// Whether this event is a taken backward branch (the loop-closing
    /// events the warp profiler counts).
    #[must_use]
    pub fn is_backward_taken_branch(&self) -> bool {
        self.taken == Some(true) && self.target.is_some_and(|t| t <= self.pc)
    }
}

/// A complete execution trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    total_cycles: u64,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.total_cycles += u64::from(event.cycles);
        self.events.push(event);
    }

    /// The recorded events in execution order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of retired instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the events.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Total cycles across all events (maintained incrementally; O(1)).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Cycles spent in the half-open PC range `[start, end)` — used to
    /// attribute time to a kernel region.
    #[must_use]
    pub fn cycles_in_range(&self, start: u32, end: u32) -> u64 {
        self.events
            .iter()
            .filter(|e| e.pc >= start && e.pc < end)
            .map(|e| u64::from(e.cycles))
            .sum()
    }

    /// Instructions retired in the half-open PC range `[start, end)`.
    #[must_use]
    pub fn instructions_in_range(&self, start: u32, end: u32) -> u64 {
        self.events.iter().filter(|e| e.pc >= start && e.pc < end).count() as u64
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_isa::{Cond, Reg};

    fn ev(pc: u32, cycles: u32) -> TraceEvent {
        TraceEvent {
            pc,
            insn: Insn::addk(Reg::R1, Reg::R2, Reg::R3),
            cycles,
            taken: None,
            target: None,
            ea: None,
        }
    }

    #[test]
    fn cycles_in_range_filters_by_pc() {
        let mut t = Trace::new();
        t.push(ev(0x00, 1));
        t.push(ev(0x10, 2));
        t.push(ev(0x20, 4));
        assert_eq!(t.cycles(), 7);
        assert_eq!(t.cycles_in_range(0x10, 0x20), 2);
        assert_eq!(t.instructions_in_range(0x00, 0x30), 3);
    }

    #[test]
    fn range_queries_match_linear_scan() {
        let mut t = Trace::new();
        for (pc, c) in [(0x40, 1), (0x44, 2), (0x48, 2), (0x44, 3), (0x100, 5)] {
            t.push(ev(pc, c));
        }
        for (start, end) in
            [(0, 0x200), (0x44, 0x48), (0x44, 0x4C), (0x50, 0x100), (0x50, 0x104), (0x48, 0x48)]
        {
            let cycles: u64 =
                t.iter().filter(|e| e.pc >= start && e.pc < end).map(|e| u64::from(e.cycles)).sum();
            let insns = t.iter().filter(|e| e.pc >= start && e.pc < end).count() as u64;
            assert_eq!(t.cycles_in_range(start, end), cycles, "cycles [{start:#x},{end:#x})");
            assert_eq!(t.instructions_in_range(start, end), insns, "insns [{start:#x},{end:#x})");
        }
    }

    #[test]
    fn aggregates_rebuild_after_push() {
        let mut t = Trace::new();
        t.push(ev(0x10, 2));
        assert_eq!(t.cycles_in_range(0, 0x100), 2);
        // A push after a query must count in the next query.
        t.push(ev(0x20, 4));
        assert_eq!(t.cycles_in_range(0, 0x100), 6);
        assert_eq!(t.instructions_in_range(0x14, 0x24), 1);
    }

    #[test]
    fn empty_trace_ranges_are_zero() {
        let t = Trace::new();
        assert_eq!(t.cycles_in_range(0, u32::MAX), 0);
        assert_eq!(t.instructions_in_range(0, u32::MAX), 0);
        assert_eq!(t.cycles(), 0);
    }

    #[test]
    fn unaligned_range_bounds_clamp_like_the_filter() {
        let mut t = Trace::new();
        t.push(ev(0x10, 1));
        // start just past the pc excludes it; end just past includes it.
        assert_eq!(t.cycles_in_range(0x11, 0x20), 0);
        assert_eq!(t.cycles_in_range(0x0D, 0x11), 1);
    }

    #[test]
    fn backward_branch_detection() {
        let branch = TraceEvent {
            pc: 0x40,
            insn: Insn::Bci { cond: Cond::Ne, ra: Reg::R3, imm: -16, delay: false },
            cycles: 2,
            taken: Some(true),
            target: Some(0x30),
            ea: None,
        };
        assert!(branch.is_backward_taken_branch());
        let fwd = TraceEvent { target: Some(0x50), ..branch };
        assert!(!fwd.is_backward_taken_branch());
        let not_taken = TraceEvent { taken: Some(false), target: None, ..branch };
        assert!(!not_taken.is_backward_taken_branch());
    }
}
