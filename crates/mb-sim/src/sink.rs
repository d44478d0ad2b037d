//! Trace sinks.
//!
//! [`System::step`](crate::System::step) and the run loops are generic
//! over a [`TraceSink`], so the tracing policy is chosen at compile time
//! and monomorphized into the step loop:
//!
//! * [`NullSink`] — records nothing; the sink call compiles away and an
//!   untraced run pays zero tracing cost;
//! * [`Trace`] — records every event; byte-for-byte the historical
//!   full-trace behavior.
//!
//! The warp profiler (`warp_profiler::Profiler`) is the third sink: it
//! sits on the retirement stream of every online session.
//!
//! Any `&mut` sink is itself a sink, so a sink can be threaded through
//! helper code without moving it.

use crate::trace::{Trace, TraceEvent};

/// One fully-retired straight-line block, as delivered to
/// [`TraceSink::retire_block`].
///
/// A block contains no control flow (a chained loop guard retires
/// after the block, through [`TraceSink::record`]), so none of its
/// instructions is a taken branch. A sink that only counts reads
/// [`instructions`](BlockRetire::instructions);
/// [`events`](BlockRetire::events) carries the per-instruction stream
/// only for sinks whose [`WANTS_EVENTS`](TraceSink::WANTS_EVENTS) is
/// `true` (it is empty otherwise — the engine skips synthesizing events
/// the sink declared it will not read).
#[derive(Debug)]
pub struct BlockRetire<'a> {
    /// Retired instruction count.
    pub instructions: u32,
    /// The per-instruction events — populated only when the sink's
    /// [`WANTS_EVENTS`](TraceSink::WANTS_EVENTS) is `true`.
    pub events: &'a [TraceEvent],
}

/// Consumer of retired-instruction events.
///
/// Implementations must be cheap: `record` is called once per retired
/// instruction on the simulator's hottest path (the step engine, block
/// tails, and partially-retired blocks); `retire_block` is called once
/// per fully-retired superblock.
pub trait TraceSink {
    /// Whether this sink reads per-instruction [`TraceEvent`]s for
    /// block retirements. Sinks that only need aggregates override this
    /// to `false` and get a [`BlockRetire`] with an empty event slice —
    /// the block engine then skips synthesizing events entirely, which
    /// is where the batched dispatch wins its throughput.
    const WANTS_EVENTS: bool = true;

    /// Whether [`record`](TraceSink::record) observes anything at all.
    /// Sinks that discard every event override this to `false`, letting
    /// the block engine skip bookkeeping whose only consumer is a
    /// flush-path `record` call — e.g. remembering load/store effective
    /// addresses so a fault or OPB exit can replay the retired prefix.
    const WANTS_RECORDS: bool = true;

    /// Observes one retired instruction.
    fn record(&mut self, event: &TraceEvent);

    /// Observes one fully-retired straight-line block.
    ///
    /// The default implementation loops [`record`](TraceSink::record)
    /// over the block's events, so event-consuming sinks ([`Trace`])
    /// see a stream bit-identical to per-instruction execution.
    #[inline]
    fn retire_block(&mut self, block: &BlockRetire<'_>) {
        for event in block.events {
            self.record(event);
        }
    }
}

/// The no-op sink: an untraced run.
#[derive(Clone, Copy, Default, Debug)]
pub struct NullSink;

impl TraceSink for NullSink {
    const WANTS_EVENTS: bool = false;
    const WANTS_RECORDS: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: &TraceEvent) {}

    #[inline(always)]
    fn retire_block(&mut self, _block: &BlockRetire<'_>) {}
}

impl TraceSink for Trace {
    #[inline]
    fn record(&mut self, event: &TraceEvent) {
        self.push(*event);
    }
}

impl<S: TraceSink> TraceSink for &mut S {
    const WANTS_EVENTS: bool = S::WANTS_EVENTS;
    const WANTS_RECORDS: bool = S::WANTS_RECORDS;

    #[inline]
    fn record(&mut self, event: &TraceEvent) {
        (**self).record(event);
    }

    #[inline]
    fn retire_block(&mut self, block: &BlockRetire<'_>) {
        (**self).retire_block(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_isa::{Insn, Reg};

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
    fn null_sink_records_nothing() {
        let mut sink = NullSink;
        sink.record(&ev(0, 1));
    }

    #[test]
    fn batched_block_retirement_equals_per_event_recording() {
        // Two ALU ops at 0x40/0x44 costing 1 and 3 cycles.
        let events = [ev(0x40, 1), ev(0x44, 3)];

        // The default impl (an events-wanting sink) replays the events.
        let mut batched = Trace::new();
        batched.retire_block(&BlockRetire { instructions: 2, events: &events });
        let mut per_event = Trace::new();
        for e in &events {
            per_event.record(e);
        }
        assert_eq!(batched, per_event, "batched and per-event traces must be identical");
        assert_eq!(batched.len(), 2);
        assert_eq!(batched.cycles(), 4);
    }

    #[test]
    fn mut_ref_forwards() {
        let mut t = Trace::new();
        {
            let mut r = &mut t;
            TraceSink::record(&mut r, &ev(0, 1));
        }
        assert_eq!(t.len(), 1);
    }
}
