//! Spans recorded in memory around the benchmark's calls into each
//! layer, written out as Chrome-trace JSON when the run ends.
//!
//! A span has a category (the layer), a name (the call), an op id
//! shared by every span of one op, a parent, and a start and end. A
//! disabled tracer records nothing and `span` is a plain call.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

#[derive(Clone, Debug)]
struct Span {
    cat: &'static str,
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
    /// Chrome-trace track: the recording thread, or an op's own lane.
    lane: u32,
    start_ns: u64,
    end_ns: u64,
}

/// One thread's span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    lane: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`, drawing its
    /// calls on track `lane`.
    #[must_use]
    pub fn new(on: bool, epoch: Instant, lane: u32) -> Self {
        Tracer { on, epoch, lane, spans: Vec::new() }
    }

    /// A child recorder for another thread: same switch and epoch.
    #[must_use]
    pub fn fork(&self, lane: u32) -> Self {
        Tracer::new(self.on, self.epoch, lane)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span on this tracer's own track, to be closed by
    /// [`close`](Tracer::close).
    pub fn open(
        &mut self,
        cat: &'static str,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        self.open_on(self.lane, cat, name, op, parent)
    }

    /// Opens a span on track `lane`: for spans that do not nest on one
    /// thread, such as an op's lifetime in a closed loop with several
    /// ops in flight.
    pub fn open_on(
        &mut self,
        lane: u32,
        cat: &'static str,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span { cat, name, op, parent, lane, start_ns: now, end_ns: now });
        Some(self.spans.len() - 1)
    }

    /// Ends a span from [`open`](Tracer::open).
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span on this tracer's own track.
    pub fn span<T>(
        &mut self,
        cat: &'static str,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(cat, name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations, in microseconds, of every `cat`/`name` span.
    #[must_use]
    pub fn durations_us(&self, cat: &str, name: &str) -> Vec<f64> {
        self.matching(cat, name, None)
    }

    /// Durations, in microseconds, of the `cat`/`name` spans of one op.
    #[must_use]
    pub fn op_durations_us(&self, cat: &str, name: &str, op: u64) -> Vec<f64> {
        self.matching(cat, name, Some(op))
    }

    fn matching(&self, cat: &str, name: &str, op: Option<u64>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.cat == cat && s.name == name && op.is_none_or(|op| s.op == op))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Each span's duration minus the durations of its children.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Renders every span as a Chrome-trace document ("X" events, one
    /// track per lane; op id, parent and self time under `args`).
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let own = self.self_ns();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{i},\
                 \"parent\":{parent},\"self_us\":{:.3}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.cat,
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                own[i] as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_absorb_keeps_parents() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        let root = t.open_on(9, "l", "op", 7, None);
        t.span("l", "call", 7, root, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.close(root);
        let mut merged = Tracer::new(true, t.epoch, 1);
        merged.span("m", "first", 1, None, || ());
        merged.absorb(t);
        let own = merged.self_ns();
        let spans = &merged.spans;
        assert_eq!(spans[2].parent, Some(1), "parent rebased past the absorbed prefix");
        assert_eq!(
            own[1],
            (spans[1].end_ns - spans[1].start_ns) - (spans[2].end_ns - spans[2].start_ns)
        );
        assert!(merged.chrome_json().matches("\"ph\":\"X\"").count() == 3);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let id = t.open("l", "op", 1, None);
        assert_eq!(t.span("l", "call", 1, id, || 42), 42);
        t.close(id);
        assert!(t.spans.is_empty());
    }
}
