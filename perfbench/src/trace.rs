//! In-memory spans around calls into the program's layers.
//!
//! A span records a name, its start and end (ns from the tracer's origin),
//! the span open around it, the run it belongs to and how many calls it
//! covers (cheap calls are timed in batches, so the clock's own cost stays
//! small against the work). Spans stay in memory until the probe ends and
//! are then written out as JSON lines. A layer's self time is its span's
//! duration minus the time its child spans cover.

use crate::json::J;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `net.crc32`.
    pub name: String,
    /// Start, ns from the origin.
    pub start_ns: u64,
    /// End, ns from the origin (equal to the start while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Run identifier: spans of one workload iteration or probe share it.
    pub run: u32,
    /// Calls the span covers.
    pub calls: u64,
}

/// Records spans when enabled; does nothing (and reads no clock) when not.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
type SpanId = Option<usize>;

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts a new run: later spans carry the next run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    fn open(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
            calls: 1,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Closes `id`, which must be the innermost open span, covering `calls`
    /// calls.
    fn close(&mut self, id: SpanId, calls: u64) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.calls = calls;
    }

    /// Times `f` as one span covering `calls` calls.
    pub fn time<T>(&mut self, name: &str, calls: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id, calls);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    /// Children of one span run one after another on one thread, so the
    /// time they cover is the sum of their durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    /// The current run id.
    pub fn run(&self) -> u32 {
        self.run
    }

    /// Per-call self time, ns, of every span named `name`, in recording
    /// order.
    pub fn per_call_ns(&self, name: &str) -> Vec<f64> {
        self.per_call_ns_where(name, |_| true)
    }

    /// [`Tracer::per_call_ns`] restricted to the runs `keep` accepts.
    pub fn per_call_ns_where(&self, name: &str, keep: impl Fn(u32) -> bool) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name && keep(s.run))
            .map(|(s, ns)| ns as f64 / s.calls.max(1) as f64)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (span, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let line = J::obj(vec![
                ("id", J::Int(i as u64)),
                ("name", J::str(&span.name)),
                ("start_ns", J::Int(span.start_ns)),
                ("end_ns", J::Int(span.end_ns)),
                ("parent", span.parent.map_or(J::Null, |p| J::Int(p as u64))),
                ("run", J::Int(u64::from(span.run))),
                ("calls", J::Int(span.calls)),
                ("self_ns", J::Int(self_ns)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer");
        t.time("inner", 4, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.close(outer, 1);
        let own = t.self_ns();
        let dur = |i: usize| t.spans()[i].end_ns - t.spans()[i].start_ns;
        assert_eq!(own[0], dur(0) - dur(1));
        assert!(own[0] < 5_000_000, "outer did no work of its own");
        assert_eq!(t.spans()[1].parent, Some(0));
        let per_call = t.per_call_ns("inner");
        assert_eq!(per_call.len(), 1);
        assert!(per_call[0] >= 5_000_000.0, "20 ms over 4 calls");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x");
        t.close(id, 1);
        assert_eq!(t.time("y", 1, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
