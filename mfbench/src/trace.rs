//! In-memory spans around calls into the program's layers.
//!
//! The benchmark records spans from its own code, around calls to the
//! layers' public functions; nothing inside the program is instrumented.
//! Spans stay in memory and are written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer function name, e.g. `core.synth`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records nested spans; when disabled, [`Tracer::span`] only runs the
/// call, so the same benchmark code serves the untraced baseline.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed duration, ms.
    pub busy_ms: f64,
    /// Summed self time (duration minus the time child spans cover), ms.
    pub self_ms: f64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the calls.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` on the
    /// tracer it receives become children of this one.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name. Children of one span never overlap (calls
    /// are sequential), so self time is the duration minus the children's
    /// summed durations.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ms) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.busy_ms += s.ms();
            t.self_ms += (s.ms() - child).max(0.0);
        }
        out
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"span":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time() {
        let mut t = Tracer::new(true);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(outer.busy_ms >= inner.busy_ms);
        assert!((outer.self_ms - (outer.busy_ms - inner.busy_ms)).abs() < 1e-9);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, 7);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", 0, |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
