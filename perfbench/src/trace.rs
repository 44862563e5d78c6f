//! In-memory span recorder, written out as Chrome trace-event JSON.
//!
//! A span is recorded around each call into a layer's public function:
//! name, start, end, parent span and run id, plus the counts taken at the
//! same boundaries. Nothing is written until the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    args: Vec<(&'static str, u64)>,
}

/// Span recorder for one traced run.
pub struct Tracer {
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Start recording; `run` tags every span of this run.
    pub fn new(run: u64) -> Tracer {
        Tracer {
            origin: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span named `name`, nested under the innermost open span.
    pub fn open(&mut self, name: &str) -> SpanId {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            args: Vec::new(),
        });
        self.open.push(idx);
        SpanId(idx)
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Record `f` as a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, SpanId) {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        (out, id)
    }

    /// Attach counts to a span.
    pub fn set_args(&mut self, id: SpanId, args: Vec<(&'static str, u64)>) {
        self.spans[id.0].args = args;
    }

    /// Duration of a span in seconds.
    pub fn secs(&self, id: SpanId) -> f64 {
        let s = &self.spans[id.0];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Self time of a span in seconds: its duration minus the part its
    /// direct children cover (children never overlap on one thread).
    pub fn self_secs(&self, id: SpanId) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id.0))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let s = &self.spans[id.0];
        (s.end_ns - s.start_ns).saturating_sub(children) as f64 * 1e-9
    }

    /// The trace as Chrome trace-event JSON (complete `X` events, times in
    /// microseconds).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\": {:?}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"span\": {i}, \"parent\": {parent}, \"run\": {}, \"self_us\": {:.3}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                self.run,
                self.self_secs(SpanId(i)) * 1e6,
            );
            for (k, v) in &s.args {
                let _ = write!(out, ", {k:?}: {v}");
            }
            out.push_str("}}");
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("], \"displayTimeUnit\": \"ns\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_nest() {
        let mut t = Tracer::new(7);
        let ((_, inner), outer) = t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            })
        });
        assert!(t.secs(outer) >= t.secs(inner));
        assert!(t.self_secs(outer) < t.secs(inner));
        assert_eq!(t.spans[inner.0].parent, Some(outer.0));
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\": \"inner\"") && json.contains("\"parent\": 0"));
    }
}
