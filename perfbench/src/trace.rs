//! In-memory spans around calls into the simulator's layers, written out
//! as Chrome trace-event JSON when the traced run ends (Perfetto and
//! `chrome://tracing` open it).
//!
//! A span's layer is its name up to the first `.` (`core.simulate` belongs
//! to `core`); spans named without a dot (`pass`, `point`, `probe`) are
//! the benchmark's own grouping. A layer's self time is the duration of its
//! spans minus the time their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was timed, `layer.call`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the matrix point the span belongs to.
    pub point: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A stack of open spans plus every closed one.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str, point: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            point,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one, and returns
    /// its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order (a bug in the caller).
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.secs()
    }

    /// Times `f` as one span and returns its value with the duration in
    /// seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        point: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, point);
        let value = f();
        (value, self.close(id))
    }

    /// Every span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in seconds per span name: each span's duration minus the
    /// durations of its children.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9;
            *out.entry(s.name).or_insert(0.0) += own;
        }
        out
    }

    /// Self time in seconds per layer (span name up to the first `.`;
    /// undotted names are the benchmark's own `bench` layer).
    pub fn layer_self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (name, secs) in self.self_times() {
            let layer = name.split_once('.').map_or("bench", |(l, _)| l);
            *out.entry(layer).or_insert(0.0) += secs;
        }
        out
    }

    /// The spans as Chrome trace-event JSON: one complete (`"ph": "X"`)
    /// event per span, times in microseconds, with the span id, parent,
    /// point index and exact nanosecond bounds in `args`.
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let opt = |o: Option<usize>| o.map_or_else(|| "null".to_string(), |v| v.to_string());
        for (id, span) in self.spans.iter().enumerate() {
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let cat = span.name.split_once('.').map_or("bench", |(l, _)| l);
            let _ = writeln!(
                s,
                "{{\"name\": \"{}\", \"cat\": \"{cat}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {}, \
                 \"point\": {}, \"start_ns\": {}, \"end_ns\": {}}}}}{sep}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                opt(span.parent),
                opt(span.point),
                span.start_ns,
                span.end_ns,
            );
        }
        s.push_str("]}\n");
        s
    }
}
