//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span is opened and closed around one call; spans nest when a call
//! the benchmark times calls back into benchmark code (the serving loop
//! calling the benchmark's `CommBackend`). Spans stay in memory and are
//! written once, as Chrome trace-event JSON, when the run ends.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer (crate) the call enters, e.g. `collective`.
    pub layer: &'static str,
    /// The public function called.
    pub name: &'static str,
    /// The op the call belongs to.
    pub op: u64,
    /// Host nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Host nanoseconds the span covers.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while switched on; otherwise calls straight through.
#[derive(Debug)]
pub struct Tracer {
    on: Cell<bool>,
    op: Cell<u64>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer that is switched off.
    pub fn new() -> Tracer {
        Tracer {
            on: Cell::new(false),
            op: Cell::new(0),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Switches recording on or off (between ops only).
    pub fn set_on(&self, on: bool) {
        assert!(
            self.open.borrow().is_empty(),
            "tracer toggled inside a span"
        );
        self.on.set(on);
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.get()
    }

    /// Tags the spans that follow with op `op`.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `layer`/`name` when recording.
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                layer,
                name,
                op: self.op.get(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (children nest inside their parent, so this is the
/// part of the parent's interval no child covers).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Chrome trace-event JSON (loadable in Perfetto): one complete event
/// per span and one named track per layer, in `layers` order.
pub fn chrome_json(spans: &[Span], layers: &[&str]) -> String {
    let tid = |layer: &str| {
        layers
            .iter()
            .position(|&l| l == layer)
            .unwrap_or(layers.len())
    };
    let mut out = String::from("{\"traceEvents\":[");
    for (i, layer) in layers.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{i},\"args\":{{\"name\":\"{layer}\"}}}},"
        );
    }
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
            s.name,
            s.layer,
            tid(s.layer),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer: "l",
            name: "n",
            op: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) holds a [10,60) call, which holds a [20,30) call,
        // and a [70,80) call.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
            span(70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 10, 10]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_spans_and_records_nothing_when_off() {
        let t = Tracer::new();
        t.span("a", "x", || t.span("b", "y", || ()));
        assert!(t.spans().is_empty());
        t.set_on(true);
        t.set_op(7);
        let v = t.span("a", "x", || t.span("b", "y", || 3));
        assert_eq!(v, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let own = self_times(&spans);
        assert_eq!(own[0] + own[1], spans[0].dur_ns());
    }

    #[test]
    fn chrome_json_has_one_track_per_layer() {
        let spans = [span(0, 2000, None)];
        let json = chrome_json(&spans, &["l", "m"]);
        assert!(json.contains("\"tid\":0,\"args\":{\"name\":\"l\"}"));
        assert!(json.contains("\"tid\":1,\"args\":{\"name\":\"m\"}"));
        assert!(json.contains(
            "\"ph\":\"X\",\"name\":\"n\",\"cat\":\"l\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":2.000"
        ));
    }
}
