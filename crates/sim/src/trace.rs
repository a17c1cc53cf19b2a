//! Optional execution tracing: records every process step as a
//! *duration* (begin/end) event plus explicitly-opened spans, and exports
//! the timeline in the Chrome trace-event JSON format (`chrome://tracing`
//! / [Perfetto](https://ui.perfetto.dev)), which makes kernel schedules,
//! proxy activity, and link contention visually inspectable.
//!
//! Labels are interned once (at process spawn or first span use) and
//! events store a small index, so recording does not allocate per step.

use crate::json::{self, Pid};
use crate::time::Time;

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A process step began executing (Chrome `B`).
    StepBegin,
    /// The step's busy window ended (Chrome `E`). For `Step::Yield(d)` the
    /// end is `d` after the begin; for waits and completion it is
    /// instantaneous.
    StepEnd,
    /// An explicitly-opened span began (Chrome async `b`).
    SpanBegin,
    /// An explicitly-opened span ended (Chrome async `e`).
    SpanEnd,
    /// A point-in-time marker (Chrome `i`).
    Instant,
    /// A named counter sample (Chrome `C`): renders as a step-function
    /// counter track in Perfetto (FIFO depths, queue occupancies, ...).
    Counter(u64),
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual instant of the event.
    pub at: Time,
    /// Stable index of the process.
    pub proc_index: usize,
    /// Interned label index; resolve with [`Trace::label`].
    pub label: u32,
    /// Event kind.
    pub kind: TraceEventKind,
}

/// A recorded execution timeline.
///
/// Obtained from [`crate::Engine::take_trace`]; the label table is
/// attached at take time.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    pub(crate) labels: Vec<String>,
}

impl Trace {
    pub(crate) fn push(&mut self, at: Time, proc_index: usize, label: u32, kind: TraceEventKind) {
        self.events.push(TraceEvent {
            at,
            proc_index,
            label,
            kind,
        });
    }

    /// The recorded events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Resolves an interned label index.
    pub fn label(&self, id: u32) -> &str {
        &self.labels[id as usize]
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Per-process count of `StepBegin`/`SpanBegin` events missing a
    /// matching end, *plus* ends missing a begin — zero for a trace of a
    /// run that reached quiescence or was torn down by
    /// [`crate::Engine::abort`]. Stray ends count too (they used to be
    /// silently clamped away), so a teardown that double-closes a span,
    /// or a trace segment that starts mid-span, is visible.
    pub fn unmatched_begins(&self) -> usize {
        let mut open: std::collections::BTreeMap<(usize, bool), i64> = Default::default();
        for e in &self.events {
            let key = (
                e.proc_index,
                matches!(e.kind, TraceEventKind::SpanBegin | TraceEventKind::SpanEnd),
            );
            match e.kind {
                TraceEventKind::StepBegin | TraceEventKind::SpanBegin => {
                    *open.entry(key).or_insert(0) += 1;
                }
                TraceEventKind::StepEnd | TraceEventKind::SpanEnd => {
                    *open.entry(key).or_insert(0) -= 1;
                }
                TraceEventKind::Instant | TraceEventKind::Counter(_) => {}
            }
        }
        open.values().map(|&v| v.unsigned_abs() as usize).sum()
    }

    /// Serializes the timeline as Chrome trace-event JSON, loadable in
    /// <https://ui.perfetto.dev> or `chrome://tracing`. Every process is
    /// one track under [`Pid::Engine`], named after the label it
    /// registered at spawn (rank/proxy names, not bare ids), with
    /// duration (`B`/`E`) events for steps, async (`b`/`e`) events for
    /// explicit spans and counter tracks for
    /// [`TraceEventKind::Counter`] samples. A non-empty `highlight` adds
    /// a critical-path track under [`Pid::CriticalPath`]: one duration
    /// slice per segment, chained across the process tracks it runs
    /// through with flow (`s`/`t`/`f`) arrows.
    pub fn to_chrome_json(&self, highlight: &[HighlightSegment]) -> String {
        let engine = Pid::Engine;
        let mut names: std::collections::BTreeMap<usize, u32> = Default::default();
        for e in &self.events {
            if matches!(e.kind, TraceEventKind::StepBegin | TraceEventKind::StepEnd) {
                names.entry(e.proc_index).or_insert(e.label);
            }
        }
        let threads = names.into_iter().map(|(tid, label)| {
            let name = json::quote(self.label(label));
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{engine},\"tid\":{tid},\"args\":{{\"name\":{name}}}}}"
            )
        });
        let path = highlight.iter().enumerate().map(|(i, seg)| {
            let cp = Pid::CriticalPath;
            let name = json::quote(&seg.name);
            let (b, e, tid) = (seg.from.as_us(), seg.to.as_us(), seg.proc_index);
            let flow = match i {
                0 => "\"s\"",
                _ if i + 1 == highlight.len() => "\"f\",\"bp\":\"e\"",
                _ => "\"t\"",
            };
            format!(
                "{{\"name\":{name},\"cat\":\"critical-path\",\"ph\":\"B\",\"ts\":{b:.3},\"pid\":{cp},\"tid\":0}}\
                 ,{{\"name\":{name},\"cat\":\"critical-path\",\"ph\":\"E\",\"ts\":{e:.3},\"pid\":{cp},\"tid\":0}}\
                 ,{{\"name\":\"critical-path\",\"cat\":\"flow\",\"id\":1,\"ph\":{flow},\"ts\":{b:.3},\"pid\":{engine},\"tid\":{tid}}}"
            )
        });
        let head = |pid: Pid, any: bool| any.then(|| pid.process_name());
        let all = head(engine, !self.events.is_empty())
            .into_iter()
            .chain(threads)
            .chain(self.events.iter().map(|e| self.event_json(e)))
            .chain(head(Pid::CriticalPath, !highlight.is_empty()))
            .chain(path);
        format!("[{}]", json::join(all))
    }

    fn event_json(&self, e: &TraceEvent) -> String {
        let name = json::quote(self.label(e.label));
        let (ts, pid, tid) = (e.at.as_us(), Pid::Engine, e.proc_index);
        match e.kind {
            TraceEventKind::StepBegin => format!(
                "{{\"name\":{name},\"ph\":\"B\",\"ts\":{ts:.3},\"pid\":{pid},\"tid\":{tid}}}"
            ),
            TraceEventKind::StepEnd => format!(
                "{{\"name\":{name},\"ph\":\"E\",\"ts\":{ts:.3},\"pid\":{pid},\"tid\":{tid}}}"
            ),
            TraceEventKind::SpanBegin => format!(
                "{{\"name\":{name},\"cat\":\"span\",\"id\":{tid},\"ph\":\"b\",\"ts\":{ts:.3},\"pid\":{pid},\"tid\":{tid}}}"
            ),
            TraceEventKind::SpanEnd => format!(
                "{{\"name\":{name},\"cat\":\"span\",\"id\":{tid},\"ph\":\"e\",\"ts\":{ts:.3},\"pid\":{pid},\"tid\":{tid}}}"
            ),
            TraceEventKind::Instant => format!(
                "{{\"name\":{name},\"ph\":\"i\",\"ts\":{ts:.3},\"pid\":{pid},\"tid\":{tid},\"s\":\"t\"}}"
            ),
            TraceEventKind::Counter(v) => format!(
                "{{\"name\":{name},\"ph\":\"C\",\"ts\":{ts:.3},\"pid\":{pid},\"args\":{{\"value\":{v}}}}}"
            ),
        }
    }
}

/// One segment of a critical path, for [`Trace::to_chrome_json`]'s
/// highlight track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HighlightSegment {
    /// Slice name (e.g. the blame bucket and the resource or process it
    /// charges).
    pub name: String,
    /// Segment start.
    pub from: Time,
    /// Segment end.
    pub to: Time,
    /// The process whose activity this segment ran through (flow arrows
    /// bind to its track).
    pub proc_index: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctx, Duration, Engine, Process, Step};

    struct Ticker(u32);
    impl Process<()> for Ticker {
        fn step(&mut self, _ctx: &mut Ctx<'_, ()>) -> Step {
            if self.0 == 0 {
                return Step::Done;
            }
            self.0 -= 1;
            Step::Yield(Duration::from_us(1.0))
        }
        fn label(&self) -> String {
            "ticker".into()
        }
    }

    #[test]
    fn trace_records_paired_step_spans() {
        let mut e = Engine::new(());
        e.enable_tracing();
        e.spawn(Ticker(3));
        e.run().unwrap();
        let trace = e.take_trace().expect("tracing enabled");
        // 3 yields + the final Done step, each a Begin/End pair.
        assert_eq!(trace.len(), 8);
        assert_eq!(trace.unmatched_begins(), 0);
        assert!(trace
            .events()
            .iter()
            .all(|ev| trace.label(ev.label) == "ticker"));
        // Yield steps have a 1us busy window; the Done step is instant.
        let evs = trace.events();
        assert_eq!(evs[0].kind, TraceEventKind::StepBegin);
        assert_eq!(evs[1].kind, TraceEventKind::StepEnd);
        assert_eq!((evs[1].at - evs[0].at).as_us(), 1.0);
        assert_eq!(evs[7].at, evs[6].at);
    }

    #[test]
    fn interning_shares_one_label_across_steps() {
        let mut e = Engine::new(());
        e.enable_tracing();
        e.spawn(Ticker(5));
        e.spawn(Ticker(2));
        e.run().unwrap();
        let trace = e.take_trace().unwrap();
        let first = trace.events()[0].label;
        assert!(trace.events().iter().all(|ev| ev.label == first));
        assert_eq!(trace.labels.iter().filter(|l| *l == "ticker").count(), 1);
    }

    #[test]
    fn chrome_json_has_duration_events() {
        let mut e = Engine::new(());
        e.enable_tracing();
        e.spawn(Ticker(1));
        e.run().unwrap();
        let json = e.take_trace().unwrap().to_chrome_json(&[]);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"ticker\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
    }

    #[test]
    fn chrome_json_names_tracks_after_process_labels() {
        let mut e = Engine::new(());
        e.enable_tracing();
        e.spawn(Ticker(1));
        e.spawn(Ticker(1));
        e.run().unwrap();
        let json = e.take_trace().unwrap().to_chrome_json(&[]);
        assert!(
            json.contains("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0"),
            "{json}"
        );
        assert!(
            json.contains(
                "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"ticker\"}"
            ),
            "{json}"
        );
        assert!(
            json.contains("\"tid\":1,\"args\":{\"name\":\"ticker\"}"),
            "{json}"
        );
        // An empty trace emits no orphan metadata (still valid JSON).
        assert_eq!(Trace::default().to_chrome_json(&[]), "[]");
    }

    #[test]
    fn tracing_disabled_by_default() {
        let mut e = Engine::new(());
        e.spawn(Ticker(1));
        e.run().unwrap();
        assert!(e.take_trace().is_none());
    }

    #[test]
    fn explicit_spans_round_trip_through_json() {
        struct Spanner;
        impl Process<()> for Spanner {
            fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Step {
                ctx.span_begin("phase.copy");
                ctx.span_end();
                Step::Done
            }
            fn label(&self) -> String {
                "spanner".into()
            }
        }
        let mut e = Engine::new(());
        e.enable_tracing();
        e.spawn(Spanner);
        e.run().unwrap();
        let trace = e.take_trace().unwrap();
        assert_eq!(trace.unmatched_begins(), 0);
        let json = trace.to_chrome_json(&[]);
        assert!(json.contains("\"name\":\"phase.copy\",\"cat\":\"span\""));
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
    }
}
