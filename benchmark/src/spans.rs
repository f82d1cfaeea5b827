//! The benchmark's own span recorder: one span per layer per window,
//! recorded around the calls into each layer's public functions, kept in
//! memory and written as Chrome trace JSON when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `id` is the window index, shared by every span of
/// that window; `parent` indexes the recorder's span list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log with a common time origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the recorder's origin to `at` (0 if earlier).
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index (a parent handle).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `f` as a child span of `parent` within window `id`.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            id,
        });
        out
    }

    /// Opens a window span whose end is set by [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, id: u64) -> usize {
        let start_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            id,
        })
    }

    pub fn close(&mut self, handle: usize) {
        self.spans[handle].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children of one parent never overlap here: a window
/// is carried through the layers by one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_insert(0) += own;
    }
    by_name
}

/// Chrome `chrome://tracing` / Perfetto JSON: complete ("X") events in
/// microseconds, the window index and parent span in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"window\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id
        );
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("window", 0, 100, None),
            span("encode", 5, 25, Some(0)),
            span("serve", 25, 85, Some(0)),
            span("locate", 30, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 40, 20]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["window"], 20);
        assert_eq!(by_name["serve"], 40);
        // Self times partition the root's duration.
        assert_eq!(by_name.values().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_sums_across_windows_of_one_name() {
        let spans = [
            span("window", 0, 10, None),
            span("serve", 0, 4, Some(0)),
            span("window", 10, 30, None),
            span("serve", 12, 20, Some(2)),
        ];
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["serve"], 12);
        assert_eq!(by_name["window"], 18);
    }

    #[test]
    fn recorder_nests_children_under_an_open_window() {
        let mut rec = Recorder::new();
        let w = rec.open("window", 7);
        let v = rec.child("layer", w, 7, || 42);
        rec.close(w);
        assert_eq!(v, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(w));
        assert_eq!(spans[1].id, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn chrome_json_lists_every_span() {
        let spans = [span("a", 0, 1_000, None), span("b", 100, 600, Some(0))];
        let json = chrome_json(&spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"b\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"dur\":0.500"));
    }
}
