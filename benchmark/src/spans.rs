//! The benchmark's own span list.
//!
//! A span is opened around every call that crosses into a crate of the
//! workspace. Spans live in memory and are written out once, at exit, in
//! chrome-trace format. With recording off (the untraced run that produces
//! the end-to-end metrics) [`Spans::time`] only reads the clock.

use std::time::Instant;

use crate::surface::Json;

/// One completed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The operation this span belongs to; spans of one operation share it.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder: a list plus the stack of currently open spans.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    list: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            list: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    /// Turns recording on or off; timing works either way.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new operation: spans opened from now on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op_id += 1;
        self.op_id
    }

    /// Runs `f` inside a span called `name` and returns its result with
    /// the wall seconds it took. `f` gets the recorder back so it can open
    /// child spans.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let idx = self.enabled.then(|| {
            self.list.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                op_id: self.op_id,
            });
            self.open.push(self.list.len() - 1);
            self.list.len() - 1
        });
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let Some(idx) = idx {
            self.open.pop();
            self.list[idx].start_ns = (start - self.origin).as_nanos() as u64;
            self.list[idx].end_ns = (end - self.origin).as_nanos() as u64;
        }
        (out, (end - start).as_secs_f64())
    }

    pub fn list(&self) -> &[Span] {
        &self.list
    }

    /// Chrome-trace document (`chrome://tracing`, Perfetto): one complete
    /// (`X`) event per span, microsecond timestamps, with the span's parent
    /// index, operation id and self time as arguments.
    pub fn chrome_trace(&self, process: &str) -> Json {
        let self_ns = self_times(&self.list);
        let events = self
            .list
            .iter()
            .zip(&self_ns)
            .map(|(s, &own)| {
                Json::obj()
                    .with("name", Json::str(s.name.clone()))
                    .with("ph", Json::str("X"))
                    .with("pid", Json::U64(1))
                    .with("tid", Json::U64(1))
                    .with("ts", Json::F64(s.start_ns as f64 / 1e3))
                    .with("dur", Json::F64(s.duration_ns() as f64 / 1e3))
                    .with(
                        "args",
                        Json::obj()
                            .with("op_id", Json::U64(s.op_id))
                            .with(
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                            )
                            .with("self_us", Json::F64(own as f64 / 1e3)),
                    )
            })
            .collect();
        Json::obj()
            .with("displayTimeUnit", Json::str("ms"))
            .with("process", Json::str(process))
            .with("traceEvents", Json::Arr(events))
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children of one parent never overlap (one thread, a
/// stack), so the subtraction is exact.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Total self time per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own,
            None => out.push((s.name.clone(), own)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("op", 0, 100, None),
            span("replay", 10, 70, Some(0)),
            span("check", 70, 90, Some(0)),
            span("inner", 20, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 20, 30]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_groups_by_name() {
        let spans = vec![
            span("op", 0, 50, None),
            span("replay", 0, 40, Some(0)),
            span("op", 50, 100, None),
            span("replay", 55, 95, Some(2)),
        ];
        assert_eq!(
            self_time_by_name(&spans),
            vec![("op".to_string(), 20), ("replay".to_string(), 80)]
        );
    }

    #[test]
    fn recorder_nests_spans_and_tags_operations() {
        let mut rec = Spans::new(true);
        let op = rec.next_op();
        let ((), wall) = rec.time("outer", |rec| {
            rec.time("inner", |_| ());
        });
        assert!(wall >= 0.0);
        let list = rec.list();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].name, "outer");
        assert_eq!(list[0].parent, None);
        assert_eq!(list[1].parent, Some(0));
        assert!(list.iter().all(|s| s.op_id == op));
        assert!(list[0].start_ns <= list[1].start_ns && list[1].end_ns <= list[0].end_ns);
    }

    #[test]
    fn disabled_recorder_times_without_recording() {
        let mut rec = Spans::new(false);
        let (v, wall) = rec.time("x", |_| 7);
        assert_eq!(v, 7);
        assert!(wall >= 0.0);
        assert!(rec.list().is_empty());
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut rec = Spans::new(true);
        rec.time("a", |rec| rec.time("b", |_| ()).0);
        let doc = rec.chrome_trace("test").render();
        assert_eq!(doc.matches("\"ph\": \"X\"").count(), 2);
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"self_us\""));
    }
}
