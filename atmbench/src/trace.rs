//! Wall-clock spans recorded around calls into the stack's public API.
//!
//! Spans live in memory while the benchmark runs and are written once,
//! at exit, as Chrome trace JSON (`chrome://tracing`, Perfetto). A
//! disabled [`Tracer`] records nothing and never reads the clock.

use std::time::Instant;

use crate::json::Value;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `fleet.epoch`.
    pub name: &'static str,
    /// The job the span belongs to (spans of one job share it).
    pub job: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's wall duration in ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    job: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer, recording only while enabled.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            job: 0,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags subsequent spans with `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent`; `None` when recording is off.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            job: self.job,
            parent,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span returned by [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The children of every span, indexed by parent.
#[must_use]
pub fn children(spans: &[Span]) -> Vec<Vec<SpanId>> {
    let mut out = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            out[p].push(i);
        }
    }
    out
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Overlapping children (parallel work) are counted
/// once, and children are clipped to the parent's interval.
#[must_use]
pub fn self_ns(spans: &[Span], kids: &[Vec<SpanId>], id: SpanId) -> u64 {
    let parent = &spans[id];
    let mut iv: Vec<(u64, u64)> = kids[id]
        .iter()
        .map(|&c| {
            (
                spans[c].start_ns.max(parent.start_ns),
                spans[c].end_ns.min(parent.end_ns),
            )
        })
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    parent.dur_ns() - covered
}

/// The share of the `root`-named spans' wall time that no child span
/// covers: `Σ self(root) / Σ dur(root)`. `None` without such spans.
#[must_use]
pub fn unattributed_frac(spans: &[Span], root: &str) -> Option<f64> {
    let kids = children(spans);
    let (mut own, mut total) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == root) {
        own += self_ns(spans, &kids, i);
        total += s.dur_ns();
    }
    (total > 0).then(|| own as f64 / total as f64)
}

/// Total duration of every span named `name`, ns.
#[must_use]
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// The spans as a Chrome trace document (complete `X` events, µs).
#[must_use]
pub fn chrome_json(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![("job".to_owned(), Value::int(s.job))];
            if let Some(p) = s.parent {
                args.push(("parent".to_owned(), Value::int(p as u64)));
            }
            Value::Obj(vec![
                ("name".to_owned(), Value::str(s.name)),
                ("ph".to_owned(), Value::str("X")),
                ("ts".to_owned(), Value::num(s.start_ns as f64 / 1e3)),
                ("dur".to_owned(), Value::num(s.dur_ns() as f64 / 1e3)),
                ("pid".to_owned(), Value::int(1)),
                ("tid".to_owned(), Value::int(s.job)),
                ("args".to_owned(), Value::Obj(args)),
            ])
        })
        .collect();
    Value::Obj(vec![("traceEvents".to_owned(), Value::Arr(events))]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            job: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // job [0, 100): children [10, 40) and [30, 60) overlap on
        // [30, 40); [90, 120) is clipped to [90, 100).
        let spans = vec![
            span("job", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),
            span("c", Some(0), 90, 120),
            span("d", Some(1), 15, 20), // a grandchild does not count twice
        ];
        let kids = children(&spans);
        assert_eq!(self_ns(&spans, &kids, 0), 100 - 50 - 10);
        assert_eq!(self_ns(&spans, &kids, 1), 30 - 5);
        assert_eq!(self_ns(&spans, &kids, 4), 5);
    }

    #[test]
    fn unattributed_frac_sums_over_jobs() {
        let spans = vec![
            span("job", None, 0, 100),
            span("x", Some(0), 0, 90),
            span("job", None, 200, 300),
            span("x", Some(2), 200, 300),
        ];
        assert_eq!(unattributed_frac(&spans, "job"), Some(10.0 / 200.0));
        assert_eq!(unattributed_frac(&spans, "none"), None);
        assert_eq!(total_ns(&spans, "x"), 190);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", None, || 7), 7);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.set_job(3);
        let root = t.open("job", None);
        t.span("x", root, || ());
        t.close(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].job, 3);
        assert!(chrome_json(t.spans()).starts_with("{\"traceEvents\":[{\"name\":\"job\""));
    }
}
