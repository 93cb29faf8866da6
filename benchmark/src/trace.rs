//! In-memory spans recorded by the harness around its own calls into the
//! pipeline. Nothing inside the program is instrumented: a span is the time
//! one public call took, seen from outside.

use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The crate the call went into.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in the same span list) of the span this one ran inside.
    pub parent: Option<usize>,
    /// Measured epoch the call belongs to.
    pub epoch: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; `None` while tracing is off.
#[must_use]
pub struct Open(Option<usize>);

/// A per-thread span recorder. All tracers of one run share `origin`, so
/// their timestamps are comparable after [`merge`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub enabled: bool,
    pub epoch: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            enabled: false,
            epoch: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested inside whichever span is currently open.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            epoch: self.epoch,
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes a span. Spans close in the reverse of the order they opened.
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(idx), "spans must nest");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, re-basing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }
    out
}

/// Self time of every span: its duration minus the durations of its direct
/// children (children of one span run one after another on one thread, so
/// they never overlap each other).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Total self time, in seconds, of the spans called `name`.
pub fn self_seconds(spans: &[Span], name: &str) -> f64 {
    let own = self_times_ns(spans);
    let total: u64 = spans
        .iter()
        .zip(&own)
        .filter(|(span, _)| span.name == name)
        .map(|(_, &ns)| ns)
        .sum();
    total as f64 / 1e9
}

/// Durations, in milliseconds, of the spans called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|span| span.name == name)
        .map(|span| span.duration_ns() as f64 / 1e6)
        .collect()
}

/// Total duration, in seconds, of the spans called `name`.
pub fn total_seconds(spans: &[Span], name: &str) -> f64 {
    durations_ms(spans, name).iter().sum::<f64>() / 1e3
}

/// Renders the spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut out = String::from("[\n");
    for (id, (span, own_ns)) in spans.iter().zip(&own).enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own_ns},\"parent\":{parent},\"epoch\":{}}}{}\n",
            span.name,
            span.layer,
            span.start_ns,
            span.end_ns,
            span.epoch,
            if id + 1 == spans.len() { "" } else { "," },
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            layer: "test",
            start_ns: start,
            end_ns: end,
            parent,
            epoch: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // pump [0,100) holds two sibling ingests [10,30) and [40,70); the
        // second ingest holds a nested put [45,50).
        let spans = vec![
            span("pump", 0, 100, None),
            span("ingest", 10, 30, Some(0)),
            span("ingest", 40, 70, Some(0)),
            span("put", 45, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 25, 5]);
        // A grandchild is subtracted from its parent only, not from the root.
        assert!((self_seconds(&spans, "pump") - 50e-9).abs() < 1e-15);
        assert!((self_seconds(&spans, "ingest") - 45e-9).abs() < 1e-15);
        assert_eq!(durations_ms(&spans, "ingest"), vec![20e-6, 30e-6]);
    }

    #[test]
    fn tracer_nests_and_merge_rebases_parents() {
        let origin = Instant::now();
        let mut main = Tracer::new(origin);
        let off = main.begin("ignored", "x");
        main.end(off);
        main.enabled = true;
        main.epoch = 3;
        let outer = main.begin("outer", "a");
        let inner = main.begin("inner", "b");
        main.end(inner);
        main.end(outer);
        let mut other = Tracer::new(origin);
        other.enabled = true;
        let a = other.begin("a", "c");
        let b = other.begin("b", "c");
        other.end(b);
        other.end(a);

        let merged = merge(vec![main.into_spans(), other.into_spans()]);
        let names: Vec<_> = merged.iter().map(|s| (s.name, s.parent, s.epoch)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None, 3),
                ("inner", Some(0), 3),
                ("a", None, 0),
                ("b", Some(2), 0)
            ]
        );
        assert!(merged[0].start_ns <= merged[1].start_ns && merged[1].end_ns <= merged[0].end_ns);
        let json = to_json(&merged);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"name\"").count(), 4);
    }
}
