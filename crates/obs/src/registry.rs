//! The metrics registry: counter/gauge/histogram families assembled from
//! per-tier [`Collector`]s and rendered in the Prometheus text exposition
//! format.
//!
//! The registry holds no metric state of its own — every scrape calls each
//! registered collector, which maps its tier's *existing* snapshot structs
//! into labeled samples. That keeps the hot paths untouched: tiers already
//! maintain atomic counters and gauges for their own reports; observability
//! is a read-only projection of them.
//!
//! Rendering is deterministic: families sort by name, samples sort by their
//! label sets, histogram buckets render cumulatively, and label values are
//! escaped per the exposition-format rules — the conformance tests below pin
//! all of it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The exposition type of one metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing value (rendered as `counter`).
    Counter,
    /// A value that can go up and down (rendered as `gauge`).
    Gauge,
    /// A bucketed distribution (rendered as `histogram` with cumulative
    /// `_bucket` series plus `_sum` and `_count`).
    Histogram,
}

impl MetricKind {
    fn type_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A point-in-time snapshot of a [`Histogram`]: per-bucket (non-cumulative)
/// counts aligned with the upper bounds, plus the total sum and count.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (`le` values), sorted ascending, all finite.
    pub bounds: Vec<f64>,
    /// Observations per bucket: `counts[i]` counts values in
    /// `(bounds[i-1], bounds[i]]`. Values above the last bound only appear
    /// in `count` (the implicit `+Inf` bucket).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total number of observations (including overflows).
    pub count: u64,
}

/// A concurrent fixed-bucket histogram instrument. Tiers that want a
/// distribution (rather than projecting an existing snapshot struct) observe
/// into one of these and export [`Histogram::snapshot`] from their collector.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One slot per bound plus an overflow slot for values above the last
    /// bound.
    counts: Vec<AtomicU64>,
    /// f64 bits of the running sum, updated by CAS.
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with the given finite upper bounds (sorted and
    /// deduplicated internally).
    pub fn new(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
        bounds.dedup();
        let slots = bounds.len() + 1;
        Self {
            bounds,
            counts: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let slot = self.bounds.partition_point(|bound| value > *bound);
        self.counts[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time snapshot for exporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts[..self.bounds.len()]
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// One sample's value: a scalar or a histogram snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// A counter or gauge reading.
    Scalar(f64),
    /// A histogram distribution.
    Histogram(HistogramSnapshot),
}

/// One labeled sample of a metric family.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Label pairs, sorted by key (the sort key for deterministic output).
    pub labels: Vec<(String, String)>,
    /// The sample's value.
    pub value: SampleValue,
}

/// One metric family: a name, help text, a kind, and its labeled samples.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricFamily {
    /// The family name (e.g. `recd_dpp_samples_out_total`).
    pub name: String,
    /// The HELP line text.
    pub help: String,
    /// The exposition type.
    pub kind: MetricKind,
    /// Samples, sorted by label set.
    pub samples: Vec<Sample>,
}

/// The buffer collectors write into during a scrape. Families merge by name;
/// a later sample with the same name *and* label set replaces the earlier
/// one, so output never contains duplicate series.
#[derive(Debug, Default)]
pub struct MetricsBuf {
    families: BTreeMap<String, MetricFamily>,
}

impl MetricsBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        value: SampleValue,
    ) {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        let family = self
            .families
            .entry(name.to_string())
            .or_insert_with(|| MetricFamily {
                name: name.to_string(),
                help: help.to_string(),
                kind,
                samples: Vec::new(),
            });
        debug_assert_eq!(
            family.kind, kind,
            "metric family {name} registered with conflicting kinds"
        );
        if let Some(existing) = family.samples.iter_mut().find(|s| s.labels == labels) {
            existing.value = value;
        } else {
            family.samples.push(Sample { labels, value });
        }
    }

    /// Adds a counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.push(
            name,
            help,
            MetricKind::Counter,
            labels,
            SampleValue::Scalar(value),
        );
    }

    /// Adds a gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.push(
            name,
            help,
            MetricKind::Gauge,
            labels,
            SampleValue::Scalar(value),
        );
    }

    /// Adds a histogram sample.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        snapshot: HistogramSnapshot,
    ) {
        self.push(
            name,
            help,
            MetricKind::Histogram,
            labels,
            SampleValue::Histogram(snapshot),
        );
    }

    /// Finishes the scrape: families in name order, samples in label order.
    pub fn into_families(self) -> Vec<MetricFamily> {
        self.families
            .into_values()
            .map(|mut family| {
                family.samples.sort_by(|a, b| a.labels.cmp(&b.labels));
                family
            })
            .collect()
    }
}

/// A tier that can export its live metrics. Implementations map the tier's
/// existing snapshot structs into samples — they must not block on hot-path
/// locks for longer than a snapshot read.
pub trait Collector: Send + Sync {
    /// Writes this tier's current samples into `out`.
    fn collect(&self, out: &mut MetricsBuf);
}

/// The registry: an ordered set of per-tier collectors, gathered on every
/// scrape.
#[derive(Default)]
pub struct MetricsRegistry {
    collectors: Mutex<Vec<Arc<dyn Collector>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tier's collector. Collectors run in registration order on
    /// each scrape; family merging makes the output order independent of it.
    pub fn register(&self, collector: Arc<dyn Collector>) {
        self.collectors
            .lock()
            .expect("registry lock")
            .push(collector);
    }

    /// Number of registered collectors.
    pub fn sources(&self) -> usize {
        self.collectors.lock().expect("registry lock").len()
    }

    /// Runs every collector and returns the merged, deterministically
    /// ordered families.
    pub fn gather(&self) -> Vec<MetricFamily> {
        let collectors: Vec<Arc<dyn Collector>> =
            self.collectors.lock().expect("registry lock").clone();
        let mut buf = MetricsBuf::new();
        for collector in collectors {
            collector.collect(&mut buf);
        }
        buf.into_families()
    }

    /// Gathers and renders the Prometheus text exposition.
    pub fn render(&self) -> String {
        render_families(&self.gather())
    }
}

/// Escapes a HELP line: backslash and newline.
fn escape_help(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value: backslash, double quote, and newline.
fn escape_label_value(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats a sample value per the exposition format (`+Inf`, `-Inf`, `NaN`).
fn fmt_value(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else if value.is_infinite() {
        if value > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{value}")
    }
}

fn fmt_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Renders families in the Prometheus text exposition format, version 0.0.4.
pub fn render_families(families: &[MetricFamily]) -> String {
    let mut out = String::new();
    for family in families {
        out.push_str(&format!(
            "# HELP {} {}\n# TYPE {} {}\n",
            family.name,
            escape_help(&family.help),
            family.name,
            family.kind.type_name()
        ));
        for sample in &family.samples {
            match &sample.value {
                SampleValue::Scalar(value) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        family.name,
                        fmt_labels(&sample.labels, None),
                        fmt_value(*value)
                    ));
                }
                SampleValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (bound, count) in h.bounds.iter().zip(&h.counts) {
                        cumulative += count;
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            family.name,
                            fmt_labels(&sample.labels, Some(("le", &fmt_value(*bound)))),
                            cumulative
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        family.name,
                        fmt_labels(&sample.labels, Some(("le", "+Inf"))),
                        h.count
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        family.name,
                        fmt_labels(&sample.labels, None),
                        fmt_value(h.sum)
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        family.name,
                        fmt_labels(&sample.labels, None),
                        h.count
                    ));
                }
            }
        }
    }
    out
}

/// Looks up a scalar sample by family name and a label subset (every pair in
/// `labels` must match; an empty slice matches the family's first sample).
/// The live-monitor render path reads values through this.
pub fn sample_value(families: &[MetricFamily], name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    let family = families.iter().find(|f| f.name == name)?;
    let sample = family.samples.iter().find(|s| {
        labels
            .iter()
            .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
    })?;
    match &sample.value {
        SampleValue::Scalar(v) => Some(*v),
        SampleValue::Histogram(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(fn(&mut MetricsBuf));
    impl Collector for Fixed {
        fn collect(&self, out: &mut MetricsBuf) {
            (self.0)(out);
        }
    }

    #[test]
    fn help_and_type_lines_precede_samples() {
        let registry = MetricsRegistry::new();
        registry.register(Arc::new(Fixed(|buf| {
            buf.counter("a_total", "counts a", &[], 3.0);
            buf.gauge("b_depth", "depth of b", &[("queue", "input")], 2.0);
        })));
        let text = registry.render();
        let expected = "# HELP a_total counts a\n\
                        # TYPE a_total counter\n\
                        a_total 3\n\
                        # HELP b_depth depth of b\n\
                        # TYPE b_depth gauge\n\
                        b_depth{queue=\"input\"} 2\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn label_and_help_escaping() {
        let mut buf = MetricsBuf::new();
        buf.gauge(
            "x",
            "line1\nline2 back\\slash",
            &[("path", "a\"b\\c\nd")],
            1.0,
        );
        let text = render_families(&buf.into_families());
        assert!(text.contains("# HELP x line1\\nline2 back\\\\slash\n"));
        assert!(text.contains("x{path=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }

    #[test]
    fn families_and_samples_order_deterministically() {
        // Two collectors registered in the "wrong" order still render
        // sorted by family name and label set.
        let registry = MetricsRegistry::new();
        registry.register(Arc::new(Fixed(|buf| {
            buf.gauge("zz", "z", &[], 1.0);
            buf.gauge("aa", "a", &[("t", "1")], 1.0);
        })));
        registry.register(Arc::new(Fixed(|buf| {
            buf.gauge("aa", "a", &[("t", "0")], 2.0);
        })));
        let families = registry.gather();
        let names: Vec<&str> = families.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["aa", "zz"]);
        let labels: Vec<&str> = families[0]
            .samples
            .iter()
            .map(|s| s.labels[0].1.as_str())
            .collect();
        assert_eq!(labels, ["0", "1"]);
        // Gathering twice renders byte-identically.
        assert_eq!(registry.render(), registry.render());
    }

    #[test]
    fn duplicate_series_last_write_wins() {
        let mut buf = MetricsBuf::new();
        buf.counter("c_total", "c", &[("k", "v")], 1.0);
        buf.counter("c_total", "c", &[("k", "v")], 5.0);
        let families = buf.into_families();
        assert_eq!(families.len(), 1);
        assert_eq!(families[0].samples.len(), 1);
        assert_eq!(families[0].samples[0].value, SampleValue::Scalar(5.0));
    }

    #[test]
    fn histogram_buckets_render_cumulatively() {
        let hist = Histogram::new(&[0.1, 0.5, 1.0]);
        hist.observe(0.05); // bucket le=0.1
        hist.observe(0.3); // bucket le=0.5
        hist.observe(0.4); // bucket le=0.5
        hist.observe(0.5); // boundary value belongs to le=0.5
        hist.observe(2.0); // overflow: only in +Inf
        let mut buf = MetricsBuf::new();
        buf.histogram("lat_seconds", "latency", &[], hist.snapshot());
        let text = render_families(&buf.into_families());
        assert!(text.contains("# TYPE lat_seconds histogram\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 1\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.5\"} 4\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"1\"} 4\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("lat_seconds_count 5\n"));
        // Cumulativity invariant: bucket counts never decrease as le grows.
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("lat_seconds_bucket"))
            .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        let sum: f64 = 0.05 + 0.3 + 0.4 + 0.5 + 2.0;
        assert!(text.contains(&format!("lat_seconds_sum {sum}\n")));
    }

    #[test]
    fn special_values_render_per_format() {
        let mut buf = MetricsBuf::new();
        buf.gauge("g", "g", &[("v", "nan")], f64::NAN);
        buf.gauge("g", "g", &[("v", "pinf")], f64::INFINITY);
        buf.gauge("g", "g", &[("v", "ninf")], f64::NEG_INFINITY);
        let text = render_families(&buf.into_families());
        assert!(text.contains("g{v=\"nan\"} NaN\n"));
        assert!(text.contains("g{v=\"pinf\"} +Inf\n"));
        assert!(text.contains("g{v=\"ninf\"} -Inf\n"));
    }

    #[test]
    fn sample_value_lookup_honors_label_subsets() {
        let mut buf = MetricsBuf::new();
        buf.gauge("q", "q", &[("queue", "input"), ("tier", "dpp")], 4.0);
        buf.gauge("q", "q", &[("queue", "work"), ("tier", "dpp")], 7.0);
        let families = buf.into_families();
        assert_eq!(
            sample_value(&families, "q", &[("queue", "work")]),
            Some(7.0)
        );
        assert_eq!(sample_value(&families, "q", &[]), Some(4.0));
        assert_eq!(sample_value(&families, "missing", &[]), None);
        assert_eq!(sample_value(&families, "q", &[("queue", "absent")]), None);
    }

    #[test]
    fn histogram_concurrent_observations_account_every_value() {
        let hist = Arc::new(Histogram::new(&[10.0, 100.0]));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let hist = Arc::clone(&hist);
                std::thread::spawn(move || {
                    for i in 0..250 {
                        hist.observe((t * 250 + i) as f64 % 150.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 1000);
        assert!(snap.counts.iter().sum::<u64>() <= snap.count);
    }
}
