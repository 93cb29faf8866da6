//! Multi-registry scrape federation: re-exports every member registry's
//! families into one parent registry with a `host="<label>"` tag appended —
//! the single-pane view over a fleet of per-host registries.
//!
//! The federation is itself a [`Collector`]: register it on the parent
//! [`MetricsRegistry`] and every parent gather (scrape, live-monitor render)
//! fans out to the members. Members are added or replaced by label at any
//! time — a host whose incarnation changed keeps its label and the fleet's
//! dashboards never re-key.

use crate::registry::{Collector, MetricKind, MetricsBuf, MetricsRegistry, SampleValue};
use std::sync::{Arc, Mutex};

/// A set of labelled member registries scraped as one collector.
#[derive(Default)]
pub struct RegistryFederation {
    members: Mutex<Vec<(String, Arc<MetricsRegistry>)>>,
}

impl RegistryFederation {
    /// An empty federation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a member registry under `label`, or replaces the member already
    /// holding that label.
    pub fn set_member(&self, label: impl Into<String>, registry: Arc<MetricsRegistry>) {
        let label = label.into();
        let mut members = self.members.lock().expect("federation lock");
        match members.iter_mut().find(|(existing, _)| *existing == label) {
            Some(slot) => slot.1 = registry,
            None => members.push((label, registry)),
        }
    }

    /// Number of member registries.
    pub fn members(&self) -> usize {
        self.members.lock().expect("federation lock").len()
    }
}

impl Collector for RegistryFederation {
    fn collect(&self, out: &mut MetricsBuf) {
        let members = self.members.lock().expect("federation lock").clone();
        for (label, registry) in &members {
            for family in registry.gather() {
                for sample in &family.samples {
                    // Re-emit under the member's host tag; the member's own
                    // labels come first so the host tag never shadows them.
                    let mut labels: Vec<(&str, &str)> = sample
                        .labels
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .collect();
                    labels.push(("host", label.as_str()));
                    match (&sample.value, family.kind) {
                        (SampleValue::Scalar(value), MetricKind::Counter) => {
                            out.counter(&family.name, &family.help, &labels, *value);
                        }
                        (SampleValue::Scalar(value), MetricKind::Gauge) => {
                            out.gauge(&family.name, &family.help, &labels, *value);
                        }
                        (SampleValue::Histogram(snapshot), _) => {
                            out.histogram(&family.name, &family.help, &labels, snapshot.clone());
                        }
                        // A scalar sample inside a histogram family cannot be
                        // produced by MetricsBuf; skip rather than invent one.
                        (SampleValue::Scalar(_), MetricKind::Histogram) => {}
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::sample_value;

    struct Fixed(f64);

    impl Collector for Fixed {
        fn collect(&self, out: &mut MetricsBuf) {
            out.counter("recd_dpp_samples_out_total", "samples", &[], self.0);
            out.gauge(
                "recd_dpp_queue_depth",
                "depth",
                &[("queue", "input")],
                self.0 / 10.0,
            );
        }
    }

    #[test]
    fn members_federate_under_host_labels() {
        let federation = Arc::new(RegistryFederation::new());
        for (host, value) in [("h0", 100.0), ("h1", 250.0)] {
            let member = Arc::new(MetricsRegistry::new());
            member.register(Arc::new(Fixed(value)));
            federation.set_member(host, member);
        }
        let parent = Arc::new(MetricsRegistry::new());
        parent.register(Arc::clone(&federation) as Arc<dyn Collector>);

        let families = parent.gather();
        assert_eq!(
            sample_value(&families, "recd_dpp_samples_out_total", &[("host", "h0")]),
            Some(100.0)
        );
        assert_eq!(
            sample_value(&families, "recd_dpp_samples_out_total", &[("host", "h1")]),
            Some(250.0)
        );
        // Member labels survive next to the host tag.
        assert_eq!(
            sample_value(
                &families,
                "recd_dpp_queue_depth",
                &[("host", "h1"), ("queue", "input")],
            ),
            Some(25.0)
        );
    }

    #[test]
    fn set_member_replaces_by_label() {
        let federation = RegistryFederation::new();
        let first = Arc::new(MetricsRegistry::new());
        first.register(Arc::new(Fixed(1.0)));
        federation.set_member("h0", first);
        let second = Arc::new(MetricsRegistry::new());
        second.register(Arc::new(Fixed(2.0)));
        federation.set_member("h0", second);
        assert_eq!(federation.members(), 1);

        let mut out = MetricsBuf::new();
        federation.collect(&mut out);
        let families = out.into_families();
        assert_eq!(
            sample_value(&families, "recd_dpp_samples_out_total", &[("host", "h0")]),
            Some(2.0)
        );
    }
}
