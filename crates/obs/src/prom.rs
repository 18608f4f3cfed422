//! Prometheus text-format (version 0.0.4) rendering.
//!
//! [`render`] is the one renderer: a server's and a router's `/metrics`
//! and `plab stats --prom` all call it over a `&[MetricSample]`.
//! Counters and gauges render directly. Histograms render
//! summary-style: `quantile="0.5|0.9|0.99|0.999"` series plus `_sum`
//! and `_count`, and companion `_min`/`_max` gauges — log₂ buckets make
//! quantile edges cheap and exact-to-a-factor-of-two, which is what a
//! dashboard of latency percentiles wants. Output follows the sample
//! order (sorted by name then labels) so golden tests stay stable.

use crate::hist::HistogramSnapshot;
use crate::registry::{Labels, MetricSample, MetricValue};

/// Quantiles every histogram exposes.
pub const QUANTILES: [(f64, &str); 4] =
    [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

fn escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn label_block(labels: &Labels, extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Accumulates Prometheus text, emitting each `# TYPE` header once per
/// family.
#[derive(Default)]
struct PromText {
    out: String,
    typed: Vec<(String, &'static str)>,
}

impl PromText {
    fn header(&mut self, name: &str, kind: &'static str) {
        if self.typed.iter().any(|(n, k)| n == name && *k == kind) {
            return;
        }
        self.typed.push((name.to_string(), kind));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    fn counter(&mut self, name: &str, labels: &Labels, v: u64) {
        self.header(name, "counter");
        self.out
            .push_str(&format!("{name}{} {v}\n", label_block(labels, None)));
    }

    fn gauge(&mut self, name: &str, labels: &Labels, v: i64) {
        self.header(name, "gauge");
        self.out
            .push_str(&format!("{name}{} {v}\n", label_block(labels, None)));
    }

    /// One histogram as a summary plus `_min`/`_max` gauges.
    fn histogram(&mut self, name: &str, labels: &Labels, h: &HistogramSnapshot) {
        self.header(name, "summary");
        for (q, qs) in QUANTILES {
            self.out.push_str(&format!(
                "{name}{} {}\n",
                label_block(labels, Some(("quantile", qs))),
                h.quantile_ns(q)
            ));
        }
        let block = label_block(labels, None);
        self.out.push_str(&format!("{name}_sum{block} {}\n", h.sum));
        self.out
            .push_str(&format!("{name}_count{block} {}\n", h.count()));
        self.gauge(&format!("{name}_min"), labels, h.min as i64);
        self.gauge(&format!("{name}_max"), labels, h.max as i64);
    }
}

/// Renders `samples` to Prometheus text, in their order.
#[must_use]
pub fn render(samples: &[MetricSample]) -> String {
    let mut p = PromText::default();
    for s in samples {
        match &s.value {
            MetricValue::Counter(v) => p.counter(&s.name, &s.labels, *v),
            MetricValue::Gauge(v) => p.gauge(&s.name, &s.labels, *v),
            MetricValue::Histogram(h) => p.histogram(&s.name, &s.labels, h),
        }
    }
    p.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn golden_render() {
        let reg = MetricsRegistry::new();
        reg.counter("plab_requests_total").add(42);
        reg.counter_with("plab_shard_hits_total", &[("shard", "0")])
            .add(9);
        reg.counter_with("plab_shard_hits_total", &[("shard", "1")])
            .add(3);
        reg.gauge("plab_vertices").set(1000);
        let h = reg.histogram("plab_latency_ns");
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1 << 20);

        let text = render(&reg.samples());
        let expected = "\
# TYPE plab_latency_ns summary
plab_latency_ns{quantile=\"0.5\"} 128
plab_latency_ns{quantile=\"0.9\"} 128
plab_latency_ns{quantile=\"0.99\"} 128
plab_latency_ns{quantile=\"0.999\"} 2097152
plab_latency_ns_sum 1058476
plab_latency_ns_count 100
# TYPE plab_latency_ns_min gauge
plab_latency_ns_min 100
# TYPE plab_latency_ns_max gauge
plab_latency_ns_max 1048576
# TYPE plab_requests_total counter
plab_requests_total 42
# TYPE plab_shard_hits_total counter
plab_shard_hits_total{shard=\"0\"} 9
plab_shard_hits_total{shard=\"1\"} 3
# TYPE plab_vertices gauge
plab_vertices 1000
";
        assert_eq!(text, expected);
    }

    #[test]
    fn labels_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter_with("m", &[("k", "a\"b\\c\nd")]).inc();
        let text = render(&reg.samples());
        assert!(text.contains("m{k=\"a\\\"b\\\\c\\nd\"} 1"));
    }
}
