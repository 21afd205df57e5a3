//! The traced run's in-memory telemetry sink.
//!
//! The program already emits spans (`env.step`, `gnn.block.forward`,
//! `ppo.update`, ...), request-scoped `serve.infer` spans and
//! `fleet.response` annotations. [`LayerSink`] aggregates them as they
//! arrive, instead of buffering the event stream, into per-span counts,
//! total time and self time (total minus the time of child spans on the
//! same thread).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;

use gddr_telemetry::{Event, Sink};

/// Time and count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    /// Completed spans.
    pub count: u64,
    /// Summed wall time, ns.
    pub total_ns: u64,
    /// Summed wall time minus child spans, ns.
    pub self_ns: u64,
}

/// Everything the sink has aggregated.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    /// Program spans by name.
    pub spans: BTreeMap<String, SpanStat>,
    /// Requests covered by `serve.infer` spans.
    pub infer_items: u64,
    /// Batched forward passes those spans came from.
    pub infer_batches: f64,
    /// Summed per-item share of each forward pass, ns.
    pub infer_item_ns: f64,
    /// `queue_wait_ns` of every `fleet.response`, in µs.
    pub queue_wait_us: Vec<f64>,
}

impl LayerStats {
    /// Stats of one span name (zero when it never fired).
    pub fn span(&self, name: &str) -> SpanStat {
        self.spans.get(name).copied().unwrap_or_default()
    }
}

thread_local! {
    /// Per nesting depth, the time of completed child spans of the span
    /// open at that depth on this thread.
    static CHILD_NS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Aggregating sink; install it (teed with the flight recorder on
/// serving workloads) around the phases to attribute.
#[derive(Debug, Default)]
pub struct LayerSink {
    stats: Mutex<LayerStats>,
}

impl LayerSink {
    /// An empty sink.
    pub fn new() -> Self {
        LayerSink::default()
    }

    /// A copy of the aggregate so far.
    pub fn stats(&self) -> LayerStats {
        self.stats.lock().expect("layer sink lock").clone()
    }
}

fn attr<'a>(attrs: &'a [(String, String)], key: &str) -> Option<&'a str> {
    attrs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

impl Sink for LayerSink {
    fn record(&self, event: &Event) {
        match event {
            Event::Span {
                name,
                depth,
                dur_ns,
                ..
            } => {
                // Spans close innermost first on their own thread, so a
                // span's children have all reported by the time it does.
                let depth = *depth as usize;
                let self_ns = CHILD_NS.with(|acc| {
                    let mut acc = acc.borrow_mut();
                    if acc.len() < depth + 2 {
                        acc.resize(depth + 2, 0);
                    }
                    let children = std::mem::take(&mut acc[depth + 1]);
                    acc[depth] += dur_ns;
                    dur_ns.saturating_sub(children)
                });
                let mut stats = self.stats.lock().expect("layer sink lock");
                let stat = stats.spans.entry(name.clone()).or_default();
                stat.count += 1;
                stat.total_ns += dur_ns;
                stat.self_ns += self_ns;
            }
            Event::TraceSpan {
                name,
                dur_ns,
                attrs,
                ..
            } if name == "serve.infer" => {
                let batch: f64 = attr(attrs, "batch_size")
                    .and_then(|b| b.parse().ok())
                    .unwrap_or(1.0);
                let mut stats = self.stats.lock().expect("layer sink lock");
                // Every item of a batch gets the same span.
                stats.infer_items += 1;
                stats.infer_batches += 1.0 / batch;
                stats.infer_item_ns += *dur_ns as f64 / batch;
            }
            Event::TraceAnnotation { name, attrs, .. } if name == "fleet.response" => {
                if let Some(ns) = attr(attrs, "queue_wait_ns").and_then(|v| v.parse::<f64>().ok()) {
                    let mut stats = self.stats.lock().expect("layer sink lock");
                    stats.queue_wait_us.push(ns / 1e3);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, depth: u64, dur_ns: u64) -> Event {
        Event::Span {
            name: name.to_string(),
            parent: None,
            depth,
            start_us: 0,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let sink = LayerSink::new();
        // outer(100) { mid(60) { leaf(25) } leaf(10) }
        for event in [
            span("leaf", 2, 25),
            span("mid", 1, 60),
            span("leaf", 1, 10),
            span("outer", 0, 100),
        ] {
            sink.record(&event);
        }
        let stats = sink.stats();
        assert_eq!(stats.span("outer").self_ns, 30);
        assert_eq!(stats.span("mid").self_ns, 35);
        let leaf = stats.span("leaf");
        assert_eq!((leaf.count, leaf.total_ns, leaf.self_ns), (2, 35, 35));
        assert_eq!(stats.span("absent"), SpanStat::default());
    }

    #[test]
    fn infer_spans_split_one_forward_across_its_batch() {
        let sink = LayerSink::new();
        for _ in 0..4 {
            sink.record(&Event::TraceSpan {
                trace_id: 1,
                shard: 0,
                name: "serve.infer".into(),
                start_us: 0,
                dur_ns: 800,
                attrs: vec![("batch_size".into(), "4".into())],
            });
        }
        sink.record(&Event::TraceAnnotation {
            trace_id: 1,
            shard: 0,
            name: "fleet.response".into(),
            at_us: 0,
            attrs: vec![("queue_wait_ns".into(), "1500".into())],
        });
        let stats = sink.stats();
        assert_eq!(stats.infer_items, 4);
        assert_eq!(stats.infer_batches, 1.0);
        assert_eq!(stats.infer_item_ns, 800.0);
        assert_eq!(stats.queue_wait_us, vec![1.5]);
    }
}
