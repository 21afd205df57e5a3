//! The metrics registry: named counters, gauges and log-bucketed
//! histograms, aggregated in-process.
//!
//! The registry is the *aggregated* view of telemetry (totals since
//! enablement); the event stream ([`crate::sink`]) is the *incremental*
//! view. Both are fed by the same instrumentation calls in
//! [`crate`]. Counters and gauges are atomics; every histogram is a
//! [`LogHistogram`], the one histogram type the crate keeps, so
//! registry quantiles carry the same bounded relative error as the
//! serving latency quantiles. A [`MetricsSnapshot`] freezes the
//! registry into a serialisable value for artifacts and tests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use gddr_ser::{json_struct, named};

use crate::hdr::{HdrSnapshot, LogHistogram};

/// A named metric cell.
#[derive(Debug)]
enum Metric {
    Counter(AtomicU64),
    /// Gauge value stored as `f64` bits.
    Gauge(AtomicU64),
    Histogram(Mutex<LogHistogram>),
}

/// The registry of named metrics.
///
/// Cells are created on first use and never removed. After the
/// (read-locked) name lookup, counter and gauge updates are lock-free
/// atomics and a histogram record holds its own cell's mutex for one
/// bucket increment, so concurrent threads only serialise on the same
/// histogram.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: RwLock<HashMap<String, Arc<Metric>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Arc<Metric> {
        if let Some(m) = self.metrics.read().expect("metrics lock").get(name) {
            return Arc::clone(m);
        }
        let mut map = self.metrics.write().expect("metrics lock");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(make())),
        )
    }

    /// Adds `delta` to the counter `name`, returning the new total.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter_add(&self, name: &str, delta: u64) -> u64 {
        match &*self.get_or_insert(name, || Metric::Counter(AtomicU64::new(0))) {
            Metric::Counter(c) => c.fetch_add(delta, Ordering::Relaxed) + delta,
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Sets the gauge `name` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge_set(&self, name: &str, value: f64) {
        match &*self.get_or_insert(name, || Metric::Gauge(AtomicU64::new(0.0f64.to_bits()))) {
            Metric::Gauge(g) => g.store(value.to_bits(), Ordering::Relaxed),
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Records `value` in the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram_record(&self, name: &str, value: u64) {
        match &*self.get_or_insert(name, || Metric::Histogram(Mutex::new(LogHistogram::new()))) {
            Metric::Histogram(h) => h.lock().expect("histogram lock").record(value),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Freezes all metrics into a serialisable snapshot, sorted by name
    /// for deterministic output.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.metrics.read().expect("metrics lock");
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, metric) in map.iter() {
            match &**metric {
                Metric::Counter(c) => counters.push((name.clone(), c.load(Ordering::Relaxed))),
                Metric::Gauge(g) => {
                    gauges.push((name.clone(), f64::from_bits(g.load(Ordering::Relaxed))));
                }
                Metric::Histogram(h) => {
                    histograms.push((name.clone(), h.lock().expect("histogram lock").snapshot()))
                }
            }
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Removes every metric (primarily for tests and between runs).
    pub fn clear(&self) {
        self.metrics.write().expect("metrics lock").clear();
    }
}

json_struct! {
    /// Frozen registry state: all metrics by kind, sorted by name.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct MetricsSnapshot {
        /// `(name, total)` pairs.
        pub counters: Vec<(String, u64)> as named,
        /// `(name, last value)` pairs.
        pub gauges: Vec<(String, f64)> as named,
        /// `(name, histogram)` pairs.
        pub histograms: Vec<(String, HdrSnapshot)> as named,
    }
}

impl MetricsSnapshot {
    /// Looks up a counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HdrSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gddr_ser::{FromJson, Json, ToJson};

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        assert_eq!(r.counter_add("a", 2), 2);
        assert_eq!(r.counter_add("a", 3), 5);
        assert_eq!(r.snapshot().counter("a"), Some(5));
        assert_eq!(r.snapshot().counter("missing"), None);
    }

    #[test]
    fn gauges_take_last_value() {
        let r = Registry::new();
        r.gauge_set("g", 1.0);
        r.gauge_set("g", -2.5);
        assert_eq!(r.snapshot().gauge("g"), Some(-2.5));
    }

    #[test]
    fn histograms_bucket_correctly() {
        let r = Registry::new();
        // Values below 32 sit in exact single-value buckets.
        for v in [1, 1, 5, 20, 31] {
            r.histogram_record("h", v);
        }
        let snap = r.snapshot();
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.buckets, vec![(1, 2), (5, 1), (20, 1), (31, 1)]);
        assert_eq!((h.count, h.sum), (5, 58));
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(1.0), 31);
    }

    #[test]
    fn histograms_cover_a_wide_range() {
        let r = Registry::new();
        r.histogram_record("d", 3);
        r.histogram_record("d", 300_000_000);
        let snap = r.snapshot();
        let h = snap.histogram("d").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.quantile(0.5), 3);
        // The tail is a bucket upper bound: never below the value, and
        // within one bucket width of it.
        let top = h.quantile(1.0);
        assert!(top >= 300_000_000 && top - 300_000_000 < crate::hdr::bucket_width(300_000_000));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.gauge_set("x", 1.0);
        r.counter_add("x", 1);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = Registry::new();
        r.counter_add("c.one", 7);
        r.counter_add("c.two", 9);
        r.gauge_set("g.x", 0.5);
        r.histogram_record("h", 1_500);
        let snap = r.snapshot();
        let text = snap.to_json().to_string();
        let back = MetricsSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
        // Byte-stable re-serialisation.
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn snapshot_is_sorted_and_clear_resets() {
        let r = Registry::new();
        r.counter_add("b", 1);
        r.counter_add("a", 1);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        r.clear();
        assert!(r.snapshot().counters.is_empty());
    }

    #[test]
    fn concurrent_updates_do_not_lose_increments() {
        let r = std::sync::Arc::new(Registry::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    for _ in 0..1000 {
                        r.counter_add("hot", 1);
                        r.histogram_record("hist", 2);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("hot"), Some(4000));
        assert_eq!(snap.histogram("hist").unwrap().count, 4000);
        assert_eq!(snap.histogram("hist").unwrap().sum, 8000);
    }
}
