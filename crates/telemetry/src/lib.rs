//! # gddr-telemetry
//!
//! Zero-dependency (std + `gddr-ser`) telemetry for the GDDR
//! reproduction: scoped **spans** with wall-clock timing and
//! hierarchical parent tracking, a **metrics registry** of counters /
//! gauges / log-bucketed histograms, and a pluggable **sink** layer
//! that streams every observation as an [`Event`] — to memory for
//! tests, or to a JSONL file whose lines serialise via `gddr-ser` and
//! parse back losslessly.
//!
//! ## Overhead policy
//!
//! Instrumentation is compiled in unconditionally and gated by one
//! global flag:
//!
//! - **Disabled** (default, no sink installed): every call —
//!   [`span`], [`counter_add`], [`gauge_set`], [`histogram_record`] —
//!   short-circuits on a single relaxed atomic load. No clock reads,
//!   no allocation, no locks. Hot paths (`DdrEnv::step`, the simplex
//!   pivot loop) therefore pay effectively nothing when telemetry is
//!   off; per-solve statistics that must always be available (oracle
//!   cache hits, pivot counts) live in their owning structs instead.
//! - **Enabled** ([`install`]): updates aggregate into the global
//!   [`Registry`] (read-locked name lookup, then a lock-free atomic or
//!   one histogram cell's mutex) and
//!   stream to the installed [`Sink`]. Instrumentation sits at
//!   call/phase granularity (one span per env step, per LP solve, per
//!   PPO phase), never inside inner numeric loops.
//!
//! ## Usage
//!
//! ```
//! use std::sync::Arc;
//! use gddr_telemetry as telemetry;
//!
//! let sink = Arc::new(telemetry::MemorySink::new());
//! telemetry::install(sink.clone());
//! {
//!     let _span = telemetry::span("example.work");
//!     telemetry::counter_add("example.items", 3);
//! }
//! telemetry::uninstall();
//! assert!(sink.events().iter().any(|e| e.name() == "example.work"));
//! let snapshot = telemetry::registry().snapshot();
//! assert_eq!(snapshot.counter("example.items"), Some(3));
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

pub mod event;
pub mod hdr;
pub mod metrics;
pub mod progress;
pub mod ring;
pub mod sink;
pub mod slo;
mod span;
pub mod trace;

pub use event::{parse_jsonl, Event};
pub use hdr::{bucket_width, HdrSnapshot, LogHistogram};
pub use metrics::{MetricsSnapshot, Registry};
pub use progress::Reporter;
pub use ring::{FlightRecorder, FlightRecorderConfig};
pub use sink::{JsonlSink, MemorySink, NoopSink, Sink, TeeSink};
pub use slo::{SloAlertInfo, SloConfig, SloTracker};
pub use span::SpanGuard;
pub use trace::{now_us, trace_annotation_event, trace_span_event, TraceCtx};

/// Fast-path gate: true iff a sink is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed sink, if any.
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);

/// Bumped on every [`install`] / [`uninstall`] so per-thread sink
/// caches know when to refresh (see [`dispatch`]).
static SINK_GENERATION: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread `(generation, sink)` cache: the enabled-path cost of
    /// [`dispatch`] is one atomic load + one thread-local borrow
    /// instead of a contended `RwLock` read per event.
    static SINK_CACHE: RefCell<(u64, Option<Arc<dyn Sink>>)> = const { RefCell::new((0, None)) };
}

/// Whether telemetry is currently enabled (a sink is installed).
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `sink` as the global event receiver and enables
/// instrumentation. Replaces (and flushes) any previous sink.
pub fn install(sink: Arc<dyn Sink>) {
    let previous = {
        let mut slot = SINK.write().expect("telemetry sink lock");
        let previous = slot.replace(sink);
        SINK_GENERATION.fetch_add(1, Ordering::Release);
        previous
    };
    ENABLED.store(true, Ordering::Relaxed);
    if let Some(prev) = previous {
        prev.flush();
    }
}

/// Disables instrumentation and removes the sink, flushing and
/// returning it so callers can inspect buffered state (e.g. a
/// [`MemorySink`]) or keep a JSONL file complete.
pub fn uninstall() -> Option<Arc<dyn Sink>> {
    let sink = {
        let mut slot = SINK.write().expect("telemetry sink lock");
        let sink = slot.take();
        SINK_GENERATION.fetch_add(1, Ordering::Release);
        sink
    };
    ENABLED.store(false, Ordering::Relaxed);
    if let Some(s) = &sink {
        s.flush();
    }
    sink
}

/// The global metrics registry. Always available; only populated while
/// telemetry is enabled.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Forwards an event to the installed sink, if any.
///
/// The hot path avoids the `SINK` `RwLock` entirely: each thread
/// caches the sink `Arc` tagged with the install generation, and only
/// refreshes (taking the read lock once) after an [`install`] /
/// [`uninstall`] bumps the generation. Per-event cost is therefore an
/// atomic load plus an `Arc` clone.
pub(crate) fn dispatch(event: &Event) {
    let generation = SINK_GENERATION.load(Ordering::Acquire);
    let sink = SINK_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.0 != generation {
            *cache = (
                generation,
                SINK.read().expect("telemetry sink lock").clone(),
            );
        }
        cache.1.clone()
    });
    if let Some(sink) = sink {
        sink.record(event);
    }
}

/// Opens a scoped span; timing is recorded when the returned guard
/// drops. Near-zero cost when telemetry is disabled.
///
/// Guards must drop in LIFO order on their creating thread — the
/// natural consequence of binding them to a scope:
///
/// ```
/// let _span = gddr_telemetry::span("lp.simplex.solve");
/// // ... work ...
/// ```
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard::disabled();
    }
    SpanGuard::enabled(name)
}

/// Adds `delta` to the counter `name` and streams the increment.
/// No-op when telemetry is disabled.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !is_enabled() {
        return;
    }
    let total = registry().counter_add(name, delta);
    dispatch(&Event::Counter {
        name: name.to_string(),
        delta,
        total,
    });
}

/// Sets the gauge `name` and streams the update. No-op when telemetry
/// is disabled.
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    registry().gauge_set(name, value);
    dispatch(&Event::Gauge {
        name: name.to_string(),
        value,
    });
}

/// Records one histogram observation and streams it. No-op when
/// telemetry is disabled.
#[inline]
pub fn histogram_record(name: &str, value: u64) {
    if !is_enabled() {
        return;
    }
    registry().histogram_record(name, value);
    dispatch(&Event::Histogram {
        name: name.to_string(),
        value: value as f64,
    });
}

/// Records that a training checkpoint was written: bumps the
/// `ppo.checkpoints` counter and streams an [`Event::Checkpoint`].
/// No-op when telemetry is disabled.
pub fn checkpoint_event(step: u64, path: &str) {
    if !is_enabled() {
        return;
    }
    let total = registry().counter_add("ppo.checkpoints", 1);
    dispatch(&Event::Counter {
        name: "ppo.checkpoints".to_string(),
        delta: 1,
        total,
    });
    dispatch(&Event::Checkpoint {
        step,
        path: path.to_string(),
    });
}

/// Records a quarantine rollback: bumps `ppo.rollbacks` and streams an
/// [`Event::Rollback`]. No-op when telemetry is disabled.
pub fn rollback_event(step: u64, reason: &str, lr_scale: f64) {
    if !is_enabled() {
        return;
    }
    let total = registry().counter_add("ppo.rollbacks", 1);
    dispatch(&Event::Counter {
        name: "ppo.rollbacks".to_string(),
        delta: 1,
        total,
    });
    dispatch(&Event::Rollback {
        step,
        reason: reason.to_string(),
        lr_scale,
    });
}

/// Records an LP oracle fallback: bumps `lp.oracle.fallbacks` and
/// streams an [`Event::LpFallback`]. No-op when telemetry is disabled.
pub fn lp_fallback_event(strategy: &str, degraded: bool) {
    if !is_enabled() {
        return;
    }
    let total = registry().counter_add("lp.oracle.fallbacks", 1);
    dispatch(&Event::Counter {
        name: "lp.oracle.fallbacks".to_string(),
        delta: 1,
        total,
    });
    dispatch(&Event::LpFallback {
        strategy: strategy.to_string(),
        degraded,
    });
}

/// Records injected link failures: bumps `env.fault_injected` by the
/// number of removed edges and streams an [`Event::FaultInjected`].
/// No-op when telemetry is disabled.
pub fn fault_injected_event(graph: &str, edges_removed: u64) {
    if !is_enabled() {
        return;
    }
    let total = registry().counter_add("env.fault_injected", edges_removed);
    dispatch(&Event::Counter {
        name: "env.fault_injected".to_string(),
        delta: edges_removed,
        total,
    });
    dispatch(&Event::FaultInjected {
        graph: graph.to_string(),
        edges_removed,
    });
}

/// Records a served routing response: bumps `serve.responses` — and
/// only that counter; shed accounting is [`request_shed_event`]'s job,
/// which owns `serve.shed` — and streams an [`Event::RungServed`]
/// tagged with the request's trace id (`0` = untraced). No-op when
/// telemetry is disabled.
pub fn rung_served_event(shard: u64, epoch: u64, rung: &str, shed: bool, trace: u64) {
    if !is_enabled() {
        return;
    }
    let total = registry().counter_add("serve.responses", 1);
    dispatch(&Event::Counter {
        name: "serve.responses".to_string(),
        delta: 1,
        total,
    });
    dispatch(&Event::RungServed {
        shard,
        epoch,
        rung: rung.to_string(),
        shed,
        trace,
    });
}

/// Records a circuit-breaker state change: bumps
/// `serve.breaker_transitions` and streams an
/// [`Event::BreakerTransition`]. No-op when telemetry is disabled.
pub fn breaker_transition_event(shard: u64, from: &str, to: &str, epoch: u64) {
    if !is_enabled() {
        return;
    }
    let total = registry().counter_add("serve.breaker_transitions", 1);
    dispatch(&Event::Counter {
        name: "serve.breaker_transitions".to_string(),
        delta: 1,
        total,
    });
    dispatch(&Event::BreakerTransition {
        shard,
        from: from.to_string(),
        to: to.to_string(),
        epoch,
    });
}

/// Records a supervised worker restart: bumps `serve.worker_restarts`
/// and streams an [`Event::WorkerRestart`]. No-op when telemetry is
/// disabled.
pub fn worker_restart_event(shard: u64, worker: u64, restarts: u64, backoff_epochs: u64) {
    if !is_enabled() {
        return;
    }
    let total = registry().counter_add("serve.worker_restarts", 1);
    dispatch(&Event::Counter {
        name: "serve.worker_restarts".to_string(),
        delta: 1,
        total,
    });
    dispatch(&Event::WorkerRestart {
        shard,
        worker,
        restarts,
        backoff_epochs,
    });
}

/// Records an admission-queue shed: bumps `serve.shed` and streams an
/// [`Event::RequestShed`]. No-op when telemetry is disabled.
pub fn request_shed_event(shard: u64, epoch: u64, queue_len: u64) {
    if !is_enabled() {
        return;
    }
    let total = registry().counter_add("serve.shed", 1);
    dispatch(&Event::Counter {
        name: "serve.shed".to_string(),
        delta: 1,
        total,
    });
    dispatch(&Event::RequestShed {
        shard,
        epoch,
        queue_len,
    });
}

/// Records a controller health-state change: bumps
/// `serve.health_transitions` and streams an
/// [`Event::HealthTransition`]. No-op when telemetry is disabled.
pub fn health_transition_event(shard: u64, from: &str, to: &str, epoch: u64) {
    if !is_enabled() {
        return;
    }
    let total = registry().counter_add("serve.health_transitions", 1);
    dispatch(&Event::Counter {
        name: "serve.health_transitions".to_string(),
        delta: 1,
        total,
    });
    dispatch(&Event::HealthTransition {
        shard,
        from: from.to_string(),
        to: to.to_string(),
        epoch,
    });
}

/// Records an SLO error-budget burn-rate breach: bumps
/// `serve.slo_alerts` and streams an [`Event::SloAlert`]. No-op when
/// telemetry is disabled.
pub fn slo_alert_event(shard: u64, metric: &str, alert: &SloAlertInfo) {
    if !is_enabled() {
        return;
    }
    let total = registry().counter_add("serve.slo_alerts", 1);
    dispatch(&Event::Counter {
        name: "serve.slo_alerts".to_string(),
        delta: 1,
        total,
    });
    dispatch(&Event::SloAlert {
        shard,
        metric: metric.to_string(),
        burn_rate: alert.burn_rate,
        threshold: alert.threshold,
        window: alert.window,
        epoch: alert.epoch,
    });
}

/// Records a replica-set failover (primary demoted, standby promoted):
/// bumps `serve.failovers` and streams an [`Event::Failover`]. No-op
/// when telemetry is disabled.
pub fn failover_event(shard: u64, from_replica: u64, to_replica: u64, reason: &str, clock: u64) {
    if !is_enabled() {
        return;
    }
    let total = registry().counter_add("serve.failovers", 1);
    dispatch(&Event::Counter {
        name: "serve.failovers".to_string(),
        delta: 1,
        total,
    });
    dispatch(&Event::Failover {
        shard,
        from_replica,
        to_replica,
        reason: reason.to_string(),
        clock,
    });
}

/// Records a hedged batch dispatch to a standby replica: bumps
/// `serve.hedges_fired` and streams an [`Event::HedgeFired`]. No-op
/// when telemetry is disabled.
pub fn hedge_fired_event(
    shard: u64,
    epoch: u64,
    primary: u64,
    standby: u64,
    wins: u64,
    batch: u64,
) {
    if !is_enabled() {
        return;
    }
    let total = registry().counter_add("serve.hedges_fired", 1);
    dispatch(&Event::Counter {
        name: "serve.hedges_fired".to_string(),
        delta: 1,
        total,
    });
    dispatch(&Event::HedgeFired {
        shard,
        epoch,
        primary,
        standby,
        wins,
        batch,
    });
}

/// Records a replica clearing its shadow-serving probe window after a
/// failover: bumps `serve.replica_recoveries` and streams an
/// [`Event::ReplicaRecovered`]. No-op when telemetry is disabled.
pub fn replica_recovered_event(shard: u64, replica: u64, probes: u64, clock: u64) {
    if !is_enabled() {
        return;
    }
    let total = registry().counter_add("serve.replica_recoveries", 1);
    dispatch(&Event::Counter {
        name: "serve.replica_recoveries".to_string(),
        delta: 1,
        total,
    });
    dispatch(&Event::ReplicaRecovered {
        shard,
        replica,
        probes,
        clock,
    });
}

/// Records a committed durable fleet snapshot: bumps
/// `store.snapshots_written` and streams an [`Event::SnapshotWritten`].
/// No-op when telemetry is disabled.
pub fn snapshot_written_event(shards: u64, epoch: u64, generation: u64, bytes: u64, path: &str) {
    if !is_enabled() {
        return;
    }
    let total = registry().counter_add("store.snapshots_written", 1);
    dispatch(&Event::Counter {
        name: "store.snapshots_written".to_string(),
        delta: 1,
        total,
    });
    dispatch(&Event::SnapshotWritten {
        shards,
        epoch,
        generation,
        bytes,
        path: path.to_string(),
    });
}

/// Records a fleet restart's restore attempt — warm (a verified
/// generation was installed) or cold (a typed `StoreError` degraded
/// recovery to defaults): bumps `store.recoveries` and streams an
/// [`Event::Recovery`]. No-op when telemetry is disabled.
pub fn recovery_event(shards: u64, outcome: &str, generation: u64, epoch: u64, detail: &str) {
    if !is_enabled() {
        return;
    }
    let total = registry().counter_add("store.recoveries", 1);
    dispatch(&Event::Counter {
        name: "store.recoveries".to_string(),
        delta: 1,
        total,
    });
    dispatch(&Event::Recovery {
        shards,
        outcome: outcome.to_string(),
        generation,
        epoch,
        detail: detail.to_string(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialises tests that touch the global sink/registry: unit tests
    /// in this crate run concurrently in one process.
    static GLOBAL_GUARD: Mutex<()> = Mutex::new(());

    fn with_global<R>(f: impl FnOnce() -> R) -> R {
        let _guard = GLOBAL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        registry().clear();
        let result = f();
        uninstall();
        registry().clear();
        result
    }

    #[test]
    fn disabled_calls_are_inert() {
        with_global(|| {
            assert!(!is_enabled());
            let _span = span("inert");
            counter_add("inert.counter", 1);
            gauge_set("inert.gauge", 1.0);
            histogram_record("inert.hist", 1);
            drop(_span);
            assert_eq!(registry().snapshot().counter("inert.counter"), None);
        });
    }

    #[test]
    fn memory_sink_captures_span_hierarchy() {
        with_global(|| {
            let sink = Arc::new(MemorySink::new());
            install(sink.clone());
            {
                let _outer = span("outer");
                let _inner = span("inner");
            }
            uninstall();
            let events = sink.events();
            // Inner closes first.
            let spans: Vec<&Event> = events
                .iter()
                .filter(|e| matches!(e, Event::Span { .. }))
                .collect();
            assert_eq!(spans.len(), 2);
            match spans[0] {
                Event::Span {
                    name,
                    parent,
                    depth,
                    ..
                } => {
                    assert_eq!(name, "inner");
                    assert_eq!(parent.as_deref(), Some("outer"));
                    assert_eq!(*depth, 1);
                }
                other => panic!("expected span, got {other:?}"),
            }
            match spans[1] {
                Event::Span {
                    name,
                    parent,
                    depth,
                    ..
                } => {
                    assert_eq!(name, "outer");
                    assert_eq!(*parent, None);
                    assert_eq!(*depth, 0);
                }
                other => panic!("expected span, got {other:?}"),
            }
        });
    }

    #[test]
    fn spans_aggregate_into_registry() {
        with_global(|| {
            install(Arc::new(NoopSink));
            {
                let _s = span("agg.work");
            }
            {
                let _s = span("agg.work");
            }
            let snap = registry().snapshot();
            assert_eq!(snap.counter("span.agg.work.count"), Some(2));
            assert!(snap.counter("span.agg.work.total_ns").unwrap() > 0);
        });
    }

    #[test]
    fn metrics_stream_and_aggregate() {
        with_global(|| {
            let sink = Arc::new(MemorySink::new());
            install(sink.clone());
            counter_add("m.count", 2);
            counter_add("m.count", 3);
            gauge_set("m.gauge", 7.5);
            histogram_record("m.hist", 4);
            let snap = registry().snapshot();
            assert_eq!(snap.counter("m.count"), Some(5));
            assert_eq!(snap.gauge("m.gauge"), Some(7.5));
            assert_eq!(snap.histogram("m.hist").unwrap().count, 1);
            uninstall();
            let events = sink.events();
            assert_eq!(events.len(), 4);
            assert!(matches!(
                &events[1],
                Event::Counter {
                    total: 5,
                    delta: 3,
                    ..
                }
            ));
        });
    }

    #[test]
    fn uninstall_returns_the_sink_and_disables() {
        with_global(|| {
            let sink = Arc::new(MemorySink::new());
            install(sink);
            assert!(is_enabled());
            let back = uninstall().expect("sink was installed");
            assert!(!is_enabled());
            // Downcasting is not needed: the caller keeps its own Arc.
            back.flush();
            assert!(uninstall().is_none());
        });
    }

    #[test]
    fn lifecycle_events_stream_and_count() {
        with_global(|| {
            let sink = Arc::new(MemorySink::new());
            install(sink.clone());
            checkpoint_event(100, "out/ckpt.json");
            rollback_event(200, "non-finite updates", 0.5);
            lp_fallback_event("bland_retry", false);
            fault_injected_event("Abilene", 2);
            let snap = registry().snapshot();
            assert_eq!(snap.counter("ppo.checkpoints"), Some(1));
            assert_eq!(snap.counter("ppo.rollbacks"), Some(1));
            assert_eq!(snap.counter("lp.oracle.fallbacks"), Some(1));
            assert_eq!(snap.counter("env.fault_injected"), Some(2));
            uninstall();
            let events = sink.events();
            assert!(events
                .iter()
                .any(|e| matches!(e, Event::Checkpoint { step: 100, .. })));
            assert!(events
                .iter()
                .any(|e| matches!(e, Event::Rollback { step: 200, .. })));
            assert!(events.iter().any(|e| matches!(
                e,
                Event::LpFallback {
                    degraded: false,
                    ..
                }
            )));
            assert!(events.iter().any(|e| matches!(
                e,
                Event::FaultInjected {
                    edges_removed: 2,
                    ..
                }
            )));
        });
    }

    #[test]
    fn lifecycle_events_are_inert_when_disabled() {
        with_global(|| {
            checkpoint_event(1, "x");
            rollback_event(1, "r", 0.5);
            lp_fallback_event("s", true);
            fault_injected_event("g", 1);
            rung_served_event(0, 1, "fresh", false, 0);
            breaker_transition_event(0, "closed", "open", 1);
            worker_restart_event(0, 0, 1, 2);
            request_shed_event(0, 1, 4);
            health_transition_event(0, "starting", "healthy", 1);
            slo_alert_event(
                0,
                "serve.fresh_fraction",
                &SloAlertInfo {
                    burn_rate: 5.0,
                    threshold: 4.0,
                    window: 64,
                    epoch: 1,
                },
            );
            failover_event(0, 0, 1, "pool_dead", 4);
            hedge_fired_event(0, 2, 0, 1, 1, 2);
            replica_recovered_event(0, 0, 8, 9);
            snapshot_written_event(1, 2, 3, 4, "out/store");
            recovery_event(1, "cold", 0, 0, "bad_magic");
            trace_annotation_event(TraceCtx::mint(0, 1), "fleet.admitted", 0, &[]);
            let snap = registry().snapshot();
            assert_eq!(snap.counter("ppo.checkpoints"), None);
            assert_eq!(snap.counter("env.fault_injected"), None);
            assert_eq!(snap.counter("serve.responses"), None);
            assert_eq!(snap.counter("serve.shed"), None);
            assert_eq!(snap.counter("serve.failovers"), None);
            assert_eq!(snap.counter("serve.hedges_fired"), None);
            assert_eq!(snap.counter("serve.replica_recoveries"), None);
            assert_eq!(snap.counter("store.snapshots_written"), None);
            assert_eq!(snap.counter("store.recoveries"), None);
        });
    }

    #[test]
    fn serve_events_stream_and_count() {
        with_global(|| {
            let sink = Arc::new(MemorySink::new());
            install(sink.clone());
            rung_served_event(7, 5, "ecmp", true, 11);
            breaker_transition_event(7, "open", "half_open", 6);
            worker_restart_event(7, 1, 2, 4);
            request_shed_event(7, 5, 9);
            health_transition_event(7, "healthy", "degraded", 6);
            failover_event(7, 0, 1, "consecutive_degraded", 12);
            hedge_fired_event(7, 5, 1, 0, 2, 3);
            replica_recovered_event(7, 0, 6, 30);
            let snap = registry().snapshot();
            assert_eq!(snap.counter("serve.responses"), Some(1));
            assert_eq!(snap.counter("serve.breaker_transitions"), Some(1));
            assert_eq!(snap.counter("serve.worker_restarts"), Some(1));
            assert_eq!(snap.counter("serve.shed"), Some(1));
            assert_eq!(snap.counter("serve.health_transitions"), Some(1));
            assert_eq!(snap.counter("serve.failovers"), Some(1));
            assert_eq!(snap.counter("serve.hedges_fired"), Some(1));
            assert_eq!(snap.counter("serve.replica_recoveries"), Some(1));
            uninstall();
            let events = sink.events();
            assert!(events.iter().any(|e| matches!(
                e,
                Event::RungServed {
                    shard: 7,
                    epoch: 5,
                    shed: true,
                    ..
                }
            )));
            assert!(events
                .iter()
                .any(|e| matches!(e, Event::BreakerTransition { epoch: 6, .. })));
            assert!(events.iter().any(|e| matches!(
                e,
                Event::WorkerRestart {
                    shard: 7,
                    worker: 1,
                    restarts: 2,
                    backoff_epochs: 4,
                }
            )));
            assert!(events
                .iter()
                .any(|e| matches!(e, Event::RequestShed { queue_len: 9, .. })));
            assert!(events
                .iter()
                .any(|e| matches!(e, Event::HealthTransition { epoch: 6, .. })));
            assert!(events.iter().any(|e| matches!(
                e,
                Event::Failover {
                    shard: 7,
                    from_replica: 0,
                    to_replica: 1,
                    clock: 12,
                    ..
                }
            )));
            assert!(events.iter().any(|e| matches!(
                e,
                Event::HedgeFired {
                    shard: 7,
                    primary: 1,
                    standby: 0,
                    wins: 2,
                    batch: 3,
                    ..
                }
            )));
            assert!(events.iter().any(|e| matches!(
                e,
                Event::ReplicaRecovered {
                    shard: 7,
                    replica: 0,
                    probes: 6,
                    clock: 30,
                }
            )));
        });
    }

    /// Pins the exact counter set each serve event helper touches, so
    /// doc/impl drift (the old `rung_served_event` comment claimed it
    /// also bumped `serve.shed`) fails a test instead of misleading a
    /// reader.
    #[test]
    fn serve_event_helpers_touch_exactly_their_own_counter() {
        type EmitCase = (&'static str, Box<dyn Fn()>);
        let cases: Vec<EmitCase> = vec![
            (
                "serve.responses",
                Box::new(|| rung_served_event(1, 2, "fresh", true, 3)),
            ),
            (
                "serve.breaker_transitions",
                Box::new(|| breaker_transition_event(1, "closed", "open", 2)),
            ),
            (
                "serve.worker_restarts",
                Box::new(|| worker_restart_event(1, 0, 1, 2)),
            ),
            ("serve.shed", Box::new(|| request_shed_event(1, 2, 3))),
            (
                "serve.health_transitions",
                Box::new(|| health_transition_event(1, "healthy", "degraded", 2)),
            ),
            (
                "serve.slo_alerts",
                Box::new(|| {
                    slo_alert_event(
                        1,
                        "serve.fresh_fraction",
                        &SloAlertInfo {
                            burn_rate: 8.0,
                            threshold: 4.0,
                            window: 64,
                            epoch: 2,
                        },
                    )
                }),
            ),
            (
                "serve.failovers",
                Box::new(|| failover_event(1, 0, 1, "consecutive_degraded", 2)),
            ),
            (
                "serve.hedges_fired",
                Box::new(|| hedge_fired_event(1, 2, 0, 1, 1, 2)),
            ),
            (
                "serve.replica_recoveries",
                Box::new(|| replica_recovered_event(1, 0, 8, 2)),
            ),
            (
                "store.snapshots_written",
                Box::new(|| snapshot_written_event(2, 10, 3, 512, "out/store")),
            ),
            (
                "store.recoveries",
                Box::new(|| recovery_event(2, "warm", 3, 10, "")),
            ),
        ];
        for (expected_counter, emit) in cases {
            with_global(|| {
                let sink = Arc::new(MemorySink::new());
                install(sink.clone());
                emit();
                uninstall();
                let touched: Vec<String> = sink
                    .events()
                    .iter()
                    .filter_map(|e| match e {
                        Event::Counter { name, .. } => Some(name.clone()),
                        _ => None,
                    })
                    .collect();
                assert_eq!(
                    touched,
                    vec![expected_counter.to_string()],
                    "helper for {expected_counter} touched the wrong counter set"
                );
                assert_eq!(sink.events().len(), 2, "one counter + one typed event");
            });
        }
    }

    #[test]
    fn trace_events_stream_without_counter_events() {
        with_global(|| {
            let sink = Arc::new(MemorySink::new());
            install(sink.clone());
            let ctx = TraceCtx::mint(3, 17);
            assert!(ctx.is_traced());
            trace_annotation_event(ctx, "fleet.admitted", now_us(), &[]);
            trace_span_event(
                ctx,
                "serve.infer",
                now_us(),
                1_000,
                &[("batch_size", "4".to_string())],
            );
            // Untraced contexts are silently dropped.
            trace_annotation_event(TraceCtx::default(), "fleet.admitted", 0, &[]);
            let snap = registry().snapshot();
            assert_eq!(snap.counter("serve.trace_annotations"), Some(1));
            assert_eq!(snap.counter("serve.trace_spans"), Some(1));
            uninstall();
            let events = sink.events();
            // Aggregates go straight to the registry — no Counter
            // events double the traced stream.
            assert_eq!(events.len(), 2);
            assert!(matches!(
                &events[0],
                Event::TraceAnnotation { trace_id, shard: 3, .. } if *trace_id == ctx.trace_id
            ));
            assert!(matches!(&events[1], Event::TraceSpan { dur_ns: 1_000, .. }));
        });
    }

    #[test]
    fn minted_trace_ids_are_unique_and_nonzero() {
        let a = TraceCtx::mint(0, 0);
        let b = TraceCtx::mint(0, 0);
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
        assert!(!TraceCtx::default().is_traced());
    }

    /// Micro-bench for the generation-cached dispatch path; run with
    /// `cargo test -p gddr-telemetry --release -- --ignored
    /// --nocapture dispatch_throughput`.
    #[test]
    #[ignore = "micro-bench, run manually"]
    fn dispatch_throughput() {
        with_global(|| {
            install(Arc::new(NoopSink));
            let event = Event::Counter {
                name: "bench.dispatch".to_string(),
                delta: 1,
                total: 1,
            };
            const N: u32 = 5_000_000;
            // Warm the cache.
            for _ in 0..1_000 {
                dispatch(&event);
            }
            let start = std::time::Instant::now();
            for _ in 0..N {
                dispatch(&event);
            }
            let elapsed = start.elapsed();
            println!(
                "dispatch: {N} events in {elapsed:?} ({:.1} ns/event)",
                elapsed.as_nanos() as f64 / f64::from(N)
            );
        });
    }

    #[test]
    #[ignore = "micro-bench, run manually"]
    fn dispatch_throughput_mt() {
        with_global(|| {
            install(Arc::new(NoopSink));
            const N: u32 = 2_000_000;
            const T: usize = 8;
            let start = std::time::Instant::now();
            std::thread::scope(|s| {
                for _ in 0..T {
                    s.spawn(|| {
                        let event = Event::Counter {
                            name: "bench.dispatch".to_string(),
                            delta: 1,
                            total: 1,
                        };
                        for _ in 0..N {
                            dispatch(&event);
                        }
                    });
                }
            });
            let elapsed = start.elapsed();
            println!(
                "dispatch mt: {} events across {T} threads in {elapsed:?} ({:.1} ns/event)",
                N as u64 * T as u64,
                elapsed.as_nanos() as f64 / (f64::from(N) * T as f64)
            );
        });
    }

    #[test]
    fn doc_example_flow() {
        with_global(|| {
            let sink = Arc::new(MemorySink::new());
            install(sink.clone());
            {
                let _span = span("example.work");
                counter_add("example.items", 3);
            }
            uninstall();
            assert!(sink.events().iter().any(|e| e.name() == "example.work"));
            let snapshot = registry().snapshot();
            assert_eq!(snapshot.counter("example.items"), Some(3));
        });
    }
}
