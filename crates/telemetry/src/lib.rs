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
//!   [`span`], [`counter_add`], [`gauge_set`], [`histogram_record`],
//!   [`emit`] — short-circuits on a single relaxed atomic load. No
//!   clock reads, no allocation, no locks; [`emit`] never even runs
//!   the closure that builds its event. Hot paths (`DdrEnv::step`, the
//!   simplex pivot loop) therefore pay effectively nothing when
//!   telemetry is off; per-solve statistics that must always be
//!   available (oracle cache hits, pivot counts) live in their owning
//!   structs instead.
//! - **Enabled** ([`install`]): updates aggregate into the global
//!   [`Registry`] (read-locked name lookup, then a lock-free atomic or
//!   one histogram cell's mutex) and
//!   stream to the installed [`Sink`]. Instrumentation sits at
//!   call/phase granularity (one span per env step, per LP solve, per
//!   PPO phase), never inside inner numeric loops.
//!
//! Lifecycle facts (checkpoint, rollback, rung served, failover,
//! snapshot, …) all go through [`emit`]: the event's kind names the
//! counter it bumps ([`Event::counter`]), so adding a kind means adding
//! an [`Event`] variant and one match arm, not a new entry point.
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
pub use ring::FlightRecorder;
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

/// Streams one lifecycle event: bumps the counter its kind names in
/// [`Event::counter`], streams that increment as an [`Event::Counter`],
/// then streams the event itself. `make` runs only when telemetry is
/// enabled, so a disabled call builds and allocates nothing.
pub fn emit(make: impl FnOnce() -> Event) {
    if !is_enabled() {
        return;
    }
    let event = make();
    if let Some((name, delta)) = event.counter() {
        counter_add(name, delta);
    }
    dispatch(&event);
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

    /// One event per lifecycle kind, with the counter it must bump.
    fn lifecycle_cases() -> Vec<(&'static str, u64, Event)> {
        let s = |text: &str| text.to_string();
        vec![
            (
                "ppo.checkpoints",
                1,
                Event::Checkpoint {
                    step: 100,
                    path: s("out/ckpt.json"),
                },
            ),
            (
                "ppo.rollbacks",
                1,
                Event::Rollback {
                    step: 200,
                    reason: s("non-finite updates"),
                    lr_scale: 0.5,
                },
            ),
            (
                "lp.oracle.fallbacks",
                1,
                Event::LpFallback {
                    strategy: s("bland_retry"),
                    degraded: false,
                },
            ),
            (
                "env.fault_injected",
                2,
                Event::FaultInjected {
                    graph: s("Abilene"),
                    edges_removed: 2,
                },
            ),
            (
                "serve.responses",
                1,
                Event::RungServed {
                    shard: 7,
                    epoch: 5,
                    rung: s("ecmp"),
                    shed: true,
                    trace: 11,
                },
            ),
            (
                "serve.breaker_transitions",
                1,
                Event::BreakerTransition {
                    shard: 7,
                    from: s("open"),
                    to: s("half_open"),
                    epoch: 6,
                },
            ),
            (
                "serve.worker_restarts",
                1,
                Event::WorkerRestart {
                    shard: 7,
                    worker: 1,
                    restarts: 2,
                    backoff_epochs: 4,
                },
            ),
            (
                "serve.shed",
                1,
                Event::RequestShed {
                    shard: 7,
                    epoch: 5,
                    queue_len: 9,
                },
            ),
            (
                "serve.health_transitions",
                1,
                Event::HealthTransition {
                    shard: 7,
                    from: s("healthy"),
                    to: s("degraded"),
                    epoch: 6,
                },
            ),
            (
                "serve.slo_alerts",
                1,
                Event::SloAlert {
                    shard: 7,
                    metric: s("serve.good_fraction"),
                    burn_rate: 8.0,
                    threshold: 4.0,
                    window: 64,
                    epoch: 2,
                },
            ),
            (
                "serve.failovers",
                1,
                Event::Failover {
                    shard: 7,
                    from_replica: 0,
                    to_replica: 1,
                    reason: s("pool_dead"),
                    clock: 12,
                },
            ),
            (
                "serve.hedges_fired",
                1,
                Event::HedgeFired {
                    shard: 7,
                    epoch: 5,
                    primary: 1,
                    standby: 0,
                    wins: 2,
                    batch: 3,
                },
            ),
            (
                "serve.replica_recoveries",
                1,
                Event::ReplicaRecovered {
                    shard: 7,
                    replica: 0,
                    probes: 6,
                    clock: 30,
                },
            ),
            (
                "store.snapshots_written",
                1,
                Event::SnapshotWritten {
                    shards: 2,
                    epoch: 10,
                    generation: 3,
                    bytes: 512,
                    path: s("out/store"),
                },
            ),
            (
                "store.recoveries",
                1,
                Event::Recovery {
                    shards: 2,
                    outcome: s("cold"),
                    generation: 0,
                    epoch: 0,
                    detail: s("bad_magic"),
                },
            ),
        ]
    }

    /// `emit` streams exactly `[Counter, event]` for every lifecycle
    /// kind and bumps only that kind's counter; disabled, it records
    /// nothing and never builds the event.
    #[test]
    fn emit_counts_then_streams_each_lifecycle_kind() {
        for (name, delta, event) in lifecycle_cases() {
            with_global(|| {
                let sink = Arc::new(MemorySink::new());
                install(sink.clone());
                emit(|| event.clone());
                let snap = registry().snapshot();
                assert_eq!(snap.counter(name), Some(delta), "{name}");
                uninstall();
                let counter = Event::Counter {
                    name: name.to_string(),
                    delta,
                    total: delta,
                };
                assert_eq!(sink.events(), vec![counter, event.clone()], "{name}");
            });
            with_global(|| {
                emit(|| panic!("{name}: event built while telemetry was disabled"));
                assert_eq!(registry().snapshot().counter(name), None, "{name}");
            });
        }
    }

    #[test]
    fn lifecycle_events_stream_and_count() {
        with_global(|| {
            let sink = Arc::new(MemorySink::new());
            install(sink.clone());
            emit(|| Event::Checkpoint {
                step: 100,
                path: "out/ckpt.json".to_string(),
            });
            emit(|| Event::Rollback {
                step: 200,
                reason: "non-finite updates".to_string(),
                lr_scale: 0.5,
            });
            emit(|| Event::LpFallback {
                strategy: "bland_retry".to_string(),
                degraded: false,
            });
            emit(|| Event::FaultInjected {
                graph: "Abilene".to_string(),
                edges_removed: 2,
            });
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
            for (name, _, event) in lifecycle_cases() {
                emit(|| event);
                assert_eq!(registry().snapshot().counter(name), None, "{name}");
            }
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
            assert_eq!(snap.counter("serve.trace_annotations"), None);
        });
    }

    #[test]
    fn serve_events_stream_and_count() {
        with_global(|| {
            let sink = Arc::new(MemorySink::new());
            install(sink.clone());
            emit(|| Event::RungServed {
                shard: 7,
                epoch: 5,
                rung: "ecmp".to_string(),
                shed: true,
                trace: 11,
            });
            emit(|| Event::BreakerTransition {
                shard: 7,
                from: "open".to_string(),
                to: "half_open".to_string(),
                epoch: 6,
            });
            emit(|| Event::WorkerRestart {
                shard: 7,
                worker: 1,
                restarts: 2,
                backoff_epochs: 4,
            });
            emit(|| Event::RequestShed {
                shard: 7,
                epoch: 5,
                queue_len: 9,
            });
            emit(|| Event::HealthTransition {
                shard: 7,
                from: "healthy".to_string(),
                to: "degraded".to_string(),
                epoch: 6,
            });
            emit(|| Event::Failover {
                shard: 7,
                from_replica: 0,
                to_replica: 1,
                reason: "consecutive_degraded".to_string(),
                clock: 12,
            });
            emit(|| Event::HedgeFired {
                shard: 7,
                epoch: 5,
                primary: 1,
                standby: 0,
                wins: 2,
                batch: 3,
            });
            emit(|| Event::ReplicaRecovered {
                shard: 7,
                replica: 0,
                probes: 6,
                clock: 30,
            });
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

    /// Pins the exact counter set each serve and store event kind
    /// touches through `emit`, so drift between `Event::counter` and
    /// the documented counter names fails a test instead of misleading
    /// a reader.
    #[test]
    fn serve_event_helpers_touch_exactly_their_own_counter() {
        let cases = lifecycle_cases()
            .into_iter()
            .filter(|(name, _, _)| name.starts_with("serve.") || name.starts_with("store."));
        for (expected_counter, _, event) in cases {
            with_global(|| {
                let sink = Arc::new(MemorySink::new());
                install(sink.clone());
                emit(|| event);
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
                    "emit for {expected_counter} touched the wrong counter set"
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
