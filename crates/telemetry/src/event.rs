//! The telemetry event model: every observation the subsystem can emit,
//! serialisable to one JSON object per event via `gddr-ser`.
//!
//! Events are the unit of the streaming interface ([`crate::sink`]);
//! aggregated state lives in the registry ([`crate::metrics`]). The
//! JSON encoding is a tagged object (`"type"` discriminant) so a JSONL
//! stream mixes event kinds freely and parses back losslessly.

use gddr_ser::{json_enum, named, FromJson, Json, JsonError};

/// What one event kind reports beyond its wire fields: the name it
/// answers to, the registry counter it bumps, and the shard that owns
/// it. [`Event`] declares one per kind, next to the kind's fields.
struct Facts<'a> {
    name: Option<&'a str>,
    counter: Option<(&'static str, u64)>,
    shard: Option<u64>,
}

impl<'a> Facts<'a> {
    /// An observation that carries its own name and bumps no counter.
    fn named(name: &'a str) -> Self {
        Facts {
            name: Some(name),
            counter: None,
            shard: None,
        }
    }

    /// A lifecycle event: named after its kind, bumps `counter`.
    fn counts(counter: &'static str, delta: u64) -> Self {
        Facts {
            name: None,
            counter: Some((counter, delta)),
            shard: None,
        }
    }

    /// The same facts, owned by `shard`.
    fn on(self, shard: u64) -> Self {
        Facts {
            shard: Some(shard),
            ..self
        }
    }
}

json_enum! {
    /// One telemetry observation.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Event tagged "type" {
        /// A completed span: a named scope with wall-clock timing and its
        /// position in the per-thread span hierarchy.
        Span = "span" {
            /// Span name (dot-separated, e.g. `env.step`).
            name: String,
            /// Name of the enclosing span on the same thread, if any.
            parent: Option<String>,
            /// Nesting depth (0 for a root span).
            depth: u64,
            /// Start time in microseconds since the process telemetry epoch.
            start_us: u64,
            /// Wall-clock duration in nanoseconds.
            dur_ns: u64,
        } => Facts::named(name),
        /// A counter increment.
        Counter = "counter" {
            /// Counter name.
            name: String,
            /// Amount added by this event.
            delta: u64,
            /// Counter total after the increment.
            total: u64,
        } => Facts::named(name),
        /// A gauge update (last-value-wins).
        Gauge = "gauge" {
            /// Gauge name.
            name: String,
            /// The new value.
            value: f64,
        } => Facts::named(name),
        /// A single histogram observation.
        Histogram = "histogram" {
            /// Histogram name.
            name: String,
            /// The observed value.
            value: f64,
        } => Facts::named(name),
        /// A free-form progress message (the figure binaries' reporter).
        Message = "message" {
            /// Reporter name (e.g. the binary's name).
            name: String,
            /// Message text.
            text: String,
        } => Facts::named(name),
        /// A training checkpoint was written to disk.
        Checkpoint = "checkpoint" {
            /// Environment step count at the snapshot.
            step: u64,
            /// Path of the checkpoint file.
            path: String,
        } => Facts::counts("ppo.checkpoints", 1),
        /// Training rolled back to the last good checkpoint (NaN
        /// quarantine tripped).
        Rollback = "rollback" {
            /// Environment step count when the rollback fired.
            step: u64,
            /// Human-readable trigger (e.g. `non-finite updates`).
            reason: String,
            /// Learning-rate scale applied after the rollback.
            lr_scale: f64,
        } => Facts::counts("ppo.rollbacks", 1),
        /// The LP oracle degraded to a fallback strategy after a solver
        /// failure.
        LpFallback = "lp_fallback" {
            /// Strategy used (`bland_retry` or `shortest_path_bound`).
            strategy: String,
            /// Whether the returned value is a degraded bound rather than
            /// the exact optimum.
            degraded: bool,
        } => Facts::counts("lp.oracle.fallbacks", 1),
        /// Link failures were injected into the training environment.
        FaultInjected = "fault_injected" {
            /// Name of the (faulted) graph.
            graph: String,
            /// Directed edges removed this episode.
            edges_removed: u64,
        } => Facts::counts("env.fault_injected", *edges_removed),
        /// The serving controller answered an epoch request, tagged with
        /// the graceful-degradation rung that produced the routing.
        RungServed = "rung_served" {
            /// Owning shard id (0 for a single-controller deployment).
            shard: u64,
            /// Logical serving epoch (one per processed request).
            epoch: u64,
            /// Rung name (`fresh`, `last_good`, `ecmp`, `shortest_path`).
            rung: String,
            /// Whether the request was shed from the admission queue and
            /// answered without inference.
            shed: bool,
            /// Request trace id when the request was admitted with a
            /// [`crate::TraceCtx`]; 0 for untraced requests.
            trace: u64,
        } => Facts::counts("serve.responses", 1).on(*shard),
        /// The oracle-scoring circuit breaker changed state.
        BreakerTransition = "breaker_transition" {
            /// Owning shard id (0 for a single-controller deployment).
            shard: u64,
            /// State before the transition (`closed`, `open`, `half_open`).
            from: String,
            /// State after the transition.
            to: String,
            /// Logical serving epoch of the transition.
            epoch: u64,
        } => Facts::counts("serve.breaker_transitions", 1).on(*shard),
        /// A supervised serving worker was restarted after a panic or hang.
        WorkerRestart = "worker_restart" {
            /// Owning shard id (0 for a single-controller deployment).
            shard: u64,
            /// Worker slot index.
            worker: u64,
            /// Restarts consumed from this slot's budget so far.
            restarts: u64,
            /// Epochs the slot stays unavailable (exponential backoff).
            backoff_epochs: u64,
        } => Facts::counts("serve.worker_restarts", 1).on(*shard),
        /// An epoch request was shed from the bounded admission queue (it
        /// is still answered, via the degradation ladder).
        RequestShed = "request_shed" {
            /// Owning shard id (0 for a single-controller deployment).
            shard: u64,
            /// Logical serving epoch of the shed request.
            epoch: u64,
            /// Queue length at the moment of shedding.
            queue_len: u64,
        } => Facts::counts("serve.shed", 1).on(*shard),
        /// The serving controller's health state changed.
        HealthTransition = "health_transition" {
            /// Owning shard id (0 for a single-controller deployment).
            shard: u64,
            /// State before the transition (`starting`, `healthy`,
            /// `degraded`, `unhealthy`).
            from: String,
            /// State after the transition.
            to: String,
            /// Logical serving epoch of the transition.
            epoch: u64,
        } => Facts::counts("serve.health_transitions", 1).on(*shard),
        /// A request-scoped timed phase (e.g. one batched inference),
        /// correlated across the fleet by trace id.
        TraceSpan = "trace_span" {
            /// Fleet-unique request trace id (never 0 in emitted events).
            trace_id: u64,
            /// Shard the phase ran on.
            shard: u64,
            /// Phase name (dot-separated, e.g. `serve.infer`).
            name: String,
            /// Start time in microseconds since the process telemetry epoch.
            start_us: u64,
            /// Wall-clock duration in nanoseconds.
            dur_ns: u64,
            /// Free-form key/value attributes (e.g. `batch_size`), order
            /// preserved for byte-stable round-trips.
            attrs: Vec<(String, String)> as named,
        } => Facts::named(name).on(*shard),
        /// A request-scoped point-in-time marker (admission, response),
        /// correlated across the fleet by trace id.
        TraceAnnotation = "trace_annotation" {
            /// Fleet-unique request trace id (never 0 in emitted events).
            trace_id: u64,
            /// Shard the marker was recorded on.
            shard: u64,
            /// Marker name (e.g. `fleet.admitted`, `fleet.response`).
            name: String,
            /// Timestamp in microseconds since the process telemetry epoch.
            at_us: u64,
            /// Free-form key/value attributes (e.g. `queue_wait_ns`,
            /// `rung`), order preserved for byte-stable round-trips.
            attrs: Vec<(String, String)> as named,
        } => Facts::named(name).on(*shard),
        /// The streaming SLO engine detected an error-budget burn-rate
        /// breach on a shard.
        SloAlert = "slo_alert" {
            /// Shard whose error budget is burning.
            shard: u64,
            /// SLO metric that breached (e.g. `serve.fresh_fraction`).
            metric: String,
            /// Observed burn rate (bad fraction / allowed bad fraction).
            burn_rate: f64,
            /// Burn-rate threshold that was crossed.
            threshold: f64,
            /// Sliding-window length (responses) the rate was measured over.
            window: u64,
            /// Logical serving epoch when the breach was detected.
            epoch: u64,
        } => Facts::counts("serve.slo_alerts", 1).on(*shard),
        /// A replica set demoted its primary and promoted a standby.
        Failover = "failover" {
            /// Shard whose replica set failed over.
            shard: u64,
            /// Replica index demoted from primary.
            from_replica: u64,
            /// Replica index promoted to primary.
            to_replica: u64,
            /// What tripped the failover policy (`consecutive_degraded`,
            /// `pool_dead`).
            reason: String,
            /// Count-based failover-clock value (one tick per answered
            /// request) at the decision.
            clock: u64,
        } => Facts::counts("serve.failovers", 1).on(*shard),
        /// A coalesced batch was re-issued to a standby replica after the
        /// primary hit the deterministic straggler threshold.
        HedgeFired = "hedge_fired" {
            /// Shard whose replica set hedged.
            shard: u64,
            /// Client epoch (tick) of the hedged batch.
            epoch: u64,
            /// Replica index that served as primary.
            primary: u64,
            /// Standby replica the batch was re-issued to.
            standby: u64,
            /// Requests in the batch where the standby's answer won.
            wins: u64,
            /// Requests in the hedged batch.
            batch: u64,
        } => Facts::counts("serve.hedges_fired", 1).on(*shard),
        /// A recovering replica completed its shadow-serving probe window
        /// and is eligible for promotion again.
        ReplicaRecovered = "replica_recovered" {
            /// Shard whose replica set recovered a member.
            shard: u64,
            /// The recovered replica's index.
            replica: u64,
            /// Shadow-served probe responses it took to clear the window.
            probes: u64,
            /// Count-based failover-clock value at recovery.
            clock: u64,
        } => Facts::counts("serve.replica_recoveries", 1).on(*shard),
        /// A durable fleet snapshot generation was committed to the store.
        SnapshotWritten = "snapshot_written" {
            /// Shard count captured in the snapshot.
            shards: u64,
            /// Logical tick the snapshot was taken at.
            epoch: u64,
            /// Store generation the commit produced.
            generation: u64,
            /// Framed record size in bytes.
            bytes: u64,
            /// Store directory the generation landed in.
            path: String,
        } => Facts::counts("store.snapshots_written", 1),
        /// A fleet restart attempted to restore durable state: either a
        /// warm restore of a verified generation, or a clean cold start
        /// after a typed `StoreError`.
        Recovery = "recovery" {
            /// Shards restored (warm) or reset (cold).
            shards: u64,
            /// `warm` or `cold`.
            outcome: String,
            /// Generation restored on a warm path; 0 on a cold start.
            generation: u64,
            /// Snapshot tick resumed from on a warm path; 0 on cold.
            epoch: u64,
            /// Stable corruption-class tag on a cold start (e.g.
            /// `checksum_mismatch`); empty on a warm restore.
            detail: String,
        } => Facts::counts("store.recoveries", 1),
    }
    /// What this event reports beyond its wire fields.
    fn facts(&self) -> Facts<'_>;
}

impl Event {
    /// The event's name field; fault-tolerance lifecycle events have no
    /// name of their own and report their kind tag.
    #[inline]
    pub fn name(&self) -> &str {
        self.facts().name.unwrap_or(self.kind())
    }

    /// The registry counter a lifecycle event bumps when emitted via
    /// [`crate::emit`], with its delta: 1 per event, except
    /// `fault_injected`, which adds the edges it removed. `None` for
    /// observation kinds that aggregate on their own paths.
    #[inline]
    pub fn counter(&self) -> Option<(&'static str, u64)> {
        self.facts().counter
    }

    /// The shard that owns this event, for every kind that carries a
    /// `shard` field.
    #[inline]
    pub fn shard(&self) -> Option<u64> {
        self.facts().shard
    }
}

/// Parses a JSONL event stream (one event per non-empty line).
///
/// # Errors
///
/// Fails on the first malformed line or unknown event shape.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, JsonError> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| Event::from_json(&Json::parse(line)?))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gddr_ser::ToJson;

    fn samples() -> Vec<Event> {
        vec![
            Event::Span {
                name: "env.step".into(),
                parent: Some("ppo.rollout".into()),
                depth: 1,
                start_us: 12,
                dur_ns: 34_567,
            },
            Event::Span {
                name: "root".into(),
                parent: None,
                depth: 0,
                start_us: 0,
                dur_ns: 1,
            },
            Event::Counter {
                name: "lp.oracle.hits".into(),
                delta: 1,
                total: 42,
            },
            Event::Gauge {
                name: "ppo.entropy".into(),
                value: -1.25,
            },
            Event::Histogram {
                name: "env.reward_ratio_ppm".into(),
                value: 1_500_000.0,
            },
            Event::Message {
                name: "fig7".into(),
                text: "completed in 1.0s".into(),
            },
            Event::Checkpoint {
                step: 2048,
                path: "out/ckpt.json".into(),
            },
            Event::Rollback {
                step: 4096,
                reason: "non-finite updates".into(),
                lr_scale: 0.5,
            },
            Event::LpFallback {
                strategy: "shortest_path_bound".into(),
                degraded: true,
            },
            Event::FaultInjected {
                graph: "Abilene".into(),
                edges_removed: 2,
            },
            Event::RungServed {
                shard: 3,
                epoch: 17,
                rung: "last_good".into(),
                shed: false,
                trace: 9,
            },
            Event::BreakerTransition {
                shard: 0,
                from: "closed".into(),
                to: "open".into(),
                epoch: 18,
            },
            Event::WorkerRestart {
                shard: 2,
                worker: 1,
                restarts: 3,
                backoff_epochs: 4,
            },
            Event::RequestShed {
                shard: 1,
                epoch: 19,
                queue_len: 8,
            },
            Event::HealthTransition {
                shard: 4,
                from: "healthy".into(),
                to: "degraded".into(),
                epoch: 20,
            },
            Event::TraceSpan {
                trace_id: 9,
                shard: 3,
                name: "serve.infer".into(),
                start_us: 120,
                dur_ns: 45_000,
                attrs: vec![
                    ("batch_size".into(), "4".into()),
                    ("slot".into(), "1".into()),
                ],
            },
            Event::TraceAnnotation {
                trace_id: 9,
                shard: 3,
                name: "fleet.admitted".into(),
                at_us: 100,
                attrs: vec![("epoch".into(), "17".into())],
            },
            Event::TraceAnnotation {
                trace_id: 10,
                shard: 0,
                name: "fleet.response".into(),
                at_us: 250,
                // Hostile attr values must escape and round-trip.
                attrs: vec![("note".into(), "q\"uo\\te\n\u{1F980}".into())],
            },
            Event::SloAlert {
                shard: 5,
                metric: "serve.fresh_fraction".into(),
                burn_rate: 6.25,
                threshold: 4.0,
                window: 64,
                epoch: 21,
            },
            Event::Failover {
                shard: 6,
                from_replica: 0,
                to_replica: 1,
                reason: "consecutive_degraded".into(),
                clock: 22,
            },
            Event::HedgeFired {
                shard: 6,
                epoch: 11,
                primary: 1,
                standby: 0,
                wins: 3,
                batch: 4,
            },
            Event::ReplicaRecovered {
                shard: 6,
                replica: 0,
                probes: 8,
                clock: 40,
            },
            Event::SnapshotWritten {
                shards: 3,
                epoch: 96,
                generation: 4,
                bytes: 2_048,
                path: "out/fleet-store".into(),
            },
            Event::Recovery {
                shards: 3,
                outcome: "warm".into(),
                generation: 4,
                epoch: 96,
                detail: String::new(),
            },
            Event::Recovery {
                shards: 3,
                outcome: "cold".into(),
                generation: 0,
                epoch: 0,
                detail: "checksum_mismatch".into(),
            },
        ]
    }

    #[test]
    fn events_round_trip_losslessly() {
        for event in samples() {
            let text = event.to_json().to_string();
            let back = Event::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, event);
            // Byte-stable: re-serialising the parsed event reproduces
            // the original line exactly.
            assert_eq!(back.to_json().to_string(), text);
        }
    }

    #[test]
    fn jsonl_stream_round_trips() {
        let events = samples();
        let text: String = events
            .iter()
            .map(|e| e.to_json().to_string() + "\n")
            .collect();
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn unknown_type_is_rejected() {
        let json = Json::parse(r#"{"type":"nope","name":"x"}"#).unwrap();
        assert!(Event::from_json(&json).is_err());
    }

    #[test]
    fn name_and_kind_accessors() {
        for event in samples() {
            assert!(!event.name().is_empty());
            assert!(!event.kind().is_empty());
        }
    }

    #[test]
    fn shard_matches_the_serialised_shard_field() {
        for event in samples() {
            let json = event.to_json();
            let field = json.field("shard").ok().map(|v| u64::from_json(v).unwrap());
            assert_eq!(event.shard(), field, "{}", event.kind());
        }
    }

    #[test]
    fn observation_kinds_bump_no_counter() {
        for event in samples() {
            let observation = matches!(
                event.kind(),
                "span"
                    | "counter"
                    | "gauge"
                    | "histogram"
                    | "message"
                    | "trace_span"
                    | "trace_annotation"
            );
            assert_eq!(event.counter().is_none(), observation, "{}", event.kind());
        }
    }
}
