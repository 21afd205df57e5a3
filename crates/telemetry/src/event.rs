//! The telemetry event model: every observation the subsystem can emit,
//! serialisable to one JSON object per event via `gddr-ser`.
//!
//! Events are the unit of the streaming interface ([`crate::sink`]);
//! aggregated state lives in the registry ([`crate::metrics`]). The
//! JSON encoding is a tagged object (`"type"` discriminant) so a JSONL
//! stream mixes event kinds freely and parses back losslessly.

use gddr_ser::{FromJson, Json, JsonError, ToJson};

/// One telemetry observation.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A completed span: a named scope with wall-clock timing and its
    /// position in the per-thread span hierarchy.
    Span {
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
    },
    /// A counter increment.
    Counter {
        /// Counter name.
        name: String,
        /// Amount added by this event.
        delta: u64,
        /// Counter total after the increment.
        total: u64,
    },
    /// A gauge update (last-value-wins).
    Gauge {
        /// Gauge name.
        name: String,
        /// The new value.
        value: f64,
    },
    /// A single histogram observation.
    Histogram {
        /// Histogram name.
        name: String,
        /// The observed value.
        value: f64,
    },
    /// A free-form progress message (the figure binaries' reporter).
    Message {
        /// Reporter name (e.g. the binary's name).
        name: String,
        /// Message text.
        text: String,
    },
    /// A training checkpoint was written to disk.
    Checkpoint {
        /// Environment step count at the snapshot.
        step: u64,
        /// Path of the checkpoint file.
        path: String,
    },
    /// Training rolled back to the last good checkpoint (NaN
    /// quarantine tripped).
    Rollback {
        /// Environment step count when the rollback fired.
        step: u64,
        /// Human-readable trigger (e.g. `non-finite updates`).
        reason: String,
        /// Learning-rate scale applied after the rollback.
        lr_scale: f64,
    },
    /// The LP oracle degraded to a fallback strategy after a solver
    /// failure.
    LpFallback {
        /// Strategy used (`bland_retry` or `shortest_path_bound`).
        strategy: String,
        /// Whether the returned value is a degraded bound rather than
        /// the exact optimum.
        degraded: bool,
    },
    /// Link failures were injected into the training environment.
    FaultInjected {
        /// Name of the (faulted) graph.
        graph: String,
        /// Directed edges removed this episode.
        edges_removed: u64,
    },
    /// The serving controller answered an epoch request, tagged with
    /// the graceful-degradation rung that produced the routing.
    RungServed {
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
    },
    /// The oracle-scoring circuit breaker changed state.
    BreakerTransition {
        /// Owning shard id (0 for a single-controller deployment).
        shard: u64,
        /// State before the transition (`closed`, `open`, `half_open`).
        from: String,
        /// State after the transition.
        to: String,
        /// Logical serving epoch of the transition.
        epoch: u64,
    },
    /// A supervised serving worker was restarted after a panic or hang.
    WorkerRestart {
        /// Owning shard id (0 for a single-controller deployment).
        shard: u64,
        /// Worker slot index.
        worker: u64,
        /// Restarts consumed from this slot's budget so far.
        restarts: u64,
        /// Epochs the slot stays unavailable (exponential backoff).
        backoff_epochs: u64,
    },
    /// An epoch request was shed from the bounded admission queue (it
    /// is still answered, via the degradation ladder).
    RequestShed {
        /// Owning shard id (0 for a single-controller deployment).
        shard: u64,
        /// Logical serving epoch of the shed request.
        epoch: u64,
        /// Queue length at the moment of shedding.
        queue_len: u64,
    },
    /// The serving controller's health state changed.
    HealthTransition {
        /// Owning shard id (0 for a single-controller deployment).
        shard: u64,
        /// State before the transition (`starting`, `healthy`,
        /// `degraded`, `unhealthy`).
        from: String,
        /// State after the transition.
        to: String,
        /// Logical serving epoch of the transition.
        epoch: u64,
    },
    /// A request-scoped timed phase (e.g. one batched inference),
    /// correlated across the fleet by trace id.
    TraceSpan {
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
        attrs: Vec<(String, String)>,
    },
    /// A request-scoped point-in-time marker (admission, response),
    /// correlated across the fleet by trace id.
    TraceAnnotation {
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
        attrs: Vec<(String, String)>,
    },
    /// The streaming SLO engine detected an error-budget burn-rate
    /// breach on a shard.
    SloAlert {
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
    },
    /// A replica set demoted its primary and promoted a standby.
    Failover {
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
    },
    /// A coalesced batch was re-issued to a standby replica after the
    /// primary hit the deterministic straggler threshold.
    HedgeFired {
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
    },
    /// A recovering replica completed its shadow-serving probe window
    /// and is eligible for promotion again.
    ReplicaRecovered {
        /// Shard whose replica set recovered a member.
        shard: u64,
        /// The recovered replica's index.
        replica: u64,
        /// Shadow-served probe responses it took to clear the window.
        probes: u64,
        /// Count-based failover-clock value at recovery.
        clock: u64,
    },
    /// A durable fleet snapshot generation was committed to the store.
    SnapshotWritten {
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
    },
    /// A fleet restart attempted to restore durable state: either a
    /// warm restore of a verified generation, or a clean cold start
    /// after a typed `StoreError`.
    Recovery {
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
    },
}

/// Encodes trace attributes as a JSON object (order preserved).
fn attrs_to_json(attrs: &[(String, String)]) -> Json {
    Json::Obj(
        attrs
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json()))
            .collect(),
    )
}

/// Decodes trace attributes from a JSON object.
fn attrs_from_json(json: &Json) -> Result<Vec<(String, String)>, JsonError> {
    match json {
        Json::Obj(fields) => fields
            .iter()
            .map(|(k, v)| Ok((k.clone(), String::from_json(v)?)))
            .collect(),
        _ => Err(JsonError("trace attrs must be a JSON object".to_string())),
    }
}

impl Event {
    /// The event's name field; fault-tolerance lifecycle events have no
    /// name of their own and report their kind tag.
    pub fn name(&self) -> &str {
        match self {
            Event::Span { name, .. }
            | Event::Counter { name, .. }
            | Event::Gauge { name, .. }
            | Event::Histogram { name, .. }
            | Event::Message { name, .. }
            | Event::TraceSpan { name, .. }
            | Event::TraceAnnotation { name, .. } => name,
            Event::Checkpoint { .. }
            | Event::Rollback { .. }
            | Event::LpFallback { .. }
            | Event::FaultInjected { .. }
            | Event::RungServed { .. }
            | Event::BreakerTransition { .. }
            | Event::WorkerRestart { .. }
            | Event::RequestShed { .. }
            | Event::HealthTransition { .. }
            | Event::SloAlert { .. }
            | Event::Failover { .. }
            | Event::HedgeFired { .. }
            | Event::ReplicaRecovered { .. }
            | Event::SnapshotWritten { .. }
            | Event::Recovery { .. } => self.kind(),
        }
    }

    /// The JSON `"type"` tag for this event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Span { .. } => "span",
            Event::Counter { .. } => "counter",
            Event::Gauge { .. } => "gauge",
            Event::Histogram { .. } => "histogram",
            Event::Message { .. } => "message",
            Event::Checkpoint { .. } => "checkpoint",
            Event::Rollback { .. } => "rollback",
            Event::LpFallback { .. } => "lp_fallback",
            Event::FaultInjected { .. } => "fault_injected",
            Event::RungServed { .. } => "rung_served",
            Event::BreakerTransition { .. } => "breaker_transition",
            Event::WorkerRestart { .. } => "worker_restart",
            Event::RequestShed { .. } => "request_shed",
            Event::HealthTransition { .. } => "health_transition",
            Event::TraceSpan { .. } => "trace_span",
            Event::TraceAnnotation { .. } => "trace_annotation",
            Event::SloAlert { .. } => "slo_alert",
            Event::Failover { .. } => "failover",
            Event::HedgeFired { .. } => "hedge_fired",
            Event::ReplicaRecovered { .. } => "replica_recovered",
            Event::SnapshotWritten { .. } => "snapshot_written",
            Event::Recovery { .. } => "recovery",
        }
    }

    /// The registry counter a lifecycle event bumps when emitted via
    /// [`crate::emit`], with its delta: 1 per event, except
    /// `fault_injected`, which adds the edges it removed. `None` for
    /// observation kinds that aggregate on their own paths.
    pub fn counter(&self) -> Option<(&'static str, u64)> {
        Some(match self {
            Event::Checkpoint { .. } => ("ppo.checkpoints", 1),
            Event::Rollback { .. } => ("ppo.rollbacks", 1),
            Event::LpFallback { .. } => ("lp.oracle.fallbacks", 1),
            Event::FaultInjected { edges_removed, .. } => ("env.fault_injected", *edges_removed),
            Event::RungServed { .. } => ("serve.responses", 1),
            Event::BreakerTransition { .. } => ("serve.breaker_transitions", 1),
            Event::WorkerRestart { .. } => ("serve.worker_restarts", 1),
            Event::RequestShed { .. } => ("serve.shed", 1),
            Event::HealthTransition { .. } => ("serve.health_transitions", 1),
            Event::SloAlert { .. } => ("serve.slo_alerts", 1),
            Event::Failover { .. } => ("serve.failovers", 1),
            Event::HedgeFired { .. } => ("serve.hedges_fired", 1),
            Event::ReplicaRecovered { .. } => ("serve.replica_recoveries", 1),
            Event::SnapshotWritten { .. } => ("store.snapshots_written", 1),
            Event::Recovery { .. } => ("store.recoveries", 1),
            Event::Span { .. }
            | Event::Counter { .. }
            | Event::Gauge { .. }
            | Event::Histogram { .. }
            | Event::Message { .. }
            | Event::TraceSpan { .. }
            | Event::TraceAnnotation { .. } => return None,
        })
    }

    /// The shard that owns this event, for every kind that carries a
    /// `shard` field.
    pub fn shard(&self) -> Option<u64> {
        match self {
            Event::RungServed { shard, .. }
            | Event::BreakerTransition { shard, .. }
            | Event::WorkerRestart { shard, .. }
            | Event::RequestShed { shard, .. }
            | Event::HealthTransition { shard, .. }
            | Event::TraceSpan { shard, .. }
            | Event::TraceAnnotation { shard, .. }
            | Event::SloAlert { shard, .. }
            | Event::Failover { shard, .. }
            | Event::HedgeFired { shard, .. }
            | Event::ReplicaRecovered { shard, .. } => Some(*shard),
            Event::Span { .. }
            | Event::Counter { .. }
            | Event::Gauge { .. }
            | Event::Histogram { .. }
            | Event::Message { .. }
            | Event::Checkpoint { .. }
            | Event::Rollback { .. }
            | Event::LpFallback { .. }
            | Event::FaultInjected { .. }
            | Event::SnapshotWritten { .. }
            | Event::Recovery { .. } => None,
        }
    }
}

impl ToJson for Event {
    fn to_json(&self) -> Json {
        match self {
            Event::Span {
                name,
                parent,
                depth,
                start_us,
                dur_ns,
            } => Json::obj([
                ("type", "span".to_json()),
                ("name", name.to_json()),
                ("parent", parent.to_json()),
                ("depth", depth.to_json()),
                ("start_us", start_us.to_json()),
                ("dur_ns", dur_ns.to_json()),
            ]),
            Event::Counter { name, delta, total } => Json::obj([
                ("type", "counter".to_json()),
                ("name", name.to_json()),
                ("delta", delta.to_json()),
                ("total", total.to_json()),
            ]),
            Event::Gauge { name, value } => Json::obj([
                ("type", "gauge".to_json()),
                ("name", name.to_json()),
                ("value", value.to_json()),
            ]),
            Event::Histogram { name, value } => Json::obj([
                ("type", "histogram".to_json()),
                ("name", name.to_json()),
                ("value", value.to_json()),
            ]),
            Event::Message { name, text } => Json::obj([
                ("type", "message".to_json()),
                ("name", name.to_json()),
                ("text", text.to_json()),
            ]),
            Event::Checkpoint { step, path } => Json::obj([
                ("type", "checkpoint".to_json()),
                ("step", step.to_json()),
                ("path", path.to_json()),
            ]),
            Event::Rollback {
                step,
                reason,
                lr_scale,
            } => Json::obj([
                ("type", "rollback".to_json()),
                ("step", step.to_json()),
                ("reason", reason.to_json()),
                ("lr_scale", lr_scale.to_json()),
            ]),
            Event::LpFallback { strategy, degraded } => Json::obj([
                ("type", "lp_fallback".to_json()),
                ("strategy", strategy.to_json()),
                ("degraded", degraded.to_json()),
            ]),
            Event::FaultInjected {
                graph,
                edges_removed,
            } => Json::obj([
                ("type", "fault_injected".to_json()),
                ("graph", graph.to_json()),
                ("edges_removed", edges_removed.to_json()),
            ]),
            Event::RungServed {
                shard,
                epoch,
                rung,
                shed,
                trace,
            } => Json::obj([
                ("type", "rung_served".to_json()),
                ("shard", shard.to_json()),
                ("epoch", epoch.to_json()),
                ("rung", rung.to_json()),
                ("shed", shed.to_json()),
                ("trace", trace.to_json()),
            ]),
            Event::BreakerTransition {
                shard,
                from,
                to,
                epoch,
            } => Json::obj([
                ("type", "breaker_transition".to_json()),
                ("shard", shard.to_json()),
                ("from", from.to_json()),
                ("to", to.to_json()),
                ("epoch", epoch.to_json()),
            ]),
            Event::WorkerRestart {
                shard,
                worker,
                restarts,
                backoff_epochs,
            } => Json::obj([
                ("type", "worker_restart".to_json()),
                ("shard", shard.to_json()),
                ("worker", worker.to_json()),
                ("restarts", restarts.to_json()),
                ("backoff_epochs", backoff_epochs.to_json()),
            ]),
            Event::RequestShed {
                shard,
                epoch,
                queue_len,
            } => Json::obj([
                ("type", "request_shed".to_json()),
                ("shard", shard.to_json()),
                ("epoch", epoch.to_json()),
                ("queue_len", queue_len.to_json()),
            ]),
            Event::HealthTransition {
                shard,
                from,
                to,
                epoch,
            } => Json::obj([
                ("type", "health_transition".to_json()),
                ("shard", shard.to_json()),
                ("from", from.to_json()),
                ("to", to.to_json()),
                ("epoch", epoch.to_json()),
            ]),
            Event::TraceSpan {
                trace_id,
                shard,
                name,
                start_us,
                dur_ns,
                attrs,
            } => Json::obj([
                ("type", "trace_span".to_json()),
                ("trace_id", trace_id.to_json()),
                ("shard", shard.to_json()),
                ("name", name.to_json()),
                ("start_us", start_us.to_json()),
                ("dur_ns", dur_ns.to_json()),
                ("attrs", attrs_to_json(attrs)),
            ]),
            Event::TraceAnnotation {
                trace_id,
                shard,
                name,
                at_us,
                attrs,
            } => Json::obj([
                ("type", "trace_annotation".to_json()),
                ("trace_id", trace_id.to_json()),
                ("shard", shard.to_json()),
                ("name", name.to_json()),
                ("at_us", at_us.to_json()),
                ("attrs", attrs_to_json(attrs)),
            ]),
            Event::SloAlert {
                shard,
                metric,
                burn_rate,
                threshold,
                window,
                epoch,
            } => Json::obj([
                ("type", "slo_alert".to_json()),
                ("shard", shard.to_json()),
                ("metric", metric.to_json()),
                ("burn_rate", burn_rate.to_json()),
                ("threshold", threshold.to_json()),
                ("window", window.to_json()),
                ("epoch", epoch.to_json()),
            ]),
            Event::Failover {
                shard,
                from_replica,
                to_replica,
                reason,
                clock,
            } => Json::obj([
                ("type", "failover".to_json()),
                ("shard", shard.to_json()),
                ("from_replica", from_replica.to_json()),
                ("to_replica", to_replica.to_json()),
                ("reason", reason.to_json()),
                ("clock", clock.to_json()),
            ]),
            Event::HedgeFired {
                shard,
                epoch,
                primary,
                standby,
                wins,
                batch,
            } => Json::obj([
                ("type", "hedge_fired".to_json()),
                ("shard", shard.to_json()),
                ("epoch", epoch.to_json()),
                ("primary", primary.to_json()),
                ("standby", standby.to_json()),
                ("wins", wins.to_json()),
                ("batch", batch.to_json()),
            ]),
            Event::ReplicaRecovered {
                shard,
                replica,
                probes,
                clock,
            } => Json::obj([
                ("type", "replica_recovered".to_json()),
                ("shard", shard.to_json()),
                ("replica", replica.to_json()),
                ("probes", probes.to_json()),
                ("clock", clock.to_json()),
            ]),
            Event::SnapshotWritten {
                shards,
                epoch,
                generation,
                bytes,
                path,
            } => Json::obj([
                ("type", "snapshot_written".to_json()),
                ("shards", shards.to_json()),
                ("epoch", epoch.to_json()),
                ("generation", generation.to_json()),
                ("bytes", bytes.to_json()),
                ("path", path.to_json()),
            ]),
            Event::Recovery {
                shards,
                outcome,
                generation,
                epoch,
                detail,
            } => Json::obj([
                ("type", "recovery".to_json()),
                ("shards", shards.to_json()),
                ("outcome", outcome.to_json()),
                ("generation", generation.to_json()),
                ("epoch", epoch.to_json()),
                ("detail", detail.to_json()),
            ]),
        }
    }
}

impl FromJson for Event {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let kind = String::from_json(json.field("type")?)?;
        let name = |j: &Json| -> Result<String, JsonError> { String::from_json(j.field("name")?) };
        match kind.as_str() {
            "span" => Ok(Event::Span {
                name: name(json)?,
                parent: FromJson::from_json(json.field("parent")?)?,
                depth: FromJson::from_json(json.field("depth")?)?,
                start_us: FromJson::from_json(json.field("start_us")?)?,
                dur_ns: FromJson::from_json(json.field("dur_ns")?)?,
            }),
            "counter" => Ok(Event::Counter {
                name: name(json)?,
                delta: FromJson::from_json(json.field("delta")?)?,
                total: FromJson::from_json(json.field("total")?)?,
            }),
            "gauge" => Ok(Event::Gauge {
                name: name(json)?,
                value: FromJson::from_json(json.field("value")?)?,
            }),
            "histogram" => Ok(Event::Histogram {
                name: name(json)?,
                value: FromJson::from_json(json.field("value")?)?,
            }),
            "message" => Ok(Event::Message {
                name: name(json)?,
                text: FromJson::from_json(json.field("text")?)?,
            }),
            "checkpoint" => Ok(Event::Checkpoint {
                step: FromJson::from_json(json.field("step")?)?,
                path: FromJson::from_json(json.field("path")?)?,
            }),
            "rollback" => Ok(Event::Rollback {
                step: FromJson::from_json(json.field("step")?)?,
                reason: FromJson::from_json(json.field("reason")?)?,
                lr_scale: FromJson::from_json(json.field("lr_scale")?)?,
            }),
            "lp_fallback" => Ok(Event::LpFallback {
                strategy: FromJson::from_json(json.field("strategy")?)?,
                degraded: FromJson::from_json(json.field("degraded")?)?,
            }),
            "fault_injected" => Ok(Event::FaultInjected {
                graph: FromJson::from_json(json.field("graph")?)?,
                edges_removed: FromJson::from_json(json.field("edges_removed")?)?,
            }),
            "rung_served" => Ok(Event::RungServed {
                shard: FromJson::from_json(json.field("shard")?)?,
                epoch: FromJson::from_json(json.field("epoch")?)?,
                rung: FromJson::from_json(json.field("rung")?)?,
                shed: FromJson::from_json(json.field("shed")?)?,
                trace: FromJson::from_json(json.field("trace")?)?,
            }),
            "breaker_transition" => Ok(Event::BreakerTransition {
                shard: FromJson::from_json(json.field("shard")?)?,
                from: FromJson::from_json(json.field("from")?)?,
                to: FromJson::from_json(json.field("to")?)?,
                epoch: FromJson::from_json(json.field("epoch")?)?,
            }),
            "worker_restart" => Ok(Event::WorkerRestart {
                shard: FromJson::from_json(json.field("shard")?)?,
                worker: FromJson::from_json(json.field("worker")?)?,
                restarts: FromJson::from_json(json.field("restarts")?)?,
                backoff_epochs: FromJson::from_json(json.field("backoff_epochs")?)?,
            }),
            "request_shed" => Ok(Event::RequestShed {
                shard: FromJson::from_json(json.field("shard")?)?,
                epoch: FromJson::from_json(json.field("epoch")?)?,
                queue_len: FromJson::from_json(json.field("queue_len")?)?,
            }),
            "health_transition" => Ok(Event::HealthTransition {
                shard: FromJson::from_json(json.field("shard")?)?,
                from: FromJson::from_json(json.field("from")?)?,
                to: FromJson::from_json(json.field("to")?)?,
                epoch: FromJson::from_json(json.field("epoch")?)?,
            }),
            "trace_span" => Ok(Event::TraceSpan {
                trace_id: FromJson::from_json(json.field("trace_id")?)?,
                shard: FromJson::from_json(json.field("shard")?)?,
                name: name(json)?,
                start_us: FromJson::from_json(json.field("start_us")?)?,
                dur_ns: FromJson::from_json(json.field("dur_ns")?)?,
                attrs: attrs_from_json(json.field("attrs")?)?,
            }),
            "trace_annotation" => Ok(Event::TraceAnnotation {
                trace_id: FromJson::from_json(json.field("trace_id")?)?,
                shard: FromJson::from_json(json.field("shard")?)?,
                name: name(json)?,
                at_us: FromJson::from_json(json.field("at_us")?)?,
                attrs: attrs_from_json(json.field("attrs")?)?,
            }),
            "slo_alert" => Ok(Event::SloAlert {
                shard: FromJson::from_json(json.field("shard")?)?,
                metric: FromJson::from_json(json.field("metric")?)?,
                burn_rate: FromJson::from_json(json.field("burn_rate")?)?,
                threshold: FromJson::from_json(json.field("threshold")?)?,
                window: FromJson::from_json(json.field("window")?)?,
                epoch: FromJson::from_json(json.field("epoch")?)?,
            }),
            "failover" => Ok(Event::Failover {
                shard: FromJson::from_json(json.field("shard")?)?,
                from_replica: FromJson::from_json(json.field("from_replica")?)?,
                to_replica: FromJson::from_json(json.field("to_replica")?)?,
                reason: FromJson::from_json(json.field("reason")?)?,
                clock: FromJson::from_json(json.field("clock")?)?,
            }),
            "hedge_fired" => Ok(Event::HedgeFired {
                shard: FromJson::from_json(json.field("shard")?)?,
                epoch: FromJson::from_json(json.field("epoch")?)?,
                primary: FromJson::from_json(json.field("primary")?)?,
                standby: FromJson::from_json(json.field("standby")?)?,
                wins: FromJson::from_json(json.field("wins")?)?,
                batch: FromJson::from_json(json.field("batch")?)?,
            }),
            "replica_recovered" => Ok(Event::ReplicaRecovered {
                shard: FromJson::from_json(json.field("shard")?)?,
                replica: FromJson::from_json(json.field("replica")?)?,
                probes: FromJson::from_json(json.field("probes")?)?,
                clock: FromJson::from_json(json.field("clock")?)?,
            }),
            "snapshot_written" => Ok(Event::SnapshotWritten {
                shards: FromJson::from_json(json.field("shards")?)?,
                epoch: FromJson::from_json(json.field("epoch")?)?,
                generation: FromJson::from_json(json.field("generation")?)?,
                bytes: FromJson::from_json(json.field("bytes")?)?,
                path: FromJson::from_json(json.field("path")?)?,
            }),
            "recovery" => Ok(Event::Recovery {
                shards: FromJson::from_json(json.field("shards")?)?,
                outcome: FromJson::from_json(json.field("outcome")?)?,
                generation: FromJson::from_json(json.field("generation")?)?,
                epoch: FromJson::from_json(json.field("epoch")?)?,
                detail: FromJson::from_json(json.field("detail")?)?,
            }),
            other => Err(JsonError(format!("unknown event type {other:?}"))),
        }
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
