//! # gddr-serve
//!
//! An online serving layer for trained GDDR routing policies: a
//! long-running controller that accepts traffic-matrix epoch requests,
//! runs policy inference under a per-request deadline, and **always**
//! returns a routing via a graceful-degradation ladder:
//!
//! 1. fresh policy output,
//! 2. the last-known-good routing (staleness-bounded),
//! 3. the ECMP baseline,
//! 4. the shortest-path baseline.
//!
//! Every response is tagged with the rung that produced it, so
//! operators can alert on degradation depth rather than on absence of
//! answers. Robustness machinery:
//!
//! - [`worker`] — a supervised inference pool: panics are caught and
//!   converted to typed errors, workers restart with exponential
//!   backoff under a restart budget, hung threads are abandoned and
//!   replaced (replies carry generation tags so stragglers are
//!   discarded),
//! - [`breaker`] — a circuit breaker on the strict LP-oracle scoring
//!   path (closed → open on consecutive failures → half-open probe),
//! - [`queue`] — the bounded admission queue, owned by each replica
//!   set, that sheds oldest on overload; shed requests are still
//!   answered from the ladder,
//! - [`health`] — Starting/Healthy/Degraded/Unhealthy, derived after
//!   every response and streamed as telemetry,
//! - [`fleet`] — a sharded multi-topology router: one supervised
//!   replica set per topology, same-tick requests coalesced into a
//!   single batched GNN forward pass (bit-identical to one-item runs),
//!   thread-per-core shard draining with work stealing,
//! - [`replica`] — self-healing replica sets behind each shard, and
//!   the one admission queue and serving entry point: a request is
//!   admitted by the set, and its primary serves each coalesced run
//!   through the one inference path (`Controller::serve_batch` →
//!   [`WorkerPool::dispatch_batch`]). N controllers run in lockstep
//!   under deterministic health-driven failover with hysteresis on a
//!   seeded count-based clock, with hedged dispatch to
//!   a standby when the primary straggles, and shadow-probe recovery
//!   of demoted primaries,
//! - [`snapshot`] — crash-consistent durability: the fleet
//!   periodically commits every shard's full controller state
//!   (LastGood routing and staleness clock, breaker, health, restart
//!   budgets, failover log, SLO histograms) to a `gddr_store`
//!   CRC-framed record behind an atomically-replaced manifest.
//!   [`ShardRouter::recover_from`] warm-restarts the fleet so its
//!   first responses ride the restored LastGood rung; any corruption
//!   (torn write, bit flip, lying manifest) degrades to a clean cold
//!   start with a typed error — never a panic, never corrupt routing,
//! - [`scenario`] — every chaos drill as one data-only
//!   [`ScenarioSpec`] (shards with per-replica fault plans, traffic,
//!   bursts, a [`DynamicsPlan`] of link flaps, drains and rolling
//!   retools, crash-and-restart points with store damage, declarative
//!   gates), a table of named specs tagged `controller`,
//!   `replication`, `dynamics`, `recovery` or `fleet`, and one
//!   [`scenario::run`] that serves any of them through a
//!   [`ShardRouter`]. Every scenario's digests are pinned in a golden
//!   file; the `chaos_harness` bench binary drives them.
//!
//! Observability is request-scoped: the fleet mints a
//! `gddr_telemetry::TraceCtx` per admitted request, the replica set
//! emits a `fleet.admitted` annotation, the controller a
//! `fleet.response` annotation, and the
//! worker pool a `serve.infer` span per traced batch item, and every
//! response carries its trace id and end-to-end latency. A streaming
//! SLO tracker per controller converts the response stream into
//! burn-rate alerts (`slo_alert` events) that also feed the health
//! monitor. All of it is observational: no trace or SLO state ever
//! feeds back into a serving decision.
//!
//! Determinism is load-bearing: all rung-affecting decisions use
//! logical time (serving epochs and engine-reported costs), so a
//! scenario's rung sequence is a pure function of its seed — the
//! chaos harness replays every scenario twice, asserts the sequences
//! are bit-identical, and checks them against the golden file.

pub mod breaker;
#[cfg(test)]
mod chaos;
pub mod controller;
pub mod engine;
pub mod fleet;
pub mod health;
pub mod queue;
pub mod replica;
pub mod request;
pub mod scenario;
pub mod snapshot;
pub mod worker;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use controller::{Controller, ControllerConfig, ServeStats};
pub use engine::{
    BatchItem, ChaosEngine, EngineFactory, Fault, FaultPlan, InferenceEngine, PolicyEngine,
};
pub use fleet::{
    FleetConfig, FleetRequest, RecoveryReport, ShardOutcome, ShardRouter, SnapshotPolicy,
};
pub use health::{HealthInputs, HealthState};
pub use queue::{AdmissionQueue, Admitted};
pub use replica::{
    FailoverConfig, HedgeConfig, ReplicaSet, ReplicaState, ReplicaStats, ReplicaTransition,
};
pub use request::{EpochRequest, RouteResponse, Rung, ServeError, DEFAULT_DEADLINE_MS};
pub use scenario::{
    scenario_seed, DynamicsEvent, DynamicsPlan, DynamicsTimeline, ScenarioError, ScenarioOutcome,
    ScenarioSpec, ShardSpec, TickActions, MAX_HORIZON,
};
pub use worker::{ExecMode, PoolConfig, WorkerPool};
