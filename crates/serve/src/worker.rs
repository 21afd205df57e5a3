//! The supervised inference worker pool.
//!
//! Each slot runs one [`InferenceEngine`]. In `Threaded` mode a slot
//! is a `std::thread` fed jobs over an mpsc channel, with a heartbeat
//! counter and a wall-clock hang backstop; in `Inline` mode the engine
//! runs on the caller's thread (fully deterministic — used by the fuzz
//! target and most chaos scenarios). Both modes share the supervision
//! policy:
//!
//! - panics are caught (`catch_unwind`) and converted to typed errors;
//!   the slot is restarted with a fresh engine from the factory,
//! - restarts back off exponentially in *serving epochs* (logical
//!   time, deterministic), and a restart budget bounds them: a slot
//!   that exhausts its budget dies for good,
//! - hung threads are abandoned, not joined: replies carry a
//!   generation tag so a straggler answer from a replaced thread is
//!   discarded.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use gddr_net::Graph;

use crate::engine::{BatchItem, EngineFactory, InferenceEngine, InferenceReply};
use crate::request::ServeError;

/// Pool tuning knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker slots.
    pub workers: usize,
    /// Restarts allowed per slot before it dies permanently.
    pub restart_budget: u32,
    /// First restart waits this many serving epochs; each further
    /// restart doubles the wait.
    pub backoff_base_epochs: u64,
    /// Wall-clock backstop for a threaded inference call. Generous by
    /// design — deadline enforcement uses logical `cost_ms`; this only
    /// catches genuinely wedged threads.
    pub hang_timeout_ms: u64,
    /// Inline (deterministic, caller-thread) or threaded execution.
    pub mode: ExecMode,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 2,
            restart_budget: 4,
            backoff_base_epochs: 2,
            hang_timeout_ms: 2_000,
            mode: ExecMode::Inline,
        }
    }
}

/// How slots execute inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// On the caller's thread. Panics are still caught; hangs cannot
    /// be interrupted (use threaded mode to exercise those).
    Inline,
    /// On a dedicated `std::thread` per slot.
    Threaded,
}

struct Job {
    job_id: u64,
    items: Vec<BatchItem>,
}

struct ResultMsg {
    slot: usize,
    generation: u64,
    job_id: u64,
    outcome: Result<Vec<InferenceReply>, String>,
}

struct ThreadBody {
    sender: Sender<Job>,
    heartbeat: Arc<AtomicU64>,
}

enum SlotBody {
    Inline(Box<dyn InferenceEngine>),
    Thread(ThreadBody),
    Dead,
}

struct Slot {
    body: SlotBody,
    generation: u64,
    restarts: u32,
    available_from: u64,
}

impl Slot {
    fn alive(&self) -> bool {
        !matches!(self.body, SlotBody::Dead)
    }
}

/// One `serve.infer` span per traced batch item, attributing the
/// single shared forward pass back to every coalesced trace. Untraced
/// items are skipped inside the emit helper.
fn emit_infer_spans(
    traces: &[gddr_telemetry::TraceCtx],
    slot: usize,
    start_us: u64,
    started: &std::time::Instant,
) {
    if traces.iter().all(|ctx| !ctx.is_traced()) {
        return;
    }
    let dur_ns = started.elapsed().as_nanos() as u64;
    let batch_size = traces.len().to_string();
    for (batch_slot, ctx) in traces.iter().enumerate() {
        gddr_telemetry::trace_span_event(
            *ctx,
            "serve.infer",
            start_us,
            dur_ns,
            &[
                ("batch_size", batch_size.clone()),
                ("slot", batch_slot.to_string()),
                ("worker_slot", slot.to_string()),
            ],
        );
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn worker_loop(
    slot: usize,
    generation: u64,
    mut engine: Box<dyn InferenceEngine>,
    jobs: Receiver<Job>,
    results: Sender<ResultMsg>,
    heartbeat: Arc<AtomicU64>,
) {
    while let Ok(job) = jobs.recv() {
        heartbeat.fetch_add(1, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| engine.infer_batch(&job.items)));
        heartbeat.fetch_add(1, Ordering::Relaxed);
        let fatal = outcome.is_err();
        let msg = ResultMsg {
            slot,
            generation,
            job_id: job.job_id,
            outcome: outcome.map_err(panic_message),
        };
        if results.send(msg).is_err() || fatal {
            // Pool gone, or the engine panicked: this thread is done —
            // the supervisor builds a replacement.
            break;
        }
    }
}

/// The supervised pool. Dispatch is synchronous (one in-flight job),
/// so serving stays deterministic; the pool's value is fault
/// isolation, not parallelism.
pub struct WorkerPool {
    factory: EngineFactory,
    graph: Graph,
    config: PoolConfig,
    shard: u64,
    slots: Vec<Slot>,
    results_tx: Sender<ResultMsg>,
    results_rx: Receiver<ResultMsg>,
    next_job: u64,
    rr: usize,
    restarts_total: u64,
}

impl WorkerPool {
    /// Builds and starts `config.workers` slots for `graph`. `shard`
    /// tags this pool's telemetry (0 for a single-controller
    /// deployment).
    ///
    /// # Panics
    ///
    /// Panics if `config.workers == 0`.
    pub fn new(factory: EngineFactory, graph: &Graph, config: PoolConfig, shard: u64) -> Self {
        assert!(config.workers > 0, "pool needs at least one worker");
        let (results_tx, results_rx) = channel();
        let mut pool = WorkerPool {
            factory,
            graph: graph.clone(),
            config,
            shard,
            slots: Vec::new(),
            results_tx,
            results_rx,
            next_job: 0,
            rr: 0,
            restarts_total: 0,
        };
        for i in 0..pool.config.workers {
            let body = pool.spawn_body(i, 0);
            pool.slots.push(Slot {
                body,
                generation: 0,
                restarts: 0,
                available_from: 0,
            });
        }
        pool
    }

    fn spawn_body(&self, slot: usize, generation: u64) -> SlotBody {
        let engine = (self.factory)(&self.graph);
        match self.config.mode {
            ExecMode::Inline => SlotBody::Inline(engine),
            ExecMode::Threaded => {
                let (tx, rx) = channel::<Job>();
                let heartbeat = Arc::new(AtomicU64::new(0));
                let hb = Arc::clone(&heartbeat);
                let results = self.results_tx.clone();
                std::thread::Builder::new()
                    .name(format!("gddr-serve-worker-{slot}"))
                    .spawn(move || worker_loop(slot, generation, engine, rx, results, hb))
                    .expect("spawn worker thread");
                SlotBody::Thread(ThreadBody {
                    sender: tx,
                    heartbeat,
                })
            }
        }
    }

    /// Slots still alive (budget not exhausted) at any epoch.
    pub fn alive_workers(&self) -> usize {
        self.slots.iter().filter(|s| s.alive()).count()
    }

    /// Total restarts performed over the pool's lifetime.
    pub fn restarts(&self) -> u64 {
        self.restarts_total
    }

    /// Heartbeat counter of a threaded slot (tests/diagnostics).
    pub fn heartbeat(&self, slot: usize) -> Option<u64> {
        match &self.slots.get(slot)?.body {
            SlotBody::Thread(t) => Some(t.heartbeat.load(Ordering::Relaxed)),
            _ => None,
        }
    }

    /// Restart (or kill, if over budget) a slot after a fault at
    /// `epoch`. Emits a `worker_restart` telemetry event on restart.
    fn supervise(&mut self, slot: usize, epoch: u64) {
        let s = &mut self.slots[slot];
        s.generation += 1;
        if s.restarts >= self.config.restart_budget {
            s.body = SlotBody::Dead;
            return;
        }
        s.restarts += 1;
        let shift = (s.restarts - 1).min(16);
        let backoff = self.config.backoff_base_epochs.saturating_mul(1 << shift);
        s.available_from = epoch.saturating_add(backoff);
        let generation = s.generation;
        let restarts = s.restarts;
        self.restarts_total += 1;
        self.slots[slot].body = self.spawn_body(slot, generation);
        gddr_telemetry::worker_restart_event(self.shard, slot as u64, restarts as u64, backoff);
    }

    /// Replace every slot's engine for a new topology. Does not
    /// consume restart budget; dead slots stay dead.
    pub fn retool(&mut self, graph: &Graph) {
        self.graph = graph.clone();
        for i in 0..self.slots.len() {
            if !self.slots[i].alive() {
                continue;
            }
            self.slots[i].generation += 1;
            let generation = self.slots[i].generation;
            self.slots[i].body = self.spawn_body(i, generation);
        }
    }

    /// Rebuilds every slot — dead ones included — with a fresh engine,
    /// a restored restart budget, and no backoff. The failover path
    /// uses this when a demoted replica retools for its shadow-probe
    /// window: the slot generations still advance, so any straggler
    /// reply from the pre-revival pool is discarded.
    pub fn revive(&mut self) {
        for i in 0..self.slots.len() {
            self.slots[i].generation += 1;
            let generation = self.slots[i].generation;
            self.slots[i].body = self.spawn_body(i, generation);
            self.slots[i].restarts = 0;
            self.slots[i].available_from = 0;
        }
    }

    /// Snapshot of the supervision budget: per-slot `(alive, restarts,
    /// available_from)` plus the lifetime restart total. Engines are
    /// never serialised — a restored pool rebuilds them from the
    /// factory; only the budget accounting is durable.
    pub fn budget_export(&self) -> (Vec<(bool, u32, u64)>, u64) {
        (
            self.slots
                .iter()
                .map(|s| (s.alive(), s.restarts, s.available_from))
                .collect(),
            self.restarts_total,
        )
    }

    /// Restores a supervision budget exported by
    /// [`WorkerPool::budget_export`]. Slots marked dead stay dead
    /// (their budget was spent before the crash); alive slots get
    /// fresh engines with their restart counts and backoff stamps
    /// reinstated. Extra entries beyond this pool's slot count are
    /// ignored; missing entries leave trailing slots untouched.
    pub fn budget_restore(&mut self, slots: &[(bool, u32, u64)], restarts_total: u64) {
        for (i, &(alive, restarts, available_from)) in slots.iter().enumerate() {
            if i >= self.slots.len() {
                break;
            }
            self.slots[i].restarts = restarts;
            self.slots[i].available_from = available_from;
            if alive {
                self.slots[i].generation += 1;
                let generation = self.slots[i].generation;
                self.slots[i].body = self.spawn_body(i, generation);
            } else {
                self.slots[i].body = SlotBody::Dead;
            }
        }
        self.restarts_total = restarts_total;
    }

    fn pick_slot(&mut self, epoch: u64) -> Option<usize> {
        let n = self.slots.len();
        for k in 0..n {
            let i = (self.rr + k) % n;
            if self.slots[i].alive() && self.slots[i].available_from <= epoch {
                self.rr = (i + 1) % n;
                return Some(i);
            }
        }
        None
    }

    /// Runs a coalesced batch on one available slot, supervising
    /// faults. On success there is exactly one reply per item, in
    /// order. On failure the whole batch degrades together — the
    /// controller answers every item from the ladder (a panicked
    /// engine leaves no partial answers worth trusting).
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn dispatch_batch(
        &mut self,
        items: Vec<BatchItem>,
        epoch: u64,
    ) -> Result<Vec<InferenceReply>, ServeError> {
        assert!(!items.is_empty(), "dispatch_batch needs at least one item");
        let want = items.len();
        // Captured before `items` moves into a worker thread: every
        // traced item gets a `serve.infer` span for the shared forward
        // pass (same start and duration — it honestly *was* one pass).
        let traces: Vec<gddr_telemetry::TraceCtx> = items.iter().map(|item| item.trace).collect();
        let infer_start_us = gddr_telemetry::now_us();
        let infer_start = std::time::Instant::now();
        let slot = self.pick_slot(epoch).ok_or(ServeError::PoolExhausted)?;
        if matches!(self.slots[slot].body, SlotBody::Inline(_)) {
            let outcome = {
                let engine = match &mut self.slots[slot].body {
                    SlotBody::Inline(e) => e,
                    _ => unreachable!(),
                };
                catch_unwind(AssertUnwindSafe(|| engine.infer_batch(&items)))
            };
            return match outcome {
                Ok(replies) => {
                    assert_eq!(replies.len(), want, "engine answered a different batch");
                    emit_infer_spans(&traces, slot, infer_start_us, &infer_start);
                    Ok(replies)
                }
                Err(payload) => {
                    let msg = panic_message(payload);
                    self.supervise(slot, epoch);
                    Err(ServeError::WorkerPanicked(msg))
                }
            };
        }
        let (sender, generation) = match &self.slots[slot].body {
            SlotBody::Thread(t) => (t.sender.clone(), self.slots[slot].generation),
            _ => unreachable!("pick_slot returned a dead slot"),
        };
        let job_id = self.next_job;
        self.next_job += 1;
        let job = Job { job_id, items };
        if sender.send(job).is_err() {
            // Thread already gone (e.g. died after a previous panic);
            // treat like a panic and supervise.
            self.supervise(slot, epoch);
            return Err(ServeError::WorkerPanicked("worker channel closed".into()));
        }
        let backstop = Duration::from_millis(self.config.hang_timeout_ms);
        loop {
            match self.results_rx.recv_timeout(backstop) {
                Ok(msg) => {
                    if msg.slot != slot || msg.generation != generation || msg.job_id != job_id {
                        // Straggler from an abandoned thread/generation.
                        continue;
                    }
                    match msg.outcome {
                        Ok(replies) => {
                            assert_eq!(replies.len(), want, "engine answered a different batch");
                            emit_infer_spans(&traces, slot, infer_start_us, &infer_start);
                            return Ok(replies);
                        }
                        Err(panic_msg) => {
                            self.supervise(slot, epoch);
                            return Err(ServeError::WorkerPanicked(panic_msg));
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Abandon the wedged thread: bump the generation
                    // (its eventual reply is discarded) and build a
                    // replacement.
                    self.supervise(slot, epoch);
                    return Err(ServeError::WorkerHung);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.supervise(slot, epoch);
                    return Err(ServeError::WorkerPanicked(
                        "worker result channel closed".into(),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ChaosEngine, Fault, FaultPlan, PolicyEngine};
    use crate::request::EpochRequest;
    use gddr_core::MlpPolicy;
    use gddr_net::topology::zoo;
    use gddr_rng::rngs::StdRng;
    use gddr_rng::SeedableRng;
    use gddr_traffic::gen::{bimodal, BimodalParams};
    use gddr_traffic::DemandMatrix;

    fn factory(plan: Arc<FaultPlan>) -> EngineFactory {
        Arc::new(move |graph: &Graph| {
            let mut rng = StdRng::seed_from_u64(7);
            let policy = MlpPolicy::new(
                2,
                graph.num_nodes(),
                graph.num_edges(),
                &[8],
                -0.5,
                &mut rng,
            );
            let engine = PolicyEngine::new(policy, graph, 2);
            Box::new(ChaosEngine::new(engine, Arc::clone(&plan))) as Box<dyn InferenceEngine>
        })
    }

    fn request(epoch: u64, seed: u64) -> EpochRequest {
        let mut rng = StdRng::seed_from_u64(seed);
        EpochRequest {
            epoch,
            demands: bimodal(6, &BimodalParams::default(), &mut rng),
            deadline_ms: crate::request::DEFAULT_DEADLINE_MS,
        }
    }

    /// Runs `req` as an untraced one-item batch at `epoch`, with an
    /// all-zero two-matrix history.
    fn dispatch(
        pool: &mut WorkerPool,
        req: EpochRequest,
        epoch: u64,
    ) -> Result<InferenceReply, ServeError> {
        let item = BatchItem {
            req,
            history: vec![DemandMatrix::zeros(6); 2],
            trace: gddr_telemetry::TraceCtx::default(),
        };
        pool.dispatch_batch(vec![item], epoch)
            .map(|mut replies| replies.remove(0))
    }

    #[test]
    fn inline_panic_is_supervised_and_slot_restarts() {
        let plan = Arc::new(FaultPlan::new().at(1, Fault::Panic));
        let graph = zoo::cesnet();
        let mut pool = WorkerPool::new(
            factory(plan),
            &graph,
            PoolConfig {
                workers: 1,
                restart_budget: 2,
                backoff_base_epochs: 2,
                ..PoolConfig::default()
            },
            0,
        );
        assert!(dispatch(&mut pool, request(0, 1), 0).is_ok());
        let err = dispatch(&mut pool, request(1, 1), 1).unwrap_err();
        assert!(matches!(err, ServeError::WorkerPanicked(_)));
        assert_eq!(pool.restarts(), 1);
        // Backing off: epochs 2 (1 + backoff 2 = available from 3).
        let err = dispatch(&mut pool, request(2, 1), 2).unwrap_err();
        assert!(matches!(err, ServeError::PoolExhausted));
        // Available again after the backoff.
        assert!(dispatch(&mut pool, request(3, 1), 3).is_ok());
        assert_eq!(pool.alive_workers(), 1);
    }

    #[test]
    fn restart_budget_exhaustion_kills_the_slot() {
        let plan = Arc::new(FaultPlan::new().span(0..=10, Fault::Panic));
        let graph = zoo::cesnet();
        let mut pool = WorkerPool::new(
            factory(plan),
            &graph,
            PoolConfig {
                workers: 1,
                restart_budget: 1,
                backoff_base_epochs: 0,
                ..PoolConfig::default()
            },
            0,
        );
        let err = dispatch(&mut pool, request(0, 1), 0).unwrap_err();
        assert!(matches!(err, ServeError::WorkerPanicked(_)));
        // One restart spent; the next panic kills the slot.
        let err = dispatch(&mut pool, request(1, 1), 1).unwrap_err();
        assert!(matches!(err, ServeError::WorkerPanicked(_)));
        assert_eq!(pool.alive_workers(), 0);
        let err = dispatch(&mut pool, request(2, 1), 2).unwrap_err();
        assert!(matches!(err, ServeError::PoolExhausted));
    }

    #[test]
    fn threaded_dispatch_answers_and_survives_panics() {
        let plan = Arc::new(FaultPlan::new().at(1, Fault::Panic));
        let graph = zoo::cesnet();
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the injected panic
        let mut pool = WorkerPool::new(
            factory(plan),
            &graph,
            PoolConfig {
                workers: 2,
                restart_budget: 2,
                backoff_base_epochs: 0,
                hang_timeout_ms: 5_000,
                mode: ExecMode::Threaded,
            },
            0,
        );
        assert!(dispatch(&mut pool, request(0, 1), 0).is_ok());
        let err = dispatch(&mut pool, request(1, 1), 1).unwrap_err();
        assert!(matches!(err, ServeError::WorkerPanicked(_)));
        assert!(dispatch(&mut pool, request(2, 1), 2).is_ok());
        assert_eq!(pool.alive_workers(), 2);
        assert!(pool.heartbeat(0).unwrap_or(0) + pool.heartbeat(1).unwrap_or(0) > 0);
        std::panic::set_hook(prev_hook);
    }

    #[test]
    fn threaded_hang_is_abandoned_and_replaced() {
        let plan = Arc::new(FaultPlan::new().at(0, Fault::Hang { sleep_ms: 500 }));
        let graph = zoo::cesnet();
        let mut pool = WorkerPool::new(
            factory(plan),
            &graph,
            PoolConfig {
                workers: 1,
                restart_budget: 2,
                backoff_base_epochs: 0,
                hang_timeout_ms: 50,
                mode: ExecMode::Threaded,
            },
            0,
        );
        let err = dispatch(&mut pool, request(0, 1), 0).unwrap_err();
        assert!(matches!(err, ServeError::WorkerHung));
        // The replacement slot answers; the straggler reply from the
        // abandoned generation is discarded by the generation tag.
        assert!(dispatch(&mut pool, request(1, 1), 1).is_ok());
        assert!(dispatch(&mut pool, request(2, 1), 2).is_ok());
    }

    #[test]
    fn revive_resurrects_dead_slots_with_fresh_budget() {
        let plan = Arc::new(FaultPlan::new().span(0..=3, Fault::Panic));
        let graph = zoo::cesnet();
        let mut pool = WorkerPool::new(
            factory(plan),
            &graph,
            PoolConfig {
                workers: 1,
                restart_budget: 1,
                backoff_base_epochs: 0,
                ..PoolConfig::default()
            },
            0,
        );
        // Burn the budget: two panics kill the only slot.
        let _ = dispatch(&mut pool, request(0, 1), 0);
        let _ = dispatch(&mut pool, request(1, 1), 1);
        assert_eq!(pool.alive_workers(), 0);
        pool.revive();
        assert_eq!(pool.alive_workers(), 1);
        // The revived slot serves again past the fault window, and the
        // lifetime restart counter keeps its history (one in-budget
        // restart; the second panic killed the slot without one).
        assert!(dispatch(&mut pool, request(5, 1), 5).is_ok());
        assert_eq!(pool.restarts(), 1);
    }

    #[test]
    fn budget_round_trips_through_export_restore() {
        let plan = Arc::new(FaultPlan::new().span(0..=1, Fault::Panic));
        let graph = zoo::cesnet();
        let mut pool = WorkerPool::new(
            factory(plan),
            &graph,
            PoolConfig {
                workers: 2,
                restart_budget: 1,
                backoff_base_epochs: 4,
                ..PoolConfig::default()
            },
            0,
        );
        // Slot 0 spends its one restart; slot 1 dies outright next.
        let _ = dispatch(&mut pool, request(0, 1), 0);
        let _ = dispatch(&mut pool, request(1, 1), 1);
        let (slots, total) = pool.budget_export();
        assert_eq!(slots.len(), 2);

        // A brand-new pool (the restarted process) inherits the budget.
        let plan2 = Arc::new(FaultPlan::new());
        let mut restored = WorkerPool::new(
            factory(plan2),
            &graph,
            PoolConfig {
                workers: 2,
                restart_budget: 1,
                backoff_base_epochs: 4,
                ..PoolConfig::default()
            },
            0,
        );
        restored.budget_restore(&slots, total);
        assert_eq!(restored.budget_export(), (slots, total));
        assert_eq!(
            restored.alive_workers(),
            pool.alive_workers(),
            "dead slots stay dead across restore"
        );
    }

    #[test]
    fn retool_rebuilds_engines_without_spending_budget() {
        let plan = Arc::new(FaultPlan::new());
        let graph = zoo::cesnet();
        let mut pool = WorkerPool::new(factory(plan), &graph, PoolConfig::default(), 0);
        pool.retool(&graph);
        assert_eq!(pool.restarts(), 0);
        assert_eq!(pool.alive_workers(), 2);
        assert!(dispatch(&mut pool, request(0, 1), 0).is_ok());
    }
}
