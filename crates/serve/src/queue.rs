//! Bounded admission queue with shed-oldest overflow.
//!
//! This is the serving stack's one admission queue; each
//! [`ReplicaSet`](crate::replica::ReplicaSet) owns one. Load shedding
//! here never means dropping a request on the floor: shed requests
//! are returned to the set, whose primary still answers them from the
//! degradation ladder (skipping inference). The queue
//! only decides *which* requests lose their inference slot — the
//! oldest, whose traffic matrices are already going stale.
//!
//! Every admitted request is wrapped in an [`Admitted`] entry carrying
//! its [`TraceCtx`] and admission timestamp, so queue wait and
//! end-to-end latency can be attributed per request downstream.

use std::collections::VecDeque;
use std::time::Instant;

use gddr_telemetry::TraceCtx;

use crate::request::EpochRequest;

/// A pending request plus the observability context it was admitted
/// under.
#[derive(Debug, Clone)]
pub struct Admitted {
    /// The request itself.
    pub req: EpochRequest,
    /// Trace context minted at fleet admission (default = untraced).
    pub ctx: TraceCtx,
    /// When the request entered the queue — the anchor for queue-wait
    /// and end-to-end latency measurements.
    pub admitted_at: Instant,
}

/// A bounded FIFO of pending epoch requests.
#[derive(Debug)]
pub struct AdmissionQueue {
    capacity: usize,
    items: VecDeque<Admitted>,
}

impl AdmissionQueue {
    /// A queue admitting at most `capacity` pending requests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "admission queue needs positive capacity");
        AdmissionQueue {
            capacity,
            items: VecDeque::new(),
        }
    }

    /// Pending request count.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Maximum pending requests.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits `req` under `ctx`, returning any entries shed to make
    /// room (oldest first). The new request itself is never shed on
    /// admission.
    pub fn admit(&mut self, req: EpochRequest, ctx: TraceCtx) -> Vec<Admitted> {
        self.items.push_back(Admitted {
            req,
            ctx,
            admitted_at: Instant::now(),
        });
        let mut shed = Vec::new();
        while self.items.len() > self.capacity {
            // Unwrap is safe: len > capacity >= 1.
            shed.push(self.items.pop_front().unwrap());
        }
        shed
    }

    /// Pops the oldest pending entry.
    pub fn pop(&mut self) -> Option<Admitted> {
        self.items.pop_front()
    }

    /// The oldest pending entry, without removing it (used to decide
    /// whether the next request coalesces into the current batch).
    pub fn peek(&self) -> Option<&Admitted> {
        self.items.front()
    }

    /// Pops a coalescable run: up to `window` consecutive pending
    /// entries sharing the oldest entry's client epoch. This is the
    /// one batching rule of the fleet.
    pub fn pop_run(&mut self, window: usize) -> Vec<Admitted> {
        let mut run = Vec::new();
        let Some(first) = self.pop() else {
            return run;
        };
        let tick = first.req.epoch;
        run.push(first);
        while run.len() < window.max(1) {
            match self.peek() {
                Some(next) if next.req.epoch == tick => {
                    // Unwrap is safe: peek just saw it.
                    run.push(self.pop().unwrap());
                }
                _ => break,
            }
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gddr_traffic::DemandMatrix;

    fn req(epoch: u64) -> EpochRequest {
        EpochRequest {
            epoch,
            demands: DemandMatrix::zeros(3),
            deadline_ms: crate::request::DEFAULT_DEADLINE_MS,
        }
    }

    fn admit(q: &mut AdmissionQueue, epoch: u64) -> Vec<Admitted> {
        q.admit(req(epoch), TraceCtx::default())
    }

    #[test]
    fn fifo_below_capacity() {
        let mut q = AdmissionQueue::new(3);
        for e in 0..3 {
            assert!(admit(&mut q, e).is_empty());
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().req.epoch, 0);
        assert_eq!(q.pop().unwrap().req.epoch, 1);
    }

    #[test]
    fn overflow_sheds_oldest_not_newest() {
        let mut q = AdmissionQueue::new(2);
        assert!(admit(&mut q, 0).is_empty());
        assert!(admit(&mut q, 1).is_empty());
        let shed = admit(&mut q, 2);
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].req.epoch, 0);
        // The newest request survives at the back.
        assert_eq!(q.pop().unwrap().req.epoch, 1);
        assert_eq!(q.pop().unwrap().req.epoch, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_sees_oldest_without_removing() {
        let mut q = AdmissionQueue::new(2);
        assert!(q.peek().is_none());
        admit(&mut q, 7);
        admit(&mut q, 8);
        assert_eq!(q.peek().unwrap().req.epoch, 7);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().req.epoch, 7);
        assert_eq!(q.peek().unwrap().req.epoch, 8);
    }

    #[test]
    fn admission_preserves_the_trace_context() {
        let mut q = AdmissionQueue::new(1);
        let ctx = TraceCtx::mint(3, 9);
        assert!(q.admit(req(9), ctx).is_empty());
        let shed = q.admit(req(10), TraceCtx::default());
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].ctx, ctx);
        assert!(shed[0].ctx.is_traced());
        let survivor = q.pop().unwrap();
        assert!(!survivor.ctx.is_traced());
        assert!(survivor.admitted_at.elapsed().as_secs() < 60);
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_rejected() {
        AdmissionQueue::new(0);
    }

    #[test]
    fn pop_run_coalesces_same_epoch_only() {
        let mut q = AdmissionQueue::new(8);
        for e in [4, 4, 4, 5, 5] {
            admit(&mut q, e);
        }
        // Window caps the run even when more of the epoch is pending.
        let run = q.pop_run(2);
        assert_eq!(run.len(), 2);
        assert!(run.iter().all(|a| a.req.epoch == 4));
        // The epoch boundary caps the run even under a large window.
        let run = q.pop_run(16);
        assert_eq!(run.len(), 1);
        assert_eq!(run[0].req.epoch, 4);
        let run = q.pop_run(16);
        assert_eq!(run.iter().map(|a| a.req.epoch).collect::<Vec<_>>(), [5, 5]);
        assert!(q.pop_run(3).is_empty());
        // Window zero still makes progress (clamped to one).
        admit(&mut q, 9);
        assert_eq!(q.pop_run(0).len(), 1);
    }
}
