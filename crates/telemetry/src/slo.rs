//! Streaming SLO evaluation: sliding-window serving rates and
//! error-budget burn-rate alerting.
//!
//! One [`SloTracker`] per shard consumes the response stream (rung
//! depth, shed flag, latency) plus worker restarts, and maintains:
//!
//! - a [`LogHistogram`] of response latencies (mergeable per-shard
//!   snapshots for fleet quantiles),
//! - sliding-window rates over the last `window` responses: mean rung
//!   depth, shed rate, restart rate,
//! - the error-budget **burn rate**: the window's bad-response
//!   fraction divided by the budget `1 - objective`. A burn rate of 1
//!   spends budget exactly as fast as the objective allows; the
//!   tracker alerts when it crosses `burn_threshold`.
//!
//! Evaluation is purely logical (counts, not clocks), so seeded runs
//! alert at identical epochs. The tracker returns [`SloAlertInfo`]
//! values; actually emitting [`crate::Event::SloAlert`] is the
//! caller's job (via [`crate::emit`]), keeping this module
//! deterministic and test-friendly.

use std::collections::VecDeque;

use crate::hdr::{HdrSnapshot, LogHistogram};

/// Configuration for one shard's SLO tracker.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Target good-response fraction (a response is *good* when it is
    /// served fresh and was not shed).
    pub objective: f64,
    /// Sliding-window length in responses.
    pub window: usize,
    /// Alert when the burn rate reaches this multiple of budget spend.
    pub burn_threshold: f64,
    /// Responses required in the window before evaluation starts —
    /// prevents alerting off the first unlucky response.
    pub min_samples: usize,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            objective: 0.95,
            window: 64,
            burn_threshold: 4.0,
            min_samples: 16,
        }
    }
}

/// One response's footprint in the sliding window.
#[derive(Debug, Clone, Copy)]
struct WindowEntry {
    good: bool,
    depth: u8,
    shed: bool,
    /// Worker restarts attributed to this response (those that
    /// happened since the previous response).
    restarts: u64,
}

/// A burn-rate breach the caller should surface as an
/// [`crate::Event::SloAlert`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlertInfo {
    /// Observed burn rate at detection.
    pub burn_rate: f64,
    /// Threshold that was crossed.
    pub threshold: f64,
    /// Window length the rate was measured over.
    pub window: u64,
    /// Serving epoch of the breaching response.
    pub epoch: u64,
}

/// Per-shard streaming SLO state.
#[derive(Debug, Clone)]
pub struct SloTracker {
    config: SloConfig,
    entries: VecDeque<WindowEntry>,
    bad_in_window: usize,
    depth_sum: u64,
    shed_in_window: usize,
    restarts_in_window: u64,
    /// Restarts seen since the last response, attributed to the next.
    pending_restarts: u64,
    latency: LogHistogram,
    breached: bool,
    /// Responses until another alert may fire (re-arms each breach).
    cooldown: usize,
    alerts: u64,
}

impl SloTracker {
    /// A tracker with the given configuration.
    pub fn new(config: SloConfig) -> Self {
        SloTracker {
            config,
            entries: VecDeque::new(),
            bad_in_window: 0,
            depth_sum: 0,
            shed_in_window: 0,
            restarts_in_window: 0,
            pending_restarts: 0,
            latency: LogHistogram::new(),
            breached: false,
            cooldown: 0,
            alerts: 0,
        }
    }

    /// Attributes one worker restart to the upcoming response.
    pub fn observe_restart(&mut self) {
        self.pending_restarts += 1;
    }

    /// Consumes one served response. Returns alert details when this
    /// response pushes the burn rate over the threshold (rate-limited
    /// to one alert per window length while the breach persists).
    pub fn observe_response(
        &mut self,
        rung_depth: u8,
        shed: bool,
        latency_ns: u64,
        epoch: u64,
    ) -> Option<SloAlertInfo> {
        self.latency.record(latency_ns);
        let entry = WindowEntry {
            good: rung_depth == 0 && !shed,
            depth: rung_depth,
            shed,
            restarts: std::mem::take(&mut self.pending_restarts),
        };
        self.push(entry);
        self.cooldown = self.cooldown.saturating_sub(1);

        if self.entries.len() < self.config.min_samples {
            return None;
        }
        let burn = self.burn_rate();
        self.breached = burn >= self.config.burn_threshold;
        if !self.breached || self.cooldown > 0 {
            return None;
        }
        self.cooldown = self.config.window;
        self.alerts += 1;
        Some(SloAlertInfo {
            burn_rate: burn,
            threshold: self.config.burn_threshold,
            window: self.config.window as u64,
            epoch,
        })
    }

    fn push(&mut self, entry: WindowEntry) {
        if self.entries.len() == self.config.window {
            let old = self.entries.pop_front().expect("window non-empty");
            self.bad_in_window -= usize::from(!old.good);
            self.depth_sum -= u64::from(old.depth);
            self.shed_in_window -= usize::from(old.shed);
            self.restarts_in_window -= old.restarts;
        }
        self.bad_in_window += usize::from(!entry.good);
        self.depth_sum += u64::from(entry.depth);
        self.shed_in_window += usize::from(entry.shed);
        self.restarts_in_window += entry.restarts;
        self.entries.push_back(entry);
    }

    /// Current burn rate: window bad fraction over allowed bad
    /// fraction `1 - objective`. 0.0 while the window is empty.
    pub fn burn_rate(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let bad_fraction = self.bad_in_window as f64 / self.entries.len() as f64;
        let budget = (1.0 - self.config.objective).max(f64::EPSILON);
        bad_fraction / budget
    }

    /// Whether the shard is currently burning budget over threshold.
    pub fn breached(&self) -> bool {
        self.breached
    }

    /// Alerts fired so far.
    pub fn alerts(&self) -> u64 {
        self.alerts
    }

    /// Mean rung depth over the window (0.0 when empty).
    pub fn mean_depth(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.depth_sum as f64 / self.entries.len() as f64
    }

    /// Shed fraction over the window (0.0 when empty).
    pub fn shed_rate(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.shed_in_window as f64 / self.entries.len() as f64
    }

    /// Worker restarts per response over the window (0.0 when empty).
    pub fn restart_rate(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.restarts_in_window as f64 / self.entries.len() as f64
    }

    /// Mergeable snapshot of the latency histogram.
    pub fn latency_snapshot(&self) -> HdrSnapshot {
        self.latency.snapshot()
    }

    /// Restores the latency histogram from a durable snapshot (warm
    /// restart). The burn-rate window is deliberately **not** restored:
    /// it re-warms from live traffic under the `min_samples` guard, so
    /// a restored shard cannot alert off stale pre-crash responses.
    ///
    /// Returns `false` (leaving the tracker unchanged) when the
    /// snapshot is inconsistent — see [`LogHistogram::from_snapshot`].
    pub fn restore_latency(&mut self, snap: &HdrSnapshot) -> bool {
        match LogHistogram::from_snapshot(snap) {
            Some(h) => {
                self.latency = h;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> SloTracker {
        SloTracker::new(SloConfig::default())
    }

    #[test]
    fn healthy_stream_never_alerts() {
        let mut t = tracker();
        for epoch in 0..200 {
            assert!(t.observe_response(0, false, 1_000, epoch).is_none());
        }
        assert!(!t.breached());
        assert_eq!(t.alerts(), 0);
        assert_eq!(t.burn_rate(), 0.0);
        assert_eq!(t.latency_snapshot().count, 200);
    }

    #[test]
    fn sustained_degradation_alerts_once_per_window() {
        let mut t = tracker();
        let mut alerts = Vec::new();
        for epoch in 0..200 {
            if let Some(a) = t.observe_response(1, false, 1_000, epoch) {
                alerts.push(a);
            }
        }
        // 100% bad at objective 0.95 → burn 20x; first alert at
        // min_samples, then one per window while the breach persists.
        assert!(t.breached());
        assert_eq!(alerts[0].epoch, 15);
        assert!((alerts[0].burn_rate - 20.0).abs() < 1e-9);
        assert_eq!(alerts.len(), 1 + (200 - 16) / 64);
        assert_eq!(t.alerts(), alerts.len() as u64);
    }

    #[test]
    fn light_degradation_stays_under_threshold() {
        // 10% bad → burn 2.0 < 4.0 at the default objective.
        let mut t = tracker();
        for epoch in 0..200 {
            let depth = u8::from(epoch % 10 == 0);
            assert!(t.observe_response(depth, false, 1_000, epoch).is_none());
        }
        assert!(!t.breached());
        assert!(t.burn_rate() < 4.0);
    }

    #[test]
    fn recovery_clears_the_breach() {
        let mut t = tracker();
        for epoch in 0..32 {
            t.observe_response(2, true, 1_000, epoch);
        }
        assert!(t.breached());
        for epoch in 32..200 {
            t.observe_response(0, false, 1_000, epoch);
        }
        assert!(!t.breached());
        assert!(t.burn_rate() < 1e-9);
    }

    #[test]
    fn window_rates_track_recent_history() {
        let mut t = tracker();
        for epoch in 0..64 {
            t.observe_restart();
            t.observe_response(2, epoch % 2 == 0, 1_000, epoch);
        }
        assert!((t.mean_depth() - 2.0).abs() < 1e-9);
        assert!((t.shed_rate() - 0.5).abs() < 1e-9);
        assert!((t.restart_rate() - 1.0).abs() < 1e-9);
        // Fresh history pushes the old entries out.
        for epoch in 64..128 {
            t.observe_response(0, false, 1_000, epoch);
        }
        assert_eq!(t.mean_depth(), 0.0);
        assert_eq!(t.shed_rate(), 0.0);
        assert_eq!(t.restart_rate(), 0.0);
    }

    #[test]
    fn alerting_is_deterministic() {
        let run = || {
            let mut t = tracker();
            let mut fired = Vec::new();
            for epoch in 0..300u64 {
                let depth = u8::from(epoch % 3 != 0);
                if let Some(a) = t.observe_response(depth, false, 500, epoch) {
                    fired.push(a.epoch);
                }
            }
            fired
        };
        assert_eq!(run(), run());
        assert!(!run().is_empty());
    }
}
