//! Closed- and open-loop tick schedulers.
//!
//! A closed loop sends tick k+1 when tick k's call returns, so a slow
//! program receives less load. An open loop sends tick k when it is
//! *due*, at `start + k * period`, whatever happened to earlier ticks;
//! a tick that could not start on time counts its wait, because its
//! latency runs from the due time, not from when the call began.

use std::time::{Duration, Instant};

/// What one schedule drives: inputs are prepared before a tick is
/// due, only `serve` is timed, and `finish` checks and records the
/// output after the tick's clock has stopped.
pub trait TickDriver {
    /// Everything one tick submits.
    type Input;
    /// What the program returned for it.
    type Output;

    /// Builds tick `tick`'s input (untimed).
    fn prepare(&mut self, tick: u64) -> Self::Input;
    /// Submits the input to the program (timed).
    fn serve(&mut self, input: Self::Input) -> Self::Output;
    /// Consumes the output of tick `timing.tick` (untimed).
    fn finish(&mut self, output: Self::Output, timing: &TickTiming);
}

/// When one tick was due, started and ended, relative to its phase's
/// start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickTiming {
    /// Global tick index.
    pub tick: u64,
    /// When the schedule wanted the tick sent.
    pub due: Duration,
    /// When `serve` was called.
    pub started: Duration,
    /// When `serve` returned.
    pub ended: Duration,
}

impl TickTiming {
    /// Due time to answer: what a client that sent on schedule waited.
    pub fn latency(&self) -> Duration {
        self.ended.saturating_sub(self.due)
    }

    /// How late the generator sent the tick.
    pub fn late(&self) -> Duration {
        self.started.saturating_sub(self.due)
    }

    /// Time inside the program's call.
    pub fn service(&self) -> Duration {
        self.ended.saturating_sub(self.started)
    }
}

/// Serves ticks `first..first + max_ticks` back to back until `window`
/// has elapsed. Each tick is due when it starts.
pub fn closed_loop<D: TickDriver>(
    driver: &mut D,
    first: u64,
    max_ticks: u64,
    window: Duration,
) -> Vec<TickTiming> {
    let start = Instant::now();
    let mut timings = Vec::new();
    for tick in first..first + max_ticks {
        if start.elapsed() >= window {
            break;
        }
        let input = driver.prepare(tick);
        let started = start.elapsed();
        let output = driver.serve(input);
        let ended = start.elapsed();
        let timing = TickTiming {
            tick,
            due: started,
            started,
            ended,
        };
        driver.finish(output, &timing);
        timings.push(timing);
    }
    timings
}

/// Serves tick `first + k` at `start + k * period` for every due time
/// inside `window`. A tick whose due time has already passed starts at
/// once; its latency still counts from the due time.
pub fn open_loop<D: TickDriver>(
    driver: &mut D,
    first: u64,
    period: Duration,
    window: Duration,
) -> Vec<TickTiming> {
    let start = Instant::now();
    let mut timings = Vec::new();
    for k in 0u32.. {
        let due = period * k;
        if due >= window {
            break;
        }
        let tick = first + u64::from(k);
        let input = driver.prepare(tick);
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let started = start.elapsed();
        let output = driver.serve(input);
        let ended = start.elapsed();
        let timing = TickTiming {
            tick,
            due,
            started,
            ended,
        };
        driver.finish(output, &timing);
        timings.push(timing);
    }
    timings
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers every tick at once except `stall_at`, which takes
    /// `stall` to serve.
    struct Staller {
        stall_at: u64,
        stall: Duration,
        finished: Vec<u64>,
    }

    impl TickDriver for Staller {
        type Input = u64;
        type Output = u64;

        fn prepare(&mut self, tick: u64) -> u64 {
            tick
        }

        fn serve(&mut self, tick: u64) -> u64 {
            if tick == self.stall_at {
                std::thread::sleep(self.stall);
            }
            tick
        }

        fn finish(&mut self, output: u64, timing: &TickTiming) {
            assert_eq!(output, timing.tick);
            self.finished.push(output);
        }
    }

    #[test]
    fn a_stall_makes_later_ticks_late_and_counts_from_their_due_time() {
        let period = Duration::from_millis(2);
        let stall = Duration::from_millis(30);
        let mut driver = Staller {
            stall_at: 103,
            stall,
            finished: Vec::new(),
        };
        let timings = open_loop(&mut driver, 100, period, period * 10);
        assert_eq!(
            timings.len(),
            10,
            "every due time inside the window is sent"
        );
        assert_eq!(driver.finished, (100..110).collect::<Vec<_>>());
        for (k, t) in timings.iter().enumerate() {
            assert_eq!(t.due, period * k as u32, "ticks stay on the schedule");
        }
        // Tick 4 was due one period after tick 3 started, but could only
        // start once the 30 ms stall was over: it is late by at least the
        // stall minus a period, and its latency counts that wait.
        let stalled = timings[3];
        let next = timings[4];
        assert!(stalled.service() >= stall);
        assert!(next.late() >= stall - period, "late {:?}", next.late());
        assert!(next.latency() >= next.late());
        assert!(next.latency() >= next.service() + stall - period);
        // The backlog outlives the stall: ticks due before it ended are
        // all late, and every one is timed from its own due time.
        for t in &timings[4..] {
            if t.due < stalled.ended {
                assert!(t.late() > Duration::ZERO);
            }
            assert_eq!(t.latency(), t.ended - t.due);
        }
    }

    #[test]
    fn a_closed_loop_sends_each_tick_when_the_previous_returns() {
        let mut driver = Staller {
            stall_at: 1,
            stall: Duration::from_millis(5),
            finished: Vec::new(),
        };
        let timings = closed_loop(&mut driver, 0, 4, Duration::from_secs(10));
        assert_eq!(driver.finished, vec![0, 1, 2, 3]);
        for pair in timings.windows(2) {
            assert!(pair[1].started >= pair[0].ended);
            assert_eq!(pair[1].late(), Duration::ZERO);
        }
        assert!(timings[1].latency() >= Duration::from_millis(5));
    }
}
