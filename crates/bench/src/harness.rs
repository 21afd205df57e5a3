//! A minimal in-tree micro-benchmark harness.
//!
//! Replaces the `criterion` dependency for the hermetic build: warmup,
//! a fixed number of timed samples (each batched so one sample lasts at
//! least a millisecond), and summary statistics (min / mean / median /
//! p95 per iteration). Results print as a table on stderr and are
//! written as a JSON artifact to `results/BENCH_<group>.json`.
//!
//! Usage mirrors the old criterion groups:
//!
//! ```no_run
//! let mut group = gddr_bench::harness::BenchGroup::new("my_group");
//! group.sample_size(20);
//! group.bench("fast_path", || 2 + 2);
//! group.finish();
//! ```

use std::time::Instant;

use gddr_ser::{json_struct, Json, ToJson};

/// Lower bound on the duration of one timed sample; faster closures
/// are batched until a sample takes at least this long.
const MIN_SAMPLE_NANOS: u128 = 1_000_000;

/// Warmup runs before calibration (also primes caches/allocators).
const WARMUP_ITERS: usize = 3;

json_struct! {
    /// Per-iteration timing summary for one benchmark case.
    #[derive(Debug, Clone)]
    pub struct Stats {
        /// Case label within the group.
        pub name: String,
        /// Number of timed samples taken.
        pub samples: usize,
        /// Iterations batched into each sample.
        pub iters_per_sample: usize,
        /// Fastest observed per-iteration time (ns).
        pub min_ns: f64,
        /// Mean per-iteration time (ns).
        pub mean_ns: f64,
        /// Median per-iteration time (ns).
        pub median_ns: f64,
        /// 95th-percentile per-iteration time (ns).
        pub p95_ns: f64,
    }
}

/// Formats a nanosecond figure with a human-friendly unit.
fn human(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// A named collection of benchmark cases sharing a sample budget.
pub struct BenchGroup {
    name: String,
    sample_size: usize,
    results: Vec<Stats>,
    meta: Vec<(String, Json)>,
}

impl BenchGroup {
    /// Starts a group; `name` keys the JSON artifact.
    pub fn new(name: &str) -> Self {
        eprintln!("# bench group: {name}");
        BenchGroup {
            name: name.to_string(),
            sample_size: 30,
            results: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Sets the number of timed samples per case (default 30).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Attaches a run-metadata entry (configuration echo, environment
    /// notes) to the JSON artifact's `meta` object. Last write wins for
    /// a repeated key.
    pub fn meta(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        let json = value.to_json();
        match self.meta.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = json,
            None => self.meta.push((key.to_string(), json)),
        }
        self
    }

    /// Runs one benchmark case: warmup, batch calibration, then
    /// `sample_size` timed samples. Returns the summary (also retained
    /// for [`BenchGroup::finish`]).
    pub fn bench<R>(&mut self, label: &str, mut f: impl FnMut() -> R) -> &Stats {
        for _ in 0..WARMUP_ITERS {
            std::hint::black_box(f());
        }

        // Calibrate how many iterations make one sample last at least
        // MIN_SAMPLE_NANOS, so fast closures are timed in batches.
        let mut iters = 1usize;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let elapsed = t.elapsed().as_nanos();
            if elapsed >= MIN_SAMPLE_NANOS || iters >= 1 << 20 {
                break;
            }
            // Aim past the threshold with headroom; at least double.
            let scale = (MIN_SAMPLE_NANOS * 2 / elapsed.max(1)) as usize;
            iters = (iters * scale.max(2)).min(1 << 20);
        }

        let mut per_iter: Vec<f64> = (0..self.sample_size)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));

        let n = per_iter.len();
        let median = if n % 2 == 1 {
            per_iter[n / 2]
        } else {
            (per_iter[n / 2 - 1] + per_iter[n / 2]) / 2.0
        };
        // Nearest-rank p95, clamped to the last sample.
        let p95 = per_iter[((n as f64 * 0.95).ceil() as usize).clamp(1, n) - 1];
        let stats = Stats {
            name: label.to_string(),
            samples: n,
            iters_per_sample: iters,
            min_ns: per_iter[0],
            mean_ns: per_iter.iter().sum::<f64>() / n as f64,
            median_ns: median,
            p95_ns: p95,
        };
        eprintln!(
            "{:<40} median {:>12}  p95 {:>12}  min {:>12}  ({} samples x {} iters)",
            format!("{}/{}", self.name, label),
            human(stats.median_ns),
            human(stats.p95_ns),
            human(stats.min_ns),
            n,
            iters,
        );
        self.results.push(stats);
        self.results.last().expect("just pushed")
    }

    /// Writes the group's results to `results/BENCH_<group>.json` under
    /// the workspace root (cargo runs bench targets with the package
    /// directory as the working directory, so the path is resolved by
    /// walking up to the directory holding `Cargo.lock`).
    pub fn finish(&self) {
        // Embed run metadata so an artifact is self-describing: bench
        // name, sample budget, case count, plus caller-supplied config.
        let mut meta = vec![
            ("bench".to_string(), self.name.to_json()),
            ("sample_size".to_string(), self.sample_size.to_json()),
            ("cases".to_string(), self.results.len().to_json()),
        ];
        meta.extend(self.meta.iter().cloned());
        let json = Json::obj([
            ("group", self.name.to_json()),
            ("meta", Json::Obj(meta)),
            ("results", self.results.to_json()),
        ]);
        let root = workspace_root();
        let path = root.join(format!("results/BENCH_{}.json", self.name));
        crate::write_artifact(&path.to_string_lossy(), &json.to_string());
    }
}

/// The nearest ancestor of the current directory containing a
/// `Cargo.lock` (the workspace root); falls back to the current
/// directory when none is found.
fn workspace_root() -> std::path::PathBuf {
    let cwd = std::env::current_dir().expect("current dir");
    let mut dir = cwd.as_path();
    loop {
        if dir.join("Cargo.lock").is_file() {
            return dir.to_path_buf();
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => return cwd,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_ordered_and_positive() {
        let mut group = BenchGroup::new("harness_selftest");
        group.sample_size(5);
        let stats = group
            .bench("spin", || {
                let mut acc = 0u64;
                for i in 0..100u64 {
                    acc = acc.wrapping_add(i * i);
                }
                acc
            })
            .clone();
        assert_eq!(stats.samples, 5);
        assert!(stats.min_ns > 0.0);
        assert!(stats.min_ns <= stats.median_ns);
        assert!(stats.median_ns <= stats.p95_ns);
        assert!(stats.mean_ns >= stats.min_ns);
    }

    #[test]
    fn json_shape() {
        let mut group = BenchGroup::new("harness_json");
        group.sample_size(2);
        group.bench("noop", || 1);
        let json = Json::obj([("results", group.results.to_json())]).to_string();
        assert!(json.contains("\"median_ns\":"));
        assert!(json.contains("\"noop\""));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_sample_size_panics() {
        BenchGroup::new("bad").sample_size(0);
    }

    #[test]
    fn meta_entries_overwrite_by_key() {
        let mut group = BenchGroup::new("harness_meta");
        group.meta("topology", "abilene").meta("steps", 10usize);
        group.meta("steps", 20usize);
        assert_eq!(group.meta.len(), 2);
        let steps = &group.meta.iter().find(|(k, _)| k == "steps").unwrap().1;
        assert_eq!(steps.to_string(), "20");
    }
}
