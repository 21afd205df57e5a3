//! Process-wide resource readings from `/proc/self`.

/// Kernel clock ticks per second for `/proc/self/stat` CPU times (the
/// `USER_HZ` every mainstream Linux build uses).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time this process has used so far, over all
/// its threads (ended ones included), in seconds. Resolution is one
/// clock tick (10 ms).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_S)
}

/// Time of one [`reference_kernel_s`] run on the 2-core sandbox host in
/// its fast state, s.
const REFERENCE_NOMINAL_S: f64 = 1.7e-3;

/// One timed run of a fixed reference kernel: 10 power-iteration steps
/// of a 512×512 dense matrix (2 MiB, past the per-core caches), best of
/// three, s. The kernel is benchmark code, so no change to the program
/// can move it.
fn reference_kernel_s() -> f64 {
    let n = 512;
    let a: Vec<f64> = (0..n * n).map(|i| (i % 17) as f64 * 0.25).collect();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut x: Vec<f64> = (0..n).map(|i| i as f64 * 1e-3).collect();
        let start = std::time::Instant::now();
        for _ in 0..10 {
            let y: Vec<f64> = a
                .chunks_exact(n)
                .map(|row| row.iter().zip(&x).map(|(p, q)| p * q).sum::<f64>())
                .collect();
            let norm = y
                .iter()
                .map(|v| v.abs())
                .sum::<f64>()
                .max(f64::MIN_POSITIVE);
            x = y.into_iter().map(|v| v / norm).collect();
        }
        std::hint::black_box(&x);
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Host speed over a run, read from the reference kernel.
///
/// The sandbox host runs the same code up to ~1.6× slower for seconds to
/// minutes at a time (CPU time slows with wall time, so it is not
/// preemption). Runs sample the kernel between their slices, and the
/// wall-clock end-to-end metrics are reported at nominal host speed:
/// times divided by [`HostSpeed::scale`], rates multiplied by it. The
/// raw figures are echoed with the result.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Times the reference kernel once.
    pub fn sample(&mut self) {
        self.samples.push(reference_kernel_s());
    }

    /// Median reference time over nominal: above 1 on a slow host.
    pub fn scale(&self) -> f64 {
        crate::stats::median(&self.samples).map_or(1.0, |s| s / REFERENCE_NOMINAL_S)
    }
}

/// Online CPUs, as the standard library sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
