//! The benchmark's one wall-clock site, and the process's peak memory.
//!
//! Every host timing in the benchmark goes through [`Stopwatch`], so the
//! wall clock is read in exactly one module.

// swque-lint: allow(wall-clock) — host time is the quantity this benchmark measures
use std::time::Instant;

/// A running wall-clock timer.
#[derive(Debug, Clone, Copy)]
// swque-lint: allow(wall-clock) — the stopwatch wraps the host clock it reads
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        // swque-lint: allow(wall-clock) — the one read of the host clock
        Stopwatch(Instant::now())
    }

    /// Nanoseconds since [`start`](Self::start).
    pub fn ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds since [`start`](Self::start).
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, read from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM value {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}
