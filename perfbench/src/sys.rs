//! Process readings (CPU time, peak memory) and the summary statistics
//! the benchmark reports.

use std::fs;

use ecas_core::obs::perf::Stopwatch;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`,
/// fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process (every thread,
/// live or exited), read from `/proc/self/stat`.
///
/// # Errors
///
/// Returns a message when `/proc/self/stat` is missing or malformed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("/proc/self/stat: no command field")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("/proc/self/stat: field {} unreadable", i + 3))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size of the process (`VmHWM`) in MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM".to_string())
}

/// Wall and CPU time of the timed part of one unit. A workload calls
/// [`UnitClock::start`] and [`UnitClock::stop`] around the calls it
/// measures, leaving input generation and output checks outside.
#[derive(Debug, Default)]
pub struct UnitClock {
    watch: Option<Stopwatch>,
    cpu_at_start: f64,
    /// Wall seconds between start and stop.
    pub wall_s: f64,
    /// Process CPU seconds between start and stop.
    pub cpu_s: f64,
}

impl UnitClock {
    /// Starts timing. The CPU reading is taken before the wall clock
    /// starts so that it stays outside the measured interval.
    ///
    /// # Errors
    ///
    /// Propagates [`cpu_seconds`] failures.
    pub fn start(&mut self) -> Result<(), String> {
        self.cpu_at_start = cpu_seconds()?;
        self.watch = Some(Stopwatch::start());
        Ok(())
    }

    /// Stops timing.
    ///
    /// # Errors
    ///
    /// Returns a message if the clock was never started, or propagates
    /// [`cpu_seconds`] failures.
    pub fn stop(&mut self) -> Result<(), String> {
        let watch = self
            .watch
            .take()
            .ok_or("unit clock stopped before it started")?;
        self.wall_s = watch.elapsed_seconds();
        self.cpu_s = cpu_seconds()? - self.cpu_at_start;
        Ok(())
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted.get(n / 2).copied().unwrap_or(0.0),
        _ => {
            let lo = sorted.get(n / 2 - 1).copied().unwrap_or(0.0);
            let hi = sorted.get(n / 2).copied().unwrap_or(0.0);
            (lo + hi) / 2.0
        }
    }
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest whole percentile `p` whose nearest-rank sample still has
/// at least [`TAIL_BEYOND`] samples above it, and that sample. With too
/// few samples for any such percentile, the maximum is returned as p100.
#[must_use]
pub fn tail(values: &[f64]) -> (u32, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return (100, sorted.last().copied().unwrap_or(0.0));
    }
    // Nearest rank of percentile p is ceil(p * n / 100) (1-based); it
    // leaves n - rank samples above it, so p may grow while
    // ceil(p * n / 100) <= n - TAIL_BEYOND.
    let p = (100 * (n - TAIL_BEYOND) / n) as u32;
    let rank = (p as usize * n).div_ceil(100).max(1);
    (p, sorted.get(rank - 1).copied().unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&values), (50, 10.0));
        let values: Vec<f64> = (1..=13).map(f64::from).collect();
        let (p, v) = tail(&values);
        assert_eq!(p, 23);
        assert_eq!(values.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(tail(&[5.0, 1.0]), (100, 5.0));
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
