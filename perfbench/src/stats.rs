//! Quantiles of recorded samples.

use std::time::{Duration, Instant};

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`); 0 for an
/// empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts samples ascending (they must be comparable, i.e. not NaN).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    samples
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples.to_vec()), 0.5)
}

/// [`windowed_p99`] of samples in arrival order. For a reported figure
/// (`informational` false) it refuses a sample too small to have ten
/// values beyond the p99.
///
/// # Errors
///
/// Fewer than [`P99_WINDOW`] samples for a reported figure.
pub fn p99_for(in_order: &[f64], what: &str, informational: bool) -> Result<f64, String> {
    if !informational && in_order.len() < P99_WINDOW {
        return Err(format!(
            "{what}: {} samples leave fewer than 10 beyond the p99",
            in_order.len()
        ));
    }
    Ok(windowed_p99(in_order))
}

/// Requests per window of [`windowed_p99`].
pub const P99_WINDOW: usize = 1000;

/// The median, over consecutive windows of at least [`P99_WINDOW`]
/// samples in arrival order, of each window's p99: a tail statistic that
/// a single stalled stretch of the run does not decide. A sample shorter
/// than one window is one window.
pub fn windowed_p99(in_order: &[f64]) -> f64 {
    let windows = (in_order.len() / P99_WINDOW).max(1);
    let size = in_order.len() / windows;
    let p99s: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                in_order.len()
            } else {
                (w + 1) * size
            };
            quantile(&sorted(in_order[w * size..end].to_vec()), 0.99)
        })
        .collect();
    median(&p99s)
}

/// Length of one slot of [`Slots`].
pub const SLOT: Duration = Duration::from_secs(1);

/// A measured window cut into one-second slots, each recording the
/// operations completed and the CPU time spent in it. Rates and CPU per
/// operation are medians over the full slots, so one stalled second does
/// not decide them.
pub struct Slots {
    mark: Instant,
    ops: u64,
    cpu: Duration,
    rates: Vec<f64>,
    cpu_ms_per_op: Vec<f64>,
}

impl Slots {
    /// Starts the first slot now.
    pub fn start(cpu: Duration) -> Self {
        Self {
            mark: Instant::now(),
            ops: 0,
            cpu,
            rates: Vec::new(),
            cpu_ms_per_op: Vec::new(),
        }
    }

    /// Closes the current slot if it is full; `ops` counts operations
    /// since the window started and `cpu` reads the CPU time to charge.
    pub fn tick(&mut self, ops: u64, cpu: impl FnOnce() -> Duration) {
        let elapsed = self.mark.elapsed();
        if elapsed < SLOT {
            return;
        }
        let cpu = cpu();
        let done = ops - self.ops;
        self.rates.push(done as f64 / elapsed.as_secs_f64());
        self.cpu_ms_per_op
            .push(cpu.saturating_sub(self.cpu).as_secs_f64() * 1e3 / done.max(1) as f64);
        self.mark = Instant::now();
        self.ops = ops;
        self.cpu = cpu;
    }

    /// Median operations per second over the full slots (NaN if none).
    pub fn rate(&self) -> f64 {
        median_or_nan(&self.rates)
    }

    /// Median CPU milliseconds per operation over the full slots (NaN if
    /// none).
    pub fn cpu_ms_per_op(&self) -> f64 {
        median_or_nan(&self.cpu_ms_per_op)
    }
}

fn median_or_nan(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        median(values)
    }
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: f64) -> f64 {
    ns / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert!(p99_for(&values, "x", false).is_err());
        assert!(p99_for(&values, "x", true).is_ok());
    }

    #[test]
    fn windowed_p99_ignores_one_stalled_window() {
        let mut samples = vec![1.0; 3 * P99_WINDOW];
        for stalled in &mut samples[..50] {
            *stalled = 100.0;
        }
        assert_eq!(quantile(&sorted(samples.clone()), 0.99), 100.0);
        assert_eq!(windowed_p99(&samples), 1.0);
        assert_eq!(windowed_p99(&[3.0, 1.0, 2.0]), 3.0);
    }
}
