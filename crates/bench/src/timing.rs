//! Dependency-free micro-benchmark harness: a small warmup-then-sample loop
//! over [`std::time::Instant`] good enough to rank configurations and spot
//! order-of-magnitude regressions.

use std::time::{Duration, Instant};

/// Summary statistics for one timed configuration.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Configuration label.
    pub label: String,
    /// Fastest observed sample.
    pub min: Duration,
    /// Median sample — the headline number (robust to scheduler noise).
    pub median: Duration,
    /// Arithmetic mean of the samples.
    pub mean: Duration,
    /// Number of measured samples.
    pub samples: usize,
}

impl Timing {
    /// Render as cells for [`crate::print_table`]:
    /// `[label, median_ms, min_ms, mean_ms]`.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.label.clone(),
            format!("{:.3}", self.median.as_secs_f64() * 1e3),
            format!("{:.3}", self.min.as_secs_f64() * 1e3),
            format!("{:.3}", self.mean.as_secs_f64() * 1e3),
        ]
    }
}

/// Time `f` with `warmup` unmeasured runs followed by `samples` measured
/// runs. The closure's return value is passed through a black box so the
/// optimizer cannot delete the computation.
pub fn time_fn<T, F: FnMut() -> T>(
    label: impl Into<String>,
    warmup: usize,
    samples: usize,
    mut f: F,
) -> Timing {
    assert!(samples > 0, "at least one measured sample is required");
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut durations: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    durations.sort_unstable();
    let min = durations[0];
    let median = durations[durations.len() / 2];
    let total: Duration = durations.iter().sum();
    Timing {
        label: label.into(),
        min,
        median,
        mean: total / samples as u32,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_requested_sample_count() {
        let t = time_fn("noop", 1, 5, || 42u64);
        assert_eq!(t.samples, 5);
        assert_eq!(t.label, "noop");
    }

    #[test]
    fn ordering_min_le_median() {
        let mut x = 0u64;
        let t = time_fn("spin", 0, 9, || {
            for i in 0..10_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
            x
        });
        assert!(t.min <= t.median);
        assert!(t.min > Duration::ZERO);
    }

    #[test]
    fn cells_have_four_columns() {
        let t = time_fn("fmt", 0, 3, || ());
        assert_eq!(t.cells().len(), 4);
        assert_eq!(t.cells()[0], "fmt");
    }

    #[test]
    #[should_panic(expected = "at least one measured sample")]
    fn zero_samples_rejected() {
        let _ = time_fn("bad", 0, 0, || ());
    }
}
