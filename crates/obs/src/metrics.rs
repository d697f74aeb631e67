//! Named counters, gauges and log-bucketed histograms.
//!
//! The registry is deliberately minimal: metric names are `&'static str`
//! (call sites name their metrics at compile time), values are integers,
//! and histograms use fixed power-of-two buckets so the record path is a
//! couple of integer ops — no floats, no allocation after first touch.
//!
//! [`MetricsRegistry::render`] produces the `flipper-metrics/v1` text
//! exposition, a Prometheus-style body.

use std::collections::BTreeMap;

/// Number of histogram buckets: bucket `i < 64` holds values `v` with
/// `v <= 2^i`; bucket 64 is the overflow (`+Inf`) bucket.
pub const HIST_BUCKETS: usize = 65;

/// A fixed log-bucketed integer histogram.
///
/// Bucket `i` (for `i < 64`) counts observations `v` with `v <= 2^i`,
/// i.e. upper bounds `1, 2, 4, 8, …`; the last bucket catches everything
/// above `2^63`. Recording is branch-free integer arithmetic on top of a
/// `leading_zeros`, keeping it safe for hot paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Box<[u64; HIST_BUCKETS]>,
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Box::new([0; HIST_BUCKETS]),
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Index of the bucket that holds `v`: the smallest `i` with
    /// `v <= 2^i`, clamped to the overflow bucket.
    pub fn bucket_index(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            // ceil(log2(v)) = 64 - lz(v - 1) for v >= 2.
            (64 - (v - 1).leading_zeros()) as usize
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Per-bucket counts, low bucket first.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// A registry of named counters, gauges and histograms.
///
/// Names are expected to follow Prometheus conventions
/// (`flipper_candidates_counted_total`, …); the registry itself does not
/// enforce them. Iteration order is the `BTreeMap` name order, which makes
/// [`render`](MetricsRegistry::render) output stable across runs.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `v` to the counter `name`, creating it at zero first.
    pub fn counter_add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    /// Set the gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &'static str, v: i64) {
        self.gauges.insert(name, v);
    }

    /// Record `v` in the histogram `name`, creating it empty first.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.histograms.entry(name).or_default().observe(v);
    }

    /// Current value of a counter, if it has been touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Current value of a gauge, if it has been set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// A histogram by name, if it has observations.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Fold another registry into this one (counters and histogram buckets
    /// add; a gauge present in `other` overwrites the local value).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name, *v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
    }

    /// Render the `flipper-metrics/v1` text exposition.
    ///
    /// The body is Prometheus text format prefixed with a schema comment:
    /// `# TYPE` lines, one sample line per counter/gauge, and cumulative
    /// `_bucket{le="…"}`/`_sum`/`_count` lines per histogram. Buckets
    /// above the highest populated one are elided (besides `+Inf`).
    pub fn render(&self) -> String {
        let mut out = format!("# {}\n", flipper_wire::METRICS_V1);
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let top = h
                .buckets
                .iter()
                .rposition(|&c| c != 0)
                .unwrap_or(0)
                .min(HIST_BUCKETS - 2);
            let mut cumulative = 0u64;
            for i in 0..=top {
                cumulative += h.buckets[i];
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                    1u64 << i
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Bucket i holds v <= 2^i, so the boundary values land exactly.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        assert_eq!(Histogram::bucket_index(8), 3);
        assert_eq!(Histogram::bucket_index(9), 4);
        for i in 1..63u32 {
            let b = 1u64 << i;
            assert_eq!(Histogram::bucket_index(b), i as usize, "at 2^{i}");
            assert_eq!(Histogram::bucket_index(b + 1), i as usize + 1, "past 2^{i}");
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_counts_and_sums() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.buckets()[0], 2); // 0 and 1
        assert_eq!(h.buckets()[1], 1); // 2
        assert_eq!(h.buckets()[2], 1); // 3
        assert_eq!(h.buckets()[7], 1); // 100 <= 128
    }

    #[test]
    fn registry_render_is_stable_and_cumulative() {
        let mut m = MetricsRegistry::new();
        m.counter_add("flipper_b_total", 2);
        m.counter_add("flipper_a_total", 1);
        m.gauge_set("flipper_resident", -3);
        m.observe("flipper_lat", 1);
        m.observe("flipper_lat", 3);
        let text = m.render();
        assert!(text.starts_with("# flipper-metrics/v1\n"));
        // Counters sorted by name.
        let a = text.find("flipper_a_total 1").unwrap();
        let b = text.find("flipper_b_total 2").unwrap();
        assert!(a < b);
        assert!(text.contains("flipper_resident -3"));
        // Cumulative buckets: le=1 has 1, le=2 has 1, le=4 has 2.
        assert!(text.contains("flipper_lat_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("flipper_lat_bucket{le=\"2\"} 1\n"));
        assert!(text.contains("flipper_lat_bucket{le=\"4\"} 2\n"));
        assert!(text.contains("flipper_lat_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("flipper_lat_sum 4\n"));
        assert!(text.contains("flipper_lat_count 2\n"));
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.counter_add("c", 1);
        b.counter_add("c", 2);
        a.observe("h", 4);
        b.observe("h", 4);
        b.gauge_set("g", 7);
        a.merge(&b);
        assert_eq!(a.counter("c"), Some(3));
        assert_eq!(a.gauge("g"), Some(7));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }
}
